"""Singular-integral machinery.

Four tools, all serving integrals whose singular factor is known a priori:

* Gauss-Jacobi rules for integrals against (1-z)^(a0-1) z^(-a0) on (0,1),
  built by Golub-Welsch from the three-term recurrence, optionally after
  the substitution z = v^p;
* closed-form product-integration weights for convolving a piecewise-linear
  interpolant with a pure power |t* - s|^(-beta);
* composite Gauss-Legendre on geometrically graded panels for integrands
  with a log or power (< 1) singularity at one end, one interval at a time
  or batched over the upper ends of [0, e];
* the steppers' memory quadrature, hat-function weights per panel built
  from the last two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError, ValidationError
from .kernels import gamma

DEFAULT_PANEL_LEVELS = 60
DEFAULT_PANEL_NODES = 16
# graded rule on the newest memory panel of the steppers, in the lag variable
MEMORY_PANEL_LEVELS = 30
MEMORY_PANEL_NODES = 8
# points per integrand call of graded_rows
GRADED_ROWS_POINTS = 8192


@dataclass(frozen=True)
class JacobiRule:
    """Nodes/weights for int_0^1 (1-z)^(a0-1) z^(-a0) phi(z) dz."""

    alpha0: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    def integrate(self, phi) -> float:
        return float(np.dot(self.weights, phi(self.nodes)))


def jacobi_rule(alpha0: float, n: int, p: int = 1) -> JacobiRule:
    """Rule for int_0^1 (1-z)^(a0-1) z^(-a0) phi(z) dz; total mass kappa(a0).

    p = 1 is the classical Golub-Welsch rule for Jacobi parameters
    (a0-1, -a0) mapped from [-1,1] to [0,1].  p > 1 substitutes z = v^p:
    the weight becomes (1-v)^(a0-1) v^(p(1-a0)-1) times the smooth factor
    p (1 + v + ... + v^(p-1))^(a0-1), and phi(v^p) flattens the z log z
    behaviour of variable-exponent integrands, so the rule converges fast
    on them too.
    """
    if not 0.0 < alpha0 < 1.0:
        raise ValidationError(f"alpha0 must lie in (0,1), got {alpha0}")
    if n < 1:
        raise ValidationError("need at least one node")
    if p < 1:
        raise ValidationError(f"power p must be a positive integer, got {p}")
    a = alpha0 - 1.0
    b = -alpha0 if p == 1 else p * (1.0 - alpha0) - 1.0   # p = 1: bit for bit
    diag, off, mass = _jacobi_recurrence(n, a, b)
    if n == 1:
        x = np.array([diag[0]])
        w = np.array([mass])
    else:
        try:
            x, vec = eigh_tridiagonal(diag, off)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalError(f"Jacobi eigensolver failed for n={n}") from exc
        w = mass * vec[0, :] ** 2
    order = np.argsort(x)
    v = 0.5 * (x[order] + 1.0)
    w = w[order]
    if p == 1:
        # the affine map has unit Jacobian against this weight: a+b+1 = 0
        return JacobiRule(alpha0, v, w)
    geometric = np.polyval(np.ones(p), v)          # 1 + v + ... + v^(p-1)
    w = p * 2.0 ** -(a + b + 1.0) * w * geometric ** (alpha0 - 1.0)
    return JacobiRule(alpha0, v ** p, w)


def _jacobi_recurrence(n, a, b):
    """Recurrence coefficients on [-1,1] for weight (1-x)^a (1+x)^b (Gautschi)."""
    diag = np.zeros(n)
    off = np.zeros(max(n - 1, 0))
    apb2 = 2.0 + a + b
    diag[0] = (b - a) / apb2
    mass = 2.0 ** (a + b + 1.0) * gamma(a + 1.0) * gamma(b + 1.0) / gamma(a + b + 2.0)
    if n > 1:
        off[0] = np.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((apb2 + 1.0) * apb2 * apb2))
    for i in range(1, n):
        apb2 = 2.0 * (i + 1) + a + b
        diag[i] = (b * b - a * a) / ((apb2 - 2.0) * apb2)
        if i < n - 1:
            k = i + 1
            off[i] = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                             / ((apb2 * apb2 - 1.0) * apb2 * apb2))
    return diag, off, mass


# ---------------------------------------------------------------- meshes

@dataclass(frozen=True)
class Mesh:
    """Graded time grid t_i = b (i/N)^r, i = 0..N."""

    b: float
    n: int
    r: float = 1.0

    def __post_init__(self):
        if self.b <= 0 or self.n < 1 or self.r < 1.0:
            raise ValidationError(f"bad mesh (b={self.b}, N={self.n}, r={self.r})")

    @property
    def points(self) -> np.ndarray:
        i = np.arange(self.n + 1, dtype=float)
        return self.b * (i / self.n) ** self.r

    @property
    def tau(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def is_uniform(self) -> bool:
        return self.r == 1.0

    def refined(self, factor: int = 2) -> "Mesh":
        return Mesh(self.b, self.n * factor, self.r)


def default_grading(alpha0: float) -> float:
    """r = max(1, 2/alpha0), the standard choice for t^(alpha0-1) behavior."""
    return max(1.0, 2.0 / alpha0)


# --------------------------------------------- product-integration weights

def power_conv_weights(beta: float, mesh: Mesh, i: int,
                       singular_end: str = "right") -> np.ndarray:
    """Weights {w_ij, j=0..i} with sum_j w_ij phi(t_j) equal to

        int_0^{t_i} (t_i - s)^(-beta) phihat(s) ds   (singular_end="right")
        int_0^{t_i} s^(-beta)        phihat(s) ds   (singular_end="left")

    exactly for the piecewise-linear interpolant phihat of phi on the mesh;
    row i of power_conv_matrix.
    """
    if not 1 <= i <= mesh.n:
        raise ValidationError(f"step index {i} outside 1..{mesh.n}")
    return _conv_row(beta, mesh.points, i, singular_end, False, np.zeros(i + 1))


def power_conv_matrix(beta: float, mesh: Mesh, singular_end: str = "right",
                      derivative: bool = False) -> np.ndarray:
    """The lower-triangular (N+1)x(N+1) matrix of the rows i = 1..N above
    (row 0 is zero).  derivative=True (right end only) gives the L1 rows of
    d/dt int_0^t (t - s)^(-beta) phihat(s) ds at t = t_i instead:
    t_i^(-beta) phi_0 + sum_j m0_ij (phi_{j+1} - phi_j) / tau_j."""
    t = mesh.points
    w = np.zeros((mesh.n + 1, mesh.n + 1))
    for i in range(1, mesh.n + 1):
        _conv_row(beta, t, i, singular_end, derivative, w[i, : i + 1])
    return w


def _conv_row(beta, t, i, singular_end, derivative, out):
    """Add row i to out[:i+1] (zeroed) from the panel moments
    m0 = int (.)^(-beta) ds and m1 = int s (.)^(-beta) ds; returns out."""
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"beta must lie in (0,1), got {beta}")
    ti = t[i]
    lo, hi = t[:i], t[1 : i + 1]
    h = hi - lo
    if singular_end == "right":
        # u = t_i - s per panel; panel j runs from u = lag[j+1] to lag[j]
        lag = ti - t[: i + 1]
        p1 = lag ** (1.0 - beta)
        m0 = (p1[:-1] - p1[1:]) / (1.0 - beta)
        if derivative:
            out[0] = ti ** -beta
            out[:i] -= m0 / h
            out[1:] += m0 / h
            return out
        p2 = lag ** (2.0 - beta)
        m1 = ti * m0 - (p2[:-1] - p2[1:]) / (2.0 - beta)
    elif singular_end == "left" and not derivative:
        p1 = t[: i + 1] ** (1.0 - beta)
        p2 = t[: i + 1] ** (2.0 - beta)
        m0 = (p1[1:] - p1[:-1]) / (1.0 - beta)
        m1 = (p2[1:] - p2[:-1]) / (2.0 - beta)
    else:
        raise ValidationError("singular_end must be 'left' or 'right' "
                              "('right' for the derivative form)")
    out[:i] += (hi * m0 - m1) / h
    out[1:] += (m1 - lo * m0) / h
    return out


def power_moment(beta: float, upper: float) -> float:
    """int_0^T s^(-beta) ds, the row-sum identity for the weights above."""
    return upper ** (1.0 - beta) / (1.0 - beta)


# ------------------------------------------------- graded panel quadrature

@lru_cache(maxsize=16)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def graded_nodes(a: float, b: float, singular_end: str = "left",
                 levels: int = DEFAULT_PANEL_LEVELS,
                 nodes_per_panel: int = DEFAULT_PANEL_NODES):
    """Points/weights of the composite graded Gauss-Legendre rule used by
    graded_panel_quad, for callers that integrate several integrands at once."""
    if not a < b:
        raise ValidationError(f"empty interval [{a}, {b}]")
    if singular_end not in ("left", "right"):
        raise ValidationError("singular_end must be 'left' or 'right'")
    x, w = _leggauss(nodes_per_panel)
    width = b - a
    sp = abs(a) if singular_end == "left" else abs(b)
    if sp > 0.0:
        eps = np.finfo(float).eps
        cap = int(np.floor(np.log2(width / (500.0 * eps * sp))))
        levels = max(1, min(levels, cap))
    offs = width * 0.5 ** np.arange(levels + 1)
    edges = np.concatenate((offs, [0.0]))
    if singular_end == "left":
        lo, hi = a + edges[1:], a + edges[:-1]
    else:
        lo, hi = b - edges[:-1], b - edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def lag_rule(tau: float):
    """graded_nodes(0, tau, "left") at the memory-panel size, scaled from
    one unit rule built once."""
    x, w = _unit_rule(MEMORY_PANEL_LEVELS, MEMORY_PANEL_NODES)
    return tau * x, tau * w


@lru_cache(maxsize=8)
def _unit_rule(levels: int, nodes_per_panel: int):
    """graded_nodes(0, 1, "left"): every rule on [0, e] with its singular
    end at 0 is e times this one."""
    return graded_nodes(0.0, 1.0, "left", levels, nodes_per_panel)


def graded_rows(fn, ends, levels: int) -> np.ndarray:
    """int_0^e fn(z, e) dz for every e > 0 in ends, singular end at 0: the
    batched form of graded_panel_quad(lambda z: fn(z, e), 0, e, "left",
    levels=levels).

    fn gets z of shape (B, P), row b being e_b times the unit rule, and e of
    shape (B, 1); its result broadcasts to (B, P).  Rows go to fn in chunks
    of about GRADED_ROWS_POINTS points and each row is reduced on its own,
    so a row's value does not depend on the rows batched with it.
    """
    ends = np.asarray(ends, dtype=float).ravel()
    if not np.all(ends > 0.0):
        raise ValidationError("graded_rows needs upper ends e > 0")
    x, w = _unit_rule(levels, DEFAULT_PANEL_NODES)
    rows = max(1, GRADED_ROWS_POINTS // x.size)
    out = np.empty(ends.size)
    for a in range(0, ends.size, rows):
        e = ends[a : a + rows, None]
        z = e * x
        vals = np.broadcast_to(np.asarray(fn(z, e), dtype=float), z.shape)
        if not np.all(np.isfinite(vals)):
            bad = z[~np.isfinite(vals)][0]
            raise NumericalError(f"non-finite integrand value at {bad!r}")
        out[a : a + rows] = np.sum(vals * w, axis=1) * ends[a : a + rows]
    return out


def memory_panel_weights(m, t: np.ndarray, i: int):
    """Row i of the steppers' memory quadrature: arrays m0, m1 of length i
    with

        int_0^{t_i} m(y, t_i - y) uhat(y) dy = m0 @ u[:i] + m1 @ u[1:i+1]

    for the piecewise-linear interpolant uhat of the nodal values u, i.e. the
    weights of the two hat functions on each panel.  Interior panels use
    2-point Gauss; the newest panel, where m may be singular at zero lag,
    uses lag_rule in x = t_i - y, so the lag m receives there is exact.
    m(y, x) is called once, on arrays of nodes y and their lags x.
    """
    ti = t[i]
    gx, gw = _leggauss(2)
    lo, hi = t[: i - 1], t[1:i]
    half = 0.5 * (hi - lo)
    ys = 0.5 * (hi + lo)[:, None] + half[:, None] * gx[None, :]
    xs, xw = lag_rule(ti - t[i - 1])
    vals = np.asarray(m(np.concatenate((ys.ravel(), ti - xs)),
                        np.concatenate(((ti - ys).ravel(), xs))), dtype=float)
    newest = vals[ys.size:]
    if not np.all(np.isfinite(newest)):
        raise NumericalError(f"non-finite memory kernel near t = {ti}")
    interior = vals[: ys.size].reshape(ys.shape) * (half[:, None] * gw[None, :])
    frac = (ys - lo[:, None]) / (hi - lo)[:, None]
    newest = xw * newest
    frac_last = xs / (ti - t[i - 1])   # u_{i-1} sits at lag x = tau
    m0 = np.append(np.sum(interior * (1.0 - frac), axis=1), np.dot(newest, frac_last))
    m1 = np.append(np.sum(interior * frac, axis=1), np.dot(newest, 1.0 - frac_last))
    return m0, m1


def graded_panel_quad(fn, a: float, b: float, singular_end: str = "left",
                      levels: int = DEFAULT_PANEL_LEVELS,
                      nodes_per_panel: int = DEFAULT_PANEL_NODES) -> float:
    """Composite Gauss-Legendre over panels graded (ratio 1/2) toward the
    singular end; the innermost sliver uses the same open rule, so the
    integrand is never evaluated at the endpoint itself.

    fn must accept a numpy array of points and return finite values at all
    interior nodes.
    """
    pts, wts = graded_nodes(a, b, singular_end, levels, nodes_per_panel)
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != pts.shape:
        vals = np.broadcast_to(vals, pts.shape)
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise NumericalError(f"non-finite integrand value at {bad!r}")
    return float(np.dot(wts, vals))
