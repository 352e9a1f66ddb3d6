"""Singular-integral machinery.

Four tools, all serving integrals whose singular factor is known a priori:

* Gauss-Jacobi rules for integrals against (1-z)^(a0-1) z^(-a0) on (0,1),
  built by Golub-Welsch from the three-term recurrence, optionally after
  the substitution z = v^p;
* closed-form product integration of a piecewise-linear interpolant
  against a pure power (t_i - s)^(-beta), from panel moments built in
  blocks of rows: as weights, or contracted with the data (no weights);
* composite Gauss-Legendre on geometrically graded panels for integrands
  with a log or power (< 1) singularity at one end, batched over the upper
  ends of [0, e] with the innermost sliver taken against its measured power
  (graded_rows); one interval is one row of it (graded_panel_quad), and two
  calls make a split convolution of two singularities (split_conv);
* the steppers' memory quadrature: hat-function weights per panel, built
  in blocks of rows with one kernel call per block, 2-point Gauss on the
  interior panels and, on the newest panel, Gauss-Legendre in v after the
  substitution x = tau v^p that jacobi_rule also makes (lag_rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError, ValidationError
from .kernels import gamma

DEFAULT_PANEL_LEVELS = 60
DEFAULT_PANEL_NODES = 16
# rule on the newest memory panel of the steppers, in the lag variable:
# MEMORY_PANEL_NODES-point Gauss-Legendre in v, x = tau v^MEMORY_PANEL_POWER
MEMORY_PANEL_NODES = 16
MEMORY_PANEL_POWER = 8
# points per integrand call of graded_rows
GRADED_ROWS_POINTS = 8192
# graded_rows measures the sliver's power between eps and eps 2^-SLIVER_SPREAD;
# a wide spread damps the rounding of x^y = exp(y ln x) at these tiny z
SLIVER_SPREAD = 24
# rows per block of the product-integration matrix, in every caller
ROW_BLOCK = 32


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
    """Graded time grid t_i = b (i/N)^r, i = 0..N.  points holds the nodes,
    built once and read-only; equality and hashing use (b, n, r) alone."""

    b: float
    n: int
    r: float = 1.0
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.b <= 0 or self.n < 1 or self.r < 1.0:
            raise ValidationError(f"bad mesh (b={self.b}, N={self.n}, r={self.r})")
        i = np.arange(self.n + 1, dtype=float)
        points = self.b * (i / self.n) ** self.r
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def tau(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def is_uniform(self) -> bool:
        return self.r == 1.0

    def refined(self) -> "Mesh":
        """The mesh of 2N steps, whose even nodes are this one's."""
        return Mesh(self.b, 2 * self.n, self.r)

    def nearest(self, ts) -> np.ndarray:
        """Index of the node nearest each t in ts, the lower one on a tie."""
        ts = np.asarray(ts, dtype=float)
        return np.argmin(np.abs(self.points - ts[..., None]), axis=-1)


def default_grading(alpha0: float) -> float:
    """r = max(1, 2/alpha0), the standard choice for t^(alpha0-1) behavior."""
    return max(1.0, 2.0 / alpha0)


# --------------------------------------------- product-integration weights

def _panel_moments(beta: float, t: np.ndarray, a: int, b: int, linear: bool = True,
                   work=None):
    """The clipped lags max(t_i - t_j, 0) of rows a..b-1 against t[:b], as a
    (b-a, b) block, and the moments of (t_i - s)^(-beta) on each panel
    [t_j, t_{j+1}], as (b-a, b-1) blocks: m0_ij = int (t_i - s)^(-beta) ds
    and, when linear, m1_ij = int s (t_i - s)^(-beta) ds (else None).
    With work, a (5, ROW_BLOCK len(t)) array, the blocks are contiguous
    views of it, so a caller looping over blocks touches no fresh memory."""
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"beta must lie in (0,1), got {beta}")
    if not 0 <= a < b <= len(t):
        raise ValidationError(f"row block [{a}, {b}) outside 0..{len(t)}")

    def buf(k, cols):
        return None if work is None else work[k, : (b - a) * cols].reshape(b - a, cols)

    ti = t[a:b, None]
    # panel j runs from lag[:, j+1] to lag[:, j] in u = t_i - s; only the
    # lags of nodes j > a can be negative
    lag = np.subtract(ti, t[None, :b], out=buf(0, b))
    np.maximum(lag[:, a:], 0.0, out=lag[:, a:])
    p = np.power(lag, 1.0 - beta, out=buf(1, b))
    m0 = np.subtract(p[:, :-1], p[:, 1:], out=buf(2, b - 1))
    m0 /= 1.0 - beta
    if not linear:
        return lag, m0, None
    np.power(lag, 2.0 - beta, out=p)
    p2 = np.subtract(p[:, :-1], p[:, 1:], out=buf(3, b - 1))
    p2 /= 2.0 - beta
    m1 = np.multiply(ti, m0, out=buf(4, b - 1))
    m1 -= p2
    return lag, m0, m1


def power_conv_rows(beta: float, t: np.ndarray, a: int, b: int,
                    derivative: bool = False) -> np.ndarray:
    """Rows a..b-1, as a (b-a, b) block, of the lower-triangular W with
    sum_j W_ij phi(t_j) = int_0^{t_i} (t_i - s)^(-beta) phihat(s) ds exactly
    for the piecewise-linear interpolant phihat of phi on the nodes t:
    the hat weights (t_{j+1} m0 - m1) / h_j and (m1 - t_j m0) / h_j of the
    panel moments.  derivative=True gives the L1 rows of d/dt of that
    integral at t_i: t_i^(-beta) phi_0 + sum_j m0_ij (phi_{j+1} - phi_j) / h_j.
    The lags are clipped, so row 0 and the entries j > i are 0."""
    h = np.diff(t[:b])
    _, m0, m1 = _panel_moments(beta, t, a, b, linear=not derivative)
    out = np.zeros((b - a, b))
    if derivative:
        # a scalar power per row: the array power may differ in the last bit
        out[:, 0] = [math.pow(x, -beta) if x > 0.0 else 0.0 for x in t[a:b]]
        out[:, :-1] -= m0 / h
        out[:, 1:] += m0 / h
        return out
    out[:, :-1] += (t[1:b] * m0 - m1) / h
    out[:, 1:] += (m1 - t[: b - 1] * m0) / h
    return out


def power_conv_apply(beta: float, t: np.ndarray, v: np.ndarray,
                     lag_factor=None) -> np.ndarray:
    """W @ v for the matrix of power_conv_rows, without forming W.  On panel
    j the interpolant of v is A_j + B_j s, B_j = (v_{j+1} - v_j) / h_j and
    A_j = v_j - t_j B_j, so row i is sum_j m0_ij A_j + m1_ij B_j with the
    panel moments, ROW_BLOCK rows at a time.  With lag_factor, v is
    lag_factor(max(t_i - t_j, 0)) v_j in row i, so A and B are matrices:
    the product with W multiplied elementwise by lag_factor on its lags."""
    v = np.asarray(v, dtype=float)
    h = np.diff(t)

    def linear_parts(vals):
        b = vals.shape[-1]
        slope = np.diff(vals, axis=-1) / h[: b - 1]
        return vals[..., :-1] - t[: b - 1] * slope, slope

    if lag_factor is None:
        base, slope = linear_parts(v)
    out = np.empty(len(t))
    work = np.empty((5, min(ROW_BLOCK, len(t)) * len(t)))
    for a in range(0, len(t), ROW_BLOCK):
        b = min(a + ROW_BLOCK, len(t))
        lag, m0, m1 = _panel_moments(beta, t, a, b, work=work)
        if lag_factor is None:
            # one vector for every row, broadcast by _rowdot
            A, B = base[: b - 1], slope[: b - 1]
        else:
            A, B = linear_parts(lag_factor(lag) * v[:b])
        out[a:b] = _rowdot(m0, A) + _rowdot(m1, B)
    return out


def power_conv_weights(beta: float, mesh: Mesh, i: int) -> np.ndarray:
    """Row i of power_conv_rows on the mesh, {w_ij, j = 0..i}."""
    if not 1 <= i <= mesh.n:
        raise ValidationError(f"step index {i} outside 1..{mesh.n}")
    return power_conv_rows(beta, mesh.points, i, i + 1)[0]


# ------------------------------------------------- graded panel quadrature

@lru_cache(maxsize=16)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def lag_rule(tau):
    """Nodes and weights for int_0^tau f(x) dx, f singular like ln x or a
    power x^(-beta) at x = 0: Gauss-Legendre in v on (0, 1) after
    x = tau v^p, p = MEMORY_PANEL_POWER, which turns x^(-beta) dx into the
    smooth p tau^(1-beta) v^(p(1-beta)-1) dv.  tau may be an array; the
    rule runs along a new last axis."""
    x, w = _lag_unit_rule()
    tau = np.asarray(tau, dtype=float)[..., None]
    return tau * x, tau * w


@lru_cache(maxsize=1)
def _lag_unit_rule():
    """lag_rule(1)."""
    g, w = _leggauss(MEMORY_PANEL_NODES)
    v = 0.5 * (g + 1.0)
    p = MEMORY_PANEL_POWER
    return v ** p, 0.5 * p * v ** (p - 1) * w


@lru_cache(maxsize=8)
def _unit_rule(levels: int):
    """Gauss-Legendre nodes and weights on the panels [2^-(k+1), 2^-k],
    k < levels: every rule of graded_rows on [0, e] is e times this one."""
    x, w = _leggauss(DEFAULT_PANEL_NODES)
    hi = 0.5 ** np.arange(levels)
    half, mid = 0.25 * hi, 0.75 * hi     # exact: hi is a power of two
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def graded_rows(fn, ends, levels: int) -> np.ndarray:
    """int_0^e fn(z, e) dz for every e > 0 in ends, singular end at 0.

    Gauss-Legendre on the panels [e 2^-(k+1), e 2^-k], k < levels, covers
    [eps, e], eps = e 2^-levels.  The sliver [0, eps] holds a share
    ~eps^(1-beta) of an integrand ~ z^(-beta), large for beta near 1, so it
    is fn(eps) eps / (1 - beta), with beta measured from fn(eps) and
    fn(eps 2^-SLIVER_SPREAD): 0 when they are zero or differ in sign, and
    beta >= 1 raises NumericalError.

    fn gets z of shape (B, P), row b being e_b times the unit panel nodes
    and the two sliver points, and e of shape (B, 1); its result broadcasts
    to (B, P).  Rows go to fn in chunks of about GRADED_ROWS_POINTS points
    and each is reduced on its own, so it does not depend on its batch.
    """
    ends = np.asarray(ends, dtype=float).ravel()
    if not np.all(ends > 0.0):
        raise ValidationError("graded_rows needs upper ends e > 0")
    x, w = _unit_rule(levels)
    eps = 0.5 ** levels
    x = np.concatenate((x, [eps, eps * 0.5 ** SLIVER_SPREAD]))
    rows = max(1, GRADED_ROWS_POINTS // x.size)
    out = np.empty(ends.size)
    for a in range(0, ends.size, rows):
        e = ends[a : a + rows, None]
        z = e * x
        vals = np.broadcast_to(np.asarray(fn(z, e), dtype=float), z.shape)
        if not np.all(np.isfinite(vals)):
            bad = z[~np.isfinite(vals)][0]
            raise NumericalError(f"non-finite integrand value at {bad!r}")
        near, far = vals[:, -2], vals[:, -1]
        # signs, not near * far, which under- or overflows at extreme scales
        ratio = np.divide(far, near, out=np.ones_like(near),
                          where=np.sign(near) * np.sign(far) > 0.0)
        beta = np.log2(ratio) / SLIVER_SPREAD
        if np.any(beta >= 1.0):
            raise NumericalError(f"integrand ~ z^(-{beta.max():.3g}) is not integrable at 0")
        sliver = near * eps / (1.0 - beta)
        out[a : a + rows] = (np.sum(vals[:, :-2] * w, axis=1) + sliver) * ends[a : a + rows]
    return out


def split_conv(left, right, ends, levels: int) -> np.ndarray:
    """int_0^e left(s) right(e - s) ds for every e > 0 in ends, where both
    factors may have an integrable power singularity at zero argument.  The
    integral is split at h = e/2 and each half is one graded_rows call in the
    variable that puts its singularity at zero, so no small lag is formed by
    subtraction; e = 2h exactly."""
    def near_left(s, h):
        return np.asarray(left(s)) * np.asarray(right(2.0 * h - s))

    def near_right(x, h):
        return np.asarray(left(2.0 * h - x)) * np.asarray(right(x))

    half = 0.5 * np.asarray(ends, dtype=float)
    return graded_rows(near_left, half, levels) + graded_rows(near_right, half, levels)


def memory_panel_weights(m, t: np.ndarray, a: int, b: int):
    """Rows a..b-1 of the steppers' memory quadrature, as two (b-a, b-1)
    blocks w0, w1 with

        int_0^{t_i} m(y, t_i - y) uhat(y) dy = w0[i-a, :i] @ u[:i]
                                              + w1[i-a, :i] @ u[1:i+1]

    for the piecewise-linear interpolant uhat of the nodal values u, i.e.
    the weights of the two hat functions on each panel; row 0 and the
    entries j >= i are 0.  Interior panels use 2-point Gauss; the newest
    panel of row i, where m may be singular at zero lag, uses
    lag_rule(t_i - t_{i-1}) in x = t_i - y, and m receives those lags
    exactly.  m(y, x) is called once, on 1-D arrays of the nodes y of every
    row in the block and their lags x.
    """
    if not 0 <= a < b <= len(t):
        raise ValidationError(f"row block [{a}, {b}) outside 0..{len(t)}")
    w0 = np.zeros((b - a, b - 1))
    w1 = np.zeros((b - a, b - 1))
    rows = np.arange(max(a, 1), b)
    if rows.size == 0:
        return w0, w1
    ti = t[rows]
    # panel j < i - 1 is interior to row i; its Gauss nodes do not depend on
    # i, so row i's interior nodes are the first 2(i-1) of ys
    gx, gw = _leggauss(2)
    lo, hi = t[: b - 2], t[1 : b - 1]
    half = 0.5 * (hi - lo)
    ys = 0.5 * (hi + lo)[:, None] + half[:, None] * gx[None, :]
    frac = (ys - lo[:, None]) / (hi - lo)[:, None]
    counts = 2 * (rows - 1)
    y_in = np.concatenate([ys.ravel()[:c] for c in counts])
    tau = ti - t[rows - 1]
    xs, xw = lag_rule(tau)
    vals = np.asarray(m(np.concatenate((y_in, (ti[:, None] - xs).ravel())),
                        np.concatenate((np.repeat(ti, counts) - y_in, xs.ravel()))),
                      dtype=float)
    newest = vals[y_in.size:].reshape(xs.shape)
    bad = ~np.all(np.isfinite(newest), axis=1)
    if np.any(bad):
        raise NumericalError(f"non-finite memory kernel near t = {ti[bad][0]}")
    # the interior panels of every row on one (rows, b-2, 2) grid, 0 where a
    # panel is not interior to the row
    interior = np.zeros((rows.size, b - 2, 2))
    flat = interior.reshape(rows.size, -1)
    for r, (c, end) in enumerate(zip(counts, np.cumsum(counts))):
        flat[r, :c] = vals[end - c : end]
    interior *= half[:, None] * gw[None, :]
    left = interior * (1.0 - frac)   # each panel's share of its left node
    w0[rows[0] - a :, :-1] = left[..., 0] + left[..., 1]
    interior *= frac
    w1[rows[0] - a :, :-1] = interior[..., 0] + interior[..., 1]
    newest = xw * newest
    frac_last = xs / tau[:, None]   # u_{i-1} sits at lag x = tau
    w0[rows - a, rows - 1] = _rowdot(newest, frac_last)
    w1[rows - a, rows - 1] = _rowdot(newest, 1.0 - frac_last)
    return w0, w1


def memory_points(n: int) -> int:
    """Kernel points memory_panel_weights evaluates over all rows of a mesh
    of n steps: 2(i - 1) interior and MEMORY_PANEL_NODES newest for row i."""
    return n * (n - 1) + MEMORY_PANEL_NODES * n


def _rowdot(p, q):
    """np.dot of each row of p with the same row of q, with its bits; a 1-D
    q is every row's."""
    return np.matmul(p[:, None, :], q[..., None])[:, 0, 0]


def graded_panel_quad(fn, a: float, b: float, singular_end: str = "left",
                      levels: int = DEFAULT_PANEL_LEVELS) -> float:
    """int_a^b fn(x) dx for fn with a log or power (< 1) singularity at the
    singular end: graded_rows on [0, b - a] in the distance z from that end.
    A nonzero singular end caps levels so that its far sliver point stays
    distinct from it in floating point; a log singularity there is then
    integrated only to ~1e-6 (int_2^3 ln(x - 2) dx).  fn gets an array of
    points and must be finite on them.
    """
    if not a < b:
        raise ValidationError(f"empty interval [{a}, {b}]")
    if singular_end not in ("left", "right"):
        raise ValidationError("singular_end must be 'left' or 'right'")
    left = singular_end == "left"
    sp = abs(a) if left else abs(b)
    if sp > 0.0:
        cap = int(np.floor(np.log2((b - a) / (500.0 * np.finfo(float).eps * sp))))
        levels = max(1, min(levels, cap - SLIVER_SPREAD))
    return float(graded_rows(lambda z, e: fn(a + z) if left else fn(b - z),
                             [b - a], levels)[0])
