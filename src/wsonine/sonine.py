"""Weighted Sonine functions and condition verification.

g(s,t) and its t-derivative are evaluated from the substituted single
integral over (0,1) whose endpoint singularities are absorbed exactly by
one fixed-size Gauss-Jacobi rule in the variable v = z^(1/p); the raw
convolution form is kept only as an independent reference for
verification reports.  G(s,t) (the order-swapped condition), its
t-derivative and the classical identity are integrals against the same
measure and use the same rule.  G is supported for constant exponents
only, where the classical Sonine identity makes its reformulation exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .csvfile import write_csv
from .errors import (DomainError, NumericalError, UnsupportedConfigurationError,
                     ValidationError)
from .expr import substitute
from .kernels import KernelPair, Weight, gamma
# graded_panel_quad stays bound here: the benchmark's span tracer patches it
from .quadrature import (DEFAULT_PANEL_LEVELS, JacobiRule,  # noqa: F401
                         graded_panel_quad, graded_rows, jacobi_rule, split_conv)

IDENTITY_TOL = 1e-8

# For variable exponents the factor (tz)^(a0 - a(tz)) behaves like z log z
# near z = 0.  Substituting z = v^4 turns that into v^4 log v, which the
# Gauss-Jacobi rule in v integrates to ~1e-12 with 24 nodes for every
# exponent; constant exponents are exact at this size as well.
SONINE_JACOBI_N = 24
SONINE_JACOBI_POWER = 4


@dataclass(frozen=True)
class SonineData:
    """A kernel pair, a weight, and the one quadrature rule evaluating g,
    g2, G, G2 and the classical identity."""

    pair: KernelPair
    weight: Weight
    rule: JacobiRule
    diag_min: float          # min |g(t,0)| on the validation grid
    # the g2table.G2Table under "table" once g2table.g2_table has built it
    g2_cache: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    # the WSC1 gate's VerificationReport under "wsc1" once vie.require_wsc1
    # has run it: the verdict depends on the data alone
    gate_cache: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @classmethod
    def make(cls, pair: KernelPair, weight: Weight,
             rule_n: int = SONINE_JACOBI_N) -> "SonineData":
        rule = jacobi_rule(pair.alpha0, rule_n, SONINE_JACOBI_POWER)
        grid = np.linspace(0.0, pair.b, 256)
        diag = np.abs(np.broadcast_to(weight(grid, grid), grid.shape))
        return cls(pair, weight, rule, float(diag.min()))

    @property
    def b(self) -> float:
        return self.pair.b


def _check_domain(data, s, t, need_t_positive=False):
    """Broadcast (s, t) after checking s, t >= 0 and s + t <= b."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise DomainError("need s >= 0 and t >= 0")
    if need_t_positive and np.any(t <= 0.0):
        raise DomainError("g2 is undefined at t = 0 (may be unbounded)")
    if np.any(s + t > data.b * (1.0 + 1e-12)):
        raise DomainError(f"s + t must not exceed the horizon b = {data.b}")
    return np.broadcast_arrays(s, t)


def eval_g(data: SonineData, s, t):
    """g(s,t) by the Jacobi rule; exactly w(s,s) on the t = 0 branch."""
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    s, t = _check_domain(data, s, t)
    pair, w, rule = data.pair, data.weight, data.rule
    shape = s.shape
    s2 = s.reshape(-1, 1)
    t2 = t.reshape(-1, 1)
    tpos = np.where(t2 > 0.0, t2, 1.0)  # placeholder keeps x > 0 in dead lanes
    x = tpos * rule.nodes[None, :]
    vals = np.asarray(w(s2, x + s2)) * pair.smooth_factor(x) * pair.gamma_ratio(x)
    out = (vals @ rule.weights) / pair.kappa
    out = np.where(t.ravel() > 0.0, out, np.asarray(w(s, s)).ravel()).reshape(shape)
    return float(out) if scalar else out


# Below this lag (alpha(0) - alpha(x))/x cancels, so it is taken as minus
# the 2-point Gauss-Legendre mean of alpha' over [0, x].
SMALL_LAG = 1e-3
# eval_g2 takes G2_CHUNK points at a time into one workspace per call.  With
# most of its working set in one block, glibc's mmap and trim thresholds
# settle above it, so the steppers' calls do not fault their memory back in.
G2_CHUNK = 512
G2_BUFFERS = 6
_MEAN_NODES = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)


def eval_g2(data: SonineData, s, t):
    """dg/dt = (1/kappa) sum_j w_j z_j phi (w_t + w D) at x = t z_j (t > 0),
    phi = x^e, e = alpha(0) - alpha(x), D = e/x - alpha'(x) ln x; a normalized
    pair multiplies phi by Gamma(1-alpha(0))/Gamma(1-alpha(x)) and adds
    digamma(1-alpha(x)) alpha'(x) to D.  A constant exponent leaves w_t z."""
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    s, t = _check_domain(data, s, t, need_t_positive=True)
    out = np.empty(s.shape)
    work = np.empty((G2_BUFFERS, G2_CHUNK, data.rule.n))
    for a in range(0, s.size, G2_CHUNK):
        chunk = slice(a, a + G2_CHUNK)
        out.flat[chunk] = _g2_chunk(data, s.flat[chunk], t.flat[chunk], work)
    return float(out) if scalar else out


def _g2_chunk(data, s, t, work):
    """eval_g2 on 1-D arrays s, t > 0 of equal length, scratch in work."""
    pair, w, rule = data.pair, data.weight, data.rule
    x, y, e, log_x, phi, d = work[:, : len(s)]
    s2 = s[:, None]
    z = rule.nodes[None, :]
    np.multiply(t[:, None], z, out=x)
    np.add(x, s2, out=y)
    expo = pair.exponent
    if expo.is_constant:
        vals = np.broadcast_to(np.asarray(w.dt(s2, y)) * z, x.shape)
        return (vals @ rule.weights) / pair.kappa
    a = np.asarray(expo(x))
    ap = np.asarray(expo.prime(x))
    np.subtract(pair.alpha0, a, out=e)
    np.log(x, out=log_x)
    np.exp(np.multiply(e, log_x, out=phi), out=phi)
    np.divide(e, x, out=d)
    small = x < SMALL_LAG
    if small.any():
        xs = x[small]
        d[small] = -0.5 * sum(np.asarray(expo.prime(xs * c)) for c in _MEAN_NODES)
    d -= np.multiply(ap, log_x, out=log_x)
    if pair.normalized:
        phi *= gamma(1.0 - pair.alpha0) / gamma(1.0 - a)
        d += special.digamma(1.0 - a) * ap
    d *= np.asarray(w(s2, y))
    d += np.asarray(w.dt(s2, y))
    phi *= z
    phi *= d
    return (phi @ rule.weights) / pair.kappa


def g2_vanishes(pair: KernelPair, weight: Weight, s=None) -> bool:
    """True when g2(s, .) is identically 0: the exponent is constant and
    w_t folds to the constant 0, at the given s or, with s None, for every s."""
    if not pair.exponent.is_constant:
        return False
    w_t = substitute(weight.w2, {} if s is None else {"s": float(s)})
    return w_t.kind == "const" and w_t.value == 0.0


def g_reference(data: SonineData, s: float, t: float) -> float:
    """Independent evaluation of the raw convolution defining g(s,t),
    int_0^t w(s, z+s) k(z) K(t-z) dz, by split_conv; w(s,s) at t = 0."""
    if t <= 0.0:
        return float(data.weight(s, s))
    weighted_k = lambda z: np.asarray(data.weight(s, z + s)) * data.pair.k(z)
    return float(split_conv(weighted_k, data.pair.K, [t], DEFAULT_PANEL_LEVELS)[0])


def csc_residual(data: SonineData, t):
    """|int_0^t K(t-s) k(s) ds - 1| at each t in (0, b], by split_conv, so
    the check exercises k and K themselves (on the Jacobi rule, a constant
    exponent reduces it to the rule's mass against kappa).  A float for a
    scalar t, else an array of t's shape."""
    pair = data.pair
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t > pair.b):
        raise DomainError(f"t must lie in (0, {pair.b}]")
    res = np.abs(split_conv(pair.k, pair.K, t, DEFAULT_PANEL_LEVELS) - 1.0)
    return float(res[0]) if t.ndim == 0 else res.reshape(t.shape)


# -------------------------------------------------------------- WSC2 side

def _require_constant(pair, what):
    if not pair.exponent.is_constant:
        raise UnsupportedConfigurationError(
            f"{what} is supported for constant exponents only; the weighted "
            "condition with order swapped is unproven for variable exponents")


def eval_G(data: SonineData, s, t):
    """G(s,t) = w(s,s) + int_0^t (w(s,t-z+s) - w(s,s)) k(z) K(t-z) dz,
    with the singular product absorbed by the Jacobi rule."""
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    _require_constant(data.pair, "eval_G")
    s, t = _check_domain(data, s, t)
    w, rule = data.weight, data.rule
    s2 = s.reshape(-1, 1)
    y = t.reshape(-1, 1) * (1.0 - rule.nodes[None, :]) + s2
    wss = np.broadcast_to(np.asarray(w(s, s), dtype=float), s.shape)
    vals = np.broadcast_to(np.asarray(w(s2, y)), y.shape) - wss.reshape(-1, 1)
    out = wss + (vals @ rule.weights).reshape(s.shape) / data.pair.kappa
    out = np.where(t > 0.0, out, wss)
    return float(out) if scalar else out


def eval_G2(data: SonineData, s, t):
    """dG/dt = (1/kappa) int_0^1 (1-z) w_t(s, t(1-z)+s) (1-z)^(a0-1) z^(-a0) dz,
    eval_G's integral differentiated under the integral sign, on its rule."""
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    _require_constant(data.pair, "eval_G2")
    s, t = _check_domain(data, s, t)
    w, rule = data.weight, data.rule
    s2 = s.reshape(-1, 1)
    one_minus_z = 1.0 - rule.nodes[None, :]
    vals = one_minus_z * np.asarray(w.dt(s2, t.reshape(-1, 1) * one_minus_z + s2))
    out = np.broadcast_to(vals, (s.size, rule.n)) @ rule.weights
    out = out.reshape(s.shape) / data.pair.kappa
    return float(out) if scalar else out


def G_reference(data: SonineData, s: float, t: float) -> float:
    """Direct quadrature of the defining order-swapped convolution,
    int_0^t w(s, z+s) K(z) k(t-z) dz, by split_conv; w(s,s) at t = 0."""
    pair = data.pair
    _require_constant(pair, "G_reference")
    if t <= 0.0:
        return float(data.weight(s, s))
    weighted_K = lambda z: np.asarray(data.weight(s, z + s)) * pair.K(z)
    return float(split_conv(weighted_K, pair.k, [t], DEFAULT_PANEL_LEVELS)[0])


# ----------------------------------------------------------------- reports

@dataclass
class VerificationReport:
    condition: str                 # "CSC" | "WSC1" | "WSC2"
    points: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    max_residual: float = 0.0
    tolerance: float = IDENTITY_TOL
    passed: bool = True
    failures: list = field(default_factory=list)  # named conditions, e.g. "(i)/(a)"

    def summary(self) -> str:
        status = "pass" if self.passed else "fail"
        extra = f" [{', '.join(self.failures)}]" if self.failures else ""
        return (f"{self.condition}: max residual {self.max_residual:.3e} "
                f"(tol {self.tolerance:.1e}) -> {status}{extra}")

    def write_csv(self, path):
        write_csv(path, ["s", "t", "residual"],
                  ([s, t, r] for (s, t), r in zip(self.points, self.residuals)))


def _condition_grid(b):
    ss = [0.0, 0.25 * b, 0.5 * b]
    tt = [0.1 * b, 0.3 * b, 0.5 * b]
    return [(s, t) for s in ss for t in tt if s + t <= b]


def _condition_report(name, data, failures, grid, tolerance, value, reference,
                      derivative) -> VerificationReport:
    """The weight-condition failures found by the caller, the identity
    residual of value against reference on the grid, and condition (b):
    |derivative(s, .)| must be integrable on (0, b - s] for s = 0, b/4, b/2.
    graded_rows integrates the three at once and raises NumericalError when
    a measured power at 0 is >= 1 or a value is not finite: the (b) failure."""
    rep = VerificationReport(name, tolerance=tolerance, failures=failures)
    for s, t in _condition_grid(data.b) if grid is None else grid:
        ref = reference(data, s, t)
        rep.points.append((s, t))
        rep.residuals.append(abs(value(data, s, t) - ref) / max(1.0, abs(ref)))
    if rep.residuals:
        rep.max_residual = max(rep.residuals)
        if rep.max_residual > tolerance:
            rep.failures.append(f"{name} identity")
    try:
        graded_rows(lambda z, e: np.abs(derivative(data, data.b - e, z)),
                    [data.b, 0.75 * data.b, 0.5 * data.b], DEFAULT_PANEL_LEVELS)
    except NumericalError:
        rep.failures.append("(b)")
    rep.passed = not rep.failures
    return rep


def wsc1_report(data: SonineData, grid=None,
                tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Conditions (i)/(a), identity residual vs the raw convolution, and
    integrability evidence for g2 (condition (b))."""
    failures = []
    if not data.weight.condition_i_ok or data.diag_min <= 1e-12:
        failures.append("(i)/(a)")
    if data.diag_min < 0.5 * data.weight.mu_lower:
        failures.append("(a)")
    return _condition_report("WSC1", data, failures, grid, tolerance,
                             eval_g, g_reference, eval_g2)


def wsc2_report(data: SonineData, grid=None,
                tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Same checks for the order-swapped condition (constant exponent only)."""
    _require_constant(data.pair, "wsc2_report")
    failures = [] if data.weight.condition_i_ok else ["(i)/(a)"]
    return _condition_report("WSC2", data, failures, grid, tolerance,
                             eval_G, G_reference, eval_G2)


# --------------------------------------- constructive associate (WSC2 route)

def associate_from_wsc2(data: SonineData, mesh,
                        checkpoints=(0.25, 0.5, 1.0)) -> "vie.AssociateConstruction":
    """Solve u G(0,0) + int_0^t u(y) G2(0,t-y) dy = w(0,t) K(t) and report
    how well the result satisfies the classical condition for k."""
    from . import vie  # deferred: vie builds on this module

    pair, weight = data.pair, data.weight
    _require_constant(pair, "associate_from_wsc2")
    G00 = float(weight(0.0, 0.0))
    if abs(G00) <= 1e-12:
        raise ValidationError("G(0,0) = w(0,0) vanishes; condition (a) fails")

    # G2(0, .) is a (1 - z)-weighted mean of w_t(0, .): zero with g2(0, .)
    memory = (None if g2_vanishes(pair, weight, 0.0)
              else lambda y, x: eval_G2(data, 0.0, x))
    t = mesh.points
    r = np.full(mesh.n + 1, np.inf)     # K(0) is infinite: no u(0)
    r[1:] = np.asarray(weight(0.0, t[1:])) * pair.K(t[1:])
    u = vie.solve_second_kind(vie.SecondKindProblem(G00, memory, r), mesh).u
    nodes = vie.checkpoint_nodes(mesh, np.asarray(checkpoints, dtype=float) * pair.b)
    conv = vie.conv_at_nodes(pair.alpha0, mesh, nodes, lambda i: (
        u[: i + 1] * np.asarray(pair.k_smooth_part(t[i] - t[: i + 1]))))
    return vie.AssociateConstruction(t, u, t[nodes], conv - 1.0)
