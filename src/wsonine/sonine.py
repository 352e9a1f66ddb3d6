"""Weighted Sonine functions and condition verification.

g(s,t) and its t-derivative are evaluated from the substituted single
integral over (0,1) whose endpoint singularities are absorbed exactly by
one fixed-size Gauss-Jacobi rule in the variable v = z^(1/p); the raw
convolution form is kept only as an independent reference for
verification reports.  G(s,t) (the order-swapped
condition) is supported for constant exponents only, where the classical
Sonine identity makes its reformulation exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvfile import write_csv
from .errors import DomainError, UnsupportedConfigurationError, ValidationError
from .kernels import KernelPair, Weight
from .quadrature import DEFAULT_JACOBI_N, JacobiRule, graded_panel_quad, jacobi_rule

IDENTITY_TOL = 1e-8

# For variable exponents the factor (tz)^(a0 - a(tz)) behaves like z log z
# near z = 0.  Substituting z = v^4 turns that into v^4 log v, which the
# Gauss-Jacobi rule in v integrates to ~1e-12 with 24 nodes for every
# exponent; constant exponents are exact at this size as well.
SONINE_JACOBI_N = 24
SONINE_JACOBI_POWER = 4


@dataclass(frozen=True)
class SonineData:
    """A kernel pair, a weight, and the quadrature rule evaluating g."""

    pair: KernelPair
    weight: Weight
    rule: JacobiRule
    diag_min: float          # min |g(t,0)| on the validation grid
    diag_max: float

    @classmethod
    def make(cls, pair: KernelPair, weight: Weight,
             rule_n: int = SONINE_JACOBI_N) -> "SonineData":
        rule = jacobi_rule(pair.alpha0, rule_n, SONINE_JACOBI_POWER)
        grid = np.linspace(0.0, pair.b, 256)
        diag = np.abs(np.broadcast_to(weight(grid, grid), grid.shape))
        return cls(pair, weight, rule, float(diag.min()), float(diag.max()))

    @property
    def b(self) -> float:
        return self.pair.b


def _check_domain(data, s, t, need_t_positive=False):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise DomainError("g requires s >= 0 and t >= 0")
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


def eval_g2(data: SonineData, s, t):
    """dg/dt from the differentiated substituted integral (t > 0 only)."""
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    s, t = _check_domain(data, s, t, need_t_positive=True)
    pair, w, rule = data.pair, data.weight, data.rule
    shape = s.shape
    s2 = s.reshape(-1, 1)
    t2 = t.reshape(-1, 1)
    z = rule.nodes[None, :]
    x = t2 * z
    sf = pair.smooth_factor(x)
    ratio = pair.gamma_ratio(x)
    a1 = np.asarray(w.dt(s2, x + s2)) * z * sf * ratio
    dsr = pair.smooth_factor_dt(t2, z) * ratio + sf * pair.gamma_ratio_dx(x) * z
    vals = a1 + np.asarray(w(s2, x + s2)) * dsr
    out = (np.broadcast_to(vals, x.shape) @ rule.weights).reshape(shape) / pair.kappa
    return float(out) if scalar else out


def _power_singular_quad(fn, width: float, beta: float, levels: int) -> float:
    """int_0^width fn(z) dz for fn(z) ~ c z^(-beta) as z -> 0.

    Graded Gauss-Legendre covers [eps, width] with eps = width 2^-levels; the
    sliver [0, eps] carries a share ~eps^(1-beta) of the integral, which is
    not small when beta is near 1, so it is integrated against its known
    power weight, fn(z) ~ fn(eps) (z/eps)^(-beta), instead of an open rule.
    """
    eps = width * 0.5 ** levels
    sliver = float(np.ravel(fn(np.array([eps])))[0]) * eps / (1.0 - beta)
    return graded_panel_quad(fn, eps, width, "left", levels=levels) + sliver


def g_reference(data: SonineData, s: float, t: float, levels: int = 60) -> float:
    """Independent evaluation of the raw convolution defining g(s,t),
    with each endpoint singularity moved to zero before graded quadrature."""
    if t <= 0.0:
        return float(data.weight(s, s))
    pair, w = data.pair, data.weight
    half = 0.5 * t

    def left(z):  # k(z) ~ z^(-a0)
        return np.asarray(w(s, z + s)) * pair.K(t - z) * pair.k(z)

    def right(u):  # u = t - z, K(u) ~ u^(a0-1)
        return np.asarray(w(s, t - u + s)) * pair.K(u) * pair.k(t - u)

    return (_power_singular_quad(left, half, pair.alpha0, levels)
            + _power_singular_quad(right, half, 1.0 - pair.alpha0, levels))


def csc_residual(pair: KernelPair, t: float, rule_n: int = DEFAULT_JACOBI_N) -> float:
    """|int_0^t K(t-s) k(s) ds - 1| via the substituted Jacobi form."""
    if not 0.0 < t <= pair.b:
        raise DomainError(f"t must lie in (0, {pair.b}]")
    rule = jacobi_rule(pair.alpha0, rule_n)
    x = t * rule.nodes
    val = np.dot(rule.weights, pair.smooth_factor(x) * pair.gamma_ratio(x))
    return abs(val / pair.kappa - 1.0)


# -------------------------------------------------------------- WSC2 side

def _require_constant(pair, what):
    if not pair.exponent.is_constant:
        raise UnsupportedConfigurationError(
            f"{what} is supported for constant exponents only; the weighted "
            "condition with order swapped is unproven for variable exponents")


def eval_G(pair: KernelPair, weight: Weight, s, t,
           rule_n: int = DEFAULT_JACOBI_N):
    """G(s,t) = w(s,s) + int_0^t (w(s,t-z+s) - w(s,s)) k(z) K(t-z) dz,
    with the singular product absorbed by the Jacobi rule."""
    _require_constant(pair, "eval_G")
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0) or np.any(s + t > pair.b * (1.0 + 1e-12)):
        raise DomainError("need s >= 0, t >= 0, s + t <= b")
    s, t = np.broadcast_arrays(s, t)
    rule = jacobi_rule(pair.alpha0, rule_n)
    wss = np.asarray(weight(s, s))
    acc = np.zeros(np.broadcast_shapes(s.shape, t.shape))
    for zj, wj in zip(rule.nodes, rule.weights):
        acc += wj * (np.asarray(weight(s, t - t * zj + s)) - wss)
    out = wss + acc / pair.kappa
    out = np.where(t > 0.0, out, wss)
    return float(out) if scalar else out


def G2_fd(pair: KernelPair, weight: Weight, s, t, rel_step: float = 1e-5):
    """dG/dt by central differences (shifted to stay within the horizon);
    G is smooth in t away from 0."""
    t = np.asarray(t, dtype=float)
    h = np.minimum(rel_step * np.maximum(t, 0.01), 0.5 * np.maximum(t, 1e-30))
    shift = np.maximum(np.asarray(s, dtype=float) + t + h - pair.b, 0.0)
    hi = eval_G(pair, weight, s, t + h - shift)
    lo = eval_G(pair, weight, s, t - h - shift)
    return (hi - lo) / (2.0 * h)


def G_reference(pair: KernelPair, weight: Weight, s: float, t: float,
                levels: int = 60) -> float:
    """Direct quadrature of the defining order-swapped convolution."""
    _require_constant(pair, "G_reference")
    if t <= 0.0:
        return float(weight(s, s))
    half = 0.5 * t

    def left(z):  # K(z) ~ z^(a0-1)
        return np.asarray(weight(s, z + s)) * pair.k(t - z) * pair.K(z)

    def right(u):  # u = t - z, k(u) ~ u^(-a0)
        return np.asarray(weight(s, t - u + s)) * pair.k(u) * pair.K(t - u)

    return (_power_singular_quad(left, half, 1.0 - pair.alpha0, levels)
            + _power_singular_quad(right, half, pair.alpha0, levels))


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
    details: dict = field(default_factory=dict)   # sampled bounds etc.

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


def wsc1_report(data: SonineData, grid=None,
                tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Conditions (i)/(a), identity residual vs the raw convolution, and
    integrability evidence for g2 (condition (b))."""
    rep = VerificationReport("WSC1", tolerance=tolerance)
    rep.details["mu_lower"] = data.weight.mu_lower
    rep.details["mu_upper"] = data.weight.mu_upper
    rep.details["g_diag_min"] = data.diag_min
    rep.details["g_diag_max"] = data.diag_max
    if not data.weight.condition_i_ok or data.diag_min <= 1e-12:
        rep.passed = False
        rep.failures.append("(i)/(a)")
    if data.diag_min < 0.5 * data.weight.mu_lower:
        rep.passed = False
        rep.failures.append("(a)")
    if grid is None:
        grid = _condition_grid(data.b)
    for s, t in grid:
        ref = g_reference(data, s, t)
        res = abs(eval_g(data, s, t) - ref) / max(1.0, abs(ref))
        rep.points.append((s, t))
        rep.residuals.append(res)
    if rep.residuals:
        rep.max_residual = max(rep.residuals)
        if rep.max_residual > tolerance:
            rep.passed = False
            rep.failures.append("WSC1 identity")
    # condition (b): sampled integral of |g2(s, .)|, finite or bust
    g2_l1 = []
    for s in (0.0, 0.25 * data.b, 0.5 * data.b):
        val = graded_panel_quad(lambda t: np.abs(eval_g2(data, s, t)),
                                0.0, data.b - s, "left", levels=40)
        g2_l1.append(val)
    rep.details["g2_l1_samples"] = g2_l1
    if not all(np.isfinite(g2_l1)):
        rep.passed = False
        rep.failures.append("(b)")
    return rep


def wsc2_report(pair: KernelPair, weight: Weight, grid=None,
                tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Same checks for the order-swapped condition (constant exponent only)."""
    _require_constant(pair, "wsc2_report")
    rep = VerificationReport("WSC2", tolerance=tolerance)
    rep.details["mu_lower"] = weight.mu_lower
    if not weight.condition_i_ok:
        rep.passed = False
        rep.failures.append("(i)/(a)")
    if grid is None:
        grid = _condition_grid(pair.b)
    for s, t in grid:
        ref = G_reference(pair, weight, s, t)
        res = abs(eval_G(pair, weight, s, t) - ref) / max(1.0, abs(ref))
        rep.points.append((s, t))
        rep.residuals.append(res)
    if rep.residuals:
        rep.max_residual = max(rep.residuals)
        if rep.max_residual > tolerance:
            rep.passed = False
            rep.failures.append("WSC2 identity")
    g2_l1 = []
    for s in (0.0, 0.25 * pair.b, 0.5 * pair.b):
        val = graded_panel_quad(
            lambda t: np.abs(G2_fd(pair, weight, s, t)),
            0.0, pair.b - s, "left", levels=30)
        g2_l1.append(val)
    rep.details["G2_l1_samples"] = g2_l1
    if not all(np.isfinite(g2_l1)):
        rep.passed = False
        rep.failures.append("(b)")
    return rep


# --------------------------------------- constructive associate (WSC2 route)

def associate_from_wsc2(pair: KernelPair, weight: Weight, mesh,
                        checkpoints=(0.25, 0.5, 1.0)) -> "vie.AssociateConstruction":
    """Solve u G(0,0) + int_0^t u(y) G2(0,t-y) dy = w(0,t) K(t) and report
    how well the result satisfies the classical condition for k."""
    from . import vie  # deferred: vie builds on this module

    _require_constant(pair, "associate_from_wsc2")
    G00 = float(weight(0.0, 0.0))
    if abs(G00) <= 1e-12:
        raise ValidationError("G(0,0) = w(0,0) vanishes; condition (a) fails")

    def memory(y, t):
        return G2_fd(pair, weight, 0.0, t - y)

    def rhs(t):
        return float(weight(0.0, t)) * pair.K(t)

    problem = vie.SecondKindProblem(d=lambda t: G00, m=memory, r=rhs)
    rep = vie.solve_second_kind(problem, mesh)
    cps = np.asarray([vie.snap_to_mesh(mesh, c * pair.b) for c in checkpoints])
    res = np.asarray([vie.conv_with_k(pair, mesh, rep.u, tc) - 1.0 for tc in cps])
    return vie.AssociateConstruction(rep.t, rep.u, cps, res)
