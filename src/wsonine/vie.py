"""Volterra solver core.

One product-integration engine for second-kind equations

    d(t) u(t) + int_0^t m(y,t) u(y) dy = r(t),

plus the three transformations that feed it: the first-kind equation in the
associate kernel K, the weighted first-kind equation in k, and the nonlocal
differential equation.  Right-hand sides that involve d/dt of a convolution
are always assembled from the integration-by-parts form (boundary term plus
convolution with f'), never by numerical differentiation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .csvfile import write_csv
from .errors import DomainError, NumericalError, ValidationError
from .expr import ExprAst, as_function, diff_expr, parse_expr
from .kernels import KernelPair, Weight
# graded_panel_quad stays bound here: the benchmark's span tracer patches it
from .quadrature import (Mesh, graded_panel_quad, graded_rows,  # noqa: F401
                         memory_panel_weights, power_conv_matrix,
                         power_conv_weights)
from .sonine import SonineData, eval_g2, g2_vanishes, wsc1_report

# rows of the lag matrix transform_first_kind_K evaluates psi on at once
PSI_BLOCK = 32


# ------------------------------------------------------------------ types

@dataclass
class Forcing:
    """f with its derivative, both evaluated on arrays of points of any
    shape (the transforms pass 2-D blocks); f' may blow up like t^(-alpha)
    at zero when the forcing comes from a manufactured-solution oracle.

    When f comes from a weighted convolution of a known solution u, the
    derivative splits as f'(s) = u0 * w(0,s) k(s) + prime_bulk(s) with a
    bounded bulk vanishing at zero; transforms exploit that split to keep
    uniform accuracy near t = 0.
    """

    f: Callable
    f_prime: Callable
    f0: float
    prime_singular_at_zero: bool = False
    prime_bulk: Optional[Callable] = None
    u0: Optional[float] = None

    @property
    def has_prime_split(self) -> bool:
        return self.prime_bulk is not None and self.u0 is not None

    @classmethod
    def from_expr(cls, f) -> "Forcing":
        ast = parse_expr(f) if isinstance(f, str) else f
        prime = diff_expr(ast, "t")
        return cls(as_function(ast), as_function(prime),
                   float(ast.eval({"t": 0.0})))

    @classmethod
    def constant(cls, value: float) -> "Forcing":
        return cls(lambda t: np.full_like(np.asarray(t, float), value) if np.ndim(t) else value,
                   lambda t: np.zeros_like(np.asarray(t, float)) if np.ndim(t) else 0.0,
                   float(value))


def manufactured_forcing(pair: KernelPair, weight: Weight, u,
                         levels: int = 60) -> Forcing:
    """Forcing for the weighted first-kind equation whose exact solution is
    the expression u(t), computed by graded-panel oracle quadrature."""
    u_ast = parse_expr(u) if isinstance(u, str) else u
    u_fn = as_function(u_ast)
    up_fn = as_function(diff_expr(u_ast, "t"))
    u0 = float(u_ast.eval({"t": 0.0}))

    def oracle(integrand):
        """int_0^t integrand(z, t) dz at every t > 0 in one batched graded
        quadrature, 0 at t <= 0; a float for a scalar t."""
        def fn(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape)
            pos = t > 0.0
            out[pos] = graded_rows(integrand, t[pos], levels)
            return float(out) if out.ndim == 0 else out
        return fn

    @oracle
    def f(z, t):
        return np.asarray(weight(t - z, t)) * pair.k(z) * np.asarray(u_fn(t - z))

    @oracle
    def prime_bulk(z, t):
        return pair.k(z) * (
            (np.asarray(weight.ds(t - z, t)) + np.asarray(weight.dt(t - z, t)))
            * np.asarray(u_fn(t - z))
            + np.asarray(weight(t - z, t)) * np.asarray(up_fn(t - z)))

    def f_prime(t):
        if np.any(np.asarray(t) <= 0.0):
            raise DomainError("manufactured f' is singular at t = 0")
        return weight(0.0, t) * pair.k(t) * u0 + prime_bulk(t)

    return Forcing(f, f_prime, 0.0, prime_singular_at_zero=(u0 != 0.0),
                   prime_bulk=prime_bulk, u0=u0)


@dataclass
class FirstKindProblem:
    pair: KernelPair
    weight: Weight
    forcing: Forcing
    variant: str = "weighted-k"  # or "K-kernel"

    def __post_init__(self):
        if self.variant not in ("weighted-k", "K-kernel"):
            raise ValidationError(f"unknown variant '{self.variant}'")

    @property
    def b(self) -> float:
        return self.pair.b


@dataclass
class NonlocalOdeProblem:
    pair: KernelPair
    weight: Weight
    forcing: Forcing
    c: float = 0.0

    @property
    def b(self) -> float:
        return self.pair.b


@dataclass
class SecondKindProblem:
    d: Callable                      # diagonal coefficient d(t)
    m: Optional[Callable]            # memory kernel m(y, t), vectorized in y;
                                     # None when it is identically 0
    r: Union[Callable, np.ndarray]   # right-hand side, callable or per-node
    u0: Optional[float] = None       # known value at t = 0, if any

    def rhs_at(self, i: int, t: float) -> float:
        if callable(self.r):
            return float(self.r(t))
        return float(self.r[i])


@dataclass
class SolveReport:
    mesh: Mesh
    t: np.ndarray
    u: np.ndarray
    residual_points: Optional[np.ndarray] = None
    residuals: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        if self.residuals is None or len(self.residuals) == 0:
            return float("nan")
        return float(np.max(np.abs(self.residuals)))

    def write_solution_csv(self, path):
        res = {}
        if self.residual_points is not None:
            res = {float(p): float(r)
                   for p, r in zip(self.residual_points, self.residuals)}
        write_csv(path, ["t", "u", "residual"],
                  ([ti, ui, res.get(float(ti), "")] for ti, ui in zip(self.t, self.u)))


# ------------------------------------------------------------------ engine

def solve_second_kind(problem: SecondKindProblem, mesh: Mesh,
                      d_min: float = 1e-12) -> SolveReport:
    """Time-stepping product integration: piecewise-linear solution, memory
    term by quadrature.memory_panel_weights (2-point Gauss on interior panels,
    graded quadrature in the lag variable on the panel touching the
    singularity of m at y = t), skipped when m is None."""
    t = mesh.points
    n = mesh.n
    u = np.zeros(n + 1)
    u0 = problem.u0
    if u0 is None:
        try:
            r0 = problem.rhs_at(0, 0.0)
            d0 = problem.d(0.0)
            if np.isfinite(r0) and abs(d0) >= d_min:
                u0 = r0 / d0
        except (DomainError, ZeroDivisionError, OverflowError, FloatingPointError):
            u0 = None
    if u0 is not None:
        u[0] = u0

    for i in range(1, n + 1):
        ti = t[i]
        di = float(problem.d(ti))
        if abs(di) < d_min:
            raise NumericalError(f"diagonal coefficient below {d_min} at t = {ti}")
        ri = problem.rhs_at(i, ti)
        if problem.m is None:
            interior, m0, m1 = 0.0, 0.0, 0.0
        else:
            w0, w1 = memory_panel_weights(lambda y, x: problem.m(y, ti), t, i)
            # every panel but the newest acts on known values; on the newest,
            # m0 multiplies u_{i-1} and m1 the unknown u_i
            interior = float(w0[:-1] @ u[: i - 1] + w1[:-1] @ u[1:i])
            m0, m1 = w0[-1], w1[-1]

        if i == 1 and u0 is None:
            # constant extension over the first panel
            u[1] = (ri - interior) / (di + m0 + m1)
        else:
            u[i] = (ri - interior - u[i - 1] * m0) / (di + m1)
        if not np.isfinite(u[i]):
            raise NumericalError(f"non-finite solution value at t = {ti}")
    if problem.u0 is None and u0 is None:
        u[0] = u[1]
    return SolveReport(mesh, t, u, meta={"memory_skipped": problem.m is None})


# ----------------------------------------------------- mesh/metric helpers

def snap_to_mesh(mesh: Mesh, t: float) -> float:
    pts = mesh.points
    return float(pts[int(np.argmin(np.abs(pts - t)))])


def node_index(mesh: Mesh, t: float) -> int:
    pts = mesh.points
    i = int(np.argmin(np.abs(pts - t)))
    if abs(pts[i] - t) > 1e-9 * max(1.0, mesh.b):
        raise ValidationError(f"t = {t} is not a mesh node")
    return i


def weighted_l1_error(mesh: Mesh, u: np.ndarray, exact_fn) -> float:
    """Relative discrete weighted-L1 error sum tau_i |u - u_ex|(t_i), skipping
    the t = 0 node (the exact solution may be unbounded there)."""
    t = mesh.points[1:]
    tau = mesh.tau
    ue = np.asarray(exact_fn(t), dtype=float)
    return float(np.sum(tau * np.abs(u[1:] - ue)) / np.sum(tau * np.abs(ue)))


def max_node_error(mesh: Mesh, u: np.ndarray, exact_fn, skip_first=False) -> float:
    t = mesh.points
    lo = 1 if skip_first else 0
    ue = np.asarray(exact_fn(t[lo:]), dtype=float)
    return float(np.max(np.abs(u[lo:] - ue)))


# ------------------------------------------------------ convolution helpers

def conv_with_K(pair: KernelPair, mesh: Mesh, u: np.ndarray, t: float) -> float:
    """int_0^t K(t-s) uhat(s) ds at a mesh node, exact power moments."""
    i = node_index(mesh, t)
    w = power_conv_weights(1.0 - pair.alpha0, mesh, i, "right")
    return float(np.dot(w, u[: i + 1])) / pair.assoc_norm


def conv_with_k(pair: KernelPair, mesh: Mesh, u: np.ndarray, t: float) -> float:
    """int_0^t k(t-s) uhat(s) ds using the s^(-alpha0) x smooth split."""
    i = node_index(mesh, t)
    w = power_conv_weights(pair.alpha0, mesh, i, "right")
    phi = u[: i + 1] * np.asarray(pair.k_smooth_part(t - mesh.points[: i + 1]))
    return float(np.dot(w, phi))


def rhs_K_conv(pair: KernelPair, forcing: Forcing, c: float,
               mesh: Mesh) -> np.ndarray:
    """r_i = c K(t_i) + int_0^{t_i} K(t_i - y) f(y) dy on the mesh nodes;
    r_0 is infinite when c != 0 (the solver starts from the limit branch)."""
    t = mesh.points
    w = power_conv_matrix(1.0 - pair.alpha0, mesh, "right")
    r = w @ _values(forcing.f, t) / pair.assoc_norm
    r[0] = forcing.f0 * 0.0 if c == 0.0 else np.inf
    if c != 0.0:
        r[1:] += c * pair.K(t[1:])
    return r


def _values(fn, x):
    """fn on the array x, with a constant result broadcast to x's shape."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x))


def _split_singular_conv(left_factor, right_lag_factor, t: np.ndarray,
                         levels: int = 40) -> np.ndarray:
    """int_0^{t_i} left_factor(s) right_lag_factor(t_i - s) ds for every
    t_i > 0 in t, where both factors have an integrable singularity at zero
    argument; split at the midpoint h = t_i/2 and integrate each half in the
    variable that puts its singularity at zero (never reconstructing a tiny
    lag by subtraction).  Both halves are one batched graded quadrature over
    [0, h]; t_i = 2h exactly."""
    def left(s, h):
        return np.asarray(left_factor(s)) * np.asarray(right_lag_factor(2.0 * h - s))

    def right(x, h):
        return np.asarray(left_factor(2.0 * h - x)) * np.asarray(right_lag_factor(x))

    half = 0.5 * np.asarray(t, dtype=float)
    return graded_rows(left, half, levels) + graded_rows(right, half, levels)


def _K_conv_fprime(pair: KernelPair, weight: Weight, forcing: Forcing,
                   mesh: Mesh) -> np.ndarray:
    """int_0^{t_i} K(t_i - s) f'(s) ds on the mesh nodes.

    A forcing's split f' = u0 w(0,s) k(s) + prime_bulk(s) is always used, so
    f' is never evaluated at s = 0.  A singular part (u0 != 0, or an unsplit
    f' ~ s^(-alpha)) is integrated by graded quadrature at every step:
    piecewise-linear interpolation of a power has scale-invariant relative
    error on the early panels, which would freeze the first errors."""
    t = mesh.points
    n = mesh.n
    beta = 1.0 - pair.alpha0
    if forcing.has_prime_split:
        fb = np.concatenate(([0.0], _values(forcing.prime_bulk, t[1:])))
        out = power_conv_matrix(beta, mesh, "right") @ fb
        if forcing.u0 != 0.0:
            out[1:] += forcing.u0 * _split_singular_conv(
                lambda s: np.asarray(weight(0.0, s)) * pair.k(s),
                lambda x: x ** (-beta), t[1:])
        return out / pair.assoc_norm

    if not forcing.prime_singular_at_zero:
        w = power_conv_matrix(beta, mesh, "right")
        return w @ _values(forcing.f_prime, t) / pair.assoc_norm

    out = np.zeros(n + 1)
    out[1:] = _split_singular_conv(forcing.f_prime, lambda x: x ** (-beta),
                                   t[1:]) / pair.assoc_norm
    return out


# ------------------------------------------------------------- transforms

def require_wsc1(data: SonineData):
    """The WSC1 gate every solver runs before it steps: raises ValidationError
    when the weighted condition fails on a short sample grid."""
    rep = wsc1_report(data, grid=[(0.0, 0.3 * data.b), (0.25 * data.b, 0.3 * data.b)])
    if not rep.passed:
        raise ValidationError(f"WSC1 validation failed: {rep.summary()}")


def transform_first_kind_weighted(problem: FirstKindProblem, data: SonineData,
                                  mesh: Mesh) -> SecondKindProblem:
    """Second-kind form: u g(t,0) + int g2(s,t-s) u(s) ds
    = d/dt int K(t-s) f(s) ds."""
    if problem.variant != "weighted-k":
        raise ValidationError("expected the weighted-k variant")
    require_wsc1(data)
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing

    conv = _K_conv_fprime(pair, weight, forcing, mesh)
    t = mesh.points
    r = np.empty(mesh.n + 1)
    # r(0+) is a nonzero finite limit when f' blows up at zero; leaving it
    # non-finite makes the engine start from the constant-extension branch
    exact_zero = forcing.f0 == 0.0 and not forcing.prime_singular_at_zero
    r[0] = 0.0 if exact_zero else np.inf
    r[1:] = forcing.f0 * pair.K(t[1:]) + conv[1:]

    return SecondKindProblem(
        d=lambda tt: float(weight(tt, tt)),
        m=_memory(data),
        r=r,
        u0=None)


def _memory(data: SonineData, s=None):
    """m(y, t) = g2(s, t - y), s = y when None; None when g2(s, .) vanishes."""
    if g2_vanishes(data.pair, data.weight, s):
        return None
    return lambda y, tt: eval_g2(data, y if s is None else s, tt - y)


def transform_first_kind_K(problem: FirstKindProblem, data: SonineData,
                           mesh: Mesh) -> SecondKindProblem:
    """Second-kind form: u g(0,0) + int g2(0,t-s) u(s) ds
    = d/dt int w(0,s)k(s)f(t-s) ds."""
    if problem.variant != "K-kernel":
        raise ValidationError("expected the K-kernel variant")
    require_wsc1(data)
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    t = mesh.points
    n = mesh.n

    # psi(s) = w(0,s) * smooth part of k, so the integrand is s^(-a0) psi f'
    psi_fn = lambda s: np.asarray(weight(np.zeros_like(np.asarray(s, float)), s)) \
        * np.asarray(pair.k_smooth_part(s))
    r = np.empty(n + 1)
    exact_zero = forcing.f0 == 0.0 and not forcing.prime_singular_at_zero
    r[0] = 0.0 if exact_zero else np.inf
    if forcing.prime_singular_at_zero:
        # s^(-a0) psi(s) at the left end, f'(t_i - s) blowing up at the
        # right end: split graded quadrature, lag variable on the right
        r[1:] = _split_singular_conv(
            lambda s: s ** (-pair.alpha0) * psi_fn(s), forcing.f_prime, t[1:])
    else:
        # s -> t_i - s puts the power at the right end and f' on the graded
        # mesh itself, where any weak singularity of f' at zero is resolved;
        # psi is smooth, so evaluating it at the lags costs no accuracy.
        # Rows a..b-1 take psi on one block of lags t_i - t_j; the lags
        # j > i are clipped to 0, where w is 0
        w = power_conv_matrix(pair.alpha0, mesh, "right")
        fp = _values(forcing.f_prime, t)
        for a in range(1, n + 1, PSI_BLOCK):
            b = min(a + PSI_BLOCK, n + 1)
            lag = np.maximum(t[a:b, None] - t[None, :b], 0.0)
            r[a:b] = (w[a:b, :b] * psi_fn(lag)) @ fp[:b]
    r[1:] += forcing.f0 * weight(0.0, t[1:]) * pair.k(t[1:])

    g00 = float(weight(0.0, 0.0))
    return SecondKindProblem(
        d=lambda tt: g00,
        m=_memory(data, 0.0),
        r=r,
        u0=None)


# --------------------------------------------------------------- solvers

def _solve_timed(build, mesh: Mesh, data: SonineData) -> SolveReport:
    """Step the second-kind problem build() returns; meta gets the rule size
    and the timings rhs_s (WSC1 gate and right-hand side) and stepping_s."""
    started = time.perf_counter()
    problem = build()
    built = time.perf_counter()
    rep = solve_second_kind(problem, mesh)
    rep.meta["jacobi_nodes"] = data.rule.n
    rep.meta["timings"] = {"rhs_s": built - started,
                           "stepping_s": time.perf_counter() - built}
    return rep


def solve_first_kind(problem: FirstKindProblem, mesh: Mesh,
                     data: Optional[SonineData] = None) -> SolveReport:
    """Solve the first-kind equation through its second-kind form."""
    if data is None:
        data = SonineData.make(problem.pair, problem.weight)
    transform = (transform_first_kind_weighted
                 if problem.variant == "weighted-k" else transform_first_kind_K)
    return _solve_timed(lambda: transform(problem, data, mesh), mesh, data)


def solve_nonlocal_ode(problem: NonlocalOdeProblem, mesh: Mesh,
                       data: Optional[SonineData] = None) -> SolveReport:
    if problem.c != 0.0 and mesh.is_uniform:
        raise ValidationError(
            "c != 0 makes the solution behave like t^(alpha(0)-1); "
            "a graded mesh (r > 1) is required")
    if data is None:
        data = SonineData.make(problem.pair, problem.weight)
    weight = problem.weight

    def build():
        require_wsc1(data)
        return SecondKindProblem(
            d=lambda tt: float(weight(tt, tt)),
            m=_memory(data),
            r=rhs_K_conv(problem.pair, problem.forcing, problem.c, mesh),
            u0=None)

    return _solve_timed(build, mesh, data)


# --------------------------------------------------------------- residuals

def residual_first_kind(problem: FirstKindProblem, mesh: Mesh, u: np.ndarray,
                        checkpoints) -> tuple:
    """Residual of the original first-kind equation at mesh-node checkpoints,
    using the pure-power split of k (or K) and the piecewise-linear u."""
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    pts, res = [], []
    for c in checkpoints:
        tc = snap_to_mesh(mesh, c)
        i = node_index(mesh, tc)
        if i == 0:
            continue
        if problem.variant == "weighted-k":
            w = power_conv_weights(pair.alpha0, mesh, i, "right")
            sgrid = mesh.points[: i + 1]
            phi = (np.asarray(weight(sgrid, tc))
                   * np.asarray(pair.k_smooth_part(tc - sgrid)) * u[: i + 1])
            val = float(np.dot(w, phi))
        else:
            val = conv_with_K(pair, mesh, u, tc)
        pts.append(tc)
        res.append(val - float(forcing.f(tc)))
    return np.asarray(pts), np.asarray(res)


@dataclass
class AssociateConstruction:
    t: np.ndarray
    u: np.ndarray
    checkpoints: np.ndarray
    csc_residuals: np.ndarray

    @property
    def max_csc_residual(self) -> float:
        return float(np.max(np.abs(self.csc_residuals)))


def construct_csc_associate(data: SonineData, mesh: Mesh,
                            checkpoints=(0.25, 0.5, 1.0)) -> AssociateConstruction:
    """Solve the K-kernel first-kind equation with f = 1; the solution is an
    associate of K in the classical condition, verified at checkpoints."""
    problem = FirstKindProblem(data.pair, data.weight, Forcing.constant(1.0),
                               variant="K-kernel")
    rep = solve_first_kind(problem, mesh, data)
    pair = data.pair
    cps = np.asarray([snap_to_mesh(mesh, c * pair.b) for c in checkpoints])
    res = np.asarray([conv_with_K(pair, mesh, rep.u, tc) - 1.0 for tc in cps])
    return AssociateConstruction(rep.t, rep.u, cps, res)


# ------------------------------------------------------------- refinement

EXACT_ERROR = 1e-13   # errors below this are rounding: no order is observed


def observed_orders(errors) -> list:
    """Observed order log2(e_{k-1} / e_k) of each mesh halving, None for the
    first level; "exact" where either error is below EXACT_ERROR."""
    orders = [None]
    for coarse, fine in zip(errors[:-1], errors[1:]):
        if coarse < EXACT_ERROR or fine < EXACT_ERROR:
            orders.append("exact")
        else:
            orders.append(float(np.log2(coarse / fine)))
    return orders


def refinement_study(make_report, base_mesh: Mesh, error_fn, doublings: int):
    """Run make_report(mesh) on base_mesh and `doublings` successive
    doublings of it; returns the (N, error) history and the observed order
    of the last halving (None without doublings), as observed_orders gives."""
    history = []
    mesh = base_mesh
    for _ in range(doublings + 1):
        history.append((mesh.n, error_fn(make_report(mesh))))
        mesh = mesh.refined()
    return history, observed_orders([e for _, e in history])[-1]
