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

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .csvfile import write_csv
from .errors import DomainError, NumericalError, ValidationError
from .expr import ExprAst, as_function, diff_expr, parse_expr
from .kernels import KernelPair, Weight
from .quadrature import (Mesh, graded_panel_quad, lag_rule, power_conv_matrix,
                         power_conv_weights)
from .sonine import SonineData, eval_g, eval_g2, wsc1_report


# ------------------------------------------------------------------ types

@dataclass
class Forcing:
    """f with its derivative, both evaluated on arrays of points; f' may
    blow up like t^(-alpha) at zero when the forcing comes from a
    manufactured-solution oracle.

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

    def pointwise(integral):
        """One graded quadrature per point; zero at t <= 0."""
        def fn(t):
            vals = [integral(float(v)) if v > 0.0 else 0.0 for v in np.ravel(t)]
            return np.reshape(vals, np.shape(t)) if np.ndim(t) else vals[0]
        return fn

    @pointwise
    def f(t):
        return graded_panel_quad(
            lambda z: np.asarray(weight(t - z, t)) * pair.k(z) * np.asarray(u_fn(t - z)),
            0.0, t, "left", levels=levels)

    @pointwise
    def prime_bulk(t):
        return graded_panel_quad(
            lambda z: pair.k(z) * (
                (np.asarray(weight.ds(t - z, t)) + np.asarray(weight.dt(t - z, t)))
                * np.asarray(u_fn(t - z))
                + np.asarray(weight(t - z, t)) * np.asarray(up_fn(t - z))),
            0.0, t, "left", levels=levels)

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
    m: Callable                      # memory kernel m(y, t), vectorized in y
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
    """Time-stepping product integration: piecewise-linear solution, 2-point
    Gauss on interior memory panels, graded quadrature (in the lag variable)
    on the panel touching the singularity of m at y = t."""
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

    gl_x, gl_w = np.polynomial.legendre.leggauss(2)

    for i in range(1, n + 1):
        ti = t[i]
        tau_i = t[i] - t[i - 1]
        di = float(problem.d(ti))
        if abs(di) < d_min:
            raise NumericalError(f"diagonal coefficient below {d_min} at t = {ti}")
        ri = problem.rhs_at(i, ti)

        # interior panels j = 1..i-1, 2-point Gauss on the linear interpolant
        interior = 0.0
        if i > 1:
            lo, hi = t[:i - 1], t[1:i]
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            ys = (mid[:, None] + half[:, None] * gl_x[None, :])
            frac = (ys - lo[:, None]) / (hi - lo)[:, None]
            uhat = u[:i - 1, None] * (1.0 - frac) + u[1:i, None] * frac
            mvals = np.asarray(problem.m(ys.ravel(), ti)).reshape(ys.shape)
            interior = float(np.sum(half[:, None] * gl_w[None, :] * mvals * uhat))

        # last panel in the lag variable x = t_i - y, singular end at x = 0
        xs, xw = lag_rule(tau_i)
        mlast = np.asarray(problem.m(ti - xs, ti))
        if not np.all(np.isfinite(mlast)):
            raise NumericalError(f"non-finite memory kernel near t = {ti}")
        m0 = float(np.dot(xw, mlast * (xs / tau_i)))          # multiplies u_{i-1}
        m1 = float(np.dot(xw, mlast * (1.0 - xs / tau_i)))    # multiplies u_i

        if i == 1 and u0 is None:
            # constant extension over the first panel
            u[1] = (ri - interior) / (di + m0 + m1)
        else:
            u[i] = (ri - interior - u[i - 1] * m0) / (di + m1)
        if not np.isfinite(u[i]):
            raise NumericalError(f"non-finite solution value at t = {ti}")
    if problem.u0 is None and u0 is None:
        u[0] = u[1]
    return SolveReport(mesh, t, u)


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


def _split_singular_conv(left_factor, right_lag_factor, ti: float,
                         levels: int = 40) -> float:
    """int_0^{t_i} left_factor(s) right_lag_factor(t_i - s) ds where both
    factors have an integrable singularity at zero argument; split at the
    midpoint and integrate each half in the variable that puts its
    singularity at zero (never reconstructing a tiny lag by subtraction)."""
    h = 0.5 * ti
    left = graded_panel_quad(
        lambda s: np.asarray(left_factor(s)) * np.asarray(right_lag_factor(ti - s)),
        0.0, h, "left", levels=levels)
    right = graded_panel_quad(
        lambda x: np.asarray(left_factor(ti - x)) * np.asarray(right_lag_factor(x)),
        0.0, ti - h, "left", levels=levels)
    return left + right


def _K_conv_fprime(pair: KernelPair, weight: Weight, forcing: Forcing,
                   mesh: Mesh) -> np.ndarray:
    """int_0^{t_i} K(t_i - s) f'(s) ds on the mesh nodes.

    When f' blows up like s^(-alpha) at zero its singular part is integrated
    by graded quadrature at every step (piecewise-linear interpolation of a
    power has scale-invariant relative error on the early panels, which
    would freeze the error of the first few solution values)."""
    t = mesh.points
    n = mesh.n
    beta = 1.0 - pair.alpha0
    if not forcing.prime_singular_at_zero:
        w = power_conv_matrix(beta, mesh, "right")
        return w @ _values(forcing.f_prime, t) / pair.assoc_norm

    if forcing.has_prime_split:
        fb = np.concatenate(([0.0], _values(forcing.prime_bulk, t[1:])))
        out = power_conv_matrix(beta, mesh, "right") @ fb
        for i in range(1, n + 1):
            boundary = _split_singular_conv(
                lambda s: np.asarray(weight(0.0, s)) * pair.k(s),
                lambda x: x ** (-beta), t[i])
            out[i] += forcing.u0 * boundary
        return out / pair.assoc_norm

    out = np.zeros(n + 1)
    for i in range(1, n + 1):
        out[i] = _split_singular_conv(forcing.f_prime, lambda x: x ** (-beta),
                                      t[i]) / pair.assoc_norm
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
        m=lambda y, tt: eval_g2(data, y, tt - y),
        r=r,
        u0=None)


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
    psi = psi_fn(t)
    r = np.empty(n + 1)
    exact_zero = forcing.f0 == 0.0 and not forcing.prime_singular_at_zero
    r[0] = 0.0 if exact_zero else np.inf
    if forcing.prime_singular_at_zero:
        # s^(-a0) psi(s) at the left end, f'(t_i - s) blowing up at the
        # right end: split graded quadrature, lag variable on the right
        for i in range(1, n + 1):
            r[i] = _split_singular_conv(
                lambda s: s ** (-pair.alpha0) * psi_fn(s), forcing.f_prime, t[i])
    else:
        w = power_conv_matrix(pair.alpha0, mesh, "left")
        for i in range(1, n + 1):
            fp = _values(forcing.f_prime, t[i] - t[: i + 1])
            r[i] = w[i, : i + 1] @ (psi[: i + 1] * fp)
    r[1:] += forcing.f0 * weight(0.0, t[1:]) * pair.k(t[1:])

    g00 = float(weight(0.0, 0.0))
    return SecondKindProblem(
        d=lambda tt: g00,
        m=lambda y, tt: eval_g2(data, 0.0, tt - y),
        r=r,
        u0=None)


# --------------------------------------------------------------- solvers

def solve_first_kind(problem: FirstKindProblem, mesh: Mesh,
                     strategy: str = "second-kind",
                     data: Optional[SonineData] = None) -> SolveReport:
    if data is None:
        data = SonineData.make(problem.pair, problem.weight)
    if strategy == "second-kind":
        transform = (transform_first_kind_weighted
                     if problem.variant == "weighted-k" else transform_first_kind_K)
        skp = transform(problem, data, mesh)
        rep = solve_second_kind(skp, mesh)
        rep.meta["strategy"] = "second-kind"
    elif strategy == "first-kind-g":
        rep = _solve_first_kind_g(problem, mesh, data)
    else:
        raise ValidationError(f"unknown strategy '{strategy}'")
    rep.meta["jacobi_nodes"] = data.rule.n
    return rep


def _solve_first_kind_g(problem: FirstKindProblem, mesh: Mesh,
                        data: SonineData) -> SolveReport:
    """Midpoint product rule on the integrated (pre-differentiation) form:
    int_0^t g(., t-s) u(s) ds = int_0^t K(t-s) f(s) ds."""
    require_wsc1(data)
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    t = mesh.points
    n = mesh.n
    tau = mesh.tau
    mids = 0.5 * (t[:-1] + t[1:])
    umid = np.zeros(n)

    if problem.variant == "weighted-k":
        w = power_conv_matrix(1.0 - pair.alpha0, mesh, "right")
        rhs_all = w @ _values(forcing.f, t) / pair.assoc_norm
    else:
        w = power_conv_matrix(pair.alpha0, mesh, "left")
        psi = np.asarray(weight(np.zeros(n + 1), t)) * np.asarray(pair.k_smooth_part(t))

    for i in range(1, n + 1):
        ti = t[i]
        if problem.variant == "weighted-k":
            rhs = rhs_all[i]
            gvals = eval_g(data, mids[:i], ti - mids[:i])
        else:
            fshift = _values(forcing.f, ti - t[: i + 1])
            rhs = float(w[i, : i + 1] @ (psi[: i + 1] * fshift))
            gvals = eval_g(data, np.zeros(i), ti - mids[:i])
        coeffs = tau[:i] * np.atleast_1d(gvals)
        acc = float(np.dot(coeffs[: i - 1], umid[: i - 1])) if i > 1 else 0.0
        if abs(coeffs[i - 1]) < 1e-300:
            raise NumericalError(f"vanishing diagonal in first-kind-g at t = {ti}")
        umid[i - 1] = (rhs - acc) / coeffs[i - 1]
        if not np.isfinite(umid[i - 1]):
            raise NumericalError(f"non-finite solution value at t = {ti}")
    rep = SolveReport(mesh, mids, umid)
    rep.meta["strategy"] = "first-kind-g"
    return rep


def solve_nonlocal_ode(problem: NonlocalOdeProblem, mesh: Mesh,
                       data: Optional[SonineData] = None) -> SolveReport:
    if problem.c != 0.0 and mesh.is_uniform:
        raise ValidationError(
            "c != 0 makes the solution behave like t^(alpha(0)-1); "
            "a graded mesh (r > 1) is required")
    if data is None:
        data = SonineData.make(problem.pair, problem.weight)
    require_wsc1(data)
    pair, weight = problem.pair, problem.weight
    r = rhs_K_conv(pair, problem.forcing, problem.c, mesh)
    skp = SecondKindProblem(
        d=lambda tt: float(weight(tt, tt)),
        m=lambda y, tt: eval_g2(data, y, tt - y),
        r=r,
        u0=None)
    rep = solve_second_kind(skp, mesh)
    rep.meta["strategy"] = "nonlocal-ode"
    rep.meta["jacobi_nodes"] = data.rule.n
    return rep


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
    rep = solve_first_kind(problem, mesh, "second-kind", data)
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
