"""Volterra solver core.

One product-integration engine for second-kind equations

    d(t) u(t) + int_0^t m(y,t) u(y) dy = r(t),

plus the two transformations that feed it: the first-kind equation in the
associate kernel K and the weighted first-kind equation in k.  The nonlocal
differential equation is the weighted first-kind equation with F(0) = c and
F' = f, and goes through the same transformation.  Right-hand sides that
involve d/dt of a convolution are always assembled from the
integration-by-parts form (boundary term plus convolution with f'), never
by numerical differentiation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .csvfile import write_csv
from . import sonine
from .errors import DomainError, NumericalError, ValidationError
from .expr import ExprAst, as_function, diff_expr, parse_expr, substitute
from .kernels import KernelPair, Weight
# graded_panel_quad stays bound here: the benchmark's span tracer patches it
from .quadrature import (DEFAULT_PANEL_LEVELS, ROW_BLOCK, Mesh,  # noqa: F401
                         graded_panel_quad, graded_rows, memory_panel_weights,
                         memory_points, power_conv_apply, power_conv_weights,
                         split_conv)
from .g2table import G2Kernel
from .sonine import SonineData, eval_g2, g2_vanishes, wsc1_report


# ------------------------------------------------------------------ types

@dataclass
class Forcing:
    """f with its derivative, both evaluated on arrays of points of any
    shape (the transforms pass 2-D blocks); f' may blow up like t^(-alpha)
    at zero when the forcing comes from a manufactured-solution oracle.

    When f comes from a weighted convolution of a known solution u, the
    derivative splits as f'(s) = u0 * w(0,s) k(s) + prime_bulk(s) with a
    bounded bulk vanishing at zero; transforms exploit that split to keep
    uniform accuracy near t = 0.  f itself is read only by the residual
    check, so it may be None.
    """

    f: Optional[Callable]
    f_prime: Callable
    f0: float
    prime_singular_at_zero: bool = False
    prime_bulk: Optional[Callable] = None
    u0: Optional[float] = None
    # prime_bulk at the mesh nodes bulk_on_nodes has been asked for, as
    # sorted "nodes" and their "values"
    node_cache: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def has_prime_split(self) -> bool:
        return self.prime_bulk is not None and self.u0 is not None

    def bulk_on_nodes(self, t: np.ndarray) -> tuple:
        """prime_bulk on the 1-D nodes t > 0, each distinct node computed
        once per forcing: nodes kept from earlier calls are looked up by
        exact value, and prime_bulk runs once, on the rest.  Returns the
        values and {"nodes": computed, "reused": read from the cache,
        "s": seconds in prime_bulk}.  prime_bulk reduces each node on its
        own, so the values do not depend on what was cached."""
        kept = self.node_cache.get("nodes", np.empty(0))
        kept_values = self.node_cache.get("values", np.empty(0))
        out = np.empty(t.size)
        hit = np.zeros(t.size, dtype=bool)
        if kept.size:
            i = np.minimum(np.searchsorted(kept, t), kept.size - 1)
            hit = kept[i] == t
            out[hit] = kept_values[i[hit]]
        new = t[~hit]
        started = time.perf_counter()
        if new.size:
            out[~hit] = values = self.prime_bulk(new)
            nodes = np.concatenate((kept, new))
            order = np.argsort(nodes)
            self.node_cache["nodes"] = nodes[order]
            self.node_cache["values"] = np.concatenate((kept_values, values))[order]
        return out, {"nodes": int(new.size), "reused": int(t.size - new.size),
                     "s": time.perf_counter() - started}

    @classmethod
    def from_expr(cls, f) -> "Forcing":
        ast = parse_expr(f) if isinstance(f, str) else f
        prime = diff_expr(ast, "t")
        return cls(as_function(ast), as_function(prime),
                   float(ast.eval({"t": 0.0})))

    @classmethod
    def constant(cls, value: float) -> "Forcing":
        return cls.from_expr(ExprAst("const", float(value)))


def manufactured_forcing(pair: KernelPair, weight: Weight, u) -> Forcing:
    """Forcing for the weighted first-kind equation whose exact solution is
    the expression u(t), computed by graded-panel oracle quadrature.

    Both integrands form the lag s = t - z once and evaluate each
    expression at its own broadcast shape, so a constant u' stays a
    scalar."""
    u_ast = parse_expr(u) if isinstance(u, str) else u
    extra = u_ast.variables() - {"t"}
    if extra:
        raise ValidationError(f"unexpected variables {sorted(extra)} in '{u_ast}'")
    up_ast = diff_expr(u_ast, "t")
    u0 = float(u_ast.eval({"t": 0.0}))

    def oracle(integrand):
        """int_0^t integrand(z, t) dz at every t > 0 in one batched graded
        quadrature, 0 at t <= 0; a float for a scalar t."""
        def fn(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape)
            pos = t > 0.0
            out[pos] = graded_rows(integrand, t[pos], DEFAULT_PANEL_LEVELS)
            return float(out) if out.ndim == 0 else out
        return fn

    @oracle
    def f(z, t):
        s = t - z
        return weight(s, t) * pair.k(z) * u_ast.eval({"t": s})

    @oracle
    def prime_bulk(z, t):
        s = t - z
        return pair.k(z) * ((weight.ds(s, t) + weight.dt(s, t)) * u_ast.eval({"t": s})
                            + weight(s, t) * up_ast.eval({"t": s}))

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
    d: np.ndarray                    # diagonal d on the N + 1 mesh nodes
                                     # (or a scalar broadcast to them)
    m: Optional[Callable]            # memory kernel m(y, x) at the lag
                                     # x = t - y, on 1-D arrays of nodes
                                     # and lags; None when identically 0
    r: np.ndarray                    # right-hand side on the nodes, as d;
                                     # a non-finite r[0] means no u(0)
    g2: Optional[G2Kernel] = None    # the g2 kernel behind m, when it is one
    oracle: Optional[dict] = None    # Forcing.bulk_on_nodes's record, when
                                     # r was built from a prime_bulk split


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

D_MIN = 1e-12   # the smallest |d| the engine divides by


def solve_second_kind(problem: SecondKindProblem, mesh: Mesh) -> SolveReport:
    """Time-stepping product integration: piecewise-linear solution, memory
    term by quadrature.memory_panel_weights, read ROW_BLOCK rows at a time
    (2-point Gauss on interior panels, lag_rule in the lag variable on the
    panel touching the singularity of m at y = t).  m(y, x) gets the exact
    lags x = t_i - y of the builder; meta["memory_points"] counts the points
    it was evaluated at, and meta["mesh"] records the mesh's n and r.
    Without memory (m None) the equation is d u = r, solved in one vector
    step that fails where the stepping would first fail: at the first node
    with |d| < D_MIN or a non-finite u, the d check first."""
    t = mesh.points
    n = mesh.n
    u = np.zeros(n + 1)
    d = _on_nodes("d", problem.d, n)
    r = _on_nodes("r", problem.r, n)
    u0 = None      # u(0) = r(0)/d(0) when both are usable, else the first panel's
    if np.isfinite(r[0]) and abs(d[0]) >= D_MIN:
        u0 = u[0] = r[0] / d[0]

    points = 0

    def memory(y, x):
        nonlocal points
        points += y.size
        return problem.m(y, x)

    if problem.m is None:
        _divide_out(u, d, r, t)
    else:
        for a in range(0, n + 1, ROW_BLOCK):
            b = min(a + ROW_BLOCK, n + 1)
            w0, w1 = memory_panel_weights(memory, t, a, b)
            for i in range(max(a, 1), b):
                ti = t[i]
                di = float(d[i])
                if abs(di) < D_MIN:
                    raise NumericalError(
                        f"diagonal coefficient below {D_MIN} at t = {ti}")
                ri = float(r[i])
                c0, c1 = w0[i - a, :i], w1[i - a, :i]
                # every panel but the newest acts on known values; on the
                # newest, m0 multiplies u_{i-1} and m1 the unknown u_i
                interior = float(c0[:-1] @ u[: i - 1] + c1[:-1] @ u[1:i])
                m0, m1 = c0[-1], c1[-1]
                if i == 1 and u0 is None:
                    # constant extension over the first panel
                    u[1] = (ri - interior) / (di + m0 + m1)
                else:
                    u[i] = (ri - interior - u[i - 1] * m0) / (di + m1)
                if not np.isfinite(u[i]):
                    raise NumericalError(f"non-finite solution value at t = {ti}")
    if u0 is None:
        u[0] = u[1]
    return SolveReport(mesh, t, u, meta={"mesh": {"n": n, "r": mesh.r},
                                         "memory_skipped": problem.m is None,
                                         "memory_points": points})


def _divide_out(u, d, r, t):
    """u[1:] = r[1:] / d[1:], raising as the stepping would at the first node
    where |d| < D_MIN or u is not finite (the d check first at a node); a
    non-finite u[0] makes u[1] non-finite, as its step multiplies it by 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u[1:] = r[1:] / d[1:]
    small = np.abs(d[1:]) < D_MIN
    bad = small | ~np.isfinite(u[1:])
    bad[0] |= not np.isfinite(u[0])
    if np.any(bad):
        i = int(np.argmax(bad))
        if small[i]:
            raise NumericalError(f"diagonal coefficient below {D_MIN} at t = {t[i + 1]}")
        raise NumericalError(f"non-finite solution value at t = {t[i + 1]}")


def _on_nodes(name: str, values, n: int) -> np.ndarray:
    """A SecondKindProblem's d or r broadcast to the n + 1 mesh nodes."""
    values = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(values, (n + 1,))
    except ValueError:
        raise ValidationError(
            f"SecondKindProblem.{name} has length {values.size}; "
            f"the mesh has {n + 1} nodes") from None


# ------------------------------------------------ mesh/checkpoint helpers

def weighted_l1_error(mesh: Mesh, u: np.ndarray, exact_fn) -> float:
    """Relative discrete weighted-L1 error sum tau_i |u - u_ex|(t_i), skipping
    the t = 0 node (the exact solution may be unbounded there)."""
    t = mesh.points[1:]
    tau = mesh.tau
    ue = np.asarray(exact_fn(t), dtype=float)
    return float(np.sum(tau * np.abs(u[1:] - ue)) / np.sum(tau * np.abs(ue)))


def max_node_error(mesh: Mesh, u: np.ndarray, exact_fn) -> float:
    return float(np.max(np.abs(u - np.asarray(exact_fn(mesh.points), dtype=float))))


def checkpoint_nodes(mesh: Mesh, checkpoints) -> np.ndarray:
    """The node nearest each checkpoint, in order, the t = 0 node dropped."""
    nodes = mesh.nearest(checkpoints)
    return nodes[nodes > 0]


def conv_at_nodes(beta: float, mesh: Mesh, nodes, phi) -> np.ndarray:
    """int_0^{t_i} (t_i - s)^(-beta) phihat_i(s) ds at each node i >= 1 in
    nodes, phihat_i the piecewise-linear interpolant of phi(i), the values
    on t[:i+1]: one power_conv_weights row per node."""
    return np.array([np.dot(power_conv_weights(beta, mesh, i), phi(i)) for i in nodes])


SPLIT_CONV_LEVELS = 40   # graded depth of the right-hand sides' split_conv


def _values(fn, x):
    """fn on the array x, with a constant result broadcast to x's shape."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x))


def _first_kind_rhs(forcing: Forcing, t: np.ndarray, power: float, psi,
                    norm: float, f0_term, u0_part=None) -> tuple:
    """r = F(0) kappa(t) + int_0^t kappa(t - s) F'(s) ds on the nodes t, with
    kappa(x) = x^(-power) psi(x) / norm and psi None (1), a float or a
    callable of the lag; f0_term is F(0) kappa on t[1:].  Returns r and the
    record of Forcing.bulk_on_nodes (None without a prime_bulk split).

    A split F' = u0 w(0,s) k(s) + prime_bulk(s) is never evaluated at s = 0:
    the bulk goes through the forcing's node cache, the u0 part is
    u0 u0_part(t).  An unsplit singular F' ~ s^(-alpha) is integrated by
    split graded quadrature at every node: piecewise-linear interpolation
    of a power has scale-invariant relative error on the early panels,
    which would freeze the first errors.  Otherwise F' stays on the graded
    mesh, a callable psi (smooth) is the lag factor of the product
    integration and a float psi multiplies the sum."""
    lag_factor = psi if callable(psi) else None
    scale = psi if isinstance(psi, float) else 1.0
    r = np.empty(t.size)
    # r(0+) is a nonzero finite limit when F' blows up at zero; leaving it
    # non-finite makes the engine start from the constant-extension branch
    exact_zero = forcing.f0 == 0.0 and not forcing.prime_singular_at_zero
    r[0] = 0.0 if exact_zero else np.inf
    oracle = None
    if forcing.prime_singular_at_zero and not forcing.has_prime_split:
        kappa = lambda x: x ** (-power) * (lag_factor(x) if lag_factor else scale)
        conv = split_conv(kappa, forcing.f_prime, t[1:], SPLIT_CONV_LEVELS) / norm
    else:
        if forcing.has_prime_split:
            fp = np.zeros(t.size)
            fp[1:], oracle = forcing.bulk_on_nodes(t[1:])
        else:
            fp = _values(forcing.f_prime, t)
        conv = power_conv_apply(power, t, fp, lag_factor=lag_factor)[1:] / norm
        if scale != 1.0:
            conv *= scale
        if forcing.has_prime_split and forcing.u0 != 0.0:
            conv += forcing.u0 * u0_part(t[1:])
    r[1:] = f0_term + conv
    return r, oracle


# ------------------------------------------------------------- transforms

def require_wsc1(data: SonineData) -> str:
    """The WSC1 gate every solver runs before it steps: raises ValidationError
    when the weighted condition fails on a short sample grid.  The report is
    kept on data, so a later gate on the same data reads its verdict, failing
    ones too: returns "pass" when this call ran the check, else "cached"."""
    rep = data.gate_cache.get("wsc1")
    status = "cached"
    if rep is None:
        rep = data.gate_cache["wsc1"] = wsc1_report(
            data, grid=[(0.0, 0.3 * data.b), (0.25 * data.b, 0.3 * data.b)])
        status = "pass"
    if not rep.passed:
        raise ValidationError(f"WSC1 validation failed: {rep.summary()}")
    return status


def transform_first_kind_weighted(problem: FirstKindProblem, data: SonineData,
                                  mesh: Mesh) -> SecondKindProblem:
    """Second-kind form: u g(t,0) + int g2(s,t-s) u(s) ds
    = d/dt int K(t-s) f(s) ds."""
    if problem.variant != "weighted-k":
        raise ValidationError("expected the weighted-k variant")
    require_wsc1(data)
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing

    t = mesh.points
    # sonine.eval_g is looked up on the module, like g2table's eval_g2, so
    # that a wrapper installed on it sees this call
    r, oracle = _first_kind_rhs(forcing, t, 1.0 - pair.alpha0, None, pair.assoc_norm,
                                forcing.f0 * pair.K(t[1:]),
                                lambda x: sonine.eval_g(data, 0.0, x))
    m, g2 = _memory(data, mesh)
    return SecondKindProblem(weight(t, t), m, r, g2, oracle)


def _memory(data: SonineData, mesh: Mesh, s=None):
    """(m, g2): m(y, x) = g2(s, x) at the lag x, s = y when None, from the
    G2Kernel g2 sized for the mesh; (None, None) when g2(s, .) vanishes."""
    if g2_vanishes(data.pair, data.weight, s):
        return None, None
    g2 = G2Kernel(data, memory_points(mesh.n), lambda s, x: eval_g2(data, s, x))
    return (g2 if s is None else lambda y, x: g2(s, x)), g2


def _constant_psi(pair: KernelPair, weight: Weight) -> Optional[float]:
    """psi(s) = w(0,s) k_smooth_part(s) as a float when it is constant: the
    exponent is constant and w(0,s) folds to a constant, as in
    g2_vanishes; else None."""
    if not pair.exponent.is_constant:
        return None
    w0 = substitute(weight.w, {"s": 0.0})
    if w0.kind != "const":
        return None
    return w0.value * float(pair.k_smooth_part(0.0))


def transform_first_kind_K(problem: FirstKindProblem, data: SonineData,
                           mesh: Mesh) -> SecondKindProblem:
    """Second-kind form: u g(0,0) + int g2(0,t-s) u(s) ds
    = d/dt int w(0,s)k(s)f(t-s) ds."""
    if problem.variant != "K-kernel":
        raise ValidationError("expected the K-kernel variant")
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    if forcing.has_prime_split:
        raise ValidationError(
            "a forcing split as u0 w(0,s) k(s) + prime_bulk is the weighted-k "
            "equation's manufactured forcing, not one of the K-kernel equation")
    require_wsc1(data)
    t = mesh.points
    # psi(s) = w(0,s) * smooth part of k, so kappa(x) = x^(-a0) psi(x)
    psi = _constant_psi(pair, weight)
    if psi is None:
        psi = lambda s: np.asarray(weight(np.zeros_like(np.asarray(s, float)), s)) \
            * np.asarray(pair.k_smooth_part(s))
    r, _ = _first_kind_rhs(forcing, t, pair.alpha0, psi, 1.0,
                           forcing.f0 * weight(0.0, t[1:]) * pair.k(t[1:]))
    m, g2 = _memory(data, mesh, 0.0)
    return SecondKindProblem(float(weight(0.0, 0.0)), m, r, g2)


# --------------------------------------------------------------- solvers

def solve_first_kind(problem: FirstKindProblem, mesh: Mesh,
                     data: Optional[SonineData] = None) -> SolveReport:
    """Solve the first-kind equation through its second-kind form; meta gets
    the rule size, checks (the WSC1 gate's outcome, "pass" or "cached"),
    g2_table (the G2Kernel's record, None without a g2 table), oracle
    ({"nodes", "reused"}: the prime_bulk nodes the right-hand side
    computed and read from the forcing's cache, None when it reads no
    prime_bulk split) and the timings rhs_s (WSC1 gate and right-hand
    side), stepping_s, oracle_s (the prime_bulk call, part of rhs_s) with
    an oracle record and, when this solve built the g2 table, g2_table_s
    (not in rhs_s)."""
    if data is None:
        data = SonineData.make(problem.pair, problem.weight)
    transform = (transform_first_kind_weighted
                 if problem.variant == "weighted-k" else transform_first_kind_K)
    started = time.perf_counter()
    # the transform gates too, and reads the verdict kept here
    checks = {"wsc1": require_wsc1(data)}
    second = transform(problem, data, mesh)
    built = time.perf_counter()
    rep = solve_second_kind(second, mesh)
    timings = {"rhs_s": built - started, "stepping_s": time.perf_counter() - built}
    g2 = second.g2
    if g2 is not None and g2.built:
        timings["rhs_s"] -= g2.table.build_s
        timings["g2_table_s"] = g2.table.build_s
    oracle = second.oracle
    if oracle is not None:
        timings["oracle_s"] = oracle["s"]
    rep.meta["jacobi_nodes"] = data.rule.n
    rep.meta["checks"] = checks
    rep.meta["g2_table"] = None if g2 is None else g2.record()
    rep.meta["oracle"] = None if oracle is None else {
        "nodes": oracle["nodes"], "reused": oracle["reused"]}
    rep.meta["timings"] = timings
    return rep


def solve_nonlocal_ode(problem: NonlocalOdeProblem, mesh: Mesh,
                       data: Optional[SonineData] = None) -> SolveReport:
    """d/dt int_0^t w(s,t) k(t-s) u(s) ds = f with that integral -> c at 0
    is the weighted first-kind equation with F(0) = c and F' = f."""
    if problem.c != 0.0 and mesh.is_uniform:
        raise ValidationError(
            "c != 0 makes the solution behave like t^(alpha(0)-1); "
            "a graded mesh (r > 1) is required")
    forcing = Forcing(None, problem.forcing.f, problem.c)
    return solve_first_kind(FirstKindProblem(problem.pair, problem.weight, forcing),
                            mesh, data)


# --------------------------------------------------------------- residuals

def residual_first_kind(problem: FirstKindProblem, mesh: Mesh, u: np.ndarray,
                        checkpoints) -> tuple:
    """Residual of the original first-kind equation at the nodes nearest the
    checkpoints (t = 0 dropped), using the pure-power split of k (or K) and
    the piecewise-linear u; returns those nodes and the residuals."""
    pair, weight = problem.pair, problem.weight
    t = mesh.points
    nodes = checkpoint_nodes(mesh, checkpoints)
    if problem.variant == "weighted-k":
        conv = conv_at_nodes(pair.alpha0, mesh, nodes, lambda i: (
            np.asarray(weight(t[: i + 1], t[i]))
            * np.asarray(pair.k_smooth_part(t[i] - t[: i + 1])) * u[: i + 1]))
    else:
        conv = conv_at_nodes(1.0 - pair.alpha0, mesh, nodes,
                             lambda i: u[: i + 1]) / pair.assoc_norm
    return t[nodes], conv - _values(problem.forcing.f, t[nodes])


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
    associate of K in the classical condition, verified by that equation's
    residual at the checkpoints (fractions of b)."""
    problem = FirstKindProblem(data.pair, data.weight, Forcing.constant(1.0),
                               variant="K-kernel")
    rep = solve_first_kind(problem, mesh, data)
    cps, res = residual_first_kind(problem, mesh, rep.u,
                                   np.asarray(checkpoints, dtype=float) * data.pair.b)
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
