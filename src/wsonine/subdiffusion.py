"""Desk-scale 1D weighted subdiffusion solver.

The model  int_0^t w(s,t) k(t-s) d_s u(x,s) ds - Lap u = f  (homogeneous
Dirichlet data, normalized kernel k(t) = t^(-alpha(t)) / Gamma(1-alpha(t)))
is advanced in its transformed form

    d_t u + (1/g(t,0)) int_0^t g2(s,t-s) d_s u(x,s) ds
          - (1/g(t,0)) d/dt int_0^t K(t-s) Lap u(x,s) ds
          = (1/g(t,0)) d/dt int_0^t K(t-s) f(x,s) ds,

with the 1/g(t,0) factor applied outside the time derivative.  Space uses
the 3-point Laplacian on a uniform grid; the K-term uses L1-style weights
exact on piecewise-linear data; d_s u in the memory term uses backward
differences with the newest panel implicit.  Each step is one tridiagonal
solve on the LAPACK factors of shift*I - coef*Lap, factored once per
(shift, coef) pair and reused while the pair holds: once per solve when
the memory term is skipped and every tau is the same, at every step on a
graded mesh.  The step matrix is symmetric positive definite whenever
shift > 0 and coef > 0, so it is factored by LAPACK's pivot-free LDL^T
dpttrf and solved by dpttrs; a pair whose matrix is not positive definite
(w(t,t) < 0, or a memory term that drives the shift to <= 0) is factored
by dgttrf instead and solved by dgttrs.  The per-step vector work (the
near history sum, the right-hand side, Lap u_i, the solve residual and
one max|u_i| for the finiteness and instability checks) runs in buffers
allocated once per solve.

The K-term acts on f and Lap u alike, so both share one history array V:
row j holds f(t_j) and gains Lap u_j once step j is solved, and the K-term
of step i is sum_j a_ij V_j over j <= i (row i still holds f(t_i) alone).
The steps run in blocks of quadrature.ROW_BLOCK: for a block [a, b) the L1
rows a..b-1 are built, the far part (columns < a) is one matrix product
before the block, and each step adds its near part over columns a..i.  The
memory term, when g2 does not vanish, is one row c_i @ u[:i] per step from
the block's memory_panel_weights rows, whose g2 points are one call of the
solve's g2table.G2Kernel (eval_g2, or the g2 table of a variable exponent).
f is evaluated once per block of time nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from .csvfile import write_csv
from .errors import NumericalError, ValidationError
from .expr import ExprAst, as_function
from .kernels import KernelPair, Weight, gamma
from .quadrature import (ROW_BLOCK, Mesh, memory_panel_weights, memory_points,
                         power_conv_rows)
# wsc1_report stays bound here: the benchmark's span tracer patches it
from .g2table import G2Kernel
from .sonine import SonineData, eval_g2, g2_vanishes, wsc1_report  # noqa: F401
from .vie import require_wsc1

INSTABILITY_FACTOR = 1e3


@dataclass
class PdeConfig:
    """Problem data for the 1D weighted subdiffusion model on [0,1]."""

    m: int                      # interior spatial nodes, h = 1/(m+1)
    mesh: Mesh
    pair: KernelPair
    weight: Weight
    # f(x, t), called once per block of time nodes with x of shape (B, m),
    # read-only, and t of shape (B, 1); a callable returns a scalar or a
    # 2-D array that broadcasts to (B, m), else ValidationError
    forcing: Union[ExprAst, str, Callable]
    initial: Union[ExprAst, str, Callable]     # u0(x)
    exact: Optional[Union[ExprAst, str, Callable]] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("need at least one interior spatial node")
        if not self.pair.normalized:
            raise ValidationError(
                "the subdiffusion model uses k(t) = t^(-alpha(t))/Gamma(1-alpha(t)); "
                "build the KernelPair with normalized=True")
        if self.mesh.b > self.pair.b * (1.0 + 1e-12):
            raise ValidationError("time mesh extends past the kernel horizon")
        u0 = as_function(self.initial, ("x",))
        for edge in (0.0, 1.0):
            if abs(float(u0(np.asarray([edge]))[0])) > 1e-12:
                raise ValidationError(f"initial data must vanish at x = {edge}")

    @property
    def x(self) -> np.ndarray:
        h = 1.0 / (self.m + 1)
        return h * np.arange(1, self.m + 1)


@dataclass
class PdeSolution:
    x: np.ndarray
    t: np.ndarray
    u: np.ndarray                 # shape (len(t), len(x)), interior values
    solve_residuals: np.ndarray   # per-step linear-solve residual (inf norm)
    meta: dict = field(default_factory=dict)

    def final_l2_error(self, exact) -> float:
        """Relative discrete-L2 error at the final time; the absolute one
        when the exact final state is identically 0."""
        fn = as_function(exact, ("x", "t"))
        ue = np.asarray(fn(self.x, float(self.t[-1])), float)
        err = float(np.sqrt(np.mean((self.u[-1] - ue) ** 2)))
        scale = float(np.sqrt(np.mean(ue ** 2)))
        return err / scale if scale > 0.0 else err

    def write_csv(self, path):
        write_csv(path, ["x", "t", "u"],
                  ([xj, ti, uij] for ti, ui in zip(self.t, self.u)
                   for xj, uij in zip(self.x, ui)))


def l1_weights(alpha0: float, t: np.ndarray, a: int, b: int,
               assoc_norm: Optional[float] = None) -> np.ndarray:
    """Rows i = a..b-1, as a (b-a, b) block, of the weights a_{ij} with

        d/dt int_0^{t_i} K(t_i - s) phihat(s) ds = sum_j a_{ij} phi(t_j)

    exact for piecewise-linear phihat on the nodes t, where
    K(t) = t^(alpha0-1)/Gamma(alpha0) (or /assoc_norm when given): the
    derivative form of power_conv_rows.  Row 0 and the entries j > i are
    zero; the boundary term K(t_i)phi_0 is folded into a_{i0}.
    """
    if not 0.0 < alpha0 < 1.0:
        raise ValidationError(f"alpha0 must lie in (0,1), got {alpha0}")
    w = power_conv_rows(1.0 - alpha0, t, a, b, derivative=True)
    w /= gamma(alpha0) if assoc_norm is None else assoc_norm
    return w


def _factor_step(shift: float, coef: float, m: int, h: float) -> tuple:
    """Factors of shift*I - coef*Lap on m interior nodes: dpttrf's LDL^T
    (d, e) when the matrix is positive definite, else dgttrf's LU
    (dl, d, du, du2, ipiv).  The LAPACK wrappers need 3 rows, so a smaller
    system is padded with identity rows that do not couple to it.  A zero
    LU pivot raises LinAlgError."""
    n = max(m, 3)
    off = np.zeros(n - 1)
    off[:m - 1] = -coef / h ** 2
    diag = np.ones(n)
    diag[:m] = shift + 2.0 * coef / h ** 2
    d, e, info = dpttrf(diag, off)
    if info == 0:
        return d, e
    *factors, info = dgttrf(off, diag, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgttrf returned info = {info}")
    return tuple(factors)


def solve_banded(factors: tuple, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, overwritten with the solution of one step's system from its
    _factor_step factors; rhs is left intact."""
    ldlt = len(factors) == 2
    n = len(factors[0 if ldlt else 1])      # the diagonal, padded rows too
    b = out if len(out) == n else np.zeros(n)
    b[:len(rhs)] = rhs
    if ldlt:
        x, info = dpttrs(*factors, b, overwrite_b=True)
    else:
        x, info = dgttrs(*factors, b, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{'dpttrs' if ldlt else 'dgttrs'} returned info = {info}")
    if b is not out:
        out[:] = x[:len(out)]
    return out


def _forcing_block(f_fn, x: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """f at the time nodes tb for every x, shape (len(tb), len(x)): one call
    f_fn(x of shape (B, m), t of shape (B, 1)).  A call that fails on these
    shapes, or a result that is neither a scalar nor 2-D and broadcastable
    to (B, m), raises ValidationError stating the contract."""
    shape = (len(tb), len(x))
    try:
        val = np.asarray(f_fn(np.broadcast_to(x, shape), tb[:, None]), float)
        if val.ndim == 1:
            # (B,) would pass as a row when B == m
            raise ValueError(f"got a 1-D result of shape {val.shape}")
        return np.broadcast_to(val, shape)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            "the forcing f(x, t) is called once per block of time nodes, with "
            "x of shape (B, m) (read-only) and t of shape (B, 1), and must "
            "return a scalar or a 2-D array that broadcasts to (B, m); "
            f"at B = {shape[0]}, m = {shape[1]}: {exc}") from exc


def solve_subdiffusion(config: PdeConfig,
                       data: Optional[SonineData] = None) -> PdeSolution:
    mesh, pair, weight = config.mesh, config.pair, config.weight
    if data is None:
        data = SonineData.make(pair, weight)
    checks = {"wsc1": require_wsc1(data)}

    t = mesh.points
    n = mesh.n
    tau = mesh.tau
    x = config.x
    m = config.m
    h = 1.0 / (m + 1)
    f_fn = as_function(config.forcing, ("x", "t"))

    u = np.zeros((n + 1, m))
    u[0] = as_function(config.initial, ("x",))(x)
    scale = max(1.0, float(np.max(np.abs(u[0]))))

    gdiag = np.broadcast_to(np.asarray(weight(t, t), dtype=float), t.shape)
    if np.any(np.abs(gdiag) < 1e-12):
        raise NumericalError("g(t,0) = w(t,t) vanishes on the mesh")

    h2 = h ** 2

    def lap(v, out):
        np.multiply(v, -2.0, out=out)
        out[:-1] += v[1:]
        out[1:] += v[:-1]
        out /= h2
        return out

    solve_res = np.zeros(n + 1)
    memory_skipped = g2_vanishes(data.pair, data.weight)
    # sum_j lw_ij (f_j + lap u_j): row j of hist is f(t_j), plus lap(u_j)
    # once u_j is known
    hist = np.empty((n + 1, m))
    forcing_s = 0.0
    points = 0
    # the step matrix's factors and the (shift, coef) they were made for
    factors, factored = None, None
    factorizations = 0
    # the per-step vectors: the history sum (then coef * Lap u_i), the
    # right-hand side, Lap u_i and the residual (first u_i / tau, then |u_i|)
    acc, rhs, lap_u, resid = np.empty((4, m))

    g2 = None if memory_skipped else G2Kernel(data, memory_points(n),
                                              lambda y, x: eval_g2(data, y, x))

    def memory(y, x):
        nonlocal points
        points += y.size
        return g2(y, x)

    timings = {}
    if g2 is not None and g2.built:
        timings["g2_table_s"] = g2.table.build_s
    started = time.perf_counter()

    for a in range(0, n + 1, ROW_BLOCK):
        b = min(a + ROW_BLOCK, n + 1)
        clock = time.perf_counter()
        hist[a:b] = _forcing_block(f_fn, x, t[a:b])
        forcing_s += time.perf_counter() - clock
        if a == 0:
            hist[0] += lap(u[0], lap_u)
        lw = l1_weights(pair.alpha0, t, a, b, pair.assoc_norm)
        far = lw[:, :a] @ hist[:a]
        if not memory_skipped:
            w0, w1 = memory_panel_weights(memory, t, a, b)

        for i in range(max(a, 1), b):
            gi = gdiag[i]
            # near part; row i of hist is still f(t_i) alone
            np.dot(lw[i - a, a:i + 1], hist[a:i + 1], out=acc)
            acc += far[i - a]
            b_last = 0.0
            if not memory_skipped:
                # B_j = int over panel j of g2(s, t_i - s) ds.  The memory
                # term -sum_{j<i-1} B_j (u_{j+1} - u_j)/tau_j
                # + B_{i-1} u_{i-1}/tau_{i-1} regrouped by u_j: the
                # coefficients are differences of B_j / tau_j
                b_panels = w0[i - a, :i] + w1[i - a, :i]
                acc += np.diff(b_panels / tau[:i], prepend=0.0) @ u[:i]
                b_last = b_panels[i - 1]
            np.divide(acc, gi, out=rhs)
            rhs += np.divide(u[i - 1], tau[i - 1], out=resid)

            shift = 1.0 / tau[i - 1] + b_last / (gi * tau[i - 1])
            coef = lw[i - a, i] / gi
            try:
                if (shift, coef) != factored:
                    factors = _factor_step(shift, coef, m, h)
                    factored = (shift, coef)
                    factorizations += 1
                ui = solve_banded(factors, rhs, u[i])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"linear solve failed at step {i} (t = {t[i]})") from exc
            # NaN or inf in u_i make its max |u| non-finite
            peak = np.abs(ui, out=resid).max()
            if not np.isfinite(peak):
                raise NumericalError(f"non-finite solution at step {i} (t = {t[i]})")
            if peak > INSTABILITY_FACTOR * scale:
                raise NumericalError(
                    f"instability detected at step {i} (t = {t[i]}): "
                    f"|u| = {peak:.3e} exceeds {INSTABILITY_FACTOR:g} x scale")
            lap(ui, lap_u)
            # (shift u_i - coef Lap u_i) - rhs
            np.multiply(ui, shift, out=resid)
            resid -= np.multiply(lap_u, coef, out=acc)
            resid -= rhs
            solve_res[i] = np.abs(resid, out=resid).max()
            hist[i] += lap_u

    timings["forcing_s"] = forcing_s
    timings["stepping_s"] = time.perf_counter() - started - forcing_s
    return PdeSolution(x, t.copy(), u, solve_res,
                       meta={"m": m, "n": n, "jacobi_nodes": data.rule.n,
                             "mesh": {"n": n, "r": mesh.r},
                             "checks": checks,
                             "memory_skipped": memory_skipped,
                             "memory_points": points,
                             "g2_table": None if g2 is None else g2.record(),
                             "factorizations": factorizations,
                             "history_block": ROW_BLOCK,
                             "timings": timings})
