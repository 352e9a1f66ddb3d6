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
solve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalError, ValidationError
from .expr import ExprAst, parse_expr
from .kernels import KernelPair, Weight, gamma
from .quadrature import Mesh, lag_rule, power_conv_matrix
from .sonine import SonineData, eval_g2, wsc1_report

INSTABILITY_FACTOR = 1e3


def _space_time_fn(expr) -> Callable:
    """Normalize an expression in (x, t) or a callable to f(x_array, t)."""
    if callable(expr) and not isinstance(expr, ExprAst):
        return expr
    ast = parse_expr(expr) if isinstance(expr, str) else expr
    extra = ast.variables() - {"x", "t"}
    if extra:
        raise ValidationError(f"unexpected variables {sorted(extra)} in '{ast}'")
    return lambda x, t: np.broadcast_to(
        np.asarray(ast.eval({"x": np.asarray(x, float), "t": t}), float),
        np.asarray(x, float).shape).copy()


@dataclass
class PdeConfig:
    """Problem data for the 1D weighted subdiffusion model on [0,1]."""

    m: int                      # interior spatial nodes, h = 1/(m+1)
    mesh: Mesh
    pair: KernelPair
    weight: Weight
    forcing: Union[ExprAst, str, Callable]     # f(x, t)
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
        u0 = self.initial_fn()
        for edge in (0.0, 1.0):
            if abs(float(u0(np.asarray([edge]))[0])) > 1e-12:
                raise ValidationError(f"initial data must vanish at x = {edge}")

    def initial_fn(self) -> Callable:
        if callable(self.initial) and not isinstance(self.initial, ExprAst):
            return self.initial
        ast = parse_expr(self.initial) if isinstance(self.initial, str) else self.initial
        extra = ast.variables() - {"x"}
        if extra:
            raise ValidationError(f"initial data may depend on x only, got {sorted(extra)}")
        return lambda x: np.broadcast_to(
            np.asarray(ast.eval({"x": np.asarray(x, float)}), float),
            np.asarray(x, float).shape).copy()

    def forcing_fn(self) -> Callable:
        return _space_time_fn(self.forcing)

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
        """Relative discrete-L2 error at the final time."""
        fn = _space_time_fn(exact)
        ue = np.asarray(fn(self.x, float(self.t[-1])), float)
        scale = np.sqrt(np.mean(ue ** 2))
        return float(np.sqrt(np.mean((self.u[-1] - ue) ** 2)) / scale)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["x", "t", "u"])
            for i, ti in enumerate(self.t):
                for j, xj in enumerate(self.x):
                    out.writerow([f"{xj:.17g}", f"{ti:.17g}", f"{self.u[i, j]:.17g}"])


def l1_weights(alpha0: float, mesh: Mesh,
               assoc_norm: Optional[float] = None) -> np.ndarray:
    """Rows i = 1..N of weights a_{ij} with

        d/dt int_0^{t_i} K(t_i - s) phihat(s) ds = sum_j a_{ij} phi(t_j)

    exact for piecewise-linear phihat, where K(t) = t^(alpha0-1)/Gamma(alpha0)
    (or /assoc_norm when given): the derivative form of power_conv_matrix.
    Row 0 is zero; the boundary term K(t_i)phi_0 is folded into a_{i0}.
    """
    if not 0.0 < alpha0 < 1.0:
        raise ValidationError(f"alpha0 must lie in (0,1), got {alpha0}")
    w = power_conv_matrix(1.0 - alpha0, mesh, "right", derivative=True)
    w /= gamma(alpha0) if assoc_norm is None else assoc_norm
    return w


def _memory_panel_integrals(data: SonineData, mesh: Mesh, i: int,
                            gl=np.polynomial.legendre.leggauss(2)) -> np.ndarray:
    """B_j = int over panel j of g2(s, t_i - s) ds for j = 1..i; the newest
    panel is integrated in the lag variable where g2's second argument is
    singular-prone."""
    t = mesh.points
    ti = t[i]
    out = np.empty(i)
    if i > 1:
        lo, hi = t[: i - 1], t[1:i]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        ss = mid[:, None] + half[:, None] * gl[0][None, :]
        vals = eval_g2(data, ss.ravel(), (ti - ss).ravel()).reshape(ss.shape)
        out[: i - 1] = np.sum(half[:, None] * gl[1][None, :] * vals, axis=1)
    xs, xw = lag_rule(ti - t[i - 1])
    out[i - 1] = np.dot(xw, eval_g2(data, ti - xs, xs))
    return out


def solve_subdiffusion(config: PdeConfig,
                       data: Optional[SonineData] = None) -> PdeSolution:
    mesh, pair, weight = config.mesh, config.pair, config.weight
    if data is None:
        data = SonineData.make(pair, weight)
    check = wsc1_report(data, grid=[(0.0, 0.3 * pair.b), (0.25 * pair.b, 0.3 * pair.b)])
    if not check.passed:
        raise ValidationError(f"WSC1 validation failed: {check.summary()}")

    t = mesh.points
    n = mesh.n
    tau = mesh.tau
    x = config.x
    m = config.m
    h = 1.0 / (m + 1)
    f_fn = config.forcing_fn()

    u = np.zeros((n + 1, m))
    u[0] = config.initial_fn()(x)
    scale = max(1.0, float(np.max(np.abs(u[0]))))

    lw = l1_weights(pair.alpha0, mesh, pair.assoc_norm)
    fvals = np.asarray([f_fn(x, float(ti)) for ti in t])
    gdiag = np.asarray([float(weight(ti, ti)) for ti in t])
    if np.any(np.abs(gdiag) < 1e-12):
        raise NumericalError("g(t,0) = w(t,t) vanishes on the mesh")

    def lap(v):
        out = -2.0 * v
        out[:-1] += v[1:]
        out[1:] += v[:-1]
        return out / h ** 2

    laps = np.zeros_like(u)
    laps[0] = lap(u[0])
    solve_res = np.zeros(n + 1)

    for i in range(1, n + 1):
        gi = gdiag[i]
        b_panels = _memory_panel_integrals(data, mesh, i)
        # memory term -sum_{j<i-1} B_j (u_{j+1} - u_j)/tau_j + B_{i-1} u_{i-1}/tau_{i-1}
        # regrouped by u_j: the coefficients are differences of B_j / tau_j
        c = np.diff(b_panels / tau[:i], prepend=0.0)
        rhs = u[i - 1] / tau[i - 1] + (
            c @ u[:i] + lw[i, :i] @ laps[:i] + lw[i, : i + 1] @ fvals[: i + 1]) / gi

        shift = 1.0 / tau[i - 1] + b_panels[i - 1] / (gi * tau[i - 1])
        coef = lw[i, i] / gi
        ab = np.zeros((3, m))
        ab[0, 1:] = -coef / h ** 2
        ab[1, :] = shift + 2.0 * coef / h ** 2
        ab[2, :-1] = -coef / h ** 2
        try:
            ui = solve_banded((1, 1), ab, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"linear solve failed at step {i} (t = {t[i]})") from exc
        if not np.all(np.isfinite(ui)):
            raise NumericalError(f"non-finite solution at step {i} (t = {t[i]})")
        if np.max(np.abs(ui)) > INSTABILITY_FACTOR * scale:
            raise NumericalError(
                f"instability detected at step {i} (t = {t[i]}): "
                f"|u| = {np.max(np.abs(ui)):.3e} exceeds {INSTABILITY_FACTOR:g} x scale")
        u[i] = ui
        laps[i] = lap(ui)
        resid = (shift * ui - coef * lap(ui)) - rhs
        solve_res[i] = float(np.max(np.abs(resid)))

    return PdeSolution(x, t.copy(), u, solve_res,
                       meta={"m": m, "n": n, "jacobi_nodes": data.rule.n})
