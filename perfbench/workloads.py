"""Seeded workloads: run-config text, solve ladders and their checks.

Each workload turns a seed into run-config text in the repository's own
format.  The benchmark parses that text with ``RunConfig.from_text`` and
then makes the library calls ``wsonine solve`` makes, so any run can be
replayed with ``wsonine solve --config <file> --kind <kind>``.  Rung sizes
do not depend on the seed; only the coefficients do.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wsonine import expr, sonine, subdiffusion, vie
from wsonine.config import RunConfig

# Coefficient ranges the seed draws from.  The top-rung error is a gated
# metric, so each range is narrow enough that the error moves by less than
# a few per cent across seeds; the vie1k error moves by a factor of 2.4 as
# a0 goes from 0.45 to 0.55, the pde error by 3 %.
VAR_C_RANGE = (0.095, 0.105)     # vie1-var: alpha(t) = 0.5 + c t
VAR_D_RANGE = (0.95, 1.05)       # vie1-var: w(s, t) = 1 + d s t
CONST_A0_RANGE = (0.4975, 0.5025)  # vie1k-const: alpha = a0
CONST_D_RANGE = (0.8, 1.2)       # vie1k-const: w(s, t) = 1 + d s t
PDE_A0_RANGE = (0.45, 0.55)      # pde-wide: alpha = a0

RESIDUAL_CHECKPOINTS = (0.25, 0.5, 1.0)   # as in `wsonine solve`


def _num(v: float) -> str:
    return f"{v:.17g}"


def _vie1_var_text(rng: np.random.Generator) -> str:
    c = rng.uniform(*VAR_C_RANGE)
    d = rng.uniform(*VAR_D_RANGE)
    return f"""[kernel]
alpha = "0.5 + {_num(c)}*t"
b = 1.0

[weight]
w = "1 + {_num(d)}*s*t"

[forcing]
manufactured = true
exact = "1 + t"

[mesh]
n = 512
r = 4
"""


def _vie1k_const_text(rng: np.random.Generator) -> str:
    # int_0^t K(t-s) s ds = t^(a0+1) / (a0 (a0+1) kappa(a0)) for u = t.
    # The manufactured-forcing path cannot be used here: it builds the
    # weighted-k forcing for the K-kernel equation (see README.md).
    a0 = rng.uniform(*CONST_A0_RANGE)
    d = rng.uniform(*CONST_D_RANGE)
    kappa = math.pi / math.sin(math.pi * a0)
    scale = 1.0 / (a0 * (a0 + 1.0) * kappa)
    return f"""[kernel]
alpha = "{_num(a0)}"
b = 1.0

[weight]
w = "1 + {_num(d)}*s*t"

[forcing]
f = "{_num(scale)}*t^{_num(a0 + 1.0)}"
exact = "t"

[mesh]
n = 512
r = 4
"""


def _pde_wide_text(rng: np.random.Generator) -> str:
    # u = t^2 sin(pi x); with w = 1 and the normalized kernel the time term
    # is the Caputo derivative 2 t^(2-a0) / Gamma(3-a0) sin(pi x).
    a0 = rng.uniform(*PDE_A0_RANGE)
    caputo = 2.0 / math.gamma(3.0 - a0)
    return f"""[kernel]
alpha = "{_num(a0)}"
b = 1.0
normalized = true

[weight]
w = "1"

[forcing]
f = "({_num(caputo)}*t^{_num(2.0 - a0)} + {_num(math.pi ** 2)}*t^2)*sin({_num(math.pi)}*x)"
exact = "t^2*sin({_num(math.pi)}*x)"

[mesh]
n = 512
uniform = true

[pde]
m = 2048
initial = "0"
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # the `wsonine solve --kind` value
    ladder: tuple             # N per rung
    ceilings: tuple           # error ceiling per rung
    target: float             # time_to_tol_s: first rung with error <= target
    make_text: Callable[[np.random.Generator], str]


WORKLOADS = {w.name: w for w in (
    Workload("vie1-var", "vie1", (64, 128, 256, 512),
             (2e-3, 5e-4, 1.5e-4, 4e-5), 1e-4, _vie1_var_text),
    Workload("vie1k-const", "vie1k", (64, 128, 256, 512),
             (4e-3, 1.5e-3, 5e-4, 2e-4), 4e-4, _vie1k_const_text),
    Workload("pde-wide", "pde", (128, 256, 512),
             (1.6e-3, 8e-4, 4e-4), 5.5e-4, _pde_wide_text),
)}


def config_text(workload: Workload, seed: int) -> str:
    return workload.make_text(np.random.default_rng(seed))


@dataclass
class Setup:
    """Everything built once per workload before the first rung."""

    cfg: RunConfig
    pair: object
    weight: object
    data: sonine.SonineData
    forcing: object           # vie.Forcing, or None for pde
    exact: object             # callable for vie, expression text for pde


def setup(text: str, kind: str) -> Setup:
    cfg = RunConfig.from_text(text)
    pair = cfg.make_pair()
    weight = cfg.make_weight()
    data = sonine.SonineData.make(pair, weight)
    if kind == "pde":
        return Setup(cfg, pair, weight, data, None, cfg.exact_expr)
    if cfg.manufactured:
        forcing = vie.manufactured_forcing(pair, weight, cfg.exact_expr)
    else:
        forcing = vie.Forcing.from_expr(cfg.f_expr)
    return Setup(cfg, pair, weight, data, forcing,
                 expr.as_function(cfg.exact_expr))


@dataclass
class Rung:
    n: int
    seconds: float
    error: float
    ok: bool
    # residual_first_kind max for vie, largest linear-solve residual for pde
    residual: float = float("nan")
    message: str = ""


def solve_rung(st: Setup, kind: str, n: int, ceiling: float) -> Rung:
    """One rung: WSC1 gate, forcing/RHS assembly, stepping, residual check
    and error evaluation, timed together.  A raised exception, a
    non-finite value or an error above the ceiling fails the rung."""
    cfg = st.cfg
    mesh = cfg.make_mesh(n)
    t0 = time.perf_counter()
    residual = float("nan")
    if kind == "pde":
        pcfg = subdiffusion.PdeConfig(cfg.pde_m, mesh, st.pair, st.weight,
                                      cfg.f_expr, cfg.initial_expr,
                                      exact=cfg.exact_expr)
        sol = subdiffusion.solve_subdiffusion(pcfg, st.data)
        values = sol.u
        residual = float(np.max(sol.solve_residuals))
        error = sol.final_l2_error(st.exact)
    else:
        variant = "weighted-k" if kind == "vie1" else "K-kernel"
        prob = vie.FirstKindProblem(st.pair, st.weight, st.forcing,
                                    variant=variant)
        rep = vie.solve_first_kind(prob, mesh, data=st.data)
        _, res = vie.residual_first_kind(
            prob, mesh, rep.u, [c * cfg.b for c in RESIDUAL_CHECKPOINTS])
        residual = float(np.max(np.abs(res)))
        values = rep.u
        error = vie.max_node_error(mesh, rep.u, st.exact)
    seconds = time.perf_counter() - t0
    if not np.all(np.isfinite(values)):
        return Rung(n, seconds, error, False, residual, "non-finite solution")
    if not error <= ceiling:
        return Rung(n, seconds, error, False, residual,
                    f"error {error:.3e} above ceiling {ceiling:.1e}")
    return Rung(n, seconds, error, True, residual)


def run_rung(st: Setup, kind: str, n: int, ceiling: float) -> Rung:
    t0 = time.perf_counter()
    try:
        return solve_rung(st, kind, n, ceiling)
    except Exception:  # a raising rung is a failed rung
        return Rung(n, time.perf_counter() - t0, float("nan"), False,
                    message=traceback.format_exc())
