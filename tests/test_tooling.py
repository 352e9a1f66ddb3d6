"""The benchmark's span tracer patches library names from outside
(``perfbench/spans.py``); a rename or a removed module global makes
``perfbench/run.py --trace 1`` fail, so the tracer is exercised here."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from wsonine import expr, kernels, sonine, subdiffusion, vie
from wsonine.kernels import KernelPair, Weight
from wsonine.quadrature import Mesh

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def patched_names():
    owners = (expr.ExprAst, kernels.KernelPair, sonine, sonine.SonineData,
              vie, subdiffusion)
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items()}


def test_tracer_installs_runs_and_uninstalls():
    before = patched_names()
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.rung = 0
        pair = KernelPair.make("0.5")
        weight = Weight.from_expr("1 + s*t")
        fc = vie.Forcing.from_expr("0.2122065907891938*t^1.5")
        prob = vie.FirstKindProblem(pair, weight, fc, variant="K-kernel")
        mesh = Mesh(1.0, 16, 4.0)
        rep = vie.solve_first_kind(prob, mesh)
        vie.residual_first_kind(prob, mesh, rep.u, [0.5, 1.0])
        npair = KernelPair.make("0.5", normalized=True)
        pcfg = subdiffusion.PdeConfig(4, Mesh(1.0, 8), npair, Weight.from_expr("1"),
                                      "sin(3.141592653589793*x)", "0")
        subdiffusion.solve_subdiffusion(pcfg)
    finally:
        tracer.uninstall()
    assert patched_names() == before
    totals = tracer.totals(in_rungs=True)
    for name in ("expr.eval", "vie.rhs", "vie.step", "vie.residual",
                 "quadrature.power_conv_weights", "sonine.eval_g2",
                 "subdiffusion.history", "subdiffusion.l1_weights",
                 "subdiffusion.banded"):
        assert totals[name][0] > 0, name
    assert np.all(np.isfinite(rep.u))


WORKLOADS = SPANS.parent / "workloads.py"


def test_benchmark_workloads_run_one_small_rung():
    # the benchmark drives the library through RunConfig, PdeConfig,
    # final_l2_error and expr.as_function; one N = 8 rung per workload
    # keeps that surface working
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # @dataclass looks the module up there
    try:
        spec.loader.exec_module(workloads)
        for wl in workloads.WORKLOADS.values():
            st = workloads.setup(workloads.config_text(wl, 1), wl.kind)
            rung = workloads.solve_rung(st, wl.kind, 8, math.inf)
            assert rung.ok, (wl.name, rung.message)
            assert np.isfinite(rung.error) and np.isfinite(rung.residual), wl.name
    finally:
        del sys.modules[spec.name]
