"""The benchmark's span tracer patches library names from outside
(``perfbench/spans.py``); a rename or a removed module global makes
``perfbench/run.py --trace 1`` fail, so the tracer is exercised here, as
are the benchmark workloads and the scripts under ``scripts/``.  The
README's config key table is checked against the parser's."""

import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from wsonine import config, expr, kernels, sonine, subdiffusion, vie
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
        # both memory kernels above are identically 0 and skipped; a variable
        # exponent keeps the stepper's own eval_g2 binding in use
        tracer.rung = 1
        var = vie.FirstKindProblem(KernelPair.make("0.5 + 0.1*t"), weight,
                                   vie.Forcing.from_expr("t"))
        vie.solve_first_kind(var, mesh)
        # u(0) != 0 through the timed manufactured oracle: the vie1-var path
        oracle = vie.manufactured_forcing(var.pair, weight, "1 + t")
        tracer.wrap_oracle(oracle)
        vie.solve_first_kind(vie.FirstKindProblem(var.pair, weight, oracle),
                             Mesh(1.0, 40, 4.0))
        # N = 40 > BLOCK: the memory term of the PDE stepper across blocks
        memory = subdiffusion.PdeConfig(4, Mesh(1.0, 40, 4.0), npair, weight,
                                        "sin(3.141592653589793*x)", "0")
        pde = subdiffusion.solve_subdiffusion(memory)
    finally:
        tracer.uninstall()
    assert patched_names() == before
    totals = tracer.totals(in_rungs=True)
    for name in ("expr.eval", "vie.oracle", "vie.rhs", "vie.step", "vie.residual",
                 "quadrature.power_conv_weights", "sonine.eval_g2",
                 "subdiffusion.history", "subdiffusion.l1_weights",
                 "subdiffusion.banded"):
        assert totals[name][0] > 0, name
    assert np.all(np.isfinite(rep.u))
    spans = tracer.arrays()
    names = np.asarray(tracer.names)
    g2 = spans["name_id"] == tracer.names.index("sonine.eval_g2")
    callers = names[spans["name_id"][spans["parent"][g2]]]
    from_steppers = np.isin(callers, ["vie.step", "subdiffusion.history"])
    assert not np.any(from_steppers & (spans["rung"][g2] == 0))
    assert np.any(from_steppers & (spans["rung"][g2] == 1))
    assert not pde.meta["memory_skipped"]
    assert np.all(np.isfinite(pde.u))
    pde_g2 = callers == "subdiffusion.history"
    assert np.count_nonzero(pde_g2 & (spans["rung"][g2] == 1)) == 40
    banded = spans["name_id"] == tracer.names.index("subdiffusion.banded")
    assert np.count_nonzero(banded & (spans["rung"] == 1)) == 40


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


SCRIPTS = SPANS.parent.parent / "scripts"


@pytest.mark.parametrize("name, argv", [
    ("verify_presets", []),
    ("convergence_study", ["--n", "8", "--doublings", "1"]),
    ("subdiffusion_demo", ["--m", "4", "--n", "8"]),
])
def test_scripts_run_at_small_sizes(name, argv, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}",
                                                  SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(argv) == 0
    assert capsys.readouterr().out


README = SPANS.parent.parent / "README.md"


def test_readme_key_table_matches_parser():
    # rows of the form | `[section]` | `key`, `key` or `key` |
    rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", README.read_text(), re.M)
    documented = {sec: set(re.findall(r"`(\w+)`", keys)) for sec, keys in rows}
    assert documented, "no key table found in README.md"
    parsed = {sec: set(keys) for sec, keys in config._KEYS.items()}
    assert documented == parsed
