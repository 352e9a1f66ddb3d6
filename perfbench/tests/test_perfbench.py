"""Checks on the benchmark's own workloads.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from wsonine import cli  # noqa: E402
from wsonine.config import RunConfig  # noqa: E402
from wsonine.quadrature import graded_panel_quad  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_config_text_depends_only_on_the_seed(name):
    wl = workloads.WORKLOADS[name]
    text = workloads.config_text(wl, 5)
    assert text == workloads.config_text(wl, 5)
    assert text != workloads.config_text(wl, 6)
    assert RunConfig.from_text(text).exact_expr is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_rung_meets_its_ceiling(name):
    wl = workloads.WORKLOADS[name]
    st = workloads.setup(workloads.config_text(wl, 1), wl.kind)
    rung = workloads.run_rung(st, wl.kind, wl.ladder[0], wl.ceilings[0])
    assert rung.ok, rung.message
    assert rung.residual < 1e-2


def test_closed_form_K_forcing_is_the_K_convolution_of_u():
    wl = workloads.WORKLOADS["vie1k-const"]
    st = workloads.setup(workloads.config_text(wl, 3), wl.kind)
    for t in (0.3, 1.0):
        ref = graded_panel_quad(lambda x: st.pair.K(x) * (t - x), 0.0, t)
        assert st.forcing.f(t) == pytest.approx(ref, rel=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "`wsonine solve --kind vie1k` with a manufactured forcing builds the "
    "weighted-k forcing (vie.manufactured_forcing) for the K-kernel equation"))
def test_vie1k_manufactured_forcing_reproduces_exact_solution(tmp_path, capsys):
    text = workloads.config_text(workloads.WORKLOADS["vie1k-const"], 1)
    head, _, _ = text.partition("[forcing]")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(head + '[forcing]\nmanufactured = true\nexact = "1 + t"\n\n'
                   "[mesh]\nn = 8\nr = 4\n")
    assert cli.main(["solve", "--config", str(cfg), "--kind", "vie1k",
                     "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["error"] < 1e-2
