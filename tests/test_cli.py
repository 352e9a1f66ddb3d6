import json

import numpy as np
import pytest

from wsonine import vie
from wsonine.cli import main
from wsonine.kernels import KernelPair
from wsonine.config import RunConfig, parse_sections
from wsonine.errors import ConfigError
from wsonine.quadrature import MEMORY_PANEL_NODES
from wsonine.sonine import SONINE_JACOBI_N, SonineData

ODE_SQRT = """
[kernel]
alpha = "0.5"
normalized = true

[weight]
w = "1"

[forcing]
f = "0.88622692545275801"   # Gamma(3/2); exact solution sqrt(t)
exact = "sqrt(t)"

[mesh]
n = 32
r = 4
"""

VERIFY_GOOD = """
[kernel]
alpha = "0.5"

[weight]
w = "1 + s*t"
"""

# first kind in k, u = 1 + t, forcing from the manufactured oracle
VIE1_MANUFACTURED = """
[kernel]
alpha = "0.5"

[weight]
w = "1 + s*t"

[forcing]
manufactured = true
exact = "1 + t"

[mesh]
n = 64
r = 4
"""

# the same with a variable exponent, whose memory term reads a g2 table on
# meshes of N >= 128
VIE1_VARIABLE = VIE1_MANUFACTURED.replace('alpha = "0.5"', 'alpha = "0.5 + 0.1*t"')

# first kind in K, u = t: f = t^1.5 / (a0 (a0 + 1) kappa(a0)) at a0 = 1/2
VIE1K_CONST = """
[kernel]
alpha = "0.5"

[weight]
w = "1 + s*t"

[forcing]
f = "0.42441318157838759*t^1.5"
exact = "t"

[mesh]
n = 16
r = 4
"""

PDE_MANUFACTURED = """
[kernel]
alpha = "0.5"
normalized = true

[weight]
w = "1"

[forcing]
f = "(1.5045055561273502*t^1.5 + 9.869604401089358*t^2) * sin(3.141592653589793*x)"
exact = "t^2 * sin(3.141592653589793*x)"

[mesh]
n = 32
r = 4

[pde]
m = 16
initial = "0"
"""


def run_cli(tmp_path, cfg_text, *args, name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    return main(list(args) + ["--config", str(cfg), "--out", str(out)]), out


def last_json(capsys):
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1, "expected exactly one JSON line on stdout"
    return json.loads(lines[0]), captured.err


class TestConfigParsing:
    def test_sections_comments_quotes(self):
        sec = parse_sections('[kernel]\nalpha = "0.5 + 0.2*t"  # var\nb = 2\n')
        assert sec["kernel"]["alpha"] == "0.5 + 0.2*t"
        assert sec["kernel"]["b"] == "2"

    def test_hash_inside_quotes_kept(self):
        sec = parse_sections('[weight]\nw = "1 # not a comment"\n')
        assert sec["weight"]["w"] == "1 # not a comment"

    def test_errors(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_sections("[kernels]\n")
        with pytest.raises(ConfigError, match="outside any"):
            parse_sections("alpha = 0.5\n")
        with pytest.raises(ConfigError, match="unterminated"):
            parse_sections('[kernel]\nalpha = "0.5\n')
        with pytest.raises(ConfigError, match="key = value"):
            parse_sections("[kernel]\nalpha\n")

    def test_defaults(self):
        cfg = RunConfig.from_text(VERIFY_GOOD)
        assert cfg.b == 1.0 and not cfg.normalized
        assert cfg.n == 128 and cfg.grading is None
        assert cfg.identity_tol == 1e-8
        assert cfg.make_mesh(8).n == 8

    def test_kernel_preset(self):
        cfg = RunConfig.from_text('[kernel]\npreset = "abel-const"\n')
        assert 0.0 < cfg.make_pair().alpha0 < 1.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="known:"):
            RunConfig.from_text('[kernel]\npreset = "nope"\n')

    def test_bad_expression_reports_position(self):
        with pytest.raises(ConfigError, match="position"):
            RunConfig.from_text('[kernel]\nalpha = "0.5 + *t"\n')

    def test_missing_kernel(self):
        with pytest.raises(ConfigError, match="preset.*alpha|alpha.*preset"):
            RunConfig.from_text('[weight]\nw = "1"\n')

    @pytest.mark.parametrize("section, key", [("mesh", "grading = 9"),
                                              ("tolerances", "levels = 1")])
    def test_unknown_key_exits_2(self, tmp_path, capsys, section, key):
        code, _ = run_cli(tmp_path, VERIFY_GOOD + f"\n[{section}]\n{key}\n",
                          "verify")
        summary, _ = last_json(capsys)
        assert code == 2
        assert summary["status"] == "config-error"
        assert "unknown key" in summary["error"]

    def test_removed_quadrature_section_exits_2(self, tmp_path, capsys):
        # g, g2, G, G2 and the CSC check share one fixed rule: no size key
        code, _ = run_cli(tmp_path, VERIFY_GOOD + "\n[quadrature]\njacobi_n = 32\n",
                          "verify")
        summary, _ = last_json(capsys)
        assert code == 2
        assert summary["status"] == "config-error"
        assert "unknown section" in summary["error"]


class TestVerify:
    def test_good_config_passes(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, VERIFY_GOOD, "verify")
        summary, err = last_json(capsys)
        assert code == 0
        assert summary["status"] == "pass"
        assert summary["max_residual"] <= 1e-8
        assert summary["checks"] == {"csc": "pass", "wsc1": "pass",
                                     "wsc2": "pass", "licm": "pass"}
        for name in ("csc.csv", "wsc1.csv", "wsc2.csv"):
            assert (out / name).exists()
        assert "CSC residual" in err

    def test_variable_exponent_checks_skipped(self, tmp_path, capsys):
        cfg = VERIFY_GOOD.replace('"0.5"', '"0.5 + 0.2*t"')
        code, out = run_cli(tmp_path, cfg, "verify")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["checks"] == {"csc": "skipped", "wsc1": "pass",
                                     "wsc2": "skipped", "licm": "pass"}
        assert not (out / "csc.csv").exists() and not (out / "wsc2.csv").exists()

    def test_alpha_near_one_passes(self, tmp_path, capsys):
        cfg = VERIFY_GOOD.replace('"0.5"', '"0.8"')
        code, _ = run_cli(tmp_path, cfg, "verify")
        summary, err = last_json(capsys)
        assert code == 0, err
        assert summary["max_residual"] <= 1e-8

    def test_bad_weight_fails_naming_condition(self, tmp_path, capsys):
        cfg = VERIFY_GOOD.replace('"1 + s*t"', '"t - s"')
        code, _ = run_cli(tmp_path, cfg, "verify")
        summary, err = last_json(capsys)
        assert code == 3
        assert summary["status"] == "fail"
        assert any("(i)" in f for f in summary["failures"])
        assert summary["checks"]["wsc1"] == "fail"

    def test_nonintegrable_g2_fails_condition_b(self, tmp_path, capsys):
        # w_t = 0.1 / (t - s): g2(0, t) = 0.1 / t
        cfg = VERIFY_GOOD.replace('"1 + s*t"', '"2 + 0.1*ln(t - s + 1e-300)"')
        code, _ = run_cli(tmp_path, cfg, "verify")
        summary, _ = last_json(capsys)
        assert code == 3
        assert "(b)" in summary["failures"]

    def test_associate_off_by_a_factor_fails_csc(self, tmp_path, capsys,
                                                 monkeypatch):
        # int_0^t K(t-s) k(s) ds = 1.001 with this K: the CSC check must see
        # k and K themselves, not only the quadrature rule's mass
        exact_K = KernelPair.K
        monkeypatch.setattr(KernelPair, "K", lambda self, t: 1.001 * exact_K(self, t))
        code, out = run_cli(tmp_path, VERIFY_GOOD, "verify")
        summary, err = last_json(capsys)
        assert code == 3
        assert summary["checks"]["csc"] == "fail"
        assert "csc" in summary["failures"]
        rows = (out / "csc.csv").read_text().splitlines()[1:]
        assert all(float(row.split(",")[1]) > 1e-8 for row in rows)

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        cfg = VERIFY_GOOD.replace('"1 + s*t"', '"1 + s*"')
        code, _ = run_cli(tmp_path, cfg, "verify")
        summary, _ = last_json(capsys)
        assert code == 2
        assert summary["status"] == "config-error"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "absent.cfg")])
        summary, _ = last_json(capsys)
        assert code == 2
        assert summary["status"] == "config-error"


class TestSolve:
    def test_ode_error_in_summary(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, ODE_SQRT, "solve", "--kind", "ode")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["kind"] == "ode"
        assert summary["error"] <= 1e-2
        assert summary["jacobi_nodes"] == SONINE_JACOBI_N
        assert (out / "solution.csv").exists()

    def test_missing_forcing_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, VERIFY_GOOD, "solve", "--kind", "vie1")
        summary, _ = last_json(capsys)
        assert code == 2
        assert "forcing" in summary["error"]

    def test_domain_error_exits_4(self, tmp_path, capsys):
        cfg = ODE_SQRT.replace('"0.88622692545275801"', '"ln(t)"')
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", "ode")
        summary, _ = last_json(capsys)
        assert code == 4
        assert summary["status"] == "numerical-failure"

    def test_manufactured_vie1k_zero_start_exits_4(self, tmp_path, capsys):
        # u = t: the manufactured forcing is the weighted-k equation's, so
        # vie1k refuses it as a configuration error before any build
        cfg = """
[kernel]
alpha = "0.5"

[weight]
w = "1 + s*t"

[forcing]
manufactured = true
exact = "t"

[mesh]
n = 8
r = 4
"""
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", "vie1k")
        summary, _ = last_json(capsys)
        assert code == 2
        assert summary["status"] == "config-error"

    def test_manufactured_vie1_zero_start(self, tmp_path, capsys):
        # u = t has u(0) = 0, so the manufactured f' has no singular part
        cfg = """
[kernel]
alpha = "0.5 + 0.1*t"

[weight]
w = "1 + s*t"

[forcing]
manufactured = true
exact = "t"

[mesh]
n = 64
r = 4
"""
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", "vie1")
        summary, err = last_json(capsys)
        assert code == 0, err
        assert summary["error"] <= 1e-3

    @pytest.mark.parametrize("kind, cfg", [
        ("ode", ODE_SQRT.replace('f = "0.88622692545275801"   # Gamma(3/2); '
                                 'exact solution sqrt(t)', "manufactured = true")),
        ("pde", PDE_MANUFACTURED.replace("exact =", "manufactured = true\nexact =")),
        ("vie1k", VIE1K_CONST.replace('f = "0.42441318157838759*t^1.5"',
                                      "manufactured = true")),
    ], ids=["ode", "pde", "vie1k"])
    def test_manufactured_rejected_outside_first_kind(self, tmp_path, capsys,
                                                      kind, cfg):
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", kind)
        summary, _ = last_json(capsys)
        assert code == 2
        assert summary["status"] == "config-error"
        assert "--kind vie1 only" in summary["error"]

    def test_vie1k_constant_exponent_skips_memory(self, tmp_path, capsys):
        # w_t(0, t) = 0 and alpha is constant: g2(0, .) = 0, no memory term
        code, _ = run_cli(tmp_path, VIE1K_CONST, "solve", "--kind", "vie1k")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["memory_skipped"] is True
        assert summary["memory_points"] == 0
        assert summary["error"] <= 5e-3

    def test_vie1_variable_exponent_keeps_memory(self, tmp_path, capsys):
        cfg = """
[kernel]
alpha = "0.5 + 0.1*t"

[weight]
w = "1 + s*t"

[forcing]
manufactured = true
exact = "1 + t"

[mesh]
n = 16
r = 4
"""
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", "vie1")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["memory_skipped"] is False
        assert summary["memory_points"] == 16 * 15 + MEMORY_PANEL_NODES * 16
        assert summary["jacobi_nodes"] == SONINE_JACOBI_N
        assert summary["g2_table"] is None

    def test_g2_table_in_summary(self, tmp_path, capsys):
        cfg = VIE1_VARIABLE.replace("n = 64", "n = 128")
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", "vie1")
        summary, _ = last_json(capsys)
        assert code == 0
        table = summary["g2_table"]
        assert table["rank"] == 2 and table["fallback"] is None
        assert table["check_error"] <= 1e-12 and table["below_points"] == 0
        assert set(summary["timings"]) == {"rhs_s", "stepping_s", "g2_table_s",
                                           "oracle_s"}
        assert summary["timings"]["g2_table_s"] == table["build_s"]
        assert summary["error"] <= 1e-3

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        _, out = run_cli(tmp_path, ODE_SQRT, "solve", "--kind", "ode")
        first = (out / "solution.csv").read_bytes()
        code, out = run_cli(tmp_path, ODE_SQRT, "solve", "--kind", "ode")
        assert code == 0
        assert (out / "solution.csv").read_bytes() == first
        capsys.readouterr()

    def test_manufactured_first_kind(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, VIE1_MANUFACTURED, "solve", "--kind", "vie1")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["error"] <= 1e-2
        assert summary["max_residual"] <= 1e-2
        assert summary["jacobi_nodes"] == SONINE_JACOBI_N
        assert (out / "residuals.csv").exists()

    def test_pde_summary_has_error(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, PDE_MANUFACTURED, "solve", "--kind", "pde")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["error"] <= 5e-2
        assert summary["jacobi_nodes"] == SONINE_JACOBI_N
        # r = 4: every step has its own tau, so its own factorization
        assert summary["factorizations"] == 32
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header == "x,t,u"

    def test_pde_summary_has_timings(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, PDE_MANUFACTURED, "solve", "--kind", "pde")
        summary, _ = last_json(capsys)
        assert code == 0
        assert set(summary["timings"]) == {"forcing_s", "stepping_s"}
        assert all(v >= 0.0 for v in summary["timings"].values())

    # a single solve computes every prime_bulk node; only a manufactured
    # weighted right-hand side reads a prime_bulk split, and times it
    @pytest.mark.parametrize("kind, cfg, oracle", [
        ("vie1", VIE1_MANUFACTURED, {"nodes": 64, "reused": 0}),
        ("vie1k", VIE1K_CONST, None),
        ("ode", ODE_SQRT, None),
    ], ids=["vie1", "vie1k", "ode"])
    def test_volterra_summary_has_timings(self, tmp_path, capsys, kind, cfg,
                                          oracle):
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", kind)
        summary, err = last_json(capsys)
        assert code == 0, err
        extra = set() if oracle is None else {"oracle_s"}
        assert set(summary["timings"]) == {"rhs_s", "stepping_s"} | extra
        assert all(v >= 0.0 for v in summary["timings"].values())
        assert summary["oracle"] == oracle
        if oracle is not None:
            assert summary["timings"]["oracle_s"] <= summary["timings"]["rhs_s"]

    @pytest.mark.parametrize("kind, cfg, mesh", [
        ("vie1", VIE1_MANUFACTURED, {"n": 64, "r": 4.0}),
        ("vie1k", VIE1K_CONST, {"n": 16, "r": 4.0}),
        ("ode", ODE_SQRT, {"n": 32, "r": 4.0}),
        # c = 0 accepts a uniform mesh, on which the ODE is first order
        ("ode", ODE_SQRT.replace("r = 4", "uniform = true"), {"n": 32, "r": 1.0}),
        ("pde", PDE_MANUFACTURED, {"n": 32, "r": 4.0}),
    ], ids=["vie1", "vie1k", "ode", "ode-uniform", "pde"])
    def test_summary_records_gate_and_mesh(self, tmp_path, capsys, kind, cfg,
                                           mesh):
        code, _ = run_cli(tmp_path, cfg, "solve", "--kind", kind)
        summary, err = last_json(capsys)
        assert code == 0, err
        assert summary["checks"] == {"wsc1": "pass"}
        assert summary["mesh"] == mesh

    @pytest.mark.parametrize("args", [("solve",), ("converge", "--doublings", "1")])
    def test_pde_zero_final_state_error_is_valid_json(self, tmp_path, capsys,
                                                      args):
        # u = t(1-t) sin(pi x) vanishes at t = b = 1: the error is absolute
        cfg = PDE_MANUFACTURED.replace(
            '"(1.5045055561273502*t^1.5 + 9.869604401089358*t^2)',
            '"(1.1283791670955126*t^0.5 - 1.5045055561273502*t^1.5'
            ' + 9.869604401089358*(t - t^2))').replace(
            '"t^2 * sin', '"t*(1-t) * sin')
        assert "t*(1-t)" in cfg and "t^0.5" in cfg
        code, _ = run_cli(tmp_path, cfg, *args, "--kind", "pde")
        line = capsys.readouterr().out.strip()
        assert "\n" not in line

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        summary = json.loads(line, parse_constant=reject)
        assert code == 0
        assert 0.0 < summary["error"] <= 1e-2


class TestConverge:
    def test_zero_doublings_single_row(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, ODE_SQRT, "converge", "--kind", "ode",
                            "--doublings", "0")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["order"] is None
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,error,order"
        assert len(lines) == 2
        assert lines[1].endswith(",")

    def test_machine_exact_case_labelled(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, ODE_SQRT, "converge", "--kind", "ode",
                            "--doublings", "1")
        summary, _ = last_json(capsys)
        assert code == 0
        assert summary["order"] == "exact"
        assert summary["error"] <= 1e-13

    def test_one_sonine_data_per_study(self, tmp_path, capsys, monkeypatch):
        # N = 32 .. 256: the g2 table is built at N = 128 and read at 256;
        # one forcing serves the study, whose nested meshes have 256
        # distinct nodes t > 0, each computed once by prime_bulk; each row
        # is bit for bit what `solve` gives at that N alone, on a fresh forcing
        made, forcings, bulk_nodes = [], [], []
        make = SonineData.make.__func__
        monkeypatch.setattr(SonineData, "make", classmethod(
            lambda cls, *args: made.append(args) or make(cls, *args)))
        manufactured = vie.manufactured_forcing

        def counted_forcing(*args):
            fc = manufactured(*args)
            bulk = fc.prime_bulk
            fc.prime_bulk = lambda t: bulk_nodes.append(np.size(t)) or bulk(t)
            forcings.append(fc)
            return fc

        monkeypatch.setattr(vie, "manufactured_forcing", counted_forcing)
        cfg = VIE1_VARIABLE.replace("n = 64", "n = 32")
        code, out = run_cli(tmp_path, cfg, "converge", "--kind", "vie1",
                            "--doublings", "3")
        last_json(capsys)
        assert code == 0 and len(made) == 1 and len(forcings) == 1
        assert bulk_nodes == [32, 32, 64, 128]
        assert forcings[0].node_cache["nodes"].size == 256
        rows = (out / "convergence.csv").read_text().splitlines()[1:]
        for row in rows:
            n, err, _ = row.split(",")
            code, _ = run_cli(tmp_path, cfg.replace("n = 32", f"n = {n}"),
                              "solve", "--kind", "vie1")
            summary, _ = last_json(capsys)
            assert code == 0
            assert f"{summary['error']:.17g}" == err
        assert [row.split(",")[0] for row in rows] == ["32", "64", "128", "256"]

    def test_requires_exact(self, tmp_path, capsys):
        cfg = ODE_SQRT.replace('exact = "sqrt(t)"', "")
        code, _ = run_cli(tmp_path, cfg, "converge", "--kind", "ode")
        summary, _ = last_json(capsys)
        assert code == 2

    def test_negative_doublings_rejected(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ODE_SQRT, "converge", "--kind", "ode",
                          "--doublings", "-1")
        summary, _ = last_json(capsys)
        assert code == 2
