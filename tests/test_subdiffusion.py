import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from wsonine import g2table, subdiffusion
from wsonine.errors import NumericalError, ValidationError
from wsonine.kernels import KernelPair, Weight, gamma
from wsonine.quadrature import (MEMORY_PANEL_NODES, ROW_BLOCK, Mesh,
                                memory_panel_weights)
from wsonine.sonine import SonineData, eval_g2
from wsonine.subdiffusion import (PdeConfig, PdeSolution, l1_weights,
                                  solve_subdiffusion)

G25 = math.gamma(2.5)
PI2 = math.pi ** 2


def beta_fn(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


@pytest.fixture(scope="module")
def npair():
    return KernelPair.make("0.5", normalized=True)


@pytest.fixture(scope="module")
def unit_weight():
    return Weight.from_expr("1")


def manufactured_config(npair, unit_weight, n, m):
    # exact solution u = t^2 sin(pi x) under the normalized half kernel
    f = lambda x, t: (2.0 * t ** 1.5 / G25 + PI2 * t * t) * np.sin(
        math.pi * np.asarray(x, float))
    return PdeConfig(m=m, mesh=Mesh(1.0, n, 4.0), pair=npair,
                     weight=unit_weight, forcing=f, initial="0",
                     exact="t^2 * sin(3.141592653589793 * x)")


def row_by_row_solve(cfg):
    """Reference stepper: every history sum over all earlier rows, every
    step a dense solve; no blocking, no fused history."""
    data = SonineData.make(cfg.pair, cfg.weight)
    mesh, m = cfg.mesh, cfg.m
    t, tau, n = mesh.points, mesh.tau, mesh.n
    h = 1.0 / (m + 1)
    x = cfg.x
    lap = (np.diag(np.full(m - 1, 1.0), -1) - 2.0 * np.eye(m)
           + np.diag(np.full(m - 1, 1.0), 1)) / h ** 2
    f = np.asarray([cfg.forcing(x, ti) for ti in t])
    lw = l1_weights(cfg.pair.alpha0, t, 0, n + 1, cfg.pair.assoc_norm)
    u = np.zeros((n + 1, m))
    u[0] = cfg.initial(x)
    for i in range(1, n + 1):
        gi = float(cfg.weight(t[i], t[i]))
        m0, m1 = memory_panel_weights(lambda y, lag: eval_g2(data, y, lag),
                                      t, i, i + 1)
        b_panels = m0[0, :i] + m1[0, :i]
        c = np.diff(b_panels / tau[:i], prepend=0.0)
        rhs = u[i - 1] / tau[i - 1] + (c @ u[:i] + lap @ (lw[i, :i] @ u[:i])
                                       + lw[i] @ f) / gi
        shift = (1.0 + b_panels[i - 1] / gi) / tau[i - 1]
        u[i] = np.linalg.solve(shift * np.eye(m) - lw[i, i] / gi * lap, rhs)
    return u


def per_step_solve_banded(patch):
    """Patch the stepper back to its per-step solve: every step builds the
    banded matrix ab of shift*I - coef*Lap and calls
    scipy.linalg.solve_banded on it (pivoted LU, as dgttrf/dgttrs)."""
    def build(shift, coef, m, h):
        ab = np.zeros((3, m))
        ab[0, 1:] = -coef / h ** 2
        ab[1, :] = shift + 2.0 * coef / h ** 2
        ab[2, :-1] = -coef / h ** 2
        return ab

    def solve(ab, rhs, out):
        out[:] = scipy.linalg.solve_banded((1, 1), ab, rhs)
        return out

    patch.setattr(subdiffusion, "_factor_step", build)
    patch.setattr(subdiffusion, "solve_banded", solve)


def factor_kinds(patch):
    """Record which factorization each _factor_step call returned:
    "ldlt" for dpttrf's (d, e), "lu" for dgttrf's five arrays."""
    kinds = []
    factor = subdiffusion._factor_step

    def spy(*args):
        factors = factor(*args)
        kinds.append("ldlt" if len(factors) == 2 else "lu")
        return factors

    patch.setattr(subdiffusion, "_factor_step", spy)
    return kinds


def step_config(alpha, w, n, r, m):
    f = lambda x, t: (1.0 + t) * np.sin(math.pi * x) + x * (1.0 - x)
    return PdeConfig(m=m, mesh=Mesh(1.0, n, r),
                     pair=KernelPair.make(alpha, normalized=True),
                     weight=Weight.from_expr(w), forcing=f,
                     initial=lambda x: np.sin(2.0 * math.pi * x))


class TestL1Weights:
    @pytest.mark.parametrize("alpha0", [0.3, 0.5, 0.7])
    def test_row_sums_reproduce_kernel(self, alpha0):
        # phi = 1: d/dt int K(t-s) ds = K(t_i)
        mesh = Mesh(1.0, 16, 3.0)
        w = l1_weights(alpha0, mesh.points, 0, 17)
        for i in (1, 7, 16):
            want = mesh.points[i] ** (alpha0 - 1.0) / math.gamma(alpha0)
            assert w[i].sum() == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alpha0", [0.3, 0.5, 0.7])
    def test_exact_on_linear_data(self, alpha0):
        # phi = t: the derivative is (1+a0) B(2, a0) t^a0 / Gamma(a0)
        mesh = Mesh(1.0, 16, 3.0)
        w = l1_weights(alpha0, mesh.points, 0, 17)
        t = mesh.points
        for i in (1, 7, 16):
            want = (1 + alpha0) * beta_fn(2, alpha0) * t[i] ** alpha0 \
                / math.gamma(alpha0)
            assert float(np.dot(w[i], t)) == pytest.approx(want, rel=1e-13)

    def test_matches_integration_by_parts_oracle(self):
        # independent route: d/dt int K phihat = K(t_i) phi_0
        # + sum_j slope_j [(t_i - t_{j-1})^a0 - (t_i - t_j)^a0] / (a0 norm)
        alpha0 = 0.4
        mesh = Mesh(1.0, 12, 2.0)
        t, tau = mesh.points, mesh.tau
        norm = gamma(alpha0)
        rng = np.random.default_rng(7)
        phi = rng.standard_normal(13)
        w = l1_weights(alpha0, t, 0, 13, norm)
        for i in (1, 5, 12):
            slopes = np.diff(phi[: i + 1]) / tau[:i]
            moments = ((t[i] - t[:i]) ** alpha0
                       - (t[i] - t[1: i + 1]) ** alpha0) / (alpha0 * norm)
            want = t[i] ** (alpha0 - 1.0) / norm * phi[0] \
                + float(np.dot(slopes, moments))
            assert float(np.dot(w[i], phi)) == pytest.approx(want, rel=1e-13,
                                                             abs=1e-13)

    def test_quadratic_order_approaches_limit(self):
        # phi = t^2: exact derivative (2+a0) B(3,a0) t^(1+a0) / Gamma(a0);
        # the observed order climbs toward 2 - a0 = 1.5 from below
        alpha0 = 0.5
        exact = (2 + alpha0) * beta_fn(3, alpha0) / math.gamma(alpha0)
        errs = []
        for n in (16, 32, 64, 128):
            mesh = Mesh(1.0, n)
            w = l1_weights(alpha0, mesh.points, n, n + 1)[0]
            got = float(np.dot(w, mesh.points ** 2))
            errs.append(abs(got - exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(o >= 1.4 for o in orders)
        assert orders[-1] > orders[0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            l1_weights(1.0, Mesh(1.0, 8).points, 0, 9)
        with pytest.raises(ValidationError):
            l1_weights(0.5, Mesh(1.0, 8).points, 3, 10)


class TestPdeConfig:
    def test_initial_must_vanish_at_boundary(self, npair, unit_weight):
        with pytest.raises(ValidationError):
            PdeConfig(m=8, mesh=Mesh(1.0, 8, 4.0), pair=npair,
                      weight=unit_weight, forcing="0", initial="x")

    def test_requires_normalized_pair(self, unit_weight):
        with pytest.raises(ValidationError):
            PdeConfig(m=8, mesh=Mesh(1.0, 8, 4.0),
                      pair=KernelPair.make("0.5"),
                      weight=unit_weight, forcing="0", initial="0")

    def test_requires_interior_node(self, npair, unit_weight):
        with pytest.raises(ValidationError):
            PdeConfig(m=0, mesh=Mesh(1.0, 8, 4.0), pair=npair,
                      weight=unit_weight, forcing="0", initial="0")

    def test_mesh_inside_horizon(self, unit_weight):
        pair = KernelPair.make("0.5", b=0.5, normalized=True)
        with pytest.raises(ValidationError):
            PdeConfig(m=8, mesh=Mesh(1.0, 8, 4.0), pair=pair,
                      weight=unit_weight, forcing="0", initial="0")

    def test_initial_rejects_time_dependence(self, npair, unit_weight):
        with pytest.raises(ValidationError):
            PdeConfig(m=8, mesh=Mesh(1.0, 8, 4.0), pair=npair,
                      weight=unit_weight, forcing="0",
                      initial="x * (1 - x) * t")

    def test_spatial_grid(self, npair, unit_weight):
        cfg = PdeConfig(m=3, mesh=Mesh(1.0, 8, 4.0), pair=npair,
                        weight=unit_weight, forcing="0", initial="0")
        np.testing.assert_allclose(cfg.x, [0.25, 0.5, 0.75])


class TestSolver:
    def test_zero_data_stays_zero(self, npair, unit_weight):
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 16, 4.0), pair=npair,
                        weight=unit_weight, forcing="0", initial="0")
        sol = solve_subdiffusion(cfg)
        assert np.all(sol.u == 0.0)

    def test_linearity(self, npair, unit_weight):
        mesh = Mesh(1.0, 16, 4.0)
        f1 = "sin(3.141592653589793 * x) * t"
        f2 = lambda x, t: np.asarray(x) * (1.0 - np.asarray(x))
        i1 = lambda x: np.sin(math.pi * np.asarray(x))
        i2 = "x * (1 - x)"
        sols = []
        for f, ini in ((f1, i1), (f2, i2)):
            cfg = PdeConfig(m=12, mesh=mesh, pair=npair, weight=unit_weight,
                            forcing=f, initial=ini)
            sols.append(solve_subdiffusion(cfg))
        combo = PdeConfig(
            m=12, mesh=mesh, pair=npair, weight=unit_weight,
            forcing=lambda x, t: np.sin(math.pi * np.asarray(x)) * t
            + np.asarray(x) * (1.0 - np.asarray(x)),
            initial=lambda x: np.sin(math.pi * np.asarray(x))
            + np.asarray(x) * (1.0 - np.asarray(x)))
        both = solve_subdiffusion(combo)
        np.testing.assert_allclose(both.u, sols[0].u + sols[1].u, atol=1e-12)

    @staticmethod
    def pinned_error(alpha, w, r, n):
        # final-time distance to t^2 sin(pi x) at M = 16
        cfg = PdeConfig(m=16, mesh=Mesh(1.0, n, r),
                        pair=KernelPair.make(alpha, normalized=True),
                        weight=Weight.from_expr(w),
                        forcing="(1.5045055561273502*t^1.5 + 9.869604401089358*t^2)"
                                " * sin(3.141592653589793*x)",
                        initial="0", exact="t^2 * sin(3.141592653589793*x)")
        return solve_subdiffusion(cfg).final_l2_error(cfg.exact)

    @pytest.mark.parametrize("alpha, w, r, want", [
        ("0.5", "1", 1.0, 0.005497351719386538),
        ("0.5", "1", 4.0, 0.010452727838838287),
        # w != 1 switches the memory term on; the forcing is the w = 1 one,
        # so these pin a distance, not a discretization error
        ("0.5", "1 + s*t", 4.0, 0.08067538522603199),
        ("0.5 + 0.2*t", "1 + s*t", 4.0, 0.07399768663321306)])
    def test_errors_pinned(self, alpha, w, r, want):
        # N = 32, as computed by the broadcast history sums that the
        # matrix-vector products replaced
        assert self.pinned_error(alpha, w, r, 32) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha, w, r, want", [
        ("0.5", "1", 1.0, 0.0034736038439837514),
        ("0.5", "1", 4.0, 0.0052059803202533705),
        ("0.5", "1 + s*t", 4.0, 0.08482200307472745),
        ("0.5 + 0.2*t", "1 + s*t", 4.0, 0.07861058685068646)])
    def test_errors_pinned_across_blocks(self, alpha, w, r, want):
        # N = 100 > ROW_BLOCK: the far parts of later blocks carry most of the
        # history; pinned from the row-by-row history products
        assert ROW_BLOCK < 100
        assert self.pinned_error(alpha, w, r, 100) == pytest.approx(want, rel=1e-9)

    def test_memory_skip_bit_identical(self, monkeypatch, npair, unit_weight):
        # w = 1 with a constant exponent: g2 = 0, and the memory panels are
        # skipped without changing a bit of the solution, within one history
        # block and across several
        for n in (32, 100):
            cfg = manufactured_config(npair, unit_weight, n, 16)
            skipped = solve_subdiffusion(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(subdiffusion, "g2_vanishes", lambda *args: False)
                evaluated = solve_subdiffusion(cfg)
            assert skipped.meta["memory_skipped"]
            assert not evaluated.meta["memory_skipped"]
            assert skipped.meta["memory_points"] == 0
            assert (evaluated.meta["memory_points"]
                    == n * (n - 1) + MEMORY_PANEL_NODES * n)
            np.testing.assert_array_equal(skipped.u, evaluated.u)

    def test_variable_exponent_memory_reads_the_g2_table(self, monkeypatch):
        # N = 128: 18304 memory points, more than a table build takes
        cfg = PdeConfig(m=4, mesh=Mesh(1.0, 128, 4.0),
                        pair=KernelPair.make("0.5 + 0.2*t", normalized=True),
                        weight=Weight.from_expr("1 + s*t"),
                        forcing="sin(3.141592653589793*x)", initial="0")
        got = solve_subdiffusion(cfg)
        record = got.meta["g2_table"]
        assert record["rank"] == 2 and record["fallback"] is None
        assert got.meta["timings"]["g2_table_s"] == record["build_s"]
        with monkeypatch.context() as patch:
            patch.setattr(g2table, "g2_table", lambda data, points: None)
            exact = solve_subdiffusion(cfg)
        assert exact.meta["g2_table"] is None
        assert set(exact.meta["timings"]) == {"forcing_s", "stepping_s"}
        np.testing.assert_allclose(got.u, exact.u, rtol=0,
                                   atol=1e-12 * np.max(np.abs(exact.u)))

    @pytest.mark.parametrize("alpha, w", [("0.5", "1"), ("0.5", "1 + s*t"),
                                          ("0.5 + 0.2*t", "exp(-(t - s))")])
    def test_blocks_match_row_by_row_reference(self, alpha, w):
        # N = 70 spans three history blocks, the last one partial
        f = lambda x, t: (1.0 + t) * np.sin(math.pi * x) + x * (1.0 - x)
        cfg = PdeConfig(m=9, mesh=Mesh(1.0, 70, 3.0),
                        pair=KernelPair.make(alpha, normalized=True),
                        weight=Weight.from_expr(w), forcing=f,
                        initial=lambda x: np.sin(2.0 * math.pi * x))
        got = solve_subdiffusion(cfg).u
        want = row_by_row_solve(cfg)
        assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))

    @pytest.mark.parametrize("alpha, w, n, r, m, lo, hi", [
        # tau is exact: one factorization for the whole solve
        ("0.5", "1", 64, 1.0, 16, 1, 1),
        # the tau of N = 100 differ in the last bit: some steps refactor
        ("0.5", "1", 100, 1.0, 16, 2, 99),
        # graded and memory-on: every step refactors
        ("0.5 + 0.2*t", "1 + s*t", 70, 4.0, 16, 70, 70),
        # w(t, t) = 1 keeps coef fixed; the memory term moves the shift
        ("0.5", "1 + s*(t - s)", 64, 1.0, 16, 64, 64),
        # systems below 3 rows are padded for the LAPACK wrapper
        ("0.5", "1 + s*t", 20, 1.0, 1, 20, 20),
        ("0.5", "1", 20, 4.0, 2, 20, 20),
        # the benchmark's width
        ("0.5", "1", 32, 1.0, 2048, 1, 1)])
    def test_kept_factors_match_per_step_solve_banded(
            self, monkeypatch, alpha, w, n, r, m, lo, hi):
        # LDL^T rounds differently from the pivoted LU of the reference:
        # measured at most 4e-16 relative on the M <= 16 cases and 3e-14 at
        # M = 2048, with residuals within 0.7-1.7x of the reference's
        rtol = 1e-14 if m <= 16 else 1e-12
        cfg = step_config(alpha, w, n, r, m)
        with monkeypatch.context() as patch:
            kinds = factor_kinds(patch)
            got = solve_subdiffusion(cfg)
        with monkeypatch.context() as patch:
            per_step_solve_banded(patch)
            want = solve_subdiffusion(cfg)
        assert lo <= got.meta["factorizations"] <= hi
        assert set(kinds) == {"ldlt"}
        scale = float(np.max(np.abs(want.u)))
        assert float(np.max(np.abs(got.u - want.u))) <= rtol * scale
        assert (np.max(got.solve_residuals)
                <= 2.0 * np.max(want.solve_residuals))

    @pytest.mark.parametrize("m", [1, 2, 16])
    def test_non_spd_step_takes_lu_branch(self, monkeypatch, m):
        # w = -1: coef < 0, and shift*I - coef*Lap is indefinite for these
        # tau and h (for M = 1 too: 1/tau < 2|coef|/h^2), so dpttrf reports
        # it and dgttrf factors it: the reference's own LU, to the last bit
        cfg = step_config("0.5", "-1", 16, 1.0, m)
        with monkeypatch.context() as patch:
            kinds = factor_kinds(patch)
            got = solve_subdiffusion(cfg)
        with monkeypatch.context() as patch:
            per_step_solve_banded(patch)
            want = solve_subdiffusion(cfg)
        assert kinds == ["lu"]
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.solve_residuals, want.solve_residuals)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("alpha, w", [("0.5", "1"),
                                          ("0.5 + 0.2*t", "1 + s*t")])
    def test_padded_systems_match_row_by_row_reference(self, alpha, w, m):
        # M = 1 and 2 are padded to 3 rows for the LAPACK wrappers; the
        # dense reference solves the unpadded M x M system
        cfg = step_config(alpha, w, 20, 4.0, m)
        got = solve_subdiffusion(cfg).u
        want = row_by_row_solve(cfg)
        assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))

    @pytest.mark.parametrize("w, r, want", [("1", 1.0, 1), ("1", 4.0, 128),
                                            # w(t, t) and the memory term
                                            # move the pair at every step
                                            ("1 + s*t", 1.0, 128)])
    def test_factorizations_counted(self, npair, w, r, want):
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 128, r), pair=npair,
                        weight=Weight.from_expr(w),
                        forcing="sin(3.141592653589793*x)", initial="0")
        assert solve_subdiffusion(cfg).meta["factorizations"] == want

    @staticmethod
    def reported_info(patch, name, value):
        """Patch the LAPACK routine subdiffusion.<name> to report info = value."""
        routine = getattr(subdiffusion, name)

        def patched(*args, **kwargs):
            *out, _ = routine(*args, **kwargs)
            return (*out, value)

        patch.setattr(subdiffusion, name, patched)

    def test_singular_factor_fails_loudly(self, monkeypatch, npair, unit_weight):
        # dpttrf finds the matrix not positive definite, and dgttrf then
        # finds a zero pivot
        self.reported_info(monkeypatch, "dpttrf", 3)
        self.reported_info(monkeypatch, "dgttrf", 3)
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 16, 4.0), pair=npair,
                        weight=unit_weight, forcing="sin(3.141592653589793*x)",
                        initial="0")
        with pytest.raises(NumericalError,
                           match=r"linear solve failed at step 1 \(t = "):
            solve_subdiffusion(cfg)

    def test_failed_solve_fails_loudly(self, monkeypatch, npair, unit_weight):
        # a nonzero dpttrs info, as for an illegal argument
        self.reported_info(monkeypatch, "dpttrs", -3)
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 16, 4.0), pair=npair,
                        weight=unit_weight, forcing="sin(3.141592653589793*x)",
                        initial="0")
        with pytest.raises(NumericalError,
                           match=r"linear solve failed at step 1 \(t = "):
            solve_subdiffusion(cfg)

    def test_forcing_called_per_block(self, npair, unit_weight):
        # a callable forcing gets x of shape (B, M) and t of shape (B, 1),
        # B <= ROW_BLOCK, once per block of time nodes
        calls = []

        def f(x, t):
            calls.append((np.shape(x), np.shape(t), np.array(t[:, 0])))
            return np.sin(math.pi * x) * t

        n, m = 70, 6
        mesh = Mesh(1.0, n, 4.0)
        cfg = PdeConfig(m=m, mesh=mesh, pair=npair, weight=unit_weight,
                        forcing=f, initial="0")
        got = solve_subdiffusion(cfg)
        block = ROW_BLOCK
        assert len(calls) == -(-(n + 1) // block)
        for xs, ts, _ in calls:
            assert xs[1] == m and 1 <= xs[0] <= block
            assert ts == (xs[0], 1)
        np.testing.assert_array_equal(np.concatenate([c[2] for c in calls]),
                                      mesh.points)
        want = solve_subdiffusion(dataclasses.replace(
            cfg, forcing="sin(3.141592653589793*x) * t"))
        np.testing.assert_allclose(got.u, want.u, rtol=1e-13, atol=1e-15)
        assert got.meta["history_block"] == block
        assert set(got.meta["timings"]) == {"forcing_s", "stepping_s"}

    def test_scalar_forcing_broadcasts(self, npair, unit_weight):
        mesh = Mesh(1.0, 40, 4.0)
        sols = [solve_subdiffusion(PdeConfig(m=5, mesh=mesh, pair=npair,
                                             weight=unit_weight, forcing=f,
                                             initial="0"))
                for f in (lambda x, t: 2.0, "2")]
        assert np.any(sols[0].u != 0.0)
        np.testing.assert_array_equal(sols[0].u, sols[1].u)

    @pytest.mark.parametrize("f", [
        lambda x, t: math.exp(t) * np.sin(math.pi * x),    # scalar t
        lambda x, t: 1.0 if t > 0.5 else 0.0,              # scalar t
        lambda x, t: x.__setitem__(Ellipsis, 0.0),         # writes to x
        lambda x, t: np.ones(x.shape[0]),                  # 1-D, B == m
        lambda x, t: np.ones((2, 3, 4))])                  # no broadcast
    def test_forcing_outside_block_contract_is_validation_error(
            self, npair, unit_weight, f):
        # m = ROW_BLOCK, so a (B,) result would broadcast as a row unchecked
        cfg = PdeConfig(m=ROW_BLOCK, mesh=Mesh(1.0, 40, 4.0),
                        pair=npair, weight=unit_weight, forcing=f, initial="0")
        with pytest.raises(ValidationError, match=r"t of shape \(B, 1\)"):
            solve_subdiffusion(cfg)

    def test_zero_final_state_error_is_absolute(self, npair, unit_weight):
        # the exact state t(1-t) sin(pi x) is 0 at t = 1: no division by 0
        cfg = PdeConfig(m=4, mesh=Mesh(1.0, 8, 4.0), pair=npair,
                        weight=unit_weight, forcing="sin(3.141592653589793*x)",
                        initial="0")
        sol = solve_subdiffusion(cfg)
        err = sol.final_l2_error("t*(1-t)*sin(3.141592653589793*x)")
        assert err == pytest.approx(float(np.sqrt(np.mean(sol.u[-1] ** 2))),
                                    rel=1e-15)

    def test_manufactured_solution_error(self, npair, unit_weight):
        errs = []
        for n, m in ((32, 16), (64, 32)):
            sol = solve_subdiffusion(manufactured_config(npair, unit_weight, n, m))
            errs.append(sol.final_l2_error("t^2 * sin(3.141592653589793 * x)"))
        assert errs[0] <= 5e-2
        assert errs[1] < errs[0]

    def test_variable_exponent_runs_bounded(self, unit_weight):
        pair = KernelPair.make("0.5 + 0.2*t", normalized=True)
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 16, 4.0), pair=pair,
                        weight=Weight.from_expr("1 + s*t"),
                        forcing="sin(3.141592653589793 * x)", initial="0")
        sol = solve_subdiffusion(cfg)
        assert np.all(np.isfinite(sol.u))
        assert float(np.max(np.abs(sol.u))) < 10.0

    def test_instability_detector_names_step(self, npair, unit_weight):
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 16, 4.0), pair=npair,
                        weight=unit_weight, forcing="1e9 * sin(3.141592653589793 * x)",
                        initial="0")
        with pytest.raises(NumericalError, match="step"):
            solve_subdiffusion(cfg)

    def test_nonfinite_forcing_names_step(self, npair, unit_weight):
        # f = inf from t > 1/2 on: the step solve passes it through to the
        # finiteness check (scipy's solve_banded raised a bare ValueError)
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 16, 1.0), pair=npair,
                        weight=unit_weight, initial="0",
                        forcing=lambda x, t: np.where(t > 0.5, np.inf, 0.0) * x)
        with pytest.raises(NumericalError,
                           match=r"non-finite solution at step 9 \(t = 0.5625\)"):
            solve_subdiffusion(cfg)

    def test_bad_weight_rejected(self, npair):
        cfg = PdeConfig(m=8, mesh=Mesh(1.0, 8, 4.0), pair=npair,
                        weight=Weight.from_expr("t - s"),
                        forcing="0", initial="0")
        with pytest.raises(ValidationError):
            solve_subdiffusion(cfg)

    def test_gate_and_mesh_recorded(self, npair, unit_weight):
        # one SonineData across solves: the WSC1 verdict is read, not rerun
        data = SonineData.make(npair, unit_weight)
        sols = [solve_subdiffusion(PdeConfig(
            m=4, mesh=Mesh(1.0, n, r), pair=npair, weight=unit_weight,
            forcing="sin(3.141592653589793*x)", initial="0"), data)
            for n, r in ((8, 4.0), (16, 1.0))]
        assert [s.meta["checks"] for s in sols] == [{"wsc1": "pass"},
                                                    {"wsc1": "cached"}]
        assert [s.meta["mesh"] for s in sols] == [{"n": 8, "r": 4.0},
                                                  {"n": 16, "r": 1.0}]

    def test_solution_csv(self, npair, unit_weight, tmp_path):
        cfg = PdeConfig(m=3, mesh=Mesh(1.0, 4, 4.0), pair=npair,
                        weight=unit_weight, forcing="0", initial="0")
        sol = solve_subdiffusion(cfg)
        path = tmp_path / "pde.csv"
        sol.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,t,u"
        assert len(lines) == 1 + 5 * 3
