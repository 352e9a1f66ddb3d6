import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsonine import g2table, sonine, vie
from wsonine.errors import DomainError, NumericalError, ValidationError
from wsonine.expr import as_function, diff_expr, parse_expr
from wsonine.kernels import KernelPair, Weight
from wsonine.quadrature import (DEFAULT_PANEL_LEVELS, MEMORY_PANEL_NODES, Mesh,
                                graded_rows, lag_rule, memory_points,
                                power_conv_rows, split_conv)
from wsonine.g2table import G2_TABLE_MIN_POINTS
from wsonine.sonine import SonineData
from wsonine.vie import (FirstKindProblem, Forcing, NonlocalOdeProblem,
                         SecondKindProblem, construct_csc_associate,
                         manufactured_forcing, max_node_error, node_index,
                         observed_orders, refinement_study,
                         residual_first_kind, snap_to_mesh,
                         solve_first_kind, solve_nonlocal_ode,
                         solve_second_kind, transform_first_kind_K,
                         transform_first_kind_weighted, weighted_l1_error)

GAMMA_3_2 = math.gamma(1.5)


@pytest.fixture(scope="module")
def const_pair():
    return KernelPair.make("0.5", b=1.0)


@pytest.fixture(scope="module")
def bilinear():
    return Weight.from_expr("1 + s*t", b=1.0)


@pytest.fixture(scope="module")
def const_data(const_pair, bilinear):
    return SonineData.make(const_pair, bilinear)


class TestForcing:
    def test_from_expr(self):
        fc = Forcing.from_expr("t^2")
        assert fc.f0 == 0.0
        assert fc.f(0.5) == pytest.approx(0.25)
        assert fc.f_prime(0.3) == pytest.approx(0.6)
        assert not fc.prime_singular_at_zero
        assert not fc.has_prime_split

    def test_constant(self):
        fc = Forcing.constant(2.0)
        assert fc.f0 == 2.0
        assert fc.f(0.7) == 2.0
        assert fc.f_prime(0.7) == 0.0
        np.testing.assert_array_equal(fc.f(np.array([0.1, 0.2])), [2.0, 2.0])


def old_manufactured_integrands(pair, weight, u):
    """The manufactured oracle's f and prime_bulk as they were before the
    lag was formed once, kept as a reference: every factor evaluated by
    itself, u and u' through as_function at the full shape."""
    u_fn = as_function(u)
    up_fn = as_function(diff_expr(parse_expr(u), "t"))

    def oracle(integrand):
        def fn(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape)
            pos = t > 0.0
            out[pos] = graded_rows(integrand, t[pos], DEFAULT_PANEL_LEVELS)
            return out
        return fn

    @oracle
    def f(z, t):
        return np.asarray(weight(t - z, t)) * pair.k(z) * np.asarray(u_fn(t - z))

    @oracle
    def prime_bulk(z, t):
        return pair.k(z) * (
            (np.asarray(weight.ds(t - z, t)) + np.asarray(weight.dt(t - z, t)))
            * np.asarray(u_fn(t - z))
            + np.asarray(weight(t - z, t)) * np.asarray(up_fn(t - z)))

    return f, prime_bulk


class TestManufacturedForcing:
    @pytest.mark.parametrize("u", ["1", "1 + t", "t", "cos(t)"])
    @pytest.mark.parametrize("weight", ["1", "1 + s*t", "exp(-(t - s))"])
    @pytest.mark.parametrize("alpha, normalized", [
        ("0.5", False), ("0.5 + 0.1*t", False), ("0.9 + 0.05*sin(t)", False),
        ("0.3 + 0.4*t^2", True)])
    def test_fused_integrands_match_old_bit_for_bit(self, alpha, normalized,
                                                    weight, u):
        pair = KernelPair.make(alpha, normalized=normalized)
        w = Weight.from_expr(weight)
        fc = manufactured_forcing(pair, w, u)
        old_f, old_bulk = old_manufactured_integrands(pair, w, u)
        t = Mesh(1.0, 16, 4.0).points
        np.testing.assert_array_equal(fc.f(t), old_f(t))
        np.testing.assert_array_equal(fc.prime_bulk(t), old_bulk(t))

    def test_solution_in_t_only(self, const_pair, bilinear):
        with pytest.raises(ValidationError, match="unexpected variables"):
            manufactured_forcing(const_pair, bilinear, "1 + s")

    def test_value_oracle_constant_solution(self, const_pair, bilinear):
        # u = 1, w = 1 + s*t, k = s^(-1/2):
        # f(t) = 2 sqrt(t) + (4/3) t^(5/2)
        fc = manufactured_forcing(const_pair, bilinear, "1")
        for t in (0.25, 0.5, 0.9):
            want = 2 * math.sqrt(t) + (4.0 / 3.0) * t ** 2.5
            assert fc.f(t) == pytest.approx(want, rel=1e-9)
        assert fc.prime_singular_at_zero
        assert fc.has_prime_split and fc.u0 == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_value_oracle_closed_form_near_one(self, alpha):
        # u = 1, w = 1, k = s^(-alpha): f(t) = t^(1-alpha) / (1-alpha)
        fc = manufactured_forcing(KernelPair.make(str(alpha)), Weight.from_expr("1"), "1")
        t = np.array([1e-6, 0.3, 1.0])
        np.testing.assert_allclose(fc.f(t), t ** (1 - alpha) / (1 - alpha), rtol=1e-12)

    def test_prime_matches_fd_of_f(self, const_pair, bilinear):
        fc = manufactured_forcing(const_pair, bilinear, "1 + t")
        h = 1e-6
        for t in (0.3, 0.6):
            fd = (fc.f(t + h) - fc.f(t - h)) / (2 * h)
            assert fc.f_prime(t) == pytest.approx(fd, rel=1e-5)

    def test_zero_start_solution_not_flagged_singular(self, const_pair, bilinear):
        fc = manufactured_forcing(const_pair, bilinear, "t")
        assert not fc.prime_singular_at_zero

    def test_array_calls_match_scalar_calls(self, const_pair, bilinear):
        fc = manufactured_forcing(const_pair, bilinear, "1 + t")
        t = np.array([[0.0, 0.2], [0.5, 0.9]])
        for fn in (fc.f, fc.prime_bulk):
            got = fn(t)
            assert got.shape == t.shape
            np.testing.assert_array_equal(got.ravel(), [fn(v) for v in t.ravel()])
        assert fc.f(0.0) == 0.0
        got = fc.f_prime(t[1])
        np.testing.assert_array_equal(got, [fc.f_prime(v) for v in t[1]])

    def test_prime_rejects_any_point_at_zero(self, const_pair, bilinear):
        fc = manufactured_forcing(const_pair, bilinear, "t")
        with pytest.raises(DomainError):
            fc.f_prime(np.array([0.5, 0.25, 0.0]))
        with pytest.raises(DomainError):
            fc.f_prime(0.0)


class TestSecondKindEngine:
    def test_no_memory_exact(self):
        # d = 1, m = 0: u is just the right-hand side
        mesh = Mesh(1.0, 32)
        prob = SecondKindProblem(d=1.0,
                                 m=lambda y, x: np.zeros_like(np.asarray(y)),
                                 r=mesh.points ** 2)
        rep = solve_second_kind(prob, mesh)
        np.testing.assert_allclose(rep.u, mesh.points ** 2, atol=1e-14)

    def test_constant_memory_exponential(self):
        # u + int_0^t u = 1 has solution u = exp(-t)
        prob = SecondKindProblem(d=1.0,
                                 m=lambda y, x: np.ones_like(np.asarray(y)),
                                 r=1.0)
        errs = []
        for n in (64, 256):
            mesh = Mesh(1.0, n)
            rep = solve_second_kind(prob, mesh)
            errs.append(max_node_error(mesh, rep.u, lambda t: np.exp(-t)))
        assert errs[1] <= 1e-5
        assert errs[1] < errs[0] / 8

    def test_abel_memory_constant_solution(self):
        # u + int (t-y)^(-1/2) u(y) dy = 1 + 2 sqrt(t) has solution u = 1
        mesh = Mesh(1.0, 256, 4.0)
        prob = SecondKindProblem(d=1.0,
                                 m=lambda y, x: x ** -0.5,
                                 r=1.0 + 2.0 * np.sqrt(mesh.points))
        rep = solve_second_kind(prob, mesh)
        assert max_node_error(mesh, rep.u, lambda t: np.ones_like(t)) <= 1e-4

    def test_constant_extension_start(self):
        # non-finite r[0] triggers the constant-extension first step
        mesh = Mesh(1.0, 16)
        r = np.ones(17)
        r[0] = np.inf
        prob = SecondKindProblem(d=1.0,
                                 m=lambda y, x: np.zeros_like(np.asarray(y)),
                                 r=r)
        rep = solve_second_kind(prob, mesh)
        assert rep.u[0] == rep.u[1] == pytest.approx(1.0)

    def test_vanishing_diagonal_raises(self):
        prob = SecondKindProblem(d=0.0,
                                 m=lambda y, x: np.zeros_like(np.asarray(y)),
                                 r=1.0)
        with pytest.raises(NumericalError):
            solve_second_kind(prob, Mesh(1.0, 8))

    @pytest.mark.parametrize("field", ["d", "r"])
    def test_values_off_the_nodes_rejected(self, field):
        # d and r are values on the N + 1 nodes; 16 values for 17 nodes is
        # a ValidationError naming both lengths, not numpy's ValueError
        given = {"d": 1.0, "r": 1.0, field: np.ones(16)}
        prob = SecondKindProblem(m=None, **given)
        with pytest.raises(ValidationError, match=f"{field} has length 16.*17 nodes"):
            solve_second_kind(prob, Mesh(1.0, 16))

    # nonzero coefficients stay far above the subnormal range: a subnormal
    # multiple of r is itself rounded to ~1e-11 relative, and the scaled
    # atol below underflows to 0, so no linear solver could pass there
    COEF = st.one_of(st.just(0.0), st.floats(1e-200, 3.0), st.floats(-3.0, -1e-200))

    @given(n=st.integers(2, 48), grading=st.floats(1.0, 4.0), a=COEF, b=COEF)
    @settings(max_examples=40, deadline=None)
    def test_linear_in_rhs(self, n, grading, a, b):
        # d u + int (t-y)^(-1/2) (1 + y t) u(y) dy = r: u depends linearly on r
        mesh = Mesh(1.0, n, grading)
        t = mesh.points

        def solve(r):
            prob = SecondKindProblem(
                d=1.0 + t,
                m=lambda y, x: x ** -0.5 * (1.0 + y * (y + x)),
                r=r)
            return solve_second_kind(prob, mesh).u

        r1, r2 = 1.0 + np.sin(3.0 * t), np.sqrt(t)
        u1, u2 = solve(r1), solve(r2)
        np.testing.assert_allclose(solve(a * r1 + b * r2), a * u1 + b * u2,
                                   rtol=1e-12, atol=1e-12 * (abs(a) + abs(b)))


    def test_kernel_gets_the_exact_newest_panel_lags(self):
        # m(y, x) receives lag_rule's own lags, down to ~6e-19 tau, which
        # t_i - (t_i - x) would round to 0; N = 40 spans two row blocks
        mesh = Mesh(1.0, 40, 4.0)
        t = mesh.points
        seen = []

        def m(y, x):
            seen.append(np.atleast_1d(x))
            return np.ones_like(y)

        solve_second_kind(SecondKindProblem(d=1.0, m=m, r=1.0), mesh)
        lags = np.concatenate(seen)
        for i in range(1, mesh.n + 1):
            assert np.all(np.isin(lag_rule(t[i] - t[i - 1])[0], lags)), i


class TestMemoryPoints:
    """meta["memory_points"]: the kernel points the memory quadrature
    evaluated, 2 per interior panel and MEMORY_PANEL_NODES per newest one."""

    def test_memory_on_vie1(self):
        prob = FirstKindProblem(KernelPair.make("0.5 + 0.1*t"),
                                Weight.from_expr("1 + s*t"), Forcing.from_expr("t"))
        rep = solve_first_kind(prob, Mesh(1.0, 64, 4.0))
        assert rep.meta["memory_points"] == 64 * 63 + MEMORY_PANEL_NODES * 64 == 5056

    def test_skipped_memory_vie1k(self, const_pair):
        prob = FirstKindProblem(const_pair, Weight.from_expr("1 + s*t"),
                                Forcing.from_expr("t"), variant="K-kernel")
        rep = solve_first_kind(prob, Mesh(1.0, 64, 4.0))
        assert rep.meta["memory_skipped"]
        assert rep.meta["memory_points"] == 0


class TestG2Table:
    """A variable exponent's memory kernel comes from the SonineData's g2
    table once a solve's memory term takes more than G2_TABLE_MIN_POINTS
    points; meta["g2_table"] reports it, None when eval_g2 served alone."""

    @staticmethod
    def problem(weight="1 + s*t"):
        return FirstKindProblem(KernelPair.make("0.5 + 0.1*t"),
                                Weight.from_expr(weight), Forcing.from_expr("t"))

    def test_record_timings_and_reuse(self, monkeypatch):
        prob = self.problem()
        data = SonineData.make(prob.pair, prob.weight)
        small = solve_first_kind(prob, Mesh(1.0, 64, 4.0), data)
        assert memory_points(64) <= G2_TABLE_MIN_POINTS < memory_points(128)
        assert small.meta["g2_table"] is None
        assert set(small.meta["timings"]) == {"rhs_s", "stepping_s"}
        big = solve_first_kind(prob, Mesh(1.0, 128, 4.0), data)
        record = big.meta["g2_table"]
        assert set(record) == {"rank", "table_points", "build_s", "check_error",
                               "exact_points", "fallback", "below_points"}
        assert record["rank"] == 2 and record["fallback"] is None
        assert record["check_error"] <= 1e-12 and record["below_points"] == 0
        assert big.meta["timings"]["g2_table_s"] == record["build_s"]
        # the table exists now, so the small mesh reads it too; no rebuild
        again = solve_first_kind(prob, Mesh(1.0, 64, 4.0), data)
        assert again.meta["g2_table"] == record
        assert set(again.meta["timings"]) == {"rhs_s", "stepping_s"}
        monkeypatch.setattr(g2table, "g2_table", lambda data, points: None)
        exact = solve_first_kind(prob, Mesh(1.0, 128, 4.0))
        assert exact.meta["g2_table"] is None
        np.testing.assert_allclose(big.u, exact.u, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("weight, cap, reason", [
        ("2 + sqrt(1.5 - t)", 8, "weight not evaluable"),
        ("1 + s*t", 1, "rank above 1")])
    def test_fallback_is_bit_identical_to_exact(self, monkeypatch, weight, cap,
                                                reason):
        monkeypatch.setattr(g2table, "G2_TABLE_MAX_RANK", cap)
        prob = self.problem(weight)
        mesh = Mesh(1.0, 128, 4.0)
        rep = solve_first_kind(prob, mesh)
        assert rep.meta["g2_table"]["fallback"].startswith(reason)
        monkeypatch.setattr(g2table, "g2_table", lambda data, points: None)
        exact = solve_first_kind(prob, mesh)
        assert exact.meta["g2_table"] is None
        np.testing.assert_array_equal(rep.u, exact.u)

    def test_k_kernel_variant_reads_the_table_at_s_zero(self, monkeypatch):
        prob = dataclasses.replace(self.problem(), variant="K-kernel")
        mesh = Mesh(1.0, 128, 4.0)
        rep = solve_first_kind(prob, mesh)
        assert rep.meta["g2_table"]["rank"] == 2
        monkeypatch.setattr(g2table, "g2_table", lambda data, points: None)
        exact = solve_first_kind(prob, mesh)
        np.testing.assert_allclose(rep.u, exact.u, rtol=0, atol=1e-13)


class TestMeshHelpers:
    def test_snap_and_index(self):
        mesh = Mesh(1.0, 8)
        assert snap_to_mesh(mesh, 0.49) == 0.5
        assert node_index(mesh, 0.5) == 4
        with pytest.raises(ValidationError):
            node_index(mesh, 0.3)

    def test_weighted_l1_error(self):
        mesh = Mesh(1.0, 4)
        u = mesh.points + 0.0
        assert weighted_l1_error(mesh, u, lambda t: t) == 0.0
        assert weighted_l1_error(mesh, u + 0.1, lambda t: t) > 0.0


class TestFirstKind:
    # the K-kernel problem u = t, f = t^(a0+1) / (a0 (a0+1) kappa(a0)) at
    # a0 = 1/2, w = 1 + s t, r = 4, solved through its second-kind form;
    # max nodal errors with the power at the right end of each row
    K_KERNEL_ERRORS = {64: 9.834622691429207e-05, 128: 2.497172390247826e-05}

    @staticmethod
    def k_kernel_error(data, n):
        scale = 1.0 / (0.5 * 1.5 * math.pi)
        fc = Forcing.from_expr(f"{scale!r}*t^1.5")
        prob = FirstKindProblem(data.pair, data.weight, fc, variant="K-kernel")
        rep = solve_first_kind(prob, Mesh(1.0, n, 4.0), data)
        return float(np.max(np.abs(rep.u - rep.t)))

    @pytest.mark.parametrize("n", list(K_KERNEL_ERRORS),
                             ids=lambda n: f"second-kind-{n}")
    def test_k_kernel_errors_pinned(self, const_data, n):
        err = self.k_kernel_error(const_data, n)
        assert err == pytest.approx(self.K_KERNEL_ERRORS[n], rel=1e-9)

    def test_k_kernel_second_order(self, const_data):
        errs = [self.k_kernel_error(const_data, n) for n in (64, 128, 256, 512)]
        orders = observed_orders(errs)[1:]
        assert min(orders) >= 1.9, orders

    def test_constant_expression_forcing(self, const_pair, bilinear, const_data):
        # f' = 0 evaluates to a scalar; the assembly broadcasts it
        fc = Forcing.from_expr("2")
        prob = FirstKindProblem(const_pair, bilinear, fc, variant="K-kernel")
        rep = solve_first_kind(prob, Mesh(1.0, 16, 4.0), const_data)
        assert np.all(np.isfinite(rep.u))

    def test_transform_rhs_start_value(self, const_pair, bilinear, const_data):
        mesh = Mesh(1.0, 16, 4.0)
        smooth = FirstKindProblem(const_pair, bilinear, Forcing.from_expr("t^2"))
        assert transform_first_kind_weighted(smooth, const_data, mesh).r[0] == 0.0
        sing = FirstKindProblem(const_pair, bilinear,
                                manufactured_forcing(const_pair, bilinear, "1 + t"))
        assert np.isinf(transform_first_kind_weighted(sing, const_data, mesh).r[0])

    def test_weighted_variant_converges(self, const_pair, bilinear, const_data):
        exact = lambda t: 1.0 + t
        fc = manufactured_forcing(const_pair, bilinear, "1 + t")
        prob = FirstKindProblem(const_pair, bilinear, fc)
        errs = []
        for n in (64, 128):
            mesh = Mesh(1.0, n, 4.0)
            rep = solve_first_kind(prob, mesh, const_data)
            errs.append(max_node_error(mesh, rep.u, exact))
        assert errs[-1] <= 1e-3
        assert errs[1] < errs[0]

    def test_weighted_zero_start_second_order(self, bilinear):
        # u = t: u(0) = 0, so f' = prime_bulk is bounded and the right-hand
        # side never evaluates f' at t = 0
        pair = KernelPair.make("0.5 + 0.1*t", b=1.0)
        prob = FirstKindProblem(pair, bilinear, manufactured_forcing(pair, bilinear, "t"))
        data = SonineData.make(pair, bilinear)
        errs = []
        for n in (64, 128, 256):
            mesh = Mesh(1.0, n, 4.0)
            errs.append(max_node_error(mesh, solve_first_kind(prob, mesh, data).u,
                                       lambda t: t))
        assert errs[0] <= 1e-3
        orders = observed_orders(errs)[1:]
        assert min(orders) >= 1.9, orders

    @pytest.mark.parametrize("alpha", ["0.9", "0.9 + 0.05*t"])
    def test_weighted_second_order_near_alpha_one(self, bilinear, alpha):
        # u = 1 + t: the boundary part u(0) k of f' enters as u(0) g(0, t),
        # on the Jacobi rule that absorbs k's singularity exactly
        pair = KernelPair.make(alpha, b=1.0)
        prob = FirstKindProblem(pair, bilinear, manufactured_forcing(pair, bilinear, "1 + t"))
        data = SonineData.make(pair, bilinear)
        errs = []
        for n in (64, 128, 256):
            mesh = Mesh(1.0, n, 4.0)
            errs.append(max_node_error(mesh, solve_first_kind(prob, mesh, data).u,
                                       lambda t: 1.0 + t))
        assert errs[0] <= 1e-3
        orders = observed_orders(errs)[1:]
        assert min(orders) >= 1.9, orders

    def test_residuals_small(self, const_pair, bilinear, const_data):
        fc = manufactured_forcing(const_pair, bilinear, "1 + t")
        prob = FirstKindProblem(const_pair, bilinear, fc)
        mesh = Mesh(1.0, 128, 4.0)
        rep = solve_first_kind(prob, mesh, const_data)
        _, res = residual_first_kind(prob, mesh, rep.u, [0.25, 0.5, 1.0])
        assert np.max(np.abs(res)) <= 1e-3

    def test_bad_weight_rejected(self, const_pair):
        bad = Weight.from_expr("t - s", b=1.0)
        prob = FirstKindProblem(const_pair, bad, Forcing.from_expr("t"))
        with pytest.raises(ValidationError):
            solve_first_kind(prob, Mesh(1.0, 8, 4.0))


class TestWsc1Gate:
    @staticmethod
    def counted_reports(monkeypatch):
        calls = []
        report = vie.wsc1_report

        def counted(*args, **kwargs):
            calls.append(args[0])
            return report(*args, **kwargs)

        monkeypatch.setattr(vie, "wsc1_report", counted)
        return calls

    def test_verdict_kept_on_data(self, monkeypatch, const_pair, bilinear):
        calls = self.counted_reports(monkeypatch)
        data = SonineData.make(const_pair, bilinear)
        assert vie.require_wsc1(data) == "pass"
        assert vie.require_wsc1(data) == "cached"
        assert calls == [data]
        assert data.gate_cache["wsc1"].passed
        # a new SonineData runs its own gate
        assert vie.require_wsc1(SonineData.make(const_pair, bilinear)) == "pass"
        assert len(calls) == 2

    def test_failing_verdict_kept_and_raised_again(self, monkeypatch, const_pair):
        calls = self.counted_reports(monkeypatch)
        bad = SonineData.make(const_pair, Weight.from_expr("t - s", b=1.0))
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError, match="WSC1 validation failed") as exc:
                vie.require_wsc1(bad)
            messages.append(str(exc.value))
        assert len(calls) == 1
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("variant", ["weighted-k", "K-kernel"])
    def test_solve_records_gate_and_mesh(self, monkeypatch, const_pair, bilinear,
                                         variant):
        calls = self.counted_reports(monkeypatch)
        data = SonineData.make(const_pair, bilinear)
        prob = FirstKindProblem(const_pair, bilinear, Forcing.from_expr("t"),
                                variant=variant)
        first = solve_first_kind(prob, Mesh(1.0, 8, 4.0), data)
        second = solve_first_kind(prob, Mesh(1.0, 16, 4.0), data)
        assert first.meta["checks"] == {"wsc1": "pass"}
        assert second.meta["checks"] == {"wsc1": "cached"}
        assert len(calls) == 1
        assert first.meta["mesh"] == {"n": 8, "r": 4.0}
        assert second.meta["mesh"] == {"n": 16, "r": 4.0}
        np.testing.assert_array_equal(
            second.u, solve_first_kind(prob, Mesh(1.0, 16, 4.0)).u)

    def test_nonlocal_ode_records_uniform_mesh(self, const_pair, bilinear):
        # c = 0 accepts a uniform mesh; the record says which one was used
        prob = NonlocalOdeProblem(const_pair, bilinear, Forcing.from_expr("1"))
        rep = solve_nonlocal_ode(prob, Mesh(1.0, 8))
        assert rep.meta["mesh"] == {"n": 8, "r": 1.0}


class TestOracleNodeCache:
    """A forcing computes prime_bulk once per distinct mesh node; values read
    back from its cache are the bits a fresh forcing computes."""

    @staticmethod
    def setting():
        pair = KernelPair.make("0.5 + 0.1*t")
        weight = Weight.from_expr("1 + s*t")
        return pair, weight, SonineData.make(pair, weight)

    @staticmethod
    def solve(pair, weight, data, forcing, mesh):
        return solve_first_kind(FirstKindProblem(pair, weight, forcing), mesh, data)

    def test_nested_meshes_match_fresh_forcings(self):
        pair, weight, data = self.setting()
        shared = manufactured_forcing(pair, weight, "1 + t")
        coarse, fine = Mesh(1.0, 32, 4.0), Mesh(1.0, 64, 4.0)
        records = []
        for mesh in (coarse, fine, fine):
            rep = self.solve(pair, weight, data, shared, mesh)
            fresh = self.solve(pair, weight, data,
                               manufactured_forcing(pair, weight, "1 + t"), mesh)
            np.testing.assert_array_equal(rep.u, fresh.u)
            assert fresh.meta["oracle"] == {"nodes": mesh.n, "reused": 0}
            records.append(rep.meta["oracle"])
        # the coarse nodes are the fine mesh's even nodes, bit for bit
        assert records == [{"nodes": 32, "reused": 0}, {"nodes": 32, "reused": 32},
                           {"nodes": 0, "reused": 64}]
        np.testing.assert_array_equal(shared.node_cache["nodes"], fine.points[1:])
        assert 0.0 <= rep.meta["timings"]["oracle_s"] <= rep.meta["timings"]["rhs_s"]

    def test_other_grading_reuses_only_shared_nodes(self):
        pair, weight, data = self.setting()
        shared = manufactured_forcing(pair, weight, "1 + t")
        first, other = Mesh(1.0, 32, 4.0), Mesh(1.0, 32, 2.0)
        self.solve(pair, weight, data, shared, first)
        rep = self.solve(pair, weight, data, shared, other)
        fresh = self.solve(pair, weight, data,
                           manufactured_forcing(pair, weight, "1 + t"), other)
        np.testing.assert_array_equal(rep.u, fresh.u)
        # (i/32)^4 = (j/32)^2 at i = 8, 16, 24, 32: t = 1/256, 1/16, 0.31640625, 1
        common = np.intersect1d(first.points[1:], other.points[1:])
        assert common.size == 4
        assert rep.meta["oracle"] == {"nodes": 28, "reused": 4}
        assert shared.node_cache["nodes"].size == 60

    def test_blocks_bypass_the_cache(self):
        pair, weight, data = self.setting()
        fc = manufactured_forcing(pair, weight, "1 + t")
        self.solve(pair, weight, data, fc, Mesh(1.0, 16, 4.0))
        nodes, values = fc.node_cache["nodes"], fc.node_cache["values"]
        block = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        fc.f_prime(block)
        fc.prime_bulk(block)
        assert fc.node_cache["nodes"] is nodes and fc.node_cache["values"] is values
        assert nodes.size == 16

    def test_no_split_no_record(self, const_pair, bilinear, const_data):
        for variant in ("weighted-k", "K-kernel"):
            prob = FirstKindProblem(const_pair, bilinear, Forcing.from_expr("t"),
                                    variant=variant)
            rep = solve_first_kind(prob, Mesh(1.0, 8, 4.0), const_data)
            assert rep.meta["oracle"] is None
            assert "oracle_s" not in rep.meta["timings"]


def split_conv_reference(left_factor, right_lag_factor, ti):
    """int_0^ti left(s) right(ti - s) ds by split_conv on the one node ti."""
    return split_conv(left_factor, right_lag_factor, [ti], vie.SPLIT_CONV_LEVELS)[0]


def k_kernel_rhs_reference(problem, mesh):
    """r[1:] of transform_first_kind_K assembled one mesh node at a time:
    psi on row i's lags, or a split quadrature for a singular f'."""
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    t = mesh.points
    psi = lambda s: (np.asarray(weight(np.zeros_like(np.asarray(s, float)), s))
                     * np.asarray(pair.k_smooth_part(s)))
    r = np.zeros(mesh.n + 1)
    w = power_conv_rows(pair.alpha0, t, 0, mesh.n + 1)
    for i in range(1, mesh.n + 1):
        if forcing.prime_singular_at_zero:
            r[i] = split_conv_reference(lambda s: s ** (-pair.alpha0) * psi(s),
                                        forcing.f_prime, t[i])
        else:
            fp = np.broadcast_to(np.asarray(forcing.f_prime(t[: i + 1]), float),
                                 (i + 1,))
            r[i] = w[i, : i + 1] @ (psi(t[i] - t[: i + 1]) * fp)
    r[1:] += forcing.f0 * weight(0.0, t[1:]) * pair.k(t[1:])
    return r[1:]


def weighted_rhs_reference(problem, mesh):
    """r[1:] of transform_first_kind_weighted with the singular parts of f'
    integrated one mesh node at a time."""
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    t = mesh.points
    beta = 1.0 - pair.alpha0
    lag_power = lambda x: x ** (-beta)
    conv = np.zeros(mesh.n + 1)
    if forcing.has_prime_split:
        fb = np.concatenate(([0.0], forcing.prime_bulk(t[1:])))
        conv = power_conv_rows(beta, t, 0, mesh.n + 1) @ fb
    for i in range(1, mesh.n + 1):
        if forcing.has_prime_split:
            conv[i] += forcing.u0 * split_conv_reference(
                lambda s: np.asarray(weight(0.0, s)) * pair.k(s), lag_power, t[i])
        else:
            conv[i] = split_conv_reference(forcing.f_prime, lag_power, t[i])
    return forcing.f0 * pair.K(t[1:]) + conv[1:] / pair.assoc_norm


# f = 1 + sqrt(t): f' = t^(-1/2) / 2 blows up at zero and has no split
SQRT_FORCING = Forcing(lambda t: 1.0 + np.sqrt(t), lambda t: 0.5 / np.sqrt(t), 1.0,
                       prime_singular_at_zero=True)


class TestRightHandSides:
    """The batched right-hand sides equal a per-node assembly; N = 70 spans
    three blocks of quadrature.ROW_BLOCK rows."""

    MESH = Mesh(1.0, 70, 4.0)

    @pytest.mark.parametrize("alpha, forcing", [
        ("0.5", Forcing.from_expr("0.4244131815783876*t^1.5")),
        ("0.5 + 0.1*t", Forcing.from_expr("t + t^2")),
        ("0.5", SQRT_FORCING),
        ("0.5 + 0.1*t", SQRT_FORCING),
    ], ids=["const", "variable", "singular-const", "singular-variable"])
    def test_k_kernel_matches_per_row_reference(self, bilinear, alpha, forcing):
        pair = KernelPair.make(alpha)
        prob = FirstKindProblem(pair, bilinear, forcing, variant="K-kernel")
        got = transform_first_kind_K(prob, SonineData.make(pair, bilinear), self.MESH).r
        np.testing.assert_allclose(got[1:], k_kernel_rhs_reference(prob, self.MESH),
                                   rtol=1e-14, atol=0.0)

    @staticmethod
    def lag_factor_rhs(problem, mesh):
        """r[1:] of transform_first_kind_K with psi always applied to the
        lags of each block, as before a constant psi was taken out."""
        pair, weight, t = problem.pair, problem.weight, mesh.points
        psi = lambda s: (np.asarray(weight(np.zeros_like(np.asarray(s, float)), s))
                         * np.asarray(pair.k_smooth_part(s)))
        fp = np.broadcast_to(np.asarray(problem.forcing.f_prime(t), float), t.shape)
        r = vie.power_conv_apply(pair.alpha0, t, fp, lag_factor=psi)[1:]
        return r + problem.forcing.f0 * weight(0.0, t[1:]) * pair.k(t[1:])

    @pytest.mark.parametrize("alpha, normalized, weight, folded, rtol", [
        ("0.5", False, "1 + 1.1*s*t", True, 0.0),
        ("0.5", False, "2 + s*t", True, 1e-15),
        ("0.45", True, "1 + s*t", True, 1e-15),
        ("0.5", False, "exp(-(t - s))", False, 0.0),
        ("0.5 + 0.1*t", False, "1 + s*t", False, 0.0),
    ], ids=["psi-one", "psi-two", "psi-normalized", "psi-exp", "psi-variable"])
    def test_k_kernel_constant_psi_taken_out(self, monkeypatch, alpha, normalized,
                                             weight, folded, rtol):
        # a constant psi = w(0,s) k_smooth_part(s) makes one product-integration
        # sum without lag factor, times psi unless psi = 1 (then bit for bit);
        # any other psi keeps the lag factor
        pair = KernelPair.make(alpha, normalized=normalized)
        w = Weight.from_expr(weight)
        prob = FirstKindProblem(pair, w, Forcing.from_expr("t + t^1.5"),
                                variant="K-kernel")
        want = self.lag_factor_rhs(prob, self.MESH)
        factors = []
        apply = vie.power_conv_apply
        monkeypatch.setattr(vie, "power_conv_apply", lambda *a, **k: (
            factors.append(k.get("lag_factor")) or apply(*a, **k)))
        got = transform_first_kind_K(prob, SonineData.make(pair, w), self.MESH).r[1:]
        assert len(factors) == 1 and (factors[0] is None) == folded
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

    # the reference integrates the u0 part by split_conv, the transform takes
    # it as u0 g(0, t) on the Jacobi rule; at alpha = 0.9 + 0.05 sin t they
    # part at the 24-node rule's accuracy, 3e-14, so no case goes there
    @pytest.mark.parametrize("alpha, normalized, weight, split", [
        ("0.5 + 0.1*t", False, "1 + s*t", True),
        ("0.5 + 0.1*t", False, "1 + s*t", False),
        ("0.3 + 0.4*t^2", True, "exp(-(t-s))", True),
        ("0.95", False, "1 + s*t", True),
    ], ids=["u0-boundary", "unsplit", "u0-boundary-normalized-exp",
            "u0-boundary-alpha-0.95"])
    def test_weighted_matches_per_row_reference(self, alpha, normalized, weight,
                                                split):
        pair = KernelPair.make(alpha, normalized=normalized)
        weight = Weight.from_expr(weight)
        forcing = (manufactured_forcing(pair, weight, "1 + t") if split
                   else SQRT_FORCING)
        prob = FirstKindProblem(pair, weight, forcing)
        got = transform_first_kind_weighted(prob, SonineData.make(pair, weight),
                                            self.MESH).r
        np.testing.assert_allclose(got[1:], weighted_rhs_reference(prob, self.MESH),
                                   rtol=1e-14, atol=0.0)


def old_constant_forcing(value):
    """Forcing.constant as it was written by hand, kept as a reference."""
    return Forcing(lambda t: np.full_like(np.asarray(t, float), value) if np.ndim(t) else value,
                   lambda t: np.zeros_like(np.asarray(t, float)) if np.ndim(t) else 0.0,
                   float(value))


def two_assemblies_rhs(problem, data, mesh):
    """r of the two first-kind transforms as each assembled it on its own,
    kept as a reference for the one builder both call now."""
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    t = mesh.points
    r = np.empty(mesh.n + 1)
    exact_zero = forcing.f0 == 0.0 and not forcing.prime_singular_at_zero
    r[0] = 0.0 if exact_zero else np.inf
    if problem.variant == "weighted-k":
        beta = 1.0 - pair.alpha0
        if forcing.has_prime_split:
            fb = np.zeros(mesh.n + 1)
            fb[1:], _ = forcing.bulk_on_nodes(t[1:])
            conv = vie.power_conv_apply(beta, t, fb) / pair.assoc_norm
            if forcing.u0 != 0.0:
                conv[1:] += forcing.u0 * sonine.eval_g(data, 0.0, t[1:])
        elif not forcing.prime_singular_at_zero:
            fp = np.broadcast_to(np.asarray(forcing.f_prime(t), float), t.shape)
            conv = vie.power_conv_apply(beta, t, fp) / pair.assoc_norm
        else:
            conv = np.zeros(mesh.n + 1)
            conv[1:] = split_conv(forcing.f_prime, lambda x: x ** (-beta), t[1:],
                                  vie.SPLIT_CONV_LEVELS) / pair.assoc_norm
        r[1:] = forcing.f0 * pair.K(t[1:]) + conv[1:]
        return r
    psi = lambda s: (np.asarray(weight(np.zeros_like(np.asarray(s, float)), s))
                     * np.asarray(pair.k_smooth_part(s)))
    if forcing.prime_singular_at_zero:
        r[1:] = split_conv(lambda s: s ** (-pair.alpha0) * psi(s), forcing.f_prime,
                           t[1:], vie.SPLIT_CONV_LEVELS)
    else:
        fp = np.broadcast_to(np.asarray(forcing.f_prime(t), float), t.shape)
        c = vie._constant_psi(pair, weight)
        if c is None:
            r[1:] = vie.power_conv_apply(pair.alpha0, t, fp, lag_factor=psi)[1:]
        else:
            r[1:] = vie.power_conv_apply(pair.alpha0, t, fp)[1:]
            if c != 1.0:
                r[1:] *= c
    r[1:] += forcing.f0 * weight(0.0, t[1:]) * pair.k(t[1:])
    return r


@functools.lru_cache(maxsize=None)
def grid_data(alpha, normalized, weight):
    """SonineData and the manufactured forcings of u = 1 + t and u = t, made
    once per (kernel, weight) and shared by both variants."""
    pair = KernelPair.make(alpha, normalized=normalized)
    w = Weight.from_expr(weight)
    return (SonineData.make(pair, w),
            [manufactured_forcing(pair, w, u) for u in ("1 + t", "t")])


class TestOneRhsBuilder:
    """Both transforms go through vie._first_kind_rhs; their r, and the u
    solve_first_kind returns, equal the two assemblies they replaced bit
    for bit.  N = 70 spans three blocks of quadrature.ROW_BLOCK rows."""

    @pytest.mark.parametrize("weight", ["1", "1 + s*t", "2 + s*t", "exp(-(t-s))"])
    @pytest.mark.parametrize("alpha, normalized", [
        ("0.5", False), ("0.5 + 0.1*t", False), ("0.3 + 0.4*t^2", True),
        ("0.45", True)], ids=["const", "variable", "variable-normalized",
                              "const-normalized"])
    @pytest.mark.parametrize("variant", ["weighted-k", "K-kernel"])
    def test_r_and_u_equal_two_assemblies(self, variant, alpha, normalized, weight):
        data, manufactured = grid_data(alpha, normalized, weight)
        transform = (transform_first_kind_weighted if variant == "weighted-k"
                     else transform_first_kind_K)
        cases = [(fc, fc) for fc in manufactured] + [
            (Forcing.from_expr("t + t^1.5"),) * 2, (Forcing.from_expr("1 + t^2"),) * 2,
            (SQRT_FORCING,) * 2, (Forcing.constant(1.0), old_constant_forcing(1.0))]
        for n in (24, 70):
            mesh = Mesh(1.0, n, 4.0)
            for forcing, old in cases:
                prob = FirstKindProblem(data.pair, data.weight, forcing, variant)
                if variant == "K-kernel" and forcing.has_prime_split:
                    with pytest.raises(ValidationError):
                        transform(prob, data, mesh)
                    continue
                second = transform(prob, data, mesh)
                want = two_assemblies_rhs(dataclasses.replace(prob, forcing=old),
                                          data, mesh)
                np.testing.assert_array_equal(second.r, want)
                np.testing.assert_array_equal(
                    solve_first_kind(prob, mesh, data).u,
                    solve_second_kind(dataclasses.replace(second, r=want), mesh).u)

    def test_k_kernel_rejects_manufactured_forcing(self, const_pair, bilinear,
                                                   const_data):
        # the manufactured forcing is the weighted-k equation's; the K-kernel
        # right-hand side would solve another equation with it
        for u in ("1 + t", "t"):
            prob = FirstKindProblem(const_pair, bilinear,
                                    manufactured_forcing(const_pair, bilinear, u),
                                    variant="K-kernel")
            with pytest.raises(ValidationError, match="weighted-k"):
                solve_first_kind(prob, Mesh(1.0, 8, 4.0), const_data)


def per_checkpoint_residuals(problem, mesh, u, checkpoints):
    """residual_first_kind as it was, kept as a reference: a snap, a node
    lookup and a forcing call for each checkpoint."""
    pair, weight, forcing = problem.pair, problem.weight, problem.forcing
    pts, res = [], []
    for c in checkpoints:
        tc = snap_to_mesh(mesh, c)
        i = node_index(mesh, tc)
        if i == 0:
            continue
        if problem.variant == "weighted-k":
            w = vie.power_conv_weights(pair.alpha0, mesh, i)
            sgrid = mesh.points[: i + 1]
            phi = (np.asarray(weight(sgrid, tc))
                   * np.asarray(pair.k_smooth_part(tc - sgrid)) * u[: i + 1])
            val = float(np.dot(w, phi))
        else:
            val = vie.conv_with_K(pair, mesh, u, tc)
        pts.append(tc)
        res.append(val - float(forcing.f(tc)))
    return np.asarray(pts), np.asarray(res)


class TestResidualFirstKind:
    @pytest.mark.parametrize("variant", ["weighted-k", "K-kernel"])
    def test_one_forcing_call_equals_per_checkpoint(self, bilinear, variant):
        pair = KernelPair.make("0.5 + 0.1*t")
        forcing = (manufactured_forcing(pair, bilinear, "1 + t")
                   if variant == "weighted-k" else Forcing.from_expr("t + t^1.5"))
        prob = FirstKindProblem(pair, bilinear, forcing, variant)
        mesh = Mesh(1.0, 40, 4.0)
        u = solve_first_kind(prob, mesh).u
        # t = 0 is dropped; 0.3 is not a node
        checkpoints = [0.0, 0.25, 0.3, 0.5, 1.0]
        want = per_checkpoint_residuals(prob, mesh, u, checkpoints)
        calls = []
        f = forcing.f
        counted = dataclasses.replace(
            forcing, f=lambda t: calls.append(np.shape(t)) or f(t))
        pts, res = residual_first_kind(dataclasses.replace(prob, forcing=counted),
                                       mesh, u, checkpoints)
        assert calls == [(4,)]
        np.testing.assert_array_equal(pts, want[0])
        np.testing.assert_array_equal(res, want[1])


def old_ode_route(problem, mesh, data):
    """The nonlocal ODE's former second-kind build, kept as a reference:
    r = c K + int_0^t K(t - y) f(y) dy on the nodes, r_0 infinite for c != 0."""
    pair, t = problem.pair, mesh.points
    f = np.broadcast_to(np.asarray(problem.forcing.f(t), dtype=float), t.shape)
    r = vie.power_conv_apply(1.0 - pair.alpha0, t, f) / pair.assoc_norm
    r[0] = problem.forcing.f0 * 0.0 if problem.c == 0.0 else np.inf
    if problem.c != 0.0:
        r[1:] += problem.c * pair.K(t[1:])
    vie.require_wsc1(data)
    m, g2 = vie._memory(data, mesh)
    return solve_second_kind(SecondKindProblem(problem.weight(t, t), m, r, g2), mesh)


class TestNonlocalOde:
    def test_rhs_is_K_conv_of_constant_forcing(self, const_pair):
        # f = 1, c = 0 is the weighted first-kind data F(0) = 0, F' = 1, so
        # r = int_0^t K(t-s) ds = 2 sqrt(t) / pi for alpha = 1/2
        mesh = Mesh(1.0, 16)
        weight = Weight.from_expr("1")
        prob = FirstKindProblem(const_pair, weight, Forcing(None, lambda t: 1.0, 0.0))
        r = transform_first_kind_weighted(prob, SonineData.make(const_pair, weight),
                                          mesh).r
        np.testing.assert_allclose(
            r[1:], 2.0 * np.sqrt(mesh.points[1:]) / math.pi, rtol=1e-12)

    @pytest.mark.parametrize("weight", ["1", "1 + s*t", "exp(-(t-s))"])
    @pytest.mark.parametrize("alpha, normalized", [
        ("0.5", False), ("0.5", True), ("0.5 + 0.1*t", False),
        ("0.3 + 0.4*t^2", True)])
    def test_first_kind_route_is_bit_identical_to_own_build(self, alpha,
                                                           normalized, weight):
        # through the weighted transform r = c K + conv, the old build had
        # conv + c K (c != 0) or conv alone (c = 0, now 0 K + conv)
        pair = KernelPair.make(alpha, normalized=normalized)
        w = Weight.from_expr(weight)
        data = SonineData.make(pair, w)
        for f, c in (("1 + t", 0.0), ("t^2", 1.0), ("0", 1.0)):
            prob = NonlocalOdeProblem(pair, w, Forcing.from_expr(f), c=c)
            for n in (64, 200):
                mesh = Mesh(1.0, n, 4.0)
                np.testing.assert_array_equal(
                    solve_nonlocal_ode(prob, mesh, data).u,
                    old_ode_route(prob, mesh, data).u, err_msg=f"{f}, {c}, {n}")

    @pytest.mark.parametrize("alpha, weight", [("0.5 + 0.1*t", "1 + s*t"),
                                               ("0.5", "exp(-(t-s))")])
    @pytest.mark.parametrize("exact", ["t", "t^2"])
    def test_manufactured_second_order(self, alpha, weight, exact):
        # f = d/dt int_0^t w(s,t) k(t-s) u(s) ds is the bounded prime_bulk
        # of the first-kind oracle when u(0) = 0, and then c = 0.  For u = t
        # that f behaves like t^(1 - alpha(0)) at zero, and on a uniform
        # mesh u = t converges at order 1 only, with the largest error at
        # t_1 (u = t^2 keeps order 2 there); so the mesh is graded, r = 4
        pair = KernelPair.make(alpha)
        w = Weight.from_expr(weight)
        fc = manufactured_forcing(pair, w, exact)
        # the ODE reads only f
        prob = NonlocalOdeProblem(pair, w, Forcing(fc.prime_bulk, None, 0.0), c=0.0)
        data = SonineData.make(pair, w)
        exact_fn = as_function(exact)
        errs = [max_node_error(mesh, solve_nonlocal_ode(prob, mesh, data).u, exact_fn)
                for mesh in (Mesh(1.0, n, 4.0) for n in (64, 128, 256))]
        orders = observed_orders(errs)[1:]
        assert min(orders) >= 1.9, (errs, orders)

    def test_sqrt_solution_normalized(self):
        # w = 1, normalized kernels, f = Gamma(3/2): exact solution sqrt(t)
        pair = KernelPair.make("0.5", normalized=True)
        prob = NonlocalOdeProblem(pair, Weight.from_expr("1"),
                                  Forcing.constant(GAMMA_3_2), c=0.0)
        mesh = Mesh(1.0, 64, 4.0)
        rep = solve_nonlocal_ode(prob, mesh)
        assert max_node_error(mesh, rep.u, np.sqrt) <= 1e-12

    def test_homogeneous_with_c(self):
        # c = 1, f = 0: exact solution t^(-1/2) / pi
        pair = KernelPair.make("0.5")
        prob = NonlocalOdeProblem(pair, Weight.from_expr("1"),
                                  Forcing.constant(0.0), c=1.0)
        mesh = Mesh(1.0, 64, 4.0)
        rep = solve_nonlocal_ode(prob, mesh)
        t = mesh.points[1:]
        rel = np.abs(rep.u[1:] - t ** -0.5 / math.pi) / (t ** -0.5 / math.pi)
        assert np.max(rel) <= 1e-10

    def test_uniform_mesh_refused_when_c_nonzero(self):
        pair = KernelPair.make("0.5")
        prob = NonlocalOdeProblem(pair, Weight.from_expr("1"),
                                  Forcing.constant(0.0), c=1.0)
        with pytest.raises(ValidationError):
            solve_nonlocal_ode(prob, Mesh(1.0, 16))


class TestMemorySkip:
    """A memory term that is identically 0 is skipped; the solution is the
    one the stepper gives with the zero kernel evaluated."""

    def solve_both(self, monkeypatch, solve):
        skipped = solve()
        monkeypatch.setattr(vie, "g2_vanishes", lambda *args: False)
        evaluated = solve()
        assert skipped.meta["memory_skipped"]
        assert not evaluated.meta["memory_skipped"]
        np.testing.assert_array_equal(skipped.u, evaluated.u)

    def test_k_kernel(self, monkeypatch, const_data):
        scale = 1.0 / (0.5 * 1.5 * math.pi)
        prob = FirstKindProblem(const_data.pair, const_data.weight,
                                Forcing.from_expr(f"{scale!r}*t^1.5"),
                                variant="K-kernel")
        self.solve_both(monkeypatch, lambda: solve_first_kind(
            prob, Mesh(1.0, 64, 4.0), const_data))

    def test_nonlocal_ode_unit_weight(self, monkeypatch):
        pair = KernelPair.make("0.5", normalized=True)
        prob = NonlocalOdeProblem(pair, Weight.from_expr("1"),
                                  Forcing.from_expr("1 + t"), c=0.0)
        self.solve_both(monkeypatch, lambda: solve_nonlocal_ode(
            prob, Mesh(1.0, 64, 4.0)))

    def test_memory_kept_when_g2_lives(self, const_pair, bilinear, const_data):
        # w_t = s does not vanish off s = 0, nor does g2 for a variable exponent
        ode = NonlocalOdeProblem(const_pair, bilinear, Forcing.from_expr("t"))
        rep = solve_nonlocal_ode(ode, Mesh(1.0, 8), const_data)
        assert not rep.meta["memory_skipped"]
        var = KernelPair.make("0.5 + 0.1*t")
        prob = FirstKindProblem(var, Weight.from_expr("1"), Forcing.from_expr("t"),
                                variant="K-kernel")
        assert not solve_first_kind(prob, Mesh(1.0, 8, 4.0)).meta["memory_skipped"]


class TestAssociateConstruction:
    def test_residual_decreases(self, const_data):
        res = [construct_csc_associate(const_data, Mesh(1.0, n, 4.0)).max_csc_residual
               for n in (64, 128)]
        assert res[0] <= 1e-2
        assert res[1] < res[0]

    @pytest.mark.xfail(strict=True, reason=(
        "the hat weights of quadrature.power_conv_rows, (hi*m0 - m1)/h, cancel on "
        "panels much narrower than their lag; the same closed-form moments in "
        "60-digit arithmetic leave a residual of 1.67e-5 here"))
    def test_conv_with_K_exact_associate_fine_graded_mesh(self, const_pair):
        # u = t^(-1/2) is the exact associate of K at alpha = 1/2, so
        # int K(t - s) u(s) ds = 1; the float rows give 0.170 at t ~ 0.25.
        # u(0) is infinite: u[0] = u[1] moves the result by about t_1^(1/2) ~ 1e-6
        mesh = Mesh(1.0, 1024, 4.0)
        t = mesh.points
        u = np.concatenate(([t[1] ** -0.5], t[1:] ** -0.5))
        res = vie.conv_with_K(const_pair, mesh, u, snap_to_mesh(mesh, 0.25)) - 1.0
        assert abs(res) <= 1e-3


class TestReportsAndRefinement:
    def test_solution_csv(self, tmp_path):
        mesh = Mesh(1.0, 4)
        prob = SecondKindProblem(d=1.0,
                                 m=lambda y, x: np.zeros_like(np.asarray(y)),
                                 r=mesh.points)
        rep = solve_second_kind(prob, mesh)
        rep.residual_points = mesh.points[1:]
        rep.residuals = np.zeros(4)
        path = tmp_path / "solution.csv"
        rep.write_solution_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u,residual"
        assert len(lines) == 6

    def test_observed_orders(self):
        assert observed_orders([1e-2, 2.5e-3]) == [None, 2.0]
        assert observed_orders([1e-2]) == [None]
        assert observed_orders([1e-2, 1e-14, 1e-15]) == [None, "exact", "exact"]

    def test_refinement_study_order(self):
        class Fake:
            def __init__(self, n):
                self.n = n

        history, order = refinement_study(lambda mesh: Fake(mesh.n),
                                          Mesh(1.0, 8),
                                          lambda rep: rep.n ** -2.0, 2)
        assert [n for n, _ in history] == [8, 16, 32]
        assert order == pytest.approx(2.0, abs=1e-10)
