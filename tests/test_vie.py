import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsonine.errors import DomainError, NumericalError, ValidationError
from wsonine.kernels import KernelPair, Weight
from wsonine.quadrature import Mesh
from wsonine.sonine import SonineData
from wsonine.vie import (FirstKindProblem, Forcing, NonlocalOdeProblem,
                         SecondKindProblem, construct_csc_associate,
                         manufactured_forcing, max_node_error, node_index,
                         observed_orders, refinement_study,
                         residual_first_kind, rhs_K_conv, snap_to_mesh,
                         solve_first_kind, solve_nonlocal_ode,
                         solve_second_kind, transform_first_kind_weighted,
                         weighted_l1_error)

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


class TestManufacturedForcing:
    def test_value_oracle_constant_solution(self, const_pair, bilinear):
        # u = 1, w = 1 + s*t, k = s^(-1/2):
        # f(t) = 2 sqrt(t) + (4/3) t^(5/2)
        fc = manufactured_forcing(const_pair, bilinear, "1")
        for t in (0.25, 0.5, 0.9):
            want = 2 * math.sqrt(t) + (4.0 / 3.0) * t ** 2.5
            assert fc.f(t) == pytest.approx(want, rel=1e-9)
        assert fc.prime_singular_at_zero
        assert fc.has_prime_split and fc.u0 == 1.0

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
        prob = SecondKindProblem(d=lambda t: 1.0,
                                 m=lambda y, t: np.zeros_like(np.asarray(y)),
                                 r=lambda t: t * t)
        mesh = Mesh(1.0, 32)
        rep = solve_second_kind(prob, mesh)
        np.testing.assert_allclose(rep.u, mesh.points ** 2, atol=1e-14)

    def test_constant_memory_exponential(self):
        # u + int_0^t u = 1 has solution u = exp(-t)
        prob = SecondKindProblem(d=lambda t: 1.0,
                                 m=lambda y, t: np.ones_like(np.asarray(y)),
                                 r=lambda t: 1.0)
        errs = []
        for n in (64, 256):
            mesh = Mesh(1.0, n)
            rep = solve_second_kind(prob, mesh)
            errs.append(max_node_error(mesh, rep.u, lambda t: np.exp(-t)))
        assert errs[1] <= 1e-5
        assert errs[1] < errs[0] / 8

    def test_abel_memory_constant_solution(self):
        # u + int (t-y)^(-1/2) u(y) dy = 1 + 2 sqrt(t) has solution u = 1
        prob = SecondKindProblem(d=lambda t: 1.0,
                                 m=lambda y, t: (t - np.asarray(y)) ** -0.5,
                                 r=lambda t: 1.0 + 2.0 * math.sqrt(t) if t > 0 else 1.0)
        mesh = Mesh(1.0, 256, 4.0)
        rep = solve_second_kind(prob, mesh)
        assert max_node_error(mesh, rep.u, lambda t: np.ones_like(t)) <= 1e-4

    def test_constant_extension_start(self):
        # non-finite r[0] triggers the constant-extension first step
        mesh = Mesh(1.0, 16)
        r = np.ones(17)
        r[0] = np.inf
        prob = SecondKindProblem(d=lambda t: 1.0,
                                 m=lambda y, t: np.zeros_like(np.asarray(y)),
                                 r=r)
        rep = solve_second_kind(prob, mesh)
        assert rep.u[0] == rep.u[1] == pytest.approx(1.0)

    def test_vanishing_diagonal_raises(self):
        prob = SecondKindProblem(d=lambda t: 0.0,
                                 m=lambda y, t: np.zeros_like(np.asarray(y)),
                                 r=lambda t: 1.0)
        with pytest.raises(NumericalError):
            solve_second_kind(prob, Mesh(1.0, 8))

    @given(n=st.integers(2, 48), grading=st.floats(1.0, 4.0),
           a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_linear_in_rhs(self, n, grading, a, b):
        # d u + int (t-y)^(-1/2) (1 + y t) u(y) dy = r: u depends linearly on r
        mesh = Mesh(1.0, n, grading)
        t = mesh.points

        def solve(r):
            prob = SecondKindProblem(
                d=lambda tt: 1.0 + tt,
                m=lambda y, tt: (tt - np.asarray(y)) ** -0.5 * (1.0 + np.asarray(y) * tt),
                r=r)
            return solve_second_kind(prob, mesh).u

        r1, r2 = 1.0 + np.sin(3.0 * t), np.sqrt(t)
        u1, u2 = solve(r1), solve(r2)
        np.testing.assert_allclose(solve(a * r1 + b * r2), a * u1 + b * u2,
                                   rtol=1e-12, atol=1e-12 * (abs(a) + abs(b)))


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

    def test_rhs_K_conv_constant_forcing(self, const_pair):
        # int_0^t K(t-s) ds = 2 sqrt(t) / pi for alpha = 1/2
        mesh = Mesh(1.0, 16)
        r = rhs_K_conv(const_pair, Forcing.constant(1.0), 0.0, mesh)
        np.testing.assert_allclose(
            r[1:], 2.0 * np.sqrt(mesh.points[1:]) / math.pi, rtol=1e-12)


class TestFirstKind:
    # the K-kernel problem u = t, f = t^(a0+1) / (a0 (a0+1) kappa(a0)) at
    # a0 = 1/2, w = 1 + s t, r = 4; max nodal errors of the row-by-row
    # assembly these weights replaced
    K_KERNEL_ERRORS = {("second-kind", 64): 0.0018537076528060137,
                       ("second-kind", 128): 0.0006780720961864217,
                       ("first-kind-g", 64): 0.00018947279552972152,
                       ("first-kind-g", 128): 4.8835301492689e-05}

    @pytest.mark.parametrize("strategy, n", list(K_KERNEL_ERRORS))
    def test_k_kernel_errors_pinned(self, const_pair, bilinear, const_data,
                                    strategy, n):
        scale = 1.0 / (0.5 * 1.5 * math.pi)
        fc = Forcing.from_expr(f"{scale!r}*t^1.5")
        prob = FirstKindProblem(const_pair, bilinear, fc, variant="K-kernel")
        rep = solve_first_kind(prob, Mesh(1.0, n, 4.0), strategy, const_data)
        err = float(np.max(np.abs(rep.u - rep.t)))
        assert err == pytest.approx(self.K_KERNEL_ERRORS[strategy, n], rel=1e-9)

    def test_constant_expression_forcing(self, const_pair, bilinear, const_data):
        # f' = 0 evaluates to a scalar; the assembly broadcasts it
        fc = Forcing.from_expr("2")
        prob = FirstKindProblem(const_pair, bilinear, fc, variant="K-kernel")
        rep = solve_first_kind(prob, Mesh(1.0, 16, 4.0), "second-kind", const_data)
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
            rep = solve_first_kind(prob, mesh, "second-kind", const_data)
            errs.append(max_node_error(mesh, rep.u, exact))
        assert errs[-1] <= 1e-3
        assert errs[1] < errs[0]

    def test_residuals_small(self, const_pair, bilinear, const_data):
        fc = manufactured_forcing(const_pair, bilinear, "1 + t")
        prob = FirstKindProblem(const_pair, bilinear, fc)
        mesh = Mesh(1.0, 128, 4.0)
        rep = solve_first_kind(prob, mesh, "second-kind", const_data)
        _, res = residual_first_kind(prob, mesh, rep.u, [0.25, 0.5, 1.0])
        assert np.max(np.abs(res)) <= 1e-3

    def test_first_kind_g_strategy(self, const_pair, bilinear, const_data):
        fc = manufactured_forcing(const_pair, bilinear, "1 + t")
        prob = FirstKindProblem(const_pair, bilinear, fc)
        mesh = Mesh(1.0, 128, 4.0)
        rep = solve_first_kind(prob, mesh, "first-kind-g", const_data)
        mids = rep.t
        ue = 1.0 + mids
        wl1 = float(np.sum(mesh.tau * np.abs(rep.u - ue))
                    / np.sum(mesh.tau * np.abs(ue)))
        assert wl1 <= 1e-3
        assert rep.meta["strategy"] == "first-kind-g"

    def test_unknown_strategy(self, const_pair, bilinear):
        prob = FirstKindProblem(const_pair, bilinear, Forcing.from_expr("t"))
        with pytest.raises(ValidationError):
            solve_first_kind(prob, Mesh(1.0, 8), "collocation")

    def test_bad_weight_rejected(self, const_pair):
        bad = Weight.from_expr("t - s", b=1.0)
        prob = FirstKindProblem(const_pair, bad, Forcing.from_expr("t"))
        with pytest.raises(ValidationError):
            solve_first_kind(prob, Mesh(1.0, 8, 4.0))


class TestNonlocalOde:
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


class TestAssociateConstruction:
    def test_residual_decreases(self, const_data):
        res = [construct_csc_associate(const_data, Mesh(1.0, n, 4.0)).max_csc_residual
               for n in (64, 128)]
        assert res[0] <= 1e-2
        assert res[1] < res[0]


class TestReportsAndRefinement:
    def test_solution_csv(self, tmp_path):
        mesh = Mesh(1.0, 4)
        prob = SecondKindProblem(d=lambda t: 1.0,
                                 m=lambda y, t: np.zeros_like(np.asarray(y)),
                                 r=lambda t: t)
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
