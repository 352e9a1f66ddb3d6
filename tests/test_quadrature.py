import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from wsonine.errors import NumericalError, ValidationError
from wsonine.quadrature import (MEMORY_PANEL_LEVELS, MEMORY_PANEL_NODES, Mesh,
                                default_grading, graded_nodes,
                                graded_panel_quad, jacobi_rule, lag_rule,
                                memory_panel_weights, power_conv_matrix,
                                power_conv_weights, power_moment)
from wsonine.sonine import SONINE_JACOBI_N, SONINE_JACOBI_POWER


def beta_fn(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


class TestJacobiRule:
    @pytest.mark.parametrize("alpha0", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n", [1, 4, 16, 32])
    def test_moments_match_beta_oracle(self, alpha0, n):
        """Exactness for z^m, m <= 2n-1: the moment is B(m+1-a0, a0)."""
        rule = jacobi_rule(alpha0, n)
        for m in range(2 * n):
            exact = beta_fn(m + 1 - alpha0, alpha0)
            got = float(np.dot(rule.weights, rule.nodes ** m))
            assert got == pytest.approx(exact, rel=1e-12), (alpha0, n, m)

    def test_half_alpha_linear_moment(self):
        # integral of z against (1-z)^(-1/2) z^(-1/2) is pi/2
        for n in (1, 2, 8):
            rule = jacobi_rule(0.5, n)
            assert rule.integrate(lambda z: z) == pytest.approx(math.pi / 2,
                                                                rel=1e-13)

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(2, 24))
    @settings(max_examples=40, deadline=None)
    def test_structure(self, alpha0, n):
        rule = jacobi_rule(alpha0, n)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 1.0

    @pytest.mark.parametrize("alpha0", [0.3, 0.5, 0.7])
    def test_interlacing(self, alpha0):
        for n in (2, 5, 11):
            a = jacobi_rule(alpha0, n).nodes
            b = jacobi_rule(alpha0, n + 1).nodes
            assert np.all(b[:-1] < a) and np.all(a < b[1:])

    def test_total_mass_is_kappa(self):
        for a in (0.3, 0.5, 0.7):
            rule = jacobi_rule(a, 12)
            assert rule.weights.sum() == pytest.approx(
                math.pi / math.sin(math.pi * a), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValidationError):
            jacobi_rule(1.2, 8)
        with pytest.raises(ValidationError):
            jacobi_rule(0.5, 0)
        with pytest.raises(ValidationError):
            jacobi_rule(0.5, 8, p=0)


class TestSubstitutedJacobiRule:
    """The z = v^p rule at the size SonineData uses for every exponent."""

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_structure_and_moments(self, alpha0):
        rule = jacobi_rule(alpha0, SONINE_JACOBI_N, SONINE_JACOBI_POWER)
        z = rule.nodes
        assert 0.0 < z[0] and z[-1] < 1.0
        assert np.all(np.diff(z) > 0)
        assert np.all(rule.weights > 0)
        for m in range(6):
            exact = beta_fn(m + 1 - alpha0, alpha0)
            got = float(np.dot(rule.weights, z ** m))
            assert got == pytest.approx(exact, rel=1e-12), m
        # the z^m log z terms a variable exponent brings in
        for m in range(1, 4):
            exact = beta_fn(m + 1 - alpha0, alpha0) * (
                digamma(m + 1 - alpha0) - digamma(m + 1))
            got = float(np.dot(rule.weights, z ** m * np.log(z)))
            assert got == pytest.approx(exact, rel=1e-9), m


class TestMesh:
    def test_graded_points(self):
        mesh = Mesh(2.0, 4, 2.0)
        np.testing.assert_allclose(mesh.points,
                                   2.0 * (np.arange(5) / 4.0) ** 2)
        assert not mesh.is_uniform
        assert Mesh(1.0, 8).is_uniform

    def test_refined(self):
        assert Mesh(1.0, 8, 2.0).refined().n == 16

    def test_validation(self):
        with pytest.raises(ValidationError):
            Mesh(1.0, 0)
        with pytest.raises(ValidationError):
            Mesh(1.0, 8, 0.5)

    def test_default_grading(self):
        assert default_grading(0.5) == 4.0
        assert default_grading(0.9) == pytest.approx(2.0 / 0.9)


class TestPowerConvWeights:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("end", ["right", "left"])
    def test_row_sum_identity(self, beta, end):
        mesh = Mesh(1.0, 32, 2.0)
        for i in (1, 7, 32):
            w = power_conv_weights(beta, mesh, i, end)
            assert w.sum() == pytest.approx(power_moment(beta, mesh.points[i]),
                                            rel=1e-13, abs=1e-13)

    def test_exact_on_linear(self):
        # phi(s) = s against (t-s)^(-1/2): exact value B(2, 1/2) t^(3/2)
        mesh = Mesh(1.0, 16)
        i = 16
        w = power_conv_weights(0.5, mesh, i, "right")
        got = float(np.dot(w, mesh.points))
        assert got == pytest.approx(beta_fn(2, 0.5), rel=1e-13)

    def test_left_exact_on_linear(self):
        mesh = Mesh(1.0, 16)
        w = power_conv_weights(0.5, mesh, 16, "left")
        got = float(np.dot(w, mesh.points))
        assert got == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_validation(self):
        mesh = Mesh(1.0, 8)
        with pytest.raises(ValidationError):
            power_conv_weights(1.5, mesh, 4)
        with pytest.raises(ValidationError):
            power_conv_weights(0.5, mesh, 0)
        with pytest.raises(ValidationError):
            power_conv_weights(0.5, mesh, 4, "middle")


class TestPowerConvMatrix:
    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.05, 0.95), r=st.floats(1.0, 4.0),
           n=st.integers(2, 64), end=st.sampled_from(["right", "left"]))
    def test_rows_are_the_row_weights(self, beta, r, n, end):
        mesh = Mesh(1.0, n, r)
        w = power_conv_matrix(beta, mesh, end)
        assert w.shape == (n + 1, n + 1)
        assert not np.any(w[0])
        assert not np.any(np.triu(w, 1))
        for i in range(1, n + 1):
            np.testing.assert_allclose(w[i, : i + 1],
                                       power_conv_weights(beta, mesh, i, end),
                                       rtol=1e-14, atol=0.0)
        sums = np.array([power_moment(beta, ti) for ti in mesh.points[1:]])
        np.testing.assert_allclose(w[1:].sum(axis=1), sums, rtol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.05, 0.95), r=st.floats(1.0, 4.0),
           n=st.integers(2, 64))
    def test_derivative_form_exact_on_linear_data(self, beta, r, n):
        # d/dt int_0^t (t-s)^(-beta) (a + b s) ds
        #   = a t^(-beta) + b t^(1-beta) / (1-beta)
        mesh = Mesh(1.0, n, r)
        t = mesh.points
        w = power_conv_matrix(beta, mesh, "right", derivative=True)
        assert not np.any(w[0])
        assert not np.any(np.triu(w, 1))
        np.testing.assert_allclose(w[1:] @ np.ones(n + 1), t[1:] ** -beta,
                                   rtol=1e-11)
        np.testing.assert_allclose(w[1:] @ t, t[1:] ** (1.0 - beta) / (1.0 - beta),
                                   rtol=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.05, 0.95), r=st.floats(1.0, 4.0),
           n=st.integers(1, 64))
    def test_exact_on_linear_data_at_both_ends(self, beta, r, n):
        # int_0^t (t-s)^(-beta) s ds = t^(2-beta) / ((1-beta)(2-beta)),
        # int_0^t s^(-beta) s ds = t^(2-beta) / (2-beta)
        mesh = Mesh(1.0, n, r)
        t = mesh.points
        top = t[1:] ** (2.0 - beta) / (2.0 - beta)
        np.testing.assert_allclose((power_conv_matrix(beta, mesh, "right") @ t)[1:],
                                   top / (1.0 - beta), rtol=1e-12)
        np.testing.assert_allclose((power_conv_matrix(beta, mesh, "left") @ t)[1:],
                                   top, rtol=1e-12)

    def test_validation(self):
        mesh = Mesh(1.0, 8)
        with pytest.raises(ValidationError):
            power_conv_matrix(1.5, mesh)
        with pytest.raises(ValidationError):
            power_conv_matrix(0.5, mesh, "middle")
        with pytest.raises(ValidationError):
            power_conv_matrix(0.5, mesh, "left", derivative=True)


class TestLagRule:
    @pytest.mark.parametrize("tau", [1.0, 0.37, 1e-7])
    def test_scaled_unit_rule_matches_direct_build(self, tau):
        xs, xw = lag_rule(tau)
        want_x, want_w = graded_nodes(0.0, tau, "left", MEMORY_PANEL_LEVELS,
                                      MEMORY_PANEL_NODES)
        np.testing.assert_allclose(xs, want_x, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(xw, want_w, rtol=1e-14, atol=0.0)
        assert xw.sum() == pytest.approx(tau, rel=1e-14)


class TestMemoryPanelWeights:
    @pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
    def test_exact_on_cubic_integrand(self, r):
        # m(y, x) = y x and u = t: int_0^t y (t - y) y dy = t^4 / 12
        t = Mesh(1.0, 24, r).points
        for i in range(1, len(t)):
            m0, m1 = memory_panel_weights(lambda y, x: y * x, t, i)
            assert m0.shape == m1.shape == (i,)
            got = m0 @ t[:i] + m1 @ t[1 : i + 1]
            assert got == pytest.approx(t[i] ** 4 / 12, rel=1e-13, abs=0.0)

    def test_newest_panel_gets_the_exact_lag(self):
        t = Mesh(1.0, 16, 4.0).points
        for i in (1, 2, 9, 16):
            calls = []
            memory_panel_weights(lambda y, x: calls.append((y, x)) or np.ones_like(y),
                                 t, i)
            (y, x), = calls
            xs, _ = lag_rule(t[i] - t[i - 1])
            assert np.array_equal(x[-len(xs):], xs)
            assert np.array_equal(y[-len(xs):], t[i] - xs)

    def test_nonfinite_newest_panel_rejected(self):
        t = Mesh(1.0, 4).points
        with pytest.raises(NumericalError):
            memory_panel_weights(lambda y, x: np.full_like(y, np.inf), t, 2)


class TestGradedPanelQuad:
    def test_log_singularity(self):
        got = graded_panel_quad(np.log, 0.0, 1.0, "left", levels=40)
        assert got == pytest.approx(-1.0, abs=1e-10)

    def test_inverse_sqrt(self):
        got = graded_panel_quad(lambda z: z ** -0.5, 0.0, 1.0, "left")
        assert got == pytest.approx(2.0, abs=1e-8)

    def test_right_singularity(self):
        got = graded_panel_quad(lambda z: (1.0 - z) ** -0.5, 0.0, 1.0, "right")
        assert got == pytest.approx(2.0, abs=1e-6)

    def test_smooth_integrand(self):
        got = graded_panel_quad(np.sin, 0.0, math.pi, "left")
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_shifted_interval(self):
        got = graded_panel_quad(lambda z: (z - 2.0) ** -0.5, 2.0, 3.0, "left")
        assert got == pytest.approx(2.0, abs=1e-6)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(NumericalError):
            graded_panel_quad(lambda z: np.where(z > 0.5, np.inf, 1.0),
                              0.0, 1.0, "left")

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            graded_panel_quad(np.sin, 1.0, 1.0, "left")
