import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsonine.errors import DomainError, ValidationError
from wsonine.kernels import (KERNEL_PRESETS, WEIGHT_PRESETS, KernelPair,
                             VarExponent, Weight, gamma, kappa, kernel_preset,
                             licm_check, weight_preset)


class TestGamma:
    @given(st.floats(min_value=0.02, max_value=30.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_stdlib(self, x):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_reflection_branch(self):
        for x in (0.1, 0.25, 0.49):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_vectorized(self):
        x = np.array([0.5, 1.0, 2.5])
        np.testing.assert_allclose(gamma(x), [math.gamma(v) for v in x],
                                   rtol=1e-13)

    def test_kappa_is_pi_over_sin(self):
        for a in (0.3, 0.5, 0.7):
            assert kappa(a) == pytest.approx(math.pi / math.sin(math.pi * a),
                                             rel=1e-13)


class TestVarExponent:
    def test_constant_detection(self):
        assert KernelPair.make("0.5").exponent.is_constant
        assert not KernelPair.make("0.5 + 0.2*t").exponent.is_constant

    def test_alpha_range_enforced(self):
        with pytest.raises(ValidationError):
            VarExponent.from_expr("1.5", b=1.0)
        with pytest.raises(ValidationError):
            VarExponent.from_expr("0.5 + t", b=1.0)  # exits (0,1) before b

    def test_prime(self):
        e = VarExponent.from_expr("0.5 + 0.2*sin(t)", b=1.0)
        assert e.prime(0.3) == pytest.approx(0.2 * math.cos(0.3), rel=1e-12)


class TestKernelPair:
    def test_k_and_K_values(self):
        pair = KernelPair.make("0.5")
        assert pair.k(0.25) == pytest.approx(2.0)
        assert pair.K(0.25) == pytest.approx(2.0 / math.pi)

    def test_domain_errors(self):
        pair = KernelPair.make("0.5")
        with pytest.raises(DomainError):
            pair.k(0.0)
        with pytest.raises(DomainError):
            pair.K(-1.0)

    def test_smooth_factor_limit(self):
        pair = KernelPair.make("0.5 + 0.2*t")
        assert pair.smooth_factor(0.0) == 1.0
        # x^(-0.2x) = exp(-0.2 x ln x) tends to 1 from above as x -> 0+
        assert 1.0 < pair.smooth_factor(1e-8) < 1.001

    def test_smooth_factor_constant_exponent(self):
        pair = KernelPair.make("0.5")
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(pair.smooth_factor(x), np.ones(11))

    def test_normalized_factors(self):
        pair = KernelPair.make("0.5", normalized=True)
        # k(t) = t^(-1/2)/Gamma(1/2), K(t) = t^(-1/2)/Gamma(1/2)
        assert pair.k(0.25) == pytest.approx(2.0 / math.sqrt(math.pi))
        assert pair.assoc_norm == pytest.approx(math.gamma(0.5))
        assert pair.gamma_ratio(0.5) == pytest.approx(1.0)

    def test_gamma_ratio_constant_exponent(self):
        pair = KernelPair.make("0.3", normalized=True)
        x = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(pair.gamma_ratio(x), np.ones(5))
        np.testing.assert_array_equal(pair.gamma_ratio_dx(x), np.zeros(5))
        assert pair.gamma_ratio(0.5) == 1.0 and pair.gamma_ratio_dx(0.5) == 0.0

    def test_gamma_ratio_variable(self):
        pair = KernelPair.make("0.5 + 0.2*t", normalized=True)
        want = math.gamma(0.5) / math.gamma(1.0 - 0.6)
        assert pair.gamma_ratio(0.5) == pytest.approx(want, rel=1e-12)
        # derivative vs finite difference
        h = 1e-6
        fd = (pair.gamma_ratio(0.5 + h) - pair.gamma_ratio(0.5 - h)) / (2 * h)
        assert pair.gamma_ratio_dx(0.5) == pytest.approx(fd, rel=1e-6)

    def test_k_smooth_part_split(self):
        pair = KernelPair.make("0.5 + 0.2*t", normalized=True)
        for t in (0.1, 0.4, 0.9):
            assert t ** (-pair.alpha0) * pair.k_smooth_part(t) == \
                pytest.approx(pair.k(t), rel=1e-13)

    def test_smooth_factor_dt_vs_fd(self):
        pair = KernelPair.make("0.5 + 0.2*sin(t)")
        z = 0.37
        h = 1e-6
        for t in (0.2, 0.6):
            fd = (pair.smooth_factor((t + h) * z) - pair.smooth_factor((t - h) * z)) / (2 * h)
            assert pair.smooth_factor_dt(t, z) == pytest.approx(fd, rel=1e-6)


class TestWeight:
    def test_values_and_derivatives(self):
        w = Weight.from_expr("1 + s*t")
        assert w(0.5, 0.4) == 1.2
        assert w.dt(0.5, 0.4) == 0.5
        assert w.ds(0.5, 0.4) == 0.4

    def test_condition_i_sampling(self):
        assert Weight.from_expr("1 + s*t").condition_i_ok
        assert not Weight.from_expr("t - s").condition_i_ok

    def test_s_only_and_constant(self):
        assert Weight.from_expr("1")(0.3, 0.9) == 1.0
        w = Weight.from_expr("exp(-(t - s))")
        assert w(0.2, 0.7) == pytest.approx(math.exp(-0.5))


class TestPresets:
    def test_kernel_presets_build(self):
        for name in KERNEL_PRESETS:
            pair = kernel_preset(name)
            assert 0.0 < pair.alpha0 < 1.0

    def test_weight_presets_build(self):
        for name in WEIGHT_PRESETS:
            w = weight_preset(name)
            assert w.condition_i_ok

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            kernel_preset("abel-quadratic")
        with pytest.raises(ValidationError):
            weight_preset("w-zero")


class TestLicm:
    def test_power_kernel_passes(self):
        for beta in (0.3, 0.5, 0.9):
            rep = licm_check(lambda t: t ** -beta)
            assert rep.passed, rep.first_violation

    def test_exponential_passes(self):
        assert licm_check(np.exp).passed is False  # exp is increasing
        assert licm_check(lambda t: np.exp(-t)).passed

    def test_shifted_sine_fails(self):
        rep = licm_check(lambda t: 2.0 + np.sin(t))
        assert not rep.passed
        order, _ = rep.first_violation
        assert order >= 1

    def test_grid_size(self):
        rep = licm_check(lambda t: t ** -0.5)
        assert rep.grid_size == 64
        assert rep.max_order == 4
