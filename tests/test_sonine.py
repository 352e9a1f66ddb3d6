import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import special

from wsonine import g2table, sonine
from wsonine.errors import DomainError, UnsupportedConfigurationError
from wsonine.kernels import (KERNEL_PRESETS, WEIGHT_PRESETS, KernelPair, Weight,
                             gamma)
from wsonine.quadrature import Mesh
from wsonine.g2table import (G2_TABLE_CHECK_TOL, G2_TABLE_MIN_POINTS, G2Kernel,
                             g2_table)
from wsonine.sonine import (G2_CHUNK, SMALL_LAG, G_reference, SONINE_JACOBI_N,
                            SonineData, associate_from_wsc2, csc_residual,
                            eval_G, eval_G2, eval_g, eval_g2, g2_vanishes,
                            g_reference, wsc1_report, wsc2_report)

# variable exponents, rising and falling, with alpha(0) across (0,1)
VARIABLE_EXPONENTS = ["0.5 + 0.1*t", "0.5 + 0.2*sin(t)", "0.3 + 0.4*t",
                      "0.9 - 0.5*t", "0.95 - 0.9*t", "0.05 + 0.9*t"]

# w_t = 0.1 / (t - s): g2(0, t) = 0.1 / t and G2(0, t) ~ 1 / t are not
# integrable at t = 0, condition (b)
LOG_WEIGHT = "2 + 0.1*ln(t - s + 1e-300)"


@pytest.fixture(scope="module")
def const_pair():
    return KernelPair.make("0.5", b=1.0)


@pytest.fixture(scope="module")
def var_pair():
    return KernelPair.make("0.5 + 0.2*t", b=1.0)


@pytest.fixture(scope="module")
def bilinear():
    return Weight.from_expr("1 + s*t", b=1.0)


@pytest.fixture(scope="module")
def var_data(var_pair, bilinear):
    return SonineData.make(var_pair, bilinear)


@pytest.fixture(scope="module")
def const_data(const_pair, bilinear):
    return SonineData.make(const_pair, bilinear)


class TestCscResidual:
    def test_constant_exponents_machine_zero(self):
        for a in (0.3, 0.5, 0.7):
            data = SonineData.make(KernelPair.make(str(a)), Weight.from_expr("1"))
            for t in np.arange(0.1, 1.05, 0.1):
                assert csc_residual(data, float(t)) <= 1e-12

    def test_normalized_constant(self):
        data = SonineData.make(KernelPair.make("0.5", normalized=True),
                               Weight.from_expr("1"))
        assert csc_residual(data, 0.5) <= 1e-12

    def test_domain(self, const_data):
        with pytest.raises(DomainError):
            csc_residual(const_data, 0.0)
        with pytest.raises(DomainError):
            csc_residual(const_data, 2.0)
        with pytest.raises(DomainError):
            csc_residual(const_data, [0.5, 0.0])

    def test_array_of_t_matches_scalar_calls(self, const_data):
        ts = [0.1 * k for k in range(1, 11)]
        got = csc_residual(const_data, ts)
        assert got.shape == (10,)
        assert got.tolist() == [csc_residual(const_data, t) for t in ts]
        assert csc_residual(const_data, np.array([[0.2, 0.4]])).shape == (1, 2)

    @pytest.mark.parametrize("alpha", ["0.9", "0.95", "0.99"])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_identities_near_alpha_one(self, alpha, normalized):
        # the references' sliver carries most of k's share as alpha -> 1
        data = SonineData.make(KernelPair.make(alpha, normalized=normalized),
                               Weight.from_expr("1 + s*t"))
        assert csc_residual(data, [0.1 * k for k in range(1, 11)]).max() <= 1e-13
        assert wsc1_report(data).max_residual <= 1e-13
        assert wsc2_report(data).max_residual <= 1e-13


class TestEvalG:
    def test_limit_branch_exact(self, var_data, bilinear):
        for s in (0.0, 0.25, 0.5):
            assert eval_g(var_data, s, 0.0) == float(bilinear(s, s))

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.0, 1.0), alpha=st.sampled_from(["0.5", "0.3 + 0.4*t"]),
           w=st.sampled_from(sorted(WEIGHT_PRESETS.values())))
    def test_diagonal_is_the_weight(self, s, alpha, w):
        # g(s, 0) = w(s, s) for every pair and weight
        weight = Weight.from_expr(w, b=1.0)
        data = SonineData.make(KernelPair.make(alpha, b=1.0), weight)
        assert eval_g(data, s, 0.0) == pytest.approx(float(weight(s, s)),
                                                     rel=1e-12, abs=1e-12)

    def test_continuity_at_zero(self, var_data, bilinear):
        for s in (0.0, 0.25, 0.5):
            assert abs(eval_g(var_data, s, 1e-6) - float(bilinear(s, s))) <= 1e-4

    def test_against_raw_convolution_reference(self, var_data):
        got = eval_g(var_data, 0.2, 0.5)
        ref = g_reference(var_data, 0.2, 0.5)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_closed_form_constant_exponent(self, const_data):
        # for alpha = 1/2 and w = 1 + s*t: g(s,t) = 1 + s^2 + s*t/2
        for s, t in [(0.0, 0.3), (0.2, 0.5), (0.5, 0.4), (0.7, 0.25)]:
            assert eval_g(const_data, s, t) == pytest.approx(
                1 + s * s + s * t / 2, abs=1e-12)

    def test_vectorized(self, const_data):
        s = np.array([0.0, 0.2, 0.4])
        t = np.array([0.3, 0.3, 0.3])
        out = eval_g(const_data, s, t)
        np.testing.assert_allclose(out, 1 + s ** 2 + s * t / 2, atol=1e-12)

    def test_domain(self, var_data):
        with pytest.raises(DomainError):
            eval_g(var_data, 0.8, 0.8)  # s + t > b
        with pytest.raises(DomainError):
            eval_g(var_data, -0.1, 0.5)


class TestEvalG2:
    def test_closed_form_constant_exponent(self, const_data):
        # dg/dt = s/2 for the bilinear weight
        for s, t in [(0.0, 0.3), (0.2, 0.5), (0.5, 0.4)]:
            assert eval_g2(const_data, s, t) == pytest.approx(s / 2, abs=1e-12)

    def test_value_half_at_unit_s(self):
        pair = KernelPair.make("0.5", b=2.0)
        data = SonineData.make(pair, Weight.from_expr("1 + s*t", b=2.0))
        for t in (0.2, 0.5, 0.9):
            assert eval_g2(data, 1.0, t) == pytest.approx(0.5, abs=1e-10)

    def test_matches_fd_of_g(self, var_data):
        rng = np.random.default_rng(42)
        for _ in range(50):
            s = rng.uniform(0.0, 0.5)
            t = rng.uniform(0.1, 1.0 - s - 1e-3)
            h = 1e-5 * max(t, 0.1)
            fd = (eval_g(var_data, s, t + h) - eval_g(var_data, s, t - h)) / (2 * h)
            got = eval_g2(var_data, s, t)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-8), (s, t)

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("alpha", VARIABLE_EXPONENTS)
    def test_rule_size_converged(self, alpha, normalized, bilinear):
        """g and g2 from the fixed-size rule agree with a 96-node rule."""
        pair = KernelPair.make(alpha, b=1.0, normalized=normalized)
        data = SonineData.make(pair, bilinear)
        ref = SonineData.make(pair, bilinear, rule_n=96)
        assert data.rule.n == SONINE_JACOBI_N
        ss, tt = np.meshgrid(np.linspace(0.0, 0.45, 6), np.linspace(0.02, 0.55, 6))
        ss, tt = ss.ravel(), tt.ravel()
        np.testing.assert_allclose(eval_g(data, ss, tt), eval_g(ref, ss, tt),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(eval_g2(data, ss, tt), eval_g2(ref, ss, tt),
                                   rtol=0, atol=1e-10)

    def test_undefined_at_zero(self, var_data):
        with pytest.raises(DomainError):
            eval_g2(var_data, 0.1, 0.0)

    @pytest.mark.parametrize("alpha, normalized", [("0.5", False),
                                                   ("0.5 + 0.2*sin(t)", True)])
    def test_chunked_points_are_bit_identical(self, alpha, normalized, bilinear):
        # more than G2_CHUNK points, the last chunk partial: the same bits as
        # the per-chunk calls concatenated, in the caller's shape
        data = SonineData.make(KernelPair.make(alpha, normalized=normalized),
                               bilinear)
        rng = np.random.default_rng(11)
        n = 2 * G2_CHUNK + 77
        s = rng.uniform(0.0, 0.45, n)
        t = rng.uniform(1e-6, 0.5, n)
        got = eval_g2(data, s, t)
        want = np.concatenate([eval_g2(data, s[a : a + G2_CHUNK], t[a : a + G2_CHUNK])
                               for a in range(0, n, G2_CHUNK)])
        np.testing.assert_array_equal(got, want)
        grid = eval_g2(data, s[: 2 * G2_CHUNK].reshape(8, -1),
                       t[: 2 * G2_CHUNK].reshape(8, -1))
        assert grid.shape == (8, G2_CHUNK // 4)
        np.testing.assert_array_equal(grid.ravel(), got[: 2 * G2_CHUNK])


def unfused_g2(data, s, t):
    """g2 composed from the KernelPair factor methods, one scalar (s, t)."""
    pair, w, rule = data.pair, data.weight, data.rule
    z = rule.nodes
    x = t * z
    sf = pair.smooth_factor(x)
    ratio = pair.gamma_ratio(x)
    a1 = np.asarray(w.dt(s, x + s)) * z * sf * ratio
    dsr = pair.smooth_factor_dt(t, z) * ratio + sf * pair.gamma_ratio_dx(x) * z
    return float((a1 + np.asarray(w(s, x + s)) * dsr) @ rule.weights) / pair.kappa


def closed_form_g2(data, s, lam, e_over_x):
    """The Jacobi sum of g2 with (alpha(0) - alpha(x))/x given in closed form."""
    pair, w, rule = data.pair, data.weight, data.rule
    z = rule.nodes
    x = lam * z
    a = np.asarray(pair.exponent(x))
    ap = np.asarray(pair.exponent.prime(x))
    phi = np.exp((pair.alpha0 - a) * np.log(x))
    d = e_over_x(x) - ap * np.log(x)
    if pair.normalized:
        phi = phi * gamma(1.0 - pair.alpha0) / gamma(1.0 - a)
        d = d + special.digamma(1.0 - a) * ap
    vals = z * phi * (np.asarray(w.dt(s, x + s)) + np.asarray(w(s, x + s)) * d)
    return float(vals @ rule.weights) / pair.kappa


class TestFusedG2:
    @pytest.mark.parametrize("weight", sorted(WEIGHT_PRESETS.values()))
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("alpha", sorted(KERNEL_PRESETS.values()) + ["0.05 + 0.9*t"])
    def test_matches_unfused_factors(self, alpha, normalized, weight):
        data = SonineData.make(KernelPair.make(alpha, normalized=normalized),
                               Weight.from_expr(weight))
        for s in (0.0, 0.2, 0.45):
            for lam in (1e-3, 1e-2, 0.1, 0.5):
                ref = unfused_g2(data, s, lam)
                assert eval_g2(data, s, lam) == pytest.approx(ref, rel=1e-13, abs=0), \
                    (s, lam)

    @pytest.mark.parametrize("weight", sorted(WEIGHT_PRESETS.values()))
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("alpha, e_over_x", [
        ("0.5 + 0.1*t", lambda x: np.full_like(x, -0.1)),
        ("0.5 + 0.2*t", lambda x: np.full_like(x, -0.2)),
        ("0.5 + 0.2*sin(t)", lambda x: -0.2 * np.sinc(x / np.pi)),
    ])
    def test_small_lags_without_cancellation(self, alpha, e_over_x, normalized,
                                             weight):
        data = SonineData.make(KernelPair.make(alpha, normalized=normalized),
                               Weight.from_expr(weight))
        for s in (0.0, 0.3):
            for lam in (1e-12, 1e-9, 1e-6, 1e-3):
                ref = closed_form_g2(data, s, lam, e_over_x)
                assert eval_g2(data, s, lam) == pytest.approx(ref, rel=1e-13, abs=0), \
                    (s, lam)


def g2_all_lane_mean(data, s, t):
    """eval_g2 at 1-D s, t as it was before the 2-point mean of alpha' was
    restricted to the lanes below SMALL_LAG: the mean taken on every lane,
    then kept where x < SMALL_LAG."""
    pair, w, rule = data.pair, data.weight, data.rule
    expo = pair.exponent
    s2 = s[:, None]
    z = rule.nodes[None, :]
    x = t[:, None] * z
    y = x + s2
    a = np.asarray(expo(x))
    ap = np.asarray(expo.prime(x))
    e = pair.alpha0 - a
    log_x = np.log(x)
    phi = np.exp(e * log_x)
    mean_ap = 0.5 * sum(np.asarray(expo.prime(x * c)) for c in sonine._MEAN_NODES)
    d = e / x
    np.copyto(d, -mean_ap, where=x < SMALL_LAG)
    d -= ap * log_x
    if pair.normalized:
        phi *= gamma(1.0 - pair.alpha0) / gamma(1.0 - a)
        d += special.digamma(1.0 - a) * ap
    d *= np.asarray(w(s2, y))
    d += np.asarray(w.dt(s2, y))
    phi *= z
    phi *= d
    return (phi @ rule.weights) / pair.kappa


class TestSmallLagMean:
    @pytest.mark.parametrize("normalized", [False, True])
    def test_small_lanes_only_is_bit_identical(self, normalized, bilinear):
        # lags t z_j on both sides of SMALL_LAG = 1e-3, one eval_g2 chunk
        data = SonineData.make(KernelPair.make("0.5 + 0.2*sin(t)", normalized=normalized),
                               bilinear)
        rng = np.random.default_rng(4)
        t = np.exp(rng.uniform(np.log(1e-6), np.log(0.5), G2_CHUNK - 17))
        s = rng.uniform(0.0, 0.5, t.size)
        x = t[:, None] * data.rule.nodes
        assert np.any(x < SMALL_LAG) and np.any(x >= SMALL_LAG)
        np.testing.assert_array_equal(eval_g2(data, s, t), g2_all_lane_mean(data, s, t))


TABLE_EXPONENTS = ["0.5 + 0.1*t", "0.9 + 0.05*sin(t)", "0.2 + 0.3*t", "0.3 + 0.4*t^2"]
# rank of the g2 table per weight; None: the rank cap makes it fall back
TABLE_WEIGHTS = {"1 + s*t": 2, "exp(-(t - s))": 1, "1 + s^2*t": 2,
                 "2 + sin(3*s*t)": None}


class TestG2Table:
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("weight", list(TABLE_WEIGHTS))
    @pytest.mark.parametrize("alpha", TABLE_EXPONENTS)
    def test_matches_eval_g2_or_falls_back(self, alpha, weight, normalized):
        data = SonineData.make(KernelPair.make(alpha, normalized=normalized),
                               Weight.from_expr(weight))
        table = g2_table(data, G2_TABLE_MIN_POINTS + 1)
        if TABLE_WEIGHTS[weight] is None:
            assert table.fallback == "rank above 8"
            assert table.rank == 0 and table.table_points == 0
            return
        assert table.fallback is None
        assert table.rank == TABLE_WEIGHTS[weight]
        assert table.check_error <= G2_TABLE_CHECK_TOL
        # log-uniform lags from 1e-31 to b - s
        rng = np.random.default_rng(3)
        s = rng.uniform(0.0, data.b, 2000)
        lam = np.exp(rng.uniform(np.log(1e-31), np.log(data.b - s)))
        want = eval_g2(data, s, lam)
        err = np.abs(table(s, lam) - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= G2_TABLE_CHECK_TOL

    def test_built_once_on_demand_from_eval_g2(self, monkeypatch, bilinear):
        data = SonineData.make(KernelPair.make("0.5 + 0.1*t"), bilinear)
        assert data.g2_cache == {}
        assert g2_table(data, G2_TABLE_MIN_POINTS) is None
        points = []
        exact = sonine.eval_g2
        monkeypatch.setattr(sonine, "eval_g2", lambda data, s, t: points.append(
            np.broadcast(s, t).size) or exact(data, s, t))
        table = g2_table(data, G2_TABLE_MIN_POINTS + 1)
        assert table.fallback is None and table.rank == 2
        assert sum(points) == table.exact_points > G2_TABLE_MIN_POINTS
        assert g2_table(data, 0) is table
        assert len(points) == 3      # sample, skeleton rows, held-out check

    def test_none_for_constant_exponents(self, const_data):
        assert g2_table(const_data, 10 ** 9) is None

    def test_weight_not_evaluable_on_the_square(self):
        # s + lam reaches 2b on the square, where 1.5 - t < 0
        data = SonineData.make(KernelPair.make("0.5 + 0.1*t"),
                               Weight.from_expr("2 + sqrt(1.5 - t)"))
        table = g2_table(data, 10 ** 9)
        assert table.fallback.startswith("weight not evaluable on [0, b]^2")
        assert table.rank == 0 and table.check_error is None

    def test_rank_cap(self, monkeypatch, bilinear):
        monkeypatch.setattr(g2table, "G2_TABLE_MAX_RANK", 1)
        data = SonineData.make(KernelPair.make("0.5 + 0.1*t"), bilinear)
        assert g2_table(data, 10 ** 9).fallback == "rank above 1"

    def test_held_out_check(self, monkeypatch, bilinear):
        monkeypatch.setattr(g2table, "G2_TABLE_CHECK_TOL", 0.0)
        data = SonineData.make(KernelPair.make("0.5 + 0.1*t"), bilinear)
        table = g2_table(data, 10 ** 9)
        assert table.fallback.startswith("held-out error")
        assert 0.0 < table.check_error <= 1e-12

    def test_kernel_sends_lags_below_the_table_to_exact(self, bilinear):
        data = SonineData.make(KernelPair.make("0.5 + 0.1*t"), bilinear)
        calls = []

        def exact(s, x):
            calls.append(x.copy())
            return eval_g2(data, s, x)

        kernel = G2Kernel(data, G2_TABLE_MIN_POINTS + 1, exact)
        assert kernel.built and kernel.table.fallback is None
        s = np.full(4, 0.2)
        x = np.array([1e-40, 1e-33, 1e-20, 0.3])
        got = kernel(s, x)
        np.testing.assert_array_equal(calls[0], x[:2])
        np.testing.assert_array_equal(got[:2], eval_g2(data, s[:2], x[:2]))
        np.testing.assert_allclose(got[2:], eval_g2(data, s[2:], x[2:]), rtol=1e-13)
        assert kernel.below_points == 2
        assert kernel.record() == {**kernel.table.summary(), "below_points": 2}
        again = G2Kernel(data, 0, exact)
        assert again.table is kernel.table and not again.built

    def test_kernel_without_table_is_exact(self, const_data, bilinear):
        data = SonineData.make(KernelPair.make("0.5 + 0.1*t"), bilinear)
        for d, points in ((const_data, 10 ** 9), (data, G2_TABLE_MIN_POINTS)):
            kernel = G2Kernel(d, points, lambda s, x: ("exact", s, x))
            assert kernel.table is None and kernel.record() is None
            assert kernel(0.1, 0.2) == ("exact", 0.1, 0.2)

    def test_wsc1_report_does_not_read_the_table(self, var_data):
        data = SonineData.make(var_data.pair, var_data.weight)
        before = wsc1_report(data)
        assert g2_table(data, 10 ** 9).fallback is None
        after = wsc1_report(data)
        assert after.residuals == before.residuals
        assert after.failures == before.failures


class TestG2Vanishes:
    def test_cases(self, const_pair, var_pair, bilinear):
        one = Weight.from_expr("1")
        assert g2_vanishes(const_pair, one)
        assert not g2_vanishes(var_pair, one)
        assert not g2_vanishes(const_pair, bilinear)
        assert g2_vanishes(const_pair, bilinear, 0.0)
        assert not g2_vanishes(const_pair, bilinear, 0.5)
        assert not g2_vanishes(const_pair, Weight.from_expr("exp(-(t - s))"), 0.0)
        # constant subtrees fold; s - s is not simplified, so it stays
        assert g2_vanishes(const_pair, Weight.from_expr("1 + t*(2 - 2)"))
        assert not g2_vanishes(const_pair, Weight.from_expr("1 + t*(s - s)"))

    @given(a0=st.floats(0.1, 0.9), slope=st.sampled_from([0.0, 0.05]),
           normalized=st.booleans(),
           f=st.sampled_from(["s", "sin(s)", "exp(-s)", "s^2"]),
           g=st.sampled_from(["t", "sin(t)", "exp(t)", "t^2", "ln(1 + t)"]),
           c=st.sampled_from([0.0, 0.3]), c_t=st.sampled_from([0.0, 0.5]),
           c_st=st.sampled_from([0.0, 0.4]), at_zero=st.booleans(),
           s=st.floats(0.0, 0.5), lam=st.floats(1e-9, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_predicate_implies_exact_zero(self, a0, slope, normalized, f, g, c,
                                          c_t, c_st, at_zero, s, lam):
        pair = KernelPair.make(f"{a0!r} + {slope!r}*t", normalized=normalized)
        weight = Weight.from_expr(f"1 + {c!r}*{f} + {c_t!r}*{g} + {c_st!r}*{f}*{g}")
        if not g2_vanishes(pair, weight, 0.0 if at_zero else None):
            return
        data = SonineData.make(pair, weight)
        s = 0.0 if at_zero else s
        assert eval_g2(data, s, lam) == 0.0
        lams = lam * np.array([1e-3, 0.5, 1.0])
        np.testing.assert_array_equal(eval_g2(data, np.full(3, s), lams), 0.0)


def looped_G(data, s, t):
    """G and dG/dt at one point (s, t), summed node by node."""
    w, rule = data.weight, data.rule
    wss = float(w(s, s))
    acc_G = acc_G2 = 0.0
    for z, wz in zip(rule.nodes, rule.weights):
        y = t * (1.0 - z) + s
        acc_G += wz * (float(w(s, y)) - wss)
        acc_G2 += wz * (1.0 - z) * float(w.dt(s, y))
    return wss + acc_G / data.pair.kappa, acc_G2 / data.pair.kappa


class TestEvalBigG:
    def test_t_zero_exact(self, const_data, bilinear):
        for s in (0.0, 0.3, 0.9):
            assert eval_G(const_data, s, 0.0) == float(bilinear(s, s))

    def test_closed_form(self, const_data):
        # the order-swapped function agrees with g here: 1 + s^2 + s*t/2
        for s, t in [(0.0, 0.4), (0.25, 0.5), (0.5, 0.4)]:
            assert eval_G(const_data, s, t) == pytest.approx(
                1 + s * s + s * t / 2, abs=1e-10)

    def test_against_reference(self, const_data):
        got = eval_G(const_data, 0.2, 0.5)
        ref = G_reference(const_data, 0.2, 0.5)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_derivative_closed_form(self, const_data):
        # dG/dt = s/2 for w = 1 + s*t at alpha = 1/2
        for s, t in [(0.0, 0.4), (0.25, 0.5), (0.5, 0.5), (0.3, 0.0)]:
            assert eval_G2(const_data, s, t) == pytest.approx(s / 2, abs=1e-12)

    @pytest.mark.parametrize("alpha", ["0.2", "0.5", "0.8"])
    def test_derivative_at_horizon(self, alpha):
        # s + t = b, where a centered difference of G would leave the domain
        pair = KernelPair.make(alpha, b=1.0)
        weight = Weight.from_expr("exp(-(t - s))", b=1.0)
        data = SonineData.make(pair, weight)
        ref_data = SonineData.make(pair, weight, rule_n=200)
        for s, t in [(0.0, 1.0), (0.25, 0.75), (0.6, 0.4)]:
            got = eval_G2(data, s, t)
            ref = eval_G2(ref_data, s, t)
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("weight", ["1 + s*t", "exp(-(t - s))"])
    @pytest.mark.parametrize("alpha", ["0.05", "0.2", "0.5", "0.8", "0.95"])
    def test_sonine_rule_matches_large_rule(self, alpha, weight):
        """G and G2 on the 24-node rule of g agree with a 200-node rule."""
        pair = KernelPair.make(alpha, b=1.0)
        w = Weight.from_expr(weight, b=1.0)
        data = SonineData.make(pair, w)
        ref = SonineData.make(pair, w, rule_n=200)
        ss, tt = np.meshgrid(np.linspace(0.0, 0.5, 6), np.linspace(0.0, 0.5, 6))
        ss, tt = ss.ravel(), tt.ravel()
        np.testing.assert_allclose(eval_G(data, ss, tt), eval_G(ref, ss, tt),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(eval_G2(data, ss, tt), eval_G2(ref, ss, tt),
                                   rtol=0, atol=1e-13)

    def test_arrays_match_node_loop(self, const_pair):
        data = SonineData.make(const_pair, Weight.from_expr("1 + 0.5*sin(3*t)*s"))
        ss = np.array([[0.0, 0.1], [0.3, 0.45]])
        tt = np.array([[0.0, 0.7], [0.2, 0.55]])
        G, G2 = eval_G(data, ss, tt), eval_G2(data, ss, tt)
        assert G.shape == G2.shape == ss.shape
        for idx in np.ndindex(ss.shape):
            ref_G, ref_G2 = looped_G(data, ss[idx], tt[idx])
            assert G[idx] == pytest.approx(ref_G, rel=1e-14, abs=1e-15)
            assert G2[idx] == pytest.approx(ref_G2, rel=1e-14, abs=1e-15)
        # a weight that does not depend on its arguments still broadcasts
        one = SonineData.make(const_pair, Weight.from_expr("1"))
        np.testing.assert_array_equal(eval_G(one, ss, tt), np.ones(ss.shape))
        np.testing.assert_array_equal(eval_G2(one, ss, tt), np.zeros(ss.shape))

    def test_derivative_matches_difference_of_G(self, const_pair):
        data = SonineData.make(const_pair, Weight.from_expr("exp(-(t - s))", b=1.0))
        h = 1e-5
        for s, t in [(0.1, 0.3), (0.2, 0.6)]:
            fd = (eval_G(data, s, t + h) - eval_G(data, s, t - h)) / (2 * h)
            assert eval_G2(data, s, t) == pytest.approx(fd, rel=1e-8)

    def test_variable_exponent_rejected(self, var_data):
        with pytest.raises(UnsupportedConfigurationError):
            eval_G(var_data, 0.1, 0.1)

    def test_domain(self, const_data):
        for fn in (eval_G, eval_G2):
            with pytest.raises(DomainError):
                fn(const_data, 0.6, 0.6)  # s + t > b
            with pytest.raises(DomainError):
                fn(const_data, 0.1, -0.1)


class TestReports:
    def test_wsc1_passes_for_good_data(self, var_data):
        rep = wsc1_report(var_data)
        assert rep.passed
        assert rep.max_residual <= rep.tolerance
        assert rep.failures == []

    def test_wsc1_names_condition_i_violation(self, var_pair):
        bad = Weight.from_expr("t - s", b=1.0)
        rep = wsc1_report(SonineData.make(var_pair, bad))
        assert not rep.passed
        assert any("(i)" in f for f in rep.failures)

    @pytest.mark.parametrize("alpha", ["0.1", "0.2", "0.7", "0.8", "0.9",
                                       "0.9 - 0.5*t"])
    def test_wsc1_passes_far_from_one_half(self, alpha, bilinear):
        """The graded references resolve the k and K singularities for
        alpha(0) near 0 and near 1."""
        rep = wsc1_report(SonineData.make(KernelPair.make(alpha, b=1.0), bilinear))
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("alpha", ["0.5", "0.5 + 0.1*t"])
    def test_wsc1_names_condition_b_for_nonintegrable_g2(self, alpha):
        rep = wsc1_report(SonineData.make(KernelPair.make(alpha, b=1.0),
                                          Weight.from_expr(LOG_WEIGHT, b=1.0)))
        assert not rep.passed
        assert "(b)" in rep.failures

    def test_wsc2_names_condition_b_for_nonintegrable_g2(self, const_pair):
        rep = wsc2_report(SonineData.make(const_pair,
                                          Weight.from_expr(LOG_WEIGHT, b=1.0)))
        assert not rep.passed
        assert "(b)" in rep.failures

    def test_wsc2_passes(self, const_data):
        rep = wsc2_report(const_data)
        assert rep.passed

    @pytest.mark.parametrize("alpha", ["0.2", "0.8"])
    def test_wsc2_passes_far_from_one_half(self, alpha, bilinear):
        rep = wsc2_report(SonineData.make(KernelPair.make(alpha, b=1.0), bilinear))
        assert rep.passed, rep.summary()

    def test_wsc2_rejects_variable_exponent(self, var_data):
        with pytest.raises(UnsupportedConfigurationError):
            wsc2_report(var_data)

    def test_summary_and_csv(self, var_data, tmp_path):
        rep = wsc1_report(var_data)
        assert "WSC1" in rep.summary()
        path = tmp_path / "wsc1.csv"
        rep.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert "residual" in header


class TestAssociateFromWsc2:
    def test_residual_small_and_decreasing(self, const_data):
        res = [associate_from_wsc2(const_data, Mesh(1.0, n, 4.0))
               for n in (64, 128)]
        assert res[0].max_csc_residual <= 1e-2
        assert res[1].max_csc_residual < res[0].max_csc_residual

    def test_rejects_variable_exponent(self, var_data):
        with pytest.raises(UnsupportedConfigurationError):
            associate_from_wsc2(var_data, Mesh(1.0, 32, 4.0))
