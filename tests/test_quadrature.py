import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from wsonine.errors import NumericalError, ValidationError
from wsonine.kernels import KernelPair, Weight
from wsonine.quadrature import (DEFAULT_PANEL_NODES, GRADED_ROWS_POINTS,
                                MEMORY_PANEL_NODES, ROW_BLOCK, SLIVER_SPREAD,
                                Mesh, default_grading, graded_nodes,
                                graded_panel_quad, graded_rows, jacobi_rule,
                                lag_rule, memory_panel_weights,
                                power_conv_apply, power_conv_rows,
                                power_conv_weights, split_conv)
from wsonine.sonine import (SONINE_JACOBI_N, SONINE_JACOBI_POWER, SonineData,
                            eval_g2)


def power_moment(beta, upper):
    """int_0^T s^(-beta) ds, the row sum of the product-integration weights."""
    return upper ** (1.0 - beta) / (1.0 - beta)


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


def conv_row_reference(beta, t, i, derivative=False):
    """Row i of power_conv_rows, one row at a time with the same arithmetic
    (the loop the blocked builder replaced)."""
    ti = t[i]
    lo, hi = t[:i], t[1 : i + 1]
    h = hi - lo
    lag = ti - t[: i + 1]
    p1 = lag ** (1.0 - beta)
    m0 = (p1[:-1] - p1[1:]) / (1.0 - beta)
    out = np.zeros(i + 1)
    if derivative:
        out[0] = ti ** -beta
        out[:i] -= m0 / h
        out[1:] += m0 / h
        return out
    p2 = lag ** (2.0 - beta)
    m1 = ti * m0 - (p2[:-1] - p2[1:]) / (2.0 - beta)
    out[:i] += (hi * m0 - m1) / h
    out[1:] += (m1 - lo * m0) / h
    return out


def left_end_row(beta, t, i):
    """Weights w_j with sum_j w_j phi(t_j) = int_0^{t_i} s^(-beta) phihat(s) ds:
    s = t_i - sigma turns this into the right-end row on the reflected
    nodes t_i - t_{i-k}, with the data reversed."""
    reflected = t[i] - t[i::-1]
    return power_conv_rows(beta, reflected, i, i + 1)[0][::-1]


class TestPowerConvWeights:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("end", ["right", "left"])
    def test_row_sum_identity(self, beta, end):
        mesh = Mesh(1.0, 32, 2.0)
        for i in (1, 7, 32):
            if end == "right":
                w = power_conv_weights(beta, mesh, i)
            else:
                w = left_end_row(beta, mesh.points, i)
            assert w.sum() == pytest.approx(power_moment(beta, mesh.points[i]),
                                            rel=1e-13, abs=1e-13)

    def test_exact_on_linear(self):
        # phi(s) = s against (t-s)^(-1/2): exact value B(2, 1/2) t^(3/2)
        mesh = Mesh(1.0, 16)
        i = 16
        w = power_conv_weights(0.5, mesh, i)
        got = float(np.dot(w, mesh.points))
        assert got == pytest.approx(beta_fn(2, 0.5), rel=1e-13)

    def test_left_exact_on_linear(self):
        mesh = Mesh(1.0, 16)
        w = left_end_row(0.5, mesh.points, 16)
        got = float(np.dot(w, mesh.points))
        assert got == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_validation(self):
        mesh = Mesh(1.0, 8)
        with pytest.raises(ValidationError):
            power_conv_weights(1.5, mesh, 4)
        with pytest.raises(ValidationError):
            power_conv_weights(0.5, mesh, 0)
        with pytest.raises(ValidationError):
            power_conv_weights(0.5, mesh, 9)


class TestPowerConvMatrix:
    """The lower-triangular matrix W that power_conv_rows builds in blocks."""

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.05, 0.95), r=st.floats(1.0, 4.0),
           n=st.integers(2, 64), derivative=st.booleans(), data=st.data())
    def test_rows_are_the_row_weights(self, beta, r, n, derivative, data):
        # any block a..b-1 is exactly those rows of the (0, N+1) build, and
        # every row has the bits of the one-row loop
        mesh = Mesh(1.0, n, r)
        t = mesh.points
        w = power_conv_rows(beta, t, 0, n + 1, derivative)
        assert w.shape == (n + 1, n + 1)
        assert not np.any(w[0])
        assert not np.any(np.triu(w, 1))
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a + 1, n + 1))
        block = power_conv_rows(beta, t, a, b, derivative)
        assert block.shape == (b - a, b)
        np.testing.assert_array_equal(block, w[a:b, :b])
        for i in range(1, n + 1):
            np.testing.assert_array_equal(w[i, : i + 1],
                                          conv_row_reference(beta, t, i, derivative))
        if derivative:
            return
        for i in range(1, n + 1):
            np.testing.assert_array_equal(w[i, : i + 1],
                                          power_conv_weights(beta, mesh, i))
        sums = np.array([power_moment(beta, ti) for ti in t[1:]])
        np.testing.assert_allclose(w[1:].sum(axis=1), sums, rtol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.05, 0.95), r=st.floats(1.0, 4.0),
           n=st.integers(2, 64))
    def test_derivative_form_exact_on_linear_data(self, beta, r, n):
        # d/dt int_0^t (t-s)^(-beta) (a + b s) ds
        #   = a t^(-beta) + b t^(1-beta) / (1-beta)
        mesh = Mesh(1.0, n, r)
        t = mesh.points
        w = power_conv_rows(beta, t, 0, n + 1, derivative=True)
        np.testing.assert_allclose(w[1:] @ np.ones(n + 1), t[1:] ** -beta,
                                   rtol=1e-11)
        np.testing.assert_allclose(w[1:] @ t, t[1:] ** (1.0 - beta) / (1.0 - beta),
                                   rtol=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.05, 0.95), r=st.floats(1.0, 4.0),
           n=st.integers(1, 64))
    def test_exact_on_linear_data_at_both_ends(self, beta, r, n):
        # int_0^t (t-s)^(-beta) s ds = t^(2-beta) / ((1-beta)(2-beta)),
        # int_0^t s^(-beta) s ds = t^(2-beta) / (2-beta), the left end on
        # reflected nodes
        mesh = Mesh(1.0, n, r)
        t = mesh.points
        top = t[1:] ** (2.0 - beta) / (2.0 - beta)
        np.testing.assert_allclose(power_conv_apply(beta, t, t)[1:],
                                   top / (1.0 - beta), rtol=1e-12)
        left = [left_end_row(beta, t, i) @ t[: i + 1] for i in range(1, n + 1)]
        np.testing.assert_allclose(left, top, rtol=1e-12)

    @pytest.mark.parametrize("n", [5, ROW_BLOCK, 2 * ROW_BLOCK + 3])
    def test_apply_matches_the_full_build(self, n):
        # blocks of ROW_BLOCK rows, the last one partial, with and without a
        # factor on the clipped lags
        t = Mesh(1.0, n, 3.0).points
        v = np.cos(7.0 * t)
        psi = lambda lag: 1.0 + lag * np.exp(-lag)
        w = power_conv_rows(0.4, t, 0, n + 1)
        lag = np.maximum(t[:, None] - t[None, :], 0.0)
        np.testing.assert_allclose(power_conv_apply(0.4, t, v), w @ v,
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(power_conv_apply(0.4, t, v, lag_factor=psi),
                                   (w * psi(lag)) @ v, rtol=1e-14, atol=1e-15)

    def test_validation(self):
        t = Mesh(1.0, 8).points
        with pytest.raises(ValidationError):
            power_conv_rows(1.5, t, 0, 9)
        with pytest.raises(ValidationError):
            power_conv_rows(0.0, t, 0, 9, derivative=True)
        for a, b in [(-1, 4), (4, 4), (5, 4), (0, 10)]:
            with pytest.raises(ValidationError):
                power_conv_rows(0.5, t, a, b)


def lag_closed_forms(tau):
    """(integrand, int_0^tau integrand dx) pairs with a log or power
    singularity at x = 0."""
    ln = math.log(tau)
    return [
        (np.ones_like, tau),
        (lambda x: x ** 3, tau ** 4 / 4),
        (np.log, tau * ln - tau),
        (lambda x: x * np.log(x), tau * tau * ln / 2 - tau * tau / 4),
        (lambda x: x * np.log(x) ** 2, tau * tau * (ln * ln - ln + 0.5) / 2),
        (lambda x: x ** -0.5, 2.0 * math.sqrt(tau)),
    ]


class TestLagRule:
    @pytest.mark.parametrize("tau", [1.0, 0.37, 1e-7])
    @pytest.mark.parametrize("k", range(6))
    def test_closed_forms(self, tau, k):
        fn, want = lag_closed_forms(tau)[k]
        xs, xw = lag_rule(tau)
        assert xs.shape == xw.shape == (MEMORY_PANEL_NODES,)
        assert 0.0 < xs.min() and xs.max() < tau
        assert float(np.dot(xw, fn(xs))) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", ["0.5", "0.5 + 0.1*t", "0.5 + 0.2*sin(t)",
                                       "0.3 + 0.4*t", "0.05 + 0.9*t",
                                       "0.95 - 0.9*t"])
    def test_newest_panel_of_g2_against_fine_rule(self, alpha):
        # the newest panel's (m0, m1) for m = g2 against 80-node
        # Gauss-Legendre in x = tau v^10, on panels of the N = 64..1024 meshes
        g, gw = np.polynomial.legendre.leggauss(80)
        v = 0.5 * (g + 1.0)
        fine = (v ** 10, 5.0 * v ** 9 * gw)

        def moments(data, ti, tau, rule):
            xs, xw = tau * rule[0], tau * rule[1]
            vals = xw * eval_g2(data, ti - xs, xs)
            return np.array([vals @ (xs / tau), vals @ (1.0 - xs / tau)])

        worst = 0.0
        for w in ("1 + s*t", "1 + 0.5*s*t", "exp(-(t - s))"):
            for normalized in (False, True):
                data = SonineData.make(KernelPair.make(alpha, normalized=normalized),
                                       Weight.from_expr(w))
                for r in (1.0, 2.0, 4.0):
                    for n in (64, 128, 256, 512, 1024):
                        t = Mesh(1.0, n, r).points
                        for i in (1, 2, 3, n // 2, n):
                            tau = t[i] - t[i - 1]
                            got = moments(data, t[i], tau, lag_rule(1.0))
                            want = moments(data, t[i], tau, fine)
                            worst = max(worst, np.max(np.abs(got - want))
                                        / np.max(np.abs(want)))
        assert worst <= 1e-13


def memory_row_reference(m, t, i):
    """Row i of memory_panel_weights as the per-row builder made it: arrays
    m0, m1 of length i from one m call on the row's nodes."""
    ti = t[i]
    gx, gw = np.polynomial.legendre.leggauss(2)
    lo, hi = t[: i - 1], t[1:i]
    half = 0.5 * (hi - lo)
    ys = 0.5 * (hi + lo)[:, None] + half[:, None] * gx[None, :]
    xs, xw = lag_rule(ti - t[i - 1])
    vals = np.asarray(m(np.concatenate((ys.ravel(), ti - xs)),
                        np.concatenate(((ti - ys).ravel(), xs))), dtype=float)
    newest = vals[ys.size:]
    interior = vals[: ys.size].reshape(ys.shape) * (half[:, None] * gw[None, :])
    frac = (ys - lo[:, None]) / (hi - lo)[:, None]
    newest = xw * newest
    frac_last = xs / (ti - t[i - 1])
    m0 = np.append(np.sum(interior * (1.0 - frac), axis=1), np.dot(newest, frac_last))
    m1 = np.append(np.sum(interior * frac, axis=1), np.dot(newest, 1.0 - frac_last))
    return m0, m1


class TestMemoryPanelWeights:
    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(1.0, 4.0), n=st.integers(1, 80), data=st.data())
    def test_blocks_are_the_per_row_reference(self, r, n, data):
        # any block a..b-1 has the bits of the per-row builder, from one
        # kernel call on the nodes of all its rows
        t = Mesh(1.0, n, r).points
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a + 1, n + 1))
        calls = []

        def m(y, x):
            calls.append(y.size)
            return np.exp(-y) * x ** -0.5 * (1.0 + y * x) + np.log(x)

        w0, w1 = memory_panel_weights(m, t, a, b)
        assert w0.shape == w1.shape == (b - a, b - 1)
        assert len(calls) == (b > 1)
        for i in range(a, b):
            m0, m1 = memory_row_reference(m, t, i) if i else ([], [])
            np.testing.assert_array_equal(w0[i - a, :i], m0)
            np.testing.assert_array_equal(w1[i - a, :i], m1)
            assert not np.any(w0[i - a, i:]) and not np.any(w1[i - a, i:])

    @pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
    def test_exact_on_cubic_integrand(self, r):
        # m(y, x) = y x and u = t: int_0^t y (t - y) y dy = t^4 / 12
        t = Mesh(1.0, 24, r).points
        w0, w1 = memory_panel_weights(lambda y, x: y * x, t, 0, len(t))
        for i in range(1, len(t)):
            got = w0[i, :i] @ t[:i] + w1[i, :i] @ t[1 : i + 1]
            assert got == pytest.approx(t[i] ** 4 / 12, rel=1e-13, abs=0.0)

    def test_newest_panel_gets_the_exact_lag(self):
        t = Mesh(1.0, 16, 4.0).points
        for a, b in [(0, 17), (1, 2), (9, 10), (16, 17), (3, 12)]:
            calls = []
            memory_panel_weights(lambda y, x: calls.append((y, x)) or np.ones_like(y),
                                 t, a, b)
            (y, x), = calls
            rows = np.arange(max(a, 1), b)
            newest = MEMORY_PANEL_NODES * rows.size
            xs = x[-newest:].reshape(rows.size, -1)
            ys = y[-newest:].reshape(rows.size, -1)
            for k, i in enumerate(rows):
                assert np.array_equal(xs[k], lag_rule(t[i] - t[i - 1])[0])
                assert np.array_equal(ys[k], t[i] - xs[k])

    def test_nonfinite_newest_panel_rejected(self):
        t = Mesh(1.0, 4).points
        for a, b in [(2, 3), (0, 5)]:
            with pytest.raises(NumericalError):
                memory_panel_weights(lambda y, x: np.full_like(y, np.inf), t, a, b)

    def test_validation(self):
        t = Mesh(1.0, 4).points
        for a, b in [(-1, 3), (3, 3), (4, 3), (0, 6)]:
            with pytest.raises(ValidationError):
                memory_panel_weights(lambda y, x: np.ones_like(y), t, a, b)


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


# integrands of (z, e) for graded_rows: one of full shape (B, P) with a
# z^(-1/2) singularity, one of shape (B, 1) that depends on e alone
ROW_INTEGRANDS = {
    "full": lambda z, e: z ** -0.5 * np.exp(-z * e) * (2.0 + np.cos(e - z)),
    "row": lambda z, e: np.exp(-e) * (1.0 + e),
}


def sliver_quad(fn, e, levels):
    """int_0^e fn(z) dz one interval at a time: graded_nodes without its
    innermost panel [0, eps], and fn(eps) eps / (1 - beta) on it, with
    fn(eps 2^-SLIVER_SPREAD) / fn(eps) = 2^(SLIVER_SPREAD beta)."""
    pts, wts = graded_nodes(0.0, e, "left", levels)
    keep = slice(None, -DEFAULT_PANEL_NODES)
    eps = e * 0.5 ** levels
    near = float(np.ravel(fn(np.array([eps])))[0])
    far = float(np.ravel(fn(np.array([eps * 0.5 ** SLIVER_SPREAD])))[0])
    beta = math.log2(far / near) / SLIVER_SPREAD if near * far > 0.0 else 0.0
    vals = np.broadcast_to(fn(pts[keep]), pts[keep].shape)
    return float(np.dot(wts[keep], vals)) + near * eps / (1.0 - beta)


class TestGradedRows:
    @settings(max_examples=40, deadline=None)
    @given(ends=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=30),
           levels=st.sampled_from([40, 60]),
           shape=st.sampled_from(sorted(ROW_INTEGRANDS)))
    def test_matches_per_node_quad_and_batching(self, ends, levels, shape):
        fn = ROW_INTEGRANDS[shape]
        got = graded_rows(fn, ends, levels)
        assert got.shape == (len(ends),)
        for k, e in enumerate(ends):
            want = sliver_quad(lambda z: fn(z, e), e, levels)
            assert got[k] == pytest.approx(want, rel=1e-14, abs=0.0)
            # a row's value does not depend on the rows batched with it
            assert graded_rows(fn, [e], levels)[0] == got[k]

    def test_batches_span_several_calls(self):
        calls = []

        def fn(z, e):
            calls.append(z.shape)
            return np.ones_like(z)

        ends = np.linspace(0.1, 1.0, 40)
        np.testing.assert_allclose(graded_rows(fn, ends, 60), ends, rtol=1e-14)
        assert len(calls) > 1
        assert all(b * p <= GRADED_ROWS_POINTS for b, p in calls)
        assert sum(b for b, _ in calls) == len(ends)

    def test_exact_on_inverse_sqrt(self):
        got = graded_rows(lambda z, e: z ** -0.5, [0.25, 1.0, 4.0], 60)
        np.testing.assert_allclose(got, [1.0, 2.0, 4.0], rtol=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
    def test_sliver_exact_near_one(self, beta):
        # the sliver [0, e 2^-levels] of z^(-beta) carries a share
        # 2^(-levels (1 - beta)) of the integral: 66 % at beta = 0.99
        got = graded_rows(lambda z, e: z ** -beta, [1.0, 3.0], 60)
        np.testing.assert_allclose(got, np.array([1.0, 3.0]) ** (1 - beta) / (1 - beta),
                                   rtol=1e-13)

    def test_sliver_sign_change_takes_no_power(self):
        # fn(eps) > 0 > fn(eps 2^-SLIVER_SPREAD): beta = 0, the sliver is fn(eps) eps
        cut = 0.5 ** (60 + SLIVER_SPREAD // 2)
        got = graded_rows(lambda z, e: np.sign(z - cut * e), [1.0], 60)
        assert np.isfinite(got[0]) and got[0] == pytest.approx(1.0, rel=1e-15)

    def test_non_integrable_power_rejected(self):
        with pytest.raises(NumericalError, match="not integrable"):
            graded_rows(lambda z, e: 1.0 / z, [0.5, 1.0], 40)

    def test_nonfinite_integrand_rejected(self):
        fn = lambda z, e: np.where((e > 0.5) & (z > 0.5 * e), np.inf, 1.0)
        with pytest.raises(NumericalError, match="non-finite"):
            graded_rows(fn, [0.25, 0.75], 60)

    def test_ends_must_be_positive(self):
        with pytest.raises(ValidationError):
            graded_rows(lambda z, e: z, [0.5, 0.0], 60)


class TestSplitConv:
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("levels", [40, 60])
    def test_beta_function_closed_form(self, alpha, levels):
        # int_0^t s^(-alpha) (t - s)^(alpha - 1) ds = B(1 - alpha, alpha)
        got = split_conv(lambda s: s ** -alpha, lambda x: x ** (alpha - 1.0),
                         [1e-3, 0.3, 1.0, 2.0], levels)
        np.testing.assert_allclose(got, math.pi / math.sin(math.pi * alpha),
                                   rtol=1e-12)

    def test_factors_keep_their_sides(self):
        # int_0^t s^(-1/2) (t - s) ds = (4/3) t^(3/2): left at s, right at the lag
        t = np.array([0.25, 1.0, 4.0])
        got = split_conv(lambda s: s ** -0.5, lambda x: x, t, 40)
        np.testing.assert_allclose(got, 4.0 / 3.0 * t ** 1.5, rtol=1e-13)
