"""End-to-end gate: one test per numbered behavior guarantee, each printing
a single pass/fail line with the measured quantity.

Two sub-assertions of guarantees 3 and 8 pin closed-form values at s = 0
that the bilinear weight cannot produce there (w(0, .) is constant, so the
weighted and unweighted kernels coincide at s = 0); those are kept as
strict-xfail tests next to the attainable closed forms, which are asserted
at the same tolerance at the point where they do hold.
"""

import math
import time

import numpy as np
import pytest

from wsonine.kernels import KernelPair, Weight, licm_check
from wsonine.quadrature import Mesh, jacobi_rule, power_conv_weights
from wsonine.sonine import (SonineData, associate_from_wsc2, csc_residual,
                            eval_G, eval_g, eval_g2)
from wsonine.vie import (FirstKindProblem, Forcing, NonlocalOdeProblem,
                         construct_csc_associate, manufactured_forcing,
                         max_node_error, residual_first_kind,
                         solve_first_kind, solve_nonlocal_ode,
                         weighted_l1_error)
from wsonine.subdiffusion import PdeConfig, solve_subdiffusion

GAMMA_3_2 = math.gamma(1.5)
G25 = math.gamma(2.5)
PI2 = math.pi ** 2


def check(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------ shared solves

@pytest.fixture(scope="module")
def manufactured_pipeline():
    """Weighted first-kind solve for alpha = 0.5 + 0.1 t, w = 1 + s*t,
    exact solution 1 + t, on N = 64 .. 512; shared by guarantees 4 and 5."""
    t0 = time.perf_counter()
    pair = KernelPair.make("0.5 + 0.1*t", b=1.0)
    weight = Weight.from_expr("1 + s*t", b=1.0)
    data = SonineData.make(pair, weight)
    forcing = manufactured_forcing(pair, weight, "1 + t")
    problem = FirstKindProblem(pair, weight, forcing)
    errors, residuals = [], []
    for n in (64, 128, 256, 512):
        mesh = Mesh(1.0, n, 4.0)
        rep = solve_first_kind(problem, mesh, data)
        errors.append(max_node_error(mesh, rep.u, lambda t: 1.0 + t))
        _, res = residual_first_kind(problem, mesh, rep.u, [0.25, 0.5, 1.0])
        residuals.append(float(np.max(np.abs(res))))
    return errors, residuals, time.perf_counter() - t0


@pytest.fixture(scope="module")
def variable_data():
    pair = KernelPair.make("0.5 + 0.2*t", b=1.0)
    weight = Weight.from_expr("1 + s*t", b=1.0)
    return SonineData.make(pair, weight)


@pytest.fixture(scope="module")
def const_half_bilinear():
    pair = KernelPair.make("0.5", b=1.0)
    return pair, Weight.from_expr("1 + s*t", b=1.0)


# ---------------------------------------------------------------- criteria

def test_criterion_01_csc_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0.3, 0.5, 0.7):
        data = SonineData.make(KernelPair.make(str(a)), Weight.from_expr("1"))
        for t in np.arange(0.1, 1.05, 0.1):
            worst = max(worst, csc_residual(data, float(t)))
    elapsed = time.perf_counter() - t0
    check(1, worst <= 1e-12 and elapsed < 1.0,
          f"max residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_weight_limit_at_zero(variable_data):
    worst = 0.0
    exact_at_zero = True
    for s in (0.0, 0.25, 0.5):
        wss = float(variable_data.weight(s, s))
        worst = max(worst, abs(eval_g(variable_data, s, 1e-6) - wss))
        exact_at_zero &= eval_g(variable_data, s, 0.0) == wss
    check(2, worst <= 1e-4 and exact_at_zero,
          f"max |g(s,1e-6) - w(s,s)| = {worst:.2e}, t=0 branch exact")


def test_criterion_03_g2_consistency(variable_data, const_half_bilinear):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        s = rng.uniform(0.0, 0.5)
        t = rng.uniform(0.1, 1.0 - s - 1e-3)
        h = 1e-5 * t
        fd = (eval_g(variable_data, s, t + h)
              - eval_g(variable_data, s, t - h)) / (2 * h)
        got = eval_g2(variable_data, s, t)
        worst = max(worst, abs(got - fd) / max(abs(fd), 1e-12))
    # attainable closed form: g2(s,t) = s/2 for the half kernel, so the
    # target value 0.5 is met at s = 1 (horizon 2 keeps s + t admissible)
    pair2 = KernelPair.make("0.5", b=2.0)
    data2 = SonineData.make(pair2, Weight.from_expr("1 + s*t", b=2.0))
    closed = max(abs(eval_g2(data2, 1.0, t) - 0.5) for t in (0.25, 0.5, 0.9))
    check(3, worst <= 1e-5 and closed <= 1e-10,
          f"max FD rel dev {worst:.2e}, |g2(1,t) - 0.5| max {closed:.2e}")


@pytest.mark.xfail(strict=True,
                   reason="w(0, .) is constant, so g2(0, t) is identically 0; "
                          "the closed-form value 0.5 occurs at s = 1, not s = 0")
def test_criterion_03_literal_g2_at_s_zero(const_half_bilinear):
    pair, weight = const_half_bilinear
    data = SonineData.make(pair, weight)
    assert eval_g2(data, 0.0, 0.5) == pytest.approx(0.5, abs=1e-10)


def test_criterion_04_manufactured_first_kind(manufactured_pipeline):
    errors, _, elapsed = manufactured_pipeline
    ns = np.log2([64.0, 128.0, 256.0, 512.0])
    order = -np.polyfit(ns, np.log2(errors), 1)[0]
    check(4, order >= 0.8 and errors[-1] <= 1e-2 and elapsed < 10.0,
          f"order {order:.2f}, error at N=512 {errors[-1]:.2e}, {elapsed:.1f} s")


# Max nodal errors of the pipeline at N = 64 .. 512.  A change to the
# quadrature or the stepping must keep each within 5 %.
PIPELINE_ERRORS = (7.48963e-4, 1.93804e-4, 4.97293e-5, 1.27272e-5)


def test_manufactured_errors_pinned(manufactured_pipeline):
    errors, _, _ = manufactured_pipeline
    np.testing.assert_allclose(errors, PIPELINE_ERRORS, rtol=0.05)


def test_criterion_05_residual_contraction(manufactured_pipeline):
    _, residuals, _ = manufactured_pipeline
    ratios = [residuals[i + 1] / residuals[i] for i in range(3)]
    check(5, all(r <= 0.7 for r in ratios),
          "residual ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_06_nonlocal_ode():
    w1 = Weight.from_expr("1")
    # f = Gamma(3/2), c = 0 under the normalized pair: u = sqrt(t)
    prob_a = NonlocalOdeProblem(KernelPair.make("0.5", normalized=True), w1,
                                Forcing.constant(GAMMA_3_2), c=0.0)
    mesh_a = Mesh(1.0, 256, 4.0)
    err_a = max_node_error(mesh_a, solve_nonlocal_ode(prob_a, mesh_a).u, np.sqrt)
    # c = 1, f = 0: u = t^(-1/2) / pi
    prob_b = NonlocalOdeProblem(KernelPair.make("0.5"), w1,
                                Forcing.constant(0.0), c=1.0)
    mesh_b = Mesh(1.0, 512, 4.0)
    err_b = weighted_l1_error(mesh_b, solve_nonlocal_ode(prob_b, mesh_b).u,
                              lambda t: t ** -0.5 / math.pi)
    check(6, err_a <= 1e-2 and err_b <= 1e-2,
          f"sqrt case max error {err_a:.2e}, singular case L1 error {err_b:.2e}")


def test_criterion_07_csc_associate_recovery():
    pair = KernelPair.make("0.5")
    data = SonineData.make(pair, Weight.from_expr("1"))
    mesh = Mesh(1.0, 256, 4.0)
    res = construct_csc_associate(data, mesh)
    # the recovered kernel must satisfy int K(t-s) u(s) ds = 1, which for
    # the half kernel pins u(t) = t^(-1/2)
    err = weighted_l1_error(mesh, res.u, lambda t: t ** -0.5)
    check(7, err <= 1e-2 and res.max_csc_residual <= 1e-2,
          f"L1 error {err:.2e}, CSC residual {res.max_csc_residual:.2e}")


def test_criterion_08_order_swapped_condition(const_half_bilinear):
    pair, weight = const_half_bilinear
    data = SonineData.make(pair, weight)
    exact0 = all(eval_G(data, s, 0.0) == float(weight(s, s))
                 for s in (0.0, 0.3, 0.9))
    # attainable closed form: G(s,t) = 1 + s^2 + s*t/2
    closed = max(abs(eval_G(data, s, t) - (1 + s * s + s * t / 2))
                 for s, t in [(0.25, 0.5), (0.5, 0.4)])
    res = [associate_from_wsc2(data, Mesh(1.0, n, 4.0)).max_csc_residual
           for n in (128, 256)]
    ok = exact0 and closed <= 1e-10 and res[0] <= 1e-2 and res[1] < res[0]
    check(8, ok, f"t=0 exact, closed-form dev {closed:.2e}, "
                 f"residuals {res[0]:.2e} -> {res[1]:.2e}")


@pytest.mark.xfail(strict=True,
                   reason="w(0, .) is constant, so G(0, t) is identically 1; "
                          "the closed-form value 1 + t/2 occurs at s = 1, not s = 0")
def test_criterion_08_literal_G_at_s_zero(const_half_bilinear):
    pair, weight = const_half_bilinear
    data = SonineData.make(pair, weight)
    assert eval_G(data, 0.0, 0.5) == pytest.approx(1.25, abs=1e-10)


def test_criterion_09_subdiffusion_manufactured():
    t0 = time.perf_counter()
    pair = KernelPair.make("0.5", normalized=True)
    w1 = Weight.from_expr("1")
    f = lambda x, t: (2.0 * t ** 1.5 / G25 + PI2 * t * t) * np.sin(
        math.pi * np.asarray(x, float))
    exact = lambda x, t: t * t * np.sin(math.pi * np.asarray(x, float))
    errs = []
    for m, n in ((32, 64), (64, 128)):
        cfg = PdeConfig(m=m, mesh=Mesh(1.0, n, 4.0), pair=pair, weight=w1,
                        forcing=f, initial="0")
        errs.append(solve_subdiffusion(cfg).final_l2_error(exact))
    elapsed = time.perf_counter() - t0
    check(9, errs[0] <= 5e-2 and errs[1] < errs[0] and elapsed < 30.0,
          f"L2 errors {errs[0]:.2e} -> {errs[1]:.2e}, {elapsed:.1f} s")


def test_criterion_10_quadrature_layer():
    worst_m = 0.0
    for alpha0 in (0.3, 0.5, 0.7):
        for n in (4, 16, 32):
            rule = jacobi_rule(alpha0, n)
            for m in range(2 * n):
                exact = (math.gamma(m + 1 - alpha0) * math.gamma(alpha0)
                         / math.gamma(m + 1))
                got = float(np.dot(rule.weights, rule.nodes ** m))
                worst_m = max(worst_m, abs(got - exact) / exact)
    worst_r = 0.0
    mesh = Mesh(1.0, 32, 2.0)
    for beta in (0.3, 0.5, 0.7):
        for i in (1, 7, 32):
            w = power_conv_weights(beta, mesh, i)
            moment = mesh.points[i] ** (1.0 - beta) / (1.0 - beta)
            worst_r = max(worst_r, abs(w.sum() - moment) / moment)
    check(10, worst_m <= 1e-12 and worst_r <= 1e-13,
          f"moment dev {worst_m:.2e}, row-sum dev {worst_r:.2e}")


def test_criterion_11_licm_screening():
    passes = (licm_check(lambda t: t ** -0.5).passed
              and licm_check(lambda t: np.exp(-t)).passed)
    rejection = licm_check(lambda t: 2.0 + np.sin(t))
    shape_ok = rejection.max_order == 4 and rejection.grid_size == 64
    check(11, passes and not rejection.passed and shape_ok,
          "power and decaying-exponential pass, shifted sine rejected "
          f"(order-{rejection.max_order} screen on {rejection.grid_size} points)")
