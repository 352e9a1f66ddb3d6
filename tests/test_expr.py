import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsonine.errors import (DomainError, ExprSyntaxError,
                            UnknownIdentifierError, ValidationError)
from wsonine.expr import (ExprAst, as_function, diff_expr, eval_expr,
                          parse_expr, serialize, substitute)


def ev(text, **bindings):
    return eval_expr(parse_expr(text), bindings)


class TestParsing:
    def test_precedence(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("(1 + 2)*3") == 9.0
        assert ev("2*3^2") == 18.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-t^2", t=3.0) == -9.0
        assert ev("(-t)^2", t=3.0) == 9.0

    def test_functions(self):
        assert ev("exp(0)") == 1.0
        assert ev("sin(0)") == 0.0
        assert math.isclose(ev("ln(exp(2))"), 2.0)
        assert ev("sqrt(t)", t=4.0) == 2.0

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("1 + * 2")
        assert info.value.pos == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            eval_expr(parse_expr("tan(t)"), {"t": 1.0})

    def test_unbound_variable(self):
        with pytest.raises(UnknownIdentifierError):
            eval_expr(parse_expr("s + t"), {"t": 1.0})

    def test_variables(self):
        assert parse_expr("1 + s*t - exp(s)").variables() == {"s", "t"}


class TestDomainChecks:
    @pytest.mark.parametrize("text,binding", [
        ("ln(t)", 0.0),
        ("ln(t)", -1.0),
        ("sqrt(t)", -1.0),
        ("1/t", 0.0),
        ("t^(-0.5)", 0.0),
        ("(-2)^0.5", 0.0),
    ])
    def test_rejected(self, text, binding):
        with pytest.raises(DomainError):
            eval_expr(parse_expr(text), {"t": binding})

    def test_array_eval(self):
        t = np.linspace(0.1, 1.0, 7)
        out = ev("t^2 + sin(t)", t=t)
        np.testing.assert_allclose(out, t ** 2 + np.sin(t), rtol=1e-15)


SIMPLE = st.sampled_from([
    "t", "t^2", "1 + t", "2*t - 3", "t*t + 0.5*t",
    "exp(-t)", "sin(t)", "cos(2*t)", "sqrt(t + 1)",
    "ln(t + 2)", "t^1.5", "(1 + t)^2", "exp(t)*sin(t)",
    "0.5 + 0.2*sin(t)", "t/(1 + t)",
])


class TestDerivative:
    @given(SIMPLE, st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_central_difference(self, text, t0):
        ast = parse_expr(text)
        d = diff_expr(ast, "t")
        h = 1e-6 * max(1.0, abs(t0))
        fd = (eval_expr(ast, {"t": t0 + h}) - eval_expr(ast, {"t": t0 - h})) / (2 * h)
        sym = eval_expr(d, {"t": t0})
        assert sym == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_partial_derivative(self):
        d = diff_expr(parse_expr("1 + s*t"), "t")
        assert eval_expr(d, {"s": 3.0, "t": 99.0}) == 3.0

    def test_derivative_of_constant(self):
        assert eval_expr(diff_expr(parse_expr("4.5"), "t"), {}) == 0.0


class TestSerialization:
    @given(SIMPLE)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_evaluates_identically(self, text):
        ast = parse_expr(text)
        back = parse_expr(serialize(ast))
        for t0 in (0.1, 0.7, 1.9):
            assert eval_expr(back, {"t": t0}) == eval_expr(ast, {"t": t0})

    def test_minimal_parens(self):
        assert serialize(parse_expr("(t + 1) * 2")) == "(t + 1.0) * 2.0"
        assert serialize(parse_expr("t + (1 * 2)")) == "t + 1.0 * 2.0"
        assert serialize(parse_expr("2^(3^2)")) == "2.0 ^ 3.0 ^ 2.0"
        assert serialize(parse_expr("(2^3)^2")) == "(2.0 ^ 3.0) ^ 2.0"


class TestAsFunction:
    def test_from_ast_and_from_string(self):
        f = as_function("t^2")
        assert f(3.0) == 9.0
        g = as_function(parse_expr("2*t"))
        assert g(4.0) == 8.0

    def test_passthrough_callable(self):
        f = as_function(lambda t: t + 1)
        assert f(1.0) == 2.0

    def test_named_variables_broadcast_and_checked(self):
        x = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(as_function("x*t", ("x", "t"))(x, 2.0), 2.0 * x)
        np.testing.assert_array_equal(as_function("t", ("x", "t"))(x, 3.0), [3.0] * 3)
        np.testing.assert_array_equal(as_function("0", ("x",))(x), np.zeros(3))
        with pytest.raises(ValidationError, match="unexpected variables"):
            as_function("x + s", ("x", "t"))

    @pytest.mark.parametrize("text", [
        "x",                                         # x itself, copied
        "sin(3.141592653589793*x)",                  # x only
        "exp(-t) + t^1.5",                           # t only
        "(1 + t^1.5) * sin(3.141592653589793*x) + x*(1 - x) / (1 + t)",
        "2.5"])
    def test_broadcast_inputs_evaluate_as_materialised_copies(self, text):
        # x broadcast to (B, M) and t to (B, M) or (B, 1), as the blocked
        # PDE forcing and the first-kind right-hand sides pass them
        rng = np.random.default_rng(3)
        x = rng.random(7)
        t = rng.random((5, 1)) * 2.0
        fn = as_function(text, ("x", "t"))
        for xs, ts in ((np.broadcast_to(x, (5, 7)), t),
                       (np.broadcast_to(x, (5, 7)), np.broadcast_to(t, (5, 7))),
                       (np.broadcast_to(x[:1], (5, 7)), np.broadcast_to(t, (5, 7)))):
            got = fn(xs, ts)
            want = fn(np.ascontiguousarray(xs), np.ascontiguousarray(ts))
            assert got.shape == want.shape == (5, 7)
            assert got.flags.writeable
            np.testing.assert_array_equal(got, want)


class TestSubstitute:
    def test_weight_derivative_at_zero_folds_to_zero(self):
        w_t = diff_expr(parse_expr("1 + 0.9*s*t"), "t")
        folded = substitute(w_t, {"s": 0.0})
        assert folded.kind == "const" and folded.value == 0.0

    def test_exponential_weight_does_not_fold(self):
        w_t = diff_expr(parse_expr("exp(-(t - s))"), "t")
        folded = substitute(w_t, {"s": 0.0})
        assert folded.kind != "const"
        t = np.array([0.1, 0.5])
        np.testing.assert_array_equal(eval_expr(folded, {"t": t}),
                                      eval_expr(w_t, {"s": 0.0, "t": t}))

    @pytest.mark.parametrize("text", ["sin(s)*t", "s/t", "t*ln(1 + s)"])
    def test_zero_factor_folds(self, text):
        folded = substitute(parse_expr(text), {"s": 0.0})
        assert folded.kind == "const" and folded.value == 0.0

    def test_constant_subtrees_fold_without_substitution(self):
        folded = substitute(parse_expr("t*(2 - 2) + 3^2"), {})
        assert folded.kind == "const" and folded.value == 9.0

    def test_domain_error_subtree_left_unfolded(self):
        folded = substitute(parse_expr("ln(s) + t"), {"s": 0.0})
        assert folded.kind == "+"
        assert folded.args[0].kind == "ln" and folded.args[0].args[0].value == 0.0
        with pytest.raises(DomainError):
            eval_expr(folded, {"t": 1.0})

    @given(SIMPLE, st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_substituted_value_unchanged(self, text, t0):
        ast = parse_expr(text)
        folded = substitute(ast, {"t": t0})
        assert folded.variables() == set()
        assert eval_expr(folded, {}) == eval_expr(ast, {"t": t0})
