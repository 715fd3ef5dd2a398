"""Expression parsing, evaluation, differentiation and compilation."""

import math

import numpy as np
import pytest

from pmpstab import exprs
from pmpstab.exprs import (
    ExprDomainError,
    ExprSyntaxError,
    compile_batch,
    compile_ode,
    compile_scalar,
    diff,
    diff_with_flag,
    evaluate,
    free_vars,
    has_kink,
    kink_arguments,
    parse,
    substitute,
    to_source,
)


def ev(source, x=(), u=(), t=0.0, n=None, m=None):
    if n is None:
        n = len(x)
    if m is None:
        m = len(u)
    return evaluate(parse(source, n, m), x, u, t)


class TestParseEvaluate:
    def test_arithmetic_precedence(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("(1 + 2)*3") == 9.0
        assert ev("2 - 3 - 4") == -5.0
        assert ev("12/4/3") == 1.0
        assert ev("-2^2") == -4.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("(-2)^2") == 4.0
        assert ev("2*x1^3", (2.0,)) == 16.0

    def test_variables_states_inputs_time(self):
        assert ev("x1 + 10*x2", (1.0, 2.0)) == 21.0
        assert ev("u1*x1", (3.0,), (4.0,)) == 12.0
        assert ev("t^2 + x1", (1.0,), t=3.0) == 10.0

    @pytest.mark.parametrize("fn,ref", [
        ("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
        ("exp", math.exp), ("tanh", math.tanh),
    ])
    def test_scalar_functions(self, fn, ref):
        assert ev(f"{fn}(x1)", (0.7,)) == pytest.approx(ref(0.7), abs=1e-15)

    def test_log_sqrt_abs(self):
        assert ev("log(x1)", (math.e,)) == pytest.approx(1.0)
        assert ev("sqrt(x1)", (9.0,)) == 3.0
        assert ev("abs(x1)", (-2.5,)) == 2.5

    def test_sign_is_zero_at_zero(self):
        assert ev("sign(x1)", (3.0,)) == 1.0
        assert ev("sign(x1)", (-0.5,)) == -1.0
        assert ev("sign(x1)", (0.0,)) == 0.0

    def test_integer_powers_only(self):
        assert ev("x1^4", (-2.0,)) == 16.0
        with pytest.raises(ExprSyntaxError):
            parse("x1 ^ 0.5", 1)
        with pytest.raises(ExprSyntaxError):
            parse("2 ^ x1", 1)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError, match="position"):
            parse("x1 +", 1)
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse("foo(x1)", 1)

    def test_variable_range_enforced(self):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse("x3", 2)
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse("u1", 2, 0)
        # declaring the dimension makes the same source valid
        assert ev("u1", (0.0, 0.0), (5.0,), n=2, m=1) == 5.0

    def test_domain_errors(self):
        with pytest.raises(ExprDomainError):
            ev("1/x1", (0.0,))
        with pytest.raises(ExprDomainError):
            ev("log(x1)", (0.0,))
        with pytest.raises(ExprDomainError):
            ev("sqrt(x1)", (-1.0,))


class TestDifferentiation:
    def test_polynomial_rules(self):
        d = diff(parse("x1^2 + 3*x1*x2", 2), "x1")
        assert evaluate(d, (2.0, 5.0)) == pytest.approx(19.0)

    def test_quotient_and_chain_rule_match_finite_differences(self):
        e = parse("(x1 + 2*x2)^3 / (1 + x2^2) + exp(sin(x1))", 2)
        d1, d2 = diff(e, "x1"), diff(e, "x2")
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = tuple(rng.uniform(-1.5, 1.5, size=2))
            h = 1e-6
            for d, i in ((d1, 0), (d2, 1)):
                xp = list(x)
                xm = list(x)
                xp[i] += h
                xm[i] -= h
                num = (evaluate(e, xp) - evaluate(e, xm)) / (2 * h)
                assert evaluate(d, x) == pytest.approx(num, rel=1e-5, abs=1e-7)

    def test_tanh_derivative(self):
        assert to_source(diff(parse("tanh(x1)", 1), "x1")) == "1 - tanh(x1)^2"

    def test_abs_derivative_flags_kink(self):
        d, kinked = diff_with_flag(parse("abs(x1)", 1), "x1")
        assert kinked
        assert to_source(d) == "sign(x1)"

    def test_smooth_derivative_not_flagged(self):
        _, kinked = diff_with_flag(parse("x1^3 + sin(x1)", 1), "x1")
        assert not kinked

    def test_constants_differentiate_to_zero(self):
        d = diff(parse("t + u1", 1, 1), "x1")
        assert evaluate(d, (9.0,), (9.0,), 9.0) == 0.0


class TestKinkDetection:
    def test_has_kink(self):
        assert has_kink(parse("abs(x1) + 1", 1))
        assert has_kink(parse("sign(x2)", 2))
        assert not has_kink(parse("x1^3 + tanh(x1)", 1))

    def test_kink_arguments_lists_inner_expressions(self):
        args = kink_arguments(parse("abs(x1 - 2) + sign(x2)", 2))
        assert [to_source(a) for a in args] == ["x1 - 2", "x2"]


class TestSubstitution:
    def test_substitute_replaces_listed_variables_only(self):
        e = parse("sin(x1) * u1 - x2^2 + t", 2, 1)
        got = substitute(e, {exprs.Var("u", 1): parse("x2 - x1", 2),
                             exprs.Var("x", 1): exprs.Var("x", 3)})
        assert to_source(got) == "sin(x3) * (x2 - x1) - x2^2 + t"

    def test_substituted_double_negation_folds(self):
        got = substitute(parse("-u1", 1, 1), {exprs.Var("u", 1): parse("-x1", 1)})
        assert got == exprs.Var("x", 1)

    def test_free_vars_lists_states_controls_and_time(self):
        assert free_vars(parse("-abs(x2) * u1 + t^2 + 3", 2, 1)) == {
            exprs.Var("x", 2), exprs.Var("u", 1), exprs.Var("t", 0)}
        assert free_vars(parse("pi + 1", 1)) == set()


class TestSourceRoundTrip:
    @pytest.mark.parametrize("src", [
        "x1^2 + x2^2",
        "-x1 - x2*(1 - x1^2)/2",
        "sin(x1) - x1 - x2",
        "(x1 + 2*x2)^3 / (1 + x2^2)",
        "abs(x1 - 2) + sign(x2)",
    ])
    def test_reparse_is_stable(self, src):
        once = to_source(parse(src, 2))
        assert to_source(parse(once, 2)) == once

    def test_round_trip_preserves_value(self):
        e = parse("-x1 - x2*(1 - x1^2)/2", 2)
        e2 = parse(to_source(e), 2)
        x = (0.37, -1.2)
        assert evaluate(e2, x) == evaluate(e, x)


class TestCompiled:
    def test_scalar_matches_evaluate(self):
        srcs = ["x1 + u1*t", "x1*x2 - cos(x2)", "abs(x1) + x2^3"]
        es = [parse(s, 2, 1) for s in srcs]
        fn = compile_scalar(es)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = tuple(rng.normal(size=2))
            u = tuple(rng.normal(size=1))
            t = float(rng.normal())
            got = fn(t, x, u)
            want = [evaluate(e, x, u, t) for e in es]
            assert got == pytest.approx(want, abs=1e-15)

    def test_scalar_raises_domain_error(self):
        fn = compile_scalar([parse("1/x1", 1)])
        with pytest.raises(ExprDomainError):
            fn(0.0, (0.0,), ())
        # numpy scalars divide by zero without raising; ndarray input must not
        with pytest.raises(ExprDomainError):
            fn(0.0, np.array([0.0]), ())

    def test_batch_matches_evaluate_columnwise(self):
        es = [parse("x1 + x2", 2), parse("sin(x1)*x2", 2), parse("3", 2)]
        fn = compile_batch(es)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 2))
        out = fn(0.0, X, np.zeros((40, 0)))
        assert out.shape == (3, 40)
        for j, row in enumerate(X):
            want = [evaluate(e, tuple(row)) for e in es]
            assert out[:, j] == pytest.approx(want, abs=1e-14)

    def test_batch_constant_broadcasts(self):
        fn = compile_batch([parse("2", 1)])
        out = fn(0.0, np.zeros((5, 1)), np.zeros((5, 0)))
        assert out.shape == (1, 5)
        assert np.all(out == 2.0)

    def test_batch_equals_scalar_bit_for_bit(self):
        # numpy's exp and integer powers differ from the C library in the
        # last bit on some inputs; the batch path must not
        srcs = ["exp(x1)*x2^3 - x1/(1 + x2^2)", "log(1 + x1^2) + sqrt(abs(x2))",
                "tan(x1) - tanh(x2)*u1 + sign(x1 - x2)", "t*x1 - cos(u1)^2"]
        es = [parse(s, 2, 1) for s in srcs]
        batch, scalar = compile_batch(es), compile_scalar(es)
        rng = np.random.default_rng(13)
        X = 3.0 * rng.normal(size=(500, 2))
        U = rng.normal(size=(500, 1))
        out = batch(0.7, X, U)
        want = np.array([scalar(0.7, x, u) for x, u in zip(X.tolist(), U.tolist())])
        assert out.T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("src, bad", [("sqrt(x1)", -1.0), ("log(x1)", 0.0),
                                          ("1/x1", 0.0), ("exp(x1)", 1e3),
                                          ("x1^3", 1e200)])
    def test_batch_raises_domain_error_where_scalar_does(self, src, bad):
        es = [parse(src, 1)]
        with pytest.raises(ExprDomainError):
            compile_scalar(es)(0.0, [bad], [])
        X = np.array([[0.5], [bad], [2.0]])
        with pytest.raises(ExprDomainError):
            compile_batch(es)(0.0, X, np.zeros((3, 0)))

    def test_ode_returns_values_then_weighted_sum(self):
        es = [parse("-x2", 3), parse("sin(x1)*x3", 3)]
        fn = compile_ode(es, weights=(3, 2))
        rng = np.random.default_rng(14)
        for _ in range(50):
            y = rng.normal(size=3)
            v1, v2 = compile_scalar(es)(0.0, y.tolist(), [])
            assert fn(0.0, y) == [v1, v2, 0.0 + y[2] * v1 + y[1] * v2]
        assert compile_ode(es)(0.0, y) == [v1, v2]

    def test_ode_raises_domain_error(self):
        fn = compile_ode([parse("sqrt(x1)", 1)])
        with pytest.raises(ExprDomainError):
            fn(0.0, np.array([-1.0]))
