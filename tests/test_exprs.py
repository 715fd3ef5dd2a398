"""Expression parsing, evaluation, differentiation and compilation."""

import ast
import gc
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pmpstab as ps
from pmpstab import exprs
from pmpstab.exprs import (
    ExprDomainError,
    ExprSyntaxError,
    compile_batch,
    compile_scalar,
    diff,
    evaluate,
    kink_arguments,
    parse,
    substitute,
    to_source,
)


def ev(source, x=()):
    return evaluate(parse(source, len(x)), x)


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
        # the states are the only variables: controls and time are rejected
        assert ev("x1 + 10*x2", (1.0, 2.0)) == 21.0
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'u1'"):
            parse("u1*x1", 1)
        with pytest.raises(ExprSyntaxError,
                           match="expressions are stationary .at position 5"):
            parse("x1 + t^2", 1)

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

    def test_number_literal_that_overflows_is_rejected(self):
        # a literal that parses to an infinity has no source spelling, so
        # the compiled functions could not evaluate it
        with pytest.raises(ExprSyntaxError,
                           match=r"'1e400' overflows \(at position 5\)"):
            parse("x1 + 1e400", 1)
        assert ev("x1 + 1e308", (0.0,)) == 1e308

    def test_variable_range_enforced(self):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse("x3", 2)
        # declaring the dimension makes the same source valid
        assert ev("x3", (0.0, 0.0, 5.0)) == 5.0

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

    def test_quotient_rule_does_not_square_a_tiny_denominator(self):
        # (x1'x2 - x1 x2')/x2^2 underflows x2^2 at x2 = 1e-160
        d = diff(parse("x1/x2", 2), "x1")
        assert evaluate(d, (1.0, 1e-160)) == 1e160

    def test_tanh_derivative(self):
        assert to_source(diff(parse("tanh(x1)", 1), "x1")) == "1 - tanh(x1)^2"

    def test_abs_derivative_flags_kink(self):
        e = parse("abs(x1)", 1)
        assert kink_arguments(e) == [exprs.Var(1)]
        assert to_source(diff(e, "x1")) == "sign(x1)"

    def test_smooth_derivative_not_flagged(self):
        e = parse("x1^3 + sin(x1)", 1)
        assert kink_arguments(e) == []
        assert kink_arguments(diff(e, "x1")) == []

    def test_constants_differentiate_to_zero(self):
        d = diff(parse("pi + x2", 2), "x1")
        assert evaluate(d, (9.0, 9.0)) == 0.0

    def test_constant_that_overflows_is_not_folded(self):
        # the derivative of x1*1e308*10 multiplies 1e308 by 10; folded, it
        # would be a number with no source spelling
        d = diff(parse("x1*1e308*10", 1), "x1")
        assert evaluate(d, (0.5,)) == math.inf
        assert compile_scalar([d])(0.0, [0.5]) == [evaluate(d, (0.5,))]
        assert parse(to_source(d), 1) == d
        # a finite product still folds
        assert diff(parse("x1*1e300*10", 1), "x1") == exprs.Num(1e301)


class TestKinkDetection:
    def test_kink_arguments_lists_inner_expressions(self):
        args = kink_arguments(parse("abs(x1 - 2) + sign(x2)", 2))
        assert [to_source(a) for a in args] == ["x1 - 2", "x2"]
        assert kink_arguments(parse("x1^3 + tanh(x1)", 1)) == []


class TestSubstitution:
    def test_substitute_replaces_listed_variables_only(self):
        e = parse("sin(x1) * x4 - x2^2", 4)
        got = substitute(e, {exprs.Var(4): parse("x2 - x1", 2),
                             exprs.Var(1): exprs.Var(3)})
        assert to_source(got) == "sin(x3) * (x2 - x1) - x2^2"

    def test_substituted_double_negation_folds(self):
        got = substitute(parse("-x2", 2), {exprs.Var(2): parse("-x1", 1)})
        assert got == exprs.Var(1)


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
        srcs = ["x1 + 2*x2", "x1*x2 - cos(x2)", "abs(x1) + x2^3"]
        es = [parse(s, 2) for s in srcs]
        fn = compile_scalar(es)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = tuple(rng.normal(size=2))
            got = fn(float(rng.normal()), x)
            want = [evaluate(e, x) for e in es]
            assert got == pytest.approx(want, abs=1e-15)

    def test_scalar_raises_domain_error(self):
        fn = compile_scalar([parse("1/x1", 1)])
        with pytest.raises(ExprDomainError):
            fn(0.0, (0.0,))
        # numpy scalars divide by zero without raising; ndarray input must not
        with pytest.raises(ExprDomainError):
            fn(0.0, np.array([0.0]))
        with pytest.raises(ExprDomainError):
            compile_scalar([parse("sqrt(x1)", 1)], weights=(1,))(
                0.0, np.array([-1.0]))

    def test_batch_matches_evaluate_columnwise(self):
        es = [parse("x1 + x2", 2), parse("sin(x1)*x2", 2), parse("3", 2)]
        fn = compile_batch(es)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 2))
        out = fn(0.0, X)
        assert out.shape == (40, 3)
        for j, row in enumerate(X):
            want = [evaluate(e, tuple(row)) for e in es]
            assert out[j] == pytest.approx(want, abs=1e-14)

    def test_batch_constant_broadcasts(self):
        fn = compile_batch([parse("2", 1)])
        out = fn(0.0, np.zeros((5, 1)))
        assert out.shape == (5, 1)
        assert np.all(out == 2.0)

    def test_batch_equals_scalar_bit_for_bit(self):
        # numpy's exp and integer powers differ from the C library in the
        # last bit on some inputs; the batch path must not
        srcs = ["exp(x1)*x2^3 - x1/(1 + x2^2)", "log(1 + x1^2) + sqrt(abs(x2))",
                "tan(x1) - tanh(x2)*x3 + sign(x1 - x2)", "x2*x1 - cos(x3)^2"]
        es = [parse(s, 3) for s in srcs]
        rng = np.random.default_rng(13)
        X = np.column_stack([3.0 * rng.normal(size=(500, 2)),
                             rng.normal(size=500)])
        for weights in ((), (3, 1, 2)):
            batch = compile_batch(es, weights)
            scalar = compile_scalar(es, weights)
            out = batch(0.7, X)
            want = np.array([scalar(0.7, x) for x in X])
            assert out.shape == (500, len(es) + bool(weights))
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("src, bad", [("sqrt(x1)", -1.0), ("log(x1)", 0.0),
                                          ("1/x1", 0.0), ("exp(x1)", 1e3),
                                          ("x1^3", 1e200)])
    def test_batch_raises_domain_error_where_scalar_does(self, src, bad):
        es = [parse(src, 1)]
        with pytest.raises(ExprDomainError):
            compile_scalar(es)(0.0, [bad])
        X = np.array([[0.5], [bad], [2.0]])
        with pytest.raises(ExprDomainError):
            compile_batch(es)(0.0, X)


# ------------------------------------------------------------ property tests

_VARS = [exprs.Var(1), exprs.Var(2)]


def _trees(functions=exprs.FUNCTIONS, max_leaves=12, max_number=1e3):
    """Expression trees of the grammar: finite literals in [0, max_number],
    x1 and x2, negation, the four operators, integer powers 0..4 and the
    given functions."""
    numbers = st.floats(0.0, max_number, allow_nan=False).map(
        lambda v: exprs.Num(abs(v)))
    leaves = st.one_of(numbers, st.sampled_from(_VARS))

    def extend(child):
        return st.one_of(
            st.builds(exprs.BinOp, st.sampled_from("+-*/"), child, child),
            st.builds(exprs.BinOp, st.just("^"), child,
                      st.integers(0, 4).map(lambda k: exprs.Num(float(k)))),
            st.builds(exprs.Call, st.sampled_from(functions), child),
            child.map(exprs.Neg))

    return st.recursive(leaves, extend, max_leaves=max_leaves)


# x1, x2
_points = st.tuples(*[st.floats(allow_nan=False)] * 2)
# one or two expressions, and the 1-based state indices of their weights
_systems = st.tuples(st.lists(_trees(), min_size=1, max_size=2),
                     st.lists(st.integers(1, 2), max_size=2))
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def _bits(value):
    return struct.pack("<d", value)


def _outcome(fn, *args):
    """The bits of fn's results, or the string 'domain' when fn raises
    ExprDomainError."""
    try:
        values = fn(*args)
    except ExprDomainError:
        return "domain"
    return [_bits(v) for v in values]


def _reference(es, weights, x):
    """What compile_scalar(es, weights) must give at x, from evaluate: the
    values, then 0.0 + x_w1*v1 + x_w2*v2 ... summed left to right."""
    def values():
        vals = [evaluate(e, x) for e in es]
        if weights:
            s = 0.0
            for w, v in zip(weights, vals):
                s = s + x[w - 1] * v
            vals.append(s)
        return vals
    return _outcome(values)


class TestProperties:
    @_PROPERTY
    @given(_trees())
    def test_source_round_trip_is_structural(self, e):
        assert parse(to_source(e), 2) == e

    @_PROPERTY
    @given(_systems, _points)
    def test_compile_scalar_equals_evaluate(self, system, x):
        es, weights = system
        fn = compile_scalar(es, weights)
        want = _reference(es, weights, x)
        assert _outcome(fn, 0.0, x) == want
        assert _outcome(fn, 0.0, np.array(x)) == want

    @_PROPERTY
    @given(_systems, st.lists(_points, min_size=1, max_size=5))
    def test_compile_batch_rows_equal_compile_scalar(self, system, rows):
        es, weights = system
        X = np.array(rows)
        scalar = compile_scalar(es, weights)
        want = [_reference(es, weights, x) for x in rows]
        assert [_outcome(scalar, 0.0, x) for x in X] == want
        if "domain" in want:
            with pytest.raises(ExprDomainError):
                compile_batch(es, weights)(0.0, X)
        else:
            got = compile_batch(es, weights)(0.0, X)
            assert [[_bits(v) for v in row] for row in got.tolist()] == want

    @_PROPERTY
    @given(st.sampled_from(exprs.FUNCTIONS),
           st.lists(st.tuples(st.floats(), st.floats()), min_size=1,
                    max_size=6),
           st.floats(allow_nan=False, allow_infinity=False))
    @example("log", [(0.0, 1.0)], 1.0)
    @example("sqrt", [(-1.0, math.nan)], -math.inf)
    @example("exp", [(710.0, -math.inf)], 0.5)
    def test_batched_calls_equal_scalar_calls(self, fn, rows, c):
        # one-argument calls on a column, a sum and a finite literal, with
        # nan, infinities and domain errors drawn as states
        x1, x2 = _VARS
        es = [exprs.Call(fn, x1), exprs.Call(fn, exprs.BinOp("+", x1, x2)),
              exprs.BinOp("*", exprs.Call(fn, exprs.Num(abs(c))), x2)]
        X = np.array(rows)
        want = [_reference(es, (), x) for x in rows]
        assert [_outcome(compile_scalar(es), 0.0, x) for x in X] == want
        if "domain" in want:
            with pytest.raises(ExprDomainError):
                compile_batch(es)(0.0, X)
        else:
            got = compile_batch(es)(0.0, X)
            assert [[_bits(v) for v in row] for row in got.tolist()] == want

    @settings(_PROPERTY, max_examples=1000)
    @given(_trees(tuple(f for f in exprs.FUNCTIONS
                        if f not in ("abs", "sign")), 6, 10.0),
           st.tuples(*[st.floats(-2.0, 2.0)] * 2))
    # a squared denominator underflows at these x2
    @example(exprs.BinOp("/", *_VARS), (1.0, 1e-160))
    @example(exprs.BinOp("/", *_VARS), (1.0, 8.67e-162))
    def test_diff_agrees_with_central_differences(self, e, p):
        h = 1e-5

        def f(k, step):
            q = list(p)
            q[k] += step
            return evaluate(e, q)

        checked = 0
        for k, var in enumerate(_VARS):
            try:
                exact = evaluate(diff(e, var), p)
                values = [f(k, s * h) for s in (1.0, -1.0, 0.5, -0.5)]
            except ExprDomainError:
                continue
            if not all(map(math.isfinite, [exact, *values])):
                continue
            coarse = (values[0] - values[1]) / (2 * h)
            fine = (values[2] - values[3]) / h
            # rounding of the values, amplified by the quotient
            noise = 1e-15 * max(map(abs, values)) / h
            # only where halving the step leaves the quotient converged;
            # a step across a pole gives two quotients that differ by a
            # factor, however small they are
            if (abs(coarse - fine) > 1e-7 * (1.0 + abs(fine)) + noise
                    or abs(coarse - fine) > 1e-3 * abs(fine)):
                continue
            assert abs(exact - fine) <= 1e-5 * (1.0 + abs(fine)) + noise, var
            checked += 1
        assume(checked)


def _pipeline():
    """A small run of every layer that compiles expressions: a DI law and
    its closed loop, one forward flow, and a pendulum law under output
    feedback."""
    sys_ = ps.double_integrator_system()
    lyap = ps.double_integrator_lyapunov(0.5)
    man = ps.build_manifold(sys_, lyap, 16, 6.0)
    law = ps.assemble_feedback(sys_, lyap, man, ["-x1 - x2*(1 - x1^2)/2"],
                               k=1.0, C=1.0)
    ps.simulate_closed_loop(law, (1.5, 0.5), 20.0)
    i = len(man.flat_tau) // 2
    ps.flow_forward(sys_, man.flat_x[i], man.flat_nu[i],
                    float(man.flat_tau[i]))
    sys_ = ps.manipulator_system("-sin(x1)")
    lyap = ps.LyapunovSpec("(x1^2 + x2^2)/2", 2, epsilon=0.32)
    man = ps.build_manifold(sys_, lyap, 16, 3.0)
    law = ps.assemble_feedback(sys_, lyap, man, ["sin(x1) - x1 - x2"],
                               k=1.0, C=1.0)
    ps.simulate_output_feedback(sys_, law, ps.select_gains(1.0), (0.5, 0.0),
                                (0.5, 0.2), 5.0)


class TestNoReferenceCycles:
    def test_pipeline_leaves_no_cyclic_garbage(self):
        _pipeline()     # first-use caches
        gc.collect()
        gc.disable()
        try:
            _pipeline()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_compiled_functions_share_one_namespace_without_cycles(self):
        es = [parse("sin(x1)/x2 + x1^2", 2)]
        f, g = compile_batch(es), compile_batch(es)
        assert f.__globals__ is not g.__globals__
        for name in ("sin", "_div", "_pow", "np"):
            assert f.__globals__[name] is g.__globals__[name]
        refs = [weakref.ref(f), weakref.ref(compile_scalar(es))]
        del f, g
        assert [r() for r in refs] == [None, None]

    def test_no_nested_function_calls_itself(self):
        tree = ast.parse(open(exprs.__file__).read())
        for outer in ast.walk(tree):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for fn in ast.walk(outer):
                if isinstance(fn, ast.FunctionDef) and fn is not outer:
                    assert not any(isinstance(c, ast.Call)
                                   and getattr(c.func, "id", None) == fn.name
                                   for c in ast.walk(fn)), fn.name
