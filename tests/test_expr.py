"""Parser, evaluator, and forward-mode derivative tests.

Expected values are either exact in floating point (integer powers, halves)
or checked against a central finite difference.
"""

import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhkit import expr
from hhkit.corpus import DOMAIN, EXTRA_EXPRESSIONS, FUNCTION_TEXTS, corpus_functions
from hhkit.expr import (
    Abs,
    Add,
    Constant,
    DerivativeUndefinedError,
    Div,
    DomainError,
    DualValue,
    Exp,
    ExprNode,
    FunctionSpec,
    Interval,
    Log,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    UnknownIdentifierError,
    Variable,
    format_expression,
    parse,
    parse_function,
)
from test_properties import _constants, _trees


# ---------------------------------------------------------------------------
# evaluation with derivatives


def test_power_value_and_derivative_at_2():
    f = parse_function("x^4", DOMAIN)
    out = f.eval_with_derivative(2.0)
    assert out.value == 16.0
    assert out.derivative == 32.0


def test_exp_value_and_derivative_at_0():
    f = parse_function("exp(x)", DOMAIN)
    out = f.eval_with_derivative(0.0)
    assert out.value == 1.0
    assert out.derivative == 1.0


def test_square_value_and_derivative_at_0_3():
    f = parse_function("x^2", DOMAIN)
    out = f.eval_with_derivative(0.3)
    assert math.isclose(out.value, 0.09, abs_tol=1e-15)
    assert math.isclose(out.derivative, 0.6, abs_tol=1e-15)


def test_derivative_matches_finite_difference_on_corpus():
    # central difference with h scaled to the evaluation point
    for f in corpus_functions():
        xs = np.linspace(DOMAIN.a + 1e-3, DOMAIN.b - 1e-3, 100)
        h = 1e-6 * np.maximum(1.0, np.abs(xs))
        fd = (f.value(xs + h) - f.value(xs - h)) / (2.0 * h)
        d = f.derivative(xs)
        assert np.all(np.abs(d - fd) <= 1e-6 * np.maximum(1.0, np.abs(d))), f.text


def test_constant_body_has_zero_derivative():
    f = parse_function("3", DOMAIN)
    out = f.eval_with_derivative(1.5)
    assert out.value == 3.0
    assert out.derivative == 0.0


def test_vectorized_derivative_matches_scalar():
    f = parse_function("exp(2*x)", DOMAIN)
    xs = np.array([0.25, 1.0, 2.5])
    vec = f.derivative(xs)
    for i, x in enumerate(xs):
        assert vec[i] == f.derivative(float(x))


# ---------------------------------------------------------------------------
# equivalence with full-array dual arithmetic
#
# The reference is the earlier dual arithmetic: every operation computes both
# product-rule terms as arrays, even where a constant's derivative zeroes one,
# the seed derivative is an array of ones, and results are copied.  Values and
# derivatives must agree under == (a zero derivative may differ in sign only),
# or both sides must raise the same exception class, where FunctionSpec reports
# Python-float OverflowError and ZeroDivisionError as DomainError.


def _full_add(self, other):
    return DualValue(self.value + other.value, self.derivative + other.derivative)


def _full_sub(self, other):
    return DualValue(self.value - other.value, self.derivative - other.derivative)


def _full_mul(self, other):
    return DualValue(
        self.value * other.value,
        self.derivative * other.value + self.value * other.derivative,
    )


def _full_truediv(self, other):
    if np.any(other.value == 0.0):
        raise DomainError("division by zero")
    return DualValue(
        self.value / other.value,
        (self.derivative * other.value - self.value * other.derivative)
        / (other.value * other.value),
    )


def _reference_eval_with_derivative(f: FunctionSpec, x):
    full = dict(__add__=_full_add, __sub__=_full_sub, __mul__=_full_mul, __truediv__=_full_truediv)
    if isinstance(x, np.ndarray):
        seed = DualValue(x, np.ones_like(x, dtype=float))
        shaped = lambda v: np.broadcast_to(np.asarray(v, dtype=float), x.shape).copy()  # noqa: E731
    else:
        seed, shaped = DualValue(float(x), 1.0), float
    with mock.patch.multiple(DualValue, **full), np.errstate(all="ignore"):
        try:
            out = f.body.evaluate(seed)
        except (OverflowError, ZeroDivisionError):  # FunctionSpec maps Python-float errors
            raise DomainError("Python-float overflow or division by zero") from None
    if not (np.all(np.isfinite(out.value)) and np.all(np.isfinite(out.derivative))):
        raise DomainError("non-finite value or derivative")
    return DualValue(shaped(out.value), shaped(out.derivative))


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _assert_matches_reference(tree, domain: Interval, x):
    def new():
        return FunctionSpec(tree, domain).eval_with_derivative(x)

    def ref():
        return _reference_eval_with_derivative(FunctionSpec(tree, domain), x)

    got, want = _outcome(new), _outcome(ref)
    if isinstance(want, type):
        assert got is want, format_expression(tree)
        return
    assert isinstance(got, DualValue), (format_expression(tree), got)
    if isinstance(x, np.ndarray):
        for a, b in ((got.value, want.value), (got.derivative, want.derivative)):
            assert a.dtype == np.float64 and a.shape == x.shape
            assert np.array_equal(a, b), format_expression(tree)
    else:
        assert type(got.value) is float and type(got.derivative) is float
        assert (got.value, got.derivative) == (want.value, want.derivative), format_expression(tree)


_EQUIVALENCE_POINTS = np.linspace(DOMAIN.a, DOMAIN.b, 11)
_CONSTANT_EXPONENTS = (0.0, 1.0, 0.5, 2.0, 3.0, -1.0)


def _constant_beside(op, c, tree, constant_left):
    return op(c, tree) if constant_left else op(tree, c)


_shaped_trees = st.one_of(
    _trees,
    st.builds(
        _constant_beside,
        st.sampled_from((Add, Sub, Mul, Div)),
        _constants,
        _trees,
        st.booleans(),
    ),
    st.builds(lambda t, e: Pow(t, Constant(e)), _trees, st.sampled_from(_CONSTANT_EXPONENTS)),
    st.builds(Pow, _trees, _trees),
    st.builds(lambda cls, t: cls(t), st.sampled_from((Exp, Log, Abs, Neg)), _trees),
)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(_shaped_trees)
def test_eval_with_derivative_matches_full_array_duals(tree):
    _assert_matches_reference(tree, DOMAIN, _EQUIVALENCE_POINTS)
    for x in (0.0, 0.75, 2.5):
        _assert_matches_reference(tree, DOMAIN, x)


_OPERANDS = (
    Variable(),
    Mul(Constant(2.0), Add(Variable(), Constant(1.0))),
    Exp(Variable()),
    Pow(Variable(), Constant(3.0)),
)
_RULE_CASES = (
    [
        _constant_beside(op, Constant(0.75), operand, constant_left)
        for op in (Add, Sub, Mul, Div)
        for operand in _OPERANDS
        for constant_left in (True, False)
    ]
    + [Mul(Constant(1.5), Pow(b, Constant(e))) for b in _OPERANDS[:3] for e in _CONSTANT_EXPONENTS]
    + [parse(t) for t in ("x^x", "(x + 1)^(2*x)", "log(2*x)", "abs(x - 1.5)", "-(2*x)", "-x/2")]
)


@pytest.mark.parametrize("tree", _RULE_CASES, ids=format_expression)
def test_each_dual_rule_matches_full_array_duals(tree):
    domain = Interval(0.5, 3.0)
    _assert_matches_reference(tree, domain, np.linspace(0.5, 3.0, 11))
    _assert_matches_reference(tree, domain, 1.25)


@pytest.mark.parametrize(
    "text", ["0.5*exp(800*x)", "exp(800*x)*0.5", "exp(800*x)/4", "0.5*exp(800*x) - 1", "1 - 0.5*exp(800*x)"]
)
def test_overflow_under_a_constant_factor_matches_full_array_duals(text):
    # exp(800 x) is finite up to 0.887, but its derivative 800 exp(800 x) overflows
    # first, so the top points raise on both sides and the lower ones agree
    domain = Interval(0.0, 0.887)
    _assert_matches_reference(parse(text), domain, np.linspace(0.0, 0.887, 11))
    _assert_matches_reference(parse(text), domain, np.linspace(0.0, 0.8, 11))
    for x in (0.887, 0.8):
        _assert_matches_reference(parse(text), domain, x)
    with pytest.raises(DomainError):
        FunctionSpec(parse(text), domain).eval_with_derivative(0.887)


def test_value_overflowed_to_inf_under_a_constant_factor_departs_from_full_array_duals():
    # The one known departure.  At x = 1, 1e308 + 1e308*x overflows to inf while
    # its derivative stays 1e308.  The full rule for (...)*0.5 adds inf * 0.0 = nan
    # to the derivative, so the reference raises although exp(-inf) = 0 is finite.
    # Skipping that term gives (0, -0), what both sides give without the factor.
    f = parse_function("exp(-((1e308 + 1e308*x)*0.5))", DOMAIN)
    with pytest.raises(DomainError):
        _reference_eval_with_derivative(f, 1.0)
    out = f.eval_with_derivative(1.0)
    assert (out.value, out.derivative) == (0.0, 0.0)
    g = parse_function("exp(-(1e308 + 1e308*x))", DOMAIN)
    assert _reference_eval_with_derivative(g, 1.0) == g.eval_with_derivative(1.0)


# ---------------------------------------------------------------------------
# one rule per node: plain and dual evaluation share each domain check


def _unchecked(text: str, domain: Interval = DOMAIN) -> FunctionSpec:
    """A FunctionSpec without the construction-time finiteness check, so it can be
    evaluated where a domain rule fails."""
    with mock.patch.object(FunctionSpec, "__post_init__", lambda self: None):
        return parse_function(text, domain)


@pytest.mark.parametrize(
    "text, x, message",
    [
        ("1/(x-1)", 1.0, "division by zero"),
        ("log(x-1)", 0.5, "log argument must be positive"),
        ("(x-1)^0.5", 0.5, "negative base with non-integer exponent 0.5"),
        ("(x-1)^-1", 1.0, "zero base with negative exponent -1.0"),
        ("x^x", 0.0, "power with non-constant exponent requires a positive base"),
    ],
)
def test_value_and_derivative_raise_the_same_domain_error(text, x, message):
    f = _unchecked(text)
    for at in (x, np.array([2.0, x])):
        for evaluate in (f.value, f.eval_with_derivative):
            with pytest.raises(DomainError) as exc:
                evaluate(at)
            assert type(exc.value) is DomainError, (text, at, evaluate)
            assert str(exc.value) == message, (text, at, evaluate)


@pytest.mark.parametrize(
    "text, message",
    [
        ("abs(x-1)", "derivative of abs is undefined at 0"),
        ("(x-1)^0.5", "derivative of x^0.5 is undefined at 0"),
    ],
)
def test_an_undefined_derivative_fails_only_the_dual_evaluation(text, message):
    f = parse_function(text, Interval(1.0, 3.0))
    for at in (1.0, np.array([2.0, 1.0])):
        assert np.all(np.isfinite(f.value(at)))
        with pytest.raises(DerivativeUndefinedError) as exc:
            f.eval_with_derivative(at)
        assert str(exc.value) == message


class _Counted(np.ndarray):
    """An array that counts the ufunc calls made on it, each one array pass."""

    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.passes += 1
        inputs = tuple(i.view(np.ndarray) if isinstance(i, _Counted) else i for i in inputs)
        if "out" in kwargs:  # an in-place pass writes into a counted operand
            kwargs["out"] = tuple(o.view(np.ndarray) for o in kwargs["out"])
        out = getattr(ufunc, method)(*inputs, **kwargs)
        return out.view(_Counted) if isinstance(out, np.ndarray) else out


# (value, eval_with_derivative, derivative) array passes of one call on 9 points,
# domain and finiteness checks included: a refactor of the evaluator must not add work
_ARRAY_PASSES = {
    "x^2": (7, 11, 8),
    "x^4": (7, 11, 8),
    "exp(x)": (7, 10, 8),
    "exp(2*x)": (8, 11, 9),
    "x^2 + 3*x": (9, 14, 9),
    "(1 - x)^4": (8, 13, 10),
    "-(x^2)": (8, 13, 9),
    "exp(x) - 1": (8, 11, 8),
    "abs(x)": (7, 13, 10),
    "log(x + 1)": (10, 13, 10),
    "1 - 2*x": (8, 8, 4),
    "x^2^3": (7, 11, 8),
    "2/x/2": (10, 18, 14),
    "-x^2": (8, 13, 10),
    "x * (x + 1) * (x - 1)": (10, 18, 15),
    "1/(x-1)": (10, 16, 13),
    "log(x-1)": (10, 13, 10),
    "(x-1)^0.5": (10, 20, 17),
    "(x-1)^-1": (10, 18, 15),
    "x^x": (9, 17, 15),
    "abs(x-1)": (8, 14, 11),
}


def test_array_pass_table_covers_the_corpus():
    assert set(FUNCTION_TEXTS + EXTRA_EXPRESSIONS) <= set(_ARRAY_PASSES)


@pytest.mark.parametrize("text", list(_ARRAY_PASSES))
def test_array_passes_per_evaluation_are_pinned(text):
    f = parse_function(text, Interval(1.25, 3.0))
    x = np.linspace(1.5, 2.5, 9)
    counts = []
    for evaluate in (f.value, f.eval_with_derivative, f.derivative):
        _Counted.passes = 0
        evaluate(x.view(_Counted))
        counts.append(_Counted.passes)
    assert tuple(counts) == _ARRAY_PASSES[text]


# ---------------------------------------------------------------------------
# evaluations return arrays the caller owns


def _assert_fresh_outputs(f, x):
    x_before = x.copy()
    fd = f.eval_with_derivative(x)
    outputs = [f.value(x), fd.value, fd.derivative, f.derivative(x)]
    for out in outputs:
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == x.shape
    for i, a in enumerate(outputs + [x]):
        for b in (outputs + [x])[i + 1 :]:
            assert not np.shares_memory(a, b), f.text
    expected = [out.copy() for out in outputs]
    for out in outputs:
        out[:] = -123.0
    assert np.array_equal(x, x_before)
    again = f.eval_with_derivative(x)
    assert np.array_equal(f.value(x), expected[0])
    assert np.array_equal(again.value, expected[1])
    assert np.array_equal(again.derivative, expected[2])
    assert np.array_equal(f.derivative(x), expected[3])


@pytest.mark.parametrize("text", ["x", "x^1", "0*x + x", "3", "x^0", "2^3", "exp(x)"])
def test_evaluations_return_fresh_float_arrays(text):
    f = parse_function(text, DOMAIN)
    # linspace returns a view, np.array an array that owns its data
    for x in (np.linspace(DOMAIN.a, DOMAIN.b, 7), np.array([0.5, 1.0, 2.75])):
        _assert_fresh_outputs(f, x)


# ---------------------------------------------------------------------------
# grammar and structure


def test_parse_structure_of_shifted_power():
    assert parse("(1 - x)^4") == Pow(Sub(Constant(1.0), Variable()), Constant(4.0))


def test_power_is_right_associative():
    # x^2^3 = x^(2^3)
    f = parse_function("x^2^3", DOMAIN)
    assert f.value(2.0) == 256.0


def test_division_is_left_associative():
    f = parse_function("2/x/2", Interval(0.5, 3.0))
    assert f.value(2.0) == 0.5


def test_unary_minus_binds_inside_power():
    # per the grammar -x^2 is (-x)^2, not -(x^2)
    f = parse_function("-x^2", DOMAIN)
    g = parse_function("-(x^2)", DOMAIN)
    assert f.value(2.0) == 4.0
    assert g.value(2.0) == -4.0


def test_round_trip_is_structurally_stable():
    for text in FUNCTION_TEXTS + EXTRA_EXPRESSIONS:
        tree = parse(text)
        assert parse(format_expression(tree)) == tree, text


def test_repeated_evaluation_is_bit_identical():
    f = parse_function("exp(x) - 1", DOMAIN)
    xs = np.linspace(0.0, 3.0, 257)
    first = f.value(xs)
    second = f.value(xs)
    assert np.array_equal(first, second)
    assert f.value(0.7) == f.value(0.7)
    assert isinstance(f.value(0.7), float)


# ---------------------------------------------------------------------------
# every node class declares its syntax once, and the parser and printer read it


def _node_classes(cls=ExprNode):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


# the private bases (_Binary, _Function) hold shared rules, not syntax of their own
_CONCRETE_NODES = [cls for cls in _node_classes() if not cls.__name__.startswith("_")]

_CHILDREN = [
    Variable(), Add(Variable(), Constant(1.0)), Neg(Variable()), Pow(Variable(), Constant(2.0))
]


def _small_instance(cls, child):
    return cls(*(2.5 if f.type == "Real" else child for f in dataclasses.fields(cls)))


def test_node_walk_finds_every_public_node_class():
    public = {Constant, Variable, Neg, Add, Sub, Mul, Div, Pow, Exp, Log, Abs}
    assert public <= set(_CONCRETE_NODES)


@pytest.mark.parametrize("cls", _CONCRETE_NODES, ids=lambda cls: cls.__name__)
def test_every_node_class_prints_text_that_parses_back(cls):
    for child in _CHILDREN:
        node = _small_instance(cls, child)
        assert parse(format_expression(node)) == node, node


def test_every_operator_and_function_class_is_in_the_parser_tables():
    binary = [cls for cls in _CONCRETE_NODES if issubclass(cls, expr._Binary)]
    functions = [cls for cls in _CONCRETE_NODES if issubclass(cls, expr._Function)]
    assert {cls.symbol: cls for cls in binary} == expr._BINARY
    assert {cls.name: cls for cls in functions} == expr._FUNCTIONS


# ---------------------------------------------------------------------------
# errors


def test_truncated_input_reports_end_position():
    with pytest.raises(ParseError) as err:
        parse("x +")
    assert err.value.position == 3


def test_unexpected_character_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("2 @ 3")
    assert err.value.position == 2


def test_unknown_identifier_is_its_own_error():
    with pytest.raises(UnknownIdentifierError):
        parse("sin(x)")
    assert issubclass(UnknownIdentifierError, ParseError)


def test_functions_take_exactly_one_argument():
    with pytest.raises(ParseError, match="exactly one argument"):
        parse("exp(x, 2)")


def test_function_requires_parenthesized_argument():
    with pytest.raises(ParseError):
        parse("exp x")


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(ParseError):
        parse("(x + 1")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse("x 1")


def test_overflowing_literal_is_a_parse_error_at_its_position():
    with pytest.raises(ParseError, match="overflows float64") as err:
        parse("x + 1e400")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        str(parse("1e400"))
    assert err.value.position == 0
    with pytest.raises(ParseError):
        FunctionSpec(parse("1e400"), Interval(0.0, 1.0))
    # an underflowing literal is a finite number, zero
    assert parse("1e-400") == Constant(0.0)


def test_log_domain_violation_caught_at_construction():
    with pytest.raises(DomainError):
        parse_function("log(x - 5)", Interval(0.0, 1.0))


def test_division_by_zero_on_grid_caught_at_construction():
    with pytest.raises(DomainError):
        parse_function("2/x/2", Interval(-1.0, 1.0))


def test_evaluation_outside_domain_rejected():
    f = parse_function("x^2", Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        f.value(1.1)
    # a hair outside is tolerated, endpoint roundoff is not an error
    assert f.value(1.0 + 5e-10) >= 1.0


def test_abs_derivative_undefined_at_zero():
    f = parse_function("abs(x)", Interval(-1.0, 1.0))
    assert f.value(0.0) == 0.0
    with pytest.raises(DerivativeUndefinedError):
        f.eval_with_derivative(0.0)


def test_fractional_power_derivative_undefined_at_zero():
    f = parse_function("x^0.5", Interval(0.0, 1.0))
    assert f.value(0.0) == 0.0
    with pytest.raises(DerivativeUndefinedError):
        f.eval_with_derivative(0.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


# ---------------------------------------------------------------------------
# the evaluation checks read truth values as np.all / np.any do

_FLAGS = [
    True, False, 0.0, 1.5, math.nan, math.inf, -math.inf,
    np.bool_(True), np.bool_(False), np.float64(math.nan), np.float32(0.0),
    np.array(True), np.array(False), np.array(math.nan), np.array([]), np.array([], dtype=bool),
    np.array([True, False]), np.array([False, False]), np.ones((2, 3), bool), np.array([0.0, math.nan]),
]  # fmt: skip


def test_check_helpers_keep_the_truth_values_of_np_all_and_np_any():
    for flags in _FLAGS:
        assert expr._all(flags) is bool(np.all(flags)), flags
        assert expr._any(flags) is bool(np.any(flags)), flags


# each reaches one check at or near x = 0.3, or fails construction on [0, 1]
_CHECKED_TEXTS = (
    "x^2",
    "log(abs(x - 0.3))",  # log of zero
    "1/(x - 0.3)",  # division by zero
    "(x - 0.3)^-1",  # zero base, negative exponent
    "((x - 0.3)^2)^0.25",  # x^c derivative at 0
    "abs(x - 0.3)",  # abs derivative at 0
    "exp(1/(x - 0.3))",  # overflows to inf just right of 0.3
    "(x + 1)^x",  # non-constant exponent on a positive base
    "(x - 0.3)^x",  # ... on a non-positive one: fails on the construction grid
    "(x - 0.3)^0.5",  # negative base: fails on the construction grid
    "log(x)",  # log of zero at the grid point 0
    "exp(1000*x)",  # not finite at the grid point 1
)

_CHECKED_INPUTS = [
    0.3, 0.3 + 1e-5, 0.5, 2.0, math.nan, math.inf, -math.inf,
    np.float64(0.3), np.float32(0.3), np.float32(0.5), np.float64(math.nan),
    np.array(0.3), np.array(0.5), np.array(math.nan), np.array([]), np.array([], dtype=np.float32),
    np.array([0.1, 0.3]), np.array([0.5, 0.3 + 1e-5]), np.array([0.5, 0.7], dtype=np.float32),
    np.array([0.5, math.nan]), np.array([0.5, math.inf]), np.array([0.5, -math.inf]),
    np.array([0.5, 2.0]),
]  # fmt: skip


def _check_outcomes():
    """Per text, input and evaluation: the DomainError class and message, or the
    result's types, dtypes, shapes and bytes."""
    outcomes = []
    for text in _CHECKED_TEXTS:
        for x in _CHECKED_INPUTS:
            for method in ("value", "eval_with_derivative"):
                try:
                    out = getattr(parse_function(text, Interval(0.0, 1.0)), method)(x)
                except DomainError as exc:
                    outcomes.append(("error", type(exc), str(exc)))
                    continue
                parts = (out.value, out.derivative) if isinstance(out, DualValue) else (out,)
                outcomes.append(
                    tuple((type(v), np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes())
                          for v in parts)
                )  # fmt: skip
    return outcomes


def test_check_helpers_keep_every_domain_error_class_and_message():
    got = _check_outcomes()
    with mock.patch.object(expr, "_all", lambda flags: bool(np.all(flags))), mock.patch.object(
        expr, "_any", lambda flags: bool(np.any(flags))
    ):
        expected = _check_outcomes()
    assert got == expected
    errors = [o[1:] for o in got if o[0] == "error"]
    messages = {message for _, message in errors}
    for part in (
        "input outside domain", "log argument must be positive", "division by zero",
        "zero base with negative exponent", "derivative of x^0.25 is undefined at 0",
        "derivative of abs is undefined at 0", "produced a non-finite value",
        "produced a non-finite value or derivative", "is not finite everywhere",
    ):  # fmt: skip
        assert any(part in message for message in messages), part
    assert {cls for cls, _ in errors} == {DomainError, DerivativeUndefinedError}


# ---------------------------------------------------------------------------
# value writes into the arrays it made, and only float64 ones

_VALUE_INPUTS = _CHECKED_INPUTS + [np.array([0, 1]), np.array([0.0, 0.3, 1.0], dtype=np.float32)]

# sha256 of repr(_value_outcomes()) as computed before value wrote into its
# own temporaries, at numpy 2.4.6
_VALUE_DIGEST = "ce646bffcebf1daaa1ec834e4ebf714da8040cf91f8c30d97acb8995ebf30fdd"


def _value_outcomes():
    """Per text and input on [0, 1]: the error class and message of value(x),
    or the type, dtype, shape and bytes of its result."""
    outcomes = []
    for text in _CHECKED_TEXTS:
        for x in _VALUE_INPUTS:
            try:
                v = parse_function(text, Interval(0.0, 1.0)).value(x)
            except DomainError as exc:
                outcomes.append((text, "error", type(exc).__name__, str(exc)))
                continue
            a = np.asarray(v)
            outcomes.append((text, type(v).__name__, str(a.dtype), a.shape, a.tobytes().hex()))
    return outcomes


def test_value_outcomes_are_pinned():
    got = _value_outcomes()
    assert sum(o[1] == "error" for o in got) > 100 and sum(o[1] == "ndarray" for o in got) > 50
    if np.__version__ == "2.4.6":  # float bits depend on numpy and libm
        assert hashlib.sha256(repr(got).encode()).hexdigest() == _VALUE_DIGEST


def _value_outcome(tree, x):
    try:
        v = FunctionSpec(tree, DOMAIN).value(x)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(v), v.dtype, v.tobytes()


@settings(deadline=None, derandomize=True, max_examples=400)
@given(_shaped_trees)
def test_value_in_place_is_bitwise_value_in_fresh_arrays(tree):
    for x in (_EQUIVALENCE_POINTS, _EQUIVALENCE_POINTS.astype(np.float32), np.arange(3)):
        got = _value_outcome(tree, x)
        with mock.patch.object(expr, "_scratch", lambda v, x: False):
            assert got == _value_outcome(tree, x), format_expression(tree)


@pytest.mark.parametrize("text", ["-x + exp(x)", "exp(-x)/2"])
def test_value_on_integer_arrays_is_its_value_on_floats(text):
    # -x on int64 is an int64 array the evaluation made: no float64 result may be written into it
    f = parse_function(text, Interval(0.0, 3.0))
    got = f.value(np.arange(4))
    assert got.dtype == np.float64
    assert np.array_equal(got, f.value(np.arange(4.0)))


# ---------------------------------------------------------------------------
# derivative reads only the values of f that a rule or a check needs


def _eager_init(self, compute=None, result=None):
    """_Deferred computing at once: each value is computed where its pair is
    built, as forward mode did before values were deferred."""
    self.compute, self.result = None, result if compute is None else compute()


_PARITY_TEXTS = _CHECKED_TEXTS + FUNCTION_TEXTS + EXTRA_EXPRESSIONS
_PARITY_INPUTS = _CHECKED_INPUTS + [np.random.default_rng(28).uniform(0.0, 1.0, 257)]


def _derivative_outcomes(evaluate):
    """Per text and input, with f unchecked on [0, 1]: the error class and
    message of evaluate(f, x), or the type, dtype, shape and bytes of its f'."""
    outcomes = []
    for text in _PARITY_TEXTS:
        f = _unchecked(text, Interval(0.0, 1.0))
        for x in _PARITY_INPUTS:
            try:
                d = evaluate(f, x)
            except DomainError as exc:
                outcomes.append((text, "error", type(exc).__name__, str(exc)))
                continue
            v = np.asarray(d)
            outcomes.append((text, type(d).__name__, str(v.dtype), v.shape, v.tobytes().hex()))
    return outcomes


# sha256 of repr(_derivative_outcomes(...)) for f.eval_with_derivative(x).derivative
# as computed before values were deferred, at numpy 2.4.6
_EAGER_DERIVATIVE_DIGEST = "365f839a1665215dec94176bf6df6d42f369f30871d14787cabc2ea1839fec78"


def test_derivative_is_the_derivative_of_eager_forward_mode():
    got = _derivative_outcomes(lambda f, x: f.derivative(x))
    with mock.patch.object(expr._Deferred, "__init__", _eager_init):
        expected = _derivative_outcomes(lambda f, x: f.eval_with_derivative(x).derivative)
    # no input here has a non-finite f beside a finite f', so every outcome agrees
    assert got == expected
    assert sum(o[1] == "error" for o in got) > 200 and sum(o[1] == "ndarray" for o in got) > 100
    if np.__version__ == "2.4.6":  # float bits depend on numpy and libm
        assert hashlib.sha256(repr(got).encode()).hexdigest() == _EAGER_DERIVATIVE_DIGEST


def test_derivative_does_not_check_the_value_of_f():
    # f overflows to inf at 0.5001 alone, where f' = 0; the other point is finite in both
    f = parse_function("1.7976931348623157e308 + 1e295*(1 - 1e9*(x - 0.5001)^2)", Interval(0.0, 1.0))
    assert f.derivative(0.5001) == 0.0
    assert np.array_equal(f.derivative(np.array([0.2, 0.5001])), [f.derivative(0.2), 0.0])
    for at in (0.5001, np.array([0.2, 0.5001])):
        for evaluate in (f.value, f.eval_with_derivative):
            with pytest.raises(DomainError, match="produced a non-finite value"):
                evaluate(at)
