"""Property-based checks for structure-preserving printing and mean orderings."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hhkit.expr import (
    Abs,
    Add,
    Constant,
    Div,
    Exp,
    Log,
    Mul,
    Neg,
    Pow,
    Sub,
    Variable,
    format_expression,
    parse,
)
from hhkit.kernels import HolderExponents
from hhkit.means import MEAN_KINDS, MeanRequest, mean, mean_chain_check

_constants = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
).map(Constant)

# parse never builds a negative Constant: it reads -c as Neg(Constant(c))
_negative_constants = st.floats(min_value=-1e6, max_value=0.0, exclude_max=True).map(Constant)


def _extend(children):
    binary = [Add, Sub, Mul, Div, Pow]
    unary = [Neg, Exp, Log, Abs]
    return st.one_of(
        [st.builds(cls, children, children) for cls in binary]
        + [st.builds(cls, children) for cls in unary]
    )


def _trees_of(constants):
    return st.recursive(st.one_of(constants, st.just(Variable())), _extend, max_leaves=25)


_trees = _trees_of(_constants)


def _as_parsed(node):
    """node with each negative Constant(-c) replaced by Neg(Constant(c))."""
    if isinstance(node, Constant):
        return Neg(Constant(-node.value)) if node.value < 0.0 else node
    children = {f.name: _as_parsed(getattr(node, f.name)) for f in dataclasses.fields(node)}
    return dataclasses.replace(node, **children)


@np.errstate(all="ignore")  # an overflow is part of the outcome, the same on both sides
def _outcome(tree, x):
    try:
        return repr(tree.evaluate(x))
    except Exception as exc:  # noqa: BLE001 - the exception class is the outcome
        return type(exc)


@settings(deadline=None, derandomize=True)
@given(_trees)
def test_printed_trees_reparse_to_the_same_structure(tree):
    assert parse(format_expression(tree)) == tree


@settings(deadline=None, derandomize=True)
@given(_trees_of(st.one_of(_constants, _negative_constants)))
def test_negative_constants_reparse_as_negations_of_equal_value(tree):
    reparsed = parse(format_expression(tree))
    assert reparsed == _as_parsed(tree)
    for x in (-1.5, 0.5, 2.0):
        assert _outcome(reparsed, x) == _outcome(tree, x)


@settings(deadline=None, derandomize=True)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_mean_chain_and_symmetry_hold_on_random_pairs(a, b):
    lo, hi = sorted((a, b))
    assert mean_chain_check(lo, hi)
    for kind in MEAN_KINDS:
        p = 2.0 if kind == "p_logarithmic" else None
        assert mean(MeanRequest(kind, lo, hi, p)) == mean(MeanRequest(kind, hi, lo, p))


@settings(deadline=None, derandomize=True)
@given(st.floats(min_value=1.0, max_value=50.0, exclude_min=True))
def test_conjugate_exponents_satisfy_the_identity(p):
    hp = HolderExponents(p)
    assert hp.q > 1.0
    assert abs(1.0 / hp.p + 1.0 / hp.q - 1.0) <= 1e-14
