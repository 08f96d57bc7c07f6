"""Single-variable expression trees with exact-grammar parsing and forward-mode derivatives.

The grammar (one free variable ``x``, functions exp/log/abs):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # '^' is right-associative
    unary  := '-' unary | atom
    atom   := NUMBER | 'x' | ('exp' | 'log' | 'abs') '(' expr ')' | '(' expr ')'

Note that per this grammar a leading unary minus is part of a power's base:
``-x^2`` parses as ``(-x)^2``.  Write ``-(x^2)`` for the other reading.

Each node class declares its syntax and value rule once: an operator its
``symbol``, binding ``level`` and ``fn``, a function its ``name``, domain
``check``, ``fn`` and derivative ``rule``.  The parser's tables, the printer's
parentheses and one ``evaluate`` per node family read them, for floats, arrays
and ``DualValue`` seeds alike, and repeated evaluation is bit-identical.
``value``, ``derivative`` and ``eval_with_derivative`` return arrays the caller owns.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

Real = float
Scalar = Union[float, np.ndarray]


class ParseError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


class DomainError(ValueError):
    """Evaluation left the mathematical domain (log of a non-positive value, etc.)."""


class DerivativeUndefinedError(DomainError):
    """The requested derivative does not exist at this point (abs at 0, x^c at 0 for c < 1)."""


class NonConvergenceError(RuntimeError):
    """Numeric refinement failed to reach the requested tolerance."""


def _all(flags) -> bool:
    """np.all(flags) without numpy's Python wrapper; flags may be a Python or numpy scalar."""
    return bool(flags.all() if isinstance(flags, (np.ndarray, np.generic)) else flags)


def _any(flags) -> bool:
    """np.any(flags) without numpy's Python wrapper; flags may be a Python or numpy scalar."""
    return bool(flags.any() if isinstance(flags, (np.ndarray, np.generic)) else flags)


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b, both finite."""

    a: Real
    b: Real

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> Real:
        return self.b - self.a

    def contains(self, x, slack: float = 0.0) -> bool:
        return _all(x >= self.a - slack) and _all(x <= self.b + slack)


# ---------------------------------------------------------------------------
# dual numbers


def _is_zero(d) -> bool:
    """True for the scalar zero derivative a constant carries."""
    return not isinstance(d, np.ndarray) and d == 0.0


class _Deferred:
    """A value read by calling it: compute() on the first call, the kept result
    after it.  compute, and with it the operands it reads, is dropped once it has run."""

    __slots__ = ("compute", "result")

    def __init__(self, compute=None, result=None):
        self.compute, self.result = compute, result

    def __call__(self):
        if self.compute is not None:
            self.result, self.compute = self.compute(), None
        return self.result


class DualValue:
    """A (value, derivative) pair; each component is a float or an array of x's shape,
    and a constant's derivative is the scalar 0.0.  It carries arithmetic only; the
    nodes apply every other rule and every domain check.

    The derivative is computed when the pair is built, the value when it is first
    read (and kept): the pairs that arithmetic and the nodes build defer it, so an
    evaluation that reads only the derivative computes f's value at a node only
    where a derivative rule or a domain check reads it."""

    __slots__ = ("_value", "derivative")

    def __init__(self, value, derivative: Scalar):
        self._value = value if isinstance(value, _Deferred) else _Deferred(result=value)
        self.derivative = derivative

    @property
    def value(self) -> Scalar:
        return self._value()

    def __eq__(self, other):
        if other.__class__ is not DualValue:
            return NotImplemented
        return (self.value, self.derivative) == (other.value, other.derivative)

    def __repr__(self) -> str:
        return f"DualValue(value={self.value!r}, derivative={self.derivative!r})"

    def __add__(self, other: "DualValue") -> "DualValue":
        d, e = self.derivative, other.derivative
        der = d if _is_zero(e) else e if _is_zero(d) else d + e
        u, v = self._value, other._value
        return DualValue(_Deferred(lambda: u() + v()), der)

    def __sub__(self, other: "DualValue") -> "DualValue":
        d, e = self.derivative, other.derivative
        der = d if _is_zero(e) else -e if _is_zero(d) else d - e
        u, v = self._value, other._value
        return DualValue(_Deferred(lambda: u() - v()), der)

    def __mul__(self, other: "DualValue") -> "DualValue":
        if _is_zero(other.derivative):
            der = self.derivative * other.value
        elif _is_zero(self.derivative):
            der = self.value * other.derivative
        else:
            der = self.derivative * other.value + self.value * other.derivative
        u, v = self._value, other._value
        return DualValue(_Deferred(lambda: u() * v()), der)

    def __truediv__(self, other: "DualValue") -> "DualValue":
        num = self.derivative * other.value
        if not _is_zero(other.derivative):
            num = num - self.value * other.derivative
        u, v = self._value, other._value
        return DualValue(_Deferred(lambda: u() / v()), num / (other.value * other.value))

    def __neg__(self) -> "DualValue":
        u = self._value
        return DualValue(_Deferred(lambda: -u()), -self.derivative)


def _value_of(v):
    return v.value if isinstance(v, DualValue) else v


def _unary(v, check, fn, rule, *args):
    """check(v, *args), then fn(v, *args) on a plain value; on a dual (u, d),
    check(u, *args), then the pair of fn(u, *args), deferred, and
    rule(u, d, value, *args), where value() reads the former."""
    if not isinstance(v, DualValue):
        check(v, *args)
        return fn(v, *args)
    u = v.value
    check(u, *args)
    out = _Deferred(lambda: fn(u, *args))
    return DualValue(out, rule(u, v.derivative, out, *args))


def _no_check(u, *args) -> None:
    pass


def _pow_check(base: Scalar, c: float) -> None:
    if not float(c).is_integer() and _any(base < 0.0):
        raise DomainError(f"negative base with non-integer exponent {c}")
    if c < 0.0 and _any(base == 0.0):
        raise DomainError(f"zero base with negative exponent {c}")


def _pow_rule(u, d, value, c: float):
    if c == 0.0:
        return d * 0.0
    if c == 1.0:
        return d
    if c < 1.0 and _any(u == 0.0):
        raise DerivativeUndefinedError(f"derivative of x^{c} is undefined at 0")
    _pow_check(u, c - 1.0)
    der = c * u ** (c - 1.0)
    if not isinstance(d, np.ndarray) and d == 1.0 and isinstance(der, np.ndarray) and der.dtype == np.float64:
        return der  # der * 1.0 would be der in bits and in dtype: the seed's unit factor
    return der * d


# ---------------------------------------------------------------------------
# expression nodes

# binding levels, loosest first: an operand that binds looser than its place
# in the text needs parentheses
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


class ExprNode:
    """Immutable expression-tree node; every subclass is a frozen dataclass of its
    annotated fields, binding at ``level`` in printed text."""

    __slots__ = ()
    level = _LEVEL_ATOM

    def __init_subclass__(cls):
        dataclass(frozen=True)(cls)

    def evaluate(self, x):
        raise NotImplementedError

    def __str__(self) -> str:
        return format_expression(self)


class Constant(ExprNode):
    value: Real

    def evaluate(self, x):
        if isinstance(x, DualValue):
            return DualValue(self.value, 0.0)
        return self.value


class Variable(ExprNode):
    def evaluate(self, x):
        return x


class Neg(ExprNode):
    operand: ExprNode
    level = _LEVEL_NEG

    def evaluate(self, x):
        return -self.operand.evaluate(x)


class _Binary(ExprNode):
    """A left-associative infix operator: ``symbol`` in text, binding at ``level``,
    with value ``fn(left, right)`` on plain and dual values alike."""

    left: ExprNode
    right: ExprNode

    def evaluate(self, x):
        return self.fn(self.left.evaluate(x), self.right.evaluate(x))


class Add(_Binary):
    symbol = "+"
    level = _LEVEL_ADD
    fn = staticmethod(operator.add)


class Sub(_Binary):
    symbol = "-"
    level = _LEVEL_ADD
    fn = staticmethod(operator.sub)


class Mul(_Binary):
    symbol = "*"
    level = _LEVEL_MUL
    fn = staticmethod(operator.mul)


class Div(_Binary):
    symbol = "/"
    level = _LEVEL_MUL

    @staticmethod
    def fn(num, den):
        if _any(_value_of(den) == 0.0):
            raise DomainError("division by zero")
        return num / den


class Pow(ExprNode):
    base: ExprNode
    exponent: ExprNode
    level = _LEVEL_POW

    def evaluate(self, x):
        b = self.base.evaluate(x)
        if isinstance(self.exponent, Constant):
            return _unary(b, _pow_check, operator.pow, _pow_rule, self.exponent.value)
        if not _depends_on_x(self.exponent):
            # e.g. x^2^3: the exponent folds to a number, so the constant-power
            # rules (integer powers at any base) apply
            return _unary(b, _pow_check, operator.pow, _pow_rule, float(self.exponent.evaluate(0.0)))
        w = self.exponent.evaluate(x)
        u = _value_of(b)
        # non-constant exponent: restrict to positive base so u^w = exp(w log u) is well defined
        if _any(u <= 0.0):
            raise DomainError("power with non-constant exponent requires a positive base")
        if not isinstance(b, DualValue):
            return u**w
        val = u**w.value
        return DualValue(val, val * (w.derivative * np.log(u) + w.value * b.derivative / u))


class _Function(ExprNode):
    """A one-argument function: ``name(operand)`` in text, defined where
    ``check(u)`` passes, with value ``fn(u)`` and, on a dual (u, d), derivative
    ``rule(u, d, value)``, where ``value()`` reads fn(u)."""

    operand: ExprNode
    check = staticmethod(_no_check)

    def evaluate(self, x):
        return _unary(self.operand.evaluate(x), self.check, self.fn, self.rule)


class Exp(_Function):
    name = "exp"
    fn = staticmethod(np.exp)
    rule = staticmethod(lambda u, d, value: value() * d)


class Log(_Function):
    name = "log"
    fn = staticmethod(np.log)
    rule = staticmethod(lambda u, d, value: d / u)

    @staticmethod
    def check(u):
        if _any(u <= 0.0):
            raise DomainError("log argument must be positive")


class Abs(_Function):
    name = "abs"
    fn = staticmethod(np.abs)

    @staticmethod
    def rule(u, d, value):
        if _any(u == 0.0):
            raise DerivativeUndefinedError("derivative of abs is undefined at 0")
        return np.sign(u) * d


def _depends_on_x(node: ExprNode) -> bool:
    if isinstance(node, Variable):
        return True
    return any(_depends_on_x(v) for v in vars(node).values() if isinstance(v, ExprNode))


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

# every operator and function the grammar knows, read from the node classes
_BINARY = {cls.symbol: cls for cls in _Binary.__subclasses__()}
_FUNCTIONS = {cls.name: cls for cls in _Function.__subclasses__()}


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"; only an op token's text is an operator
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect_op(self, op: str, what: str):
        tok = self._peek()
        if tok.text == op:
            return self._advance()
        raise ParseError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.position)

    def _binary(self, level: int = _LEVEL_ADD) -> ExprNode:
        """Factors joined by the operators binding at level or tighter, each operator
        left-associative (precedence climbing)."""
        node = self._factor()
        while (cls := _BINARY.get(self._peek().text)) is not None and cls.level >= level:
            self._advance()
            node = cls(node, self._binary(cls.level + 1))
        return node

    def _factor(self) -> ExprNode:
        base = self._unary()
        if self._peek().text == "^":
            self._advance()
            return Pow(base, self._factor())
        return base

    def _unary(self) -> ExprNode:
        if self._peek().text == "-":
            self._advance()
            return Neg(self._unary())
        return self._atom()

    def _atom(self) -> ExprNode:
        tok = self._advance()
        if tok.kind == "number":
            value = float(tok.text)
            if not np.isfinite(value):
                raise ParseError(f"numeric literal {tok.text!r} overflows float64", tok.position)
            return Constant(value)
        if tok.kind == "ident":
            if tok.text == "x":
                return Variable()
            if tok.text in _FUNCTIONS:
                self._expect_op("(", f"'(' after {tok.text!r} (functions take exactly one argument)")
                arg = self._binary()
                nxt = self._peek()
                if nxt.text == ",":
                    raise ParseError(
                        f"{tok.text!r} takes exactly one argument", nxt.position
                    )
                self._expect_op(")", "')'")
                return _FUNCTIONS[tok.text](arg)
            raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.position)
        if tok.text == "(":
            node = self._binary()
            self._expect_op(")", "')'")
            return node
        raise ParseError(
            f"expected a number, 'x', a function call, or '(', got {tok.text or 'end of input'!r}",
            tok.position,
        )


def parse(text: str) -> ExprNode:
    """Parse expression text into an immutable tree."""
    parser = _Parser(text)
    node = parser._binary()
    tok = parser._peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.position)
    return node


# ---------------------------------------------------------------------------
# printing


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def _wrap(node: ExprNode, min_level: int, bare_power: bool = True) -> str:
    """node's text, in parentheses if it binds looser than min_level, or is a
    power where bare_power is False: -(x^2) differs from -x^2, as (x^2)^3 from x^2^3."""
    s = format_expression(node)
    if node.level < min_level or (not bare_power and node.level == _LEVEL_POW):
        return f"({s})"
    return s


def format_expression(node: ExprNode) -> str:
    """Text that re-parses to a structurally equal tree, for a tree built by parse.
    A negative Constant(-c) built in code re-parses to Neg(Constant(c)), of equal value."""
    if isinstance(node, Constant):
        return _format_number(node.value)
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _LEVEL_NEG, bare_power=False)
    if isinstance(node, _Binary):
        op = f" {node.symbol} " if node.level == _LEVEL_ADD else node.symbol
        return _wrap(node.left, node.level) + op + _wrap(node.right, node.level + 1)
    if isinstance(node, Pow):
        b = _wrap(node.base, _LEVEL_NEG, bare_power=False)
        return f"{b}^{_wrap(node.exponent, _LEVEL_NEG)}"
    if isinstance(node, _Function):
        return f"{node.name}({format_expression(node.operand)})"
    raise TypeError(f"unknown node type {type(node).__name__}")


# ---------------------------------------------------------------------------
# function objects

_CONSTRUCTION_GRID = 129


def _shaped_like(out, x):
    """A float for a scalar x, else a float array of x's shape that the caller owns:
    ``out`` itself when it already is one (a fresh result, not x), else a copy."""
    if not isinstance(x, np.ndarray):
        return float(out)
    if (
        isinstance(out, np.ndarray)
        and out is not x
        and out.base is None
        and out.dtype == np.float64
        and out.shape == x.shape
    ):
        return out
    return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()


@dataclass(frozen=True)
class FunctionSpec:
    """An expression restricted to a closed domain, finite on a construction-time sample grid."""

    body: ExprNode
    domain: Interval
    text: str = ""

    def __post_init__(self):
        if not self.text:
            object.__setattr__(self, "text", format_expression(self.body))
        grid = np.linspace(self.domain.a, self.domain.b, _CONSTRUCTION_GRID)
        if not _all(np.isfinite(self._evaluate(grid))):
            raise DomainError(
                f"{self.text!r} is not finite everywhere on [{self.domain.a}, {self.domain.b}]"
            )

    def _evaluate(self, x, read=None):
        """The tree at x, or given read, read(the pair at the dual seed (x, 1)), so
        that the values read compute under the same error handling; x is checked
        against the domain first."""
        slack = 1e-9 * max(1.0, abs(self.domain.a), abs(self.domain.b))
        if not self.domain.contains(x, slack=slack):
            raise DomainError(
                f"input outside domain [{self.domain.a}, {self.domain.b}] of {self.text!r}"
            )
        if read is not None:
            # a scalar 1 for arrays too; float64, so a float32 x gets float64 derivatives
            x = DualValue(x if isinstance(x, np.ndarray) else float(x), np.float64(1.0))
        try:
            with np.errstate(all="ignore"):
                out = self.body.evaluate(x)
                return out if read is None else read(out)
        except OverflowError:  # Python-float arithmetic raises where numpy gives inf or nan
            raise DomainError(f"{self.text!r} overflows float64") from None
        except ZeroDivisionError:
            raise DomainError(f"{self.text!r} divides by zero in float64") from None

    def value(self, x: Scalar) -> Scalar:
        """Evaluate at a float or ndarray; raises DomainError off-domain or on non-finite results."""
        out = self._evaluate(x)
        if not _all(np.isfinite(out)):
            raise DomainError(f"{self.text!r} produced a non-finite value")
        return _shaped_like(out, x)

    __call__ = value

    def eval_with_derivative(self, x: Scalar) -> DualValue:
        """Forward-mode evaluation returning the (value, derivative) pair at x.
        Raises DomainError off-domain, where a node's domain check fails, where
        the derivative is undefined (DerivativeUndefinedError) or where f or f'
        is not finite."""
        value, derivative = self._evaluate(x, lambda out: (out.value, out.derivative))
        if not (_all(np.isfinite(value)) and _all(np.isfinite(derivative))):
            raise DomainError(f"{self.text!r} produced a non-finite value or derivative")
        return DualValue(_shaped_like(value, x), _shaped_like(derivative, x))

    def derivative(self, x: Scalar) -> Scalar:
        """f' at x, as eval_with_derivative(x).derivative, but computing f's
        value only at the nodes whose derivative rule or domain check reads it.
        It raises as eval_with_derivative does, with one exception: f's own
        value is not checked, so where f overflows and f' is finite, f' is
        returned (value and eval_with_derivative raise there)."""
        derivative = self._evaluate(x, lambda out: out.derivative)
        if not _all(np.isfinite(derivative)):
            raise DomainError(f"{self.text!r} produced a non-finite value or derivative")
        return _shaped_like(derivative, x)


@dataclass(frozen=True)
class DerivedFunction:
    """A pointwise-defined function (such as |f'| or |f'|^q) usable wherever only
    evaluation is needed."""

    fn: Callable[[Scalar], Scalar]

    def __call__(self, x: Scalar) -> Scalar:
        return self.fn(x)

    value = __call__


def derivative_power(f: FunctionSpec, q: Optional[float] = None) -> DerivedFunction:
    """|f'| when q is None, |f'|^q otherwise."""
    if q is None:
        return DerivedFunction(lambda x: np.abs(f.derivative(x)))
    return DerivedFunction(lambda x: np.abs(f.derivative(x)) ** q)


def parse_function(text: str, domain: Interval) -> FunctionSpec:
    """Parse text and attach a domain in one step."""
    return FunctionSpec(parse(text), domain, text)
