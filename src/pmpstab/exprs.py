"""Small expression language for right-hand sides, Lyapunov functions and
feedback laws.

Grammar (no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' integer)?          # right-assoc, integer exponents only
    atom    := number | 'pi' | x<k> | fn '(' expr ')' | '(' expr ')'
    fn      := sin cos tan exp log sqrt abs tanh sign

Expressions are stationary: the state variables x1..xn (1-based, checked
against the declared dimension at parse time) are the only variables, so
`t` and the controls u1, u2, ... are rejected at parse time.  sign(0)
evaluates to 0.  Differentiation is symbolic; derivatives taken through
abs/sign are valid away from the kink and the kink arguments can be
recovered with `kink_arguments`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "ExprError", "ExprSyntaxError", "ExprDomainError",
    "parse", "evaluate", "diff", "diff_with_flag", "to_source",
    "kink_arguments", "substitute", "compile_scalar", "compile_batch",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh", "sign")


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ExprError):
    pass


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # the state variable x<index>, 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+' '-' '*' '/' '^'
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]


# ------------------------------------------------------- smart constructors
# Used by the differentiator so derivatives come out readable; they fold
# literal zeros/ones, and two numbers only into a finite number, which
# has a source spelling.

def _num(v: float) -> Expr:
    if v < 0:
        return Neg(Num(-v))
    return Num(float(v))


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if (isinstance(a, Num) and isinstance(b, Num)
            and math.isfinite(a.value + b.value)):
        return _num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return _neg(b)
    if (isinstance(a, Num) and isinstance(b, Num)
            and math.isfinite(a.value - b.value)):
        return _num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if (isinstance(a, Num) and isinstance(b, Num)
            and math.isfinite(a.value * b.value)):
        return _num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return Num(0.0)
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Neg):
        return a.arg
    if _is_zero(a):
        return Num(0.0)
    return Neg(a)


def _pow(a: Expr, k: int) -> Expr:
    if k == 0:
        return Num(1.0)
    if k == 1:
        return a
    return BinOp("^", a, Num(float(k)))


# ------------------------------------------------------------------ parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_IDENT_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


class _Parser:
    def __init__(self, source: str, n: int):
        self.source = source
        self.n = n
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(source):
            match = _TOKEN_RE.match(source, pos)
            if match is None or match.end() == pos:
                stripped = source[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(source) - len(stripped)
                raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
            for kind in ("num", "ident", "op"):
                text = match.group(kind)
                if text is not None:
                    self.tokens.append((kind, text, match.start(kind)))
                    break
            pos = match.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.source))
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.peek()
        if tok is None or tok[1] != text:
            pos = tok[2] if tok else len(self.source)
            raise ExprSyntaxError(f"expected {text!r}", pos)
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (tok := self.peek()) is not None and tok[1] in "+-":
            self.next()
            e = BinOp(tok[1], e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (tok := self.peek()) is not None and tok[1] in "*/":
            self.next()
            e = BinOp(tok[1], e, self.unary())
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[1] == "^":
            self.next()
            exp_tok = self.peek()
            if exp_tok is None or exp_tok[0] != "num":
                pos = exp_tok[2] if exp_tok else len(self.source)
                raise ExprSyntaxError("exponent must be an integer literal", pos)
            self.next()
            value = float(exp_tok[1])
            if value != int(value):
                raise ExprSyntaxError("exponent must be an integer literal", exp_tok[2])
            return BinOp("^", base, Num(value))
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ExprSyntaxError(
                    f"number literal {text!r} overflows", pos)
            return Num(value)
        if kind == "op":
            if text == "(":
                e = self.expr()
                self.expect(")")
                return e
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        # identifier
        if text == "pi":
            return Num(math.pi)
        if text == "t":
            raise ExprSyntaxError("'t' is not allowed: expressions are stationary", pos)
        var_match = _IDENT_VAR_RE.match(text)
        if var_match is not None:
            idx = int(var_match.group(1))
            if idx > self.n:
                raise ExprSyntaxError(
                    f"variable {text!r} out of range (declared dimension {self.n})", pos)
            return Var(idx)
        if text in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(text, arg)
        raise ExprSyntaxError(f"unknown identifier {text!r}", pos)


def parse(source: str, n: int) -> Expr:
    """Parse `source` as an expression of the n state variables x1..xn."""
    return _Parser(source, n).parse()


# --------------------------------------------------------------- evaluation

def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


_SCALAR_FNS: dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "abs": abs, "tanh": math.tanh, "sign": _sign,
}


def evaluate(e: Expr, x: Sequence[float] = ()) -> float:
    """Evaluate at the state x in IEEE double arithmetic; domain violations
    raise ExprDomainError."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index - 1])
    if isinstance(e, Neg):
        return -evaluate(e.arg, x)
    if isinstance(e, BinOp):
        a = evaluate(e.lhs, x)
        if e.op == "^":
            try:
                return a ** int(e.rhs.value)  # type: ignore[union-attr]
            except OverflowError as exc:
                raise ExprDomainError(str(exc)) from exc
        b = evaluate(e.rhs, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise ExprDomainError("division by zero")
        return a / b
    # Call
    v = evaluate(e.arg, x)
    if e.fn == "log" and v <= 0.0:
        raise ExprDomainError(f"log of non-positive value {v}")
    if e.fn == "sqrt" and v < 0.0:
        raise ExprDomainError(f"sqrt of negative value {v}")
    try:
        return _SCALAR_FNS[e.fn](v)
    except (ValueError, OverflowError) as exc:
        raise ExprDomainError(str(exc)) from exc


# ----------------------------------------------------------- differentiation

def _as_var(var: Union[str, Var]) -> Var:
    if isinstance(var, Var):
        return var
    var_match = _IDENT_VAR_RE.match(var)
    if var_match is None:
        raise ExprError(f"cannot differentiate with respect to {var!r}")
    return Var(int(var_match.group(1)))


def diff_with_flag(e: Expr, var: Union[str, Var]) -> tuple[Expr, bool]:
    """Symbolic derivative and a flag set when abs/sign was differentiated
    through (the result is then valid only away from the kink)."""
    v = _as_var(var)
    kinked = False

    def d(e: Expr) -> Expr:
        nonlocal kinked
        if isinstance(e, Num):
            return Num(0.0)
        if isinstance(e, Var):
            return Num(1.0) if e == v else Num(0.0)
        if isinstance(e, Neg):
            return _neg(d(e.arg))
        if isinstance(e, BinOp):
            if e.op == "+":
                return _add(d(e.lhs), d(e.rhs))
            if e.op == "-":
                return _sub(d(e.lhs), d(e.rhs))
            if e.op == "*":
                return _add(_mul(d(e.lhs), e.rhs), _mul(e.lhs, d(e.rhs)))
            if e.op == "/":
                # (a' - (a/b) b')/b: b^2 would under- or overflow long
                # before b does
                return _div(_sub(d(e.lhs), _mul(e, d(e.rhs))), e.rhs)
            k = int(e.rhs.value)  # type: ignore[union-attr]
            return _mul(_mul(_num(k), _pow(e.lhs, k - 1)), d(e.lhs))
        # Call
        da = d(e.arg)
        if e.fn == "sin":
            outer: Expr = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = _neg(Call("sin", e.arg))
        elif e.fn == "tan":
            outer = _div(Num(1.0), _pow(Call("cos", e.arg), 2))
        elif e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "log":
            outer = _div(Num(1.0), e.arg)
        elif e.fn == "sqrt":
            outer = _div(Num(1.0), _mul(Num(2.0), Call("sqrt", e.arg)))
        elif e.fn == "tanh":
            outer = _sub(Num(1.0), _pow(Call("tanh", e.arg), 2))
        elif e.fn == "abs":
            kinked = True
            outer = Call("sign", e.arg)
        else:  # sign: zero away from the kink
            kinked = True
            return Num(0.0) if _is_zero(da) else _mul(Num(0.0), da)
        return _mul(outer, da)

    return d(e), kinked


def diff(e: Expr, var: Union[str, Var]) -> Expr:
    return diff_with_flag(e, var)[0]


def kink_arguments(e: Expr) -> list[Expr]:
    """Arguments of abs/sign nodes; derivatives are invalid where these are 0."""
    out: list[Expr] = []

    def walk(e: Expr) -> None:
        if isinstance(e, Neg):
            walk(e.arg)
        elif isinstance(e, BinOp):
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, Call):
            if e.fn in ("abs", "sign"):
                out.append(e.arg)
            walk(e.arg)

    walk(e)
    return out


# ------------------------------------------------------------ substitution

def substitute(e: Expr, mapping: dict[Var, Expr]) -> Expr:
    """Replace every variable that is a key of `mapping` by its value.

    Negations are rebuilt through `_neg`, so a substituted -(-a) folds to
    a; every other node is rebuilt as it is.
    """
    if isinstance(e, Var):
        return mapping.get(e, e)
    if isinstance(e, Neg):
        return _neg(substitute(e.arg, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.lhs, mapping), substitute(e.rhs, mapping))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, mapping))
    return e


# ----------------------------------------------------------------- printing

# precedence: '+-' 1, '*/' 2, unary '-' 3, '^' 4, atoms 5
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expr) -> str:
    """Render to text that parses back to a structurally equal tree."""

    def p(e: Expr, min_prec: int) -> str:
        if isinstance(e, Num):
            return _fmt_num(e.value)
        if isinstance(e, Var):
            return f"x{e.index}"
        if isinstance(e, Call):
            return f"{e.fn}({p(e.arg, 0)})"
        if isinstance(e, Neg):
            text = "-" + p(e.arg, 3)
            return f"({text})" if min_prec > 3 else text
        prec = _PREC[e.op]
        if e.op == "^":
            text = f"{p(e.lhs, 5)}^{_fmt_num(e.rhs.value)}"  # type: ignore[union-attr]
        else:
            # left-assoc: a rhs of the same precedence keeps its parentheses
            text = f"{p(e.lhs, prec)} {e.op} {p(e.rhs, prec + 1)}"
        return f"({text})" if prec < min_prec else text

    return p(e, 0)


# ------------------------------------------------------------------ codegen
# exec-compiled evaluators: one state at a time in Python floats (math.*),
# and many states at once on numpy columns, equal row by row.

def _codegen(e: Expr, array_mode: bool) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        if array_mode:
            return f"x[:, {e.index - 1}]"
        return f"x[{e.index - 1}]"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.arg, array_mode)})"
    if isinstance(e, BinOp):
        lhs = _codegen(e.lhs, array_mode)
        if e.op == "^":
            k = int(e.rhs.value)  # type: ignore[union-attr]
            return f"_pow({lhs}, {k})" if array_mode else f"({lhs} ** {k})"
        rhs = _codegen(e.rhs, array_mode)
        if e.op == "/" and array_mode:
            return f"_div({lhs}, {rhs})"
        return f"({lhs} {e.op} {rhs})"
    return f"{e.fn}({_codegen(e.arg, array_mode)})"


def _elementwise(fn: Callable) -> Callable:
    """fn applied to every element of its broadcast array arguments, with
    fn's own results and exceptions."""
    import numpy as np

    def apply(*args):
        a = args[0]
        if len(args) == 1 and isinstance(a, np.ndarray) and a.dtype == float:
            # the same elements in the same order, without the broadcast
            return np.fromiter(map(fn, a.ravel().tolist()), float,
                               a.size).reshape(a.shape)
        arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        flat = map(fn, *(a.ravel().tolist() for a in arrs))
        return np.fromiter(flat, float, arrs[0].size).reshape(arrs[0].shape)

    return apply


def _batch_namespace() -> dict:
    # numpy's own transcendental functions and integer powers may differ
    # from the C library in the last bit, so every function, power and
    # division is applied element by element with the scalar operation
    ns = {name: _elementwise(fn) for name, fn in _SCALAR_FNS.items()}
    ns["_pow"] = _elementwise(pow)
    ns["_div"] = _elementwise(operator.truediv)
    import numpy as np
    ns["np"] = np
    return ns


_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _values(exprs: Iterable[Expr], weights: Sequence[int],
            array_mode: bool) -> tuple[list[str], list[str]]:
    """The lines v0 = ..., v1 = ... that evaluate `exprs`, and the code of
    every returned value: v0, v1, ..., then the weighted sum when
    `weights` is given."""
    lines = [f"v{k} = {_codegen(e, array_mode)}" for k, e in enumerate(exprs)]
    values = [f"v{k}" for k in range(len(lines))]
    if weights:
        col = "x[:, {}]" if array_mode else "x[{}]"
        values.append("0.0" + "".join(f" + {col.format(w - 1)} * {v}"
                                      for w, v in zip(weights, values)))
    return lines, values


def _exec_guarded(prologue: Sequence[str], body: Sequence[str],
                  ns: dict) -> Callable:
    """exec-compile `def _fn(t, x)`: the prologue lines, then the body
    lines with the domain errors of their operations raised as
    ExprDomainError.  The source is kept as fn._source."""
    src = ("def _fn(t, x):\n"
           + "".join(f"    {line}\n" for line in prologue)
           + "    try:\n"
           + "".join(f"        {line}\n" for line in body)
           + "    except _DOMAIN_ERRORS as exc:\n"
           + "        raise ExprDomainError(str(exc)) from exc\n")
    ns.update(_DOMAIN_ERRORS=_DOMAIN_ERRORS, ExprDomainError=ExprDomainError)
    exec(src, ns)
    fn = ns["_fn"]
    fn._source = src
    return fn


def compile_scalar(exprs: Iterable[Expr], weights: Sequence[int] = ()) -> Callable:
    """Compile to fn(t, x) -> list[float]: the values v1, v2, ... of
    `exprs` at the state x, then, when `weights` lists 1-based state
    indices w1..wr, one more entry 0.0 + x_w1*v1 + ... + x_wr*vr, summed
    left to right.  t is only the time argument integrators pass.

    An ndarray x is read once with .tolist(), so the expressions run in
    Python float arithmetic, which raises on a division by zero where
    numpy scalars return inf.  Domain errors raise ExprDomainError.  The
    whole evaluation is one exec-compiled function, so an integrator pays
    a single Python call per right-hand side.
    """
    import numpy as np
    lines, values = _values(exprs, weights, array_mode=False)
    ns = dict(_SCALAR_FNS, ndarray=np.ndarray)
    return _exec_guarded(["if x.__class__ is ndarray: x = x.tolist()"],
                         lines + [f"return [{', '.join(values)}]"], ns)


def compile_batch(exprs: Iterable[Expr], weights: Sequence[int] = ()) -> Callable:
    """compile_scalar over many states: fn(t, X) -> (R, k) array for an
    (R, n) array X, row r equal bit for bit to compile_scalar's fn(t, X[r]).

    Sums, differences, products and negations run on whole columns, whose
    IEEE arithmetic rounds as Python's does; every function, integer power
    and division is applied element by element with the scalar operation.
    A domain error in any row raises ExprDomainError for the whole call.
    An overflow to inf or a nan, which Python's arithmetic passes
    silently, raises no numpy warning.
    """
    lines, values = _values(exprs, weights, array_mode=True)
    body = ["with np.errstate(over='ignore', invalid='ignore'):"]
    body += [f"    {line}" for line in lines]
    body.append(f"    out = np.empty((x.shape[0], {len(values)}))")
    body += [f"    out[:, {k}] = {v}" for k, v in enumerate(values)]
    body.append("    return out")
    return _exec_guarded([], body, _batch_namespace())
