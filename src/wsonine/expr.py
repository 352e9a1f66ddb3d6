"""Scalar expressions in the variables {s, t, x}.

A minimal Pratt-style grammar with the usual precedence
(pow > unary minus > mul/div > add/sub), right-associative "^", and the
unary functions exp, ln, sin, cos, sqrt.  ASTs are immutable; evaluation
accepts floats or numpy arrays, and differentiation is symbolic tree
rewriting (no simplification beyond dropping obvious zero/one factors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import (DomainError, ExprSyntaxError, UnknownIdentifierError,
                     ValidationError)

VARIABLES = ("s", "t", "x")
FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")

Number = Union[float, np.ndarray]


@dataclass(frozen=True)
class ExprAst:
    """One node of a parsed expression.

    kind is one of "const", "var", "neg", one of FUNCTIONS, or a binary
    operator "+", "-", "*", "/", "^".  span is the (start, end) byte range
    in the source text, kept for diagnostics.
    """

    kind: str
    value: float = 0.0
    name: str = ""
    args: tuple = ()
    span: tuple = (0, 0)

    def eval(self, bindings: Mapping[str, Number]) -> Number:
        return _eval(self, bindings)

    def diff(self, var: str) -> "ExprAst":
        return _diff(self, var)

    def variables(self) -> set:
        out = set()
        _collect_vars(self, out)
        return out

    def __str__(self) -> str:
        return _serialize(self, 0)


def parse_expr(text: str) -> ExprAst:
    """Parse an expression string; raises ExprSyntaxError / UnknownIdentifierError."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0, expected="an expression")
    return _Parser(text).parse()


def eval_expr(ast: ExprAst, bindings: Mapping[str, Number]) -> Number:
    return _eval(ast, bindings)


def diff_expr(ast: ExprAst, var: str) -> ExprAst:
    if var not in VARIABLES:
        raise UnknownIdentifierError(var, 0)
    return _diff(ast, var)


def serialize(ast: ExprAst) -> str:
    return str(ast)


def as_function(ast_or_fn, names=("t",)):
    """Adapt an ExprAst or expression text to a callable of the variables
    `names`, taken positionally in that order; a callable passes through.

    The expression may use no other variable (ValidationError).  The result
    has the shape of the first argument, so a constant expression or one
    that ignores that argument is broadcast.
    """
    if callable(ast_or_fn) and not isinstance(ast_or_fn, ExprAst):
        return ast_or_fn
    ast = parse_expr(ast_or_fn) if isinstance(ast_or_fn, str) else ast_or_fn
    extra = ast.variables() - set(names)
    if extra:
        raise ValidationError(f"unexpected variables {sorted(extra)} in '{ast}'")

    def fn(*args):
        val = _eval(ast, dict(zip(names, args)))
        shape = np.shape(args[0])
        if np.shape(val) == shape:
            return val
        return np.broadcast_to(np.asarray(val, dtype=float), shape).copy()

    return fn


# ---------------------------------------------------------------- tokenizer

_TOKEN_OPS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "pos", "value")

    def __init__(self, kind, text, pos, value=0.0):
        self.kind = kind      # "num" | "ident" | one of _TOKEN_OPS | "end"
        self.text = text
        self.pos = pos
        self.value = value


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            toks.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number literal '{text[i:j]}'", i,
                                      expected="a numeric literal") from None
            toks.append(_Token("num", text[i:j], i, val))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i,
                              expected="an operator, number or identifier")
    toks.append(_Token("end", "", n))
    return toks


# ------------------------------------------------------------------ parser

_BP_ADD = 10
_BP_MUL = 20
_BP_NEG = 25
_BP_POW = 30


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExprSyntaxError(f"unexpected token '{tok.text or 'end of input'}'",
                                  tok.pos, expected=f"'{kind}'")
        return tok

    def parse(self):
        node = self.parse_bp(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input '{tok.text}'", tok.pos,
                                  expected="end of expression or an operator")
        return node

    def parse_bp(self, min_bp):
        lhs = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind in "+-" and _BP_ADD > min_bp:
                self.next()
                rhs = self.parse_bp(_BP_ADD)
            elif tok.kind in "*/" and _BP_MUL > min_bp:
                self.next()
                rhs = self.parse_bp(_BP_MUL)
            elif tok.kind == "^" and _BP_POW > min_bp:
                self.next()
                # right-associative: recurse with a slightly lower floor
                rhs = self.parse_bp(_BP_POW - 1)
            else:
                return lhs
            lhs = ExprAst(tok.kind, args=(lhs, rhs),
                          span=(lhs.span[0], rhs.span[1]))

    def parse_prefix(self):
        tok = self.next()
        if tok.kind == "num":
            return ExprAst("const", value=tok.value,
                           span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "-":
            arg = self.parse_bp(_BP_NEG)
            return ExprAst("neg", args=(arg,), span=(tok.pos, arg.span[1]))
        if tok.kind == "(":
            node = self.parse_bp(0)
            end = self.expect(")")
            return ExprAst(node.kind, node.value, node.name, node.args,
                           span=(tok.pos, end.pos + 1))
        if tok.kind == "ident":
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg = self.parse_bp(0)
                end = self.expect(")")
                return ExprAst(tok.text, args=(arg,),
                               span=(tok.pos, end.pos + 1))
            if tok.text in VARIABLES:
                return ExprAst("var", name=tok.text,
                               span=(tok.pos, tok.pos + len(tok.text)))
            raise UnknownIdentifierError(tok.text, tok.pos)
        raise ExprSyntaxError(f"unexpected token '{tok.text or 'end of input'}'",
                              tok.pos, expected="a number, variable, function or '('")


# -------------------------------------------------------------- evaluation

def _check(cond, msg, node):
    if not cond:
        raise DomainError(f"{msg} (at source offset {node.span[0]})")


def _eval(node, bindings):
    kind = node.kind
    if kind == "const":
        return node.value
    if kind == "var":
        try:
            return bindings[node.name]
        except KeyError:
            raise UnknownIdentifierError(node.name) from None
    if kind == "neg":
        return -_eval(node.args[0], bindings)
    if kind in ("+", "-", "*", "/", "^"):
        a = _eval(node.args[0], bindings)
        b = _eval(node.args[1], bindings)
        if kind == "+":
            return a + b
        if kind == "-":
            return a - b
        if kind == "*":
            return a * b
        if kind == "/":
            _check(np.all(b != 0), "division by zero", node)
            return a / b
        return _pow(a, b, node)
    a = _eval(node.args[0], bindings)
    if kind == "exp":
        return np.exp(a)
    if kind == "ln":
        _check(np.all(a > 0), "ln of a nonpositive value", node)
        return np.log(a)
    if kind == "sin":
        return np.sin(a)
    if kind == "cos":
        return np.cos(a)
    if kind == "sqrt":
        _check(np.all(a >= 0), "sqrt of a negative value", node)
        return np.sqrt(a)
    raise AssertionError(f"unreachable node kind {kind!r}")


def _pow(a, b, node):
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    _check(not np.any((a_arr == 0) & (b_arr < 0)), "0 raised to a negative power", node)
    frac = b_arr != np.floor(b_arr)
    _check(not np.any((a_arr < 0) & frac),
           "negative base with non-integer exponent", node)
    out = np.power(a_arr, b_arr)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


# ----------------------------------------------------------- differentiation

def _const(v):
    return ExprAst("const", value=float(v))


_ZERO = _const(0.0)
_ONE = _const(1.0)


def _is_const(node, v=None):
    return node.kind == "const" and (v is None or node.value == v)


def _mk(kind, *args, span=(0, 0)):
    # fold the trivial identities so derivatives stay readable
    if kind == "+":
        a, b = args
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    if kind == "-":
        a, b = args
        if _is_const(b, 0.0):
            return a
    if kind == "*":
        a, b = args
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return _ZERO
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
    if kind == "/":
        a, b = args
        if _is_const(a, 0.0):
            return _ZERO
        if _is_const(b, 1.0):
            return a
    return ExprAst(kind, args=args, span=span)


def _diff(node, var):
    kind = node.kind
    if kind == "const":
        return _ZERO
    if kind == "var":
        return _ONE if node.name == var else _ZERO
    if kind == "neg":
        return _mk("neg", _diff(node.args[0], var))
    if kind in ("+", "-"):
        return _mk(kind, _diff(node.args[0], var), _diff(node.args[1], var))
    if kind == "*":
        a, b = node.args
        return _mk("+", _mk("*", _diff(a, var), b), _mk("*", a, _diff(b, var)))
    if kind == "/":
        a, b = node.args
        num = _mk("-", _mk("*", _diff(a, var), b), _mk("*", a, _diff(b, var)))
        return _mk("/", num, _mk("*", b, b))
    if kind == "^":
        a, b = node.args
        da, db = _diff(a, var), _diff(b, var)
        if _is_const(b):
            # d(a^c) = c * a^(c-1) * a'
            return _mk("*", _mk("*", b, _mk("^", a, _const(b.value - 1.0))), da)
        # general: a^b * (b' ln a + b a'/a)
        term = _mk("+", _mk("*", db, ExprAst("ln", args=(a,))),
                   _mk("/", _mk("*", b, da), a))
        return _mk("*", ExprAst("^", args=(a, b)), term)
    a = node.args[0]
    da = _diff(a, var)
    if kind == "exp":
        return _mk("*", ExprAst("exp", args=(a,)), da)
    if kind == "ln":
        return _mk("/", da, a)
    if kind == "sin":
        return _mk("*", ExprAst("cos", args=(a,)), da)
    if kind == "cos":
        return _mk("neg", _mk("*", ExprAst("sin", args=(a,)), da))
    if kind == "sqrt":
        return _mk("/", da, _mk("*", _const(2.0), ExprAst("sqrt", args=(a,))))
    raise AssertionError(f"unreachable node kind {kind!r}")


def _collect_vars(node, out):
    if node.kind == "var":
        out.add(node.name)
    for child in node.args:
        _collect_vars(child, out)


# ------------------------------------------------------------- serialization

_PREC = {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL,
         "^": _BP_POW, "neg": _BP_NEG}


def _serialize(node, parent_prec):
    kind = node.kind
    if kind == "const":
        return repr(node.value)
    if kind == "var":
        return node.name
    if kind == "neg":
        inner = _serialize(node.args[0], _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec >= _PREC["neg"] else text
    if kind in ("+", "-", "*", "/", "^"):
        prec = _PREC[kind]
        # left-assoc binaries tighten the right operand; "^" the left one
        if kind == "^":
            left = _serialize(node.args[0], prec)
            right = _serialize(node.args[1], prec - 1)
        else:
            left = _serialize(node.args[0], prec - 1)
            right = _serialize(node.args[1], prec)
        text = f"{left} {kind} {right}"
        return f"({text})" if parent_prec >= prec else text
    return f"{kind}({_serialize(node.args[0], 0)})"
