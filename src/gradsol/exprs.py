"""Tiny arithmetic-expression grammar for user-supplied metric components.

Grammar:  +, -, *, /, ^ (right associative), parentheses, numeric literals,
variables ``x1 .. xn`` (1-based), and the calls sin, cos, exp, sqrt.
Exponents must be constant.  Expressions compile to closures over a list of
coordinate jets, so catalog extensions defined in JSON plug straight into
the differentiation engine, or over a list of plain floats.  On floats a
closure returns exactly the constant term of its order-0 jet value: each
operation with a varying operand takes the jets' own steps (a varying
divisor b as ``a * (1/b)``, an integer power by repeated squaring, a real
power and the calls through ``jets``), as fixed at compile time.  Constant
subexpressions use plain float arithmetic and ``math`` in both cases.
"""

import math
import re

from .errors import ConfigurationError
from .jets import ELEMENTARY, JetScalar, int_power, real_power, reciprocal

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {name: ELEMENTARY[name] for name in ("sin", "cos", "exp", "sqrt")}


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ConfigurationError(f"bad character in expression at {text[pos:]!r}")
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ConfigurationError(f"expected {op!r} in {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ConfigurationError(f"trailing input in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return ("pow", base, self.unary())
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                idx = int(m.group(1)) - 1
                if not (0 <= idx < self.dim):
                    raise ConfigurationError(
                        f"variable {val} out of range for dimension {self.dim}"
                    )
                return ("var", idx)
            raise ConfigurationError(f"unknown name {val!r} in {self.text!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ConfigurationError(f"unexpected token in {self.text!r}")


def _bind(node, text):
    """Return (node, varies) with the jet forms of ops on varying operands.

    A call on, a division by or a power of a varying operand becomes
    ``jcall``, ``jdiv`` or ``jpow``, which take the jets' steps also on
    plain floats.
    """
    op = node[0]
    if op == "num":
        return node, False
    if op == "var":
        return node, True
    if op == "neg":
        arg, varies = _bind(node[1], text)
        return ("neg", arg), varies
    if op == "call":
        arg, varies = _bind(node[2], text)
        return ("jcall" if varies else "call", node[1], arg), varies
    a, va = _bind(node[1], text)
    b, vb = _bind(node[2], text)
    if op == "pow" and vb:
        raise ConfigurationError(f"exponent must be constant in {text!r}")
    if op == "div" and vb:
        op = "jdiv"
    elif op == "pow" and va:
        op = "jpow"
    return (op, a, b), va or vb


def _evaluate(node, xs):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return xs[node[1]]
    if op == "neg":
        return -_evaluate(node[1], xs)
    if op == "call":
        return getattr(math, node[1])(_evaluate(node[2], xs))
    if op == "jcall":
        return _FUNCTIONS[node[1]](_evaluate(node[2], xs))
    a = _evaluate(node[1], xs)
    b = _evaluate(node[2], xs)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "jdiv":
        return a / b if isinstance(b, JetScalar) else a * reciprocal(b)
    if op == "pow":
        return a ** int(b) if b == int(b) else math.pow(a, b)
    if op == "jpow":
        return int_power(a, int(b)) if b == int(b) else real_power(a, b)
    raise ConfigurationError(f"unknown node {op!r}")


def compile_expression(text, dim):
    """Parse `text` into a closure over a list of `dim` coordinate operands.

    Arithmetic errors of the evaluation (division by zero, overflow, a
    math-domain error) raise ConfigurationError naming the expression.
    """
    shown = text if len(text) <= 60 else text[:57] + "..."
    try:
        ast, _ = _bind(_Parser(text, dim).parse(), shown)
    except RecursionError:
        raise ConfigurationError(f"expression nested too deeply: {shown!r}") from None

    def fn(xs):
        try:
            return _evaluate(ast, xs)
        except (ZeroDivisionError, OverflowError, ValueError) as err:
            raise ConfigurationError(f"cannot evaluate {shown!r}: {err}") from None

    fn.source = text
    return fn
