"""Tiny arithmetic-expression grammar for user-supplied metric components.

Grammar:  +, -, *, /, ^ (right associative), parentheses, numeric literals,
variables ``x1 .. xn`` (1-based), and the calls sin, cos, exp, sqrt.
Expressions compile to closures that evaluate over jets (or any operand
type supporting Python arithmetic), so catalog extensions defined in JSON
plug straight into the differentiation engine.
"""

import math
import numbers
import re

from .errors import ConfigurationError
from .jets import ELEMENTARY

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


def _evaluate(node, xs):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return xs[node[1]]
    if op == "neg":
        return -_evaluate(node[1], xs)
    if op == "call":
        arg = _evaluate(node[2], xs)
        if isinstance(arg, numbers.Real):
            return getattr(math, node[1])(arg)
        return _FUNCTIONS[node[1]](arg)
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
    if op == "pow":
        if isinstance(b, float) and b == int(b):
            return a ** int(b)
        return a ** b
    raise ConfigurationError(f"unknown node {op!r}")


def compile_expression(text, dim):
    """Parse `text` into a closure over a list of `dim` coordinate operands.

    Arithmetic errors of the evaluation (division by zero, overflow, a
    math-domain error) raise ConfigurationError naming the expression.
    """
    shown = text if len(text) <= 60 else text[:57] + "..."
    try:
        ast = _Parser(text, dim).parse()
    except RecursionError:
        raise ConfigurationError(f"expression nested too deeply: {shown!r}") from None

    def fn(xs):
        try:
            return _evaluate(ast, xs)
        except (ZeroDivisionError, OverflowError, ValueError) as err:
            raise ConfigurationError(f"cannot evaluate {shown!r}: {err}") from None

    fn.source = text
    return fn
