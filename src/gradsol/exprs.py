"""Tiny arithmetic-expression grammar for the metric and potential of catalog specs.

Grammar:  +, -, *, /, ^ (right associative), parentheses, numeric literals,
variables ``x1 .. xn`` (1-based), and the calls sin, cos, exp, log, sqrt.
Exponents must be constant.  Each expression compiles once, to one Python
function over a list of coordinate jets, so catalog instances defined as
specs plug straight into the differentiation engine, or over a list of
plain floats.  On floats the function returns exactly the constant term of
its order-0 jet value: each operation with a varying operand takes the
jets' own steps (a varying divisor b as ``a * (1/b)``, an integer power by
repeated squaring, a real power and the calls through ``jets``), as fixed
at compile time.  Constant subexpressions use plain float arithmetic and
``math`` in both cases, evaluated at each call like the rest.

On a list of float64 arrays (one per coordinate, all of one shape) the
function is evaluated elementwise with the float path's bits: numpy does
``+ - * /`` and the ``jets`` steps take each entry as the float path does
(see ``jets``).  An entry where the float path would raise, such as a zero
varying divisor or the log of a non-positive number, is NaN.  An error
that does not depend on the point, such as a constant divisor of zero,
raises on floats at every point; on arrays numpy gives inf or NaN instead.
"""

import math
import re
from functools import lru_cache

from .errors import ConfigurationError
from .jets import ELEMENTARY, JetScalar, int_power, real_power, reciprocal

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {name: ELEMENTARY[name] for name in ("sin", "cos", "exp", "log", "sqrt")}


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


_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _emit(node, text, lines, consts):
    """Append the assignment of each operation in `node`; return (operand, varies).

    An operand is a local ``t<k>``, ``xs[i]`` or a constant ``k<k>``, bound by
    reference.  A call on, a division by or a power of a varying operand
    takes the jets' steps (``jet_<name>``, ``a * reciprocal(b)`` on a float
    divisor, ``int_power`` or ``real_power``), also on plain floats.
    """
    op = node[0]
    if op == "num":
        consts.append(node[1])
        return f"k{len(consts) - 1}", False
    if op == "var":
        return f"xs[{node[1]}]", True
    if op == "neg":
        a, varies = _emit(node[1], text, lines, consts)
        rhs = f"-{a}"
    elif op == "call":
        a, varies = _emit(node[2], text, lines, consts)
        rhs = f"{'jet_' if varies else 'math.'}{node[1]}({a})"
    else:
        a, va = _emit(node[1], text, lines, consts)
        b, vb = _emit(node[2], text, lines, consts)
        varies = va or vb
        if op == "pow" and vb:
            raise ConfigurationError(f"exponent must be constant in {text!r}")
        if op == "pow":
            rhs = (f"int_power({a}, int({b})) if {b} == int({b}) else real_power({a}, {b})"
                   if va else f"{a} ** int({b}) if {b} == int({b}) else math.pow({a}, {b})")
        elif op == "div" and vb:
            rhs = f"{a} / {b} if isinstance({b}, JetScalar) else {a} * reciprocal({b})"
        else:
            rhs = f"{a} {_SYMBOL[op]} {b}"
    lines.append(f"        t{len(lines)} = {rhs}")
    return f"t{len(lines) - 1}", varies


@lru_cache(maxsize=1024)
def compile_expression(text, dim):
    """Compile `text` into one Python function of a list of `dim` coordinate operands.

    Each operation becomes one assignment, so nesting the parser accepts
    compiles; nothing is evaluated here.  The function is pure and cached by
    (text, dim), so rebuilding an instance compiles nothing.  Arithmetic
    errors of a call (division by zero, overflow, a math-domain error) raise
    ConfigurationError naming the expression.
    """
    shown = text if len(text) <= 60 else text[:57] + "..."
    lines, consts = [], []
    try:
        result, _ = _emit(_Parser(text, dim).parse(), shown, lines, consts)
    except RecursionError:
        raise ConfigurationError(f"expression nested too deeply: {shown!r}") from None

    def failed(err):
        return ConfigurationError(f"cannot evaluate {shown!r}: {err}")

    source = "\n".join([
        "def expression(xs):",
        "    try:",
        *lines,
        f"        return {result}",
        "    except (ZeroDivisionError, OverflowError, ValueError) as err:",
        "        raise failed(err) from None",
    ])
    namespace = {f"k{i}": c for i, c in enumerate(consts)}
    namespace.update({f"jet_{name}": fn for name, fn in _FUNCTIONS.items()})
    namespace.update(math=math, JetScalar=JetScalar, int_power=int_power,
                     real_power=real_power, reciprocal=reciprocal, failed=failed)
    exec(compile(source, f"<expression {shown!r}>", "exec"), namespace)
    return namespace["expression"]
