"""Tiny arithmetic-expression grammar for the metric and potential of catalog specs.

Grammar:  +, -, *, /, ^ (right associative), parentheses, numeric literals
(digits with an optional point: no exponent, no leading zeros on integers),
variables ``x1 .. xn`` (1-based), and the calls sin, cos, exp, log, sqrt.
Exponents must be constant.  This is Python's expression syntax with ``^``
for ``**``, narrowed: Python parses the text (``ast``), and ``exprs``
refuses any character, literal or node outside the grammar and emits the
code for the rest.  Each expression compiles once, to one Python function
over a list of coordinate jets, so catalog instances defined as specs plug
straight into the differentiation engine, or over a list of plain floats.
On floats the function returns exactly the constant term of its order-0 jet
value: each operation with a varying operand takes the jets' own steps (a
varying divisor b as ``a * (1/b)``, an integer power by repeated squaring, a
real power and the calls through ``jets``), as fixed at compile time.
Constant subexpressions use plain float arithmetic and ``math`` in both
cases, evaluated at each call like the rest.

On a list of float64 arrays (one per coordinate, all of one shape) the
function is evaluated elementwise with the float path's bits: numpy does
``+ - * /`` and the ``jets`` steps take each entry as the float path does
(see ``jets``).  An entry where the float path would raise, such as a zero
varying divisor or the log of a non-positive number, is NaN.  An error
that does not depend on the point, such as a constant divisor of zero,
raises on floats at every point; on arrays numpy gives inf or NaN instead.
"""

import ast
import math
import re
import warnings
from functools import lru_cache

from .errors import ConfigurationError
from .jets import ELEMENTARY, JetScalar, int_power, real_power, reciprocal

_FUNCTIONS = {name: ELEMENTARY[name] for name in ("sin", "cos", "exp", "log", "sqrt")}
# the grammar's characters; Python would NFKC-normalise a non-ASCII name
_CHARACTERS = re.compile(r"[\sA-Za-z0-9_.+\-*/^()]*")
_NUMBER = re.compile(r"\d+\.\d*|\.\d+|\d+")
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _emit(node, line, dim, text, lines, consts):
    """Append the assignment of each operation in `node`; return (operand, varies).

    `node` is Python's parse of `line`; anything outside the grammar is
    refused here.  An operand is a local ``t<k>``, ``xs[i]`` or a constant
    ``k<k>``, bound by reference.  A call on, a division by or a power of a
    varying operand takes the jets' steps (``jet_<name>``, ``a * reciprocal(b)``
    on a float divisor, ``int_power`` or ``real_power``), also on plain floats.
    One frame per nesting level, so the depth the parser reaches compiles.
    """
    kind = type(node)
    if kind is ast.Constant:
        literal = line[node.col_offset:node.end_col_offset]
        if not _NUMBER.fullmatch(literal):
            raise ConfigurationError(f"bad number {literal!r} in {text!r}")
        consts.append(float(literal))
        return f"k{len(consts) - 1}", False
    if kind is ast.Name:
        m = re.fullmatch(r"x(\d+)", node.id)
        if m is None:
            raise ConfigurationError(f"unknown name {node.id!r} in {text!r}")
        if not 1 <= int(m.group(1)) <= dim:
            raise ConfigurationError(
                f"variable {node.id} out of range for dimension {dim} in {text!r}")
        return f"xs[{int(m.group(1)) - 1}]", True
    if kind is ast.UnaryOp and type(node.op) in (ast.UAdd, ast.USub):
        a, varies = _emit(node.operand, line, dim, text, lines, consts)
        if type(node.op) is ast.UAdd:
            return a, varies
        rhs = f"-{a}"
    elif (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _FUNCTIONS
          and node.func.col_offset == node.col_offset  # not ``(sin)(x1)``
          and len(node.args) == 1 and not node.keywords):
        a, varies = _emit(node.args[0], line, dim, text, lines, consts)
        rhs = f"{'jet_' if varies else 'math.'}{node.func.id}({a})"
    elif kind is ast.BinOp and type(node.op) in _SYMBOL:
        op = _SYMBOL[type(node.op)]
        a, va = _emit(node.left, line, dim, text, lines, consts)
        b, vb = _emit(node.right, line, dim, text, lines, consts)
        varies = va or vb
        if op == "^" and vb:
            raise ConfigurationError(f"exponent must be constant in {text!r}")
        if op == "^":
            rhs = (f"int_power({a}, int({b})) if {b} == int({b}) else real_power({a}, {b})"
                   if va else f"{a} ** int({b}) if {b} == int({b}) else math.pow({a}, {b})")
        elif op == "/" and vb:
            rhs = f"{a} / {b} if isinstance({b}, JetScalar) else {a} * reciprocal({b})"
        else:
            rhs = f"{a} {op} {b}"
    else:
        raise ConfigurationError(
            f"{line[node.col_offset:node.end_col_offset]!r} is not in the grammar: {text!r}")
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
    if not _CHARACTERS.fullmatch(text) or "**" in text:
        raise ConfigurationError(f"character outside the grammar in {shown!r}")
    line = " ".join(text.split()).replace("^", "**")
    lines, consts = [], []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a malformed literal warns, then is refused
            tree = ast.parse(line, mode="eval")
        result, _ = _emit(tree.body, line, dim, shown, lines, consts)
    except (RecursionError, MemoryError):
        raise ConfigurationError(f"expression nested too deeply: {shown!r}") from None
    except (SyntaxError, ValueError) as err:  # ValueError: an index past int's digit limit
        raise ConfigurationError(f"cannot parse {shown!r}: {getattr(err, 'msg', err)}") from None

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
