import json
import math
import re
import warnings

import numpy as np
import pytest

import gradsol.jets as jets
from gradsol.errors import ConfigurationError, GradsolError
from gradsol.exprs import compile_expression
from gradsol.jets import JetSpace, coordinate_jets


def _eval_at(text, point, order=3):
    dim = len(point)
    fn = compile_expression(text, dim)
    xs = coordinate_jets(JetSpace.get(dim, order), point)
    return fn(xs)


def test_numbers_and_precedence():
    fn = compile_expression("2 + 3*4 - 6/3", 1)
    assert fn([0.0]) == 12.0
    fn = compile_expression("(2 + 3) * 4", 1)
    assert fn([0.0]) == 20.0


def test_power_right_associative():
    fn = compile_expression("2^3^2", 1)
    assert fn([0.0]) == 512.0


def test_unary_minus_binds_power():
    fn = compile_expression("-2^2", 1)
    assert fn([0.0]) == -4.0


def test_variables_one_based():
    fn = compile_expression("x1 + 2*x3", 3)
    assert fn([1.0, 10.0, 5.0]) == 11.0


def test_jet_evaluation_matches_closure():
    text = "sin(x1*x2)/(2 + x1^2) + exp(x2)*x1 - sqrt(1 + x1^2)"
    point = [0.7, -0.4]
    j = _eval_at(text, point)

    def closure(xs):
        return (
            jets.sin(xs[0] * xs[1]) / (2.0 + xs[0] ** 2)
            + jets.exp(xs[1]) * xs[0]
            - jets.sqrt(1.0 + xs[0] ** 2)
        )

    ref = closure(coordinate_jets(JetSpace.get(2, 3), point))
    assert np.abs(j.coeffs - ref.coeffs).max() < 1e-14


def test_cos_call():
    j = _eval_at("cos(x1)", [0.3], order=2)
    assert abs(j.value - math.cos(0.3)) < 1e-15
    assert abs(j.partial((1,)) + math.sin(0.3)) < 1e-14


def test_constant_folding_calls():
    fn = compile_expression("exp(0) + sqrt(4)", 1)
    assert fn([0.0]) == 3.0


def test_integer_power_of_jet():
    j = _eval_at("x1^3", [2.0])
    assert j.value == 8.0
    assert j.partial((1,)) == 12.0


def test_a_long_chain_compiles_to_one_assignment_per_operation():
    # as one nested Python expression, 300 terms would pass the compiler's
    # limit of 200 nested parentheses
    text = " + ".join(["x1"] * 300) + " - " + "-" * 300 + "x1"
    fn = compile_expression(text, 1)
    assert fn([1.0]) == 299.0
    assert _eval_at(text, [2.0]).partial((1,)) == 299.0


def test_a_literal_that_overflows_is_bound_by_reference():
    # float("9" * 400) is inf, whose repr is not a Python literal
    fn = compile_expression("x1 + " + "9" * 400, 1)
    assert fn([1.0]) == math.inf


def test_variable_out_of_range():
    with pytest.raises(ConfigurationError):
        compile_expression("x5", 3)


def test_unknown_name():
    with pytest.raises(ConfigurationError):
        compile_expression("tan(x1)", 2)


def test_trailing_garbage():
    with pytest.raises(ConfigurationError):
        compile_expression("x1 + 2 )", 2)


def test_bad_character():
    with pytest.raises(ConfigurationError):
        compile_expression("x1 @ 2", 2)


def test_unbalanced_parenthesis():
    with pytest.raises(ConfigurationError):
        compile_expression("sin(x1", 1)


def test_a_chain_of_900_unary_minus_compiles():
    # the compiler walks Python's tree with one frame per nesting level
    fn = compile_expression("-" * 900 + "x1", 1)
    assert fn([2.0]) == 2.0


# Python's expression syntax accepts each of these; the grammar does not
PYTHON_ONLY = {
    "exponent": "1e3", "underscore": "1_0", "hex": "0x1f", "complex": "1j",
    "python-power": "x1**2", "floor-division": "x1 // 2", "modulo": "x1 % 2",
    "attribute": "x1.real", "subscript": "x1[0]", "two-arguments": "sin(x1, x2)",
    "call-of-variable": "(x1)(x2)", "parenthesised-function": "(sin)(x1)",
    "boolean": "True", "conditional": "x1 if x2 else 1", "not": "not x1",
    "comparison": "x1 < x2", "comment": "x1 # c", "fullwidth-name": "\uff581",
    "leading-zeros": "007",
}


@pytest.mark.parametrize("text", PYTHON_ONLY.values(), ids=PYTHON_ONLY.keys())
def test_python_syntax_outside_the_grammar_is_refused(text):
    with pytest.raises(ConfigurationError):
        compile_expression(text, 2)


@pytest.mark.parametrize("text", ["1if x1 else 2", "0x1for x1", "1or x1"])
def test_a_malformed_literal_is_refused_without_a_warning(text):
    # Python's tokenizer warns about a literal run into a keyword
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ConfigurationError):
            compile_expression(text, 2)
    assert seen == []


@pytest.mark.parametrize("text", [" x1^2/4 ", "x1^2/4\n", "x1 +\n x2", "\tx1 \u00a0* x2"])
def test_whitespace_is_only_a_separator(text):
    # same generated code as the text with its whitespace runs made one space
    fn = compile_expression(text, 2)
    ref = compile_expression(" ".join(text.split()), 2)
    assert fn.__code__.co_code == ref.__code__.co_code
    assert fn.__code__.co_names == ref.__code__.co_names
    assert fn([1.5, -0.5]).hex() == ref([1.5, -0.5]).hex()


def _validate_with_potential(tmp_path, potential):
    from gradsol.cli import main

    doc = {"instances": [{
        "name": "json-bad-potential", "n": 2, "rho": 0.5, "kind": "shrinking",
        "metric": [["1", "0"], ["0", "1"]], "potential": potential,
        "domain": {"box": [[-2, 2], [-2, 2]]},
    }]}
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc))
    return main(["catalog", "validate", "json-bad-potential", "--extensions", str(path),
                 "--points", "8"])


@pytest.mark.parametrize(
    "potential",
    ["(" * 5000 + "x1" + ")" * 5000, "1/0 + x1", "(0-8)^0.5 + x1"],
    ids=["deep-nesting", "division-by-zero", "negative-base-real-power"],
)
def test_expression_arithmetic_errors_reach_cli_as_errors(tmp_path, capsys, potential):
    assert _validate_with_potential(tmp_path, potential) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert potential[:20] in err


@pytest.mark.parametrize("text", ["sqrt(0-1)", "1/0", "exp(800*x1)", "x1/0"])
def test_expression_arithmetic_errors_name_the_expression(text):
    fn = compile_expression(text, 1)
    with pytest.raises(ConfigurationError, match=re.escape(repr(text))):
        fn([1.0])


# Expressions whose float evaluation must reproduce order-0 jets bit for bit:
# integer powers (repeated squaring), varying divisors (a * (1/b)), real
# powers and the elementary calls, next to constant subexpressions.
FLOAT_EXACT = [
    "x1^2/4 + 1.5",
    "x1^3 + x2^2",
    "x1^-2 - 3*x2^-3",
    "1/(1 + x1^2) + x2/x1",
    "sqrt(1 + x1^2)*sin(x2) - exp(x1)/x2",
    "cos(x1*x2)/exp(x2) + x1^0.5 - sqrt(2)*x2^7",
    "log(x1)*x2 - log(1 + x2^2)/log(2)",
]


@pytest.mark.parametrize("text", FLOAT_EXACT)
def test_float_evaluation_is_order0_jet_value(text):
    fn = compile_expression(text, 2)
    space = JetSpace.get(2, 0)
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = [float(rng.uniform(0.1, 3.0)), float(rng.uniform(-3.0, 3.0))]
        assert fn(p).hex() == fn(coordinate_jets(space, p)).value.hex(), p


@pytest.mark.parametrize("text", ["sqrt(x1 - 2)", "(x1 - 2)^0.5", "1/(x1 - 1)", "log(x1 - 1)"])
def test_float_evaluation_raises_where_jets_raise(text):
    # Python's (-1.0) ** 0.5 is a complex number; the jets refuse it
    fn = compile_expression(text, 1)
    with pytest.raises(GradsolError) as on_jet:
        fn(coordinate_jets(JetSpace.get(1, 0), [1.0]))
    with pytest.raises(GradsolError) as on_float:
        fn([1.0])
    assert type(on_float.value) is type(on_jet.value)


@pytest.mark.parametrize("text", FLOAT_EXACT + [
    "log(x1 - 1) + x2", "sqrt(x1 - 1)*x2^-1", "(x2 - 1)^-2 + x1^0.3", "exp(300*x2)*cos(x1)",
    "(1/(x1 - 1))^0 + x2",
])
def test_array_evaluation_is_float_evaluation_elementwise(text):
    # each entry has the float path's bits, or is NaN where the float path
    # raises; a RuntimeWarning fails the test (pyproject's filterwarnings)
    fn = compile_expression(text, 2)
    rng = np.random.default_rng(4)
    x1 = np.concatenate(([1.0, 1.0, 0.5], rng.uniform(0.1, 3.0, 202).round(1)))
    x2 = np.concatenate(([1.0, 0.0, 3.0], rng.uniform(-3.0, 3.0, 202).round(1)))
    got = fn([x1.reshape(5, -1), x2.reshape(5, -1)])
    assert got.shape == (5, 41)
    for p, value in zip(zip(x1.tolist(), x2.tolist()), got.ravel().tolist()):
        try:
            want = fn(list(p))
        except GradsolError:
            assert math.isnan(value), p
        else:
            assert value.hex() == want.hex(), p


def test_varying_exponent_is_rejected():
    with pytest.raises(ConfigurationError, match="exponent"):
        compile_expression("x1^x2", 2)
    with pytest.raises(ConfigurationError, match="exponent"):
        compile_expression("2^(x1 + 1)", 1)
