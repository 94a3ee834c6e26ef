import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import report_entry
from gradsol.errors import ConfigurationError, DomainError, ValidationError
from gradsol.levelset import level_points, prop32_report
from gradsol.solitons import (
    PointEval,
    catalog,
    get_instance,
    hamilton_first_residual,
    hamilton_second_residual,
    instance_from_spec,
    instance_rng,
    load_extension_file,
    sample_evals,
    sample_points,
    soliton_eq_residual,
    validate_instance,
)


def test_catalog_size_and_names(instances):
    assert len(instances) >= 9
    assert len(instances) == len(catalog())  # names unique
    expected = {
        "gaussian-r3", "gaussian-r4", "gaussian-r5",
        "sphere-s4", "sphere-s5",
        "cylinder-s3xr", "cylinder-s4xr",
        "s2xr2", "s2xr3",
        "warped-cylinder", "steady-flat-r4",
        "perturbed-non-soliton-r4",
    }
    assert expected <= set(instances)


def _soliton_residual(inst, point):
    """Worst component of Ric + Hess f - rho g at the point."""
    return soliton_eq_residual(PointEval(inst, point, 3))[0]


def _hamilton_residuals(inst, point):
    """(max_i |d_i R - 2 R_ij grad^j f|, |R + |grad f|^2 - f|) at the point."""
    ev = PointEval(inst, point, 3)
    return hamilton_first_residual(ev)[0], hamilton_second_residual(ev)[0]


def test_gaussian_residual_exact(instances):
    inst = instances["gaussian-r4"]
    assert _soliton_residual(inst, [2.0, 0.0, 0.0, 0.0]) == 0.0


def test_sphere_and_cylinder_residuals(instances):
    assert _soliton_residual(instances["sphere-s4"], [0.3, 0.1, -0.2, 0.4]) < 1e-10
    assert _soliton_residual(instances["cylinder-s3xr"], [0.3, -0.2, 0.5, 2.0]) < 1e-10


def test_point_outside_box(instances):
    with pytest.raises(DomainError):
        instances["gaussian-r4"].require_inside([10.0, 0.0, 0.0, 0.0])


def test_hamilton_examples(instances):
    r1, r2 = _hamilton_residuals(instances["gaussian-r4"], [2.0, 0.0, 0.0, 0.0])
    assert r1 == 0.0 and abs(r2) < 1e-14
    r1, r2 = _hamilton_residuals(instances["cylinder-s3xr"], [0.0, 0.0, 0.0, 3.0])
    assert max(r1, r2) < 1e-12
    r1, r2 = _hamilton_residuals(instances["s2xr2"], [0.0, 0.0, 2.0, 0.0])
    assert max(r1, r2) < 1e-12


def test_hamilton_rejects_non_shrinkers(suite_reports):
    # the first integrals hold on normalized shrinkers only (rho = 1/2)
    for name in ("steady-flat-r4", "expanding-gaussian-r4"):
        for cid in ("hamilton_2.5", "hamilton_2.6"):
            assert report_entry(suite_reports["reports"][name], cid)["status"] == "N/A"


def test_all_certified_instances_validate(instances):
    for inst in instances.values():
        if inst.kind is None:
            continue
        result = validate_instance(inst, n_points=8, seed=7)
        assert result["soliton_residual"] <= 1e-9


def test_negative_controls_fail_hard(instances):
    for name in ("perturbed-non-soliton-r4", "perturbed-non-soliton-r5"):
        inst = instances[name]
        worst = max(soliton_eq_residual(ev)[0] for ev in sample_evals(inst, 8, seed=7, order=3))
        assert worst >= 1e-3
        with pytest.raises(ValidationError):
            validate_instance(inst)


def test_sample_points_deterministic(instances):
    inst = instances["s2xr3"]
    a = sample_points(inst, 12, seed=5)
    b = sample_points(inst, 12, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_points(inst, 12, seed=6)
    assert not np.array_equal(a[0], c[0])


def test_sample_points_respect_exclusions(instances):
    # a ball of radius 1.5 covers about a fifth of the box [-2, 2]^3
    inst = instance_from_spec({**_GAUSSIAN_R3, "base_point": None,
                               "excluded": [{"center": [0, 0, 0], "radius": 1.5}]})
    distances = []

    def recording(p, distance=inst.excluded_distance):
        distances.append(distance(p))
        return distances[-1]

    inst.excluded_distance = recording
    for p in sample_points(inst, 20, seed=3):
        assert np.linalg.norm(p) >= 1.5 + 1e-3
        assert inst.contains(p)
    assert sum(d < 1e-3 for d in distances) >= 1  # candidates were rejected
    # nontrivial instances also avoid the critical set of the potential
    cyl = instances["cylinder-s3xr"]
    for p in sample_points(cyl, 20, seed=3):
        assert abs(p[3]) >= 2e-3 * 0.9  # |grad f| = |t|/2 >= 1e-3


def test_potential_normalization_mechanism():
    # same cylinder geometry but the potential misses its additive
    # constant; the base-point normalization must recover 3/2
    spec = {
        "name": "json-cylinder-unnormalized",
        "n": 4,
        "rho": 0.5,
        "kind": "shrinking",
        "metric": [
            ["4*(2/(1 + x1^2 + x2^2 + x3^2))^2", "0", "0", "0"],
            ["0", "4*(2/(1 + x1^2 + x2^2 + x3^2))^2", "0", "0"],
            ["0", "0", "4*(2/(1 + x1^2 + x2^2 + x3^2))^2", "0"],
            ["0", "0", "0", "1"],
        ],
        "potential": "x4^2/4",
        "domain": {"box": [[-1.2, 1.2], [-1.2, 1.2], [-1.2, 1.2], [-4, 4]]},
        "base_point": [0.0, 0.0, 0.0, 2.0],
    }
    inst = instance_from_spec(spec)
    assert abs(inst.f_shift - 1.5) < 1e-12
    result = validate_instance(inst, n_points=8, seed=7)
    h1, h2 = result["first_integral_residuals"]
    assert max(h1, h2) < 1e-9


def test_json_extension_roundtrip(tmp_path, instances):
    doc = {
        "instances": [
            {
                "name": "json-gaussian-r3",
                "n": 3,
                "rho": 0.5,
                "kind": "shrinking",
                "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "potential": "(x1^2 + x2^2 + x3^2)/4",
                "domain": {"box": [[-2, 2], [-2, 2], [-2, 2]]},
                "excluded": [{"center": [0, 0, 0], "radius": 0.0005}],
            }
        ]
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc))
    loaded = load_extension_file(str(path))
    assert len(loaded) == 1
    inst = loaded[0]
    validate_instance(inst, n_points=8, seed=7)
    # parity with the built-in gaussian at a shared point
    p = [0.5, -0.3, 0.8]
    builtin = instances["gaussian-r3"]
    assert abs(_soliton_residual(inst, p) - _soliton_residual(builtin, p)) < 1e-15


@pytest.mark.parametrize("count", [1.5, 2.0, True, 0],
                         ids=["fraction", "float", "boolean", "zero"])
def test_sample_evals_rejects_a_count_that_is_not_a_positive_int(count):
    # len(evals) == 1.5 never holds: such a count drew all 20,000 candidates
    inst = get_instance("gaussian-r3")
    calls = []

    def counting(xs, potential=inst.potential_fn):
        calls.append(None)
        return potential(xs)

    with pytest.raises(ConfigurationError, match="whole number"):
        sample_evals(dataclasses.replace(inst, potential_fn=counting), count, 3, 1)
    assert calls == []


@pytest.mark.parametrize("entry", [
    lambda inst, n: [ev.point for ev in sample_evals(inst, n, 3, 1)],
    lambda inst, n: validate_instance(inst, n_points=n, seed=3),
    lambda inst, n: [ev.point for ev in level_points(inst, 1.0, n_points=n, seed=3)],
    lambda inst, n: prop32_report(inst, 1.0, n_points=n, seed=3),
], ids=["sample_evals", "validate_instance", "level_points", "prop32_report"])
def test_a_numpy_integer_count_is_the_same_int(entry):
    # one whole-count rule for every point count: numbers.Integral, not bool
    inst = get_instance("gaussian-r3")
    assert repr(entry(inst, np.int64(4))) == repr(entry(inst, 4))


def test_builtin_specs_load_as_extensions_bit_for_bit(tmp_path):
    # the user path is the built-in path: each built-in spec, renamed and
    # written as JSON, loads to the same metric and potential jets
    from gradsol.jets import JetSpace
    from gradsol.solitons import BUILTIN_SPECS

    path = tmp_path / "ext.json"
    path.write_text(json.dumps(
        {"instances": [{**spec, "name": spec["name"] + "-copy"} for spec in BUILTIN_SPECS]}))
    loaded = load_extension_file(str(path))
    assert [inst.name for inst in loaded] == [inst.name + "-copy" for inst in catalog()]
    rng = np.random.default_rng(29)
    for inst, builtin in zip(loaded, catalog()):
        assert (inst.n, inst.rho, inst.kind, inst.box, inst.base_point) == (
            builtin.n, builtin.rho, builtin.kind, builtin.box, builtin.base_point)
        lo, hi = np.array(inst.box).T
        space = JetSpace.get(inst.n, 3)
        for p in (lo + (hi - lo) * rng.random((3, inst.n))).tolist():
            g, g_builtin = inst.metric_at(p, 3).g.data, builtin.metric_at(p, 3).g.data
            assert g.tobytes() == g_builtin.tobytes()
            assert (inst.potential_jet(p, space).coeffs.tobytes()
                    == builtin.potential_jet(p, space).coeffs.tobytes())


def test_extension_missing_fields():
    from gradsol.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        instance_from_spec({"name": "x", "n": 3})


def test_warped_cylinder_matches_product(instances):
    # phi == 2 in the warped family reproduces the product cylinder; the
    # charts differ by a cyclic coordinate permutation
    from gradsol.conformal import d_tensor, weyl
    from gradsol.curvature import curvature_pack, scalar_gradient
    from gradsol.tensors import tensor_norm_sq

    w = instances["warped-cylinder"]
    c = instances["cylinder-s3xr"]
    perm = [3, 0, 1, 2]
    rng = np.random.default_rng(17)
    for _ in range(4):
        u = rng.uniform(-1.0, 1.0, 3)
        t = rng.uniform(0.5, 3.0)
        pw = [t, *u]
        pc = [*u, t]
        mw = w.metric_at(pw, 4)
        mc = c.metric_at(pc, 4)
        packw = curvature_pack(mw)
        packc = curvature_pack(mc)
        assert np.abs(mw.g.values - mc.g.values[np.ix_(perm, perm)]).max() < 1e-12
        assert (
            np.abs(
                packw.riemann.values
                - packc.riemann.values[np.ix_(perm, perm, perm, perm)]
            ).max()
            < 1e-9
        )
        fw = w.potential_jet(pw, mw.space)
        fc = c.potential_jet(pc, mc.space)
        dw = d_tensor(packw, scalar_gradient(fw))
        dc = d_tensor(packc, scalar_gradient(fc))
        assert np.abs(dw.values - dc.values[np.ix_(perm, perm, perm)]).max() < 1e-9
        assert abs(tensor_norm_sq(weyl(packw), mw) - tensor_norm_sq(weyl(packc), mc)) < 1e-9
        assert abs(packw.scalar.value - packc.scalar.value) < 1e-12


def test_get_instance_unknown():
    from gradsol.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        get_instance("no-such-instance")


_GAUSSIAN_R3 = {
    "name": "json-gaussian-r3",
    "n": 3,
    "rho": 0.5,
    "kind": "shrinking",
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "potential": "(x1^2 + x2^2 + x3^2)/4",
    "domain": {"box": [[-2, 2], [-2, 2], [-2, 2]]},
    "base_point": [2.0, 0.0, 0.0],
}


def test_non_finite_residual_fails_certification():
    # a NaN residual loses every `r > worst` comparison; it must not certify.
    # Specs reject a non-finite rho, so the instance is changed after loading;
    # inf * 0 in rho g warns on the way.
    inst = dataclasses.replace(instance_from_spec(_GAUSSIAN_R3), rho=math.inf)
    with pytest.raises(ValidationError, match="non-finite"), pytest.warns(RuntimeWarning):
        validate_instance(inst, n_points=8, seed=7)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"rho": "inf"}, "rho"),
        ({"rho": "nan"}, "rho"),
        ({"domain": {"box": [[-2, 2], [2, -2], [-2, 2]]}}, "lo < hi"),
        ({"domain": {"box": [[-2, 2], [-2, 2]]}}, "3 pairs"),
        ({"domain": {"box": [[-2, 2], [-2, 2], [-2, "inf"]]}}, "domain.box"),
        ({"base_point": [2.0, 0.0, 5.0]}, "inside the box"),
        ({"base_point": [2.0, 0.0]}, "3 coordinates"),
        ({"base_point": []}, "3 coordinates"),
        ({"base_point": [2.0, "nan", 0.0]}, "base_point"),
        # lo and hi are finite, hi - lo is not: the sampler would draw inf coordinates
        ({"domain": {"box": [[-1e308, 1e308]] * 3}}, "widths hi - lo must be finite"),
        ({"domain": {"box": [[-2, 2], [-2, 2], [-1.7e308, 1.7e308]]}}, "widths"),
    ],
    ids=["rho-inf", "rho-nan", "inverted-box", "short-box", "infinite-box",
         "base-outside", "base-short", "base-empty", "base-nan", "overflowing-box", "overflowing-axis"],
)
def test_extension_spec_rejects_bad_numbers(change, message):
    with pytest.raises(ConfigurationError, match=message):
        instance_from_spec({**_GAUSSIAN_R3, **change})


def test_extension_spec_rejects_one_pair_box_in_dimension_two():
    spec = {**_GAUSSIAN_R3, "n": 2, "metric": [["1", "0"], ["0", "1"]],
            "potential": "(x1^2 + x2^2)/4", "domain": {"box": [[-2, 2]]},
            "base_point": None}
    with pytest.raises(ConfigurationError, match="2 pairs"):
        instance_from_spec(spec)


@pytest.mark.parametrize(
    "change",
    [{"n": "four"}, {"domain": {"box": 5}}, {"domain": 5}, {"metric": 5},
     {"metric": [["1", "0", "0"], 7, ["0", "0", "1"]]}],
    ids=["n-word", "box-int", "domain-int", "metric-int", "metric-row-int"],
)
def test_malformed_extension_structure_is_an_error(tmp_path, capsys, change):
    from gradsol.cli import main

    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"instances": [{**_GAUSSIAN_R3, **change}]}))
    assert main(["catalog", "list", "--extensions", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "excluded",
    [5, [5], [{"radius": 1}], [{"center": [0, 0], "radius": 1}],
     [{"center": [0, 0, "nan"]}], [{"center": "000"}],
     [{"center": [0, 0, 0], "radius": -1}], [{"center": [0, 0, 0], "radius": "inf"}]],
    ids=["not-a-list", "entry-int", "no-center", "short-center", "nan-center",
         "string-center", "negative-radius", "infinite-radius"],
)
def test_malformed_excluded_entry_is_an_error(tmp_path, capsys, excluded):
    from gradsol.cli import main

    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"instances": [{**_GAUSSIAN_R3, "excluded": excluded}]}))
    assert main(["catalog", "validate", "json-gaussian-r3", "--extensions", str(path),
                 "--points", "8"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["catalog", "validate", "gaussian-r3", "--points", "8"],
     ["verify", "--instance", "gaussian-r3", "--order", "4", "--points", "8"]],
    ids=["catalog-validate", "verify"],
)
@pytest.mark.parametrize("names", [["gaussian-r3"], ["json-gaussian-r3"] * 2],
                         ids=["built-in", "same-file"])
def test_repeated_instance_name_is_an_error(tmp_path, capsys, argv, names):
    # a copy named after a built-in would otherwise shadow it without a word
    from gradsol.cli import main

    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"instances": [{**_GAUSSIAN_R3, "name": n} for n in names]}))
    assert main(argv + ["--extensions", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(names[0]) in err


def test_extension_lower_triangle_is_not_evaluated():
    # the README: entries are read from the upper triangle and mirrored
    spec = {**_GAUSSIAN_R3, "n": 2, "metric": [["1", "0"], ["1/0", "1"]],
            "potential": "(x1^2 + x2^2)/4", "domain": {"box": [[-2, 2], [-2, 2]]},
            "base_point": [2.0, 0.0]}
    result = validate_instance(instance_from_spec(spec), n_points=8, seed=7)
    assert result["soliton_residual"] < 1e-12
    with pytest.raises(ConfigurationError):
        instance_from_spec({**spec, "metric": [["1", "0"], ["1/", "1"]]})


# ---------------------------------------------------------------------------
# one admission rule; trivial and f_shift are derived

_S3 = "4*(2/(1+x1^2+x2^2+x3^2))^2"
_S2 = "2*(2/(1+x1^2+x2^2))^2"
# expression-form copies of cylinder-s3xr and s2xr3
_TWINS = [
    {"name": "cylinder-s3xr-expr", "n": 4, "rho": 0.5, "kind": "shrinking",
     "metric": [[_S3 if i == j < 3 else ("1" if i == j else "0") for j in range(4)]
                for i in range(4)],
     "potential": "x4^2/4 + 1.5", "domain": {"box": [[-1.2, 1.2]] * 3 + [[-4, 4]]},
     "base_point": [0, 0, 0, 2]},
    {"name": "s2xr3-expr", "n": 5, "rho": 0.5, "kind": "shrinking",
     "metric": [[_S2 if i == j < 2 else ("1" if i == j else "0") for j in range(5)]
                for i in range(5)],
     "potential": "(x3^2 + x4^2 + x5^2)/4 + 1",
     "domain": {"box": [[-1.2, 1.2]] * 2 + [[-3, 3]] * 3}, "base_point": [0, 0, 2, 0, 0]},
]


def _order1_sampler(inst, n_points, seed):
    """The sampler before admission returned evaluations: an order-1 gradient test."""
    from gradsol.solitons import MIN_EXCLUDED_DISTANCE, MIN_GRAD_DISTANCE, PointEval, instance_rng

    rng = instance_rng(inst, seed)
    lo = np.array([b[0] for b in inst.box])
    hi = np.array([b[1] for b in inst.box])
    points = []
    while len(points) < n_points:
        p = lo + (hi - lo) * rng.random(inst.n)
        if inst.excluded_distance(p) < MIN_EXCLUDED_DISTANCE:
            continue
        ev = PointEval(inst, p, 1)
        grad_norm = math.sqrt(max(ev.df.values @ ev.gradf_up_values, 0.0))
        if not inst.trivial and grad_norm < MIN_GRAD_DISTANCE:
            continue
        points.append([float(x) for x in p])
    return points


@pytest.mark.parametrize("seed, order", [(3, 4), (7, 5)])
def test_sample_evals_are_the_order1_samplers_points(instances, seed, order):
    certified = [i for i in instances.values() if i.kind is not None]
    for inst in certified + [instance_from_spec(s) for s in _TWINS]:
        expected = _order1_sampler(inst, 20, seed)
        evals = sample_evals(inst, 20, seed, order)
        assert [ev.point for ev in evals] == expected, inst.name
        assert {ev.order for ev in evals} == {order}, inst.name
        points = sample_points(inst, 20, seed)
        assert all(isinstance(p, np.ndarray) for p in points), inst.name
        assert [list(p) for p in points] == expected, inst.name


def test_trivial_is_derived_from_the_potential(instances):
    from gradsol.solitons import SolitonInstance

    assert {name for name, inst in instances.items() if inst.trivial} == {
        "sphere-s4", "sphere-s5", "warped-sphere-s4"}
    fields = {f.name for f in dataclasses.fields(SolitonInstance)}
    assert not fields & {"trivial", "_f_shift"}


def _write_extension(tmp_path, *specs):
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"instances": list(specs)}))
    return str(path)


def test_constant_potential_extension_runs_the_suite(tmp_path, capsys):
    from gradsol.cli import main

    flat = {"name": "flat-constant-r4", "n": 4, "rho": 0, "kind": "steady",
            "metric": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
            "potential": "2", "domain": {"box": [[-2, 2]] * 4}}
    path = _write_extension(tmp_path, flat)
    report = tmp_path / "rep.json"
    assert main(["verify", "--instance", "flat-constant-r4", "--order", "4", "--points", "8",
                 "--extensions", path, "--report", str(report)]) == 0
    checks = {c["id"]: c["status"] for c in json.loads(report.read_text())["checks"]}
    assert checks["soliton_eq"] == "PASS" and checks["prop3.1"] == "N/A"


def test_declared_trivial_is_not_read(tmp_path, capsys):
    from gradsol.cli import main

    path = _write_extension(tmp_path, {**_GAUSSIAN_R3, "trivial": True})
    report = tmp_path / "rep.json"
    assert main(["verify", "--instance", "json-gaussian-r3", "--order", "4", "--points", "8",
                 "--extensions", path, "--report", str(report)]) == 0
    checks = {c["id"]: c["status"] for c in json.loads(report.read_text())["checks"]}
    assert checks["prop3.1"] == "PASS"


@pytest.mark.parametrize(
    "content",
    [None, "directory", b"\xff\xfe", "{not json", "[1]", '{"instances": 5}',
     '{"instances": [5]}',
     json.dumps({"instances": [{**_GAUSSIAN_R3, "kind": "banana"}]}),
     json.dumps({"instances": [{**_GAUSSIAN_R3, "n": 3.7}]}),
     json.dumps({"instances": [{**_GAUSSIAN_R3, "n": True, "metric": [["1"]],
                                "potential": "x1^2/4", "domain": {"box": [[-2, 2]]},
                                "base_point": [2.0]}]}),
     *(json.dumps({"instances": [{**_GAUSSIAN_R3, **change}]}) for change in [
         {"rho": True}, {"rho": "0.5"},
         {"domain": {"box": [["-2", 2], [-2, 2], [-2, 2]]}},
         {"domain": {"box": [[-2, 2], [-2, True], [-2, 2]]}},
         {"base_point": [2.0, "0", 0.0]}, {"base_point": [True, 0.0, 0.0]},
         {"excluded": [{"center": [0, "0", 0]}]},
         {"excluded": [{"center": [0, 0, 0], "radius": "0.1"}]},
         {"excluded": [{"center": [0, 0, 0], "radius": True}]},
         {"name": ["a"]}, {"name": ""}, {"name": 5}, {"description": ["a"]}])],
    ids=["missing", "directory", "not-utf8", "bad-json", "top-level-list", "instances-int",
         "instance-int", "unknown-kind", "fractional-n", "boolean-n",
         "boolean-rho", "string-rho", "string-box-bound", "boolean-box-bound",
         "string-base-coordinate", "boolean-base-coordinate", "string-center-coordinate",
         "string-radius", "boolean-radius", "list-name", "empty-name", "number-name",
         "list-description"],
)
def test_bad_extension_file_is_an_error(tmp_path, capsys, content):
    from gradsol.cli import main

    path = tmp_path / "ext.json"
    if content == "directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert main(["catalog", "list", "--extensions", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("seed", [1.5, True, "7", 7.0, -1],
                         ids=["fraction", "boolean", "string", "whole-float", "negative"])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_configuration_error(seed):
    # 1.5 used to end in SeedSequence's TypeError and True ran as seed 1
    inst = get_instance("gaussian-r3")
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        validate_instance(inst, n_points=8, seed=seed)
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        level_points(inst, 1.0, n_points=4, seed=seed)


def test_a_numpy_integer_seed_draws_as_the_same_int():
    inst = get_instance("gaussian-r3")
    assert (instance_rng(inst, np.int64(7)).random(4) == instance_rng(inst, 7).random(4)).all()


@pytest.mark.parametrize(
    "argv",
    [["verify", "--instance", "gaussian-r3", "--order", "4", "--points", "8", "--seed", "-1"],
     ["catalog", "validate", "gaussian-r3", "--seed", "-1"]],
    ids=["verify", "catalog-validate"],
)
def test_negative_seed_is_an_error(capsys, argv):
    from gradsol.cli import main

    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
