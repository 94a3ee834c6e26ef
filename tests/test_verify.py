import collections
import json
import math

import numpy as np
import pytest

from conftest import report_entry, thm52_of
from gradsol.cli import main
from gradsol.errors import ConfigurationError, CriticalPointError, ValidationError
from gradsol import cli, conformal, curvature, levelset, solitons, verify
from gradsol.solitons import get_instance
from gradsol.verify import (
    CHECKS,
    CheckSpec,
    report_to_json,
    run_suite,
    suite_passed,
)


def test_cylinder_all_applicable_pass(suite_reports):
    rep = suite_reports["reports"]["cylinder-s3xr"]
    for e in rep["checks"]:
        assert e["status"] in ("PASS", "N/A"), (e["id"], e)
    assert suite_passed(rep)


def test_s2xr2_expected_failures(suite_reports):
    rep = suite_reports["reports"]["s2xr2"]
    d = report_entry(rep, "d_vanishes")
    assert d["status"] == "FAIL"
    assert d["max_residual"] >= np.sqrt(1.0 / 12.0) - 1e-9
    assert report_entry(rep, "cotton_vanishes")["status"] == "PASS"
    assert report_entry(rep, "weyl_vanishes")["status"] == "FAIL"
    # identities still hold even though classification checks fail
    for cid in ("lemma3.1", "eq4.1", "prop3.1", "lemma5.1", "eq2.2"):
        assert report_entry(rep, cid)["status"] == "PASS", cid
    assert not suite_passed(rep)


VANISHING = {"d_vanishes", "cotton_vanishes", "weyl_vanishes", "bach_vanishes"}


@pytest.mark.parametrize("name", ["cigar-r2", "cigar-r3"])
def test_cigar_products_pass_the_identities_on_non_parallel_ricci(suite_reports, name):
    # the cigar's Ricci tensor is not parallel, so the identities that read
    # its derivatives see nonzero sides; D, C, W and B do not vanish
    rep = suite_reports["reports"][name]
    failed = {e["id"] for e in rep["checks"] if e["status"] == "FAIL"}
    assert failed == VANISHING
    for cid in ("soliton_eq", "bianchi_contracted", "eq2.4", "eq2.2", "eq4.1", "lemma5.1"):
        assert report_entry(rep, cid)["status"] == "PASS", cid
    evals = solitons.sample_evals(get_instance(name), 20, 7, 5)  # the suite's evaluations
    div_ric = max(np.abs(curvature.divergence(ev.pack.ricci.truncated(1), ev.pack, 0).values).max()
                  for ev in evals)
    half_dr = max(np.abs(0.5 * ev.pack.dscalar.values).max() for ev in evals)
    cotton = max(ev.cotton.max_abs() for ev in evals)
    cotton_max = max(conformal.cotton_weyl_divergence_residual(ev)[2]["cotton_max"]
                     for ev in evals)
    assert min(div_ric, half_dr, cotton, cotton_max) > 1e-3
    if name == "cigar-r3":  # lemma5.1's sides carry a factor n - 4
        assert max(conformal.div_bach_residual(ev)[2]["lhs_max"] for ev in evals) > 1e-3


def test_d_norm_at_spec_product_point():
    # |D| = sqrt(1/12) at the distinguished product point
    from gradsol.conformal import d_tensor
    from gradsol.curvature import curvature_pack, scalar_gradient
    from gradsol.tensors import tensor_norm_sq

    inst = get_instance("s2xr2")
    m = inst.metric_at([0.0, 0.0, 2.0, 0.0], 3)
    pack = curvature_pack(m)
    f = inst.potential_jet([0.0, 0.0, 2.0, 0.0], m.space)
    d_norm = np.sqrt(tensor_norm_sq(d_tensor(pack, scalar_gradient(f)), m))
    assert abs(d_norm - 0.2886751345948129) < 1e-9


def test_negative_control_aborts():
    with pytest.raises(ValidationError):
        run_suite(get_instance("perturbed-non-soliton-r4"), n_points=8, seed=7)


def test_order_four_skips_fifth_order_checks():
    rep = run_suite(get_instance("gaussian-r4"), n_points=8, seed=7, order=4)
    assert report_entry(rep, "lemma5.1")["status"] == "SKIPPED"
    assert report_entry(rep, "eq4.1")["status"] == "PASS"
    assert suite_passed(rep)  # skipped checks do not fail the suite


def test_points_floor_enforced():
    rep = run_suite(get_instance("gaussian-r3"), n_points=2, seed=7, order=4)
    assert rep["config"]["points"] == 8


@pytest.mark.parametrize("n_points", [math.nan, math.inf, "12", 2.5, 8.0, True],
                         ids=["nan", "inf", "string", "fraction", "whole-float", "boolean"])
def test_run_suite_rejects_a_point_count_that_is_not_an_integer(n_points):
    # int() of these used to raise ValueError or OverflowError, or ran 12 or 8 points
    with pytest.raises(ConfigurationError, match="whole number of sample points"):
        run_suite(get_instance("gaussian-r3"), n_points=n_points, seed=7, order=4)


@pytest.mark.parametrize("order", [4.0, True, 6, -1, "5"],
                         ids=["whole-float", "boolean", "above-max", "negative", "string"])
def test_run_suite_rejects_an_order_that_is_not_an_integer_in_range(order):
    # 4.0 used to run and report "order": 4.0; True ran with every check SKIPPED
    with pytest.raises(ConfigurationError, match="order must be an integer"):
        run_suite(get_instance("gaussian-r3"), n_points=8, seed=7, order=order)


def test_run_suite_takes_numpy_integers_as_the_same_ints():
    inst = get_instance("gaussian-r3")
    rep = run_suite(inst, n_points=np.int64(8), seed=np.int64(7), order=np.int64(4))
    assert all(type(v) is int for v in rep["config"].values())
    assert report_to_json(rep) == report_to_json(run_suite(inst, n_points=8, seed=7, order=4))


def test_report_to_json_writes_an_array_for_several_reports():
    reps = [run_suite(get_instance(name), n_points=8, seed=3, order=4)
            for name in ("gaussian-r3", "s2xr2")]
    one = [json.loads(report_to_json(rep)) for rep in reps]
    assert report_to_json(*reps) == json.dumps(one, sort_keys=True, indent=2) + "\n"
    assert json.loads(report_to_json(reps[0])) == one[0]


def test_report_schema_and_determinism():
    rep1 = run_suite(get_instance("s2xr2"), n_points=8, seed=3, order=4)
    rep2 = run_suite(get_instance("s2xr2"), n_points=8, seed=3, order=4)
    j1 = report_to_json(rep1)
    j2 = report_to_json(rep2)
    assert j1 == j2
    doc = json.loads(j1)
    assert set(doc) == {"instance", "config", "checks"}
    assert set(doc["config"]) == {"order", "points", "seed"}
    for entry in doc["checks"]:
        assert set(entry) == {"id", "status", "max_residual", "argmax_point", "tolerance"}
        assert entry["status"] in ("PASS", "FAIL", "SKIPPED", "N/A")
    assert {e["id"] for e in doc["checks"]} == {c.id for c in CHECKS}


def test_tol_scale_widens_tolerances():
    rep = run_suite(get_instance("gaussian-r3"), n_points=8, seed=3, order=4, tol_scale=10.0)
    e = report_entry(rep, "soliton_eq")
    assert abs(e["tolerance"] - 1e-8) < 1e-20


LEVEL_SET_IDS = {"prop3.1", "eq4.6", "eq4.7", "codazzi_tangential", "lemma4.2", "lemma4.3",
                 "prop3.2"}


def test_level_set_checks_are_not_applicable_to_a_constant_potential(suite_reports):
    # CheckSpec.level_sets alone keeps the level-set checks off a constant
    # potential: on sphere-s4 exactly they turn N/A, against the nontrivial
    # n = 4 shrinker cylinder-s3xr
    assert {c.id for c in CHECKS if c.level_sets} == LEVEL_SET_IDS
    assert {c.id for c in CHECKS if c.level_sets == "any"} == {"prop3.1"}
    sphere, cylinder = get_instance("sphere-s4"), get_instance("cylinder-s3xr")
    assert sphere.trivial and not cylinder.trivial
    lost = {c.id for c in CHECKS if c.applicable(cylinder) and not c.applicable(sphere)}
    assert lost == LEVEL_SET_IDS
    assert {c.id for c in CHECKS if c.applicable(sphere) and not c.applicable(cylinder)} == set()
    rep = suite_reports["reports"]["sphere-s4"]
    for cid in LEVEL_SET_IDS:
        assert report_entry(rep, cid)["status"] == "N/A", cid


@pytest.mark.parametrize("fn", [
    levelset.prop31_residual, verify._check_eq46, levelset.normal_geodesic_residual,
    levelset.normal_metric_derivative, levelset.frame_riemann_e1_tangential,
    levelset.frame_cotton_components,
])
def test_level_set_residual_on_a_constant_potential_raises(fn):
    # the residuals no longer return None there: grad f = 0 is a critical point
    ev = solitons.PointEval(get_instance("sphere-s4"), [0.5, -0.2, 0.3, 0.1], 3)
    with pytest.raises(CriticalPointError):
        fn(ev)


def test_verify_header_shows_the_points_run(tmp_path, capsys):
    # --points below the suite's minimum runs the minimum; the header says so
    report = tmp_path / "rep.json"
    main(["verify", "--instance", "gaussian-r3", "--order", "4", "--points", "0",
          "--report", str(report)])
    header = capsys.readouterr().out.splitlines()[0]
    points = json.loads(report.read_text())["config"]["points"]
    assert points == verify.MIN_POINTS
    assert header == f"== gaussian-r3 (order 4, {points} points, seed 7)"


def test_check_subset_selection():
    rep = run_suite(
        get_instance("gaussian-r4"),
        checks=["soliton_eq", "lemma3.1"],
        n_points=8,
        seed=7,
        order=4,
    )
    assert [e["id"] for e in rep["checks"]] == ["soliton_eq", "lemma3.1"]


def test_thm52_triples():
    st = thm52_of(get_instance("cylinder-s4xr"))
    assert st["status"] == "evaluated"
    assert st["a_d_zero"] and st["b_cotton_and_w1_zero"] and st["c_divbach_and_w1a1b_zero"]
    assert st["consistent"]

    st = thm52_of(get_instance("einstein-cylinder-s2xs2xr"))
    assert (st["a_d_zero"], st["b_cotton_and_w1_zero"], st["c_divbach_and_w1a1b_zero"]) == (
        True,
        True,
        True,
    )
    # the sharp case: conformal curvature is nonzero yet all three hold
    assert st["measured"]["w1_max"] < 1e-8

    st = thm52_of(get_instance("s2xr3"))
    assert (st["a_d_zero"], st["c_divbach_and_w1a1b_zero"]) == (False, False)
    assert st["consistent"]
    assert st["measured"]["cotton_max"] < 1e-8  # C = 0 yet D != 0

    assert thm52_of(get_instance("gaussian-r5"))["status"] == "trivial"
    assert thm52_of(get_instance("gaussian-r4"))["status"] == "not-applicable"


def test_thm52_in_suite(suite_reports):
    for name in ("cylinder-s4xr", "einstein-cylinder-s2xs2xr", "s2xr3"):
        e = report_entry(suite_reports["reports"][name], "thm5.2")
        assert e["status"] == "PASS", name  # consistency, not vanishing
    e = report_entry(suite_reports["reports"]["gaussian-r4"], "thm5.2")
    assert e["status"] == "N/A"


# ---------------------------------------------------------------------------
# CLI

def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "cylinder-s3xr" in out
    assert "negative control" in out


def test_cli_catalog_validate(capsys):
    assert main(["catalog", "validate", "cylinder-s3xr", "--points", "8"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["catalog", "validate", "perturbed-non-soliton-r4"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_exit_codes(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code = main([
        "verify", "--instance", "cylinder-s3xr", "--order", "4",
        "--points", "8", "--seed", "7", "--report", str(report),
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["instance"] == "cylinder-s3xr"

    code = main(["verify", "--instance", "s2xr2", "--order", "4", "--points", "8"])
    capsys.readouterr()
    assert code == 1  # d_vanishes fails by design on this instance


def test_cli_verify_rejected_instance_with_report(tmp_path, capsys):
    report = tmp_path / "never.json"
    code = main(["verify", "--instance", "perturbed-non-soliton-r4",
                 "--order", "4", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 1
    assert "certification failed" in out
    assert not report.exists()


def test_cli_report_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        main([
            "verify", "--instance", "gaussian-r3", "--order", "4",
            "--points", "8", "--seed", "9", "--report", str(p),
        ])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_tensor(capsys):
    assert main(["tensor", "--instance", "s2xr2", "--at", "0,0,2,0",
                 "--what", "scalar", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "1.0" in out
    assert main(["tensor", "--instance", "s2xr2", "--at", "0,0,2,0",
                 "--what", "weyl", "--order", "4"]) == 0
    capsys.readouterr()


def test_cli_tensor_takes_a_negative_first_coordinate(capsys):
    # the README's `--at x,y,...` form, with the value in its own argument
    at = "-0.3,0.1,1.6,0.5,-0.4"
    assert main(["tensor", "--instance", "s2xr3", "--at", at, "--what", "scalar"]) == 0
    out = capsys.readouterr().out
    assert main(["tensor", "--instance", "s2xr3", f"--at={at}", "--what", "scalar"]) == 0
    assert capsys.readouterr().out == out
    assert out.startswith("scalar curvature at [-0.3, 0.1, 1.6, 0.5, -0.4]: ")


def test_cli_tensor_prints_zeros_unsigned(capsys):
    # Bach vanishes on the round sphere, so its components are rounding-level
    # values of either sign; each must print as an unsigned zero
    at = ",".join(repr(float(x)) for x in get_instance("sphere-s4").base_point)
    assert main(["tensor", "--instance", "sphere-s4", "--at", at, "--what", "bach"]) == 0
    out = capsys.readouterr().out
    assert " 0." in out and "-0." not in out


@pytest.mark.parametrize("argv", [
    ["verify", "--instance", "s2xr2", "--order", "4", "--points", "8", "--tol-scale", "inf"],
    ["verify", "--instance", "s2xr2", "--order", "4", "--points", "8", "--tol-scale", "nan"],
    ["verify", "--instance", "s2xr2", "--order", "4", "--points", "8", "--tol-scale", "0"],
    ["verify", "--instance", "s2xr2", "--order", "4", "--points", "8", "--tol-scale", "-1"],
    ["catalog", "validate", "cylinder-s3xr", "--points", "0"],
    ["catalog", "validate", "cylinder-s3xr", "--points", "-3"],
], ids=["tol-inf", "tol-nan", "tol-zero", "tol-negative", "points-zero", "points-negative"])
def test_cli_rejects_numeric_flags_that_would_fool_the_suite(argv, capsys):
    # an infinite tolerance would PASS s2xr2's expected FAILs; zero points
    # would certify on no evidence
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert "PASS" not in out


@pytest.mark.parametrize("instance, at, message", [
    ("s2xr2", "0,0,two,0", "finite numbers"),
    ("s2xr2", "0,nan,2,0", "finite numbers"),
    ("s2xr2", "0,0,2", "4 coordinates"),
    ("s2xr2", "0,0,2,0,0", "4 coordinates"),
    ("cylinder-s3xr", "0,0,0,50", "outside the chart box"),
], ids=["non-numeric", "nan", "too-few", "too-many", "outside-box"])
def test_cli_tensor_rejects_bad_points(instance, at, message, capsys):
    code = main(["tensor", "--instance", instance, "--at", at, "--what", "scalar", "--order", "4"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and message in err
    assert out == ""


def test_cli_extension_file(tmp_path, capsys):
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
            }
        ]
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc))
    assert main(["catalog", "validate", "json-gaussian-r3", "--extensions", str(path),
                 "--points", "8"]) == 0
    capsys.readouterr()


def _nan_at_second_point():
    seen = []

    def fn(ev):
        seen.append(ev.point)
        return (float("nan") if len(seen) == 2 else 1e-20), 1.0

    return CheckSpec("nan_point", 2, 1e-9, fn)


@pytest.mark.parametrize(
    "make_spec",
    [
        _nan_at_second_point,
        lambda: CheckSpec("inf_scale", 2, 1e-9, lambda ev: (0.0, float("inf"))),
        lambda: CheckSpec("nan_instance", 2, 1e-9, lambda inst, evals, config: (
            float("nan"), 1.0, None), per_instance=True),
    ],
    ids=["nan_point", "inf_scale", "nan_instance"],
)
def test_non_finite_residual_fails(monkeypatch, make_spec):
    monkeypatch.setattr(verify, "CHECKS", [make_spec()])
    rep = run_suite(get_instance("gaussian-r3"), n_points=8, seed=7, order=2)
    (entry,) = rep["checks"]
    assert entry["status"] == "FAIL"
    assert "non-finite" in entry["error"]
    assert not suite_passed(rep)
    (clean,) = json.loads(report_to_json(rep))["checks"]
    assert clean["status"] == "FAIL" and clean["max_residual"] is None


def test_nan_d_norm_at_second_point_is_not_d_zero(monkeypatch):
    # Python's max(0.0, nan) is 0.0; a NaN |D| must neither read as D = 0
    # nor leave the thm5.2 verdict standing
    inst = get_instance("cylinder-s4xr")
    second = verify.sample_evals(inst, 8, 7, 5)[1].point
    d_norm = solitons.PointEval.d_norm.func
    monkeypatch.setattr(solitons.PointEval, "d_norm", property(
        lambda ev: math.nan if ev.point == second else d_norm(ev)))
    rep = run_suite(inst, n_points=8, seed=7, order=5)
    thm = report_entry(rep, "thm5.2")
    assert thm["status"] == "FAIL" and "non-finite" in thm["error"]
    assert not math.isfinite(thm["detail"]["measured"]["d_max"])
    for cid in ("eq4.6", "eq4.7", "codazzi_tangential", "lemma4.2", "prop3.2"):
        assert report_entry(rep, cid)["status"] == "N/A", cid
    assert report_entry(rep, "d_vanishes")["status"] == "FAIL"


def test_suite_evaluates_each_sample_point_once(monkeypatch):
    inst = get_instance("s2xr3")
    points = [tuple(ev.point) for ev in verify.sample_evals(inst, 8, 7, 4)]
    calls = collections.Counter()
    metric_at_point = solitons.metric_at_point

    def counting(metric_fn, point, n, order):
        calls[tuple(float(x) for x in point), order] += 1
        return metric_at_point(metric_fn, point, n, order)

    monkeypatch.setattr(solitons, "metric_at_point", counting)
    run_suite(inst, n_points=8, seed=7, order=4)
    for p in points:
        # one order-4 evaluation serves the admission test, certification and the checks
        assert {o: c for (q, o), c in calls.items() if q == p} == {4: 1}


def _count_calls(monkeypatch, fn, key):
    """Count calls of fn per key(args, result), skipping a None key, under
    every gradsol binding of fn."""
    import gradsol

    counts = collections.Counter()

    def counting(*args, **kwargs):
        out = fn(*args, **kwargs)
        k = key(args, out)
        if k is not None:
            counts[k] += 1
        return out

    modules = [gradsol] + [getattr(gradsol, m) for m in (
        "conformal", "curvature", "levelset", "solitons", "verify")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counting)
    return counts


def _where(obj):
    """(point, order) of a PointEval, a curvature pack or a metric."""
    metric = getattr(obj, "metric", obj)
    return tuple(float(x) for x in metric.point), metric.order


def test_level_surface_and_div_bach_run_once_per_point(monkeypatch):
    # cylinder-s4xr: n = 5, D = 0 and curved, so prop3.1, eq4.6, lemma4.2,
    # lemma5.1, thm5.2 and prop3.2 all run on it
    inst = get_instance("cylinder-s4xr")
    suite_points = {tuple(ev.point) for ev in verify.sample_evals(inst, 8, 7, 5)}
    bach_ids = _count_calls(monkeypatch, conformal.bach, lambda a, out: id(out))
    counts = {
        "sff": _count_calls(monkeypatch, levelset.second_fundamental_form,
                            lambda a, out: _where(a[0])),
        "frame": _count_calls(monkeypatch, levelset.adapted_frame, lambda a, out: _where(a[0])),
        "div_bach": _count_calls(
            monkeypatch, curvature.divergence,
            lambda a, out: _where(a[1]) if id(a[0]) in bach_ids else None),
    }
    rep = run_suite(inst, n_points=8, seed=7, order=5)
    for cid in ("prop3.1", "eq4.6", "lemma4.2", "lemma5.1", "thm5.2", "prop3.2"):
        assert report_entry(rep, cid)["status"] == "PASS", cid
    per_point = collections.defaultdict(dict)
    for what, c in counts.items():
        for where, n in c.items():
            per_point[where][what] = n
    suite = {w: c for w, c in per_point.items() if w[0] in suite_points}
    level = {w: c for w, c in per_point.items() if w[0] not in suite_points}
    assert sorted(suite) == sorted((p, 5) for p in suite_points)
    for where, c in suite.items():
        assert c == {"sff": 1, "frame": 1, "div_bach": 1}, where
    # prop3.2's own level points: order-3 evaluations, no Bach tensor
    assert len(level) == 12 and {o for _, o in level} == {3}
    for where, c in level.items():
        assert c == {"sff": 1, "frame": 1}, where


def test_gradients_of_f_and_r_taken_once_per_point(monkeypatch):
    # every reader of grad f reads PointEval.df and every reader of dR reads
    # CurvaturePack.dscalar, so each point evaluation takes two gradients
    inst = get_instance("cylinder-s4xr")
    taken = []  # the scalar jets whose gradient was taken, kept alive
    evals = []
    # a None key counts nothing: the key function keeps each argument instead
    _count_calls(monkeypatch, curvature.scalar_gradient, lambda a, out: taken.append(a[0]))

    class RecordingPointEval(solitons.PointEval):
        def __init__(self, *args):
            super().__init__(*args)
            evals.append(self)

    monkeypatch.setattr(solitons, "PointEval", RecordingPointEval)
    rep = run_suite(inst, n_points=8, seed=7, order=5)
    assert report_entry(rep, "prop3.2")["status"] == "PASS"
    assert sorted(ev.order for ev in evals) == [3] * 12 + [5] * 8
    for ev in evals:
        assert sum(s is ev.f for s in taken) == 1, ev.point
        assert sum(s is ev.pack.scalar for s in taken) == 1, ev.point
    assert len(taken) == 2 * len(evals) + 1  # and one for f_shift at the base point


def test_cli_equivalence_line_comes_from_the_suite(monkeypatch, capsys):
    calls = []
    thm52_status_ = verify.thm52_status

    def counting(inst, evals):
        calls.append(inst.name)
        return thm52_status_(inst, evals)

    monkeypatch.setattr(verify, "thm52_status", counting)
    monkeypatch.setattr(cli, "thm52_status", counting, raising=False)
    rc = main(["verify", "--instance", "s2xr3", "--order", "5", "--points", "8"])
    assert calls == ["s2xr3"]  # once, by the suite's thm5.2 check
    assert rc == 1  # d_vanishes and weyl_vanishes fail by design on s2xr3
    out = capsys.readouterr().out
    line = next(x for x in out.splitlines() if "equivalence status:" in x)
    status = json.loads(line.split("equivalence status: ", 1)[1])
    assert status["status"] == "evaluated" and status["consistent"]
    assert (status["a_d_zero"], status["c_divbach_and_w1a1b_zero"]) == (False, False)


def test_weyl_derivative_built_once_per_point(monkeypatch):
    # eq2.2 reads the div W that the Bach tensor's second path takes as input
    inst = get_instance("cylinder-s4xr")
    suite_points = {tuple(ev.point) for ev in verify.sample_evals(inst, 8, 7, 5)}
    counts = _count_calls(monkeypatch, curvature.divergence,
                          lambda a, out: _where(a[1]) if a[0].rank == 4 else None)
    rep = run_suite(inst, n_points=8, seed=7, order=5)
    for cid in ("eq2.2", "eq4.1", "lemma5.1", "thm5.2", "bach_vanishes"):
        assert report_entry(rep, cid)["status"] == "PASS", cid
    assert counts == {(p, 5): 1 for p in suite_points}
