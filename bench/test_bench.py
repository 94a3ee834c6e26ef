"""Tests of the benchmark's own code.  Run: python3 -m pytest bench -q"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer, gradsol_modules  # noqa: E402
from workloads import EXTENSIONS, LevelsetWorkload, Outcome, VerifyWorkload, \
    load_expected  # noqa: E402

run.import_gradsol()

import gradsol.cli  # noqa: E402
import gradsol.solitons  # noqa: E402
import gradsol.verify  # noqa: E402
from gradsol.errors import ConsistencyError  # noqa: E402


@pytest.fixture
def expected():
    return load_expected()


def verify_workload(name, expected, tmp_path, labels):
    wl = VerifyWorkload(name, 4 if name == "verify-o4-ext" else 5,
                        name == "verify-o4-ext", tmp_path, expected)
    wl.setup()
    wl.labels = labels
    return wl


def bindings():
    """Identity of every gradsol.* attribute, plus the attributes the tracer patches."""
    snap = {(m.__name__, attr): id(value)
            for m in gradsol_modules() for attr, value in vars(m).items()}
    snap["SolitonInstance.excluded_distance"] = id(
        gradsol.solitons.SolitonInstance.__dict__["excluded_distance"])
    return snap


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps(EXTENSIONS))
    paths = []
    for traced in (False, True):
        path = tmp_path / f"report-{traced}.json"
        argv = ["verify", "--instance", "cylinder-s3xr-expr", "--order", "4",
                "--points", "8", "--seed", "3", "--report", str(path),
                "--extensions", str(ext)]
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            gradsol.cli.main(argv)
        finally:
            tracer.uninstall()
        paths.append(path)
        if traced:
            assert tracer.stats["exprs.eval"][0] > 0
            assert tracer.stats["verify.run_suite"][0] == 1
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tracer_restores_every_binding():
    before = bindings()
    originals = {name: getattr(gradsol.jets, name) for name in ("jet_einsum", "mul_arrays")}
    inst = gradsol.solitons.catalog()[5]
    closures = (inst.metric_fn, inst.potential_fn)
    checks = gradsol.verify.CHECKS

    tracer = Tracer()
    tracer.install()
    tracer.instrument_instances([inst])
    try:
        changed = {key for key, value in bindings().items() if before[key] != value}
        # functions imported by name are rebound in every module that holds them
        for name, fn in originals.items():
            holders = [(m.__name__, attr) for m in gradsol_modules()
                       for attr, value in vars(m).items() if value is fn]
            assert holders == []
            assert ("gradsol.jets", name) in changed
        for key in [("gradsol.cli", "run_suite"), ("gradsol", "bach"),
                    ("gradsol.verify", "bach"), ("gradsol.conformal", "bach"),
                    ("gradsol.verify", "CHECKS"), "SolitonInstance.excluded_distance"]:
            assert key in changed
        assert inst.metric_fn is not closures[0]
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert gradsol.verify.CHECKS is checks
    assert (inst.metric_fn, inst.potential_fn) == closures


def test_injected_status_mismatch_raises_fail_frac(expected, tmp_path):
    wl = verify_workload("verify-o5", expected, tmp_path, ["cylinder-s2xr"])
    ok = run.one_pass(wl, 4)
    assert run.report_failures([ok]) == (1, 0)

    doctored = copy.deepcopy(expected)
    doctored["verify-o5"]["cylinder-s2xr"]["checks"]["soliton_eq"] = "FAIL"
    wl = verify_workload("verify-o5", doctored, tmp_path, ["cylinder-s2xr"])
    assert run.report_failures([run.one_pass(wl, 4)]) == (1, 1)

    # a check that raises leaves an error on the report: counted as failed
    def broken(ev):
        raise ConsistencyError("injected")

    saved = gradsol.verify.CHECKS
    gradsol.verify.CHECKS = [dataclasses.replace(c, fn=broken) if c.id == "eq3.3" else c
                             for c in saved]
    try:
        wl = verify_workload("verify-o5", expected, tmp_path, ["cylinder-s2xr"])
        outcome = run.one_pass(wl, 4)["outcomes"][0]
    finally:
        gradsol.verify.CHECKS = saved
    assert any("eq3.3" in p for p in outcome.problems)
    assert any("error" in p for p in outcome.problems)


def test_extension_copy_must_match_its_twin(expected, tmp_path):
    wl = verify_workload("verify-o4-ext", expected, tmp_path,
                         ["cylinder-s3xr", "cylinder-s3xr-expr"])
    assert run.report_failures([run.one_pass(wl, 5)]) == (2, 0)

    wl.start_pass()
    twin = dict(expected["verify-o4-ext"]["cylinder-s3xr"]["checks"], **{"eq4.6": "FAIL"})
    wl._pass_statuses["cylinder-s3xr"] = twin
    outcome = wl.request("cylinder-s3xr-expr", 5)
    assert any("twin" in p for p in outcome.problems)


def test_seed_changes_sample_points_not_statuses(expected, tmp_path):
    inst = gradsol.solitons.get_instance("cylinder-s2xr")
    seeds = [run.pass_seed(1, 0), run.pass_seed(2, 0)]
    points = [gradsol.solitons.sample_points(inst, 20, s) for s in seeds]
    assert not all((a == b).all() for a, b in zip(*points))

    wl = verify_workload("verify-o5", expected, tmp_path, ["cylinder-s2xr"])
    for seed in seeds:
        outcome = run.one_pass(wl, seed)["outcomes"][0]
        assert outcome.problems == []
        assert outcome.statuses == expected["verify-o5"]["cylinder-s2xr"]["checks"]

    lw = LevelsetWorkload(tmp_path, expected)
    lw.setup()
    reports = [gradsol.levelset.prop32_report(lw.instances[3], lw.levels["cylinder-s2xr"],
                                              n_points=16, seed=s) for s in seeds]
    assert reports[0]["points"] != reports[1]["points"]
    assert [lw.check(r) for r in reports] == [[], []]


def test_benchmark_json_lists_the_runner_metrics(expected):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == run.per_layer_metrics(run.check_ids_of(expected))
    assert [w["name"] for w in spec["workloads"]] == list(expected)


def test_scaling_removes_a_machine_slowdown():
    ref = run.REFERENCE_PROBE_S
    # the machine halves its speed after the third request; the work is the same
    passes = [{"outcomes": [Outcome("a", s, []) for s in (1.0, 1.0, 1.0)],
               "probes": [ref] * 3},
              {"outcomes": [Outcome("a", s, []) for s in (2.0, 2.0, 2.0)],
               "probes": [2 * ref] * 3}]
    scaled = run.scale_latencies(passes, final_probe=2 * ref)
    assert scaled[0][0] == pytest.approx(1.0)
    assert scaled[1][2] == pytest.approx(1.0)


def test_tail_percentile_has_ten_requests_beyond_it():
    for name, per_pass in (("verify-o5", 15), ("verify-o4-ext", 17), ("levelset", 10)):
        q = run.tail_percentile(name, per_pass)
        n = run.MIN_PASSES[name] * per_pass
        assert n * (100 - q) / 100 >= run.TAIL_BEYOND
        assert n * (100 - q - 1) / 100 < run.TAIL_BEYOND


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "levelset", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
