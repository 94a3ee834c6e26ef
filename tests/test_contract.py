"""tools/contract.py's comparison of two trees' contract outputs, in memory."""

import copy
import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "contract", Path(__file__).resolve().parents[1] / "tools" / "contract.py")
contract = importlib.util.module_from_spec(spec)
spec.loader.exec_module(contract)


def _verify_output(statuses, residual=1e-12):
    report = {"instance": "s2xr3", "config": {"order": 5, "points": 20, "seed": 7},
              "checks": [{"id": cid, "status": status, "max_residual": residual,
                          "argmax_point": [0.1] * 5, "tolerance": 1e-9}
                         for cid, status in statuses.items()]}
    return {"text": "== s2xr3\n", "stderr": "", "exit": 1,
            "report": json.dumps(report, sort_keys=True, indent=2) + "\n"}


OLD = {
    "verify-o5": _verify_output({"soliton_eq": "PASS", "d_vanishes": "FAIL"}),
    "catalog gaussian-r3": {"text": "PASS gaussian-r3\n", "stderr": "", "exit": 0},
}


def test_identical_outputs_change_nothing():
    lines, changed = contract.compare(OLD, copy.deepcopy(OLD))
    assert not changed
    assert "verify-o5: byte-identical" in lines and "catalog gaussian-r3: byte-identical" in lines
    assert "moved max_residual values: 0" in lines


def test_a_planted_status_change_is_a_change():
    new = dict(OLD, **{"verify-o5": _verify_output({"soliton_eq": "PASS", "d_vanishes": "PASS"})})
    lines, changed = contract.compare(OLD, new)
    assert changed
    assert "verify-o5: differs in report" in lines
    assert "  s2xr3 d_vanishes: status FAIL -> PASS" in lines


def test_moved_residuals_are_listed_largest_first_and_change_no_status():
    new = dict(OLD, **{"verify-o5": _verify_output({"soliton_eq": "PASS", "d_vanishes": "FAIL"},
                                                   residual=3e-12)})
    lines, changed = contract.compare(OLD, new)
    assert not changed
    at = lines.index("moved max_residual values: 2")
    assert lines[at + 2].endswith("(|Δ| 2.000e-12)")


def test_every_moved_residual_is_summed_up_by_output_and_check():
    # beyond the listed largest ones: one line per (output, check id), over
    # its instances, with the count, the largest |Δ| and |Δ| over tolerance
    def output(residuals):
        reports = [{"instance": name, "checks": [
            {"id": cid, "status": "PASS", "max_residual": r, "tolerance": tol}
            for cid, (r, tol) in checks.items()]} for name, checks in residuals.items()]
        return {"text": "", "stderr": "", "exit": 0, "report": json.dumps(reports)}

    old = {"verify-o4": output({"a": {"eq2.2": (1e-12, 1e-8), "eq4.1": (1e-13, 1e-9)},
                                "b": {"eq2.2": (2e-12, 1e-8), "eq4.1": (1e-13, 1e-9)}})}
    new = {"verify-o4": output({"a": {"eq2.2": (1e-12 + 3e-16, 1e-8), "eq4.1": (1e-13, 1e-9)},
                                "b": {"eq2.2": (2e-12 - 5e-16, 1e-8), "eq4.1": (2e-13, 1e-9)}})}
    lines, changed = contract.compare(old, new)
    assert not changed
    assert "moved max_residual values: 3" in lines
    at = lines.index("moved max_residual values by output and check: 2")
    delta = abs((2e-12 - 5e-16) - 2e-12)
    assert lines[at + 1:at + 3] == [
        f"  verify-o4 eq4.1: 1 moved, largest |Δ| {1e-13:.3e}, largest |Δ|/tolerance {1e-4:.3e}",
        f"  verify-o4 eq2.2: 2 moved, largest |Δ| {delta:.3e}, "
        f"largest |Δ|/tolerance {delta / 1e-8:.3e}",
    ]
    assert lines[at + 3] == "moved argmax_point values: 0"


def test_an_exit_code_change_or_a_missing_output_is_a_change():
    new = dict(OLD, **{"catalog gaussian-r3": {"text": "FAIL\n", "stderr": "", "exit": 1}})
    lines, changed = contract.compare(OLD, new)
    assert changed and "  exit code 0 -> 1" in lines
    lines, changed = contract.compare(OLD, {"verify-o5": OLD["verify-o5"]})
    assert changed and "catalog gaussian-r3: only in old tree" in lines


def _prop32_output(**moved):
    report = {"instance": "gaussian-r4", "level": 1.0, "n_points": 2, "r_mean": 0.0,
              "h_mean": 0.75, "umbilicity_max": 1e-16, "points": [[1.0, 2.0], [3.0, 4.0]]}
    report.update(moved)
    return {"text": repr(report), "exit": 0, "fields": json.loads(json.dumps(report))}


def test_a_moved_prop32_report_lists_its_moved_fields_and_their_largest_change():
    old = {"prop32 gaussian-r4 seed 11 points 12": _prop32_output()}
    new = {"prop32 gaussian-r4 seed 11 points 12": _prop32_output(
        h_mean=0.75 + 2 ** -53, points=[[1.0, 2.0 + 2 ** -51], [3.0, 4.0 - 2 ** -50]])}
    lines, changed = contract.compare(old, new)
    assert not changed
    assert lines[:3] == [
        "prop32 gaussian-r4 seed 11 points 12: differs in text",
        f"  field h_mean moved, largest |Δ| {2 ** -53:.3e}",
        f"  field points moved, largest |Δ| {2 ** -50:.3e}",
    ]
    # an identical report, NaN included, moves no field
    same = _prop32_output(r_mean=float("nan"))
    lines, _ = contract.compare({"p": same}, {"p": copy.deepcopy(same)})
    assert lines[0] == "p: byte-identical"


def test_moved_argmax_points_are_listed():
    new_output = _verify_output({"soliton_eq": "PASS", "d_vanishes": "FAIL"})
    report = json.loads(new_output["report"])
    report["checks"][1]["argmax_point"] = [0.2] * 5
    new_output["report"] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines, changed = contract.compare(OLD, dict(OLD, **{"verify-o5": new_output}))
    assert not changed
    assert lines[-2:] == ["moved argmax_point values: 1",
                          f"  verify-o5 s2xr3 d_vanishes: {[0.1] * 5!r} -> {[0.2] * 5!r}"]
    lines, _ = contract.compare(OLD, copy.deepcopy(OLD))
    assert lines[-1] == "moved argmax_point values: 0"
