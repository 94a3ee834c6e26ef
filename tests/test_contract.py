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
    assert "moved max_residual values: 2" in lines
    assert lines[-2].endswith("(|Δ| 2.000e-12)")


def test_an_exit_code_change_or_a_missing_output_is_a_change():
    new = dict(OLD, **{"catalog gaussian-r3": {"text": "FAIL\n", "stderr": "", "exit": 1}})
    lines, changed = contract.compare(OLD, new)
    assert changed and "  exit code 0 -> 1" in lines
    lines, changed = contract.compare(OLD, {"verify-o5": OLD["verify-o5"]})
    assert changed and "catalog gaussian-r3: only in old tree" in lines
