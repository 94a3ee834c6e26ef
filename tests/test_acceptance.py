"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    all_alphas,
    fd_metric_partials,
    jet_partial_of_entry,
    point_evals,
    report_entry,
    thm52_of,
)
from gradsol.conformal import bach_via_d_residual, div_bach_residual
from gradsol.errors import ValidationError
from gradsol.levelset import prop31_residual, prop32_report
from gradsol.solitons import (
    PointEval,
    catalog,
    get_instance,
    instance_rng,
    soliton_eq_residual,
    validate_instance,
)
from gradsol.verify import report_to_json, run_suite


def _verdict(num, label, ok):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_catalog_certification():
    t0 = time.perf_counter()
    ok = True
    for inst in catalog():
        if inst.kind != "shrinking":
            continue
        result = validate_instance(inst, n_points=20, seed=7)
        ok = ok and result["soliton_residual"] <= 1e-9
        h1, h2 = result["first_integral_residuals"]
        ok = ok and max(h1, h2) <= 1e-9
    for name in ("perturbed-non-soliton-r4", "perturbed-non-soliton-r5"):
        inst = get_instance(name)
        worst = max(soliton_eq_residual(ev)[0]
                    for ev in point_evals(inst, 20, seed=7, order=3))
        ok = ok and worst >= 1e-3
        try:
            validate_instance(inst, n_points=20, seed=7)
            ok = False
        except ValidationError:
            pass
    elapsed = time.perf_counter() - t0
    print(f"   certification wall time: {elapsed:.2f} s (budget 5 s)")
    _verdict(1, "catalog certification and negative control", ok and elapsed < 5.0)


def test_criterion_02_symmetry_trace_suite(suite_reports):
    ok = True
    for name, rep in suite_reports["reports"].items():
        for cid in ("eq2.4", "eq3.3"):
            e = report_entry(rep, cid)
            if e["status"] == "N/A":
                continue
            ok = ok and e["status"] == "PASS" and e["max_residual"] <= 1e-9
        e = report_entry(rep, "weyl_tracefree")
        if e["status"] != "N/A":
            ok = ok and e["status"] == "PASS" and e["max_residual"] <= 1e-9
    _verdict(2, "cotton/d antisymmetry-trace and weyl trace-free residuals", ok)


def test_criterion_03_cotton_weyl_divergence(suite_reports):
    ok = True
    for name, rep in suite_reports["reports"].items():
        inst = get_instance(name)
        if inst.n not in (4, 5):
            continue
        e = report_entry(rep, "eq2.2")
        ok = ok and e["status"] == "PASS" and e["max_residual"] <= 1e-8
    _verdict(3, "divergence relation between cotton and weyl", ok)


def test_criterion_04_d_decomposition(suite_reports):
    ok = True
    for rep in suite_reports["reports"].values():
        e = report_entry(rep, "lemma3.1")
        ok = ok and e["status"] == "PASS" and e["max_residual"] <= 1e-8
    _verdict(4, "decomposition of D into cotton plus weyl contraction", ok)


def test_criterion_05_bach_through_d():
    inst = get_instance("s2xr2")
    ok = True
    nonvacuous = False
    for ev in point_evals(inst, 10, seed=7, order=5):
        resid, scale, sides = bach_via_d_residual(ev)
        ok = ok and resid[0] / max(1.0, scale[0]) <= 1e-8
        if sides["bach_max"][0] > 1e-3 and sides["d_divergence_max"][0] > 1e-3:
            nonvacuous = True
    for name in ("cylinder-s3xr", "gaussian-r4"):
        inst = get_instance(name)
        for ev in point_evals(inst, 6, seed=7, order=5):
            ok = ok and bach_via_d_residual(ev)[0][0] <= 1e-9
    _verdict(5, "bach expressed through D (nonvacuous on the curved product)", ok and nonvacuous)


def test_criterion_06_norm_identity_spot_value():
    _, _, r = prop31_residual(PointEval(get_instance("s2xr2"), [[0.0, 0.0, 2.0, 0.0]], 4))
    r = {key: r[key][0] for key in ("lhs", "rhs")}  # the block's one row
    ok = abs(r["lhs"] - 1.0 / 12.0) <= 1e-8 and abs(r["rhs"] - 1.0 / 12.0) <= 1e-8
    print(f"   |D|^2 spot value: lhs {r['lhs']:.12f}, rhs {r['rhs']:.12f}, target 1/12")
    _verdict(6, "norm identity spot value 1/12 at the product point", ok)


def test_criterion_07_level_surface_structure():
    rep = prop32_report(get_instance("cylinder-s3xr"), 9.0 / 4.0 + 1.5, n_points=12)
    ok = (
        abs(rep["lambda"] - 0.0) <= 1e-8
        and abs(rep["mu"] - 0.5) <= 1e-8
        and rep["h_spread"] <= 1e-8
        and rep["r_spread"] <= 1e-8
        and rep["umbilicity_max"] <= 1e-8
        and rep["n_points"] >= 12
    )
    print(f"   lambda {rep['lambda']:.2e}, mu {rep['mu']:.9f}, "
          f"spreads (R {rep['r_spread']:.2e}, H {rep['h_spread']:.2e}), "
          f"umbilicity {rep['umbilicity_max']:.2e}")
    _verdict(7, "level-surface eigenvalue pair and constancy on the cylinder", ok)


def test_criterion_08_d_zero_forces_cotton_and_weyl(suite_reports):
    ok = True
    checked = 0
    for name, rep in suite_reports["reports"].items():
        inst = get_instance(name)
        if inst.n != 4 or inst.trivial:
            continue
        d_entry = report_entry(rep, "d_vanishes")
        if d_entry["status"] != "PASS" or d_entry["max_residual"] > 1e-9:
            continue
        checked += 1
        for cid in ("cotton_vanishes", "lemma4.2", "lemma4.3"):
            e = report_entry(rep, cid)
            ok = ok and e["status"] == "PASS" and e["max_residual"] <= 1e-8
        w = report_entry(rep, "weyl_vanishes")
        ok = ok and w["max_residual"] <= 1e-8
    _verdict(8, f"cotton/weyl vanish on the {checked} four-dim instances with D = 0",
             ok and checked >= 3)


def _row0(resid, scale, sides):
    """A block of one's residual, scale and named side maxima, read at its row."""
    return resid[0], scale[0], {key: value[0] for key, value in sides.items()}


def test_criterion_09_div_bach(suite_reports):
    ok = True
    # certified instances: the suite's order-5 divergence check
    for name, rep in suite_reports["reports"].items():
        e = report_entry(rep, "lemma5.1")
        if e["status"] == "N/A":
            continue
        ok = ok and e["status"] == "PASS" and e["max_residual"] <= 1e-7
    # negative controls run outside the suite: dimension four annihilates
    # the divergence for any metric, nonvacuously (nonzero bach tensor)
    inst = get_instance("perturbed-non-soliton-r4")
    bach_seen = 0.0
    for ev in point_evals(inst, 8, seed=7, order=5):
        _, _, r = _row0(*div_bach_residual(ev))
        ok = ok and r["lhs_max"] <= 1e-7 and r["rhs_max"] == 0.0
        bach_seen = max(bach_seen, r["bach_max"])
    ok = ok and bach_seen > 1e-3
    # dimension five: on the curved product both sides vanish identically
    # (its Ricci tensor is parallel so the cotton tensor is zero); the
    # two-sided nonvacuous form runs on the curved control instead
    inst = get_instance("s2xr3")
    for ev in point_evals(inst, 8, seed=7, order=5):
        resid, _, r = _row0(*div_bach_residual(ev))
        ok = ok and resid <= 1e-7 and r["bach_max"] > 1e-3
    inst = get_instance("perturbed-non-soliton-r5")
    side_seen = 0.0
    for ev in point_evals(inst, 8, seed=7, order=5):
        resid, _, r = _row0(*div_bach_residual(ev))
        # judged against the two sides alone, not the suite's scale that includes |B|
        ok = ok and resid / max(1.0, r["lhs_max"], r["rhs_max"]) <= 1e-7
        side_seen = max(side_seen, min(r["lhs_max"], r["rhs_max"]))
    ok = ok and side_seen > 1e-3
    elapsed = suite_reports["elapsed"]
    print(f"   order-5 suite over the whole catalog: {elapsed:.1f} s (budget 60 s); "
          f"two-sided control sides reach {side_seen:.2e}")
    _verdict(9, "divergence of bach at full order", ok and elapsed < 60.0)


def test_criterion_10_equivalence_statuses():
    st1 = thm52_of(get_instance("cylinder-s4xr"))
    st2 = thm52_of(get_instance("einstein-cylinder-s2xs2xr"))
    st3 = thm52_of(get_instance("s2xr3"))
    ok = (
        st1["status"] == "evaluated"
        and st1["a_d_zero"] and st1["b_cotton_and_w1_zero"] and st1["c_divbach_and_w1a1b_zero"]
        and st2["a_d_zero"] and st2["b_cotton_and_w1_zero"] and st2["c_divbach_and_w1a1b_zero"]
        and st3["a_d_zero"] is False and st3["c_divbach_and_w1a1b_zero"] is False
    )
    for inst in catalog():
        if inst.n != 5 or inst.kind is None:
            continue
        st = thm52_of(inst)
        if st["status"] == "evaluated":
            ok = ok and st["consistent"]
    _verdict(10, "equivalence-status triples in dimension five", ok)


def test_criterion_11_differentiation_oracle():
    ok = True
    worst = 0.0
    for inst in catalog():
        alphas = all_alphas(inst.n, 3)
        rng = instance_rng(inst, 1234)
        lo = np.array([b[0] for b in inst.box])
        hi = np.array([b[1] for b in inst.box])
        # keep finite-difference probes inside the chart box
        margin = 1e-4 * (hi - lo)
        for _ in range(50):
            p = lo + margin + (hi - lo - 2 * margin) * rng.random(inst.n)
            base, fd = fd_metric_partials(inst, list(p), alphas)
            for (comp, alpha), fd_val in fd.items():
                jet_val = jet_partial_of_entry(base[comp], alpha)
                rel = abs(jet_val - fd_val) / (1.0 + max(abs(jet_val), abs(fd_val)))
                worst = max(worst, rel)
                ok = ok and rel <= 1e-6
    print(f"   worst relative deviation across the catalog: {worst:.2e}")
    _verdict(11, "jet partials match the finite-difference oracle", ok)


def test_criterion_12_determinism(tmp_path):
    blobs = []
    for _ in range(2):
        rep = run_suite(get_instance("s2xr2"), n_points=12, seed=5, order=5)
        blobs.append(report_to_json(rep).encode())
    ok = blobs[0] == blobs[1]
    from gradsol.cli import main

    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        main(["verify", "--instance", "cylinder-s3xr", "--order", "4",
              "--points", "8", "--seed", "11", "--report", str(p)])
    ok = ok and p1.read_bytes() == p2.read_bytes()
    _verdict(12, "byte-identical reports for identical flags", ok)
