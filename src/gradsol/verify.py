"""Identity suite orchestration, reports and the equivalence-status check.

Every check evaluates the two sides of one pointwise identity (or one
symmetry/trace family) at shared sample points and records the worst
residual.  Residuals are judged relative to the magnitude of the largest
term once that magnitude exceeds one, so tolerances are scale-free across
instances.  Reports serialise deterministically: identical inputs yield
byte-identical JSON.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import levelset
from .conformal import (  # bach is unused here; bench/test_bench.py looks up verify.bach
    bach,
    bach_via_d_residual,
    cotton_weyl_divergence_residual,
    d_cotton_contraction_residual,
    d_decomposition_residual,
    div_bach_residual,
)
from .curvature import covariant_derivative, divergence
from .errors import ConfigurationError, GradsolError, InsufficientOrderError
from .jets import MAX_DIM, MAX_ORDER
from .solitons import (
    certify,
    hamilton_first_residual,
    hamilton_second_residual,
    is_normalized_shrinker,
    max_over_rows,
    read_rows,
    sample_evals,
    soliton_eq_residual,
    whole_count,
)
from .tensors import row_abs_max, row_dot, row_max

MIN_POINTS = 8
FLAT_TOL = 1e-10


# ---------------------------------------------------------------------------
# point checks: each takes a block and returns (absolute_residual,
# scale_of_largest_term[, named side maxima]), one value per row; those of the
# conformal and level-set identities live next to their tensors

def _check_scalar_nonneg(ev):
    return row_max(0.0, -ev.pack.scalar.coeffs[..., 0]), 1.0


def _check_metric_compat(ev):
    # every coefficient the connection carries: g one order above it
    g = ev.metric.g.truncated(ev.pack.gamma.order + 1)
    ng = covariant_derivative(g, ev.pack)
    return ng.max_abs(all_coeffs=True), g.max_abs(all_coeffs=True)


def _check_riemann_symmetries(ev):
    # Γ^k_ij is symmetric in i, j by construction (`curvature._connection`)
    rm = ev.pack.riemann.values
    ric = ev.pack.ricci.values
    worst = row_max(
        row_abs_max(rm + np.swapaxes(rm, -4, -3)),
        row_abs_max(rm + np.swapaxes(rm, -2, -1)),
        row_abs_max(rm - np.moveaxis(rm, (-4, -3), (-2, -1))),
        row_abs_max(rm + np.moveaxis(rm, -4, -2) + np.moveaxis(rm, -2, -4)),
        row_abs_max(ric - np.swapaxes(ric, -2, -1)),
    )
    return worst, row_abs_max(rm)


def _check_bianchi_contracted(ev):
    div_ric = divergence(ev.pack.ricci.truncated(1), ev.pack, 0).values
    d_scal = ev.pack.dscalar.values
    resid = row_abs_max(div_ric - 0.5 * d_scal)
    return resid, row_max(row_abs_max(div_ric), row_abs_max(d_scal), 1e-30)


def _trace_family(ev, t):
    """Antisymmetry in the first pair plus both metric traces of a 3-tensor."""
    vals = t.values
    ginv = ev.metric.g_inv.values
    worst = row_max(
        row_abs_max(vals + np.swapaxes(vals, -3, -2)),
        row_abs_max(np.einsum("...ij,...ijk->...k", ginv, vals)),
        row_abs_max(np.einsum("...ik,...ijk->...j", ginv, vals)),
    )
    return worst, row_abs_max(vals)


def _check_cotton_traces(ev):
    return _trace_family(ev, ev.cotton)


def _check_d_traces(ev):
    return _trace_family(ev, ev.dtensor)


def _check_weyl_tracefree(ev):
    w = ev.weyl.values
    ginv = ev.metric.g_inv.values
    worst = row_max(
        row_abs_max(np.einsum("...ij,...ijkl->...kl", ginv, w)),
        row_abs_max(np.einsum("...ik,...ijkl->...jl", ginv, w)),
        row_abs_max(np.einsum("...il,...ijkl->...jk", ginv, w)),
        row_abs_max(np.einsum("...jl,...ijkl->...ik", ginv, w)),
        row_abs_max(np.einsum("...kl,...ijkl->...ij", ginv, w)),
        row_abs_max(w + np.swapaxes(w, -4, -3)),
        row_abs_max(w + np.swapaxes(w, -2, -1)),
        row_abs_max(w - np.moveaxis(w, (-4, -3), (-2, -1))),
    )
    return worst, row_max(row_abs_max(w), 1e-30)


def _check_weyl_n3_zero(ev):
    return ev.weyl.max_abs(), ev.pack.riemann.max_abs()


def _check_eq46(ev):
    h = ev.level_surface.h
    nug = levelset.normal_metric_derivative(ev)
    resid = row_abs_max(h + 0.5 * nug)
    return resid, row_max(row_abs_max(h), row_abs_max(nug))


def _check_d_vanishes(ev):
    return ev.d_norm, 1.0


def _check_cotton_vanishes(ev):
    return ev.cotton_norm, 1.0


def _check_weyl_vanishes(ev):
    return ev.weyl_norm, 1.0


def _check_bach_vanishes(ev):
    return ev.bach_norm, 1.0


# ---------------------------------------------------------------------------
# instance-level checks: each reads every row of the evaluations (`read_rows`)


def _run_prop32(inst, evals, config):
    c = levelset._f_value(inst, inst.base_point)
    rep = levelset.prop32_report(inst, c, n_points=12, seed=config["seed"])
    # np.max, unlike max, lets a NaN through to the judgement
    resid = np.max([
        rep["r_spread"] / (1.0 + abs(rep["r_mean"])),
        rep["grad_sq_spread"] / (1.0 + abs(rep["grad_sq_mean"])),
        rep["h_spread"] / (1.0 + abs(rep["h_mean"])),
        rep["ricci_mixed_max"],
        rep["umbilicity_max"],
        rep["eigenvalue_mismatch"],
    ])
    return float(resid), 1.0, None


def _run_thm52(inst, evals, config):
    status = thm52_status(inst, evals)
    if status["status"] != "evaluated":
        return None, 1.0, status
    if not all(math.isfinite(v) for v in status["measured"].values()):
        return math.nan, 1.0, status
    return (0.0 if status["consistent"] else 1.0), 1.0, status


def _thm52_frame_terms(ev):
    """max |W(e_1, ...)|, max |W_1a1b| and |div B . grad f| of each row."""
    w = ev.frame_weyl
    return (row_abs_max(w[..., 0, :, :, :]), row_abs_max(w[..., 0, 1:, 0, 1:]),
            np.abs(row_dot(ev.div_bach, ev.gradf_up_values)))


def thm52_status(inst, evals):
    """Evaluate the three equivalent vanishing conditions on shared evals."""
    if inst.n != 5:
        return {"status": "not-applicable", "reason": "stated for dimension 5"}
    if inst.kind is None:
        return {"status": "not-applicable", "reason": "not a certified soliton"}
    # max_over_rows lets a NaN at any row through: NaN is neither D = 0 nor flat
    if inst.trivial or max_over_rows(evals, lambda ev: ev.pack.riemann.max_abs()) <= FLAT_TOL:
        return {
            "status": "trivial",
            "reason": "Einstein or flat instance; the equivalence is vacuous here",
        }
    d_max = max_over_rows(evals, lambda ev: ev.d_norm)
    c_max = max_over_rows(evals, lambda ev: ev.cotton_norm)
    # np.max, unlike max, lets a NaN at any row through to the verdict
    terms = list(zip(*read_rows(evals, _thm52_frame_terms)))[1:]
    w1_max, w1a1b_max, divb_gradf_max = (float(np.max(v)) for v in terms)
    tol = 1e-8
    a = d_max <= tol
    b = (c_max <= tol) and (w1_max <= tol)
    c = (divb_gradf_max <= tol) and (w1a1b_max <= tol)
    return {
        "status": "evaluated",
        "a_d_zero": bool(a),
        "b_cotton_and_w1_zero": bool(b),
        "c_divbach_and_w1a1b_zero": bool(c),
        "consistent": bool(a == b == c),
        "measured": {
            "d_max": d_max,
            "cotton_max": c_max,
            "w1_max": w1_max,
            "w1a1b_max": w1a1b_max,
            "div_bach_grad_f_max": divb_gradf_max,
        },
    }


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class CheckSpec:
    """One identity or property checked by the suite on a certified soliton."""

    id: str
    required_order: int
    tolerance: float
    fn: object
    per_instance: bool = False
    min_dim: int = 3
    shrinker_only: bool = False
    level_sets: str | None = None  # None, "any" or "d_zero": see `applicable`
    exact_dim: int | None = None

    def applicable(self, inst):
        """Whether `inst` meets the check's hypotheses on dimension and kind.

        A level-set check ("any") needs regular level surfaces, so a
        non-constant potential; one on the D = 0 branch ("d_zero") also
        needs D = 0 on the sample, which `run_suite` decides from its evals.
        """
        if self.exact_dim is not None and inst.n != self.exact_dim:
            return False
        if not (self.min_dim <= inst.n <= MAX_DIM):
            return False
        if self.shrinker_only and not is_normalized_shrinker(inst):
            return False
        return not (self.level_sets and inst.trivial)


CHECKS = [
    CheckSpec("soliton_eq", 2, 1e-9, soliton_eq_residual),
    CheckSpec("hamilton_2.5", 3, 1e-9, hamilton_first_residual, shrinker_only=True),
    CheckSpec("hamilton_2.6", 2, 1e-9, hamilton_second_residual, shrinker_only=True),
    CheckSpec("scalar_nonnegative", 2, 1e-10, _check_scalar_nonneg, shrinker_only=True),
    CheckSpec("metric_compatibility", 2, 1e-10, _check_metric_compat),
    CheckSpec("riemann_symmetries", 2, 1e-9, _check_riemann_symmetries),
    CheckSpec("bianchi_contracted", 3, 1e-8, _check_bianchi_contracted),
    CheckSpec("eq2.4", 3, 1e-9, _check_cotton_traces),
    CheckSpec("eq3.3", 3, 1e-9, _check_d_traces),
    CheckSpec("weyl_tracefree", 2, 1e-9, _check_weyl_tracefree, min_dim=4),
    CheckSpec("weyl_dim3_zero", 2, 1e-9, _check_weyl_n3_zero, exact_dim=3),
    CheckSpec("eq2.2", 4, 1e-8, cotton_weyl_divergence_residual, min_dim=4),
    CheckSpec("lemma3.1", 3, 1e-8, d_decomposition_residual),
    CheckSpec("d_gradf_contraction", 3, 1e-9, d_cotton_contraction_residual),
    CheckSpec("eq4.1", 4, 1e-8, bach_via_d_residual, min_dim=4),
    CheckSpec("lemma5.1", 5, 1e-7, div_bach_residual, min_dim=4),
    CheckSpec("prop3.1", 3, 1e-8, levelset.prop31_residual, level_sets="any"),
    CheckSpec("eq4.6", 3, 1e-8, _check_eq46, level_sets="d_zero"),
    CheckSpec("eq4.7", 3, 1e-8, levelset.normal_geodesic_residual, level_sets="d_zero"),
    CheckSpec("codazzi_tangential", 3, 1e-8, levelset.frame_riemann_e1_tangential,
              level_sets="d_zero"),
    CheckSpec("lemma4.2", 3, 1e-8, levelset.frame_cotton_components, min_dim=4,
              level_sets="d_zero"),
    CheckSpec("lemma4.3", 3, 1e-8, _check_weyl_vanishes, exact_dim=4, level_sets="d_zero"),
    CheckSpec("prop3.2", 3, 1e-8, _run_prop32, per_instance=True, level_sets="d_zero"),
    CheckSpec("thm5.2", 5, 0.5, _run_thm52, per_instance=True, exact_dim=5),
    CheckSpec("d_vanishes", 3, 1e-9, _check_d_vanishes),
    CheckSpec("cotton_vanishes", 3, 1e-9, _check_cotton_vanishes),
    CheckSpec("weyl_vanishes", 2, 1e-9, _check_weyl_vanishes, min_dim=4),
    CheckSpec("bach_vanishes", 4, 1e-8, _check_bach_vanishes, min_dim=4),
]


# ---------------------------------------------------------------------------
# suite runner

def _judge(resid, scale):
    """Residual relative to max(1, scale); NaN when the scale is not finite."""
    if not math.isfinite(scale):
        return math.nan
    return resid / max(1.0, scale)


def run_suite(inst, checks=None, n_points=20, seed=7, order=5, tol_scale=1.0):
    """Run the identity suite on one instance; returns the report dict.

    Each sample point is evaluated once, admission test included, at order
    max(order, 3) for the first integrals, and the instance is certified
    from those evaluations first (kind-less instances abort).  The points
    are evaluated in blocks of `solitons.block_rule`'s rows, a block being
    the `PointEval` of a list of points, which plans its own evaluation
    (`PointEval.pack`), and every check reads the blocks themselves: a
    per-point check is called once per block and returns one residual and
    scale per row (`solitons.read_rows`).  The rows are judged
    in draw order by the rule of a point-by-point scan: each row's judged
    residual is `_judge`'s, the first maximal row is argmax_point, and the
    first non-finite row ends the scan.  Each row holds its own point's bits,
    so the report is that of evaluating the points one by one.  A block
    whose evaluation raises leaves its points to be judged alone, in order,
    as blocks of one; an error, of a point or of the D = 0 decision, is a FAIL
    of the checks that read it, with its point's own text, and the rest of
    the suite runs on.  Checks whose required order exceeds `order` are
    SKIPPED; checks whose hypotheses the instance does not meet are N/A.  A
    per-instance check returns (residual, scale, detail), with residual None
    for N/A; entry["detail"] keeps the detail (for thm5.2 the equivalence
    status) in memory only.

    ConfigurationError, before any point is drawn, for a point count that is
    not an integer (one below MIN_POINTS is raised to it), an order that is
    not an integer in 0..MAX_ORDER, a seed that is not an integer >= 0 and a
    tol_scale that is not finite and > 0.
    """
    # `not 0 <`, unlike `<= 0`, also holds for NaN
    if not 0.0 < tol_scale < math.inf:
        raise ConfigurationError(f"tol_scale must be finite and > 0, got {tol_scale}")
    n_points = max(MIN_POINTS, whole_count(inst, n_points, "sample points"))
    if (isinstance(order, bool) or not isinstance(order, numbers.Integral)
            or not 0 <= order <= MAX_ORDER):
        raise ConfigurationError(f"order must be an integer in 0..{MAX_ORDER}, got {order!r}")
    order = int(order)
    evals = sample_evals(inst, n_points, seed, max(order, 3))
    certify(inst, evals)

    selected = CHECKS if checks is None else [c for c in CHECKS if c.id in set(checks)]
    # sample_evals has checked the seed; the report holds plain ints
    config = {"order": order, "points": n_points, "seed": int(seed)}

    d_zero = None
    entries = []
    for spec in selected:
        entry = {
            "id": spec.id,
            "status": "N/A",
            "max_residual": None,
            "argmax_point": None,
            "tolerance": spec.tolerance * tol_scale,
        }
        if not spec.applicable(inst):
            entries.append(entry)
            continue
        if spec.required_order > order:
            entry["status"] = "SKIPPED"
            entries.append(entry)
            continue
        try:
            if spec.level_sets == "d_zero":
                if d_zero is None:  # decided in the try: an error of D FAILs the checks on D = 0
                    d_zero = max_over_rows(evals, lambda ev: ev.d_norm) <= levelset.D_ZERO_TOL
                if not d_zero:
                    entries.append(entry)
                    continue
            judged = argmax = None
            if spec.per_instance:
                resid, scale, detail = spec.fn(inst, evals, config)
                if detail is not None:
                    entry["detail"] = detail
                if resid is not None:
                    judged = _judge(resid, scale)
            else:
                for point, resid, scale in read_rows(evals, lambda ev: spec.fn(ev)[:2]):
                    j = _judge(resid, scale)
                    # `not j <= judged` also holds for NaN, which ends the scan
                    if judged is None or not j <= judged:
                        judged, argmax = j, point
                    if not math.isfinite(j):
                        break
            if judged is None:
                entries.append(entry)
                continue
            entry["max_residual"] = judged
            entry["argmax_point"] = argmax
            if not math.isfinite(judged):
                entry["status"] = "FAIL"
                entry["error"] = f"non-finite residual {judged} at {argmax}"
            else:
                entry["status"] = "PASS" if judged <= entry["tolerance"] else "FAIL"
        except InsufficientOrderError:
            entry["status"] = "SKIPPED"
        except GradsolError as err:
            entry["status"] = "FAIL"
            entry["error"] = f"{type(err).__name__}: {err}"
        entries.append(entry)

    return {
        "instance": inst.name,
        "config": config,
        "checks": entries,
    }


def _finite_or_none(x):
    return x if x is None or math.isfinite(x) else None


def report_to_json(*reports):
    """Serialise the exact field set consumed by CI, byte-stably: one object
    for one report, an array for several."""
    clean = [
        {
            "instance": r["instance"],
            "config": {k: r["config"][k] for k in ("order", "points", "seed")},
            "checks": [
                {
                    "id": e["id"],
                    "status": e["status"],
                    "max_residual": _finite_or_none(e["max_residual"]),
                    "argmax_point": e["argmax_point"],
                    "tolerance": e["tolerance"],
                }
                for e in r["checks"]
            ],
        }
        for r in reports
    ]
    return json.dumps(clean[0] if len(clean) == 1 else clean, sort_keys=True, indent=2) + "\n"


def suite_passed(report):
    return all(e["status"] != "FAIL" for e in report["checks"])
