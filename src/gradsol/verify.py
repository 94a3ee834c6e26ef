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
    sample_evals,
    soliton_eq_residual,
    whole_count,
)

MIN_POINTS = 8
FLAT_TOL = 1e-10


# ---------------------------------------------------------------------------
# point checks: each returns (absolute_residual, scale_of_largest_term[,
# named side maxima]); those of the conformal and level-set identities live
# next to their tensors

def _check_scalar_nonneg(ev):
    return max(0.0, -ev.pack.scalar.value), 1.0


def _check_metric_compat(ev):
    # every coefficient the connection carries: g one order above it
    g = ev.metric.g.truncated(ev.pack.gamma.order + 1)
    ng = covariant_derivative(g, ev.pack)
    return ng.max_abs(all_coeffs=True), g.max_abs(all_coeffs=True)


def _check_riemann_symmetries(ev):
    # Γ^k_ij is symmetric in i, j by construction (`curvature._connection`)
    rm = ev.pack.riemann.values
    ric = ev.pack.ricci.values
    worst = max(
        np.abs(rm + rm.transpose(1, 0, 2, 3)).max(),
        np.abs(rm + rm.transpose(0, 1, 3, 2)).max(),
        np.abs(rm - rm.transpose(2, 3, 0, 1)).max(),
        np.abs(rm + np.transpose(rm, (1, 2, 0, 3)) + np.transpose(rm, (2, 0, 1, 3))).max(),
        np.abs(ric - ric.T).max(),
    )
    return float(worst), float(np.abs(rm).max())


def _check_bianchi_contracted(ev):
    div_ric = divergence(ev.pack.ricci.truncated(1), ev.pack, 0).values
    d_scal = ev.pack.dscalar.values
    resid = np.abs(div_ric - 0.5 * d_scal).max()
    return float(resid), float(max(np.abs(div_ric).max(), np.abs(d_scal).max(), 1e-30))


def _trace_family(t, metric):
    """Antisymmetry in the first pair plus both metric traces of a 3-tensor."""
    vals = t.values
    ginv = metric.g_inv.values
    worst = np.abs(vals + vals.transpose(1, 0, 2)).max()
    worst = max(worst, np.abs(np.einsum("ij,ijk->k", ginv, vals)).max())
    worst = max(worst, np.abs(np.einsum("ik,ijk->j", ginv, vals)).max())
    return float(worst), float(np.abs(vals).max())


def _check_cotton_traces(ev):
    return _trace_family(ev.cotton, ev.metric)


def _check_d_traces(ev):
    return _trace_family(ev.dtensor, ev.metric)


def _check_weyl_tracefree(ev):
    w = ev.weyl.values
    ginv = ev.metric.g_inv.values
    worst = max(
        np.abs(np.einsum("ij,ijkl->kl", ginv, w)).max(),
        np.abs(np.einsum("ik,ijkl->jl", ginv, w)).max(),
        np.abs(np.einsum("il,ijkl->jk", ginv, w)).max(),
        np.abs(np.einsum("jl,ijkl->ik", ginv, w)).max(),
        np.abs(np.einsum("kl,ijkl->ij", ginv, w)).max(),
        np.abs(w + w.transpose(1, 0, 2, 3)).max(),
        np.abs(w + w.transpose(0, 1, 3, 2)).max(),
        np.abs(w - w.transpose(2, 3, 0, 1)).max(),
    )
    return float(worst), float(max(np.abs(w).max(), 1e-30))


def _check_weyl_n3_zero(ev):
    return ev.weyl.max_abs(), float(np.abs(ev.pack.riemann.values).max())


def _check_eq46(ev):
    h = ev.level_surface.h
    nug = levelset.normal_metric_derivative(ev)
    resid = np.abs(h + 0.5 * nug).max()
    return float(resid), float(max(np.abs(h).max(), np.abs(nug).max()))


def _check_d_vanishes(ev):
    return ev.d_norm, 1.0


def _check_cotton_vanishes(ev):
    return ev.cotton_norm, 1.0


def _check_weyl_vanishes(ev):
    return ev.weyl_norm, 1.0


def _check_bach_vanishes(ev):
    return ev.bach_norm, 1.0


# ---------------------------------------------------------------------------
# instance-level checks

# np.max, unlike max, lets a NaN at any point through: NaN is neither D = 0 nor flat

def _instance_d_zero(evals):
    return bool(np.max([ev.d_norm for ev in evals]) <= levelset.D_ZERO_TOL)


def _instance_flat(evals):
    return bool(np.max([np.abs(ev.pack.riemann.values).max() for ev in evals]) <= FLAT_TOL)


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


def thm52_status(inst, evals):
    """Evaluate the three equivalent vanishing conditions on shared evals."""
    if inst.n != 5:
        return {"status": "not-applicable", "reason": "stated for dimension 5"}
    if inst.kind is None:
        return {"status": "not-applicable", "reason": "not a certified soliton"}
    if inst.trivial or _instance_flat(evals):
        return {
            "status": "trivial",
            "reason": "Einstein or flat instance; the equivalence is vacuous here",
        }
    # np.max, unlike max, lets a NaN at any point through to the verdict
    d_max = float(np.max([ev.d_norm for ev in evals]))
    c_max = float(np.max([ev.cotton_norm for ev in evals]))
    w1, w1a1b, divb_gradf = [], [], []
    for ev in evals:
        w = ev.frame_weyl
        w1.append(np.abs(w[0]).max())
        w1a1b.append(np.abs(w[0, 1:, 0, 1:]).max())
        divb_gradf.append(abs(ev.div_bach @ ev.gradf_up_values))
    w1_max, w1a1b_max, divb_gradf_max = (float(np.max(v)) for v in (w1, w1a1b, divb_gradf))
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
    from those evaluations first (kind-less instances abort).  Checks whose
    required order exceeds `order` are SKIPPED; checks whose hypotheses the
    instance does not meet are N/A.  Per-check errors are recorded without
    aborting the rest of the suite.  A per-instance check returns (residual, scale,
    detail), with residual None for N/A; entry["detail"] keeps the detail
    (for thm5.2 the equivalence status) in memory only.

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
        if spec.level_sets == "d_zero":
            if d_zero is None:
                d_zero = _instance_d_zero(evals)
            if not d_zero:
                entries.append(entry)
                continue
        try:
            judged = argmax = None
            if spec.per_instance:
                resid, scale, detail = spec.fn(inst, evals, config)
                if detail is not None:
                    entry["detail"] = detail
                if resid is not None:
                    judged = _judge(resid, scale)
            else:
                for ev in evals:
                    out = spec.fn(ev)
                    j = _judge(out[0], out[1])
                    # `not j <= judged` also holds for NaN, which ends the scan
                    if judged is None or not j <= judged:
                        judged, argmax = j, ev.point
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
