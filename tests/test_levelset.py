import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import point_evals
from gradsol.errors import (
    ConfigurationError,
    ConsistencyError,
    CriticalPointError,
    HypothesisViolationError,
    SingularEvaluationError,
)
from gradsol import levelset, solitons
from gradsol.exprs import compile_expression
from gradsol.jets import JetSpace
from gradsol.levelset import (
    _f_value,
    adapted_frame,
    frame_cotton_components,
    frame_riemann_e1_tangential,
    level_points,
    normal_metric_derivative,
    prop31_residual,
    prop32_report,
    second_fundamental_form,
)
from gradsol.solitons import PointEval, SolitonInstance, catalog, get_instance, points_of
from gradsol.verify import run_suite


def test_frame_gaussian(point_eval):
    ev = point_eval("gaussian-r4", [2.0, 0.0, 0.0, 0.0], 3)
    fr = adapted_frame(ev)
    assert np.allclose(fr[..., 0, :], [1.0, 0.0, 0.0, 0.0])
    assert abs(ev.grad_f_norm - 1.0) < 1e-14


def test_frame_cylinder_axis(point_eval):
    fr = adapted_frame(point_eval("cylinder-s3xr", [0.3, -0.2, 0.5, 2.0], 3))
    assert np.allclose(np.abs(fr[..., 0, :]), [0.0, 0.0, 0.0, 1.0], atol=1e-13)
    fr = adapted_frame(point_eval("cylinder-s3xr", [0.3, -0.2, 0.5, -2.0], 3))
    assert fr[0, 0, 3] < 0.0


def test_frame_orthonormal_sampled(instances):
    inst = instances["s2xr2"]
    for ev in point_evals(inst, 20, seed=19, order=3):
        fr = adapted_frame(ev)
        vectors = fr[0]
        gram = vectors @ ev.metric.g.values[0] @ vectors.T
        assert np.abs(gram - np.eye(4)).max() < 1e-10


def test_frame_critical_point(point_eval):
    ev = point_eval("gaussian-r4", [1e-7, 0.0, 0.0, 0.0], 3)
    with pytest.raises(CriticalPointError):
        adapted_frame(ev)


def test_h_cylinder_totally_geodesic(point_eval):
    lsd = second_fundamental_form(point_eval("cylinder-s3xr", [0.3, -0.2, 0.5, 2.0], 3))
    assert np.abs(lsd.h).max() < 1e-13
    assert abs(lsd.H) < 1e-13


def test_h_s2xr2_product_point(point_eval):
    lsd = second_fundamental_form(point_eval("s2xr2", [0.0, 0.0, 2.0, 0.0], 3))
    assert np.allclose(np.sort(np.diag(lsd.h[0])), [0.0, 0.0, 0.5], atol=1e-12)
    assert abs(lsd.H[0] - 0.5) < 1e-12


def test_h_gaussian_round_spheres(point_eval):
    p = [1.2, -0.8, 0.6, 1.0]
    r = float(np.linalg.norm(p))
    lsd = second_fundamental_form(point_eval("gaussian-r4", p, 3))
    assert np.abs(lsd.h - np.eye(3) / r).max() < 1e-12
    assert abs(lsd.H - 3.0 / r) < 1e-12


def test_prop31_spot_value(point_eval):
    resid, _, r = prop31_residual(point_eval("s2xr2", [0.0, 0.0, 2.0, 0.0], 4))
    assert abs(r["lhs"] - 1.0 / 12.0) < 1e-8
    assert abs(r["rhs"] - 1.0 / 12.0) < 1e-8
    assert resid < 1e-8


def test_prop31_vanishing_cases(instances):
    for name in ("cylinder-s3xr", "gaussian-r4"):
        inst = instances[name]
        for ev in point_evals(inst, 6, seed=23, order=4):
            _, _, r = prop31_residual(ev)
            assert r["lhs"] < 1e-9 and r["rhs"] < 1e-9


def test_prop31_sampled_s2xr2(instances):
    inst = instances["s2xr2"]
    for ev in point_evals(inst, 10, seed=29, order=4):
        resid, scale, _ = prop31_residual(ev)
        assert resid / max(1.0, scale) < 1e-8


def test_level_points_on_level(instances):
    inst = instances["cylinder-s3xr"]
    c = 9.0 / 4.0 + 1.5
    pts = points_of(level_points(inst, c, n_points=12, seed=11))
    from gradsol.jets import JetSpace

    for p in pts:
        f = inst.potential_jet(list(p), JetSpace.get(4, 0)).value
        assert abs(f - c) < 1e-9
        assert abs(abs(p[3]) - 3.0) < 1e-9
    again = points_of(level_points(inst, c, n_points=12, seed=11))
    assert all(np.array_equal(a, b) for a, b in zip(pts, again))


def test_prop32_cylinder(instances):
    # two regular level values: t = +-3 and t = +-2
    for c in (9.0 / 4.0 + 1.5, 2.5):
        rep = prop32_report(instances["cylinder-s3xr"], c)
        assert rep["n_points"] >= 12
        assert abs(rep["lambda"] - 0.0) < 1e-8
        assert abs(rep["mu"] - 0.5) < 1e-8
        assert rep["r_spread"] <= 1e-8 * (1 + abs(rep["r_mean"]))
        assert rep["grad_sq_spread"] <= 1e-8 * (1 + abs(rep["grad_sq_mean"]))
        assert rep["h_spread"] <= 1e-8 * (1 + abs(rep["h_mean"]))
        assert rep["ricci_mixed_max"] < 1e-8
        assert rep["umbilicity_max"] < 1e-8
        assert rep["eigenvalue_mismatch"] < 1e-7


def test_prop32_gaussian_degenerate_branch(instances):
    # two level spheres: radius 2 and radius 3
    for c, radius in ((1.0, 2.0), (2.25, 3.0)):
        rep = prop32_report(instances["gaussian-r4"], c)
        assert abs(rep["lambda"]) < 1e-10
        assert abs(rep["mu"]) < 1e-10
        assert abs(rep["h_mean"] - 3.0 / radius) < 1e-10
        assert rep["umbilicity_max"] < 1e-10
        assert rep["ricci_mixed_max"] < 1e-10
        assert rep["h_spread"] <= 1e-8 * (1 + abs(rep["h_mean"]))
        assert rep["eigenvalue_mismatch"] < 1e-10


def test_level_points_unreachable_value(instances):
    from gradsol.errors import LevelPointError

    # the gaussian potential is nonnegative: no points on f = -1
    with pytest.raises(LevelPointError):
        level_points(instances["gaussian-r4"], -1.0, n_points=4)


def test_level_points_reach_a_level_only_steep_rays_meet(instances):
    # on einstein-cylinder-s2xs2xr only rays steep in x5 reach f = 3 inside the
    # box; at this seed the first 600 rays meet it at 15 points
    inst = instances["einstein-cylinder-s2xs2xr"]
    rep = prop32_report(inst, 3.0, n_points=16, seed=1320126017)
    assert rep["n_points"] == 16


def test_prop32_rejects_constant_potential(instances):
    with pytest.raises(HypothesisViolationError):
        prop32_report(instances["sphere-s4"], 2.0)


def test_level_points_reject_constant_potential(instances):
    # the guard sits in level_points, so the shared admission rule needs no caller branch
    with pytest.raises(HypothesisViolationError, match="potential is constant"):
        level_points(instances["sphere-s4"], 2.0)


def test_prop32_rejects_nonvanishing_d(instances):
    with pytest.raises(HypothesisViolationError):
        prop32_report(instances["s2xr2"], 2.0)


def test_frame_components_cylinder(instances):
    inst = instances["cylinder-s3xr"]
    for ev in point_evals(inst, 6, seed=31, order=4):
        _, _, rec = frame_cotton_components(ev)
        for key in ("c_ij1", "c_abc", "c_1ab", "w_1abc", "w_1a1b"):
            assert rec[key] < 1e-9, key


def test_frame_components_s2xr2(point_eval):
    _, _, rec = frame_cotton_components(point_eval("s2xr2", [0.0, 0.0, 2.0, 0.0], 4))
    assert rec["c_ij1"] < 1e-9
    assert rec["c_abc"] < 1e-9
    assert rec["c_1ab"] < 1e-9
    assert rec["w_1a1b"] > 0.05


def test_frame_components_gaussian(point_eval):
    _, _, rec = frame_cotton_components(point_eval("gaussian-r4", [1.5, 0.4, -0.2, 0.9], 4))
    assert max(rec[k] for k in ("c_ij1", "c_abc", "c_1ab", "w_1abc", "w_1a1b")) == 0.0


def test_normal_derivative_of_frame_metric(instances):
    # h_ab equals half the derivative of the frame metric along the inward
    # normal (sign folded into the check)
    for name in ("cylinder-s3xr", "gaussian-r4", "s2xr2"):
        inst = instances[name]
        for ev in point_evals(inst, 5, seed=37, order=4):
            lsd = second_fundamental_form(ev)
            nug = normal_metric_derivative(ev)
            assert np.abs(lsd.h + 0.5 * nug).max() < 1e-8, name


def test_normal_field_is_geodesic_on_d_zero_instances(instances):
    from gradsol.levelset import normal_geodesic_residual

    for name in ("cylinder-s3xr", "gaussian-r4", "expanding-gaussian-r4"):
        inst = instances[name]
        for ev in point_evals(inst, 5, seed=47, order=4):
            assert normal_geodesic_residual(ev)[0] < 1e-8, name


def test_codazzi_consequence_on_d_zero_instances(instances):
    for name in ("cylinder-s3xr", "gaussian-r4", "warped-cylinder", "steady-flat-r4"):
        inst = instances[name]
        for ev in point_evals(inst, 5, seed=41, order=4):
            assert frame_riemann_e1_tangential(ev)[0] < 1e-8, name


def _jet_f_value(inst, point):
    # the root finder's potential evaluation through order-0 jets
    return inst.potential_jet(point, JetSpace.get(inst.n, 0)).value


def _expression_instance(text):
    return SolitonInstance(
        name=f"expr {text}", n=2, rho=0.0, kind=None,
        metric_fn=lambda xs: [[1.0, 0.0], [0.0, 1.0]],
        potential_fn=compile_expression(text, 2), box=[(0.1, 3.0), (-3.0, 3.0)],
        base_point=[1.0, 0.0],
    )


def _box_points(inst, count, seed):
    # float lists, as the root finder passes them to _f_value
    rng = np.random.default_rng(seed)
    lo, hi = np.array(inst.box).T
    return [(lo + (hi - lo) * rng.random(inst.n)).tolist() for _ in range(count)]


@pytest.mark.parametrize("name", [i.name for i in catalog()])
def test_f_value_is_order0_jet_value_on_catalog(name):
    inst = get_instance(name)
    for p in _box_points(inst, 300, 5):
        assert _f_value(inst, p).hex() == _jet_f_value(inst, p).hex(), p


@pytest.mark.parametrize("text", [
    "x1^2/4 + x2^3", "x1^-2 + x2/x1", "sqrt(1 + x2^2)*sin(x1*x2)", "exp(x2)/(1 + x1^2)",
    "log(x1)*x2 + log(1 + x2^2)",
])
def test_f_value_is_order0_jet_value_on_expressions(text):
    inst = _expression_instance(text)
    for p in _box_points(inst, 300, 6):
        assert _f_value(inst, p).hex() == _jet_f_value(inst, p).hex(), p


def _numpy_level_points(inst, c, n_points, seed):
    # reference root finder: numpy ray points anchor + s * d and f through
    # order-0 jets; level_points must return the same points bit for bit
    rng = solitons.instance_rng(inst, seed, salt=97)
    lo = np.array([b[0] for b in inst.box])
    hi = np.array([b[1] for b in inst.box])
    anchor = (lo + hi) / 2.0
    f_anchor = _jet_f_value(inst, anchor)
    evals = []
    for _ in range(levelset._MAX_RAYS):
        if len(evals) == n_points:
            break
        d = rng.standard_normal(inst.n)
        d /= np.linalg.norm(d)
        s_max = np.inf
        for k in range(inst.n):
            if d[k] > 1e-12:
                s_max = min(s_max, (hi[k] - anchor[k]) / d[k])
            elif d[k] < -1e-12:
                s_max = min(s_max, (lo[k] - anchor[k]) / d[k])
        if not np.isfinite(s_max) or s_max < 1e-6:
            continue
        prev_s, prev_v = 0.0, f_anchor - c
        bracket = None
        for k in range(1, levelset._SCAN_STEPS + 1):
            s = s_max * k / levelset._SCAN_STEPS
            v = _jet_f_value(inst, anchor + s * d) - c
            if prev_v == 0.0:
                bracket = (prev_s, prev_s)
                break
            if v == 0.0 or (v > 0) != (prev_v > 0):
                bracket = (prev_s, s)
                break
            prev_s, prev_v = s, v
        if bracket is None:
            continue
        a, b = bracket
        fa = _jet_f_value(inst, anchor + a * d) - c
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            fm = _jet_f_value(inst, anchor + mid * d) - c
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        evals += solitons.admit_points(inst, [anchor + 0.5 * (a + b) * d], 3)
    return evals


@pytest.mark.parametrize("make, c", [
    (lambda: get_instance("cylinder-s3xr"), 9.0 / 4.0 + 1.5),
    (lambda: get_instance("cylinder-s4xr"), 9.0 / 4.0 + 2.0),
    (lambda: get_instance("gaussian-r3"), 1.0),
    (lambda: get_instance("expanding-gaussian-r4"), -1.0),
    (lambda: _expression_instance("x1^2/4 + x2^3/9"), 2.0),
    (lambda: _expression_instance("exp(x2)/(1 + x1^2)"), 1.0),
], ids=["cylinder-s3xr", "cylinder-s4xr", "gaussian-r3", "expanding-gaussian-r4",
        "expression", "transcendental-expression"])
def test_level_points_match_jet_root_finder(make, c):
    inst = make()
    pts = points_of(level_points(inst, c, n_points=12, seed=5))
    ref = points_of(_numpy_level_points(inst, c, n_points=12, seed=5))
    assert pts == ref


def _nan_counting(inst):
    # a copy of the instance whose potential records the NaN entries of each
    # array evaluation, where the float path would raise
    nans = []

    def counting(xs, potential=inst.potential_fn):
        f = potential(xs)
        if isinstance(f, np.ndarray):
            nans.append(int(np.isnan(f).sum()))
        return f

    return dataclasses.replace(inst, potential_fn=counting), nans


def test_level_points_on_a_log_potential_singular_past_every_bracket():
    # f = log(4 - r^2) about the anchor brackets f = 1 at r = 1.13 on every
    # ray; the steps past r = 2 that long rays scan are never walked
    inst, nans = _nan_counting(_expression_instance("log(4 - ((x1 - 1.55)^2 + x2^2))"))
    pts = points_of(level_points(inst, 1.0, n_points=12, seed=5))
    assert sum(nans) > 0
    assert pts == points_of(_numpy_level_points(inst, 1.0, n_points=12, seed=5))


@pytest.mark.parametrize("text, c, error", [
    ("log(1 - ((x1 - 1.55)^2 + x2^2))", 1.0, SingularEvaluationError),
    ("exp(1000*((x1 - 1.55)^2 + x2^2))", 0.5, ConfigurationError),
], ids=["log-domain", "exp-overflow"])
def test_level_points_raise_as_the_float_scan_on_the_first_ray(text, c, error):
    # f never reaches c where it is defined, and every ray leaves its domain
    # inside the box: the first ray raises at its first step outside
    inst = _expression_instance(text)
    with pytest.raises(error) as on_float:
        _f_value(inst, [3.0, 0.0])
    with pytest.raises(error):
        _jet_f_value(inst, [3.0, 0.0])
    with pytest.raises(error) as in_scan:
        level_points(inst, c, n_points=4, seed=5)
    with pytest.raises(error) as in_reference:
        _numpy_level_points(inst, c, n_points=4, seed=5)
    assert str(in_scan.value) == str(in_reference.value) == str(on_float.value)


def test_level_points_raise_only_on_rays_they_walk():
    # f = x1 + 0.01 log(x1 - 0.3) is singular for x1 <= 0.3: a ray towards it
    # raises before any bracket when walked, and a ray drawn in the last
    # block past the n-th point is never walked
    outcomes = set()
    for seed in range(16):
        inst, nans = _nan_counting(_expression_instance("x1 + 0.01*log(x1 - 0.3)"))
        try:
            ref = points_of(_numpy_level_points(inst, 2.05, n_points=2, seed=seed))
        except SingularEvaluationError as err:
            with pytest.raises(SingularEvaluationError, match=re.escape(str(err))):
                level_points(inst, 2.05, n_points=2, seed=seed)
            outcomes.add("raised")
            continue
        assert points_of(level_points(inst, 2.05, n_points=2, seed=seed)) == ref
        if sum(nans):
            outcomes.add("unwalked singular ray")
    assert outcomes == {"raised", "unwalked singular ray"}


def _counting_instance(name):
    # a copy of the catalog instance whose potential records each call
    inst = get_instance(name)
    calls = []

    def counting(xs, potential=inst.potential_fn):
        calls.append(None)
        return potential(xs)

    return dataclasses.replace(inst, potential_fn=counting), calls


def test_level_points_evaluation_count_is_pinned():
    # potential calls of one run: one array call per block of rays (12, 24,
    # 48, 96 and 192 rays here) for every scan step, the float bisection,
    # which takes f at the bracket's low end from the scan, admission and
    # the instance's own cached values.  A changed scan or bisection changes
    # this number; scanning each ray step by step on floats made 15,211.
    # Admission evaluates the 12 roots as one block, one potential call where
    # evaluating them point by point made 12 (464 calls in all).
    inst, calls = _counting_instance("cylinder-s3xr")
    level_points(inst, 9.0 / 4.0 + 1.5, n_points=12, seed=5)
    assert len(calls) == 453


@pytest.mark.parametrize("n_points, c", [
    (0, 1.0), (-2, 1.0), (2.5, 1.0), (True, 1.0), (12, math.nan), (12, math.inf),
    (12, -math.inf),
], ids=["zero-points", "negative-points", "fractional-points", "boolean-points", "nan-level",
        "inf-level", "minus-inf-level"])
def test_prop32_rejects_bad_arguments_before_any_ray(n_points, c):
    # the arguments are checked before the potential is evaluated at all
    inst, calls = _counting_instance("gaussian-r3")
    with pytest.raises(ConfigurationError):
        prop32_report(inst, c, n_points=n_points)
    assert calls == []


def test_prop32_nan_d_at_second_level_point_fails(monkeypatch):
    # Python's max(acc, nan) is acc: a NaN |D| past the first level point
    # must not pass the D = 0 gate of prop3.2
    inst = get_instance("gaussian-r3")
    c = levelset._f_value(inst, inst.base_point)
    # suite points are point evaluations too: inject into the block of
    # prop3.2's level points only, at its second row
    level = {tuple(p) for p in points_of(level_points(inst, c, n_points=12, seed=7))}
    calls = []
    d_tensor = solitons.d_tensor

    def nan_at_second(pack, df, *args, **kwargs):
        d = d_tensor(pack, df, *args, **kwargs)
        rows = [tuple(p) for p in np.atleast_2d(pack.metric.point).tolist()]
        if set(rows) <= level:
            calls.append(len(rows))
            d.data[1] = np.nan
        return d

    monkeypatch.setattr(solitons, "d_tensor", nan_at_second)
    rep = run_suite(inst, n_points=8, seed=7, order=3)
    (entry,) = [e for e in rep["checks"] if e["id"] == "prop3.2"]
    assert calls == [12]  # one block: D of all 12 level points
    assert entry["status"] == "FAIL"
    assert "HypothesisViolationError" in entry["error"] and "nan" in entry["error"]


def test_second_fundamental_form_rejects_a_nan_ricci_tensor():
    # NaN compares false both ways, so `diff / scale > 1e-9` let a NaN
    # soliton form pass and returned a finite h
    ev = PointEval(get_instance("s2xr2"), [[0.0, 0.0, 2.0, 0.0]], 3)
    assert ev.hess_f is not None and ev.frame is not None  # neither reads Ric
    ev.pack.ricci.data[...] = np.nan
    with pytest.raises(ConsistencyError, match="second fundamental form"):
        second_fundamental_form(ev)
