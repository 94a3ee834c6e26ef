"""Block evaluation on a point axis against point-by-point evaluation: the
level points of prop3.2 and the identity suite's sample points."""

import dataclasses
import itertools
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from gradsol import conformal, curvature, jets, levelset, solitons, tensors, verify
from gradsol.errors import ConsistencyError, DomainError, SingularEvaluationError
from gradsol.levelset import level_points, prop32_report
from gradsol.solitons import PointEval, get_instance, instance_from_spec
from gradsol.tensors import metric_at_points

LEVELSET_INSTANCES = [
    "gaussian-r3", "gaussian-r4", "gaussian-r5", "cylinder-s2xr", "cylinder-s3xr",
    "cylinder-s4xr", "einstein-cylinder-s2xs2xr", "warped-cylinder", "steady-flat-r4",
    "expanding-gaussian-r4",
]

# metric and potential through sin, cos, exp, log, sqrt and a real power; not a
# soliton, so D has no cross-check and no prop3.2 report
TRANSCENDENTAL = {
    "name": "transcendental-r3", "n": 3, "rho": 0, "kind": None,
    "metric": [["2 + sin(x1)*cos(x2)", "0.1*exp(x3/4)", "0"],
               ["0.1*exp(x3/4)", "1 + log(2 + x1*x1)", "0"],
               ["0", "0", "(1.5 + x2*x2)^1.5"]],
    "potential": "exp(x1/4) + log(2 + x2) + sqrt(3 + x3) + (2.5 + x1)^1.5 + sin(x2)*cos(x3)",
    "domain": {"box": [[-1, 1]] * 3}, "base_point": [0.5, 0.3, -0.2],
}


def _level(inst):
    return levelset._f_value(inst, inst.base_point)


def _point_by_point(monkeypatch):
    """Evaluate every point alone, from its admission to the checks: blocks of
    one point, what a block that raised leaves to its points."""
    monkeypatch.setattr(solitons, "evaluate_points",
                        lambda inst, points, order: [PointEval(inst, [p], order) for p in points])


def _fields(ev):
    pack = ev.pack
    return {
        "g": ev.metric.g.data, "g_inv": ev.metric.g_inv.data, "gamma": pack.gamma.data,
        "riemann": pack.riemann.data, "ricci": pack.ricci.data, "R": pack.scalar.coeffs,
        "dR": pack.dscalar.data, "schouten": pack.schouten.data, "df": ev.df.data,
        "D": ev.dtensor.data, "D2": np.array(ev.d_norm_sq), "hess_f": ev.hess_f.data,
    }


@pytest.mark.parametrize("name", LEVELSET_INSTANCES + ["transcendental-r3"])
@pytest.mark.parametrize("seed", [11, 61])
def test_block_rows_are_the_point_evaluations_bit_for_bit(name, seed):
    if name == "transcendental-r3":
        inst = instance_from_spec(TRANSCENDENTAL)
    else:
        inst = get_instance(name)
    evals = level_points(inst, _level(inst), n_points=12, seed=seed)
    blocks = list(evals)
    solitons.evaluate_in_blocks(evals)
    assert evals == blocks and all(len(ev.points) > 1 for ev in evals)  # none left to its points
    for ev in evals:
        got = _fields(ev)  # the block's own arrays, each row read where it lies
        for p, point in enumerate(ev.points):
            want = _fields(PointEval(inst, [point], 3))  # a block of one, read at row 0
            for key in want:
                assert got[key][p].shape == want[key][0].shape, key
                assert np.array_equal(got[key][p], want[key][0]), (key, point)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_block_functions_give_each_row_its_points_bits(order):
    # the library path: a metric block straight into the curvature, D and |D|^2
    inst = instance_from_spec(TRANSCENDENTAL)
    points = [[0.1, -0.2, 0.3], [0.5, 0.4, -0.6], [-0.7, 0.2, 0.9], [0.0, 0.8, -0.1]]
    metric = metric_at_points(inst.metric_fn, points, 3, order)
    pack = curvature.curvature_pack(metric)
    df = curvature.scalar_gradient(inst.potential_jet(points, metric.space))
    d = conformal.d_tensor(pack, df)
    d_norm_sq = tensors.tensor_norm_sq(d, metric)
    for p, point in enumerate(points):
        ref = PointEval(inst, [point], order)
        for got, want in ((metric.g, ref.metric.g), (metric.g_inv, ref.metric.g_inv),
                          (pack.gamma, ref.pack.gamma), (pack.riemann, ref.pack.riemann),
                          (pack.ricci, ref.pack.ricci), (df, ref.df), (d, ref.dtensor)):
            assert np.array_equal(got.data[p], want.data[0])
        assert d_norm_sq[p] == ref.d_norm_sq[0]


@pytest.mark.parametrize("name", LEVELSET_INSTANCES)
@pytest.mark.parametrize("seed", [11, 61])
def test_prop32_report_is_the_point_by_point_report(monkeypatch, name, seed):
    inst = get_instance(name)
    got = prop32_report(inst, _level(inst), n_points=12, seed=seed)
    with monkeypatch.context() as m:
        _point_by_point(m)
        want = prop32_report(inst, _level(inst), n_points=12, seed=seed)
    assert repr(got) == repr(want)


def test_plans_do_not_depend_on_the_block_size(monkeypatch):
    # cylinder-s4xr at order 3 runs all three kernels; after one warm block no
    # block size adds a plan, and each plan is the one a single point makes
    inst = get_instance("cylinder-s4xr")
    roots = list(itertools.islice(levelset._ray_roots(inst, _level(inst), 16, 11), 16))

    def block(points):
        (ev,) = solitons.evaluate_points(inst, points, 3)
        ev.d_norm_sq, ev.hess_f  # the pack, D, |D|^2 and Hess f
        return ev

    calls = []
    jet_einsum = jets.jet_einsum

    def recording(space, subscripts, a, b):
        calls.append((space, subscripts, a, b))
        return jet_einsum(space, subscripts, a, b)

    for module in (tensors, curvature, conformal):
        monkeypatch.setattr(module, "jet_einsum", recording)
    monkeypatch.setattr(jets, "_EINSUM_PLANS", {})
    monkeypatch.setattr(jets, "_PAIR_PLANS", {})
    block(roots[:5])
    sizes = len(jets._EINSUM_PLANS), len(jets._PAIR_PLANS)
    for n in (1, 3, 7, 16):
        block(roots[:n])
        assert (len(jets._EINSUM_PLANS), len(jets._PAIR_PLANS)) == sizes, n
    kernels = set()
    for space, subscripts, a, b in calls:
        sub_a, sub_b = subscripts.split("->")[0].split(",")
        assert a.ndim == len(sub_a) + 2 and b.ndim == len(sub_b) + 2, subscripts
        one_a, one_b = a[:1, ..., : space.n_terms], b[:1, ..., : space.n_terms]
        plan = jets._EINSUM_PLANS[(space, subscripts, one_a.shape[1:], one_b.shape[1:])]
        out = subscripts.split("->")[1]
        # the plan is the single point's kernel and swap, and its row bytes
        kernel, swap = jets._plan(space, sub_a, sub_b, out, one_a, one_b)
        counts = jets._counts(sub_a, sub_b, out, one_a, one_b)[:3]
        assert plan == (kernel, swap, jets._row_bytes(space, kernel, *counts)), subscripts
        kernels.add(plan[0])
    assert kernels == {jets._einsum_gather, jets._einsum_matrix, jets._einsum_const}


def test_a_block_raises_the_first_non_positive_row():
    def metric(xs):
        return [[xs[0], 0.0], [0.0, 1.0]]

    points = [[0.5, 0.0], [-0.25, 1.0], [1.0, 2.0], [-0.5, 3.0]]
    with pytest.raises(DomainError, match=r"at \[-0.25, 1.0\]$"):
        metric_at_points(metric, points, 2, 3)


FAULTS = {  # g is not positive definite where x1 <= -0.3; log(x3 + 0.5) raises on floats
    "name": "two-faults-r3", "n": 3, "rho": 0, "kind": None,
    "metric": [["x1 + 0.3", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "potential": "log(x3 + 0.5) + x1*x1 + x2*x2",
    "domain": {"box": [[-1, 1]] * 3},
}


def _outcome(fn):
    try:
        return fn()
    except Exception as err:  # compared by type and message
        return type(err), str(err)


def test_level_points_raise_the_first_non_positive_root_in_ray_order(monkeypatch):
    spec = dict(FAULTS, potential="x1*x1 + x2*x2 + x3*x3")
    inst = instance_from_spec(spec)
    roots = list(itertools.islice(levelset._ray_roots(inst, 0.25, 12, 4), 12))
    # rows 4 and 7 of the one block of 12 roots are not positive definite
    assert [k for k, p in enumerate(roots) if p[0] <= -0.3] == [4, 7]
    with pytest.raises(DomainError) as raised:
        level_points(inst, 0.25, n_points=12, seed=4)
    assert str(raised.value) == f"metric is not positive definite at {roots[4]}"
    _point_by_point(monkeypatch)
    assert _outcome(lambda: level_points(inst, 0.25, 12, 4)) == (DomainError, str(raised.value))


@pytest.mark.parametrize("seed, error", [(2, DomainError), (10, SingularEvaluationError)])
def test_a_collected_root_is_evaluated_before_a_later_walk_error(monkeypatch, seed, error):
    # every seed walks into the log's domain error on some ray; at seed 2 a
    # root collected before that ray is not positive definite, at seed 10 none is
    inst = instance_from_spec(FAULTS)
    with pytest.raises(SingularEvaluationError):
        list(levelset._ray_roots(inst, 0.0, 12, seed))
    got = _outcome(lambda: level_points(inst, 0.0, 12, seed))
    assert got[0] is error
    _point_by_point(monkeypatch)
    assert _outcome(lambda: level_points(inst, 0.0, 12, seed)) == got


def test_rejected_roots_never_enter_the_curvature_block(monkeypatch):
    # f = x1^3 + x2/20000 on the level 0: roots near x2 = 0 have |grad f| < 1e-3;
    # the ball excludes the roots near (0, 1, 0)
    spec = {"name": "rejections-r3", "n": 3, "rho": 0, "kind": None,
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "potential": "x1*x1*x1 + x2/20000", "domain": {"box": [[-0.5, 1.5], [-1, 1], [-1, 1]]},
            "excluded": [{"center": [0, 1, 0], "radius": 0.5}]}
    inst = instance_from_spec(spec)
    metric_blocks, packs = [], []
    metric_at, curvature_pack = solitons.metric_at_points, solitons.curvature_pack

    def recording_metric(metric_fn, points, n, order):
        metric_blocks.append([tuple(p) for p in points])
        return metric_at(metric_fn, points, n, order)

    def recording_pack(metric):
        packs.append([tuple(p) for p in metric.point.tolist()])
        return curvature_pack(metric)

    monkeypatch.setattr(solitons, "metric_at_points", recording_metric)
    monkeypatch.setattr(solitons, "curvature_pack", recording_pack)
    roots = [tuple(p) for p in itertools.islice(levelset._ray_roots(inst, 0.0, 12, 2), 40)]
    evals = level_points(inst, 0.0, n_points=12, seed=2)
    for ev in evals:
        ev.pack
    admitted = [tuple(p) for p in solitons.points_of(evals)]
    evaluated = [p for block in metric_blocks for p in block]
    excluded = [p for p in roots if inst.excluded_distance(p) < solitons.MIN_EXCLUDED_DISTANCE]
    flat = [p for p in evaluated if p not in admitted]
    assert excluded and flat and len(metric_blocks) >= 2
    assert not set(excluded) & set(evaluated)
    assert evaluated == [p for p in roots[: roots.index(admitted[-1]) + 1] if p not in excluded]
    assert [p for block in packs for p in block] == admitted
    for ev in evals:
        assert np.all(ev.frame.grad_f_norm >= solitons.MIN_GRAD_DISTANCE)


def test_d_cross_check_raises_the_first_failing_row():
    # cylinder-s3xr's metric with f + x1^4: the soliton equation, and with it
    # D's cross-check, holds where x1 = 0 and fails elsewhere, by amounts that
    # differ from point to point
    spec = {"name": "cylinder-s3xr-wrong-f", "n": 4, "rho": 0.5, "kind": "shrinking",
            "metric": [["4*(2/(1 + (x1*x1 + x2*x2 + x3*x3)))^2" if i == j < 3 else
                        ("1" if i == j else "0") for j in range(4)] for i in range(4)],
            "potential": "x4*x4/4 + 1.5 + x1^4",
            "domain": {"box": [[-1.2, 1.2]] * 3 + [[-4, 4]]}, "base_point": [0, 0, 0, 2]}
    inst = instance_from_spec(spec)
    points = [[0.0, 0.1, 0.2, 2.0], [0.3, -0.2, 0.1, 1.5], [0.5, 0.1, 0.2, 2.0]]
    alone = [_outcome(lambda: PointEval(inst, [p], 3).dtensor) for p in points]
    assert isinstance(alone[0], tensors.TensorJet)
    assert alone[1][0] is alone[2][0] is ConsistencyError and alone[1] != alone[2]
    (block,) = solitons.evaluate_points(inst, points, 3)
    assert _outcome(lambda: block.dtensor) == alone[1]


def test_a_failing_block_raises_what_the_first_failing_point_raises():
    # row 1's potential fails, row 2's metric fails: point by point, the metric
    # and f of row 1 come before the metric of row 2, so the potential's error
    # is the one raised, although the block evaluates every metric first
    spec = {"name": "late-faults-r2", "n": 2, "rho": 0, "kind": None,
            "metric": [["sqrt(x1 + 0.5)", "0"], ["0", "1"]], "potential": "log(x2 + 0.5) + x1",
            "domain": {"box": [[-1, 1]] * 2}}
    inst = instance_from_spec(spec)
    points = [[0.1, 0.1], [0.2, -0.7], [-0.7, 0.3], [0.4, 0.2]]
    alone = [_outcome(lambda: PointEval(inst, [p], 3).df) for p in points]
    assert alone[1] == (SingularEvaluationError, "log requires a positive constant term")
    assert alone[2] == (SingularEvaluationError, "sqrt requires a positive constant term")
    assert _outcome(lambda: solitons.evaluate_points(inst, points, 3)) == alone[1]
    assert _outcome(lambda: solitons.admit_points(inst, points, 3)) == alone[1]


# ---------------------------------------------------------------------------
# the identity suite's sample points on the point axis

CERTIFIED = [spec["name"] for spec in solitons.BUILTIN_SPECS if spec["kind"] is not None]
_S3 = "4*(2/(1+x1^2+x2^2+x3^2))^2"
_S2 = "2*(2/(1+x1^2+x2^2))^2"
BENCH_TWINS = {  # the expression-form twins of the benchmark's verify-o4-ext workload
    "cylinder-s3xr-expr": {
        "name": "cylinder-s3xr-expr", "n": 4, "rho": 0.5, "kind": "shrinking",
        "metric": [[_S3 if i == j < 3 else ("1" if i == j else "0") for j in range(4)]
                   for i in range(4)],
        "potential": "x4^2/4 + 1.5", "domain": {"box": [[-1.2, 1.2]] * 3 + [[-4, 4]]},
        "base_point": [0, 0, 0, 2],
    },
    "s2xr3-expr": {
        "name": "s2xr3-expr", "n": 5, "rho": 0.5, "kind": "shrinking",
        "metric": [[_S2 if i == j < 2 else ("1" if i == j else "0") for j in range(5)]
                   for i in range(5)],
        "potential": "(x3^2 + x4^2 + x5^2)/4 + 1",
        "domain": {"box": [[-1.2, 1.2]] * 2 + [[-3, 3]] * 3}, "base_point": [0, 0, 2, 0, 0],
    },
}


def _instance(name):
    return instance_from_spec(BENCH_TWINS[name]) if name in BENCH_TWINS else get_instance(name)


def _caches(ev, p):
    """Every filled cache of an evaluation, the pack's included, as arrays by
    name: row p of a block's, on the point axis that leads every array."""
    def row(x):
        return np.asarray(x)[p]

    out = {}
    for name, value in vars(ev).items():
        if name in ("inst", "points", "order"):
            continue
        if name == "metric":
            out.update(g=row(value.g.data), g_inv=row(value.g_inv.data))
        elif name == "pack":
            out.update(gamma=row(value.gamma.data), riemann=row(value.riemann.data),
                       ricci=row(value.ricci.data), R=row(value.scalar.coeffs))
            out.update({k: row(v.data) for k, v in vars(value).items()
                        if k in ("schouten", "dscalar")})
        elif name == "f":
            out[name] = row(value.coeffs)
        elif isinstance(value, tensors.TensorJet):
            out[name] = row(value.data)
        else:
            out[name] = row(value)
    return out


def _fresh(inst, point, order, names):
    """A fresh evaluation of `point` alone, a block of one, with the caches `names` touched."""
    ref = PointEval(inst, [point], order)
    for name in names:
        getattr(ref, name)
    ref.pack.schouten, ref.pack.dscalar
    return ref


@pytest.mark.parametrize("seed", [7, 61])
@pytest.mark.parametrize("order", [4, 5])
@pytest.mark.parametrize("name", CERTIFIED + list(BENCH_TWINS))
def test_suite_rows_are_the_point_evaluations_bit_for_bit(name, order, seed):
    # five points: at dimensions 4 and 5 a block of four rows and one of one
    inst = _instance(name)
    evals = solitons.sample_evals(inst, 5, seed, order)
    chain = {"metric", "f", "df", "pack", "dtensor", "d_norm_sq", "hess_f", "cotton",
             "cotton_norm", "weyl"}
    if inst.n >= 4:
        chain |= {"div_weyl", "bach", "weyl_norm", "bach_norm"}
        chain |= {"div_bach"} if order == 5 else set()
    blocks = list(evals)
    solitons.evaluate_in_blocks(evals)
    assert evals == blocks  # none left to its points
    for ev in evals:
        for name in chain:  # the suite's curvature chain, read on the block
            getattr(ev, name)
        ev.pack.schouten, ev.pack.dscalar
        # and gradf_up_values, where the admission test reads |grad f|
        assert set(vars(ev)) - {"inst", "points", "order", "gradf_up_values"} == chain
        for p, point in enumerate(ev.points):
            got = _caches(ev, p)
            want = _caches(_fresh(inst, point, order, set(vars(ev)) - {"inst", "points", "order"}),
                           0)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].shape == want[key].shape, key
                assert np.array_equal(got[key], want[key]), (key, point)


@pytest.mark.parametrize("name", ["sphere-s4", "warped-sphere-s4", "sphere-s5"])
def test_constant_potentials_take_a_point_axis(name):
    # f is a number on jets; its block jet has one row per point
    inst = get_instance(name)
    points = solitons.points_of(solitons.sample_evals(inst, 6, 3, 1))
    space = jets.JetSpace.get(inst.n, 5)
    f = inst.potential_jet(points, space)
    assert f.coeffs.shape == (6, space.n_terms)
    for order in (3, 5):
        evals = solitons.admit_points(inst, points, order)
        assert solitons.points_of(evals) == points
        for ev in evals:
            for p, point in enumerate(ev.points):
                ref = PointEval(inst, [point], order)
                for got, want in ((ev.f.coeffs, ref.f.coeffs), (ev.df.data, ref.df.data),
                                  (ev.metric.g.data, ref.metric.g.data)):
                    got, want = got[p], want[0]
                    assert got.shape == want.shape and np.array_equal(got, want)


def _point_by_point_suite(monkeypatch, inst, **kwargs):
    with monkeypatch.context() as m:
        _point_by_point(m)
        return _outcome(lambda: verify.run_suite(inst, **kwargs))


def _entries(report):
    return [(e["id"], e["status"], e["max_residual"], e["argmax_point"], e.get("error"))
            for e in report["checks"]]


def _plant_weyl_apart(monkeypatch, inst, order):
    """Put the Schouten path of W off by 1e-3 at the sixth of 8 order-`order`
    sample points, so W's two paths disagree there.  Returns a function that
    gives the number of Kulkarni-Nomizu products made since the last call."""
    planted = solitons.points_of(solitons.sample_evals(inst, 8, 7, order))[5]
    g_planted = PointEval(inst, [planted], order).metric.g.data[0]
    kulkarni_nomizu = conformal._kulkarni_nomizu
    calls = [0]

    def off(space, g, h):
        kn = kulkarni_nomizu(space, g, h)
        calls[0] += 1
        if calls[0] % 2 == 0:  # W's second product, the Schouten tensor's
            # the planted point, in a block or alone, found by its own bits
            for p in range(len(g)):
                if np.array_equal(g[p], g_planted):
                    kn[p, ..., 0] += 1e-3
        return kn

    def restart():
        made, calls[0] = calls[0], 0
        return made

    monkeypatch.setattr(conformal, "_kulkarni_nomizu", off)
    return restart


@pytest.mark.parametrize("name, order", [("s2xr2", 4), ("s2xr3", 5), ("cylinder-s2xr", 5)])
def test_a_planted_disagreement_fails_the_checks_a_point_by_point_suite_fails(
        monkeypatch, name, order):
    # at one sample point the Schouten path of W is off, so W's two paths
    # disagree there: a block holding that point raises (s2xr2 at order 4 and
    # cylinder-s2xr evaluate W as a block, s2xr3 at order 5 point by point)
    # and its points fall back to their own evaluations, whose errors are
    # FAILs of the checks that read W
    inst = get_instance(name)
    restart = _plant_weyl_apart(monkeypatch, inst, order)
    got = verify.run_suite(inst, n_points=8, seed=7, order=order)
    assert restart() > 2
    want = _point_by_point_suite(monkeypatch, inst, n_points=8, seed=7, order=order)
    assert _entries(got) == _entries(want)
    errors = [e["error"] for e in got["checks"] if "error" in e]
    assert errors and all(e.startswith("ConsistencyError: weyl: independent paths")
                          for e in errors)


def test_the_points_of_a_raising_block_keep_its_metric_f_and_grad_f(monkeypatch):
    # s2xr2 at order 4 draws its 8 points in blocks of 5 and 3 and evaluates W
    # on them; the block of 3 raises at its planted row, and its points read
    # their rows of the block's metric, g^-1, f and grad f: the suite evaluates
    # no metric beyond the sampler's two blocks, and reports as point by point
    inst = get_instance("s2xr2")
    assert solitons.block_rule(4, 4) == (5, True)
    restart = _plant_weyl_apart(monkeypatch, inst, 4)
    blocks = []
    metric_at_points = solitons.metric_at_points

    def counting(metric_fn, points, n, order):
        blocks.append(len(points))
        return metric_at_points(metric_fn, points, n, order)

    with monkeypatch.context() as m:
        m.setattr(solitons, "metric_at_points", counting)
        got = verify.run_suite(inst, n_points=8, seed=7, order=4)
    assert blocks == [5, 3]
    restart()
    want = _point_by_point_suite(monkeypatch, inst, n_points=8, seed=7, order=4)
    assert _entries(got) == _entries(want)
    assert any(e["status"] == "FAIL" and "weyl" in e.get("error", "") for e in got["checks"])


def test_a_metric_block_raises_its_failing_points_own_error(monkeypatch):
    # g is not positive definite where x1 <= -0.3: the sampler's block holding
    # the first such candidate raises that candidate's error, as a
    # point-by-point sampler does
    inst = instance_from_spec(dict(FAULTS, kind="shrinking", potential="x1*x1 + x2*x2 + x3*x3"))
    rng = solitons.instance_rng(inst, 6)
    candidates = (-1 + 2 * rng.random((20, 3))).tolist()
    bad = next(k for k, p in enumerate(candidates) if p[0] <= -0.3)
    assert 0 < bad < solitons.block_rule(3, 5)[0]  # a later row of the first block
    got = _outcome(lambda: verify.run_suite(inst, n_points=20, seed=6, order=5))
    assert got == (DomainError, f"metric is not positive definite at {candidates[bad]}")
    assert _point_by_point_suite(monkeypatch, inst, n_points=20, seed=6, order=5) == got


@pytest.mark.parametrize("name", ["s2xr2", "s2xr3"])
def test_blocks_hold_the_suites_peak_memory_flat(monkeypatch, name):
    # tracemalloc's peak of an order-5 suite of 20 points, against the same
    # points evaluated one by one (lazy PointEvals reading the same caches)
    inst = get_instance(name)

    def peak():
        verify.run_suite(inst, n_points=8, seed=3, order=5)  # plans and tables
        tracemalloc.start()
        try:
            verify.run_suite(inst, n_points=20, seed=7, order=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocks = peak()
    with monkeypatch.context() as m:
        _point_by_point(m)
        alone = peak()
    assert blocks <= 1.1 * alone, (blocks, alone)


def _engine_subscripts(monkeypatch):
    """The subscripts of every jet_einsum call of order-5 suites at dimensions 3-5."""
    seen = set()
    jet_einsum = jets.jet_einsum

    def recording(space, subscripts, a, b):
        seen.add(subscripts)
        return jet_einsum(space, subscripts, a, b)

    with monkeypatch.context() as m:
        for module in (tensors, curvature, conformal, levelset):
            m.setattr(module, "jet_einsum", recording)
        for name in ("cylinder-s2xr", "s2xr2", "cylinder-s3xr", "s2xr3", "cylinder-s4xr"):
            verify.run_suite(get_instance(name), n_points=8, seed=7, order=5)
    return sorted(seen)


def _block_and_points(rng, space, rank, layout):
    """Five rows of random rank-`rank` jet data as a block laid out as `layout`
    says, and each row's point alone, a block of one laid out the same way:
    ``stacked`` rows (`np.stack`), the partials of ``gradient_arrays`` (from
    one order up; rank 1 and up) or a ``swapped`` view of a stacked block,
    its first two component axes swapped (rank 2 and up)."""
    dim = space.dim
    if layout == "gradient":
        up = jets.JetSpace.get(dim, space.order + 1)
        rows = [rng.standard_normal((dim,) * (rank - 1) + (up.n_terms,)) for _ in range(5)]
        return (jets.gradient_arrays(up, np.stack(rows)),
                [jets.gradient_arrays(up, row[None]) for row in rows])
    rows = [rng.standard_normal((dim,) * rank + (space.n_terms,)) for _ in range(5)]
    if layout == "swapped":
        return np.stack(rows).swapaxes(1, 2), [row[None].swapaxes(1, 2) for row in rows]
    return np.stack(rows), [row[None] for row in rows]


_LEAST_RANK = {"stacked": 0, "gradient": 1, "swapped": 2}


def test_chunks_give_each_row_the_bits_of_the_block_and_of_its_point(monkeypatch):
    # a byte budget of two rows' temporaries splits a block of five into
    # chunks of 2, 2 and 1 rows: each row equals the unchunked block's row
    # and its point's product alone, bit for bit, at every order, however
    # the block was made: the point axis leads, so each row lies where its
    # point's own array would, with its point's strides.  An operand below
    # a layout's least rank is stacked.
    subscripts = _engine_subscripts(monkeypatch)
    assert {"lim,ljk->mkij", "ijkl,->ijkl", "abcd,abcd->", "dm,mabcd->abc"} <= set(subscripts)
    rng = np.random.default_rng(30)
    chunks = []

    def recording(kernel):
        def run(space, sub_a, sub_b, out, a, b):
            chunks.append(len(a))
            return kernel(space, sub_a, sub_b, out, a, b)
        return run

    for dim, order, subs, layout in itertools.product((3, 4, 5), range(4), subscripts,
                                                      _LEAST_RANK):
        ranks = [len(sub) for sub in subs.split("->")[0].split(",")]
        if max(ranks) < _LEAST_RANK[layout]:
            continue  # both operands stacked, as in the stacked layout
        space = jets.JetSpace.get(dim, order)
        where = (dim, order, subs, layout)
        (a, points_a), (b, points_b) = (
            _block_and_points(rng, space, rank,
                              layout if rank >= _LEAST_RANK[layout] else "stacked")
            for rank in ranks)
        with monkeypatch.context() as m:
            m.setattr(jets, "BLOCK_BYTES", 2 ** 62)
            whole = jets.jet_einsum(space, subs, a, b)
            key = (space, subs, a.shape[1:], b.shape[1:])
            kernel, swap, row_bytes = jets._EINSUM_PLANS[key]
            m.setitem(jets._EINSUM_PLANS, key, (recording(kernel), swap, row_bytes))
            m.setattr(jets, "BLOCK_BYTES", 2 * row_bytes)
            del chunks[:]
            chunked = jets.jet_einsum(space, subs, a, b)
        assert chunks == [2, 2, 1], where
        assert chunked.shape == whole.shape and np.array_equal(chunked, whole), where
        for p, (one_a, one_b) in enumerate(zip(points_a, points_b)):
            assert np.array_equal(one_a[0], a[p]) and np.array_equal(one_b[0], b[p]), where
            alone = jets.jet_einsum(space, subs, one_a, one_b)
            assert np.array_equal(alone[0], whole[p]), (where, p)


def test_a_chunked_product_keeps_its_temporaries_within_the_byte_budget():
    # Riemann's gather at dimension 3, order 3 on 20 rows: unchunked its
    # temporaries would take 20 rows' worth, over seven times BLOCK_BYTES
    space = jets.JetSpace.get(3, 3)
    rng = np.random.default_rng(31)
    first, gamma = (rng.standard_normal((20, 3, 3, 3, space.n_terms)) for _ in range(2))
    jets.jet_einsum(space, "lim,ljk->mkij", first[:1], gamma[:1])  # the plan
    key = (space, "lim,ljk->mkij", (3, 3, 3, space.n_terms), (3, 3, 3, space.n_terms))
    assert 20 * jets._EINSUM_PLANS[key][2] > 7 * jets.BLOCK_BYTES
    tracemalloc.start()
    try:
        out = jets.jet_einsum(space, "lim,ljk->mkij", first, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= jets.BLOCK_BYTES + 2 ** 14, peak - out.nbytes


@pytest.mark.parametrize("rows", [1, 4])
def test_repr_of_a_scalar_jet_shows_every_rows_value(rows):
    inst = get_instance("s2xr2")
    points = solitons.points_of(solitons.sample_evals(inst, rows, 7, 3))
    scalar = PointEval(inst, points, 3).pack.scalar
    shown = scalar.coeffs[:, 0].tolist()
    assert len(shown) == rows
    assert repr(scalar) == f"JetScalar(dim=4, order=1, value={shown!r})"


def test_value_and_partial_of_a_scalar_jet_read_each_row():
    # on a block of three, each row's value and partial are those of its
    # block of one, bit for bit; a jet without a point axis gives floats
    inst = get_instance("s2xr2")
    points = solitons.points_of(solitons.sample_evals(inst, 3, 7, 3))
    block = PointEval(inst, points, 3).f
    alpha = (1, 0, 0, 0)
    assert block.value.shape == block.partial(alpha).shape == (3,)
    for p, point in enumerate(points):
        alone = PointEval(inst, [point], 3).f
        assert alone.value.shape == alone.partial(alpha).shape == (1,)
        assert block.value[p].tobytes() == alone.value[0].tobytes()
        assert block.partial(alpha)[p].tobytes() == alone.partial(alpha)[0].tobytes()
        bare = jets.JetScalar(block.space, block.coeffs[p])
        assert type(bare.value) is type(bare.partial(alpha)) is float
        assert bare.value == block.value[p] and bare.partial(alpha) == block.partial(alpha)[p]


@pytest.mark.parametrize("name", ["s2xr3", "cylinder-s3xr"])
def test_every_cached_jet_array_of_a_block_leads_with_its_point_axis(name):
    # the one storage layout: in each tensor and scalar jet a block of five
    # caches, the point axis comes first and is the outermost in memory, so
    # each row lies apart, where its point's own array would
    inst = get_instance(name)
    evals = solitons.sample_evals(inst, 5, 7, 5)
    solitons.evaluate_in_blocks(evals)
    (ev,) = evals
    pack = ev.pack
    arrays = {
        "g": ev.metric.g.data, "g_inv": ev.metric.g_inv.data, "f": ev.f.coeffs,
        "df": ev.df.data, "hess_f": ev.hess_f.data, "gamma": pack.gamma.data,
        "riemann": pack.riemann.data, "ricci": pack.ricci.data, "R": pack.scalar.coeffs,
        "schouten": pack.schouten.data, "dR": pack.dscalar.data, "W": ev.weyl.data,
        "div_W": ev.div_weyl.data, "C": ev.cotton.data, "D": ev.dtensor.data,
        "B": ev.bach.data,
    }
    for key, data in arrays.items():
        assert data.shape[0] == 5, key
        assert data.strides[0] >= data[0].nbytes, (key, data.strides)
        assert data.strides[0] == max(data.strides), (key, data.strides)


def _leaves(value, p=None):
    """The arrays a property's value is made of, in a fixed order: a point's,
    or row p of a block's, on the point axis that leads every array."""
    def jet(x):
        return x if p is None else x[p]

    if isinstance(value, tensors.TensorJet):
        return [jet(value.data)]
    if isinstance(value, jets.JetScalar):
        return [jet(value.coeffs)]
    if isinstance(value, tensors.MetricAtPoint):
        return [jet(value.g.data), jet(value.g_inv.data)]
    if dataclasses.is_dataclass(value):  # a pack, a frame, level-surface data, Prop 3.2 terms
        return [leaf for f in dataclasses.fields(value) if f.init
                for leaf in _leaves(getattr(value, f.name), p)]
    value = np.asarray(value, dtype=float)  # the point axis first
    return [value if p is None else value[p]]


POINT_EVAL_PROPERTIES = [name for name, attr in vars(PointEval).items()
                         if isinstance(attr, cached_property)]


@pytest.mark.parametrize("name", ["gaussian-r4", "cylinder-s3xr", "s2xr3"])
def test_every_property_of_a_block_holds_its_points_own_bits(name):
    # every cached property, found by introspection, evaluated on a block of
    # four sample points: each row is its point's own evaluation, bit for bit
    assert {"gradf_up_values", "frame", "level_surface", "frame_weyl", "prop32_terms",
            "grad_sq_jet", "div_bach"} <= set(POINT_EVAL_PROPERTIES)
    inst = get_instance(name)
    points = solitons.points_of(solitons.sample_evals(inst, 4, 7, 5))
    for prop in POINT_EVAL_PROPERTIES:
        block = getattr(PointEval(inst, points, 5), prop)
        for p, point in enumerate(points):
            got = _leaves(block, p)
            want = _leaves(getattr(PointEval(inst, [point], 5), prop), 0)
            assert len(got) == len(want), prop
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (prop, point)


# a non-diagonal metric through sin, cos and exp, not a soliton: on it eq4.7's
# stacked matmul rounds a row apart from its point unless each row of the
# block's covariant derivative lies as its point's own does, as the point
# axis, the outermost in memory, lays it out
SHEARED = {
    "name": "sheared-r4", "n": 4, "rho": 0, "kind": None,
    "metric": [["2.092 + 0.095*cos(x4*0.720)*x2", "0.026*exp(x4/3)*x4", "0.030*sin(x4/3)*x1",
                "0.024*cos(x3/3)*x2"],
               ["0.026*exp(x4/3)*x4", "2.633 + 0.150*exp(x3*0.977)*x2", "0.036*exp(x2/3)*x4",
                "0.034*cos(x1/3)*x1"],
               ["0.030*sin(x4/3)*x1", "0.036*exp(x2/3)*x4", "2.318 + 0.166*exp(x3*0.947)*x3",
                "0.051*exp(x1/3)*x2"],
               ["0.024*cos(x3/3)*x2", "0.034*cos(x1/3)*x1", "0.051*exp(x1/3)*x2",
                "2.884 + 0.080*sin(x1*0.776)*x2"]],
    "potential": "0.879*cos(x1*0.585) + 0.613*cos(x2*0.715) + 0.890*sin(x3*0.925) "
                 "+ 0.691*cos(x4*0.881) + x1*x1",
    "domain": {"box": [[-1, 1]] * 4},
}


@pytest.mark.parametrize("spec, seed", [(SHEARED, 2), (TRANSCENDENTAL, 7)],
                         ids=["sheared-r4", "transcendental-r3"])
def test_every_check_on_a_block_gives_each_row_its_points_outputs(spec, seed):
    # each per-point check of the suite, called once on a block of four sample
    # points, returns each row's residual and scale with its point's bits
    inst = instance_from_spec(spec)
    points = solitons.points_of(solitons.sample_evals(inst, 4, seed, 5))
    block = PointEval(inst, points, 5)
    checked = 0
    for check in verify.CHECKS:
        if check.per_instance or check.exact_dim not in (None, inst.n) or check.min_dim > inst.n:
            continue
        got = [np.broadcast_to(x, (len(points),)) for x in check.fn(block)[:2]]
        for p, point in enumerate(points):
            want = [np.broadcast_to(x, (1,))[0] for x in check.fn(PointEval(inst, [point], 5))[:2]]
            for g, w in zip(got, want):
                assert np.float64(g[p]).tobytes() == np.float64(w).tobytes(), (check.id, point)
        checked += 1
    assert checked >= 18


@pytest.mark.parametrize("name", ["s2xr3", "cylinder-s3xr"])
def test_a_blocks_checks_do_not_depend_on_how_its_products_are_chunked(monkeypatch, name):
    # every product of a block of five in chunks of one row, or in one chunk:
    # each per-point check gives each row the same residual and scale, bit
    # for bit, as every product's output is laid out alike either way
    inst = get_instance(name)
    points = solitons.points_of(solitons.sample_evals(inst, 5, 7, 5))
    checks = [check for check in verify.CHECKS if not check.per_instance
              and check.exact_dim in (None, inst.n) and check.min_dim <= inst.n]

    def outputs(budget):
        with monkeypatch.context() as m:
            m.setattr(jets, "BLOCK_BYTES", budget)
            block = PointEval(inst, points, 5)
            return {check.id: [np.asarray(x).tobytes() for x in check.fn(block)[:2]]
                    for check in checks}

    assert len(checks) >= 18
    assert outputs(1) == outputs(2 ** 62)


def test_rows_that_branch_in_gram_schmidt_get_their_points_own_frames():
    # grad f along x1 at (2, 0, 0, 0) spans the first chart direction, which
    # Gram-Schmidt skips there and takes at the other points
    inst = get_instance("gaussian-r4")
    points = [[1.0, 0.5, 0.2, 0.1], [2.0, 0.0, 0.0, 0.0], [0.3, -1.0, 0.4, 2.0]]
    frame = PointEval(inst, points, 3).frame
    for p, point in enumerate(points):
        want = PointEval(inst, [point], 3).frame
        assert frame.vectors[p].tobytes() == want.vectors[0].tobytes()
        assert frame.grad_f_norm[p] == want.grad_f_norm[0]
    one_sided = PointEval(inst, points[1:2] * 2, 3).frame  # all rows skip alike
    alone = PointEval(inst, points[1:2], 3).frame
    assert one_sided.vectors[0].tobytes() == alone.vectors[0].tobytes()


def test_a_prop32_block_that_raises_is_left_to_its_points(monkeypatch):
    inst = get_instance("cylinder-s3xr")
    want = repr(prop32_report(inst, _level(inst), n_points=12, seed=11))
    terms = levelset.prop32_terms
    evaluated = []

    def block_raises(ev):  # a block of several points raises, a point alone does not
        evaluated.append(len(ev.points) > 1)
        if len(ev.points) > 1:
            raise ConsistencyError("planted")
        return terms(ev)

    monkeypatch.setattr(levelset, "prop32_terms", block_raises)
    assert repr(prop32_report(inst, _level(inst), n_points=12, seed=11)) == want
    assert evaluated == [True] + [False] * 12


def test_a_blocks_grad_sq_is_each_rows_float_square():
    # a float's ** 2 is C's pow, which rounds apart from x * x, an array's
    # ** 2, at about one value in a thousand
    x = next(x for x in (1.0 + np.random.default_rng(0).random(20000)).tolist() if x ** 2 != x * x)
    inst = get_instance("gaussian-r4")
    block = PointEval(inst, [[1.0, 0.5, 0.2, 0.1], [0.3, -1.0, 0.4, 2.0]], 3)
    block.frame = levelset.AdaptedFrame(block.frame.vectors, np.array([x, 1.5]))
    assert block.prop32_terms.grad_sq.tolist() == [x ** 2, 1.5 ** 2]
