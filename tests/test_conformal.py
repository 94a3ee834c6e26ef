import dataclasses

import numpy as np
import pytest

from gradsol.conformal import (
    _require_agreement,
    bach,
    bach_via_d_residual,
    cotton,
    cotton_weyl_divergence_residual,
    d_decomposition_residual,
    d_tensor,
    div_bach_residual,
    einstein_tensor,
    weyl,
)
from gradsol.curvature import (
    CurvaturePack,
    covariant_derivative,
    curvature_pack,
    divergence,
    scalar_gradient,
)
from gradsol.errors import ConsistencyError, InsufficientOrderError, UnsupportedDimensionError
from gradsol.solitons import PointEval, get_instance, sample_evals
from gradsol.tensors import TensorJet, tensor_norm_sq


def test_schouten_flat(geometry):
    _, _, pack, _ = geometry("gaussian-r4", [1.0, 0.4, -0.3, 0.2], 4)
    assert pack.schouten.max_abs(all_coeffs=True) == 0.0


def test_schouten_round_sphere(geometry):
    _, m, pack, _ = geometry("sphere-s4", [0.5, -0.2, 0.3, 0.1], 4)
    a = pack.schouten
    g = m.g.truncated(a.order)
    assert np.abs(a.data - g.data / 6.0).max() < 1e-11


def test_schouten_trace_cylinder(geometry):
    _, m, pack, _ = geometry("cylinder-s3xr", [0.2, 0.5, -0.3, 1.4], 4)
    a = pack.schouten
    trace = np.einsum("ij,ij->", m.g_inv.values, a.values)
    # R (n-2)/(2(n-1)) with R = 3/2, n = 4
    assert abs(trace - 0.5) < 1e-12


def test_schouten_dimension_guard():
    from gradsol.tensors import metric_at_point

    # a curved surface: the dimension now comes from the pack itself
    m = metric_at_point(lambda xs: [[1.0 + 0.2 * xs[1] * xs[1], 0.0], [0.0, 1.0]],
                        [0.4, -0.7], 2, 3)
    pack = curvature_pack(m)
    assert pack.dim == 2
    with pytest.raises(UnsupportedDimensionError):
        pack.schouten


def test_schouten_built_once_per_pack(monkeypatch):
    # W, C and D each read the Schouten tensor; the pack builds it once
    built = []
    build = CurvaturePack.schouten.func

    def counting(pack):
        built.append(pack)
        return build(pack)

    monkeypatch.setattr(CurvaturePack.schouten, "func", counting)
    ev = PointEval(get_instance("s2xr3"), [0.2, 0.1, 1.6, 0.5, -0.4], 5)
    for t in (ev.weyl, ev.cotton, ev.dtensor, ev.bach):
        assert np.isfinite(t.values).all()
    assert len(built) == 1 and built[0] is ev.pack
    assert ev.pack.schouten is ev.pack.schouten


def test_einstein_tensor(geometry):
    _, m, pack, _ = geometry("sphere-s4", [0.1, 0.2, 0.3, -0.2], 4)
    e = einstein_tensor(pack)
    g = m.g.truncated(e.order).values
    # R_ij = g/2, R = 2: E = g/2 - g = -g/2
    assert np.abs(e.values + 0.5 * g).max() < 1e-11


def test_weyl_vanishes_dimension_three():
    # any 3-manifold: the totally trace-free curvature part is identically
    # zero; check on a genuinely curved metric so the test is not vacuous
    def curved3(xs):
        return [
            [1.0 + 0.2 * xs[1] * xs[1], 0.05 * xs[2] * xs[2], 0.0],
            [0.0, 1.0 + 0.1 * xs[2] * xs[2] * xs[2], 0.0],
            [0.0, 0.0, 1.0 + 0.15 * xs[0] * xs[0]],
        ]

    from gradsol.tensors import metric_at_point

    m = metric_at_point(curved3, [0.4, -0.7, 0.9], 3, 4)
    pack = curvature_pack(m)
    assert pack.riemann.max_abs() > 1e-3  # non-flat
    assert weyl(pack).max_abs(all_coeffs=True) < 1e-9


def test_weyl_vanishes_on_cylinder(instances):
    inst = instances["cylinder-s3xr"]
    for ev in sample_evals(inst, 6, seed=5, order=4):
        assert weyl(ev.pack).max_abs() < 1e-9


def test_weyl_vanishes_s2xr_three_manifold(instances):
    # the 2-sphere-times-line shrinker: curved, dimension three
    inst = instances["cylinder-s2xr"]
    for ev in sample_evals(inst, 6, seed=5, order=4):
        assert ev.pack.riemann.max_abs() > 1e-2
        assert weyl(ev.pack).max_abs() < 1e-9


def test_weyl_norm_s2xr2(instances):
    inst = instances["s2xr2"]
    for ev in sample_evals(inst, 8, seed=5, order=3):
        w = weyl(ev.pack)
        assert tensor_norm_sq(w, ev.metric) > 0.1
    # exact value from the product structure
    m = inst.metric_at([0.0, 0.0, 2.0, 0.0], 3)
    pack = curvature_pack(m)
    assert abs(tensor_norm_sq(weyl(pack), m) - 1.0 / 3.0) < 1e-12


def test_cotton_zero_on_einstein_and_products(geometry):
    for name, p in [
        ("sphere-s4", [0.4, 0.1, -0.3, 0.2]),
        ("sphere-s5", [0.2, 0.1, 0.4, -0.1, 0.3]),
        ("s2xr2", [0.3, -0.2, 1.8, 0.6]),
    ]:
        _, _, pack, _ = geometry(name, p, 4)
        assert cotton(pack).max_abs() < 1e-9, name


def test_cotton_weyl_divergence_on_curved_metric(point_eval):
    # the relation holds for arbitrary metrics and is non-vacuous on the
    # perturbed control, where the Cotton tensor is order 1e-2
    ev = point_eval("perturbed-non-soliton-r4", [1.0, -0.8, 1.2, 0.7], 5)
    resid, scale, sides = cotton_weyl_divergence_residual(ev)
    assert sides["cotton_max"] > 1e-3
    assert resid / max(1.0, scale) < 1e-8


def test_cotton_weyl_divergence_all_certified(instances, point_eval):
    for inst in instances.values():
        if inst.kind is None or inst.n < 4:
            continue
        resid, scale, _ = cotton_weyl_divergence_residual(
            point_eval(inst.name, list(inst.base_point), 4))
        assert resid / max(1.0, scale) < 1e-8, inst.name


def test_bach_zero_on_einstein_and_conformally_flat(geometry):
    for name, p in [
        ("sphere-s4", [0.4, 0.1, -0.3, 0.2]),
        ("cylinder-s3xr", [0.3, -0.2, 0.5, 2.0]),
    ]:
        _, _, pack, _ = geometry(name, p, 4)
        w = weyl(pack)
        c = cotton(pack)
        assert bach(pack, c, w, divergence(w, pack, 3)).max_abs() < 1e-8, name


def test_bach_zero_exactly_on_flat(geometry):
    _, _, pack, _ = geometry("gaussian-r4", [1.5, 0.2, -0.7, 0.4], 4)
    w = weyl(pack)
    c = cotton(pack)
    assert bach(pack, c, w, divergence(w, pack, 3)).max_abs(all_coeffs=True) == 0.0


def test_bach_dimension_guard(geometry):
    _, _, pack, _ = geometry("gaussian-r3", [1.0, 0.2, 0.3], 4)
    w = weyl(pack)
    c = cotton(pack)
    with pytest.raises(UnsupportedDimensionError):
        bach(pack, c, w, divergence(w, pack, 3))


def test_d_tensor_values(geometry):
    for name, p in [("sphere-s4", [0.4, 0.1, -0.3, 0.2]), ("cylinder-s3xr", [0.3, -0.2, 0.5, 2.0])]:
        inst, m, pack, f = geometry(name, p, 4)
        d = d_tensor(pack, scalar_gradient(f), cross_check=True)
        assert d.max_abs() < 1e-9, name
    inst, m, pack, f = geometry("s2xr2", [0.0, 0.0, 2.0, 0.0], 4)
    d = d_tensor(pack, scalar_gradient(f), cross_check=True)
    assert abs(tensor_norm_sq(d, m) - 1.0 / 12.0) < 1e-8


def test_d_decomposition(point_eval, instances):
    # flat/Einstein: all three terms vanish; on the curved product the
    # Cotton tensor vanishes so D must match the conformal term alone
    ev = point_eval("gaussian-r4", [1.0, 0.4, -0.3, 0.2], 4)
    assert d_decomposition_residual(ev)[0] == 0.0

    inst = instances["s2xr2"]
    for ev in sample_evals(inst, 6, seed=21, order=4):
        assert d_decomposition_residual(ev)[0] < 1e-8
        assert ev.cotton.max_abs() < 1e-9
        assert ev.dtensor.max_abs() > 1e-3  # non-vacuous: D equals the W-term


def test_d_cotton_contraction(instances):
    # contracting with grad f erases the D/C difference even where D != 0
    from gradsol.conformal import d_cotton_contraction_residual

    inst = instances["s2xr2"]
    for ev in sample_evals(inst, 6, seed=43, order=4):
        assert ev.dtensor.max_abs() > 1e-3
        assert d_cotton_contraction_residual(ev)[0] < 1e-9


def test_bach_via_d(point_eval, instances):
    inst = instances["s2xr2"]
    seen_nonzero = False
    for ev in sample_evals(inst, 6, seed=33, order=5):
        resid, scale, sides = bach_via_d_residual(ev)
        assert resid / max(1.0, scale) < 1e-8
        if sides["bach_max"] > 1e-3 and sides["d_divergence_max"] > 1e-3:
            seen_nonzero = True
    assert seen_nonzero

    for name, p in [("cylinder-s3xr", [0.3, -0.2, 0.5, 2.0]), ("gaussian-r4", [1.2, 0.5, -0.3, 0.8])]:
        assert bach_via_d_residual(point_eval(name, p, 5))[0] < 1e-9, name


def test_div_bach_dimension_four_general(point_eval):
    # at n = 4 the divergence of the Bach tensor vanishes for any metric;
    # the perturbed control makes this non-vacuous (nonzero Bach tensor)
    _, _, sides = div_bach_residual(point_eval("perturbed-non-soliton-r4", [1.1, -0.9, 0.8, 1.3], 5))
    assert sides["bach_max"] > 1e-3
    assert sides["rhs_max"] == 0.0
    assert sides["lhs_max"] < 1e-7


def test_div_bach_dimension_five_two_sided(point_eval):
    ev = point_eval("perturbed-non-soliton-r5", [1.0, -0.8, 1.2, 0.7, -1.1], 5)
    resid, _, sides = div_bach_residual(ev)
    # judged against the two sides alone, not the suite's scale that includes |B|
    assert resid / max(1.0, sides["lhs_max"], sides["rhs_max"]) < 1e-7
    assert sides["lhs_max"] > 1e-4 and sides["rhs_max"] > 1e-4


def test_div_bach_requires_full_order(point_eval):
    with pytest.raises(InsufficientOrderError):
        div_bach_residual(point_eval("cylinder-s3xr", [0.3, -0.2, 0.5, 2.0], 4))


def test_direct_tensor_assembly(geometry):
    _, _, pack, f = geometry("s2xr2", [0.2, 0.1, 1.6, 0.5], 5)
    w = weyl(pack)
    c = cotton(pack)
    assert w.valence == "dddd"
    assert c.valence == "ddd"
    assert d_tensor(pack, scalar_gradient(f), cross_check=True).valence == "ddd"
    # symmetry of the rank-2 members
    for t in (pack.schouten, einstein_tensor(pack), bach(pack, c, w, divergence(w, pack, 3))):
        assert t.valence == "dd"
        assert np.abs(t.values - t.values.T).max() < 1e-9


def _nan_like(t):
    return TensorJet(t.space, t.valence, np.full_like(t.data, np.nan))


def test_require_agreement_rejects_a_nan_path(geometry):
    # NaN compares false both ways, so `diff > tol` let a NaN path pass
    _, _, pack, _ = geometry("s2xr2", [0.2, 0.1, 1.6, 0.5], 5)
    w = weyl(pack)
    for a, b in ((w, _nan_like(w)), (_nan_like(w), w)):
        with pytest.raises(ConsistencyError, match="weyl"):
            _require_agreement(a, b, 1e-10, "weyl")


def test_require_agreement_compares_the_common_order(geometry):
    # the paths are compared up to the lower order of the two, above it not at all
    _, _, pack, _ = geometry("s2xr2", [0.2, 0.1, 1.6, 0.5], 5)
    ric = pack.ricci
    low = ric.truncated(ric.order - 1)
    high = TensorJet(ric.space, "dd", ric.data.copy())
    high.data[..., low.space.n_terms:] += 1.0
    _require_agreement(high, low, 1e-10, "ricci")
    _require_agreement(low, high, 1e-10, "ricci")
    low.data[..., low.space.n_terms - 1] += 1.0
    for a, b in ((high, low), (low, high)):
        with pytest.raises(ConsistencyError, match="ricci"):
            _require_agreement(a, b, 1e-10, "ricci")


@pytest.mark.parametrize("what", ["weyl", "cotton", "bach", "d_tensor"])
def test_two_path_tensor_with_a_nan_path_raises(geometry, what):
    _, _, pack, f = geometry("s2xr2", [0.2, 0.1, 1.6, 0.5], 5)
    if what == "bach":
        # the Cotton tensor enters only the Cotton-divergence path
        with pytest.raises(ConsistencyError, match="bach"):
            w = weyl(pack)
            bach(pack, _nan_like(cotton(pack)), w, divergence(w, pack, 3))
        return
    # the Schouten tensor enters one path of each of the other three; a fresh
    # pack holds a NaN one, so the shared cached pack stays clean
    pack = dataclasses.replace(pack)
    vars(pack)["schouten"] = _nan_like(pack.schouten)
    build = {
        "weyl": lambda: weyl(pack),
        "cotton": lambda: cotton(pack),
        "d_tensor": lambda: d_tensor(pack, scalar_gradient(f), cross_check=True),
    }[what]
    with pytest.raises(ConsistencyError, match=what):
        build()


def test_divergence_matches_a_hand_written_trace(point_eval):
    # D of the perturbed control is generic, so every slot's trace is nonzero
    ev = point_eval("perturbed-non-soliton-r4", [1.0, -0.8, 1.2, 0.7], 5)
    dd = covariant_derivative(ev.dtensor, ev.pack)
    ginv = ev.metric.g_inv.values
    by_slot = {
        0: np.einsum("im,mijk->jk", ginv, dd.values),
        1: np.einsum("jm,mijk->ik", ginv, dd.values),
        2: np.einsum("km,mijk->ij", ginv, dd.values),
    }
    for slot, want in by_slot.items():
        div = divergence(ev.dtensor, ev.pack, slot)
        assert (div.valence, div.order) == ("dd", dd.order)
        assert np.abs(want).max() > 1e-3, slot
        assert np.abs(div.values - want).max() < 1e-13, slot
