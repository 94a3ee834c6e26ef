import math

import numpy as np
import pytest

import gradsol.jets as jets
from gradsol.curvature import (
    covariant_derivative,
    curvature_pack,
    scalar_gradient,
)
from gradsol.errors import InsufficientOrderError
from gradsol.jets import jet_einsum, truncate_arrays
from gradsol.solitons import sample_evals
from gradsol.tensors import metric_at_point


def _euclidean(n):
    def metric(xs):
        return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    return metric


def test_christoffel_flat():
    m = metric_at_point(_euclidean(4), [0.3, 0.1, -0.2, 0.9], 4, 3)
    assert curvature_pack(m).gamma.max_abs(all_coeffs=True) == 0.0


def test_christoffel_polar_sphere():
    def s2(xs):
        th, ph = xs
        return [[1.0, 0.0], [0.0, jets.sin(th) * jets.sin(th)]]

    m = metric_at_point(s2, [1.0, 0.5], 2, 3)
    gamma = curvature_pack(m).gamma
    assert abs(gamma.values[0, 1, 1] + math.sin(1.0) * math.cos(1.0)) < 1e-13
    # symmetric in the lower pair
    assert np.abs(gamma.data - gamma.data.swapaxes(1, 2)).max() == 0.0


def test_christoffel_conformally_flat():
    # g = e^{2u} delta with u = x1: Gamma^k_ij = d_i u delta_jk + d_j u delta_ik - d_k u delta_ij
    def conf(xs):
        w = jets.exp(2.0 * xs[0])
        return [[w if i == j else 0.0 for j in range(3)] for i in range(3)]

    m = metric_at_point(conf, [0.2, -0.1, 0.4], 3, 3)
    gamma = curvature_pack(m).gamma.values
    assert abs(gamma[0, 0, 0] - 1.0) < 1e-13
    assert abs(gamma[0, 1, 1] + 1.0) < 1e-13
    assert abs(gamma[1, 0, 1] - 1.0) < 1e-13


def test_riemann_flat(geometry):
    _, _, pack, _ = geometry("gaussian-r4", [1.0, -0.5, 0.3, 0.8], 4)
    assert pack.riemann.max_abs(all_coeffs=True) == 0.0


def test_riemann_space_form(geometry):
    _, m, pack, _ = geometry("sphere-s4", [0.3, 0.1, -0.2, 0.4], 4)
    g = m.g.truncated(pack.riemann.order).values
    expected = (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)) / 6.0
    assert np.abs(pack.riemann.values - expected).max() < 1e-9


def test_cylinder_scalar_curvature(instances):
    inst = instances["cylinder-s3xr"]
    for ev in sample_evals(inst, 8, seed=3, order=3):
        assert abs(ev.pack.scalar.value - 1.5) < 1e-11


def test_metric_compatibility_all_instances(instances):
    for inst in instances.values():
        p = list(inst.base_point)
        metric = inst.metric_at(p, 4)
        pack = curvature_pack(metric)
        # every coefficient the connection carries: g one order above it
        ng = covariant_derivative(metric.g.truncated(pack.gamma.order + 1), pack)
        assert ng.order == pack.gamma.order
        assert ng.max_abs(all_coeffs=True) < 1e-10, inst.name


def test_gradient_of_potential_gaussian(geometry):
    _, _, pack, f = geometry("gaussian-r4", [1.2, -0.6, 0.4, 2.0], 3)
    df = scalar_gradient(f)
    assert np.allclose(df.values, np.array([1.2, -0.6, 0.4, 2.0]) / 2.0)


def test_contracted_bianchi(instances):
    inst = instances["s2xr2"]
    for ev in sample_evals(inst, 6, seed=9, order=4):
        metric, pack = ev.metric, ev.pack
        dric = covariant_derivative(pack.ricci, pack)
        _, ginv = truncate_arrays(metric.g_inv.space, metric.g_inv.data, dric.order)
        div_ric = jet_einsum(dric.space, "ik,ikj->j", ginv, dric.data)[..., 0]
        d_scal = scalar_gradient(pack.scalar).values
        assert np.abs(div_ric - 0.5 * d_scal).max() < 1e-8


def test_hessian_gaussian(geometry):
    _, m, pack, f = geometry("gaussian-r4", [2.0, 0.0, 0.0, 0.0], 3)
    h = covariant_derivative(scalar_gradient(f), pack)
    assert np.abs(h.values - 0.5 * np.eye(4)).max() < 1e-14


def test_hessian_cylinder_product_structure(geometry):
    _, _, pack, f = geometry("cylinder-s3xr", [0.4, -0.3, 0.2, 3.0], 3)
    h = covariant_derivative(scalar_gradient(f), pack).values
    expected = np.zeros((4, 4))
    expected[3, 3] = 0.5
    assert np.abs(h - expected).max() < 1e-13


def test_hessian_symmetric(geometry):
    for name, p in [("s2xr2", [0.5, 0.3, 1.7, -0.9]), ("sphere-s5", [0.2, -0.4, 0.6, 0.1, 0.3])]:
        _, _, pack, f = geometry(name, p, 4)
        h = covariant_derivative(scalar_gradient(f), pack)
        assert np.abs(h.data - h.data.swapaxes(0, 1)).max() < 1e-12


def test_riemann_symmetries_sampled(instances):
    for name in ("s2xr3", "warped-sphere-s4"):
        inst = instances[name]
        for ev in sample_evals(inst, 5, seed=13, order=3):
            rm = ev.pack.riemann.values
            scale = max(1.0, np.abs(rm).max())
            assert np.abs(rm + rm.transpose(1, 0, 2, 3)).max() / scale < 1e-9
            assert np.abs(rm + rm.transpose(0, 1, 3, 2)).max() / scale < 1e-9
            assert np.abs(rm - rm.transpose(2, 3, 0, 1)).max() / scale < 1e-9
            bianchi = rm + rm.transpose(1, 2, 0, 3) + rm.transpose(2, 0, 1, 3)
            assert np.abs(bianchi).max() / scale < 1e-9


@pytest.mark.parametrize("order", [3, 4, 5])
def test_christoffel_symbols_exactly_symmetric(instances, order):
    # the riemann_symmetries check leaves Γ^k_ij - Γ^k_ji out: it is 0 bit for bit
    for inst in instances.values():
        for ev in sample_evals(inst, 8, seed=7, order=order):
            gamma = ev.pack.gamma.data
            assert np.array_equal(gamma, gamma.swapaxes(1, 2)), (inst.name, ev.point)


def test_shrinker_scalar_curvature_nonnegative(instances):
    for inst in instances.values():
        if inst.kind not in ("shrinking", "einstein"):
            continue
        for ev in sample_evals(inst, 20, seed=7, order=2):
            assert ev.pack.scalar.value >= -1e-10, inst.name


def test_derivative_budget_booked_by_order():
    # an order-4 metric leaves order-2 curvature: third derivatives must
    # fail fast instead of returning junk
    def s2(xs):
        th, ph = xs
        return [[1.0, 0.0], [0.0, jets.sin(th) * jets.sin(th)]]

    m = metric_at_point(s2, [1.0, 0.5], 2, 4)
    pack = curvature_pack(m)
    comp = jets.JetScalar(pack.riemann.space, pack.riemann.data[0, 1, 0, 1])
    assert comp.order == 2
    comp.partial((2, 0))
    with pytest.raises(InsufficientOrderError):
        comp.partial((2, 1))


def test_covariant_derivative_order_guard():
    m = metric_at_point(_euclidean(3), [0.0] * 3, 3, 2)
    pack = curvature_pack(m)
    with pytest.raises(InsufficientOrderError):
        covariant_derivative(pack.ricci, pack)


def test_covariant_derivative_names_the_connection_order():
    m = metric_at_point(_euclidean(3), [0.0] * 3, 3, 4)
    pack = curvature_pack(m)
    assert pack.gamma.order == 2
    with pytest.raises(InsufficientOrderError,
                       match="connection is carried to order 2; truncate the order-4 "
                             "tensor to order 3"):
        covariant_derivative(m.g, pack)
    assert covariant_derivative(m.g.truncated(3), pack).order == 2


def test_covariant_derivative_rejects_contravariant():
    from gradsol.errors import TensorShapeError

    m = metric_at_point(_euclidean(3), [0.0] * 3, 3, 3)
    pack = curvature_pack(m)
    with pytest.raises(TensorShapeError):
        covariant_derivative(m.g_inv, pack)
