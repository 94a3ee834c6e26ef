"""Each jet is carried only to the order that is read.

The metric inverse and the connection stop two orders below the metric, the
inverse solves each degree with one product at that degree's order, Riemann
comes from second derivatives of g without a product above that order (a
test-local textbook reference checks it), the Ricci-Weyl term of the Bach
tensor and D run at the order of their cross-checks, and the derivatives
whose values alone are read take their input at order 1.  These tests pin
the orders and compare every value with a test-local full-order version.
The last one keeps tensor-by-scalar products, which ``jet_einsum`` plans,
away from ``mul_arrays``.
"""

import collections

import numpy as np
import pytest

from conftest import full_order_newton
from gradsol import conformal, curvature, jets, levelset, solitons, tensors, verify
from gradsol.conformal import bach_via_d_residual, einstein_tensor
from gradsol.curvature import covariant_derivative, divergence, scalar_gradient
from gradsol.jets import (
    JetScalar,
    gradient_arrays,
    jet_einsum,
    mul_arrays,
    sqrt,
    truncate_arrays,
)
from gradsol.solitons import PointEval, get_instance
from gradsol.tensors import TensorJet, raise_lower

# a generic curved metric (no soliton structure) and a product soliton
POINTS = [
    ("perturbed-non-soliton-r5", [1.0, -0.8, 1.2, 0.7, 0.5]),
    ("s2xr3", [0.2, 0.1, 1.6, 0.5, -0.4]),
]


@pytest.mark.parametrize(
    "order, steps", [(4, {1: 1, 2: 1}), (5, {1: 1, 2: 1, 3: 1})]
)
def test_products_run_at_the_order_they_make(monkeypatch, order, steps):
    counts = collections.defaultdict(collections.Counter)
    active = []

    def counting(einsum):
        def wrapped(space, subscripts, a, b):
            if active:
                counts[active[-1]][space.order] += 1
            return einsum(space, subscripts, a, b)

        return wrapped

    def scoped(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            active.append(name)
            try:
                return fn(*args)
            finally:
                active.pop()

        monkeypatch.setattr(module, name, wrapped)

    for module in (tensors, curvature, conformal):
        monkeypatch.setattr(module, "jet_einsum", counting(module.jet_einsum))
    scoped(tensors, "_invert_metric_jets")
    scoped(solitons, "curvature_pack")
    scoped(verify, "_check_metric_compat")
    scoped(conformal, "_ricci_weyl_contraction")
    ev = PointEval(get_instance("cylinder-s4xr"), [0.3, -0.2, 0.4, 0.1, 1.5], order)
    assert ev.bach.order == order - 4
    verify._check_metric_compat(ev)
    # one product per degree of the inverse, which stops two below the metric
    assert dict(counts["_invert_metric_jets"]) == steps
    # the connection and the curvature run no product above the inverse's order
    for name in ("curvature_pack", "_check_metric_compat"):
        assert counts[name] and max(counts[name]) == order - 2, name
    rw = counts["_ricci_weyl_contraction"]
    assert rw and max(rw) == order - 4


# ---------------------------------------------------------------------------
# full-order references: the same formulas, every input at its full order

def _d_full(pack, f):
    """D by the Schouten/Einstein path at the Schouten tensor's order."""
    n = pack.dim
    a, e = pack.schouten, einstein_tensor(pack)
    space = a.space
    df = scalar_gradient(f)
    _, dfd = truncate_arrays(df.space, df.data, space.order)
    _, ginv = truncate_arrays(pack.metric.g_inv.space, pack.metric.g_inv.data, space.order)
    _, g = truncate_arrays(pack.metric.space, pack.metric.g.data, space.order)
    t1 = jet_einsum(space, "jk,i->ijk", a.data, dfd)
    v = jet_einsum(space, "il,l->i", e.data, jet_einsum(space, "ij,j->i", ginv, dfd))
    t2 = jet_einsum(space, "jk,i->ijk", g, v)
    d = (t1 - t1.swapaxes(0, 1)) / (n - 2) + (t2 - t2.swapaxes(0, 1)) / ((n - 1) * (n - 2))
    return TensorJet(space, "ddd", d)


def _ricci_weyl_full(pack, weyl_t):
    wmix = raise_lower(raise_lower(weyl_t, 1, pack.metric), 3, pack.metric)
    space = min(pack.ricci.space, wmix.space, key=lambda s: s.order)
    k = space.n_terms
    rw = jet_einsum(space, "kl,ikjl->ij", pack.ricci.data[..., :k], wmix.data[..., :k])
    return TensorJet(space, "dd", rw)


def _inverse_at(metric, order):
    """g^{-1} at an order the metric's own inverse may not carry."""
    space, g = truncate_arrays(metric.space, metric.g.data, order)
    return full_order_newton(space, g)


def _curvature_textbook(metric):
    """Rm, Ric and R from the mixed formula R^l_kij = dΓ + ΓΓ, lowered by g.

    Γ^l_ij = g^{lm} Γ_{m,ij} is built one order below g, from an inverse
    carried to that order, so Riemann is differentiated out of Γ.
    """
    lower = metric.space.lower()
    r2 = lower.lower()
    dg = gradient_arrays(metric.space, metric.g.data)
    sym = dg.transpose(2, 0, 1, 3) + dg.transpose(2, 1, 0, 3) - dg
    gamma = 0.5 * jet_einsum(lower, "kl,lij->kij", _inverse_at(metric, lower.order), sym)
    dG = gradient_arrays(lower, gamma)  # dG[m, l, i, j] = d_m Γ^l_ij
    t1 = dG.transpose(1, 3, 0, 2, 4)
    gtr = gamma[..., : r2.n_terms]
    q = jet_einsum(r2, "lis,sjk->lkij", gtr, gtr)
    rmix = t1 - t1.swapaxes(2, 3) + q - q.swapaxes(2, 3)
    g = metric.g.data[..., : r2.n_terms]
    riem = jet_einsum(r2, "ml,lkij->mkij", g, rmix)
    ricci = np.trace(rmix, axis1=0, axis2=2)
    scalar = jet_einsum(r2, "ij,ij->", _inverse_at(metric, r2.order), ricci)
    return riem, ricci, scalar


def _normal_form_derivative_full(ev, phi):
    df = ev.df
    space = df.space
    ginv = _inverse_at(ev.metric, space.order)
    up = jet_einsum(space, "ij,j->i", ginv, df.data)
    w2 = JetScalar(space, jet_einsum(space, "i,i->", up, df.data))
    form = TensorJet(space, "d", mul_arrays(space, df.data, phi(w2).coeffs))
    return covariant_derivative(form, ev.pack).values


def _assert_close(got, want, rtol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


@pytest.fixture(params=[(name, point, order) for name, point in POINTS for order in (4, 5)],
                ids=lambda p: f"{p[0]}-o{p[2]}")
def ev(request):
    name, point, order = request.param
    return PointEval(get_instance(name), point, order)


def test_curvature_matches_the_textbook_formula(ev):
    riem, ricci, scalar = _curvature_textbook(ev.metric)
    pack = ev.pack
    assert pack.riemann.order == ev.order - 2
    assert np.abs(riem).max() > 1e-3
    # every carried coefficient
    _assert_close(pack.riemann.data, riem, rtol=1e-12)
    _assert_close(pack.ricci.data, ricci, rtol=1e-12)
    _assert_close(pack.scalar.coeffs, scalar, rtol=1e-12)


def test_hessian_values(ev):
    assert ev.hess_f.order == 0
    _assert_close(ev.hess_f.values, covariant_derivative(scalar_gradient(ev.f), ev.pack).values)


def test_d_at_its_cross_check_order(ev):
    ref = _d_full(ev.pack, ev.f)
    assert ev.dtensor.order == ref.order - 1
    _assert_close(ev.dtensor.values, ref.values)
    _assert_close(ev.dtensor.data, ref.data[..., : ev.dtensor.space.n_terms])


def test_eq41_div_d_values(ev):
    n = ev.inst.n
    div_d = divergence(_d_full(ev.pack, ev.f), ev.pack, 1).values
    c_term = np.einsum("jli,l->ij", ev.cotton.values, ev.gradf_up_values)
    lhs = ev.bach.values
    rhs = -(div_d + ((n - 3.0) / (n - 2.0)) * c_term) / (n - 2.0)
    resid, scale, sides = bach_via_d_residual(ev)
    assert np.abs(div_d).max() > 1e-3
    _assert_close(sides["d_divergence_max"], np.abs(div_d).max())
    _assert_close(resid, np.abs(lhs - rhs).max())
    _assert_close(scale, max(np.abs(lhs).max(), np.abs(rhs).max()))


def test_bianchi_div_ric_values(ev):
    div_ric = divergence(ev.pack.ricci, ev.pack, 0).values
    d_scal = scalar_gradient(ev.pack.scalar).values
    resid, scale = verify._check_bianchi_contracted(ev)
    _assert_close(resid, np.abs(div_ric - 0.5 * d_scal).max())
    _assert_close(scale, max(np.abs(div_ric).max(), np.abs(d_scal).max(), 1e-30))


@pytest.mark.parametrize("phi", [lambda w2: 1.0 / w2, lambda w2: -(1.0 / sqrt(w2))],
                         ids=["inverse", "inverse-sqrt"])
def test_normal_form_derivative_values(ev, phi):
    got = levelset._normal_form_derivative(ev, phi)
    want = _normal_form_derivative_full(ev, phi)
    assert np.abs(want).max() > 1e-3
    _assert_close(got, want)


def test_ricci_weyl_term_at_bach_order(ev):
    order = ev.order - 4
    got = conformal._ricci_weyl_contraction(ev.pack, ev.weyl, order)
    want = _ricci_weyl_full(ev.pack, ev.weyl).truncated(order)
    assert np.abs(want.values).max() > 1e-3
    _assert_close(got, want.data)


@pytest.mark.parametrize("name, point", POINTS, ids=[name for name, _ in POINTS])
def test_scalar_jet_products_take_scalar_operands(monkeypatch, name, point):
    # a tensor times a scalar jet goes through jet_einsum: mul_arrays, whose
    # reduceat pays per output row, only ever multiplies two scalar jets
    shapes = []

    def recording(space, a, b):
        shapes.append((a.shape, b.shape))
        return mul_arrays(space, a, b)

    for module in (jets, tensors, curvature, conformal, levelset, solitons):
        if hasattr(module, "mul_arrays"):
            monkeypatch.setattr(module, "mul_arrays", recording)
    ev = PointEval(get_instance(name), point, 5)
    assert ev.inst.n == 5
    for tensor in (ev.weyl, ev.cotton, ev.dtensor, ev.bach, ev.hess_f):
        assert np.isfinite(tensor.values).all()
    assert np.isfinite(ev.level_surface.h).all()
    # the normal-form derivative behind eq 4.6 and eq 4.7
    assert np.isfinite(levelset.normal_metric_derivative(ev)).all()
    assert levelset.normal_geodesic_residual(ev) is not None
    assert shapes
    assert all(len(sa) == len(sb) == 1 for sa, sb in shapes), sorted(set(shapes))
