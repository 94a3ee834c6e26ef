import numpy as np
import pytest

from gradsol import tensors
from gradsol.errors import (
    ConsistencyError,
    DomainError,
    InsufficientOrderError,
    TensorShapeError,
)
from gradsol.jets import JetScalar, JetSpace, jet_einsum, truncate_arrays
from gradsol.solitons import get_instance
from gradsol.tensors import TensorJet, metric_at_point, raise_lower, tensor_norm_sq

from conftest import full_order_newton


def _euclidean(n):
    def metric(xs):
        return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    return metric


def _kronecker(space):
    """Component data of the constant Kronecker delta in `space`."""
    data = np.zeros((space.dim, space.dim, space.n_terms))
    data[np.arange(space.dim), np.arange(space.dim), 0] = 1.0
    return data


def test_contract_identity():
    space = JetSpace.get(4, 2)
    delta = _kronecker(space)
    tr = jet_einsum(space, "ij,ji->", delta, delta)
    assert tr[0] == 4.0
    assert np.count_nonzero(tr) == 1


def test_ginv_outer_g_contract_is_kronecker(geometry):
    _, m, _, _ = geometry("s2xr2", [0.3, -0.1, 1.5, 0.4], 3)
    space, g = truncate_arrays(m.space, m.g.data, m.g_inv.order)
    prod = jet_einsum(space, "ij,kl->ijkl", m.g_inv.data, g)  # slots (u, u, d, d)
    delta = np.einsum("ijjlZ->ilZ", prod)
    expected = np.eye(4)
    assert np.abs(delta[..., 0] - expected).max() < 1e-12


def test_lower_then_raise_roundtrip(geometry):
    _, m, pack, _ = geometry("s2xr2", [0.4, 0.2, 1.1, -0.8], 4)
    ric = pack.ricci
    roundtrip = raise_lower(raise_lower(ric, 0, m), 0, m)
    assert np.abs(roundtrip.data - ric.data).max() < 1e-10


def test_raise_lower_euclidean_identity():
    m = metric_at_point(_euclidean(3), [0.0, 0.0, 0.0], 3, 3)
    space = m.g_inv.space  # raising reads g_inv, carried two orders below g
    rng = np.random.default_rng(5)
    t = TensorJet(space, "dd", rng.standard_normal((3, 3, space.n_terms)))
    up = raise_lower(t, 1, m)
    assert np.array_equal(up.data, t.data)
    assert up.valence == "du"


def test_grad_norm_on_flat_chart(geometry):
    from gradsol.curvature import scalar_gradient

    inst, m, pack, f = geometry("gaussian-r4", [2.0, 0.0, 0.0, 0.0], 3)
    df = scalar_gradient(f).truncated(m.g_inv.order)
    up = raise_lower(df, 0, m)
    norm_sq = jet_einsum(df.space, "i,i->", up.data, df.data)
    assert abs(norm_sq[0] - 1.0) < 1e-14


def test_norms():
    m = metric_at_point(_euclidean(5), [0.0] * 5, 5, 2)
    assert abs(tensor_norm_sq(m.g, m) - 5.0) < 1e-13
    zero = TensorJet(m.space, "ddd", np.zeros((5, 5, 5, m.space.n_terms)))
    assert tensor_norm_sq(zero, m) == 0.0


def test_ricci_norm_on_cylinder(geometry):
    # eigenvalues (1/2, 1/2, 1/2, 0): sum of squares 3/4
    _, m, pack, _ = geometry("cylinder-s3xr", [0.3, -0.2, 0.5, 2.0], 3)
    assert abs(tensor_norm_sq(pack.ricci, m) - 0.75) < 1e-12


def test_ricci_trace_round_sphere(geometry):
    # n(n-1)/r^2 = 2 on the radius-sqrt(6) round 4-sphere
    _, m, pack, _ = geometry("sphere-s4", [0.3, 0.1, -0.2, 0.4], 3)
    tr = np.einsum("iiZ->Z", raise_lower(pack.ricci, 0, m).data)
    assert abs(tr[0] - 2.0) < 1e-12
    assert np.abs(tr - pack.scalar.coeffs).max() < 1e-12


def test_norm_requires_covariant():
    space = JetSpace.get(3, 1)
    m = metric_at_point(_euclidean(3), [0.0] * 3, 3, 1)
    with pytest.raises(TensorShapeError):
        tensor_norm_sq(TensorJet(space, "ud", _kronecker(space)), m)


def test_contraction_order_independence():
    # T^i_i^j_j traced first over slots (0, 1), or first over slots (2, 3)
    space = JetSpace.get(3, 3)
    rng = np.random.default_rng(11)
    t = rng.standard_normal((3, 3, 3, 3, space.n_terms))
    delta = _kronecker(space)
    a = jet_einsum(space, "kl,kl->", delta, jet_einsum(space, "ij,ijkl->kl", delta, t))
    b = jet_einsum(space, "ij,ij->", delta, jet_einsum(space, "kl,ijkl->ij", delta, t))
    assert np.abs(a - b).max() < 1e-12
    assert np.abs(a - np.einsum("iijjZ->Z", t)).max() < 1e-12


def test_metric_rejects_non_positive_definite():
    def bad(xs):
        return [[-1.0, 0.0], [0.0, 1.0]]

    with pytest.raises(DomainError):
        metric_at_point(bad, [0.0, 0.0], 2, 2)


def test_metric_inverse_coefficient_level(geometry):
    _, m, _, _ = geometry("sphere-s4", [0.7, -0.4, 0.2, 1.1], 5)
    space, g = truncate_arrays(m.space, m.g.data, m.g_inv.order)
    prod = jet_einsum(space, "ij,jk->ik", g, m.g_inv.data)
    prod[np.arange(4), np.arange(4), 0] -= 1.0
    assert np.abs(prod[..., 0]).max() < 1e-12
    assert np.abs(prod).max() < 1e-10


@pytest.mark.parametrize("order", range(6))
def test_inverse_carries_two_orders_less(order):
    inst = get_instance("s2xr3")
    m = metric_at_point(inst.metric_fn, [0.2, 0.1, 1.6, 0.5, -0.4], inst.n, order)
    assert m.g.order == order
    assert m.g_inv.order == max(order - 2, 0)
    assert m.g_inv.space is JetSpace.get(inst.n, m.g_inv.order)
    if order > 0:
        # raising a slot of a full-order tensor would need g_inv at its order;
        # the error names the order g_inv is carried to
        carried = f"g\\^-1 is carried to order {m.g_inv.order}; truncate"
        with pytest.raises(InsufficientOrderError, match=carried):
            raise_lower(m.g, 0, m)
        raised = raise_lower(m.g.truncated(m.g_inv.order), 0, m)
        assert raised.order == m.g_inv.order


@pytest.mark.parametrize("order", [3, 5])
def test_inverse_check_rejects_nan(order):
    # a NaN above degree 0 leaves g_0 positive definite; the inverse check
    # must still fail rather than hand on a non-finite g_inv
    inst = get_instance("s2xr3")

    def nan_metric(xs):
        rows = [list(row) for row in inst.metric_fn(xs)]
        coeffs = rows[0][0].coeffs.copy()
        coeffs[1] = np.nan
        rows[0][0] = JetScalar(rows[0][0].space, coeffs)
        return rows

    with pytest.raises(ConsistencyError, match="g\\*g_inv"):
        metric_at_point(nan_metric, [0.2, 0.1, 1.6, 0.5, -0.4], inst.n, order)


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("order", range(6))
def test_graded_inverse_matches_full_order_newton(dim, order):
    space = JetSpace.get(dim, order)
    rng = np.random.default_rng(100 * dim + order)
    coeffs = rng.uniform(-0.5, 0.5, (dim, dim, space.n_terms))
    gdata = coeffs + coeffs.transpose(1, 0, 2)
    gdata[..., 0] = np.eye(dim) + 0.1 * gdata[..., 0]
    ref = full_order_newton(space, gdata)
    got = tensors._invert_metric_jets(space, gdata)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("order", [4, 5])
def test_inverse_check_sees_a_top_degree_error(monkeypatch, order):
    # the g * g_inv = id check covers every coefficient the inverse carries,
    # so a wrong top-degree coefficient of the inverse cannot pass
    invert = tensors._invert_metric_jets

    def off_by_1e6(space, gdata):
        x = invert(space, gdata)
        x[1, 1, -1] += 1e-6
        return x

    monkeypatch.setattr(tensors, "_invert_metric_jets", off_by_1e6)
    inst = get_instance("s2xr3")
    with pytest.raises(ConsistencyError, match="g\\*g_inv"):
        metric_at_point(inst.metric_fn, [0.2, 0.1, 1.6, 0.5, -0.4], inst.n, order)


def test_symmetrization_idempotent_on_curvature_outputs(geometry):
    # tensors with a known symmetric pair are unchanged by symmetrising it,
    # and symmetrisation applied twice equals once on arbitrary data
    _, m, pack, f = geometry("s2xr2", [0.4, -0.1, 1.3, 0.7], 4)
    from gradsol.curvature import covariant_derivative, scalar_gradient

    for t in (pack.ricci, covariant_derivative(scalar_gradient(f), pack)):
        sym = 0.5 * (t.data + t.data.swapaxes(0, 1))
        assert np.abs(sym - t.data).max() < 1e-12
    rng = np.random.default_rng(23)
    space = m.space
    raw = rng.standard_normal((4, 4, space.n_terms))
    once = 0.5 * (raw + raw.swapaxes(0, 1))
    twice = 0.5 * (once + once.swapaxes(0, 1))
    assert np.array_equal(once, twice)


def test_symmetry_enforced_from_upper_triangle():
    def lopsided(xs):
        # lower triangle deliberately inconsistent; construction mirrors the upper
        return [[1.0, 0.25], [99.0, 2.0]]

    m = metric_at_point(lopsided, [0.0, 0.0], 2, 2)
    assert m.g.values[1, 0] == 0.25
