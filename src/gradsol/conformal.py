"""Conformal-curvature tensors and the residual forms of their identities.

Each tensor that admits two textbook expressions is computed along *both*
and the paths must agree; a disagreement, or a NaN on either path, raises
:class:`ConsistencyError`.  The dimension is the curvature pack's.  The
Bach tensor takes div W as an input, so a point evaluation builds it once
for eq 2.2 and Bach.  Each identity residual reads one
:class:`~gradsol.solitons.PointEval` and evaluates the two sides of its
identity independently.  It returns ``(residual, scale)``: the worst
component mismatch and the magnitude of the larger side.  Residuals whose
side sizes show that a check was not vacuous add a third element, a dict
of those named maxima.
"""

import numpy as np

from .curvature import covariant_derivative, divergence
from .errors import ConsistencyError, UnsupportedDimensionError
from .jets import jet_einsum, truncate_arrays
from .tensors import TensorJet, raise_lower

_CROSS_CHECK_ALGEBRAIC = 1e-10
_CROSS_CHECK_DIFFERENTIAL = 1e-8


def _require_agreement(a, b, tol, what):
    """Compare two paths on the coefficients up to their common order."""
    n = min(a.space.n_terms, b.space.n_terms)
    aa, bb = a.data[..., :n], b.data[..., :n]
    diff = float(np.abs(aa - bb).max())
    scale = max(float(np.abs(aa).max()), float(np.abs(bb).max()))
    # `not <=`, unlike `>`, holds for NaN: a NaN on either path disagrees
    if not diff / max(1.0, scale) <= tol:
        raise ConsistencyError(
            f"{what}: independent paths disagree by {diff:.3e} (scale {scale:.3e})"
        )


def _kulkarni_nomizu(space, g, h):
    """(g KN h)_ijkl = g_ik h_jl - g_il h_jk - g_jk h_il + g_jl h_ik, by transposes."""
    p = jet_einsum(space, "ik,jl->ijkl", g, h)
    return (
        p
        - p.transpose(0, 1, 3, 2, 4)
        - p.transpose(1, 0, 2, 3, 4)
        + p.transpose(1, 0, 3, 2, 4)
    )


def einstein_tensor(pack, order=None):
    """E_ij = R_ij - (R/2) g_ij, at the Ricci tensor's order or a lower `order`."""
    order = pack.ricci.order if order is None else order
    space, ric = truncate_arrays(pack.ricci.space, pack.ricci.data, order)
    rg = jet_einsum(space, "ij,->ij", pack.metric.g.data, pack.scalar.coeffs)
    return TensorJet(space, "dd", ric - 0.5 * rg)


def weyl(pack):
    """Totally trace-free part of the curvature tensor.

    Computed from the Ricci/scalar form and independently from the
    Schouten form; both must agree before the first is returned.
    """
    n = pack.dim
    if n < 3:
        raise UnsupportedDimensionError("weyl tensor needs dimension >= 3")
    space, g = pack.riemann.space, pack.metric.g.data
    ric_part = _kulkarni_nomizu(space, g, pack.ricci.data)
    gg = jet_einsum(space, "ik,jl->ijkl", g, g)
    gg_asym = gg - gg.transpose(0, 1, 3, 2, 4)
    scal_part = jet_einsum(space, "ijkl,->ijkl", gg_asym, pack.scalar.coeffs)
    w = (
        pack.riemann.data
        - ric_part / (n - 2)
        + scal_part / ((n - 1) * (n - 2))
    )
    weyl_t = TensorJet(space, "dddd", w)

    kn = _kulkarni_nomizu(space, g, pack.schouten.data)
    weyl_alt = TensorJet(space, "dddd", pack.riemann.data - kn / (n - 2))
    _require_agreement(weyl_t, weyl_alt, _CROSS_CHECK_ALGEBRAIC, "weyl")
    return weyl_t


def cotton(pack):
    """Antisymmetrised derivative of the trace-adjusted Ricci tensor.

    Both the Ricci/scalar form and the derivative-of-Schouten form are
    evaluated and compared.
    """
    n = pack.dim
    if n < 3:
        raise UnsupportedDimensionError("cotton tensor needs dimension >= 3")
    dric = covariant_derivative(pack.ricci, pack)
    space = dric.space
    t = jet_einsum(space, "jk,i->ijk", pack.metric.g.data, pack.dscalar.data)
    c = (
        dric.data
        - dric.data.swapaxes(0, 1)
        - (t - t.swapaxes(0, 1)) / (2.0 * (n - 1))
    )
    cotton_t = TensorJet(space, "ddd", c)

    da = covariant_derivative(pack.schouten, pack)
    cotton_alt = TensorJet(space, "ddd", da.data - da.data.swapaxes(0, 1))
    _require_agreement(cotton_t, cotton_alt, _CROSS_CHECK_ALGEBRAIC, "cotton")
    return cotton_t


def _ricci_weyl_contraction(pack, weyl_t, order):
    """R^{kl}-contraction against the mixed conformal curvature W_i^k_j^l.

    W is truncated to `order` (the Bach tensor's) before its two slots are
    raised, so no coefficient above it is formed; Ric is read at that order.
    """
    metric = pack.metric
    w = raise_lower(raise_lower(weyl_t.truncated(order), 1, metric), 3, metric)
    return jet_einsum(w.space, "kl,ikjl->ij", pack.ricci.data, w.data)


def bach(pack, cotton_t, weyl_t, div_weyl):
    """Bach tensor from the Cotton divergence, cross-checked against the
    double-divergence-of-Weyl definition; `div_weyl` is
    ``divergence(weyl_t, pack, 3)``, the first divergence of that path."""
    n = pack.dim
    if n < 4:
        raise UnsupportedDimensionError("bach tensor needs dimension >= 4")
    div_c = divergence(cotton_t, pack, 0)
    space = div_c.space
    rw = _ricci_weyl_contraction(pack, weyl_t, space.order)
    b1 = TensorJet(space, "dd", (div_c.data + rw) / (n - 2))

    div2 = divergence(div_weyl, pack, 1)
    b2 = TensorJet(div2.space, "dd", div2.data / (n - 3) + rw / (n - 2))
    _require_agreement(b1, b2, _CROSS_CHECK_DIFFERENTIAL, "bach")
    return b1


def d_tensor(pack, df, cross_check=False):
    """Soliton 3-tensor coupling trace-adjusted curvature to the potential.

    `df` is the gradient one-form of the potential, read at D's order.
    Primary path uses the Schouten and Einstein tensors.  The alternative
    path written in terms of Ricci, scalar curvature and their gradients
    (dR from the pack) agrees with it only when the instance satisfies the
    soliton equations, so that comparison is opt-in.  D carries one order
    less than the Schouten tensor (never less than 0): the order the two
    paths are compared at, and all its readers need (its values and eq
    4.1's nabla D).
    """
    n = pack.dim
    if n < 3:
        raise UnsupportedDimensionError("d tensor needs dimension >= 3")
    g, a = pack.metric.g.data, pack.schouten
    space, _ = truncate_arrays(a.space, a.data, max(a.order - 1, 0))
    e = einstein_tensor(pack, space.order).data
    gradf_up = jet_einsum(space, "ij,j->i", pack.metric.g_inv.data, df.data)

    t1 = jet_einsum(space, "jk,i->ijk", a.data, df.data)
    v = jet_einsum(space, "il,l->i", e, gradf_up)
    t2 = jet_einsum(space, "jk,i->ijk", g, v)
    d = (t1 - t1.swapaxes(0, 1)) / (n - 2) + (t2 - t2.swapaxes(0, 1)) / (
        (n - 1) * (n - 2)
    )
    d_t = TensorJet(space, "ddd", d)

    if cross_check:
        dscal = pack.dscalar
        s2 = dscal.space
        u1 = jet_einsum(s2, "jk,i->ijk", pack.ricci.data, df.data)
        u2 = jet_einsum(s2, "jk,i->ijk", g, dscal.data)
        u3 = jet_einsum(s2, "jk,i->ijk", g, df.data)
        u3 = jet_einsum(s2, "ijk,->ijk", u3, pack.scalar.coeffs)
        d2 = (
            (u1 - u1.swapaxes(0, 1)) / (n - 2)
            + (u2 - u2.swapaxes(0, 1)) / (2.0 * (n - 1) * (n - 2))
            - (u3 - u3.swapaxes(0, 1)) / ((n - 1) * (n - 2))
        )
        _require_agreement(
            d_t, TensorJet(s2, "ddd", d2), _CROSS_CHECK_ALGEBRAIC, "d_tensor"
        )
    return d_t


# ---------------------------------------------------------------------------
# identity residuals (two sides evaluated independently, compared at values)

def _compare(lhs, rhs):
    """Worst component of lhs - rhs and the magnitude of the larger side."""
    return float(np.abs(lhs - rhs).max()), max(float(np.abs(lhs).max()), float(np.abs(rhs).max()))


def cotton_weyl_divergence_residual(ev):
    """C_ijk + ((n-2)/(n-3)) div W residual at one point evaluation."""
    n = ev.inst.n
    if n < 4:
        raise UnsupportedDimensionError("the divergence relation needs dimension >= 4")
    lhs = ev.cotton.values
    rhs = -((n - 2.0) / (n - 3.0)) * ev.div_weyl.values
    return *_compare(lhs, rhs), {"cotton_max": float(np.abs(lhs).max())}


def d_decomposition_residual(ev):
    """Worst component of D_ijk - C_ijk - W_ijkl grad^l f at the point."""
    w_term = np.einsum("ijkl,l->ijk", ev.weyl.values, ev.gradf_up_values)
    return _compare(ev.dtensor.values, ev.cotton.values + w_term)


def d_cotton_contraction_residual(ev):
    """Contracting the last slot with grad f must erase the D/C difference.

    Their difference is a conformal-curvature term antisymmetric in the
    contracted pair, so (D_ijk - C_ijk) grad^k f vanishes on a soliton
    even where D itself does not.
    """
    lhs = np.einsum("ijk,k->ij", ev.dtensor.values, ev.gradf_up_values)
    rhs = np.einsum("ijk,k->ij", ev.cotton.values, ev.gradf_up_values)
    resid, scale = _compare(lhs, rhs)
    return resid, max(scale, ev.dtensor.max_abs(), ev.cotton.max_abs())


def bach_via_d_residual(ev):
    """Residual of the Bach expression through D and C on a soliton.

    B_ij + (nabla_k D_ikj + ((n-3)/(n-2)) C_jli grad^l f) / (n-2), evaluated
    with the printed index order; the Bach and div D magnitudes are reported.
    """
    n = ev.inst.n
    div_d = divergence(ev.dtensor.truncated(1), ev.pack, 1).values
    c_term = np.einsum("jli,l->ij", ev.cotton.values, ev.gradf_up_values)
    lhs = ev.bach.values
    rhs = -(div_d + ((n - 3.0) / (n - 2.0)) * c_term) / (n - 2.0)
    return *_compare(lhs, rhs), {
        "bach_max": float(np.abs(lhs).max()),
        "d_divergence_max": float(np.abs(div_d).max()),
    }


def div_bach_residual(ev):
    """Two-sided check of the divergence of the Bach tensor.

    div B_i = ((n-4)/(n-2)^2) C_ijk R^{jk}; requires one jet order left on
    the Bach tensor, i.e. a full order-5 evaluation of the metric.  The
    scale includes |B|, so a vanishing divergence is judged against it.
    """
    n = ev.inst.n
    metric = ev.metric
    lhs = ev.div_bach  # raises InsufficientOrderError below order 5
    ric_up = raise_lower(raise_lower(ev.pack.ricci, 0, metric), 1, metric)
    rhs = ((n - 4.0) / (n - 2.0) ** 2) * np.einsum(
        "ijk,jk->i", ev.cotton.values, ric_up.values
    )
    resid, scale = _compare(lhs, rhs)
    bach_max = ev.bach.max_abs()
    return resid, max(scale, bach_max), {
        "lhs_max": float(np.abs(lhs).max()),
        "rhs_max": float(np.abs(rhs).max()),
        "bach_max": bach_max,
    }
