"""Connection and curvature of a metric at a point.

The convention is fixed so that the round sphere has positive sectional
curvature in the form R_ijkl = c (g_ik g_jl - g_il g_jk) with c = 1/r^2,
and the Ricci tensor is the trace R_ij = g^{kl} R_kilj.  Riemann comes from
second derivatives of g through the Christoffel symbols of the first kind,
Γ_{l,ij} = ½(∂_i g_jl + ∂_j g_il - ∂_l g_ij), which need no product:
R_mkij = ∂_iΓ_{m,jk} - ∂_jΓ_{m,ik} - Γ_{l,im}Γ^l_jk + Γ_{l,jm}Γ^l_ik, i.e.
R^l_kij lowered by g_ml.  Γ^k_ij = g^{kl}Γ_{l,ij} and the curvature are
carried two orders below g, at g^{-1}'s order; every covariant derivative
and divergence reads that Γ.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import InsufficientOrderError, TensorShapeError, UnsupportedDimensionError
from .jets import JetScalar, gradient_arrays, jet_einsum
from .tensors import MetricAtPoint, TensorJet

_L = "abcdefgh"


@dataclass(frozen=True)
class CurvaturePack:
    """Metric, connection and curvature jets at one point.

    gamma is (1,2) with the contravariant slot first; riemann is fully
    covariant R_ijkl; ricci is R_ij; scalar is g^{ij} R_ij.  Two fields are
    built on first use and kept: `schouten`, which three conformal tensors
    read, and `dscalar`, the gradient dR that five identities read.
    """

    metric: MetricAtPoint
    gamma: TensorJet
    riemann: TensorJet
    ricci: TensorJet
    scalar: JetScalar

    @property
    def dim(self):
        return self.metric.dim

    @cached_property
    def schouten(self):
        """Trace-adjusted Ricci tensor A_ij = R_ij - R g_ij / (2(n-1)), built once."""
        n = self.dim
        if n < 3:
            raise UnsupportedDimensionError("schouten tensor needs dimension >= 3")
        space = self.ricci.space
        rg = jet_einsum(space, "ij,->ij", self.metric.g.data, self.scalar.coeffs)
        return TensorJet(space, "dd", self.ricci.data - rg / (2.0 * (n - 1)))

    @cached_property
    def dscalar(self):
        """Gradient one-form dR of the scalar curvature, built once."""
        return scalar_gradient(self.scalar)


def _connection(metric):
    """Γ_{l,ij} ([l, i, j]) one order below g; Γ^k_ij = g^{kl}Γ_{l,ij} at g^{-1}'s order."""
    dg = gradient_arrays(metric.space, metric.g.data)  # dg[i, j, l] = d_i g_jl
    first = 0.5 * (dg.transpose(2, 0, 1, 3) + dg.transpose(2, 1, 0, 3) - dg)
    space = metric.g_inv.space
    gamma = jet_einsum(space, "kl,lij->kij", metric.g_inv.data, first)
    return first, TensorJet(space, "udd", gamma)


def curvature_pack(metric):
    """Christoffel, Riemann, Ricci and scalar curvature in one pass."""
    first, gamma = _connection(metric)
    r2, ginv = gamma.space, metric.g_inv.data
    # R_mkij = d_i Γ_{m,jk} - d_j Γ_{m,ik} - Γ_{l,im} Γ^l_jk + Γ_{l,jm} Γ^l_ik
    t1 = gradient_arrays(metric.space.lower(), first).transpose(1, 3, 0, 2, 4)
    q = jet_einsum(r2, "lim,ljk->mkij", first, gamma.data)
    riem = t1 - t1.swapaxes(2, 3) - q + q.swapaxes(2, 3)
    ricci = jet_einsum(r2, "mi,mkij->kj", ginv, riem)
    scal = jet_einsum(r2, "ij,ij->", ginv, ricci)

    return CurvaturePack(
        metric=metric,
        gamma=gamma,
        riemann=TensorJet(r2, "dddd", riem),
        ricci=TensorJet(r2, "dd", ricci),
        scalar=JetScalar(r2, scal),
    )


def covariant_derivative(t, pack):
    """Covariant derivative of a fully covariant tensor; new slot first.

    nabla_m t_{i...} = d_m t_{i...} - sum_r Gamma^s_{m i_r} t_{...s...};
    the output carries one order less than the input, which is at most
    one above the connection's order.
    """
    if any(v != "d" for v in t.valence):
        raise TensorShapeError("covariant_derivative expects a fully covariant tensor")
    out_space = t.space.lower()
    if out_space.order > pack.gamma.order:
        raise InsufficientOrderError(
            f"the connection is carried to order {pack.gamma.order}; truncate the "
            f"order-{t.order} tensor to order {pack.gamma.order + 1} first"
        )
    parts = gradient_arrays(t.space, t.data)
    letters = _L[: t.rank]
    for r in range(t.rank):
        tsub = letters[: r] + "s" + letters[r + 1 :]
        subs = f"sm{letters[r]},{tsub}->m{letters}"
        parts = parts - jet_einsum(out_space, subs, pack.gamma.data, t.data)
    return TensorJet(out_space, "d" * (t.rank + 1), parts)


def divergence(t, pack, slot):
    """Divergence g^{cm} nabla_m t_{..c..} of a fully covariant tensor in slot c.

    The other slots keep their order; the output is one order below t.
    """
    dt = covariant_derivative(t, pack)
    letters = _L[: t.rank]
    c = letters[slot]
    rest = letters.replace(c, "")
    out = jet_einsum(dt.space, f"{c}m,m{letters}->{rest}", pack.metric.g_inv.data, dt.data)
    return TensorJet(dt.space, "d" * len(rest), out)


def scalar_gradient(s):
    """Gradient one-form of a scalar jet."""
    data = gradient_arrays(s.space, s.coeffs)
    return TensorJet(s.space.lower(), "d", data)
