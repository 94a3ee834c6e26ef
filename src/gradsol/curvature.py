"""Connection and curvature of a metric at the points of a block.

The convention is fixed so that the round sphere has positive sectional
curvature in the form R_ijkl = c (g_ik g_jl - g_il g_jk) with c = 1/r^2,
and the Ricci tensor is the trace R_ij = g^{kl} R_kilj.  Riemann comes from
second derivatives of g through the Christoffel symbols of the first kind,
Γ_{l,ij} = ½(∂_i g_jl + ∂_j g_il - ∂_l g_ij), which need no product:
R_mkij = ∂_iΓ_{m,jk} - ∂_jΓ_{m,ik} - Γ_{l,im}Γ^l_jk + Γ_{l,jm}Γ^l_ik, i.e.
R^l_kij lowered by g_ml.  Γ^k_ij = g^{kl}Γ_{l,ij} and the curvature are
carried two orders below g, at g^{-1}'s order; every covariant derivative
reads that Γ.

A divergence never forms the whole covariant derivative.  It reads Γ through
K[c, s, i] = g^{cm} Γ^s_{mi} and its trace γ^s = K[c, s, c]:

    div t_{rest} = g^{cm} ∂_m t_{..c..} − Σ_{r≠slot} K[c, s, i_r] t_{..s..c..} − γ^s t_{..s..}

K is built once per pack at each order a divergence asks for (one below the
order of the tensor it differentiates), not at Γ's full order.

A pack carries its metric's point axis (see ``tensors``): `curvature_pack`
evaluates every row with its own point's bits.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InsufficientOrderError, TensorShapeError, UnsupportedDimensionError
from .jets import JetScalar, JetSpace, gradient_arrays, jet_einsum
from .tensors import MetricAtPoint, TensorJet

_L = "abcdefgh"


@dataclass(frozen=True)
class CurvaturePack:
    """Metric, connection and curvature jets at the points of a block.

    gamma is (1,2) with the contravariant slot first; riemann is fully
    covariant R_ijkl; ricci is R_ij; scalar is g^{ij} R_ij.
    Two fields are built on first use and kept: `schouten`, which three
    conformal tensors read, and `dscalar`, the gradient dR that five
    identities read; and `raised_gamma(order)` keeps one K per order that a
    divergence reads.
    """

    metric: MetricAtPoint
    gamma: TensorJet
    riemann: TensorJet
    ricci: TensorJet
    scalar: JetScalar
    _raised: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def raised_gamma(self, order):
        """K[c, s, i] = g^{cm} Γ^s_{mi} at `order` (at most Γ's), built once per order."""
        k = self._raised.get(order)
        if k is None:
            space = JetSpace.get(self.dim, order)
            k = jet_einsum(space, "cm,smi->csi", self.metric.g_inv.data, self.gamma.data)
            self._raised[order] = k
        return k


def _connection(metric):
    """Γ_{l,ij} ([l, i, j]) one order below g; Γ^k_ij = g^{kl}Γ_{l,ij} at g^{-1}'s order."""
    dg = gradient_arrays(metric.space, metric.g.data)  # dg[:, i, j, l] = d_i g_jl
    first = 0.5 * (dg.transpose(0, 3, 1, 2, 4) + dg.swapaxes(1, 3) - dg)
    space = metric.g_inv.space
    gamma = jet_einsum(space, "kl,lij->kij", metric.g_inv.data, first)
    return first, TensorJet(space, "udd", gamma)


def curvature_pack(metric):
    """Christoffel, Riemann, Ricci and scalar curvature in one pass."""
    first, gamma = _connection(metric)
    r2, ginv = gamma.space, metric.g_inv.data
    # R_mkij = d_i Γ_{m,jk} - d_j Γ_{m,ik} - Γ_{l,im} Γ^l_jk + Γ_{l,jm} Γ^l_ik
    t1 = gradient_arrays(metric.space.lower(), first)
    t1 = t1.transpose(0, 2, 4, 1, 3, 5)
    q = jet_einsum(r2, "lim,ljk->mkij", first, gamma.data)
    riem = t1 - t1.swapaxes(3, 4) - q + q.swapaxes(3, 4)
    ricci = jet_einsum(r2, "mi,mkij->kj", ginv, riem)
    scal = jet_einsum(r2, "ij,ij->", ginv, ricci)

    return CurvaturePack(
        metric=metric,
        gamma=gamma,
        riemann=TensorJet(r2, "dddd", riem),
        ricci=TensorJet(r2, "dd", ricci),
        scalar=JetScalar(r2, scal),
    )


def _lowered_space(t, pack, what):
    """Space of the derivative of a fully covariant t: one order down, at most Γ's."""
    if any(v != "d" for v in t.valence):
        raise TensorShapeError(f"{what} expects a fully covariant tensor")
    out_space = t.space.lower()
    if out_space.order > pack.gamma.order:
        raise InsufficientOrderError(
            f"the connection is carried to order {pack.gamma.order}; truncate the "
            f"order-{t.order} tensor to order {pack.gamma.order + 1} first"
        )
    return out_space


def covariant_derivative(t, pack):
    """Covariant derivative of a fully covariant tensor; new slot first.

    nabla_m t_{i...} = d_m t_{i...} - sum_r Gamma^s_{m i_r} t_{...s...};
    the output carries one order less than the input, which is at most
    one above the connection's order.
    """
    out_space = _lowered_space(t, pack, "covariant_derivative")
    parts = gradient_arrays(t.space, t.data)
    letters = _L[: t.rank]
    for r in range(t.rank):
        tsub = letters[: r] + "s" + letters[r + 1 :]
        subs = f"sm{letters[r]},{tsub}->m{letters}"
        parts = parts - jet_einsum(out_space, subs, pack.gamma.data, t.data)
    return TensorJet(out_space, "d" * (t.rank + 1), parts)


def divergence(t, pack, slot):
    """Divergence g^{cm} nabla_m t_{..c..} of a fully covariant tensor in slot c.

    Fused, without forming nabla t (module docstring): g^{cm} d_m t_{..c..},
    less K[c, s, i_r] t_{..s..c..} for every other slot r and γ^s t_{..s..}
    for the slot itself.  K = pack.raised_gamma at the output's order, one
    below t's, so the same bound on t's order holds as for
    covariant_derivative.  The other slots keep their order.
    """
    out_space = _lowered_space(t, pack, "divergence")
    k = pack.raised_gamma(out_space.order)
    letters = _L[: t.rank]
    c = letters[slot]
    rest = letters.replace(c, "")
    dt = gradient_arrays(t.space, t.data)
    out = jet_einsum(out_space, f"{c}m,m{letters}->{rest}", pack.metric.g_inv.data, dt)
    for r, i in enumerate(letters):
        if r != slot:
            tsub = letters[:r] + "s" + letters[r + 1 :]
            out = out - jet_einsum(out_space, f"{c}s{i},{tsub}->{rest}", k, t.data)
    tsub = letters[:slot] + "s" + letters[slot + 1 :]
    trace = np.trace(k, axis1=1, axis2=3)  # γ^s
    out = out - jet_einsum(out_space, f"s,{tsub}->{rest}", trace, t.data)
    return TensorJet(out_space, "d" * len(rest), out)


def scalar_gradient(s):
    """Gradient one-form of a scalar jet."""
    data = gradient_arrays(s.space, s.coeffs)
    return TensorJet(s.space.lower(), "d", data)
