"""Connection and curvature of a metric at a point.

The convention is fixed so that the round sphere has positive sectional
curvature in the form R_ijkl = c (g_ik g_jl - g_il g_jk) with c = 1/r^2,
and the Ricci tensor is the trace R_ij = g^{kl} R_kilj.  Connection
coefficients are evaluated *in jet arithmetic*, so their own derivatives
(needed for Riemann and for covariant derivatives of derived tensors) come
from the same code path at every order; so does every divergence.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TensorShapeError, UnsupportedDimensionError
from .jets import JetScalar, gradient_arrays, jet_einsum, truncate_arrays
from .tensors import MetricAtPoint, TensorJet

_L = "abcdefgh"


@dataclass(frozen=True)
class CurvaturePack:
    """Metric, connection and curvature jets at one point.

    gamma is (1,2) with the contravariant slot first; riemann is fully
    covariant R_ijkl; ricci is R_ij; scalar is g^{ij} R_ij.  The Schouten
    tensor, which three conformal tensors read, is built on first use and kept.
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
        _, g = truncate_arrays(self.metric.space, self.metric.g.data, space.order)
        rg = jet_einsum(space, "ij,->ij", g, self.scalar.coeffs)
        return TensorJet(space, "dd", self.ricci.data - rg / (2.0 * (n - 1)))


def christoffel(metric):
    """Levi-Civita connection coefficients as a (1,2) TensorJet."""
    space = metric.space
    # dg[i, j, l] = d_i g_jl, one order below the metric
    dg = gradient_arrays(space, metric.g.data)
    lower = space.lower()
    sym = dg.transpose(2, 0, 1, 3) + dg.transpose(2, 1, 0, 3) - dg
    _, ginv = truncate_arrays(metric.g_inv.space, metric.g_inv.data, lower.order)
    gamma = 0.5 * jet_einsum(lower, "kl,lij->kij", ginv, sym)
    return TensorJet(lower, "udd", gamma)


def curvature_pack(metric):
    """Christoffel, Riemann, Ricci and scalar curvature in one pass."""
    gamma = christoffel(metric)
    gspace = gamma.space
    r2 = gspace.lower()

    # dG[m, l, i, j] = d_m Gamma^l_ij
    dG = gradient_arrays(gspace, gamma.data)
    # Rmix[l, k, i, j] = R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_is G^s_jk - G^l_js G^s_ik
    t1 = dG.transpose(1, 3, 0, 2, 4)
    _, gtr = truncate_arrays(gspace, gamma.data, r2.order)
    q = jet_einsum(r2, "lis,sjk->lkij", gtr, gtr)
    rmix = t1 - t1.swapaxes(2, 3) + q - q.swapaxes(2, 3)

    ricci = np.trace(rmix, axis1=0, axis2=2)
    _, g_low = truncate_arrays(metric.space, metric.g.data, r2.order)
    _, ginv_low = truncate_arrays(metric.g_inv.space, metric.g_inv.data, r2.order)
    riem = jet_einsum(r2, "ml,lkij->mkij", g_low, rmix)
    scal = jet_einsum(r2, "ij,ij->", ginv_low, ricci)

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
    the output carries one order less than the input.
    """
    if any(v != "d" for v in t.valence):
        raise TensorShapeError("covariant_derivative expects a fully covariant tensor")
    out_space = t.space.lower()
    parts = gradient_arrays(t.space, t.data)
    _, gtr = truncate_arrays(pack.gamma.space, pack.gamma.data, out_space.order)
    _, ttr = truncate_arrays(t.space, t.data, out_space.order)
    letters = _L[: t.rank]
    for r in range(t.rank):
        tsub = letters[: r] + "s" + letters[r + 1 :]
        subs = f"sm{letters[r]},{tsub}->m{letters}"
        parts = parts - jet_einsum(out_space, subs, gtr, ttr)
    return TensorJet(out_space, "d" * (t.rank + 1), parts)


def divergence(t, pack, slot):
    """Divergence g^{cm} nabla_m t_{..c..} of a fully covariant tensor in slot c.

    The other slots keep their order; the output is one order below t.
    """
    dt = covariant_derivative(t, pack)
    _, ginv = truncate_arrays(pack.metric.g_inv.space, pack.metric.g_inv.data, dt.order)
    letters = _L[: t.rank]
    c = letters[slot]
    rest = letters.replace(c, "")
    out = jet_einsum(dt.space, f"{c}m,m{letters}->{rest}", ginv, dt.data)
    return TensorJet(dt.space, "d" * len(rest), out)


def scalar_gradient(s):
    """Gradient one-form of a scalar jet."""
    data = gradient_arrays(s.space, s.coeffs)
    return TensorJet(s.space.lower(), "d", data)


def hessian(f_jet, pack):
    """Second covariant derivative of a scalar: d_i d_j f - Gamma^k_ij d_k f."""
    df = scalar_gradient(f_jet)
    return covariant_derivative(df, pack)
