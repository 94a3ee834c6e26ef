"""Dense tensor algebra over jet-valued components.

A TensorJet packs the jets of all n^rank components into one ndarray with
the jet coefficients on the trailing axis, so contractions and products
run as vectorised kernels instead of per-component Python loops.
A :class:`MetricAtPoint` carries g^{-1} two orders below g, the
order of the curvature and the most any reader takes; ``jet_einsum`` reads
g and g^{-1} at the order of each product, so readers pass them whole.
"""

import string

import numpy as np

from .errors import (
    ConfigurationError,
    ConsistencyError,
    DomainError,
    InsufficientOrderError,
    TensorShapeError,
)
from .jets import JetScalar, JetSpace, coordinate_jets, jet_einsum, truncate_arrays

_LETTERS = string.ascii_lowercase


class TensorJet:
    """Dense tensor with jet-valued components.

    `valence` is a string over {'d', 'u'} marking each slot covariant or
    contravariant.  `data` has shape (dim,)*rank + (n_terms,).
    """

    __slots__ = ("space", "valence", "data")

    def __init__(self, space, valence, data):
        data = np.asarray(data, dtype=np.float64)
        rank = len(valence)
        if any(v not in "du" for v in valence):
            raise TensorShapeError(f"valence must use 'd'/'u', got {valence!r}")
        expected = (space.dim,) * rank + (space.n_terms,)
        if data.shape != expected:
            raise TensorShapeError(f"expected shape {expected}, got {data.shape}")
        self.space = space
        self.valence = valence
        self.data = data

    @property
    def dim(self):
        return self.space.dim

    @property
    def order(self):
        return self.space.order

    @property
    def rank(self):
        return len(self.valence)

    @property
    def values(self):
        """Constant terms: the component values at the base point."""
        return self.data[..., 0]

    def truncated(self, order):
        lower, data = truncate_arrays(self.space, self.data, order)
        return TensorJet(lower, self.valence, data.copy())

    def max_abs(self, all_coeffs=False):
        if all_coeffs:
            return float(np.abs(self.data).max())
        return float(np.abs(self.values).max())

    def __repr__(self):
        return (
            f"TensorJet(dim={self.dim}, order={self.order}, valence={self.valence!r})"
        )


def raise_lower(t, slot, metric):
    """Flip the variance of one slot by contracting with g or its inverse."""
    if not (0 <= slot < t.rank):
        raise TensorShapeError(f"slot {slot} out of range for rank {t.rank}")
    g = metric.g_inv if t.valence[slot] == "d" else metric.g
    if t.order > g.order:
        name = "g^-1" if g is metric.g_inv else "g"
        raise InsufficientOrderError(
            f"{name} is carried to order {g.order}; truncate the order-{t.order} "
            f"tensor to order {g.order} first"
        )
    letters = _LETTERS[: t.rank]
    old = letters[slot]
    new = _LETTERS[t.rank]
    subs = f"{new}{old},{letters}->{letters.replace(old, new)}"
    out = jet_einsum(t.space, subs, g.data, t.data)
    valence = t.valence[:slot] + ("u" if t.valence[slot] == "d" else "d") + t.valence[slot + 1:]
    return TensorJet(t.space, valence, out)


def tensor_norm_sq(t, metric):
    """Full metric contraction |T|^2 of a covariant tensor; constant term."""
    if any(v != "d" for v in t.valence):
        raise TensorShapeError("tensor_norm_sq expects a fully covariant tensor")
    # only the constant term is read, so contract values alone
    t = t.truncated(0)
    up = t
    for slot in range(t.rank):
        up = raise_lower(up, slot, metric)
    letters = _LETTERS[: t.rank]
    s = jet_einsum(t.space, f"{letters},{letters}->", t.data, up.data)
    return float(s[0])


class MetricAtPoint:
    """Metric jets at one chart point, and g^{-1} two orders below, the curvature's order."""

    __slots__ = ("space", "point", "g", "g_inv")

    def __init__(self, space, point, g, g_inv):
        self.space = space
        self.point = np.asarray(point, dtype=np.float64)
        self.g = g
        self.g_inv = g_inv

    @property
    def dim(self):
        return self.space.dim

    @property
    def order(self):
        return self.space.order

    def __repr__(self):
        return f"MetricAtPoint(dim={self.dim}, order={self.order}, point={self.point})"


def _invert_metric_jets(space, gdata):
    """Taylor coefficients of g^{-1}, solved degree by degree.

    (G X)_d = 0 for d >= 1 gives X_d = -G_0^{-1} (G_+ X)_d, G_+ being G
    without its constant term; while X's degree-d block is still zero,
    (G X)_d is (G_+ X)_d, so each degree costs one product at its order.
    """
    n = space.dim
    x = np.zeros((n, n, space.n_terms))
    x[..., 0] = x0 = np.linalg.inv(gdata[..., 0])
    for d in range(1, space.order + 1):
        step = JetSpace.get(n, d)
        r = jet_einsum(step, "ij,jk->ik", gdata, x)
        lo = step.block_starts[d]
        x[..., lo : step.n_terms] = -np.tensordot(x0, r[..., lo:], axes=(1, 0))
    return x


def metric_at_point(metric_fn, point, dim, order):
    """Evaluate a metric closure at a point and package it with its inverse.

    `metric_fn` maps a list of coordinate jets to an n-by-n grid whose
    entries are jets or plain numbers.  Symmetry is enforced from the upper
    triangle; the result is checked for positive definiteness and for
    g * g_inv = identity at jet-coefficient level.
    """
    space = JetSpace.get(dim, order)
    xs = coordinate_jets(space, point)
    rows = metric_fn(xs)
    gdata = np.zeros((dim, dim, space.n_terms))
    for i in range(dim):
        for j in range(i, dim):
            entry = rows[i][j]
            if isinstance(entry, JetScalar):
                if entry.space is not space:
                    raise ConfigurationError("metric components must share the chart space")
                gdata[i, j] = entry.coeffs
            else:
                gdata[i, j, 0] = float(entry)
            gdata[j, i] = gdata[i, j]

    g0 = gdata[..., 0]
    if np.linalg.eigvalsh(g0).min() <= 0.0:
        raise DomainError(f"metric is not positive definite at {list(point)}")

    inv_space, g_low = truncate_arrays(space, gdata, max(order - 2, 0))
    inv = _invert_metric_jets(inv_space, g_low)
    resid = jet_einsum(inv_space, "ij,jk->ik", g_low, inv)
    resid[np.arange(dim), np.arange(dim), 0] -= 1.0
    # `not <=`, unlike `>`, holds for NaN: a non-finite inverse fails the check
    if not (np.abs(resid[..., 0]).max() <= 1e-12 and np.abs(resid).max() <= 1e-10):
        raise ConsistencyError("metric inverse failed the g*g_inv = id check")

    g = TensorJet(space, "dd", gdata)
    g_inv = TensorJet(inv_space, "uu", inv)
    return MetricAtPoint(space, point, g, g_inv)
