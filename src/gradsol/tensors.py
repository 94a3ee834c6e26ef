"""Dense tensor algebra over jet-valued components.

A TensorJet packs the jets of all n^rank components into one ndarray with
the jet coefficients on the trailing axis, so contractions and products
run as vectorised kernels instead of per-component Python loops.
A :class:`MetricAtPoint` carries g^{-1} two orders below g, the
order of the curvature and the most any reader takes; ``jet_einsum`` reads
g and g^{-1} at the order of each product, so readers pass them whole.

Every tensor carries a point axis, its first and outermost axis: data of
shape (P,) + (dim,)*rank + (n_terms,) holds one tensor per row of a block
of points, one point being a block of one row, each row computed with the
bits its own point gives.  :func:`metric_at_points` evaluates a metric on a
block (:func:`metric_at_point` on the block of one point); the positivity
and g * g_inv checks are judged row by row, and a failing block raises the
error of its first failing row.  Readers take a block's rows where they
lie: each row of `TensorJet.values` lies as its point's own values do, so
one stacked matmul or einsum over them gives each row its point's bits,
and `row_abs_max`, `row_max` and `row_dot` are the per-point float
operations taken row by row.
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
    contravariant.  `data` has shape (P,) + (dim,)*rank + (n_terms,): one
    tensor per row of the point axis.
    """

    __slots__ = ("space", "valence", "data")

    def __init__(self, space, valence, data):
        data = np.asarray(data, dtype=np.float64)
        rank = len(valence)
        if valence.strip("du"):
            raise TensorShapeError(f"valence must use 'd'/'u', got {valence!r}")
        expected = (space.dim,) * rank + (space.n_terms,)
        if data.ndim != rank + 2 or data.shape[1:] != expected:
            raise TensorShapeError(f"expected shape (P,) + {expected} "
                                   f"with a point axis of P rows, got {data.shape}")
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
        """Constant terms: the component values at each row's point, the point
        axis first; an operand of a stacked matmul or einsum."""
        return self.data[..., 0]

    def truncated(self, order):
        lower, data = truncate_arrays(self.space, self.data, order)
        return TensorJet(lower, self.valence, data.copy())

    def max_abs(self, all_coeffs=False):
        """max |value| (of every coefficient with `all_coeffs`) of each row."""
        return row_abs_max(self.data if all_coeffs else self.values)

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
    """Full metric contraction |T|^2 of a covariant tensor; constant term,
    an array of one value per row."""
    if any(v != "d" for v in t.valence):
        raise TensorShapeError("tensor_norm_sq expects a fully covariant tensor")
    # only the constant term is read, so contract values alone
    t = t.truncated(0)
    up = t
    for slot in range(t.rank):
        up = raise_lower(up, slot, metric)
    letters = _LETTERS[: t.rank]
    return jet_einsum(t.space, f"{letters},{letters}->", t.data, up.data)[..., 0]


class MetricAtPoint:
    """Metric jets at the chart points of a block, and g^{-1} two orders
    below, the curvature's order; `point` holds one row per point."""

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
    The point axis leads: one stacked inverse of the rows' G_0 and one
    stacked matmul per degree.
    """
    x = np.zeros(gdata.shape[:-1] + (space.n_terms,))
    x0 = x[..., 0] = np.linalg.inv(gdata[..., 0])
    for d in range(1, space.order + 1):
        step = JetSpace.get(space.dim, d)
        lo = step.block_starts[d]
        r = jet_einsum(step, "ij,jk->ik", gdata, x)[..., lo:]  # (j, k, terms) per row
        xd = np.matmul(x0, r.reshape(r.shape[:-2] + (-1,))).reshape(r.shape)
        x[..., lo : step.n_terms] = -xd
    return x


def metric_at_point(metric_fn, point, dim, order):
    """`metric_at_points` at one point: a block of one row."""
    return metric_at_points(metric_fn, [point], dim, order)


def metric_at_points(metric_fn, points, dim, order):
    """Evaluate a metric closure at a list of points and package it with its inverse.

    `metric_fn` maps a list of coordinate jets, each with a point axis, to
    an n-by-n grid whose entries are jets or plain numbers.  Symmetry is
    enforced from the upper triangle.  Each row holds the bits of its own
    point's evaluation.  Positivity is judged for every row, then
    g * g_inv = identity at jet-coefficient level; a failing block raises
    the error of its first failing row, with that point's message.
    """
    if np.ndim(points) != 2:
        raise TensorShapeError(f"expected a list of points, got shape {np.shape(points)}")
    space = JetSpace.get(dim, order)
    xs = coordinate_jets(space, points)
    rows = metric_fn(xs)
    gdata = np.zeros((len(points), dim, dim, space.n_terms))
    for i in range(dim):
        for j in range(i, dim):
            entry = rows[i][j]
            if isinstance(entry, JetScalar):
                if entry.space is not space:
                    raise ConfigurationError("metric components must share the chart space")
                gdata[:, i, j] = entry.coeffs
            else:
                gdata[:, i, j, 0] = float(entry)
            gdata[:, j, i] = gdata[:, i, j]

    for p, low in enumerate(np.linalg.eigvalsh(gdata[..., 0]).min(axis=-1)):
        if low <= 0.0:
            raise DomainError(f"metric is not positive definite at {list(points[p])}")

    inv_space, g_low = truncate_arrays(space, gdata, max(order - 2, 0))
    inv = _invert_metric_jets(inv_space, g_low)
    resid = jet_einsum(inv_space, "ij,jk->ik", g_low, inv)
    resid[:, np.arange(dim), np.arange(dim), 0] -= 1.0
    # `not <=`, unlike `>`, holds for NaN: a non-finite inverse fails the check
    for r0, r in zip(row_abs_max(resid[..., :1]).tolist(), row_abs_max(resid).tolist()):
        if not (r0 <= 1e-12 and r <= 1e-10):
            raise ConsistencyError("metric inverse failed the g*g_inv = id check")

    g = TensorJet(space, "dd", gdata)
    g_inv = TensorJet(inv_space, "uu", inv)
    return MetricAtPoint(space, points, g, g_inv)


def row_abs_max(x):
    """max |x| of each row: over every axis but the leading point axis."""
    return np.abs(x).max(axis=tuple(range(1, np.ndim(x))))


def row_max(first, *rest):
    """Python's max of floats, taken row by row: a later value replaces the
    kept one only where it is greater, so a NaN is kept only if it comes first."""
    for x in rest:
        first = np.where(x > first, x, first)
    return first


def row_dot(a, b):
    """The dot product of each row's pair of vectors: one stacked matmul,
    which takes the dot product of a point's vectors row by row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
