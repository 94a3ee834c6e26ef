"""Truncated multivariate Taylor arithmetic.

Every scalar the engine touches is carried as a *jet*: the dense table of
Taylor coefficients of a function at a chart point, up to a fixed total
degree (at most 5).  Sums, products, quotients and elementary functions of
jets propagate exact partial derivatives, so the curvature stack never
differentiates anything by finite differences or symbols.

Coefficients are stored in graded-lexicographic rank order, which makes
truncation to a lower order a plain prefix slice.  ``jet_einsum`` takes that
slice itself: an operand carried above the product's order is read at that
order, so callers pass whole jets.  The heavy operation is
the truncated product; its index structure is precomputed per (dim, order)
as the P pairs (i, j) -> k of ranks whose degrees add up to at most the
order, and as each target k's pairs padded to the widest segment, L pairs
(8 at order 3).  ``jet_einsum`` runs products up to order MAX_PRODUCT_ORDER
(3), the order of g^-1, Γ and the curvature, and refuses a higher one.
Above order 0, where a jet is its constant term and one plain contraction
does, it contracts whole tensors of jets in two ways:

* gather: pick each target's padded segment of pairs out of both operands
  (T x L slots, T = n_terms; a padded slot reads a zero appended to both,
  so it adds 0 x 0), then contract the slots together with the components
  in one matmul, the targets a batch axis, so the pairs are summed inside
  the matmul.  Cost ~ T * L * (2 * (na + nb) + nfull / 2).
* matrix: scatter the operand with fewer components into its T x T
  multiplication matrix M[..., k, j] = a[..., i] (a given (k, j) fixes i,
  so this is a plain assignment), then contract M with the other operand
  in one BLAS-backed matmul.
  Cost ~ 2 * min(na, nb) * T^2 + nfull * T^2 / 16.

Here na, nb and nout count the components of the operands and the output,
and nfull those of the full index space.  Each call takes the cheaper
estimate: the matrix path wins on small-by-large contractions, the gather
path on same-size products and outer products, where T^2 outgrows T x L.

Both choices are made once per call signature (space, subscripts, operand
shapes after the prefix slice).  The component contraction each kernel then
runs is compiled once per signature as well: its index letters are sorted
into batch, contracted and kept groups, and the plan is a fixed transpose
and reshape of each operand, one ``np.matmul`` (a broadcast ``np.multiply``
when nothing of size above 1 is contracted) and a reshape and transpose into
output order.  A repeated call therefore parses no subscripts and makes no ``np.einsum`` or
``einsum_path`` call, and returns the same bits as numpy's two-operand
einsum, which lays the contraction out the same way.

Points are evaluated in blocks on a *point axis*, the first axis of every
jet array: tensor data is ``(P,) + (dim,)*rank + (n_terms,)`` and a scalar
jet's ``(P, n_terms)``, one point being a block of one row, and
``jet_einsum`` takes no operand without that axis.  Each row is computed
with the bits its own point's evaluation gives, and the layout keeps that
so: the point axis is the outermost in memory, so each row lies apart from
the others, with the strides of its point's own array.  ``jet_einsum``
plans by one point's shapes, so every block size runs one point's kernel
and adds no plan, and its compiled plans lead every transpose, reshape and
matmul with the point axis, a separate batch axis.  numpy's matmul picks a
BLAS call or its own loop from the strides of each matrix of a stack, and
its bits follow that choice, which a row therefore makes as its point
does.  ``jet_einsum`` returns its product C-ordered, so a later product
reads the same strides whatever the block size.

Rows are independent batch entries of every step, so ``jet_einsum`` runs its
kernel on chunks of rows: as many as keep the kernel's temporaries within
BLOCK_BYTES (one row at least), estimated once per plan from one row's
gathered or scattered operands and product (`_row_bytes`).  A block of any
size therefore forms no larger temporaries than a chunk, and each chunk's
rows get the bits of the whole block and of their points alone.

A tensor times a scalar jet is ``jet_einsum`` with an empty subscript for
the scalar (``'ijkl,->ijkl'``), so the same choice picks its kernel.
``mul_arrays`` is the scalar-by-scalar product only: it sums its pairs with
``reduceat``, which pays per output row x target: broadcast over Weyl's
625 rows at dim 5, order 3 it took ten times the matrix path.

The elementary functions, ``reciprocal``, ``int_power`` and ``real_power``
also take a plain real, as an order-0 jet, and return the float its
constant term would hold.  They take a float64 array elementwise with the
plain real's bits: numpy divides and multiplies, and the functions that
call ``math`` or ``**`` run their float rule, from which their jets take
the constant term, on each entry.  An entry where the plain real would
raise is NaN, without a warning.  On a jet with a point axis they run
their Taylor rule on each row's constant term, in row order; the first
row where it raises raises.
"""

import math
import numbers
from functools import lru_cache, wraps
from itertools import repeat

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientOrderError,
    ProductOrderError,
    SingularEvaluationError,
    TensorShapeError,
)

MAX_ORDER = 5
MAX_DIM = 6
MAX_PRODUCT_ORDER = MAX_ORDER - 2  # that of g^-1, Γ and the curvature (`jet_einsum`)
BLOCK_BYTES = 2 ** 19  # a kernel's temporaries per chunk of rows, at most (`jet_einsum`)


def _compositions(total, slots):
    """All tuples of `slots` nonnegative ints summing to `total`, lex order."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


class JetSpace:
    """Coefficient layout and product tables for jets of one (dim, order).

    Instances are cached; two jets interoperate iff they share a space.
    The exponent list is degree-major, so the first ``block_starts[k+1]``
    ranks of an order-``o`` space are exactly the order-``k`` space.
    """

    __slots__ = (
        "dim", "order", "n_terms", "exponents", "block_starts", "factorial",
        "mul_left", "mul_right", "mul_starts", "mul_flat", "seg_left", "seg_right",
        "grad_src", "grad_fac", "_rank_of",
    )

    def __init__(self, dim, order):
        if not (1 <= dim <= MAX_DIM):
            raise ConfigurationError(f"dim must be in [1, {MAX_DIM}], got {dim}")
        if not (0 <= order <= MAX_ORDER):
            raise ConfigurationError(f"order must be in [0, {MAX_ORDER}], got {order}")
        self.dim = dim
        self.order = order

        exps = []
        starts = [0]
        for deg in range(order + 1):
            exps.extend(_compositions(deg, dim))
            starts.append(len(exps))
        self.exponents = np.array(exps, dtype=np.int64)
        self.block_starts = tuple(starts)
        self.n_terms = len(exps)
        self._rank_of = {alpha: r for r, alpha in enumerate(exps)}
        self.factorial = np.array(
            [math.prod(math.factorial(int(a)) for a in alpha) for alpha in exps],
            dtype=np.float64,
        )

        # a multi-index as digits in base order + 1: two whose degrees sum to at
        # most `order` add digit by digit, with no carry, and `rank` reads ranks
        degree = self.exponents.sum(axis=1)
        place = (order + 1) ** np.arange(dim - 1, -1, -1)
        code = self.exponents @ place
        rank = np.zeros((order + 1) ** dim, dtype=np.intp)
        rank[code] = np.arange(self.n_terms)
        left, right = np.nonzero(degree[:, None] + degree <= order)  # i-major pairs
        target = rank[code[left] + code[right]]
        ordering = np.argsort(target, kind="stable")
        self.mul_left = left[ordering]
        self.mul_right = right[ordering]
        mk = target[ordering]
        # every rank k occurs (pair (k, 0)), so reduceat yields n_terms segments
        self.mul_starts = np.searchsorted(mk, np.arange(self.n_terms))
        # (k, j) fixes i, so pair p owns entry (target, right) of a flat T x T matrix
        self.mul_flat = mk * self.n_terms + self.mul_right
        # target k's pairs in the slots of row k of a T x L table, L the widest
        # segment; a padded slot reads rank T, a zero appended to both operands
        slot = np.arange(len(mk)) - self.mul_starts[mk]
        shape = (self.n_terms, int(slot.max()) + 1)
        self.seg_left = np.full(shape, self.n_terms)
        self.seg_right = np.full(shape, self.n_terms)
        self.seg_left[mk, slot] = self.mul_left
        self.seg_right[mk, slot] = self.mul_right

        # d_v of the order-(o-1) rank r reads rank src[v, r] of the order-o jet
        # times the exponent of v there: one gather takes every partial
        n_lower = starts[order]
        self.grad_src = rank[code[:n_lower] + place[:, None]]
        self.grad_fac = (self.exponents[:n_lower] + 1).T.astype(np.float64, order="C")

    @staticmethod
    @lru_cache(maxsize=None)
    def get(dim, order):
        return JetSpace(dim, order)

    def rank_of(self, alpha):
        try:
            return self._rank_of[tuple(int(a) for a in alpha)]
        except KeyError:
            raise ConfigurationError(f"multi-index {alpha} not in space {self}") from None

    def lower(self):
        if self.order == 0:
            raise InsufficientOrderError("cannot differentiate an order-0 jet")
        return JetSpace.get(self.dim, self.order - 1)

    def __repr__(self):
        return f"JetSpace(dim={self.dim}, order={self.order})"


# ---------------------------------------------------------------------------
# packed-array kernels: jets live on the trailing axis of an ndarray

def mul_arrays(space, a, b):
    """Truncated product of two scalar jets' coefficient arrays."""
    p = a[..., space.mul_left] * b[..., space.mul_right]
    return np.add.reduceat(p, space.mul_starts, axis=-1)


def gradient_arrays(space, data):
    """All partials on a new axis of length dim just after the point axis; drops one order."""
    if space.order == 0:
        raise InsufficientOrderError("no derivative information left at order 0")
    parts = np.moveaxis(data[..., space.grad_src], -2, 1)
    fac = space.grad_fac.reshape((space.dim,) + (1,) * (data.ndim - 2) + (-1,))
    return np.multiply(parts, fac, order="C")


def truncate_arrays(space, data, order):
    """Prefix slice down to `order`; returns (lower_space, view)."""
    if order > space.order:
        raise InsufficientOrderError(
            f"cannot extend order {space.order} data to order {order}"
        )
    if order == space.order:
        return space, data
    lower = JetSpace.get(space.dim, order)
    return lower, data[..., : lower.n_terms]


# Compiled pair contractions, keyed by (sub_x, sub_y, out, x.shape, y.shape)
# of one point: the transposes, reshapes and the one matmul (or multiply)
# that evaluate `sub_x,sub_y->out` row by row over a leading point axis,
# found once so a hot call parses nothing.
_PAIR_PLANS = {}
_EINSUM_PLANS = {}


def _compile_pair(sub_x, sub_y, out, shape_x, shape_y):
    """Plan `sub_x,sub_y->out` as (perm_x, fused_x, perm_y, fused_y, shape_xy, perm_xy).

    A letter in both operands is batch (kept in `out`) or contracted; a letter
    of one operand must be kept.  x is laid out (batch, kept-x, contracted)
    and y (batch, contracted, kept-y), each group fused to one axis, so one
    matmul contracts them; its product is unfused and put in `out` order.
    When every contracted axis has size 1 (none, or dim 1, or the jet axis
    at order 0), each operand is laid out in `out` order with size-1 axes
    for the letters it lacks, and one broadcast multiply is the product
    (shape_xy is None).  Other size-1 axes simply fuse into their groups.
    The leading point axis stays first in every step: each perm leads with
    0 and each shape with -1, the number of rows.
    """
    sizes = {}
    for c, n in zip(sub_x + sub_y, shape_x + shape_y):
        if sizes.setdefault(c, n) != n:
            raise ValueError(f"axis {c!r} has sizes {sizes[c]} and {n}")
    batch = [c for c in sub_x if c in sub_y and c in out]
    summed = [c for c in sub_x if c in sub_y and c not in out]
    keep_x = [c for c in sub_x if c not in sub_y]
    keep_y = [c for c in sub_y if c not in sub_x]
    if all(sizes[c] == 1 for c in summed):
        return (
            (0,) + tuple(1 + sub_x.index(c) for c in out + "".join(summed) if c in sub_x),
            (-1,) + tuple(sizes[c] if c in sub_x else 1 for c in out),
            (0,) + tuple(1 + sub_y.index(c) for c in out + "".join(summed) if c in sub_y),
            (-1,) + tuple(sizes[c] if c in sub_y else 1 for c in out),
            None, None,
        )
    lead = [batch] if batch else []  # no batch: one matrix per row
    gx, gy = lead + [keep_x, summed], lead + [summed, keep_y]
    made = batch + keep_x + keep_y
    return (
        (0,) + tuple(1 + sub_x.index(c) for g in gx for c in g),
        (-1,) + tuple(math.prod(sizes[c] for c in g) for g in gx),
        (0,) + tuple(1 + sub_y.index(c) for g in gy for c in g),
        (-1,) + tuple(math.prod(sizes[c] for c in g) for g in gy),
        (-1,) + tuple(sizes[c] for c in made),
        (0,) + tuple(1 + made.index(c) for c in out),
    )


def _pair_contract(sub_x, sub_y, out, x, y):
    """``np.einsum(f"...{sub_x},...{sub_y}->...{out}", x, y)`` through its compiled plan.

    Both operands carry a leading point axis.  It stays a separate leading
    axis of every step, so each row is transposed, reshaped (a view or a
    copy) and multiplied with the strides its own point's operands have, and
    numpy's matmul takes the BLAS call or its own loop that the point's
    product takes, with the same bits.
    """
    key = (sub_x, sub_y, out, x.shape[1:], y.shape[1:])
    plan = _PAIR_PLANS.get(key)
    if plan is None:
        plan = _PAIR_PLANS[key] = _compile_pair(sub_x, sub_y, out, key[3], key[4])
    perm_x, fused_x, perm_y, fused_y, shape_xy, perm_xy = plan
    x = x.transpose(perm_x).reshape(fused_x)
    y = y.transpose(perm_y).reshape(fused_y)
    if shape_xy is None:
        return np.multiply(x, y)
    return np.matmul(x, y).reshape(shape_xy).transpose(perm_xy)


def _padded(x):
    """`x` with a zero coefficient appended, the one a padded slot reads."""
    return np.concatenate((x, np.zeros(x.shape[:-1] + (1,))), axis=-1)


# Both kernels put the `b`-side operand first: numpy's two-operand einsum
# hands a pair to matmul in that order, so the kernels give its bits.

def _einsum_gather(space, sub_a, sub_b, out, a, b):
    """Gather both operands into each target's padded segment of pairs
    (T x L slots) and contract the slots Y with the component letters in
    one matmul, the targets Z a batch axis, so each target's pairs are
    summed inside the matmul.  A padded slot is 0 x 0: a non-finite
    coefficient reaches only the targets of its own pairs."""
    return _pair_contract(
        sub_b + "ZY", sub_a + "ZY", out + "Z",
        _padded(b)[..., space.seg_right], _padded(a)[..., space.seg_left],
    )


def _einsum_matrix(space, sub_a, sub_b, out, a, b):
    """Scatter `a` into its multiplication matrix M[..., k, j], contract with `b`."""
    n = space.n_terms
    m = np.zeros(a.shape[:-1] + (n * n,))
    m[..., space.mul_flat] = a[..., space.mul_left]
    m = m.reshape(a.shape[:-1] + (n, n))
    return _pair_contract(sub_b + "Z", sub_a + "YZ", out + "Y", b, m)


def _einsum_const(space, sub_a, sub_b, out, a, b):
    """Order 0: one product pair, so contract the constant terms as they lie."""
    return _pair_contract(sub_b + "Z", sub_a + "Z", out + "Z", b, a)


def _counts(sub_a, sub_b, out, a, b):
    """Components of each operand, of the output and of the full index space:
    (na, nb, nout, nfull), read from the operands' component axes."""
    shape_a, shape_b = a.shape[1:-1], b.shape[1:-1]
    sizes = dict(zip(sub_a + sub_b, shape_a + shape_b))
    return (math.prod(shape_a), math.prod(shape_b), math.prod(sizes[c] for c in out),
            math.prod(sizes.values()))


def _plan(space, sub_a, sub_b, out, a, b):
    """Pick the kernel with the lower cost estimate (module docstring).

    Reads the operands' component shapes, after their point axis, so each
    point of a block gets its own point's choice.  Returns (kernel,
    swap); `swap` puts the operand with fewer components first, where the
    matrix path scatters it; order 0 keeps that operand order.
    """
    na, nb, nout, nfull = _counts(sub_a, sub_b, out, a, b)
    if space.order == 0:
        return _einsum_const, nb < na
    t = space.n_terms
    slots = t * space.seg_left.shape[1]
    if 2 * min(na, nb) * t * t + nfull * t * t / 16 < slots * (2 * (na + nb) + nfull / 2):
        return _einsum_matrix, nb < na
    return _einsum_gather, False


def _row_bytes(space, kernel, na, nb, nout):
    """Bytes of a kernel's temporaries per row: the operands gathered into
    T x L slots per component (or the smaller one scattered into T x T
    matrices, the other read as it lies), twice for the copies the
    transposes may make, and the product, T coefficients per output
    component.  The const kernel takes the gather's count, T = L = 1."""
    t = space.n_terms
    if kernel is _einsum_matrix:
        return 8 * (2 * min(na, nb) * t * t + (max(na, nb) + nout) * t)
    return 8 * t * (2 * space.seg_left.shape[1] * (na + nb) + nout)


def jet_einsum(space, subscripts, a, b):
    """einsum over component axes with jet-valued entries, row by row.

    `subscripts` addresses component axes only (e.g. ``'kl,lij->kij'``);
    each operand carries a point axis before them and the jet axis after
    them, and so does the C-ordered output.  Each operand may carry a higher
    order than `space`: its first ``space.n_terms`` coefficients, the prefix
    that is its truncation to `space`, are read.  An operand with fewer
    coefficients raises InsufficientOrderError, one without a point axis
    TensorShapeError, and a space above MAX_PRODUCT_ORDER ProductOrderError.
    The kernel is the one a single point's shapes choose, and the point axis
    is a batch axis of its contraction.  It runs on chunks of rows (module
    docstring), each written into its rows of the output.
    """
    n = space.n_terms
    ins, out = subscripts.split("->")
    sub_a, sub_b = ins.split(",")
    if a.ndim != len(sub_a) + 2 or b.ndim != len(sub_b) + 2:
        raise TensorShapeError(f"{subscripts!r} needs a point axis on each operand, "
                               f"got shapes {a.shape} and {b.shape}")
    if min(a.shape[-1], b.shape[-1]) < n:
        raise InsufficientOrderError(
            f"operands carry {a.shape[-1]} and {b.shape[-1]} coefficients; {space} reads {n}"
        )
    a, b = a[..., :n], b[..., :n]
    key = (space, subscripts, a.shape[1:], b.shape[1:])  # planned by one point's shapes
    plan = _EINSUM_PLANS.get(key)
    if plan is None:
        if space.order > MAX_PRODUCT_ORDER:
            raise ProductOrderError(f"jet_einsum runs products up to order {MAX_PRODUCT_ORDER}; "
                                    f"{space} is order {space.order}")
        kernel, swap = _plan(space, sub_a, sub_b, out, a, b)
        row_bytes = _row_bytes(space, kernel, *_counts(sub_a, sub_b, out, a, b)[:3])
        plan = _EINSUM_PLANS[key] = kernel, swap, row_bytes
    kernel, swap, row_bytes = plan
    if swap:
        a, b, sub_a, sub_b = b, a, sub_b, sub_a
    rows, step = len(a), max(1, BLOCK_BYTES // row_bytes)
    if rows <= step:
        return np.ascontiguousarray(kernel(space, sub_a, sub_b, out, a, b))
    result = None
    for r in range(0, rows, step):
        made = kernel(space, sub_a, sub_b, out, a[r:r + step], b[r:r + step])
        if result is None:
            result = np.empty((rows,) + made.shape[1:])
        result[r:r + step] = made
        del made  # before the next chunk's temporaries
    return result


# ---------------------------------------------------------------------------
# scalar jets

class JetScalar:
    """One truncated Taylor polynomial: value plus derivatives at a point.

    Immutable by convention; all arithmetic returns new instances.  Mixed
    arithmetic with plain numbers lifts them to constant jets.  `coeffs` has
    shape (n_terms,), or (P, n_terms) with a point axis: one polynomial per
    row, each row computed as its own point's would be (`value` and
    `partial` read each row's).
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.n_terms:
            raise ConfigurationError(
                f"expected {space.n_terms} coefficients, got shape {coeffs.shape}"
            )
        self.space = space
        self.coeffs = coeffs

    @property
    def dim(self):
        return self.space.dim

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        """The constant term: a float, or with a point axis an array of one per row."""
        return _per_row(self.coeffs[..., 0])

    def partial(self, alpha):
        """d^alpha at the base point, i.e. alpha! times the stored coefficient."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise ConfigurationError(f"bad multi-index {alpha} for dim {self.dim}")
        if sum(alpha) > self.order:
            raise InsufficientOrderError(
                f"|alpha|={sum(alpha)} exceeds carried order {self.order}"
            )
        r = self.space.rank_of(alpha)
        return _per_row(self.coeffs[..., r] * self.space.factorial[r])

    def truncated(self, order):
        lower, data = truncate_arrays(self.space, self.coeffs, order)
        return JetScalar(lower, data.copy())

    def _coerce(self, other):
        if isinstance(other, JetScalar):
            if other.space is not self.space:
                raise ConfigurationError(
                    "jet operands must share (dim, order): "
                    f"{self.space} vs {other.space}"
                )
            return other
        if isinstance(other, numbers.Real):
            return constant(self.space, float(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(self.space, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(self.space, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(self.space, o.coeffs - self.coeffs)

    def __neg__(self):
        return JetScalar(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, numbers.Real) and not isinstance(other, JetScalar):
            return JetScalar(self.space, self.coeffs * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(self.space, mul_arrays(self.space, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real) and not isinstance(other, JetScalar):
            return JetScalar(self.space, self.coeffs / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * reciprocal(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * reciprocal(self)

    def __pow__(self, p):
        if isinstance(p, numbers.Integral):
            return int_power(self, int(p))
        if isinstance(p, numbers.Real):
            return real_power(self, p)
        return NotImplemented

    def __repr__(self):  # with a point axis, the list of each row's value
        shown = self.coeffs[..., 0].tolist()
        return f"JetScalar(dim={self.dim}, order={self.order}, value={shown!r})"


def _per_row(x):
    """A float from a 0-d array, else the array: one value per row of a point axis."""
    return float(x) if x.ndim == 0 else x


def constant(space, value):
    """The constant jet `value`, or with a point axis one per entry of a 1-D array."""
    c = np.zeros(np.shape(value) + (space.n_terms,))
    c[..., 0] = value
    return JetScalar(space, c)


def variable(space, index, value):
    """The coordinate jet x_index at `value`, or at each entry of a 1-D array (a point axis)."""
    if not (0 <= index < space.dim):
        raise ConfigurationError(f"variable index {index} out of range for dim {space.dim}")
    c = np.zeros(np.shape(value) + (space.n_terms,))
    c[..., 0] = value
    if space.order >= 1:
        unit = tuple(1 if k == index else 0 for k in range(space.dim))
        c[..., space.rank_of(unit)] = 1.0
    return JetScalar(space, c)


def jet_lift(value, index=None, *, dim, order):
    """Constant jet when `index` is None, else the coordinate jet x_index."""
    space = JetSpace.get(dim, order)
    if index is None:
        return constant(space, value)
    return variable(space, index, value)


def coordinate_jets(space, point):
    """The coordinate jets at a point, or with a point axis at each row of a (P, dim) block."""
    point = np.asarray(point, dtype=np.float64)
    if point.ndim not in (1, 2) or point.shape[-1] != space.dim:
        raise ConfigurationError(f"point has shape {point.shape}, dim is {space.dim}")
    return [variable(space, i, x) for i, x in enumerate(point.T)]


# ---------------------------------------------------------------------------
# elementary functions via univariate Taylor composition
#
# Each also takes a plain real, and a float64 array entry by entry, as the
# module docstring says.  Each is written as its Taylor rule on floats: the
# jet of a point is composed with the rule at its constant term, a jet with
# a point axis with the rule at each row's constant term.

def _elementary(value):
    """Make a function of jets, plain reals and float64 arrays from its float rules.

    The decorated `series(x, order, *args)` lists f^(k)(x)/k! for k = 0..order
    as floats and raises where the function raises; its first term is
    `value(x, *args)`, the float the constant term of the function's jet holds
    when the argument's constant term is x.  A jet is composed with the series
    (`_series_at`).  A plain real gives `value` of itself, an array `value` of
    each entry, NaN where `value` raises.
    """

    def extend(series):
        @wraps(series)
        def on_any(a, *args):
            if isinstance(a, JetScalar):
                return _compose(a, _series_at(a, series, *args))
            if not isinstance(a, np.ndarray):
                return value(float(a), *args)

            def entry(x):
                try:
                    return value(x, *args)
                except (SingularEvaluationError, ArithmeticError, ValueError):
                    return math.nan

            xs = a.ravel().tolist()
            try:  # one pass without a handler per entry while no entry raises
                out = list(map(value, xs, *[repeat(p) for p in args]))
            except (SingularEvaluationError, ArithmeticError, ValueError):
                out = list(map(entry, xs))
            return np.array(out, np.float64).reshape(a.shape)

        return on_any

    return extend


def _series_at(a, series, *args):
    """series(a0, order, *args) at a jet's constant term a0.

    With a point axis the rule runs on each row's constant term, in row
    order, and each coefficient is a (P, 1) column: the first row whose rule
    raises raises.
    """
    if a.coeffs.ndim == 1:
        return series(a.value, a.order, *args)
    rows = [series(x, a.order, *args) for x in a.coeffs[:, 0].tolist()]
    return [np.array(column)[:, None] for column in zip(*rows)]


def _compose(a, dcoeffs):
    """Sum_k dcoeffs[k] * (a - a0)^k, truncated.  dcoeffs[k] = f^(k)(a0)/k!."""
    space = a.space
    out = np.zeros(a.coeffs.shape)
    out[..., :1] = dcoeffs[0]
    if space.order == 0:
        return JetScalar(space, out)
    tilde = a.coeffs.copy()
    tilde[..., 0] = 0.0
    power = None
    for k in range(1, space.order + 1):
        power = tilde if k == 1 else mul_arrays(space, power, tilde)
        out += dcoeffs[k] * power
    return JetScalar(space, out)


def int_power(a, p):
    """a ** p for an integer p: repeated squaring, reciprocal first if p < 0.

    The product starts from the first power it needs, not from one: x^2 is
    the one product x * x.
    """
    if p < 0:
        return int_power(reciprocal(a), -p)
    if p == 0:
        if isinstance(a, np.ndarray):  # an entry that is NaN stays NaN
            return np.where(np.isnan(a), np.nan, 1.0)
        if isinstance(a, JetScalar):  # the constant one, on a's point axis if any
            one = np.zeros(a.coeffs.shape)
            one[..., 0] = 1.0
            return JetScalar(a.space, one)
        return 1.0
    result = None
    while p:
        if p & 1:
            result = a if result is None else result * a
        p >>= 1
        if p:
            a = a * a
    return result


def _real_power_value(x, p):
    if x <= 0.0:
        raise SingularEvaluationError(
            "non-integer power requires a positive constant term"
        )
    return x ** p


@_elementary(_real_power_value)
def real_power(a0, order, p):
    """a ** p for a real p by power series; the constant term must be positive."""
    dcoeffs = [_real_power_value(a0, p)]
    coef = p  # (p - 0) / 1, the coefficient after the constant term
    for k in range(1, order + 1):
        dcoeffs.append(coef * a0 ** (p - k))
        coef *= (p - k) / (k + 1)
    return dcoeffs


def _reciprocal_series(a0, order):
    if a0 == 0.0:
        raise SingularEvaluationError("division by a jet with zero constant term")
    return [(-1.0) ** k / a0 ** (k + 1) for k in range(order + 1)]


def reciprocal(a):
    """1 / a; a float64 array is divided by numpy, NaN where an entry is 0."""
    if isinstance(a, np.ndarray):  # 1.0 / a0, as on a plain real
        return np.divide(1.0, a, out=np.full(a.shape, np.nan), where=a != 0.0)
    if isinstance(a, JetScalar):
        return _compose(a, _series_at(a, _reciprocal_series))
    return _reciprocal_series(float(a), 0)[0]


@_elementary(math.exp)
def exp(a0, order):
    e0 = math.exp(a0)
    return [e0 / math.factorial(k) for k in range(order + 1)]


def _log_value(x):
    if x <= 0.0:
        raise SingularEvaluationError("log requires a positive constant term")
    return math.log(x)


@_elementary(_log_value)
def log(a0, order):
    dc = [_log_value(a0)]
    dc += [(-1.0) ** (k - 1) / (k * a0 ** k) for k in range(1, order + 1)]
    return dc


def _sqrt_value(x):
    if x <= 0.0:
        raise SingularEvaluationError("sqrt requires a positive constant term")
    return x ** 0.5  # real_power's rule at p = 0.5


@_elementary(_sqrt_value)
def sqrt(a0, order):
    _sqrt_value(a0)  # raises with sqrt's message
    return real_power.__wrapped__(a0, order, 0.5)


def _sin_value(x):
    return math.sin(x + 0.0)  # the k = 0 term below: -0.0 + 0.0 is 0.0


@_elementary(_sin_value)
def sin(a0, order):
    dc = [_sin_value(a0)]
    dc += [math.sin(a0 + k * math.pi / 2) / math.factorial(k) for k in range(1, order + 1)]
    return dc


@_elementary(math.cos)
def cos(a0, order):
    dc = [math.cos(a0)]
    dc += [math.cos(a0 + k * math.pi / 2) / math.factorial(k) for k in range(1, order + 1)]
    return dc


ELEMENTARY = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}
