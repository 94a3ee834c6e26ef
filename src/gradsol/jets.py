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
order.  Above order 0, where a jet is its constant term and one plain
contraction does, `jet_einsum` contracts whole tensors of jets in two ways:

* gather: pick the P pair coefficients out of both operands, contract
  components with the pairs as a batch axis, then sum the pairs of each
  target k (``reduceat``).  Cost ~ P * (na + nb + nfull + nout).
* matrix: scatter the operand with fewer components into its T x T
  multiplication matrix M[..., k, j] = a[..., i] (T = n_terms; a given
  (k, j) fixes i, so this is a plain assignment), then contract M with the
  other operand in one BLAS-backed matmul.
  Cost ~ 2 * min(na, nb) * T^2 + nfull * T^2 / 16.

Here na, nb and nout count the components of the operands and the output,
and nfull those of the full index space.  Each call takes the cheaper
estimate: the matrix path wins on small-by-large contractions at low and
middle orders, the gather path on same-size products, full contractions
and orders 4-5, where T^2 outgrows P.

Both choices are made once per call signature (space, subscripts, operand
shapes after the prefix slice).  The component contraction each kernel then
runs is compiled once per signature as well: its index letters are sorted
into batch, contracted and kept groups, and the plan is a fixed transpose
and reshape of each operand, one ``np.matmul`` (a broadcast ``np.multiply``
when nothing of size above 1 is contracted) and a reshape and transpose into
output order.  A repeated call therefore parses no subscripts and makes no ``np.einsum`` or
``einsum_path`` call, and returns the same bits as numpy's two-operand
einsum, which lays the contraction out the same way.

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
raise is NaN, without a warning.
"""

import math
import numbers
from functools import lru_cache, wraps
from itertools import repeat

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientOrderError,
    SingularEvaluationError,
)

MAX_ORDER = 5
MAX_DIM = 6


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
        "mul_left", "mul_right", "mul_starts", "mul_flat", "grad_src", "grad_fac",
        "_rank_of",
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
    """All partials on a new leading axis of length dim; drops one order."""
    if space.order == 0:
        raise InsufficientOrderError("no derivative information left at order 0")
    parts = np.moveaxis(data[..., space.grad_src], -2, 0)
    fac = space.grad_fac.reshape((space.dim,) + (1,) * (data.ndim - 1) + (-1,))
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


# Compiled pair contractions, keyed by (sub_x, sub_y, out, x.shape, y.shape):
# the transposes, reshapes and the one matmul (or multiply) that evaluate
# `sub_x,sub_y->out`, found once so a hot call parses nothing.
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
            tuple(sub_x.index(c) for c in out + "".join(summed) if c in sub_x),
            tuple(sizes[c] if c in sub_x else 1 for c in out),
            tuple(sub_y.index(c) for c in out + "".join(summed) if c in sub_y),
            tuple(sizes[c] if c in sub_y else 1 for c in out),
            None, None,
        )
    lead = [batch] if batch else []  # no batch: plain 2-D matmul
    gx, gy = lead + [keep_x, summed], lead + [summed, keep_y]
    made = batch + keep_x + keep_y
    return (
        tuple(sub_x.index(c) for g in gx for c in g),
        tuple(math.prod(sizes[c] for c in g) for g in gx),
        tuple(sub_y.index(c) for g in gy for c in g),
        tuple(math.prod(sizes[c] for c in g) for g in gy),
        tuple(sizes[c] for c in made),
        tuple(made.index(c) for c in out),
    )


def _pair_contract(sub_x, sub_y, out, x, y):
    """``np.einsum(f"{sub_x},{sub_y}->{out}", x, y)`` through its compiled plan."""
    key = (sub_x, sub_y, out, x.shape, y.shape)
    plan = _PAIR_PLANS.get(key)
    if plan is None:
        plan = _PAIR_PLANS[key] = _compile_pair(sub_x, sub_y, out, x.shape, y.shape)
    perm_x, fused_x, perm_y, fused_y, shape_xy, perm_xy = plan
    x = x.transpose(perm_x).reshape(fused_x)
    y = y.transpose(perm_y).reshape(fused_y)
    if shape_xy is None:
        return np.multiply(x, y)
    return np.matmul(x, y).reshape(shape_xy).transpose(perm_xy)


# Both kernels put the `b`-side operand first: numpy's two-operand einsum
# hands a pair to matmul in that order, so the kernels give its bits.

def _einsum_gather(space, sub_a, sub_b, out, a, b):
    """Gather every product pair, contract components, sum pairs per target."""
    p = _pair_contract(
        sub_b + "Z", sub_a + "Z", out + "Z",
        b[..., space.mul_right], a[..., space.mul_left],
    )
    return np.add.reduceat(p, space.mul_starts, axis=-1)


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


def _plan(space, sub_a, sub_b, out, a, b):
    """Pick the strategy with the lower cost estimate (module docstring).

    Returns (kernel, swap); `swap` puts the operand with fewer components
    first, where the matrix path scatters it; order 0 keeps that operand order.
    """
    na, nb = math.prod(a.shape[:-1]), math.prod(b.shape[:-1])
    if space.order == 0:
        return _einsum_const, nb < na
    sizes = dict(zip(sub_a + sub_b, a.shape[:-1] + b.shape[:-1]))
    t2, pairs = space.n_terms ** 2, len(space.mul_left)
    nout = math.prod(sizes[c] for c in out)
    nfull = math.prod(sizes.values())
    if 2 * min(na, nb) * t2 + nfull * t2 / 16 < pairs * (na + nb + nfull + nout):
        return _einsum_matrix, nb < na
    return _einsum_gather, False


def jet_einsum(space, subscripts, a, b):
    """einsum over component axes with jet-valued entries.

    `subscripts` addresses component axes only (e.g. ``'kl,lij->kij'``);
    the trailing jet axis is handled internally.  Each operand may carry a
    higher order than `space`: its first ``space.n_terms`` coefficients, the
    prefix that is its truncation to `space`, are read.  An operand with
    fewer coefficients raises InsufficientOrderError.
    """
    n = space.n_terms
    if min(a.shape[-1], b.shape[-1]) < n:
        raise InsufficientOrderError(
            f"operands carry {a.shape[-1]} and {b.shape[-1]} coefficients; {space} reads {n}"
        )
    a, b = a[..., :n], b[..., :n]
    ins, out = subscripts.split("->")
    sub_a, sub_b = ins.split(",")
    key = (space, subscripts, a.shape, b.shape)
    plan = _EINSUM_PLANS.get(key)
    if plan is None:
        plan = _EINSUM_PLANS[key] = _plan(space, sub_a, sub_b, out, a, b)
    kernel, swap = plan
    if swap:
        return kernel(space, sub_b, sub_a, out, b, a)
    return kernel(space, sub_a, sub_b, out, a, b)


# ---------------------------------------------------------------------------
# scalar jets

class JetScalar:
    """One truncated Taylor polynomial: value plus derivatives at a point.

    Immutable by convention; all arithmetic returns new instances.  Mixed
    arithmetic with plain numbers lifts them to constant jets.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (space.n_terms,):
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
        return float(self.coeffs[0])

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
        return float(self.coeffs[r] * self.space.factorial[r])

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

    def __repr__(self):
        return f"JetScalar(dim={self.dim}, order={self.order}, value={self.value!r})"


def constant(space, value):
    c = np.zeros(space.n_terms)
    c[0] = value
    return JetScalar(space, c)


def variable(space, index, value):
    if not (0 <= index < space.dim):
        raise ConfigurationError(f"variable index {index} out of range for dim {space.dim}")
    c = np.zeros(space.n_terms)
    c[0] = value
    if space.order >= 1:
        unit = tuple(1 if k == index else 0 for k in range(space.dim))
        c[space.rank_of(unit)] = 1.0
    return JetScalar(space, c)


def jet_lift(value, index=None, *, dim, order):
    """Constant jet when `index` is None, else the coordinate jet x_index."""
    space = JetSpace.get(dim, order)
    if index is None:
        return constant(space, value)
    return variable(space, index, value)


def coordinate_jets(space, point):
    point = [float(x) for x in point]
    if len(point) != space.dim:
        raise ConfigurationError(f"point has {len(point)} entries, dim is {space.dim}")
    return [variable(space, i, x) for i, x in enumerate(point)]


# ---------------------------------------------------------------------------
# elementary functions via univariate Taylor composition
#
# Each also takes a plain real, and a float64 array entry by entry, as the
# module docstring says.

def _elementwise(value):
    """Extend a jet function to plain reals and float64 arrays by its float rule.

    `value(x, *args)` is the float the constant term of the function's jet
    holds when the argument's constant term is x, and raises where the jet
    function raises; the jet function takes its constant term from it.  A
    plain real gives `value` of itself, an array `value` of each entry, NaN
    where `value` raises.
    """

    def extend(fn):
        @wraps(fn)
        def on_any(a, *args):
            if isinstance(a, JetScalar):
                return fn(a, *args)
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


def _value_order(a):
    if isinstance(a, JetScalar):
        return a.value, a.order
    return float(a), 0


def _compose(a, dcoeffs):
    """Sum_k dcoeffs[k] * (a - a0)^k, truncated.  dcoeffs[k] = f^(k)(a0)/k!."""
    if not isinstance(a, JetScalar):
        return dcoeffs[0]
    space = a.space
    out = np.zeros(space.n_terms)
    out[0] = dcoeffs[0]
    if space.order == 0:
        return JetScalar(space, out)
    tilde = a.coeffs.copy()
    tilde[0] = 0.0
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
        return constant(a.space, 1.0) if isinstance(a, JetScalar) else 1.0
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


@_elementwise(_real_power_value)
def real_power(a, p):
    """a ** p for a real p by power series; the constant term must be positive."""
    a0 = a.value
    dcoeffs = [_real_power_value(a0, p)]
    coef = p  # (p - 0) / 1, the coefficient after the constant term
    for k in range(1, a.order + 1):
        dcoeffs.append(coef * a0 ** (p - k))
        coef *= (p - k) / (k + 1)
    return _compose(a, dcoeffs)


def reciprocal(a):
    if isinstance(a, np.ndarray):  # 1.0 / a0, as on a plain real; NaN at a0 == 0
        return np.divide(1.0, a, out=np.full(a.shape, np.nan), where=a != 0.0)
    a0, order = _value_order(a)
    if a0 == 0.0:
        raise SingularEvaluationError("division by a jet with zero constant term")
    return _compose(a, [(-1.0) ** k / a0 ** (k + 1) for k in range(order + 1)])


@_elementwise(math.exp)
def exp(a):
    e0 = math.exp(a.value)
    return _compose(a, [e0 / math.factorial(k) for k in range(a.order + 1)])


def _log_value(x):
    if x <= 0.0:
        raise SingularEvaluationError("log requires a positive constant term")
    return math.log(x)


@_elementwise(_log_value)
def log(a):
    a0 = a.value
    dc = [_log_value(a0)]
    dc += [(-1.0) ** (k - 1) / (k * a0 ** k) for k in range(1, a.order + 1)]
    return _compose(a, dc)


def _sqrt_value(x):
    if x <= 0.0:
        raise SingularEvaluationError("sqrt requires a positive constant term")
    return x ** 0.5  # real_power's rule at p = 0.5


@_elementwise(_sqrt_value)
def sqrt(a):
    _sqrt_value(a.value)  # raises with sqrt's message
    return real_power(a, 0.5)


def _sin_value(x):
    return math.sin(x + 0.0)  # the k = 0 term below: -0.0 + 0.0 is 0.0


@_elementwise(_sin_value)
def sin(a):
    a0 = a.value
    dc = [_sin_value(a0)]
    dc += [math.sin(a0 + k * math.pi / 2) / math.factorial(k) for k in range(1, a.order + 1)]
    return _compose(a, dc)


@_elementwise(math.cos)
def cos(a):
    a0 = a.value
    dc = [math.cos(a0)]
    dc += [math.cos(a0 + k * math.pi / 2) / math.factorial(k) for k in range(1, a.order + 1)]
    return _compose(a, dc)


ELEMENTARY = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}
