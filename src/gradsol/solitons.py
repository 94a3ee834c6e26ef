"""Catalog of concrete gradient Ricci soliton instances.

Each instance bundles a metric family, a potential and the soliton
constant on an explicit chart box.  Built-in and user instances alike are
specs of expression strings, built by `instance_from_spec`.  Sphere
factors use stereographic coordinates so that components are rational and
jets are exact; the only chart pole sits outside every box.  A
deliberately perturbed non-soliton pair is included as a negative control
for the verification harness.

A :class:`PointEval` evaluates a block lazily: a list of points on a point
axis (see ``tensors``), one point being a block of one, each row with its
own point's bits.  Its cached properties are the one recipe of each
quantity, |grad f|^2 and |grad f| included, and it owns the evaluation
plan: where `block_rule` says the layers of Riemann's size do not pay as
blocks, the first read of the pack, W or div W fills them point by point.
`sample_evals` draws candidates in blocks, which `admit_points` admits by
the one admission rule with one metric, g^-1, f and grad f evaluation.
Readers take the blocks as they are, and no row is copied out to a point:
each residual returns one value per row, and `read_rows` hands the rows
out in draw order.  A block whose evaluation raises gives way to blocks of
one, one per point, which keep its rows of the metric, g^-1, f and grad f
where it holds them, so an error is that of the first failing point.
"""

import itertools
import math
import numbers
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import levelset
from .conformal import bach, cotton, d_tensor, weyl
from .curvature import (CurvaturePack, covariant_derivative, curvature_pack, divergence,
                        scalar_gradient)
from .errors import ConfigurationError, DomainError, GradsolError, ValidationError
from .exprs import compile_expression
from .jets import BLOCK_BYTES, JetScalar, JetSpace, constant, coordinate_jets
from .tensors import (MetricAtPoint, TensorJet, metric_at_points, row_abs_max, row_dot, row_max,
                      tensor_norm_sq)

KINDS = ("shrinking", "steady", "expanding", "einstein")
SOLITON_TOL = 1e-9
HAMILTON_TOL = 1e-9
MIN_GRAD_DISTANCE = 1e-3
MIN_EXCLUDED_DISTANCE = 1e-3
CONTROL_POINTS = 8  # sample points that size a negative control's rejection
MAX_CANDIDATES = 20000  # sample candidates drawn before giving up
MIN_BLOCK_ROWS = 4
# what a block evaluation may raise where a point of it would: the block is
# then left to its points, each of which raises its own error or none
_BLOCK_ERRORS = (GradsolError, ArithmeticError, ValueError)


@dataclass
class SolitonInstance:
    """A metric family with potential, soliton constant and chart data.

    `kind` is one of shrinking/steady/expanding/einstein, or None for
    negative-control geometries that intentionally fail certification.
    Whether the potential is constant (`trivial`) and its normalization
    (`f_shift`) are derived from `potential_fn`, not set.
    """

    name: str
    n: int
    rho: float
    kind: str | None
    metric_fn: Callable
    potential_fn: Callable
    box: list
    base_point: list
    excluded: list = field(default_factory=list)
    description: str = ""

    def contains(self, point):
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self.box))

    def require_inside(self, point):
        """DomainError unless the point lies in the chart box."""
        if not self.contains(point):
            raise DomainError(f"{list(point)} is outside the chart box of {self.name}")

    def excluded_distance(self, point):
        p = np.asarray(point, dtype=float)
        return min((fn(p) for fn in self.excluded), default=math.inf)

    def metric_at(self, points, order):
        """The metric at each of a list of points, on a point axis."""
        return metric_at_points(self.metric_fn, points, self.n, order)

    def potential_jet(self, point, space, normalized=True):
        """The jet of f at `point`, or on a point axis at each of a list of points."""
        xs = coordinate_jets(space, point)
        f = self.potential_fn(xs)
        if not isinstance(f, JetScalar):  # a constant potential, one row per point
            f = constant(space, np.full(xs[0].coeffs.shape[:-1], float(f)))
        if normalized:
            f = f + self.f_shift
        return f

    @cached_property
    def trivial(self):
        """Whether the potential is constant: `potential_fn` gives a number on jets."""
        xs = coordinate_jets(JetSpace.get(self.n, 0), self.base_point)
        return not isinstance(self.potential_fn(xs), JetScalar)

    @cached_property
    def f_shift(self):
        """Additive normalization fixed by the first-integral at base_point.

        Only normalized shrinkers (rho = 1/2) carry a shift; the constant
        is chosen so R + |grad f|^2 - f vanishes at the base point, and its
        constancy elsewhere is then a genuine test.  R and |grad f|^2 are
        read from the `PointEval` of the base point with the unnormalized f.
        """
        if not is_normalized_shrinker(self):
            return 0.0
        base = PointEval(self, [self.base_point], 2)
        base.f = self.potential_jet(base.points, base.metric.space, normalized=False)
        return float(base.pack.scalar.coeffs[0, 0] + base.grad_sq[0] - base.f.coeffs[0, 0])

    def __repr__(self):
        return f"SolitonInstance({self.name!r}, n={self.n}, rho={self.rho}, kind={self.kind})"


# ---------------------------------------------------------------------------
# point and block evaluation, and residuals

def _norm(norm_sq):
    """|T| from |T|^2, a float's or each row's: the root of max(|T|^2, 0.0) as
    Python's max takes it, so -0.0 and NaN keep theirs."""
    return np.sqrt(np.where(norm_sq < 0.0, 0.0, norm_sq))


class PointEval:
    """Lazy, cached geometry of one instance at a block of sample points.

    A block is the `PointEval` of a list of points, one point being a block
    of one: each property holds one row per point, on a point axis, with the
    bits of that point's own evaluation, and a norm an array of one value
    per row.  Readers take the block as it is (`read_rows`); no row is
    copied out to a point.  `frame` is the (P, n, n) array of the adapted
    frames, and |grad f| is read from `grad_f_norm` alone.
    """

    def __init__(self, inst, points, order):
        self.inst = inst
        self.points = np.asarray(points, dtype=float).tolist()
        self.order = order

    @cached_property
    def metric(self):
        return self.inst.metric_at(self.points, self.order)

    @cached_property
    def pack(self):
        """The curvature pack, filled point by point (`_fill_per_point`) where
        `block_rule` says the layers of Riemann's size do not pay as blocks."""
        if len(self.points) > 1 and not block_rule(self.inst.n, self.order)[1]:
            return self._fill_per_point()
        return curvature_pack(self.metric)

    @cached_property
    def f(self):
        return self.inst.potential_jet(self.points, self.metric.space)

    @cached_property
    def df(self):
        return scalar_gradient(self.f)

    @cached_property
    def hess_f(self):
        """Hess f = nabla df, from `df` truncated to order 1: its values are all readers need."""
        return covariant_derivative(self.df.truncated(1), self.pack)

    @cached_property
    def gradf_up_values(self):
        """grad f = g^-1 df at values, one stacked matmul."""
        return (self.metric.g_inv.values @ self.df.values[..., None])[..., 0]

    @cached_property
    def grad_sq(self):
        """|grad f|^2 = df . grad f at values, of each row: the one recipe of
        |grad f|^2, and `grad_f_norm` its root."""
        return row_dot(self.df.values, self.gradf_up_values)

    @cached_property
    def grad_f_norm(self):
        return _norm(self.grad_sq)

    @cached_property
    def grad_sq_jet(self):
        return levelset.grad_sq_jet(self)

    @cached_property
    def weyl(self):
        """W; from order 4 a point-by-point fill of the pack holds it."""
        pack = self.pack
        held = vars(self).get("weyl")
        return weyl(pack) if held is None else held

    @cached_property
    def div_weyl(self):
        """div W in its last slot, shared by eq 2.2 and the Bach tensor; from
        order 4 a point-by-point fill of the pack holds it."""
        pack = self.pack
        held = vars(self).get("div_weyl")
        return divergence(self.weyl, pack, 3) if held is None else held

    @cached_property
    def cotton(self):
        return cotton(self.pack)

    @cached_property
    def bach(self):
        return bach(self.pack, self.cotton, self.weyl, self.div_weyl)

    @cached_property
    def dtensor(self):
        return d_tensor(self.pack, self.df, cross_check=self.inst.kind is not None)

    @cached_property
    def d_norm_sq(self):
        """|D|^2, the full metric contraction of `dtensor`; `d_norm` is its root."""
        return tensor_norm_sq(self.dtensor, self.metric)

    @cached_property
    def d_norm(self):
        return _norm(self.d_norm_sq)

    @cached_property
    def cotton_norm(self):
        return _norm(tensor_norm_sq(self.cotton, self.metric))

    @cached_property
    def weyl_norm(self):
        return _norm(tensor_norm_sq(self.weyl, self.metric))

    @cached_property
    def bach_norm(self):
        return _norm(tensor_norm_sq(self.bach, self.metric))

    @cached_property
    def div_bach(self):
        """Values of div B; raises InsufficientOrderError below order 5."""
        return divergence(self.bach, self.pack, 1).values

    @cached_property
    def frame(self):
        return levelset.adapted_frame(self)

    @cached_property
    def level_surface(self):
        return levelset.second_fundamental_form(self)

    @cached_property
    def frame_weyl(self):
        """W in the adapted frame, slot by slot."""
        return levelset.in_frame(self.frame, self.weyl.values)

    @cached_property
    def prop32_terms(self):
        return levelset.prop32_terms(self)

    def _fill_per_point(self):
        """The pack and, from order 4, where the suite reads B, W and div W,
        evaluated point by point; returns the pack and caches W and div W.

        Each point in turn evaluates its layers as the block of its row
        (`_block_of_rows`), writes them into the block's arrays, allocated at
        the first point, and is dropped before the next, so one point's layers
        are alive at a time.  A cross-check raises the first failing point's error.
        """
        metric = self.metric  # the block's: each point takes its row
        blocks = kinds = None
        for p in range(len(self.points)):
            one = _block_of_rows(self, [p])
            pack = one.pack
            tensors = [pack.gamma, pack.riemann, pack.ricci]
            if self.order >= 4:
                tensors += [one.weyl, one.div_weyl]
            arrays = [t.data for t in tensors] + [pack.scalar.coeffs]
            if blocks is None:
                blocks = [np.empty((len(self.points),) + x.shape[1:]) for x in arrays]
                kinds = [(t.space, t.valence) for t in tensors]
            for block, x in zip(blocks, arrays):
                block[p] = x[0]
            del one, pack, tensors, arrays
        *data, scalar = blocks
        gamma, riemann, ricci, *weyl_layers = [TensorJet(space, valence, block)
                                               for (space, valence), block in zip(kinds, data)]
        if weyl_layers:
            self.weyl, self.div_weyl = weyl_layers
        return CurvaturePack(metric, gamma, riemann, ricci, JetScalar(ricci.space, scalar))


# Each residual below returns (absolute_residual, scale_of_largest_term), one
# value per row of a block.

def soliton_eq_residual(ev):
    """Ric + Hess f - rho g at each row of a block."""
    hess = ev.hess_f.values
    g = ev.metric.g.values
    ric = ev.pack.ricci.values
    resid = row_abs_max(ric + hess - ev.inst.rho * g)
    return resid, row_max(row_abs_max(ric), row_abs_max(hess), abs(ev.inst.rho) * row_abs_max(g))


def hamilton_first_residual(ev):
    """dR - 2 Ric(grad f) at each row of a block (needs order 3)."""
    d_scal = ev.pack.dscalar.values
    rhs = (2.0 * ev.pack.ricci.values @ ev.gradf_up_values[..., None])[..., 0]
    return row_abs_max(d_scal - rhs), row_max(row_abs_max(d_scal), row_abs_max(rhs))


def hamilton_second_residual(ev):
    """R + |grad f|^2 - f at each row of a block."""
    grad_sq = ev.grad_sq
    r = ev.pack.scalar.coeffs[..., 0]
    f0 = ev.f.coeffs[..., 0]
    return np.abs(r + grad_sq - f0), row_max(np.abs(r), grad_sq, np.abs(f0))


def is_normalized_shrinker(inst):
    """Whether the first integrals apply: a shrinker (or Einstein) with rho = 1/2."""
    return inst.rho == 0.5 and inst.kind in ("shrinking", "einstein")


def points_of(evals):
    """The points of the rows of the blocks `evals`, in order."""
    return [point for ev in evals for point in ev.points]


def _evaluated(evals, fn):
    """(evaluation, fn of it) of each of `evals`, in order, fn taken when asked for.

    A block of several points where fn raises is replaced in `evals` by blocks
    of one, one per point, and fn is taken of each in turn: the first point
    where it raises raises its own error, as point-by-point evaluation does,
    and later readers of `evals` read the points.  Each point keeps its rows
    of whichever of the metric, g^-1, f and grad f the block holds
    (`_block_of_rows`) and evaluates the rest from its chart point.
    """
    k = 0
    while k < len(evals):
        ev = evals[k]
        try:
            out = fn(ev)
        except _BLOCK_ERRORS:
            if len(ev.points) == 1:
                raise
            evals[k:k + 1] = [_block_of_rows(ev, [p]) for p in range(len(ev.points))]
            continue
        k += 1
        yield ev, out


def read_rows(evals, fn):
    """(point, *outputs) of each row of `evals`, in order: fn's outputs at the
    evaluation that holds the row, one value per row (or one for all rows),
    taken once per evaluation (`_evaluated`)."""
    for ev, out in _evaluated(evals, fn):
        shape = (len(ev.points),)
        yield from zip(ev.points, *(np.broadcast_to(x, shape).tolist() for x in out))


def max_over_rows(evals, fn):
    """np.max of fn's one output over every row of `evals`: unlike max, it
    lets a NaN at any row through."""
    return float(np.max([x for _, x in read_rows(evals, lambda ev: (fn(ev),))]))


# ---------------------------------------------------------------------------
# sampling

def instance_rng(inst, seed, salt=0):
    """The instance's generator for `seed`: ConfigurationError unless it is an integer >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(inst.name.encode()), salt])
    )


def whole_count(inst, n, what, least=-math.inf):
    """`n` as an int: ConfigurationError unless it is an integer >= `least` (a bool is not)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ConfigurationError(f"{inst.name}: need a whole number of {what}, got {n!r}")
    return int(n)


def _excluded(inst, point):
    return inst.excluded_distance(point) < MIN_EXCLUDED_DISTANCE


def admit_points(inst, points, order):
    """The order-`order` evaluations of the `points` that the admission rule
    accepts, in order: blocks and, where a block raised, blocks of one.

    The one admission rule: reject a point near an excluded locus and, unless
    the potential is constant, a point where |grad f| < MIN_GRAD_DISTANCE,
    read from the evaluation that is returned to the point's readers.  The
    points not excluded are evaluated as one block (`evaluate_points`) before
    |grad f| is read, so an excluded point is never evaluated; a block with
    rejected rows gives way to the block of its other rows.
    """
    kept = [point for point in points if not _excluded(inst, point)]
    admitted = []
    for ev in evaluate_points(inst, kept, order):
        steep = inst.trivial or ~(ev.grad_f_norm < MIN_GRAD_DISTANCE)
        rows = np.flatnonzero(np.broadcast_to(steep, (len(ev.points),)))
        if len(rows) == len(ev.points):
            admitted.append(ev)
        elif len(rows):  # some rows of a block
            admitted.append(_block_of_rows(ev, rows))
    return admitted


def _block_of_rows(block, rows):
    """The block of the `rows` of `block`, with their rows of whichever of the
    metric (g, g^-1), f and grad f `block` holds."""
    out = PointEval(block.inst, [block.points[p] for p in rows], block.order)
    held = vars(block)

    def take(t):
        return TensorJet(t.space, t.valence, t.data[rows])

    if "metric" in held:
        metric = block.metric
        out.metric = MetricAtPoint(metric.space, out.points, take(metric.g), take(metric.g_inv))
    if "f" in held:
        out.f = JetScalar(block.f.space, block.f.coeffs[rows])
    if "df" in held:
        out.df = take(block.df)
    return out


def evaluate_points(inst, points, order):
    """Order-`order` evaluations at `points` with their metric, g^-1, f and
    grad f: one block, the `PointEval` of the list of points, or, if the
    block raises, blocks of one, evaluated one by one (`_evaluated`)."""
    evals = [PointEval(inst, points, order)] if len(points) else []
    for _ in _evaluated(evals, lambda ev: ev.df):  # the metric, then f and grad f
        pass
    return evals


def block_rule(n, order):
    """Rows per block of sample points at dimension n and metric order `order`,
    and whether the layers of Riemann's size are blocks as well.

    A size threshold decides the layers: n^4 x pairs x 8 bytes a row, n^4
    being Riemann's components and pairs the product pairs of its order
    (order - 2), the size at which the pack, W and div W form their
    products.  It is not the temporaries of the kernel `jet_einsum` picks,
    whose chunks bound those.  The layers are blocks where at least
    MIN_BLOCK_ROWS rows keep the threshold within BLOCK_BYTES, and a block
    then holds as many rows as do: measured against point-by-point
    evaluation (ROADMAP item 7), their blocks lose from dimension 4 at order
    5 and at dimension 5 from order 4, and pay at (3, 5).  Elsewhere each
    point forms that product alone (`PointEval.pack`), `jet_einsum`
    bounds the temporaries of the block's own products, and the block is
    sized from its largest arrays, its metric jets g and g^-1 (n^2
    components at the metric's order and at Riemann's): as many rows of
    them as one point's product holds bytes, at least MIN_BLOCK_ROWS.
    """
    riemann = JetSpace.get(n, max(order - 2, 0))
    product_row = n ** 4 * len(riemann.mul_left) * 8
    fit = BLOCK_BYTES // product_row
    if fit >= MIN_BLOCK_ROWS:
        return fit, True
    metric_row = n * n * (JetSpace.get(n, order).n_terms + riemann.n_terms) * 8
    return max(product_row // metric_row, MIN_BLOCK_ROWS), False


def sample_evals(inst, n_points, seed, order):
    """Order-`order` evaluations, in blocks (`admit_points`), of
    deterministic chart samples that the admission rule accepts.

    Candidates are drawn in blocks of at most as many as are still needed
    (and `block_rule`'s rows); one draw of k candidates gives the stream of k
    single draws, so each block is admitted in draw order by `admit_points`.
    No candidate past the last admitted one is drawn or evaluated, so an
    error is the one a point-by-point sampler meets first.
    """
    n_points = whole_count(inst, n_points, "at least 1 sample point", 1)
    rng = instance_rng(inst, seed)
    lo = np.array([b[0] for b in inst.box])
    hi = np.array([b[1] for b in inst.box])
    rows = block_rule(inst.n, order)[0]
    evals, admitted, drawn = [], 0, 0
    while admitted < n_points and drawn < MAX_CANDIDATES:
        k = min(rows, n_points - admitted, MAX_CANDIDATES - drawn)
        block = admit_points(inst, lo + (hi - lo) * rng.random((k, inst.n)), order)
        evals += block
        admitted += len(points_of(block))
        drawn += k
    if admitted < n_points:
        raise ConfigurationError(
            f"{inst.name}: could not draw {n_points} admissible sample points"
        )
    return evals


def sample_points(inst, n_points, seed):
    """The chart points of `sample_evals`, for callers that need no evaluation."""
    return [np.array(point) for point in points_of(sample_evals(inst, n_points, seed, 1))]


def certify(inst, evals):
    """Certify the defining equation (and first integrals for shrinkers).

    Reads the residuals row by row (`read_rows`) from evaluations of order 3
    or more.  Returns a dict of residual maxima; raises ValidationError when
    the instance is not a soliton of its declared kind.
    """
    if inst.kind is None:
        rows = itertools.islice(read_rows(evals, soliton_eq_residual), CONTROL_POINTS)
        worst = max(resid for _, resid, _ in rows)
        raise ValidationError(
            f"{inst.name}: negative control, defining-equation residual "
            f"{worst:.3e} (kind-less instances are rejected by design)"
        )
    worst = 0.0
    argmax = evals[0].points[0]
    for point, r, _ in read_rows(evals, soliton_eq_residual):
        if not math.isfinite(r):
            raise ValidationError(
                f"{inst.name}: non-finite defining-equation residual {r} at {point}"
            )
        if r > worst:
            worst, argmax = r, point
    result = {
        "name": inst.name,
        "soliton_residual": worst,
        "argmax_point": list(argmax),
        "n_points": len(points_of(evals)),
        "f_shift": inst.f_shift,
        "base_point": list(inst.base_point),
    }
    if worst > SOLITON_TOL:
        raise ValidationError(
            f"{inst.name}: defining-equation residual {worst:.3e} exceeds {SOLITON_TOL:.1e} "
            f"at {argmax}"
        )
    if is_normalized_shrinker(inst):
        h1 = h2 = 0.0
        for point, a, b in read_rows(evals, lambda ev: (hamilton_first_residual(ev)[0],
                                                         hamilton_second_residual(ev)[0])):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValidationError(
                    f"{inst.name}: non-finite first-integral residuals ({a}, {b}) "
                    f"at {point}"
                )
            h1, h2 = max(h1, a), max(h2, b)
        result["first_integral_residuals"] = (h1, h2)
        if max(h1, h2) > HAMILTON_TOL:
            raise ValidationError(
                f"{inst.name}: first-integral residuals ({h1:.3e}, {h2:.3e}) "
                f"exceed {HAMILTON_TOL:.1e}"
            )
    return result


def validate_instance(inst, n_points=20, seed=7):
    """Certify an instance on `n_points` fresh order-3 point evaluations; see `certify`."""
    return certify(inst, sample_evals(inst, n_points, seed, 3))


# ---------------------------------------------------------------------------
# built-in instances: specs in the extension grammar, built as extensions are
#
# Each expression keeps the operation order of the closed form it transcribes,
# which fixes its rounding: 1 + (x1*x1 + x2*x2), not 1 + x1^2 + x2^2.  A
# square is x*x, one product and no `int_power` call on the level-set root
# finder's float path.

def _squares(indices):
    return " + ".join(f"x{k}*x{k}" for k in indices)


def _sphere(indices, radius_sq):
    """Squared conformal factor of a round sphere, radius^2 `radius_sq`, stereographic chart."""
    return f"(2/(1 + ({_squares(indices)})))^2*{radius_sq:g}"


def _quadratic(indices, offset):
    return f"({_squares(indices)})/4 + {offset:g}"


def _spec(name, rho, kind, diagonal, potential, box, base_point, description):
    """A spec whose metric is `diagonal` on the diagonal and 0 elsewhere."""
    n = len(diagonal)
    metric = [[diagonal[i] if i == j else "0" for j in range(n)] for i in range(n)]
    return {"name": name, "n": n, "rho": rho, "kind": kind, "metric": metric,
            "potential": potential, "domain": {"box": box}, "base_point": base_point,
            "description": description}


def _perturbed(n, off_terms):
    """Generic curved control, a non-soliton on purpose; `off_terms` are (i, j, a, b)."""
    # cubic diagonal terms keep the Ricci derivative (hence the Cotton
    # tensor) first order in the perturbation; sizes chosen to stay
    # positive definite on [-2, 2]^n by a Gershgorin margin
    diagonal = [f"1 + 0.15*x{k}*x{k} + 0.05*x{k2}*x{k2}*x{k2}"
                for k, k2 in (((i + 1) % n + 1, (i + 2) % n + 1) for i in range(n))]
    spec = _spec(f"perturbed-non-soliton-r{n}", 0.5, None, diagonal,
                 _quadratic(range(1, n + 1), 0), [[-2, 2]] * n, [1] * n,
                 "generic curved metric; fails certification by design")
    for i, j, a, b in off_terms:
        spec["metric"][i][j] = spec["metric"][j][i] = f"0.05*x{a}*x{b}"
    return spec


_WARPED_FIBER = [[-1.2, 1.2]] * 3  # unit round S^3 in stereographic chart over r = x1
BUILTIN_SPECS = [
    *(_spec(f"gaussian-r{n}", 0.5, "shrinking", ["1"] * n, _quadratic(range(1, n + 1), 0),
            [[-3, 3]] * n, [2] + [0] * (n - 1), "flat chart, quadratic potential")
      for n in (3, 4, 5)),
    *(_spec(f"sphere-s{n}", 0.5, "einstein", [_sphere(range(1, n + 1), 2 * (n - 1))] * n, "0",
            [[-1.5, 1.5]] * n, [0.3, 0.1] + [0] * (n - 2),
            f"round sphere of radius sqrt({2 * (n - 1)}), stereographic chart")
      for n in (4, 5)),
    *(_spec(f"cylinder-s{n - 1}xr", 0.5, "shrinking",
            [_sphere(range(1, n), 2 * (n - 2))] * (n - 1) + ["1"], _quadratic([n], (n - 1) / 2),
            [[-1.2, 1.2]] * (n - 1) + [[-4, 4]], [0] * (n - 1) + [2],
            f"round {n - 1}-sphere of radius sqrt({2 * (n - 2)}) times a line")
      for n in (3, 4, 5)),
    *(_spec(f"s2xr{n - 2}", 0.5, "shrinking", [_sphere([1, 2], 2)] * 2 + ["1"] * (n - 2),
            _quadratic(range(3, n + 1), 1), [[-1.2, 1.2]] * 2 + [[-3, 3]] * (n - 2),
            [0, 0, 2] + [0] * (n - 3), "round 2-sphere of radius sqrt(2) times a flat factor")
      for n in (4, 5)),
    _spec("einstein-cylinder-s2xs2xr", 0.5, "shrinking",
          [_sphere([1, 2], 2)] * 2 + [_sphere([3, 4], 2)] * 2 + ["1"], _quadratic([5], 2),
          [[-1.2, 1.2]] * 4 + [[-4, 4]], [0, 0, 0, 0, 2],
          "Einstein product of two round 2-spheres, times a line"),
    # warped products dr^2 + phi(r)^2 g_fiber
    _spec("warped-cylinder", 0.5, "shrinking", ["1"] + [_sphere([2, 3, 4], 4)] * 3,
          _quadratic([1], 1.5), [[-4, 4]] + _WARPED_FIBER, [2, 0, 0, 0],
          "constant warping phi = 2; same geometry as cylinder-s3xr"),
    _spec("warped-sphere-s4", 0.5, "einstein",
          ["1"] + [f"{_sphere([2, 3, 4], 1)}*(sqrt(6)*sin(x1/sqrt(6)))^2"] * 3, "0",
          [[0.4, 2]] + _WARPED_FIBER, [1, 0, 0, 0],
          "round 4-sphere in geodesic polar chart (sinusoidal warping)"),
    _spec("steady-flat-r4", 0, "steady", ["1"] * 4, "x1 + 0", [[-3, 3]] * 4,
          [1, 0.3, 0.2, 0.1], "flat metric with a linear potential (degenerate steady)"),
    _spec("expanding-gaussian-r4", -0.5, "expanding", ["1"] * 4,
          f"-(0 + {_squares(range(1, 5))})/4", [[-3, 3]] * 4, [2, 0, 0, 0],
          "flat chart, negated quadratic potential"),
    _perturbed(4, [(0, 1, 3, 4), (2, 3, 1, 2)]),
    _perturbed(5, [(0, 1, 3, 4), (2, 3, 5, 1), (1, 4, 1, 3)]),
    # Hamilton's cigar (dx1^2 + dx2^2)/(1 + |x|^2), f = -log(1 + |x|^2), times
    # flat R^k: steady solitons whose Ricci tensor is not parallel
    *(_spec(f"cigar-r{n - 2}", 0, "steady",
            [f"1/(1 + ({_squares([1, 2])}))"] * 2 + ["1"] * (n - 2),
            f"-log(1 + ({_squares([1, 2])}))", [[-2, 2]] * n, [1, 0.5] + [0] * (n - 2),
            f"Hamilton's cigar times R^{n - 2} (steady, Ricci not parallel)")
      for n in (4, 5)),
]


def catalog():
    """All built-in instances, negative controls included."""
    return [instance_from_spec(spec) for spec in BUILTIN_SPECS]


def get_instance(name, extra=()):
    """The instance of that name among `extra` and the built-ins; builds only that one."""
    for inst in extra:
        if inst.name == name:
            return inst
    for spec in BUILTIN_SPECS:
        if spec["name"] == name:
            return instance_from_spec(spec)
    raise ConfigurationError(f"no catalog instance named {name!r}")


# ---------------------------------------------------------------------------
# JSON catalog extensions

def finite_numbers(values, what):
    """The entries of `values` as floats; ConfigurationError unless all are finite."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError):
        out = [math.nan]
    if not all(math.isfinite(x) for x in out):
        raise ConfigurationError(f"{what} must hold finite numbers, got {values!r}")
    return out


def json_numbers(values, what):
    """`finite_numbers` for a JSON list, where a boolean or a string is not a number."""
    if not isinstance(values, list) or any(isinstance(v, (bool, str)) for v in values):
        raise ConfigurationError(f"{what} must hold finite numbers, got {values!r}")
    return finite_numbers(values, what)


def _ball_exclusion(center, radius):
    c = np.asarray(center, dtype=float)

    def dist(p):
        return float(np.linalg.norm(p - c) - radius)

    return dist


def instance_from_spec(spec):
    """Build an instance from a JSON-style dict of expression strings."""
    required = {"name", "n", "rho", "metric", "potential", "domain"}
    missing = required - set(spec)
    if missing:
        raise ConfigurationError(f"catalog extension missing fields: {sorted(missing)}")
    name = spec["name"]
    if not (isinstance(name, str) and name):
        raise ConfigurationError(f"name must be a non-empty string, got {name!r}")
    description = spec.get("description", "catalog extension")
    if not isinstance(description, str):
        raise ConfigurationError(f"description must be a string, got {description!r}")
    n = spec["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigurationError(f"n must be an integer, got {n!r}")
    kind = spec.get("kind")
    if kind is not None and kind not in KINDS:
        raise ConfigurationError(f"kind must be one of {', '.join(KINDS)} or null, got {kind!r}")
    rows = spec["metric"]
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ConfigurationError("metric must be an n-by-n grid of expressions")
    # every distinct entry compiles once; those of the upper triangle are
    # evaluated once per call and mirrored, the lower ones never
    texts = [[str(e) for e in row] for row in rows]
    compiled = {t: compile_expression(t, n) for t in dict.fromkeys(sum(texts, []))}
    upper = [[texts[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    evaluated = {t: compiled[t] for i in range(n) for t in upper[i][i:]}
    potential = compile_expression(str(spec["potential"]), n)

    def metric_fn(xs):
        values = {t: fn(xs) for t, fn in evaluated.items()}
        return [[values[t] for t in row] for row in upper]

    (rho,) = json_numbers([spec["rho"]], "rho")
    domain = spec["domain"]
    box = domain.get("box") if isinstance(domain, dict) else None
    if not isinstance(box, list):
        raise ConfigurationError(f"domain.box must be a list of {n} pairs, got {box!r}")
    box = [tuple(json_numbers(b, "domain.box")) for b in box]
    if len(box) != n or any(len(b) != 2 or not b[0] < b[1] for b in box):
        raise ConfigurationError(
            f"domain.box must hold {n} pairs [lo, hi] with lo < hi, got {box}"
        )
    if not all(math.isfinite(hi - lo) for lo, hi in box):  # the sampler draws lo + (hi - lo) u
        raise ConfigurationError(f"domain.box widths hi - lo must be finite, got {box}")
    excluded = spec.get("excluded", [])
    if not (isinstance(excluded, list) and all(isinstance(e, dict) for e in excluded)):
        raise ConfigurationError(f"excluded must be a list of balls, got {excluded!r}")
    balls = []
    for e in excluded:
        center = json_numbers(e.get("center", []), "excluded center")
        (radius,) = json_numbers([e.get("radius", 0.0)], "excluded radius")
        if len(center) != n or radius < 0.0:
            raise ConfigurationError(
                f"excluded ball needs a center of {n} coordinates and a radius >= 0, got {e!r}"
            )
        balls.append(_ball_exclusion(center, radius))
    base = spec.get("base_point")
    if base is None:  # only an absent base point defaults to the box centre
        base = [(lo + hi) / 2.0 for lo, hi in box]
    base = json_numbers(base, "base_point")
    if len(base) != n or not all(lo <= x <= hi for x, (lo, hi) in zip(base, box)):
        raise ConfigurationError(f"base_point {base} must be {n} coordinates inside the box")
    return SolitonInstance(
        name=name,
        n=n,
        rho=rho,
        kind=kind,
        metric_fn=metric_fn,
        potential_fn=potential,
        box=box,
        base_point=base,
        excluded=balls,
        description=description,
    )


def load_extension_file(path):
    """The instances of a JSON extension file; ConfigurationError if it is malformed
    or a name repeats a built-in one or another in the file."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigurationError(f"cannot read extension file {path}: {err}") from None
    specs = doc.get("instances", []) if isinstance(doc, dict) else None
    if not (isinstance(specs, list) and all(isinstance(s, dict) for s in specs)):
        raise ConfigurationError(
            f'{path}: need a JSON object whose "instances" is a list of objects'
        )
    insts = [instance_from_spec(s) for s in specs]
    taken = {spec["name"] for spec in BUILTIN_SPECS}
    for inst in insts:
        if inst.name in taken:
            raise ConfigurationError(f"{path}: instance name {inst.name!r} is already taken")
        taken.add(inst.name)
    return insts
