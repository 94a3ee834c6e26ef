"""Catalog of concrete gradient Ricci soliton instances.

Each instance bundles a metric family, a potential and the soliton
constant on an explicit chart box.  Built-in and user instances alike are
specs of expression strings, built by `instance_from_spec`.  Sphere
factors use stereographic coordinates so that components are rational and
jets are exact; the only chart pole sits outside every box.  A
deliberately perturbed non-soliton pair is included as a negative control
for the verification harness.
"""

import math
import numbers
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import levelset
from .conformal import bach, cotton, d_tensor, weyl
from .curvature import covariant_derivative, curvature_pack, divergence, scalar_gradient
from .errors import ConfigurationError, DomainError, ValidationError
from .exprs import compile_expression
from .jets import JetScalar, JetSpace, constant, coordinate_jets
from .tensors import metric_at_point, tensor_norm_sq

KINDS = ("shrinking", "steady", "expanding", "einstein")
SOLITON_TOL = 1e-9
HAMILTON_TOL = 1e-9
MIN_GRAD_DISTANCE = 1e-3
MIN_EXCLUDED_DISTANCE = 1e-3
CONTROL_POINTS = 8  # sample points that size a negative control's rejection


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

    def metric_at(self, point, order):
        return metric_at_point(self.metric_fn, point, self.n, order)

    def potential_jet(self, point, space, normalized=True):
        xs = coordinate_jets(space, point)
        f = self.potential_fn(xs)
        if not isinstance(f, JetScalar):
            f = constant(space, float(f))
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
        constancy elsewhere is then a genuine test.
        """
        if not is_normalized_shrinker(self):
            return 0.0
        space = JetSpace.get(self.n, 2)
        metric = self.metric_at(self.base_point, 2)
        pack = curvature_pack(metric)
        f = self.potential_jet(self.base_point, space, normalized=False)
        df = scalar_gradient(f)
        grad_sq = float(df.values @ metric.g_inv.values @ df.values)
        return pack.scalar.value + grad_sq - f.value

    def __repr__(self):
        return f"SolitonInstance({self.name!r}, n={self.n}, rho={self.rho}, kind={self.kind})"


# ---------------------------------------------------------------------------
# per-point evaluation and residuals

def _norm(t, metric):
    return math.sqrt(max(tensor_norm_sq(t, metric), 0.0))


class PointEval:
    """Lazy, cached geometry of one instance at one sample point."""

    def __init__(self, inst, point, order):
        self.inst = inst
        self.point = [float(x) for x in point]
        self.order = order

    @cached_property
    def metric(self):
        return self.inst.metric_at(self.point, self.order)

    @cached_property
    def pack(self):
        return curvature_pack(self.metric)

    @cached_property
    def f(self):
        return self.inst.potential_jet(self.point, self.metric.space)

    @cached_property
    def df(self):
        return scalar_gradient(self.f)

    @cached_property
    def hess_f(self):
        """Hess f = nabla df, from `df` truncated to order 1: its values are all readers need."""
        return covariant_derivative(self.df.truncated(1), self.pack)

    @cached_property
    def gradf_up_values(self):
        return self.metric.g_inv.values @ self.df.values

    @cached_property
    def weyl(self):
        return weyl(self.pack)

    @cached_property
    def div_weyl(self):
        """div W in its last slot, shared by eq 2.2 and the Bach tensor."""
        return divergence(self.weyl, self.pack, 3)

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
        return math.sqrt(max(self.d_norm_sq, 0.0))

    @cached_property
    def cotton_norm(self):
        return _norm(self.cotton, self.metric)

    @cached_property
    def weyl_norm(self):
        return _norm(self.weyl, self.metric)

    @cached_property
    def bach_norm(self):
        return _norm(self.bach, self.metric)

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


# Each residual below returns (absolute_residual, scale_of_largest_term).

def soliton_eq_residual(ev):
    """Ric + Hess f - rho g at one point evaluation."""
    hess = ev.hess_f
    g = ev.metric.g.values
    ric = ev.pack.ricci.values
    resid = np.abs(ric + hess.values - ev.inst.rho * g).max()
    scale = max(np.abs(ric).max(), np.abs(hess.values).max(), abs(ev.inst.rho) * np.abs(g).max())
    return float(resid), float(scale)


def hamilton_first_residual(ev):
    """dR - 2 Ric(grad f) at one point evaluation (needs order 3)."""
    d_scal = ev.pack.dscalar.values
    rhs = 2.0 * ev.pack.ricci.values @ ev.gradf_up_values
    resid = np.abs(d_scal - rhs).max()
    return float(resid), float(max(np.abs(d_scal).max(), np.abs(rhs).max()))


def hamilton_second_residual(ev):
    """R + |grad f|^2 - f at one point evaluation."""
    grad_sq = float(ev.df.values @ ev.gradf_up_values)
    r = ev.pack.scalar.value
    f0 = ev.f.value
    return abs(r + grad_sq - f0), max(abs(r), grad_sq, abs(f0))


def is_normalized_shrinker(inst):
    """Whether the first integrals apply: a shrinker (or Einstein) with rho = 1/2."""
    return inst.rho == 0.5 and inst.kind in ("shrinking", "einstein")


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


def admit(inst, point, order):
    """The order-`order` point evaluation at a sampled point, or None if it is rejected.

    The one admission rule: reject a point near an excluded locus and, unless
    the potential is constant, a point where |grad f| < MIN_GRAD_DISTANCE,
    read from the evaluation that is returned to the point's readers.
    """
    if inst.excluded_distance(point) < MIN_EXCLUDED_DISTANCE:
        return None
    ev = PointEval(inst, point, order)
    if inst.trivial:
        return ev
    grad_norm = math.sqrt(max(ev.df.values @ ev.gradf_up_values, 0.0))
    return None if grad_norm < MIN_GRAD_DISTANCE else ev


def sample_evals(inst, n_points, seed, order):
    """Order-`order` point evaluations at deterministic chart samples that `admit` accepts."""
    n_points = whole_count(inst, n_points, "at least 1 sample point", 1)
    rng = instance_rng(inst, seed)
    lo = np.array([b[0] for b in inst.box])
    hi = np.array([b[1] for b in inst.box])
    evals = []
    for _ in range(20000):  # candidates drawn before giving up
        if len(evals) == n_points:
            break
        ev = admit(inst, lo + (hi - lo) * rng.random(inst.n), order)
        if ev is not None:
            evals.append(ev)
    if len(evals) < n_points:
        raise ConfigurationError(
            f"{inst.name}: could not draw {n_points} admissible sample points"
        )
    return evals


def sample_points(inst, n_points, seed):
    """The chart points of `sample_evals`, for callers that need no evaluation."""
    return [np.array(ev.point) for ev in sample_evals(inst, n_points, seed, 1)]


def certify(inst, evals):
    """Certify the defining equation (and first integrals for shrinkers).

    Reads the residuals from point evaluations of order 3 or more.
    Returns a dict of residual maxima; raises ValidationError when the
    instance is not a soliton of its declared kind.
    """
    if inst.kind is None:
        worst = max(soliton_eq_residual(ev)[0] for ev in evals[:CONTROL_POINTS])
        raise ValidationError(
            f"{inst.name}: negative control, defining-equation residual "
            f"{worst:.3e} (kind-less instances are rejected by design)"
        )
    worst = 0.0
    argmax = evals[0].point
    for ev in evals:
        r = soliton_eq_residual(ev)[0]
        if not math.isfinite(r):
            raise ValidationError(
                f"{inst.name}: non-finite defining-equation residual {r} at {ev.point}"
            )
        if r > worst:
            worst, argmax = r, ev.point
    result = {
        "name": inst.name,
        "soliton_residual": worst,
        "argmax_point": list(argmax),
        "n_points": len(evals),
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
        for ev in evals:
            a = hamilton_first_residual(ev)[0]
            b = hamilton_second_residual(ev)[0]
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValidationError(
                    f"{inst.name}: non-finite first-integral residuals ({a}, {b}) "
                    f"at {ev.point}"
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
