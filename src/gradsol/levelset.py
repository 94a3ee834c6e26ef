"""Geometry of the potential's level surfaces.

The frame convention: e_1 points along grad f, and the second fundamental
form is taken as h_ab = (Hess f)(e_a, e_b)/|grad f|, which corresponds to
the outward unit normal +e_1.  Checks against the inward normal -e_1
(where a derivative of the frame metric along the normal appears) carry
the compensating sign explicitly.

Every function here reads a block :class:`~gradsol.solitons.PointEval`,
which caches the frame, the Hessian of f, |grad f|^2, |grad f| and the
level-surface data and owns the plan of its curvature's evaluation.  Each
value is read from its one owner: the frame is the (P, n, n) array of
:func:`adapted_frame`, e_1 its ``[..., 0, :]`` row; R, |grad f|^2 and
|grad f| are the evaluation's, h, H and tangential dR
:class:`LevelSurfaceData`'s.  Each function runs its one recipe over the
block's point axis at once, the leading batch axis of every stacked matmul
and of ``eigvalsh``, on operands whose rows lie as their points' own values
do (``TensorJet.values``), so each row has its point's bits.  Results lead
with the point axis.  The residuals of the suite's level-set checks return
``(residual, scale)``, one value per row; :func:`prop31_residual` and
:func:`frame_cotton_components` add a third element, a dict of the
quantities behind the residual.  They need a regular point of a
non-constant potential: the suite's ``CheckSpec.level_sets`` keeps them off
constant potentials, and at a critical point the adapted frame raises
:class:`CriticalPointError`.

:func:`level_points` finds its points by scanning rays from the box
centre.  The potential of each block of rays is evaluated once, on float64
arrays that compiled expressions take elementwise with the bits of their
float path (NaN where that path would raise); the walk along each ray,
the bisection and the ray points are plain floats.  The roots still
needed are evaluated as one block on a point axis (metric, g^-1, f and
grad f at order 3) and admitted in ray order, and :func:`prop32_report`
reads that block as it is: |D|, then the frames, second fundamental forms
and :func:`prop32_terms` of all its rows at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curvature import covariant_derivative
from .errors import (
    ConfigurationError,
    ConsistencyError,
    CriticalPointError,
    HypothesisViolationError,
    LevelPointError,
)
from .jets import JetScalar, jet_einsum
from .jets import sqrt as jets_sqrt
from .tensors import TensorJet, row_abs_max, row_max

GRAD_THRESHOLD = 1e-6
D_ZERO_TOL = 1e-9
_MAX_RAYS = 1200
_SCAN_STEPS = 48


def _quad(a, m, b):
    """a^T m b of each row: two stacked matmuls, the second a dot product."""
    return (a[..., None, :] @ m @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class LevelSurfaceData:
    """Extrinsic data of the level surfaces through the points of a block, point axis first."""

    h: np.ndarray
    H: np.ndarray
    tangential_dR: np.ndarray


def adapted_frame(ev):
    """Orthonormal frames at the points of a block with e_1 = grad f/|grad f|:
    the Gram-Schmidt completion of e_1 against the chart basis.

    Returns a (P, n, n) array, each frame row-wise in chart components: e_1
    is `frame[..., 0, :]` and the tangent frame `frame[..., 1:, :]`.  |grad f|
    is the evaluation's own (`PointEval.grad_f_norm`).  Every row is
    completed at once: each step is one stacked matmul over the point axis.
    A block whose rows branch differently (a chart direction spanned in some
    rows only) completes each row on its own, as a block of one, as its
    point does.
    """
    g0 = ev.metric.g.values
    grad = ev.gradf_up_values
    norm = ev.grad_f_norm
    low = np.flatnonzero(norm < GRAD_THRESHOLD)
    if low.size:
        raise CriticalPointError(
            f"|grad f| = {norm[low[0]]:.3e} below threshold {GRAD_THRESHOLD:.1e}"
        )
    return _completed(g0, grad, norm)


def _completed(g0, grad, norm):
    """The frame vectors of `adapted_frame`, rows on a leading point axis."""
    n = g0.shape[-1]
    vectors = [grad / norm[..., None]]
    for k in range(n):
        v = np.zeros(grad.shape)
        v[..., k] = 1.0
        for e in vectors:
            v = v - _quad(e, g0, v)[..., None] * e
        sq = _quad(v, g0, v)
        skip = sq < 1e-12
        if skip.all():
            continue  # chart direction already spanned; deterministic skip
        if skip.any():  # the rows branch: each completes its own frame, a block of one
            return np.concatenate([_completed(g0[p:p + 1], grad[p:p + 1], norm[p:p + 1])
                                   for p in range(len(g0))])
        vectors.append(v / np.sqrt(sq)[..., None])
        if len(vectors) == n:
            break
    if len(vectors) != n:
        raise ConsistencyError("frame completion failed")
    return np.stack(vectors, axis=-2)


def in_frame(frame, values):
    """Components of a covariant tensor's values in the adapted frame.

    The values (`TensorJet.values`) and the result lead with the point
    axis, as the frame does.
    """
    out = values
    for _ in range(values.ndim - 1):
        # contract the leading chart slot; its frame slot goes last: a copy
        # with that slot last, as np.tensordot makes, and one matmul
        moved = np.moveaxis(out, 1, -1)
        flat = np.ascontiguousarray(moved).reshape(len(moved), -1, moved.shape[-1])
        out = (flat @ np.swapaxes(frame, -1, -2)).reshape(moved.shape[:-1] + (-1,))
    return out


def second_fundamental_form(ev):
    """Second fundamental form and mean curvature in the adapted frame.

    Primary form (Hess f)(e_a, e_b)/|grad f|; on an instance declared a
    soliton the equivalent form (rho g_ab - R_ab)/|grad f| is computed too
    and both must agree to 1e-9, at every row of a block.
    """
    t = ev.frame[..., 1:, :]
    t_up = np.swapaxes(t, -1, -2)
    norm = ev.grad_f_norm[..., None, None]
    h = t @ ev.hess_f.values @ t_up / norm
    if ev.inst.kind is not None:
        ric_f = t @ ev.pack.ricci.values @ t_up
        alt = (ev.inst.rho * np.eye(t.shape[-2]) - ric_f) / norm
        scale = np.maximum(np.maximum(1.0, row_abs_max(h)), row_abs_max(alt))
        # `not <=`, unlike `>`, holds for NaN: a NaN on either form disagrees
        if not np.all(row_abs_max(h - alt) / scale <= 1e-9):
            raise ConsistencyError(
                "second fundamental form: Hessian and soliton forms disagree"
            )
    return LevelSurfaceData(
        h=h,
        H=np.trace(h, axis1=-2, axis2=-1),
        tangential_dR=(t @ ev.pack.dscalar.values[..., None])[..., 0],
    )


def prop32_terms(ev):
    """Prop 3.2's per-point quantities, a tuple of one value per row of a
    block each: the largest mixed Ricci component |Ric(e_1, e_a)|, umbilicity
    max |h - H/(n-1) I|, the predicted eigenvalues lambda and mu, and the
    largest difference between the sorted eigenvalues of Ric in the frame and
    the sorted (lambda, mu, ..., mu).  Ric in the frame is one stacked matmul
    and its eigenvalues one stacked `eigvalsh`."""
    n, rho = ev.inst.n, ev.inst.rho
    v, lsd = ev.frame, ev.level_surface
    r = ev.pack.scalar.coeffs[..., 0]
    ric_f = v @ ev.pack.ricci.values @ np.swapaxes(v, -1, -2)
    h_mean, norm = lsd.H, ev.grad_f_norm
    umbilic = lsd.h - (h_mean / (n - 1))[..., None, None] * np.eye(n - 1)
    lam = r - (n - 1) * rho + h_mean * norm
    mu = rho - h_mean * norm / (n - 1)
    expected = np.sort(np.stack([lam] + [mu] * (n - 1), axis=-1), axis=-1)
    eig = np.sort(np.linalg.eigvalsh(ric_f), axis=-1)
    return (
        np.abs(ric_f[..., 0, 1:]).max(axis=-1),
        row_abs_max(umbilic),
        lam,
        mu,
        np.abs(eig - expected).max(axis=-1),
    )


def prop31_residual(ev):
    """Two-sided residual of the level-surface norm identity for |D|^2.

    lhs = |D|^2; rhs = 2|grad f|^4/(n-2)^2 |h - H/(n-1) g|^2
    + |tangential dR|^2 / (2(n-1)(n-2)).
    """
    n = ev.inst.n
    lsd = ev.level_surface
    lhs = ev.d_norm_sq
    traceless = lsd.h - (lsd.H / (n - 1))[..., None, None] * np.eye(n - 1)
    rhs = (
        2.0 * ev.grad_sq ** 2 / (n - 2) ** 2
        * (traceless ** 2).sum(axis=(-2, -1))
        + (lsd.tangential_dR ** 2).sum(axis=-1) / (2.0 * (n - 1) * (n - 2))
    )
    return np.abs(lhs - rhs), row_max(np.abs(lhs), np.abs(rhs)), {"lhs": lhs, "rhs": rhs}


def _normal_form_derivative(ev, phi):
    """Values of the covariant derivative of the one-form df * phi(|grad f|^2).

    `phi` maps the jet of |grad f|^2 to a scalar jet.
    """
    df = ev.df.truncated(1)  # the derivative's values need the form to order 1
    form = TensorJet(df.space, "d",
                     jet_einsum(df.space, "i,->i", df.data, phi(ev.grad_sq_jet).coeffs))
    return covariant_derivative(form, ev.pack).values


def grad_sq_jet(ev):
    """|grad f|^2 = g^{ij} df_i df_j as an order-1 jet, what the normal-form
    derivatives read."""
    df = ev.df.truncated(1)
    up = jet_einsum(df.space, "ij,j->i", ev.metric.g_inv.data, df.data)
    return JetScalar(df.space, jet_einsum(df.space, "i,i->", up, df.data))


def normal_metric_derivative(ev):
    """Derivative of the frame-metric components along the inward normal.

    The frame fields are dragged along the potential flow, so the
    derivative of g(e_a, e_b) along nu = -grad f/|grad f| equals
    -|grad f| times the symmetrised covariant derivative of df/|grad f|^2
    contracted with the tangent frame.
    """
    t = ev.frame[..., 1:, :]
    dv = _normal_form_derivative(ev, lambda w2: 1.0 / w2)
    lie = dv + np.swapaxes(dv, -1, -2)
    norm = ev.grad_f_norm[..., None, None]
    return -norm * (t @ lie @ np.swapaxes(t, -1, -2))


def normal_geodesic_residual(ev):
    """max |nabla_nu nu| for the unit normal field nu = -grad f/|grad f|.

    The integral curves of the unit normal are geodesics whenever
    |grad f| is constant on level surfaces.
    """
    nu_up = -ev.frame[..., 0, :]  # unit normal, contravariant components
    dnu = _normal_form_derivative(ev, lambda w2: -(1.0 / jets_sqrt(w2)))
    return row_abs_max((nu_up[..., None, :] @ dnu)[..., 0, :]), 1.0


def frame_riemann_e1_tangential(ev):
    """max |Rm(e_1, e_a, e_b, e_c)| over tangential a, b, c."""
    rm = in_frame(ev.frame, ev.pack.riemann.values)
    return row_abs_max(rm[..., 0, 1:, 1:, 1:]), ev.pack.riemann.max_abs()


def frame_cotton_components(ev):
    """Adapted-frame component families of the Cotton and conformal tensors.

    The third element's keys: c_ij1 (third slot along e_1), c_abc (all
    tangential), c_1ab, w_1abc, w_1a1b, and grad_f_norm.  On instances
    whose soliton 3-tensor vanishes the five families vanish and their
    maximum is the residual; elsewhere the record shows which survive.
    """
    c = in_frame(ev.frame, ev.cotton.values)
    w = ev.frame_weyl
    rec = {
        "c_ij1": row_abs_max(c[..., :, :, 0]),
        "c_abc": row_abs_max(c[..., 1:, 1:, 1:]),
        "c_1ab": row_abs_max(c[..., 0, 1:, 1:]),
        "w_1abc": row_abs_max(w[..., 0, 1:, 1:, 1:]),
        "w_1a1b": row_abs_max(w[..., 0, 1:, 0, 1:]),
        "grad_f_norm": ev.grad_f_norm,
    }
    return row_max(*(rec[k] for k in ("c_ij1", "c_abc", "c_1ab", "w_1abc", "w_1a1b"))), 1.0, rec


# ---------------------------------------------------------------------------
# level-point sampling by root finding along chart rays

def _f_value(inst, point):
    """Normalized f at a point given as a list of floats.

    Compiled expressions run order-0 jet arithmetic on floats, so this
    equals the order-0 jet value bit for bit.  On float64 arrays they give
    the same values elementwise, which `_scan` uses; the ray walk calls this
    only at a step where the array value is NaN, so an error of the float
    path surfaces at the step where it arises.
    """
    return float(inst.potential_fn(point)) + inst.f_shift


def _scan(inst, c, anchor, d, s_max, f0):
    """Steps and f - c of a block of rays, and the step where each ray's walk starts.

    Row i of `d` is a unit direction with ray length s_max[i]; f0 is f - c at
    the anchor.  One call of the potential on float64 arrays of shape (rays,
    steps) gives f - c at every step with the float path's bits, NaN where
    `_f_value` would raise.  Returns the steps s, the values v and, per ray,
    the index of its first step that is NaN or ends a bracket (None if no
    step does): the walk of `_ray_root` passes every step before it.
    """
    s = s_max[:, None] * np.arange(1, _SCAN_STEPS + 1) / _SCAN_STEPS
    with np.errstate(all="ignore"):
        f = inst.potential_fn([x + s * d[:, [j]] for j, x in enumerate(anchor)])
        v = (f + inst.f_shift) - c
    v_prev = np.concatenate((np.full((len(d), 1), f0), v[:, :-1]), axis=1)
    # `_ray_root`'s rule for leaving its walk, with NaN for a step it re-evaluates
    stop = np.isnan(v) | (v == 0.0) | (v_prev == 0.0) | ((v > 0) != (v_prev > 0))
    first = np.where(stop.any(axis=1), stop.argmax(axis=1), -1)
    return s, v, [None if k < 0 else k for k in first.tolist()]


def _ray_root(inst, c, ray, steps, values, start, f0):
    """The point where the walk and bisection of one ray find f = c, or None.

    `ray` pairs the anchor's coordinates with the direction's; `steps` and
    `values` are the ray's row of `_scan`, whose `start` is where the walk
    begins, and f0 is f - c at the anchor.  The walk takes the steps in order
    with the rule of a scan on floats; bisection runs to 1e-12 on floats,
    with f - c at the bracket's low end from the scan.
    """
    prev_s, prev_v = (steps[start - 1], values[start - 1]) if start else (0.0, f0)
    bracket = None
    for s, v in zip(steps[start:], values[start:]):
        if math.isnan(v):  # the float path raises here, or gives NaN as well
            v = _f_value(inst, [x + s * y for x, y in ray]) - c
        if prev_v == 0.0:
            bracket = (prev_s, prev_s)
            break
        if v == 0.0 or (v > 0) != (prev_v > 0):
            bracket = (prev_s, s)
            break
        prev_s, prev_v = s, v
    if bracket is None:
        return None
    a, b = bracket
    fa = prev_v  # f - c at a, from the scan
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        fm = _f_value(inst, [x + mid * y for x, y in ray]) - c
        if fm == 0.0:
            a = b = mid
            break
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return [x + 0.5 * (a + b) * y for x, y in ray]


def _ray_roots(inst, c, n_points, seed):
    """The points where rays from the box centre meet f = c, in ray order.

    Rays are drawn in blocks: the first holds `n_points` rays, each later one
    twice as many as the one before, up to 1200 rays in all; a block is drawn
    when the caller asks for a root past the last block's.
    """
    from . import solitons

    rng = solitons.instance_rng(inst, seed, salt=97)
    lo = np.array([float(b[0]) for b in inst.box])
    hi = np.array([float(b[1]) for b in inst.box])
    anchor = ((lo + hi) / 2.0).tolist()
    f0 = _f_value(inst, anchor) - c
    drawn, block = 0, n_points
    while drawn < _MAX_RAYS:
        # one draw of the block's directions gives the stream of one draw per ray
        draws = rng.standard_normal((min(block, _MAX_RAYS - drawn), inst.n))
        drawn, block = drawn + len(draws), 2 * block
        # each row by its own norm, np.linalg.norm's sqrt(row . row): a batched
        # norm sums in another order
        d = draws / np.sqrt([row.dot(row) for row in draws])[:, None]
        # longest ray length keeping anchor + s d inside the box
        with np.errstate(divide="ignore", invalid="ignore"):
            s_max = np.where(d > 1e-12, (hi - anchor) / d,
                             np.where(d < -1e-12, (lo - anchor) / d, np.inf)).min(axis=1)
        keep = np.isfinite(s_max) & (s_max >= 1e-6)
        d, s_max = d[keep], s_max[keep]
        s, v, starts = _scan(inst, c, anchor, d, s_max, f0)
        for i, start in enumerate(starts):
            if start is not None:
                ray = list(zip(anchor, d[i].tolist()))
                point = _ray_root(inst, c, ray, s[i].tolist(), v[i].tolist(), start, f0)
                if point is not None:
                    yield point


def level_points(inst, c, n_points=12, seed=11):
    """Order-3 evaluations, in blocks, of `n_points` points on {f = c}:
    roots along rays that `solitons.admit_points` accepts.

    Needs an integer `n_points >= 1` (not a bool) and a finite `c`
    (ConfigurationError otherwise); HypothesisViolationError for a constant
    potential, which has no regular level values.  Rays leave the box centre
    in blocks (`_ray_roots`).  f at every scan step of a block of rays is one
    evaluation of the potential on float64 arrays, elementwise with the bits
    of the float path, so the potential must take such arrays as compiled
    expressions do.  The rays are then walked in order as a scan on floats
    would walk them; a ray point anchor + s d is one product and one sum per
    coordinate, so every point, step and value is bit-identical to its numpy
    or float formation.  The roots still needed are collected in ray order
    and admitted as one block (`solitons.admit_points`: metric, g^-1, f and
    grad f on one point axis) until `n_points` are admitted.  A collected
    root is evaluated before an error of a later ray's walk surfaces, so
    errors arise in the order a point-by-point walk meets them.
    """
    from . import solitons

    n_points = solitons.whole_count(inst, n_points, "at least 1 level point", 1)
    if not math.isfinite(c):
        raise ConfigurationError(f"{inst.name}: the level must be finite, got {c}")
    if inst.trivial:
        raise HypothesisViolationError(
            f"{inst.name}: potential is constant, there are no regular level values"
        )
    evals, roots = [], []
    try:
        for point in _ray_roots(inst, c, n_points, seed):
            roots.append(point)
            if len(roots) == n_points - len(solitons.points_of(evals)):
                evals += solitons.admit_points(inst, roots, 3)
                roots = []
                if len(solitons.points_of(evals)) == n_points:
                    break
    except Exception:
        solitons.admit_points(inst, roots, 3)  # its error, if any, comes first
        raise
    evals += solitons.admit_points(inst, roots, 3)
    found = len(solitons.points_of(evals))
    if found < n_points:
        raise LevelPointError(f"{inst.name}: found only {found}/{n_points} points on f = {c}")
    return evals


def prop32_report(inst, c, n_points=12, seed=11):
    """Sampled level-surface report for an instance whose 3-tensor D vanishes.

    Checks constancy of R, |grad f|^2 and H across the level surface,
    vanishing of the mixed Ricci components Ric(e_1, e_a), umbilicity of
    the second fundamental form, and the two-eigenvalue structure of the
    Ricci tensor with the predicted values
    lambda = R - (n-1) rho + H |grad f| and mu = rho - H |grad f|/(n-1).
    The level points' evaluations from :func:`level_points` (blocks, as a
    rule) are read as they are, row by row (`solitons.read_rows`): first |D|
    of every row, then, after the D = 0 test, each block's frames, second
    fundamental forms and `prop32_terms` as one stacked evaluation.  R, |grad
    f|^2 and H are read where they live: the block's pack (`PointEval.pack`,
    which plans its own curvature), `PointEval.grad_sq` and
    `PointEval.level_surface`.
    """
    from . import solitons

    evals = level_points(inst, c, n_points=n_points, seed=seed)
    # max_over_rows and `not <=`, unlike max and `>`, let a NaN at any point through
    d_max = solitons.max_over_rows(evals, lambda ev: ev.d_norm)
    if not d_max <= D_ZERO_TOL:
        raise HypothesisViolationError(
            f"{inst.name}: |D| = {d_max:.3e} on the level surface; the report "
            "applies only where the 3-tensor D vanishes"
        )
    rows = solitons.read_rows(evals, lambda ev: (
        *ev.prop32_terms, ev.pack.scalar.coeffs[..., 0], ev.grad_sq, ev.level_surface.H))
    points, ricci_mixed, umbilicity, lam, mu, mismatch, r, grad_sq, h_mean = zip(*rows)

    return {
        "instance": inst.name,
        "level": float(c),
        "n_points": len(points),
        "r_mean": float(np.mean(r)),
        "r_spread": float(np.ptp(r)),
        "grad_sq_mean": float(np.mean(grad_sq)),
        "grad_sq_spread": float(np.ptp(grad_sq)),
        "h_mean": float(np.mean(h_mean)),
        "h_spread": float(np.ptp(h_mean)),
        "ricci_mixed_max": float(np.max(ricci_mixed)),
        "umbilicity_max": float(np.max(umbilicity)),
        "lambda": float(np.mean(lam)),
        "mu": float(np.mean(mu)),
        "eigenvalue_mismatch": float(np.max(mismatch)),
        "points": [list(point) for point in points],
    }
