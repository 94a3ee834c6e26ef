"""Geometry of the potential's level surfaces.

The frame convention: e_1 points along grad f, and the second fundamental
form is taken as h_ab = (Hess f)(e_a, e_b)/|grad f|, which corresponds to
the outward unit normal +e_1.  Checks against the inward normal -e_1
(where a derivative of the frame metric along the normal appears) carry
the compensating sign explicitly.

The per-point functions read one :class:`~gradsol.solitons.PointEval`,
which caches the frame, the Hessian of f and the level-surface data, so
each is computed once per point.  The residuals of the suite's level-set
checks return ``(residual, scale)``; :func:`prop31_residual` and
:func:`frame_cotton_components` add a third element, a dict of the
quantities behind the residual.  They need a regular point of a
non-constant potential: the suite's ``CheckSpec.level_sets`` keeps them
off constant potentials, and at a critical point the adapted frame raises
:class:`CriticalPointError`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curvature import covariant_derivative, scalar_gradient
from .errors import (
    ConfigurationError,
    ConsistencyError,
    CriticalPointError,
    HypothesisViolationError,
    LevelPointError,
)
from .jets import JetScalar, jet_einsum
from .jets import sqrt as jets_sqrt
from .tensors import TensorJet, tensor_norm_sq

GRAD_THRESHOLD = 1e-6
D_ZERO_TOL = 1e-9
_MAX_RAYS = 600
_SCAN_STEPS = 48


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal frame at a point with e_1 parallel to grad f.

    `vectors` holds the frame row-wise in chart components; `grad_f_norm`
    is |grad f| at the point.
    """

    vectors: np.ndarray
    grad_f_norm: float

    @property
    def e1(self):
        return self.vectors[0]

    @property
    def tangent(self):
        return self.vectors[1:]


@dataclass(frozen=True)
class LevelSurfaceData:
    """Extrinsic data of the level surface through a point."""

    h: np.ndarray
    H: float
    tangential_dR: np.ndarray
    frame: AdaptedFrame


def adapted_frame(ev):
    """Gram-Schmidt completion of grad f/|grad f| against the chart basis."""
    g0 = ev.metric.g.values
    grad = ev.gradf_up_values
    norm = math.sqrt(max(grad @ g0 @ grad, 0.0))
    if norm < GRAD_THRESHOLD:
        raise CriticalPointError(
            f"|grad f| = {norm:.3e} below threshold {GRAD_THRESHOLD:.1e}"
        )
    n = ev.metric.dim
    vectors = [grad / norm]
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        for e in vectors:
            v = v - (e @ g0 @ v) * e
        sq = v @ g0 @ v
        if sq < 1e-12:
            continue  # chart direction already spanned; deterministic skip
        vectors.append(v / math.sqrt(sq))
        if len(vectors) == n:
            break
    if len(vectors) != n:
        raise ConsistencyError("frame completion failed")
    return AdaptedFrame(np.array(vectors), norm)


def in_frame(frame, values):
    """Components of a covariant tensor's values in the adapted frame."""
    out = values
    for _ in range(values.ndim):
        # contract the leading chart slot; its frame slot goes last
        out = np.tensordot(out, frame.vectors, axes=(0, 1))
    return out


def second_fundamental_form(ev):
    """Second fundamental form and mean curvature in the adapted frame.

    Primary form (Hess f)(e_a, e_b)/|grad f|; on an instance declared a
    soliton the equivalent form (rho g_ab - R_ab)/|grad f| is computed too
    and both must agree to 1e-9.
    """
    frame = ev.frame
    t = frame.tangent
    h = t @ ev.hess_f.values @ t.T / frame.grad_f_norm
    if ev.inst.kind is not None:
        ric_f = t @ ev.pack.ricci.values @ t.T
        alt = (ev.inst.rho * np.eye(len(t)) - ric_f) / frame.grad_f_norm
        scale = max(1.0, float(np.abs(h).max()), float(np.abs(alt).max()))
        # `not <=`, unlike `>`, holds for NaN: a NaN on either form disagrees
        if not float(np.abs(h - alt).max()) / scale <= 1e-9:
            raise ConsistencyError(
                "second fundamental form: Hessian and soliton forms disagree"
            )
    dscal = scalar_gradient(ev.pack.scalar).values
    return LevelSurfaceData(
        h=h,
        H=float(np.trace(h)),
        tangential_dR=t @ dscal,
        frame=frame,
    )


def prop31_residual(ev):
    """Two-sided residual of the level-surface norm identity for |D|^2.

    lhs = |D|^2; rhs = 2|grad f|^4/(n-2)^2 |h - H/(n-1) g|^2
    + |tangential dR|^2 / (2(n-1)(n-2)).
    """
    n = ev.inst.n
    lsd = ev.level_surface
    lhs = tensor_norm_sq(ev.dtensor, ev.metric)
    traceless = lsd.h - (lsd.H / (n - 1)) * np.eye(n - 1)
    rhs = (
        2.0 * ev.frame.grad_f_norm ** 4 / (n - 2) ** 2 * float((traceless ** 2).sum())
        + float((lsd.tangential_dR ** 2).sum()) / (2.0 * (n - 1) * (n - 2))
    )
    return abs(lhs - rhs), max(abs(lhs), abs(rhs)), {"lhs": lhs, "rhs": rhs}


def _normal_form_derivative(ev, phi):
    """Values of the covariant derivative of the one-form df * phi(|grad f|^2).

    `phi` maps the jet of |grad f|^2 to a scalar jet.
    """
    df = ev.df.truncated(1)  # the derivative's values need the form to order 1
    space = df.space
    up = jet_einsum(space, "ij,j->i", ev.metric.g_inv.data, df.data)
    w2 = JetScalar(space, jet_einsum(space, "i,i->", up, df.data))
    form = TensorJet(space, "d", jet_einsum(space, "i,->i", df.data, phi(w2).coeffs))
    return covariant_derivative(form, ev.pack).values


def normal_metric_derivative(ev):
    """Derivative of the frame-metric components along the inward normal.

    The frame fields are dragged along the potential flow, so the
    derivative of g(e_a, e_b) along nu = -grad f/|grad f| equals
    -|grad f| times the symmetrised covariant derivative of df/|grad f|^2
    contracted with the tangent frame.
    """
    t = ev.frame.tangent
    dv = _normal_form_derivative(ev, lambda w2: 1.0 / w2)
    lie = dv + dv.T
    return -ev.frame.grad_f_norm * (t @ lie @ t.T)


def normal_geodesic_residual(ev):
    """max |nabla_nu nu| for the unit normal field nu = -grad f/|grad f|.

    The integral curves of the unit normal are geodesics whenever
    |grad f| is constant on level surfaces.
    """
    nu_up = -ev.frame.e1  # unit normal, contravariant components
    dnu = _normal_form_derivative(ev, lambda w2: -(1.0 / jets_sqrt(w2)))
    return float(np.abs(nu_up @ dnu).max()), 1.0


def frame_riemann_e1_tangential(ev):
    """max |Rm(e_1, e_a, e_b, e_c)| over tangential a, b, c."""
    rm = in_frame(ev.frame, ev.pack.riemann.values)
    return float(np.abs(rm[0, 1:, 1:, 1:]).max()), float(np.abs(ev.pack.riemann.values).max())


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
        "c_ij1": float(np.abs(c[:, :, 0]).max()),
        "c_abc": float(np.abs(c[1:, 1:, 1:]).max()),
        "c_1ab": float(np.abs(c[0, 1:, 1:]).max()),
        "w_1abc": float(np.abs(w[0, 1:, 1:, 1:]).max()),
        "w_1a1b": float(np.abs(w[0, 1:, 0, 1:]).max()),
        "grad_f_norm": ev.frame.grad_f_norm,
    }
    return max(rec[k] for k in ("c_ij1", "c_abc", "c_1ab", "w_1abc", "w_1a1b")), 1.0, rec


# ---------------------------------------------------------------------------
# level-point sampling by root finding along chart rays

def _f_value(inst, point):
    """Normalized f at a point given as a list of floats.

    The potential closures and compiled expressions run order-0 jet
    arithmetic on floats, so this equals the order-0 jet value bit for bit.
    """
    return float(inst.potential_fn(point)) + inst.f_shift


def level_points(inst, c, n_points=12, seed=11):
    """Order-3 point evaluations on {f = c}: roots along rays that `solitons.admit` accepts.

    Needs `n_points >= 1` and a finite `c` (ConfigurationError otherwise);
    HypothesisViolationError for a constant potential, which has no regular
    level values.  Each ray point anchor + s d is formed on floats, one
    product and one sum per coordinate as numpy does elementwise, so the
    points are bit-identical to the numpy formation.
    """
    from . import solitons

    if n_points < 1:
        raise ConfigurationError(f"{inst.name}: need at least 1 level point, got {n_points}")
    if not math.isfinite(c):
        raise ConfigurationError(f"{inst.name}: the level must be finite, got {c}")
    if inst.trivial:
        raise HypothesisViolationError(
            f"{inst.name}: potential is constant, there are no regular level values"
        )
    rng = solitons.instance_rng(inst, seed, salt=97)
    lo = [float(b[0]) for b in inst.box]
    hi = [float(b[1]) for b in inst.box]
    anchor = [(l + h) / 2.0 for l, h in zip(lo, hi)]
    f_anchor = _f_value(inst, anchor)
    evals = []
    for _ in range(_MAX_RAYS):
        if len(evals) == n_points:
            break
        d = rng.standard_normal(inst.n)
        # coordinate pairs (x, y) of the anchor and the unit direction d
        ray = list(zip(anchor, (d / np.linalg.norm(d)).tolist()))
        # longest ray length keeping anchor + s d inside the box
        s_max = math.inf
        for (x, y), l, h in zip(ray, lo, hi):
            if y > 1e-12:
                s_max = min(s_max, (h - x) / y)
            elif y < -1e-12:
                s_max = min(s_max, (l - x) / y)
        if not math.isfinite(s_max) or s_max < 1e-6:
            continue
        prev_s, prev_v = 0.0, f_anchor - c
        bracket = None
        for k in range(1, _SCAN_STEPS + 1):
            s = s_max * k / _SCAN_STEPS
            v = _f_value(inst, [x + s * y for x, y in ray]) - c
            if prev_v == 0.0:
                bracket = (prev_s, prev_s)
                break
            if v == 0.0 or (v > 0) != (prev_v > 0):
                bracket = (prev_s, s)
                break
            prev_s, prev_v = s, v
        if bracket is None:
            continue
        a, b = bracket
        fa = _f_value(inst, [x + a * y for x, y in ray]) - c
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
        ev = solitons.admit(inst, [x + 0.5 * (a + b) * y for x, y in ray], 3)
        if ev is not None:
            evals.append(ev)
    if len(evals) < n_points:
        raise LevelPointError(
            f"{inst.name}: found only {len(evals)}/{n_points} points on f = {c}"
        )
    return evals


def prop32_report(inst, c, n_points=12, seed=11):
    """Sampled level-surface report for an instance whose 3-tensor D vanishes.

    Checks constancy of R, |grad f|^2 and H across the level surface,
    vanishing of the mixed Ricci components Ric(e_1, e_a), umbilicity of
    the second fundamental form, and the two-eigenvalue structure of the
    Ricci tensor with the predicted values
    lambda = R - (n-1) rho + H |grad f| and mu = rho - H |grad f|/(n-1).
    Each level point is an order-3 point evaluation from :func:`level_points`.
    """
    evals = level_points(inst, c, n_points=n_points, seed=seed)
    n = inst.n
    # np.max and `not <=`, unlike max and `>`, let a NaN at any point through
    d_max = float(np.max([ev.d_norm for ev in evals]))
    if not d_max <= D_ZERO_TOL:
        raise HypothesisViolationError(
            f"{inst.name}: |D| = {d_max:.3e} on the level surface; the report "
            "applies only where the 3-tensor D vanishes"
        )

    r_vals, w2_vals, h_means = [], [], []
    ric_mixed, umbil, eig_mismatch = [], [], []
    lambdas, mus = [], []
    for ev in evals:
        frame, lsd, pack = ev.frame, ev.level_surface, ev.pack
        r_vals.append(pack.scalar.value)
        w2_vals.append(frame.grad_f_norm ** 2)
        h_means.append(lsd.H)
        ric_f = frame.vectors @ pack.ricci.values @ frame.vectors.T
        ric_mixed.append(np.abs(ric_f[0, 1:]).max())
        umbil.append(np.abs(lsd.h - (lsd.H / (n - 1)) * np.eye(n - 1)).max())
        lam = pack.scalar.value - (n - 1) * inst.rho + lsd.H * frame.grad_f_norm
        mu = inst.rho - lsd.H * frame.grad_f_norm / (n - 1)
        lambdas.append(lam)
        mus.append(mu)
        expected = np.sort(np.array([lam] + [mu] * (n - 1)))
        eig = np.sort(np.linalg.eigvalsh(ric_f))
        eig_mismatch.append(np.abs(eig - expected).max())

    def spread(vals):
        return float(np.max(vals) - np.min(vals))

    return {
        "instance": inst.name,
        "level": float(c),
        "n_points": len(evals),
        "r_mean": float(np.mean(r_vals)),
        "r_spread": spread(r_vals),
        "grad_sq_mean": float(np.mean(w2_vals)),
        "grad_sq_spread": spread(w2_vals),
        "h_mean": float(np.mean(h_means)),
        "h_spread": spread(h_means),
        "ricci_mixed_max": float(np.max(ric_mixed)),
        "umbilicity_max": float(np.max(umbil)),
        "lambda": float(np.mean(lambdas)),
        "mu": float(np.mean(mus)),
        "eigenvalue_mismatch": float(np.max(eig_mismatch)),
        "points": [list(ev.point) for ev in evals],
    }
