"""Geometry of the potential's level surfaces.

The frame convention: e_1 points along grad f, and the second fundamental
form is taken as h_ab = (Hess f)(e_a, e_b)/|grad f|, which corresponds to
the outward unit normal +e_1.  Checks against the inward normal -e_1
(where a derivative of the frame metric along the normal appears) carry
the compensating sign explicitly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curvature import covariant_derivative, curvature_pack, hessian, scalar_gradient
from .errors import (
    ConsistencyError,
    CriticalPointError,
    HypothesisViolationError,
    LevelPointError,
)
from .jets import JetScalar, jet_einsum, mul_arrays, truncate_arrays
from .jets import sqrt as jets_sqrt
from .tensors import TensorJet, tensor_norm_sq
from .conformal import d_tensor

GRAD_THRESHOLD = 1e-6
D_ZERO_TOL = 1e-9


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


def adapted_frame(metric, f_jet, min_grad=GRAD_THRESHOLD):
    """Gram-Schmidt completion of grad f/|grad f| against the chart basis."""
    g0 = metric.g.values
    df = scalar_gradient(f_jet).values
    grad = metric.g_inv.values @ df
    norm = math.sqrt(max(grad @ g0 @ grad, 0.0))
    if norm < min_grad:
        raise CriticalPointError(
            f"|grad f| = {norm:.3e} below threshold {min_grad:.1e}"
        )
    n = metric.dim
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


def second_fundamental_form(pack, f_jet, frame, rho=None):
    """Second fundamental form and mean curvature in the adapted frame.

    Primary form (Hess f)(e_a, e_b)/|grad f|; when `rho` is supplied the
    equivalent soliton form (rho g_ab - R_ab)/|grad f| is computed too and
    both must agree to 1e-9.
    """
    hess = hessian(f_jet, pack).values
    t = frame.tangent
    h = t @ hess @ t.T / frame.grad_f_norm
    if rho is not None:
        ric_f = t @ pack.ricci.values @ t.T
        alt = (rho * np.eye(len(t)) - ric_f) / frame.grad_f_norm
        scale = max(1.0, float(np.abs(h).max()), float(np.abs(alt).max()))
        if float(np.abs(h - alt).max()) / scale > 1e-9:
            raise ConsistencyError(
                "second fundamental form: Hessian and soliton forms disagree"
            )
    dscal = scalar_gradient(pack.scalar).values
    return LevelSurfaceData(
        h=h,
        H=float(np.trace(h)),
        tangential_dR=t @ dscal,
        frame=frame,
    )


def prop31_residual(pack, conf_d, f_jet, frame, lsd, n):
    """Two-sided residual of the level-surface norm identity for |D|^2.

    lhs = |D|^2; rhs = 2|grad f|^4/(n-2)^2 |h - H/(n-1) g|^2
    + |tangential dR|^2 / (2(n-1)(n-2)).
    """
    lhs = tensor_norm_sq(conf_d, pack.metric)
    traceless = lsd.h - (lsd.H / (n - 1)) * np.eye(n - 1)
    rhs = (
        2.0 * frame.grad_f_norm ** 4 / (n - 2) ** 2 * float((traceless ** 2).sum())
        + float((lsd.tangential_dR ** 2).sum()) / (2.0 * (n - 1) * (n - 2))
    )
    return {
        "residual": abs(lhs - rhs),
        "scale": max(abs(lhs), abs(rhs)),
        "lhs": lhs,
        "rhs": rhs,
    }


def normal_metric_derivative(pack, f_jet, frame):
    """Derivative of the frame-metric components along the inward normal.

    The frame fields are dragged along the potential flow, so the
    derivative of g(e_a, e_b) along nu = -grad f/|grad f| equals
    -|grad f| times the symmetrised covariant derivative of df/|grad f|^2
    contracted with the tangent frame.
    """
    metric = pack.metric
    df = scalar_gradient(f_jet)
    space = df.space
    _, ginv = truncate_arrays(metric.space, metric.g_inv.data, space.order)
    up = jet_einsum(space, "ij,j->i", ginv, df.data)
    w2 = jet_einsum(space, "i,i->", up, df.data)
    recip = (1.0 / JetScalar(space, w2)).coeffs
    v = TensorJet(space, "d", mul_arrays(space, df.data, recip))
    dv = covariant_derivative(v, pack).values
    lie = dv + dv.T
    t = frame.tangent
    return -frame.grad_f_norm * (t @ lie @ t.T)


def normal_geodesic_residual(pack, f_jet, frame):
    """max |nabla_nu nu| for the unit normal field nu = -grad f/|grad f|.

    The integral curves of the unit normal are geodesics whenever
    |grad f| is constant on level surfaces.
    """
    metric = pack.metric
    df = scalar_gradient(f_jet)
    space = df.space
    _, ginv = truncate_arrays(metric.space, metric.g_inv.data, space.order)
    up = jet_einsum(space, "ij,j->i", ginv, df.data)
    w2 = jet_einsum(space, "i,i->", up, df.data)
    inv_norm = (1.0 / jets_sqrt(JetScalar(space, w2))).coeffs
    nu_form = TensorJet(space, "d", -mul_arrays(space, df.data, inv_norm))
    dnu = covariant_derivative(nu_form, pack).values
    nu_up = -frame.e1  # unit normal, contravariant components
    resid = nu_up @ dnu
    return float(np.abs(resid).max())


def frame_riemann_e1_tangential(pack, frame):
    """max |Rm(e_1, e_a, e_b, e_c)| over tangential a, b, c."""
    e = frame.vectors
    rm = np.einsum(
        "ia,jb,kc,ld,abcd->ijkl", e, e, e, e, pack.riemann.values, optimize=True
    )
    return float(np.abs(rm[0, 1:, 1:, 1:]).max())


def frame_cotton_components(pack, cotton_t, weyl_t, f_jet, min_grad=GRAD_THRESHOLD):
    """Adapted-frame component families of the Cotton and conformal tensors.

    Keys: c_ij1 (third slot along e_1), c_abc (all tangential), c_1ab,
    w_1abc, w_1a1b.  On instances whose soliton 3-tensor vanishes these
    all vanish; elsewhere the record shows which families survive.
    """
    frame = adapted_frame(pack.metric, f_jet, min_grad=min_grad)
    e = frame.vectors
    c = np.einsum("ia,jb,kc,abc->ijk", e, e, e, cotton_t.values, optimize=True)
    w = np.einsum(
        "ia,jb,kc,ld,abcd->ijkl", e, e, e, e, weyl_t.values, optimize=True
    )
    return {
        "c_ij1": float(np.abs(c[:, :, 0]).max()),
        "c_abc": float(np.abs(c[1:, 1:, 1:]).max()),
        "c_1ab": float(np.abs(c[0, 1:, 1:]).max()),
        "w_1abc": float(np.abs(w[0, 1:, 1:, 1:]).max()),
        "w_1a1b": float(np.abs(w[0, 1:, 0, 1:]).max()),
        "grad_f_norm": frame.grad_f_norm,
    }


# ---------------------------------------------------------------------------
# level-point sampling by root finding along chart rays

def _f_value(inst, point):
    """Normalized f at the point, evaluated on plain floats.

    The potential closures and compiled expressions run order-0 jet
    arithmetic on floats, so this equals the order-0 jet value bit for bit.
    """
    return float(inst.potential_fn([float(x) for x in point])) + inst.f_shift


def _grad_norm(inst, point):
    from .solitons import _grad_norm_value

    return _grad_norm_value(inst, point)


def level_points(inst, c, n_points=12, seed=11, min_grad=GRAD_THRESHOLD,
                 max_rays=600, scan_steps=48):
    """Deterministic points on {f = c} found by bisection along rays."""
    import zlib

    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(inst.name.encode()), 97])
    )
    lo = np.array([b[0] for b in inst.box])
    hi = np.array([b[1] for b in inst.box])
    anchor = (lo + hi) / 2.0
    f_anchor = _f_value(inst, anchor)
    points = []
    for _ in range(max_rays):
        if len(points) == n_points:
            break
        d = rng.standard_normal(inst.n)
        d /= np.linalg.norm(d)
        # longest ray length keeping anchor + s d inside the box
        s_max = math.inf
        for k in range(inst.n):
            if d[k] > 1e-12:
                s_max = min(s_max, (hi[k] - anchor[k]) / d[k])
            elif d[k] < -1e-12:
                s_max = min(s_max, (lo[k] - anchor[k]) / d[k])
        if not math.isfinite(s_max) or s_max < 1e-6:
            continue
        prev_s, prev_v = 0.0, f_anchor - c
        bracket = None
        for k in range(1, scan_steps + 1):
            s = s_max * k / scan_steps
            v = _f_value(inst, anchor + s * d) - c
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
        fa = _f_value(inst, anchor + a * d) - c
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            fm = _f_value(inst, anchor + mid * d) - c
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        p = anchor + 0.5 * (a + b) * d
        if inst.excluded_distance(p) < 1e-3:
            continue
        if _grad_norm(inst, p) < max(min_grad, 1e-3):
            continue
        points.append(p)
    if len(points) < n_points:
        raise LevelPointError(
            f"{inst.name}: found only {len(points)}/{n_points} points on f = {c}"
        )
    return points


def prop32_report(inst, c, n_points=12, seed=11, order=3, d_zero_tol=D_ZERO_TOL):
    """Sampled level-surface report for an instance whose 3-tensor D vanishes.

    Checks constancy of R, |grad f|^2 and H across the level surface,
    vanishing of the mixed Ricci components Ric(e_1, e_a), umbilicity of
    the second fundamental form, and the two-eigenvalue structure of the
    Ricci tensor with the predicted values
    lambda = R - (n-1) rho + H |grad f| and mu = rho - H |grad f|/(n-1).
    """
    if inst.trivial:
        raise HypothesisViolationError(
            f"{inst.name}: potential is constant, there are no regular level values"
        )
    pts = level_points(inst, c, n_points=n_points, seed=seed)
    n = inst.n
    evals = []
    d_norms = []
    for p in pts:
        metric = inst.metric_at(p, order)
        pack = curvature_pack(metric)
        f = inst.potential_jet(p, metric.space)
        conf_d = d_tensor(pack, f, n)
        d_norms.append(math.sqrt(max(tensor_norm_sq(conf_d, metric), 0.0)))
        evals.append((metric, pack, f))
    # np.max and `not <=`, unlike max and `>`, let a NaN at any point through
    d_max = float(np.max(d_norms))
    if not d_max <= d_zero_tol:
        raise HypothesisViolationError(
            f"{inst.name}: |D| = {d_max:.3e} on the level surface; the report "
            "applies only where the 3-tensor D vanishes"
        )

    r_vals, w2_vals, h_means = [], [], []
    ric_mixed, umbil, eig_mismatch = [], [], []
    lambdas, mus = [], []
    for metric, pack, f in evals:
        frame = adapted_frame(metric, f)
        lsd = second_fundamental_form(pack, f, frame, rho=inst.rho)
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
        "n_points": len(pts),
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
        "points": [[float(x) for x in p] for p in pts],
    }
