import time
from functools import lru_cache

import numpy as np
import pytest

from gradsol.curvature import curvature_pack
from gradsol.jets import JetScalar, JetSpace, coordinate_jets
from gradsol.solitons import PointEval, catalog, get_instance, points_of, sample_evals
from gradsol.verify import run_suite, thm52_status


@pytest.fixture(scope="session")
def instances():
    return {inst.name: inst for inst in catalog()}


def full_order_einsum(space, subscripts, a, b):
    """Reference jet product at any order, row by row: numpy's einsum over
    every product pair, summed per target.  ``jet_einsum`` runs products up
    to order 3, the full-order references run them up to order 5."""
    ins, out = subscripts.split("->")
    sub_a, sub_b = ins.split(",")
    pairs = np.einsum(f"P{sub_a}Z,P{sub_b}Z->P{out}Z",
                      a[..., space.mul_left], b[..., space.mul_right])
    return np.add.reduceat(pairs, space.mul_starts, axis=-1)


def full_order_newton(space, gdata):
    """Reference metric inverse: three Newton steps, each at the full order,
    on gdata's point axis."""
    n = space.dim
    x = np.zeros_like(gdata)
    x[..., 0] = np.linalg.inv(gdata[..., 0])
    two_eye = np.zeros_like(gdata)
    two_eye[:, np.arange(n), np.arange(n), 0] = 2.0
    for _ in range(3):  # right to order 2^3 - 1 = 7
        x = full_order_einsum(space, "ij,jk->ik", x,
                              two_eye - full_order_einsum(space, "ij,jk->ik", gdata, x))
    return x


@lru_cache(maxsize=256)
def _geometry(name, point, order):
    inst = get_instance(name)
    metric = inst.metric_at([list(point)], order)  # a block of one row
    pack = curvature_pack(metric)
    f = inst.potential_jet([list(point)], metric.space)
    return inst, metric, pack, f


@pytest.fixture(scope="session")
def geometry():
    """Cached (inst, metric, pack, f_jet) per (name, point, order), each a
    block of one row."""

    def get(name, point, order=4):
        return _geometry(name, tuple(float(x) for x in point), order)

    return get


@lru_cache(maxsize=256)
def _point_eval(name, point, order):
    return PointEval(get_instance(name), [list(point)], order)


@pytest.fixture(scope="session")
def point_eval():
    """Cached PointEval, a block of one row, per (name, point, order); tests
    must not mutate it."""

    def get(name, point, order=4):
        return _point_eval(name, tuple(float(x) for x in point), order)

    return get


@pytest.fixture(scope="session")
def suite_reports():
    """Order-5 suite over every certified instance, with wall time."""
    reports = {}
    t0 = time.perf_counter()
    for inst in catalog():
        if inst.kind is None:
            continue
        reports[inst.name] = run_suite(inst, n_points=20, seed=7, order=5)
    elapsed = time.perf_counter() - t0
    return {"reports": reports, "elapsed": elapsed}


def thm52_of(inst):
    """thm5.2 status on 12 order-5 evaluations of the suite's sample points."""
    return thm52_status(inst, sample_evals(inst, 12, 7, 5))


def point_evals(inst, n_points, seed, order):
    """Evaluations of the suite's sample points one by one, each a block of
    one row: what a block that raised leaves to its points."""
    return [PointEval(inst, [point], order)
            for point in points_of(sample_evals(inst, n_points, seed, order))]


def report_entry(report, check_id):
    for e in report["checks"]:
        if e["id"] == check_id:
            return e
    raise KeyError(check_id)


# ---------------------------------------------------------------------------
# finite-difference oracle for jet partials
#
# A derivative of total order k is checked by one *first* central
# difference in a single variable applied to the order-(k-1) coefficient
# field; the chain bottoms out at plain function evaluation, so no jet
# coefficient is ever compared against itself.

def eval_metric_jets(inst, point, order):
    space = JetSpace.get(inst.n, order)
    xs = coordinate_jets(space, point)
    rows = inst.metric_fn(xs)
    out = {}
    for i in range(inst.n):
        for j in range(i, inst.n):
            entry = rows[i][j]
            out[(i, j)] = entry if isinstance(entry, JetScalar) else float(entry)
    return out


def jet_partial_of_entry(entry, alpha):
    if isinstance(entry, JetScalar):
        return entry.partial(alpha)
    return float(entry) if sum(alpha) == 0 else 0.0


def fd_metric_partials(inst, point, alpha_list, h=1e-5):
    """Chain finite-difference oracle for every (component, alpha) pair."""
    n = inst.n
    base = eval_metric_jets(inst, point, 3)
    shifted = {}
    for v in range(n):
        for sign in (+1, -1):
            p = list(point)
            p[v] += sign * h
            shifted[(v, sign)] = eval_metric_jets(inst, p, 2)
    results = {}
    for alpha in alpha_list:
        k = sum(alpha)
        v = next(i for i, a in enumerate(alpha) if a > 0)
        beta = tuple(a - (1 if i == v else 0) for i, a in enumerate(alpha))
        for comp in base:
            plus = jet_partial_of_entry(shifted[(v, +1)][comp], beta)
            minus = jet_partial_of_entry(shifted[(v, -1)][comp], beta)
            results[(comp, alpha)] = (plus - minus) / (2.0 * h)
    return base, results


def all_alphas(n, max_order):
    out = []
    for total in range(1, max_order + 1):
        out.extend(_alphas_of_degree(n, total))
    return out


def _alphas_of_degree(n, total):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _alphas_of_degree(n - 1, total - head):
            yield (head,) + rest
