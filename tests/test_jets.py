import math

import numpy as np
import pytest

import gradsol.jets as jets
from gradsol.errors import (
    ConfigurationError,
    InsufficientOrderError,
    SingularEvaluationError,
)
from gradsol.jets import JetScalar, JetSpace, constant, jet_lift, variable


@pytest.mark.parametrize("dim", range(1, 7))
def test_product_and_gradient_tables_by_their_defining_properties(dim):
    for order in range(6):
        space = JetSpace(dim, order)
        exps, n_terms = space.exponents, space.n_terms
        degree = exps.sum(axis=1)
        left, right, starts = space.mul_left, space.mul_right, space.mul_starts
        # every pair whose degrees sum to at most `order` appears once
        assert np.all(degree[left] + degree[right] <= order)
        assert len(set(zip(left.tolist(), right.tolist()))) == len(left)
        assert len(left) == np.count_nonzero(degree[:, None] + degree <= order)
        # grouped by target, every rank a target, each group in i-major order
        assert starts[0] == 0 and np.all(np.diff(starts) > 0)
        target = np.repeat(np.arange(n_terms), np.diff(np.append(starts, len(left))))
        assert np.array_equal(exps[target], exps[left] + exps[right])
        same = target[1:] == target[:-1]
        assert np.all(left[1:][same] > left[:-1][same])
        assert np.array_equal(space.mul_flat, target * n_terms + right)
        # d_v of lower rank r reads rank grad_src[v, r], times its exponent of v
        n_lower = space.block_starts[order]
        assert space.grad_src.shape == space.grad_fac.shape == (dim, n_lower)
        for v in range(dim):
            unit = np.eye(dim, dtype=np.int64)[v]
            assert np.array_equal(exps[space.grad_src[v]], exps[:n_lower] + unit)
            assert np.array_equal(space.grad_fac[v], exps[:n_lower, v] + 1.0)


def test_jet_lift_coordinate():
    j = jet_lift(3.0, index=0, dim=2, order=2)
    space = j.space
    assert j.coeffs[space.rank_of((0, 0))] == 3.0
    assert j.coeffs[space.rank_of((1, 0))] == 1.0
    nonzero = np.flatnonzero(j.coeffs)
    assert set(nonzero) == {space.rank_of((0, 0)), space.rank_of((1, 0))}


def test_jet_lift_constant():
    j = jet_lift(7.0, None, dim=4, order=5)
    assert j.value == 7.0
    assert np.count_nonzero(j.coeffs) == 1


def test_jet_lift_bounds():
    with pytest.raises(ConfigurationError):
        jet_lift(1.0, None, dim=3, order=6)
    with pytest.raises(ConfigurationError):
        jet_lift(1.0, None, dim=3, order=-1)
    with pytest.raises(ConfigurationError):
        jet_lift(1.0, index=3, dim=3, order=2)


def test_square_of_coordinate():
    j = jet_lift(3.0, index=0, dim=1, order=2)
    sq = j * j
    assert np.allclose(sq.coeffs, [9.0, 6.0, 1.0])


def test_product_truncation():
    x = variable(JetSpace.get(1, 2), 0, 0.0)
    p = (1.0 + x) * (1.0 - x)
    assert np.allclose(p.coeffs, [1.0, 0.0, -1.0])


def test_geometric_series():
    x = variable(JetSpace.get(1, 3), 0, 0.0)
    q = 1.0 / (1.0 - x)
    assert np.allclose(q.coeffs, [1.0, 1.0, 1.0, 1.0])


def test_division_by_zero_constant_term():
    x = variable(JetSpace.get(1, 3), 0, 0.0)
    with pytest.raises(SingularEvaluationError):
        1.0 / x


def test_sin_series():
    x = variable(JetSpace.get(1, 3), 0, 0.0)
    s = jets.sin(x)
    assert np.allclose(s.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)


def test_sqrt_constant():
    j = constant(JetSpace.get(4, 5), 4.0)
    assert jets.sqrt(j).value == 2.0


def test_sqrt_domain():
    j = constant(JetSpace.get(2, 2), -1.0)
    with pytest.raises(SingularEvaluationError):
        jets.sqrt(j)
    with pytest.raises(SingularEvaluationError):
        jets.log(constant(JetSpace.get(2, 2), 0.0))


def _outcome(fn, *args):
    # the float hex a call returns, or the class and message of what it raises
    try:
        return fn(*args).hex()
    except (SingularEvaluationError, ArithmeticError, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("name", ["exp", "log", "sqrt", "sin", "cos", "real_power"])
def test_plain_real_is_the_jet_constant_term(name):
    # a plain real gives the constant term of the jet through it, bit for bit,
    # or raises as the jet does; an array gives it entrywise, NaN where it raises
    fn = (lambda a: jets.real_power(a, 1.7)) if name == "real_power" else getattr(jets, name)
    xs = [-0.0, 0.0, 0.3, -1.2, 2.5, 800.0]
    space = JetSpace.get(1, 3)
    plain = [_outcome(fn, x) for x in xs]
    assert plain == [_outcome(lambda x: fn(variable(space, 0, x)).coeffs[0], x) for x in xs]
    on_array = fn(np.array(xs)).tolist()
    assert [v.hex() for v in on_array] == [
        p if isinstance(p, str) else math.nan.hex() for p in plain
    ]
    if name == "sin":  # the series' k = 0 term sin(x + 0 pi/2)/0! is +0.0 at -0.0
        assert plain[0] == (0.0).hex()


def test_exp_against_plain_finite_differences():
    # single-variable case: first/second central differences of exp itself
    e = jets.exp(variable(JetSpace.get(1, 2), 0, 1.0))
    h = 1e-5
    fd1 = (math.exp(1 + h) - math.exp(1 - h)) / (2 * h)
    fd2 = (math.exp(1 + h) - 2 * math.exp(1) + math.exp(1 - h)) / h**2
    assert e.coeffs[0] == math.exp(1.0)
    assert abs(e.partial((1,)) - fd1) < 1e-9
    assert abs(e.partial((2,)) - fd2) < 5e-5
    assert np.allclose(e.coeffs, [math.e, math.e, math.e / 2])


def test_extract_partial_examples():
    sq = jet_lift(3.0, index=0, dim=1, order=2) ** 2
    assert sq.partial((2,)) == 2.0
    c = jet_lift(7.0, None, dim=2, order=3)
    assert c.partial((1, 0)) == 0.0
    s = jets.sin(variable(JetSpace.get(1, 3), 0, 0.0))
    assert abs(s.partial((3,)) + 1.0) < 1e-14


def test_extract_partial_insufficient_order():
    j = jet_lift(1.0, index=0, dim=2, order=3)
    with pytest.raises(InsufficientOrderError):
        j.partial((2, 2))


def test_mixed_space_arithmetic_rejected():
    a = jet_lift(1.0, index=0, dim=2, order=3)
    b = jet_lift(1.0, index=0, dim=2, order=2)
    with pytest.raises(ConfigurationError):
        a + b
    c = jet_lift(1.0, index=0, dim=3, order=3)
    with pytest.raises(ConfigurationError):
        a * c


def _random_jets(space, rng, k):
    out = []
    for _ in range(k):
        coeffs = rng.uniform(-2.0, 2.0, space.n_terms)
        out.append(JetScalar(space, coeffs))
    return out


def test_ring_axioms_sampled():
    rng = np.random.default_rng(42)
    for dim, order in [(2, 3), (4, 5), (5, 4)]:
        space = JetSpace.get(dim, order)
        for _ in range(10):
            a, b, c = _random_jets(space, rng, 3)
            lhs = ((a + b) + c).coeffs
            rhs = (a + (b + c)).coeffs
            assert np.abs(lhs - rhs).max() < 1e-14
            lhs = (a * (b + c)).coeffs
            rhs = (a * b + a * c).coeffs
            assert np.abs(lhs - rhs).max() < 1e-13
            lhs = (a * b).coeffs
            rhs = (b * a).coeffs
            assert np.abs(lhs - rhs).max() < 1e-14
            lhs = ((a * b) * c).coeffs
            rhs = (a * (b * c)).coeffs
            assert np.abs(lhs - rhs).max() < 1e-12


def _expression(xs):
    return jets.sin(xs[0] * xs[1]) / (2.0 + xs[0] ** 2) + jets.exp(0.3 * xs[1]) * xs[0]


def test_order_monotonicity():
    # truncating an order-5 run to order 3 equals the order-3 run exactly
    p = [0.7, -0.4]
    full = _expression([variable(JetSpace.get(2, 5), i, x) for i, x in enumerate(p)])
    low = _expression([variable(JetSpace.get(2, 3), i, x) for i, x in enumerate(p)])
    assert np.array_equal(full.truncated(3).coeffs, low.coeffs)


def test_product_rule_against_finite_differences():
    # d/dx0 of a product checked by a first central difference of the
    # product's value field, step 1e-5
    def ab(x0, x1, order):
        space = JetSpace.get(2, order)
        xs = [variable(space, 0, x0), variable(space, 1, x1)]
        a = jets.sin(xs[0]) + xs[1] ** 2
        b = jets.exp(xs[0] * xs[1]) / (2.0 + xs[0])
        return a * b

    x0, x1, h = 0.6, -0.8, 1e-5
    jet = ab(x0, x1, 2)
    fd = (ab(x0 + h, x1, 0).value - ab(x0 - h, x1, 0).value) / (2 * h)
    assert abs(jet.partial((1, 0)) - fd) / (1 + abs(fd)) < 1e-9
    # and the mixed second derivative via the chain oracle
    fd2 = (
        ab(x0 + h, x1, 1).partial((0, 1)) - ab(x0 - h, x1, 1).partial((0, 1))
    ) / (2 * h)
    assert abs(jet.partial((1, 1)) - fd2) / (1 + abs(fd2)) < 1e-9


def test_derivative_is_a_derivation():
    # each partial of gradient_arrays obeys the product rule coefficient-wise
    from gradsol.jets import gradient_arrays, mul_arrays, truncate_arrays

    rng = np.random.default_rng(7)
    space = JetSpace.get(3, 4)
    lower = JetSpace.get(3, 3)
    for _ in range(6):
        a = rng.uniform(-1.5, 1.5, space.n_terms)
        b = rng.uniform(-1.5, 1.5, space.n_terms)
        prod = mul_arrays(space, a, b)
        for v in range(3):
            lhs = gradient_arrays(space, prod)[v]
            _, a_low = truncate_arrays(space, a, 3)
            _, b_low = truncate_arrays(space, b, 3)
            rhs = mul_arrays(lower, gradient_arrays(space, a)[v], b_low) + mul_arrays(
                lower, a_low, gradient_arrays(space, b)[v]
            )
            assert np.abs(lhs - rhs).max() < 1e-13


def test_jet_einsum_matches_scalar_arithmetic():
    # the packed contraction kernel against naive per-component jets
    from gradsol.jets import jet_einsum

    rng = np.random.default_rng(13)
    space = JetSpace.get(3, 3)
    n, N = 3, space.n_terms
    a = rng.uniform(-1, 1, (n, n, N))
    b = rng.uniform(-1, 1, (n, n, n, N))
    packed = jet_einsum(space, "sk,sij->kij", a, b)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                ref = constant(space, 0.0)
                for s in range(n):
                    ref = ref + JetScalar(space, a[s, k]) * JetScalar(space, b[s, i, j])
                assert np.abs(packed[k, i, j] - ref.coeffs).max() < 1e-13


def test_int_and_float_powers():
    space = JetSpace.get(1, 4)
    x = variable(space, 0, 1.7)
    assert np.allclose((x**3).coeffs, (x * x * x).coeffs)
    assert np.allclose((x**-2).coeffs, (1.0 / (x * x)).coeffs)
    assert np.allclose((x**0.5).coeffs, jets.sqrt(x).coeffs)
    # Taylor coefficients of x^p at 1.7: binom(p, k) 1.7^(p - k)
    binom = [math.prod(1.5 - j for j in range(k)) / math.factorial(k) for k in range(5)]
    assert np.allclose((x**1.5).coeffs, [b * 1.7 ** (1.5 - k) for k, b in enumerate(binom)])


def test_truncation_is_prefix():
    space = JetSpace.get(3, 5)
    lower = JetSpace.get(3, 2)
    assert space.exponents[: lower.n_terms].tolist() == lower.exponents.tolist()


def _engine_subscripts():
    """Every subscript pattern the engine hands to jet_einsum."""
    pats = [
        "ij,jk->ik", "kl,lij->kij", "lis,sjk->lkij", "ml,lkij->mkij", "ij,ij->",
        "ik,jl->ijkl", "jk,i->ijk", "kl,ikjl->ij", "km,mkij->ij", "lm,mikjl->ikj",
        "km,mikj->ij", "ij,j->i", "il,l->i", "lm,mijkl->ijk", "jm,mij->i",
        "ik,ikj->j", "i,i->",
        # tensors times a scalar jet
        "i,->i", "ij,->ij", "ijk,->ijk", "ijkl,->ijkl",
    ]
    for rank in range(1, 5):
        letters = "abcd"[:rank]
        pats.append(f"{letters},{letters}->")  # tensor_norm_sq
        for r, old in enumerate(letters):
            new = "abcde"[rank]
            pats.append(f"{new}{old},{letters}->{letters.replace(old, new)}")  # raise_lower
            tsub = letters[:r] + "s" + letters[r + 1:]
            pats.append(f"sm{old},{tsub}->m{letters}")  # covariant_derivative
    # divergence: Ricci and B in slots 0 and 1, C in 0, D and div W in 1, W in 3
    pats.append("cm,smi->csi")  # its K = g^{cm} Γ^s_{mi}
    for rank, slot in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 3)):
        letters = "abcd"[:rank]
        c = letters[slot]
        rest = letters.replace(c, "")
        pats.append(f"{c}m,m{letters}->{rest}")
        for r, i in enumerate(letters):
            tsub = letters[:r] + "s" + letters[r + 1:]
            pats.append(f"s,{tsub}->{rest}" if r == slot else f"{c}s{i},{tsub}->{rest}")
    return pats


def _per_component_reference(space, sub_a, sub_b, out, a, b):
    letters = sorted(set(sub_a + sub_b))
    n = space.dim
    ref = np.zeros((n,) * len(out) + (space.n_terms,))
    for idx in np.ndindex(*(n,) * len(letters)):
        at = dict(zip(letters, idx))
        ref[tuple(at[c] for c in out)] += jets.mul_arrays(
            space, a[tuple(at[c] for c in sub_a)], b[tuple(at[c] for c in sub_b)]
        )
    return ref


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("order", range(0, 6))
def test_jet_einsum_strategies_agree(dim, order):
    # both product strategies, called directly, against each other and
    # against per-component truncated products
    rng = np.random.default_rng(100 * dim + order)
    space = JetSpace.get(dim, order)
    for subscripts in _engine_subscripts():
        ins, out = subscripts.split("->")
        sub_a, sub_b = ins.split(",")
        a = rng.uniform(-1, 1, (dim,) * len(sub_a) + (space.n_terms,))
        b = rng.uniform(-1, 1, (dim,) * len(sub_b) + (space.n_terms,))
        gathered = jets._einsum_gather(space, sub_a, sub_b, out, a, b)
        scale = np.abs(gathered).max()
        results = [gathered]
        # the matrix path scatters the operand with fewer components
        if b.size < a.size:
            sub_a, sub_b, a, b = sub_b, sub_a, b, a
        if a.size * space.n_terms <= 2_000_000:
            matrix = jets._einsum_matrix(space, sub_a, sub_b, out, a, b)
            assert np.abs(matrix - gathered).max() <= 1e-13 * scale, subscripts
            results.append(matrix)
        else:
            # a matrix over 16 MB is never chosen; keep the test small too
            assert jets._plan(space, sub_a, sub_b, out, a, b)[0] is jets._einsum_gather
        if order == 0:
            const = jets._einsum_const(space, sub_a, sub_b, out, a, b)
            assert np.abs(const - gathered).max() <= 1e-13 * scale, subscripts
            results.append(const)
        # the scalar loop runs dim**letters products; dims 3-4 cover 5 letters
        if dim ** len(set(sub_a + sub_b)) <= 1024:
            ref = _per_component_reference(space, sub_a, sub_b, out, a, b)
            for r in results:
                assert np.abs(r - ref).max() <= 1e-13 * scale, subscripts


def test_jet_einsum_strategy_choice():
    # small-by-large at a middle order takes the matrix path; same-size
    # products at order 5 stay on the gather path
    s53, s55 = JetSpace.get(5, 3), JetSpace.get(5, 5)
    a = np.zeros((5, 5, s53.n_terms))
    b = np.zeros((5, 5, 5, 5, s53.n_terms))
    assert jets._plan(s53, "ed", "abcd", "abce", a, b) == (jets._einsum_matrix, False)
    assert jets._plan(s53, "abcd", "ed", "abce", b, a) == (jets._einsum_matrix, True)
    g = np.zeros((5, 5, s55.n_terms))
    assert jets._plan(s55, "ij", "jk", "ik", g, g) == (jets._einsum_gather, False)
    # Weyl's g^g times the scalar curvature scatters the scalar
    assert jets._plan(s53, "ijkl", "", "ijkl", b, np.zeros(s53.n_terms)) == (
        jets._einsum_matrix, True)
    # order 0 has one product pair: its constant terms are contracted directly
    s50 = JetSpace.get(5, 0)
    g0, r0 = np.zeros((5, 5, 1)), np.zeros((5, 5, 5, 5, 1))
    assert jets._plan(s50, "ij", "jk", "ik", g0, g0) == (jets._einsum_const, False)
    assert jets._plan(s50, "abcd", "ed", "abce", r0, g0) == (jets._einsum_const, True)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", range(0, 6))
def test_compiled_plans_match_plain_einsum(dim, order):
    # both kernels run compiled pair plans; numpy's unoptimised einsum over
    # the gathered pairs is independent code.  dim 1 makes every component
    # axis size 1, order 0 the jet axis.
    rng = np.random.default_rng(1000 + 10 * dim + order)
    space = JetSpace.get(dim, order)
    for subscripts in _engine_subscripts():
        ins, out = subscripts.split("->")
        sub_a, sub_b = ins.split(",")
        a = rng.uniform(-1, 1, (dim,) * len(sub_a) + (space.n_terms,))
        b = rng.uniform(-1, 1, (dim,) * len(sub_b) + (space.n_terms,))
        ref = np.add.reduceat(
            np.einsum(f"{sub_a}Z,{sub_b}Z->{out}Z", a[..., space.mul_left],
                      b[..., space.mul_right], optimize=False),
            space.mul_starts, axis=-1,
        )
        scale = np.abs(ref).max()
        for x, y, sx, sy in ((a, b, sub_a, sub_b), (b, a, sub_b, sub_a)):
            kernels = [jets._einsum_gather]
            if x.size * space.n_terms <= 2_000_000:
                kernels.append(jets._einsum_matrix)
            if order == 0:
                kernels.append(jets._einsum_const)
            for kernel in kernels:
                got = kernel(space, sx, sy, out, x, y)
                assert got.shape == ref.shape, (subscripts, sx, kernel.__name__)
                assert np.abs(got - ref).max() <= 1e-13 * scale, (subscripts, sx, kernel.__name__)


def test_warm_jet_einsum_calls_no_einsum(monkeypatch):
    # once a call signature is planned, jet_einsum runs transposes, reshapes
    # and matmul only: the same calls with einsum disabled give the same bits
    rng = np.random.default_rng(7)
    space = JetSpace.get(4, 2)
    calls = []
    for subscripts in _engine_subscripts():
        sub_a, sub_b = subscripts.split("->")[0].split(",")
        a = rng.uniform(-1, 1, (4,) * len(sub_a) + (space.n_terms,))
        b = rng.uniform(-1, 1, (4,) * len(sub_b) + (space.n_terms,))
        calls.append((subscripts, a, b, jets.jet_einsum(space, subscripts, a, b)))
    kernels = {jets._EINSUM_PLANS[(space, s, a.shape, b.shape)][0] for s, a, b, _ in calls}
    assert kernels == {jets._einsum_gather, jets._einsum_matrix}

    def forbidden(*args, **kwargs):
        raise AssertionError("einsum on a warm jet_einsum call")

    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(np, "einsum_path", forbidden)
    for subscripts, a, b, warm in calls:
        hot = jets.jet_einsum(space, subscripts, a, b)
        assert hot.shape == warm.shape and np.array_equal(hot, warm), subscripts


@pytest.mark.parametrize(
    "order, subscripts, kernel",
    [(0, "ij,jkl->ikl", "const"), (2, "ij,jkl->ikl", "matrix"), (4, "ij,ij->", "gather")],
)
def test_jet_einsum_reads_operands_at_its_own_order(order, subscripts, kernel):
    # an operand carried one order above the space is read as its prefix, the
    # same bits whichever kernel the plan picks; one order short is an error
    space, above = JetSpace.get(4, order), JetSpace.get(4, order + 1)
    n = space.n_terms
    ins, out = subscripts.split("->")
    sub_a, sub_b = ins.split(",")
    rng = np.random.default_rng(31 + order)
    a = rng.uniform(-1, 1, (4,) * len(sub_a) + (above.n_terms,))
    b = rng.uniform(-1, 1, (4,) * len(sub_b) + (above.n_terms,))
    a_low, b_low = a[..., :n].copy(), b[..., :n].copy()
    chosen, _ = jets._plan(space, sub_a, sub_b, out, a_low, b_low)
    assert chosen is getattr(jets, f"_einsum_{kernel}")
    want = jets.jet_einsum(space, subscripts, a_low, b_low)
    for x, y in ((a, b), (a, b_low), (a_low, b)):
        assert np.array_equal(jets.jet_einsum(space, subscripts, x, y), want)
    for x, y in ((a_low, b), (a, b_low)):
        with pytest.raises(InsufficientOrderError):
            jets.jet_einsum(above, subscripts, x, y)


@pytest.mark.parametrize("p, products", [(2, 1), (3, 2), (5, 3)])
def test_int_power_takes_the_repeated_squaring_products(monkeypatch, p, products):
    # x^2 = x*x, x^3 = x*(x*x), x^5 = x*((x*x)*(x*x)): no product with a one jet
    space = JetSpace.get(2, 4)
    x = variable(space, 0, 0.7) * 1.3 + variable(space, 1, -0.4)
    x2 = x * x
    chain = {2: x2, 3: x * x2, 5: x * (x2 * x2)}[p]
    calls = []
    mul_arrays = jets.mul_arrays

    def counting(*args):
        calls.append(None)
        return mul_arrays(*args)

    monkeypatch.setattr(jets, "mul_arrays", counting)
    power = jets.int_power(x, p)
    assert len(calls) == products
    assert power.coeffs.tobytes() == chain.coeffs.tobytes()
