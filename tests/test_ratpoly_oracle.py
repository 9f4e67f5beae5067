"""Packed kernel against the tuple/Fraction reference kernel, plus ring laws.

``reference_ratpoly`` is the original implementation of ``Polynomial``
(tuple monomials, one ``Fraction`` per term).  Every operation of the
packed kernel must give the same terms, string and JSON as the reference
on the same inputs, and ``Polynomial.dot`` must equal the reference sum of
products.  Every product test runs twice, with the vectorised int64 kernel
of ``dot`` forced on and forced off, and the two kernels must agree term
for term and in term order.  The property tests below also check the ring
axioms, the Leibniz rule for ``diff_index`` and the Jacobi identity of
``VectorField.bracket`` directly.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import reference_ratpoly as ref  # noqa: E402
from todasym import ratpoly  # noqa: E402
from todasym.fields import VectorField  # noqa: E402
from todasym.hierarchy import master_field, poisson_tensor  # noqa: E402
from todasym.ratpoly import (  # noqa: E402
    EXPONENT_LIMIT,
    ExponentError,
    Polynomial,
    UniverseError,
)

SIZES = st.integers(2, 3)
# denominators 1..6 mix within and across operands, as in X_k, w_k and H_m
COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def term_maps(n, max_terms=5, max_exp=3):
    mono = st.tuples(*[st.integers(0, max_exp)] * (2 * n))
    return st.dictionaries(mono, COEFFS, max_size=max_terms)


@st.composite
def operands(draw, count=3):
    """Lattice size and `count` term maps; the second one partly cancels the first."""
    n = draw(SIZES)
    maps = [draw(term_maps(n)) for _ in range(count)]
    if count > 1:
        first = list(maps[0].items())
        keep = draw(st.lists(st.booleans(), min_size=len(first), max_size=len(first)))
        maps[1].update({m: -c for (m, c), k in zip(first, keep) if k})
    return n, maps


def assert_same(packed: Polynomial, reference: ref.Polynomial):
    assert dict(packed.terms) == reference.terms
    assert len(packed.terms) == len(reference.terms)
    assert str(packed) == str(reference)
    assert packed.to_json_terms() == reference.to_json_terms()


def pair(n, terms):
    return Polynomial(n, terms), ref.Polynomial(n, terms)


KERNELS = (False, True)  # dot's vectorised kernel forced off, then forced on


@contextmanager
def kernel(vector):
    """Force the vectorised kernel of dot on (where its bounds hold) or off.

    Its size rule forces it: with both thresholds 0 every product takes the
    arrays, and a minimum no product reaches keeps every product on the loop.
    vector=None leaves the rule as it is.
    """
    with pytest.MonkeyPatch.context() as mp:
        if vector is not None:
            mp.setattr(ratpoly, "_VECTOR_MIN_PAIRS", 0 if vector else float("inf"))
            mp.setattr(ratpoly, "_VECTOR_PAIRS_PER_TERM", 0)
        yield


def dot_both_ways(n, pairs):
    """dot under each kernel; the two results must agree term for term, in order."""
    pairs = list(pairs)
    results = []
    for vector in KERNELS:
        with kernel(vector):
            results.append(Polynomial.dot(n, pairs))
    loop, arrays = results
    assert list(arrays._nums.items()) == list(loop._nums.items())
    assert arrays._den == loop._den
    return arrays


def dot_and_loop_runs(n, pairs, vector=True):
    """dot under kernel(vector), and how often the loop ran instead of the arrays.

    vector=None leaves the choice to dot's size rule.
    """
    runs = []
    loop = ratpoly._dot_loop
    with kernel(vector), pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratpoly, "_dot_loop", lambda *args: runs.append(args) or loop(*args))
        return Polynomial.dot(n, pairs), len(runs)


@given(operands())
def test_arithmetic_matches_reference(case):
    n, maps = case
    (p, rp), (q, rq), (r, rr) = (pair(n, m) for m in maps)
    assert_same(p, rp)
    assert_same(p + q, rp + rq)
    assert_same(p - q, rp - rq)
    assert_same(dot_both_ways(n, [(p, q)]), rp * rq)
    for vector in KERNELS:
        with kernel(vector):
            assert_same(p * q - r, rp * rq - rr)
            assert_same(p**2, rp**2)
    assert_same(-p, -rp)
    assert (p == q) == (rp == rq)
    assert ((p + q) - q == p) and (p - p == Polynomial.zero(n))


@given(operands(count=1), COEFFS, st.integers(-4, 4))
def test_scale_and_diff_match_reference(case, frac, whole):
    n, (terms,) = case
    p, rp = pair(n, terms)
    assert_same(p.scale(frac), rp.scale(frac))
    assert_same(p.scale(whole), rp.scale(whole))
    assert_same(whole * p, whole * rp)
    if frac:
        assert_same(p / frac, rp / frac)
        assert p.scale(frac) / frac == p
    for idx in range(2 * n):
        assert_same(p.diff_index(idx), rp.diff_index(idx))


@st.composite
def dot_cases(draw):
    """Lattice size and up to five pairs of term maps, empty maps included.

    Half the time the negation of the first pair is appended, so that the
    whole sum of that pair cancels exactly against it.
    """
    n = draw(SIZES)
    pairs = draw(st.lists(st.tuples(term_maps(n), term_maps(n)), max_size=4))
    if pairs and draw(st.booleans()):
        p, q = pairs[0]
        pairs.append(({m: -c for m, c in p.items()}, q))
    return n, pairs


@given(dot_cases())
def test_dot_matches_reference_sum_of_products(case):
    n, maps = case
    pairs = [(Polynomial(n, p), Polynomial(n, q)) for p, q in maps]
    expected = ref.Polynomial.zero(n)
    for p, q in maps:
        expected = expected + ref.Polynomial(n, p) * ref.Polynomial(n, q)
    assert_same(dot_both_ways(n, pairs), expected)
    for vector in KERNELS:
        with kernel(vector):
            assert_same(Polynomial.dot(n, iter(pairs)), expected)


def test_dot_edge_cases():
    for vector in KERNELS:
        with kernel(vector):
            dot_edge_cases()


def dot_edge_cases():
    n = 2
    a1, b1 = Polynomial.variable(n, "a1"), Polynomial.variable(n, "b1")
    third = Polynomial.const(n, Fraction(1, 3))
    zero = Polynomial.zero(n)
    assert Polynomial.dot(n, []) == zero
    assert Polynomial.dot(n, [(zero, a1), (b1, zero), (zero, zero)]) == zero
    # mixed denominators that cancel exactly, and ones that add to an integer
    assert Polynomial.dot(n, [(third, a1), (a1, -third)]) == zero
    assert Polynomial.dot(n, [(third, a1), (a1 / 2, third * 4)]) == a1
    other = Polynomial.variable(3, "a1")
    with pytest.raises(UniverseError):
        Polynomial.dot(n, [(a1, other)])
    with pytest.raises(UniverseError):
        Polynomial.dot(3, [(a1, b1)])
    big = a1 ** (EXPONENT_LIMIT - 1)
    with pytest.raises(ExponentError):
        Polynomial.dot(n, [(big, a1 * b1)])
    # a product past the limit raises even when another pair cancels it
    with pytest.raises(ExponentError):
        Polynomial.dot(n, [(big, a1), (-big, a1)])


def test_exact_cancellation_to_empty_polynomial():
    n = 3
    terms = {(1, 0, 0, 0, 0, 0): Fraction(1, 2), (0, 0, 1, 0, 0, 1): Fraction(-5, 6)}
    p, rp = pair(n, terms)
    q, rq = pair(n, {m: -c for m, c in terms.items()})
    products = []
    for vector in KERNELS:
        with kernel(vector):
            products.append(p * q + p * p)
    summed = dot_both_ways(n, [(p, q), (p, p)])
    cases = (
        (p + q, rp + rq),
        (p - p, rp - rp),
        *((product, rp * rq + rp * rp) for product in products),
        (summed, rp * rq + rp * rp),
    )
    for packed, reference in cases:
        assert_same(packed, reference)
        assert packed.is_zero() and packed == Polynomial.zero(n)
    # a sum of thirds that adds up to an integer polynomial
    third = Polynomial(n, {(0, 0, 0, 0, 0, 0): Fraction(1, 3)})
    assert third + third + third == Polynomial.const(n, 1)


def monomial(n, **exps):
    """The exponent tuple of a monomial in the named variables."""
    names = ref.var_names(n)
    return tuple(exps.get(name, 0) for name in names)


def reference_dot(n, maps):
    expected = ref.Polynomial.zero(n)
    for p, q in maps:
        expected = expected + ref.Polynomial(n, p) * ref.Polynomial(n, q)
    return expected


@pytest.mark.parametrize("coeff", [1 << 62, -(1 << 62), 1 << 64], ids=["2^62", "-2^62", "2^64"])
def test_dot_numerator_past_int64_bound_runs_the_loop(coeff):
    # 3 * 2**62 wraps in int64; 2**64 does not fit int64 at all
    n = 2
    p = {monomial(n, a1=1): coeff, monomial(n, b1=1): 1}
    q = {monomial(n, b1=1): 3, monomial(n, b2=1): -1}
    maps = [(p, q)]
    pairs = [(Polynomial(n, p), Polynomial(n, q)) for p, q in maps]
    got, loop_runs = dot_and_loop_runs(n, pairs)
    assert_same(got, reference_dot(n, maps))
    assert loop_runs == 1
    dot_both_ways(n, pairs)


def test_dot_bound_sums_over_factors():
    # each factor stays below 2**62 on its own, but all three land on the
    # key a1*b1, where their sum 3 * (2**62 - 1) does not fit int64
    n = 2
    coeff = (1 << 62) - 1
    maps = [({monomial(n, a1=1): coeff}, {monomial(n, b1=1): 1})] * 3
    pairs = [(Polynomial(n, p), Polynomial(n, q)) for p, q in maps]
    got, loop_runs = dot_and_loop_runs(n, pairs)
    assert_same(got, reference_dot(n, maps))
    assert loop_runs == 1
    # two of them fit: 2 * (2**62 - 1) < 2**63, but the bound 2**63 - 2 is past 2**62
    assert dot_and_loop_runs(n, pairs[:2])[1] == 1
    assert dot_and_loop_runs(n, pairs[:1])[1] == 0


@pytest.mark.parametrize("top", [127, 63], ids=["radix-2^70", "radix-2^60"])
def test_dot_radix_past_int64_bound_runs_the_loop(top):
    # every one of the ten variables of N=5 reaches `top` in the product, so
    # the mixed radix is (top + 1)**10: 2**70 does not fit int64, and 2**60
    # does, but not with the 7 bits that the 110 pair indices need beside it
    n = 5
    names = ref.var_names(n)
    half = (top + 1) // 2
    p = {monomial(n, **{name: half}): 1 for name in names}
    # a1**(top - 8) sits 8 * 64**9 = 2**57 below a1**top at radix 64: the
    # shift by 7 bits would carry that difference out of int64
    p[monomial(n, a1=half - 8)] = 2
    q = {monomial(n, **{name: top - half}): -1 for name in names}
    maps = [(p, q)]
    pairs = [(Polynomial(n, p), Polynomial(n, q))]
    got, loop_runs = dot_and_loop_runs(n, pairs)
    assert_same(got, reference_dot(n, maps))
    assert loop_runs == 1


def test_dot_exponent_limit_raises_under_both_kernels():
    n = 2
    a1, b1 = Polynomial.variable(n, "a1"), Polynomial.variable(n, "b1")
    below = a1 ** (EXPONENT_LIMIT - 2)
    for vector in (False, True):
        with kernel(vector):
            with pytest.raises(ExponentError):
                Polynomial.dot(n, [(below * a1, a1 * b1)])
            # raised even where another pair cancels the product exactly
            with pytest.raises(ExponentError):
                Polynomial.dot(n, [(below, a1 * a1), (-below * a1, a1)])
            top = Polynomial.dot(n, [(below, a1 + b1)])
            assert top.terms[(EXPONENT_LIMIT - 1, 0, 0, 0)] == 1
    got, loop_runs = dot_and_loop_runs(n, [(below, a1 + b1)])
    assert loop_runs == 0


def test_dot_cancels_to_the_empty_polynomial():
    n = 3
    p = Polynomial(n, {monomial(n, a1=1): Fraction(1, 2), monomial(n, b1=2, t=1): Fraction(-5, 6)})
    q = Polynomial(n, {monomial(n, b2=1): 3, monomial(n, a2=1, b3=1): Fraction(1, 4), (0,) * 6: 1})
    got, loop_runs = dot_and_loop_runs(n, [(p, q), (q, -p), (p * 0, q)])
    assert loop_runs == 0
    assert got.is_zero() and got._nums == {} and got._den == 1
    assert dot_both_ways(n, [(p, q), (-q, p)]).is_zero()


def test_dot_scales_factors_with_different_denominators():
    n = 3
    a1, a2, b1, b2 = (monomial(n, **{name: 1}) for name in ("a1", "a2", "b1", "b2"))
    one = (0,) * 6
    maps = [
        ({a1: Fraction(1, 3)}, {b1: Fraction(1, 2), b2: 1}),
        ({a1: Fraction(1, 5), b1: 1}, {b2: Fraction(2, 7)}),
        ({a2: 1}, {b1: Fraction(1, 6), one: Fraction(-3, 4)}),
    ]
    pairs = [(Polynomial(n, p), Polynomial(n, q)) for p, q in maps]
    got, loop_runs = dot_and_loop_runs(n, pairs)
    assert loop_runs == 0
    assert_same(got, reference_dot(n, maps))
    assert got._den == 420
    dot_both_ways(n, pairs)


def test_dot_of_empty_operands():
    n = 2
    zero = Polynomial.zero(n)
    p = Polynomial(n, {monomial(n, a1=1): Fraction(1, 3), monomial(n, b2=2): 2})
    for pairs in ([], [(zero, p)], [(p, zero), (zero, zero)]):
        got, _ = dot_and_loop_runs(n, pairs)
        assert got._nums == {} and got._den == 1
    got, loop_runs = dot_and_loop_runs(n, [(zero, p), (p, p), (p, zero)])
    assert loop_runs == 0
    assert got == p * p
    assert list(got._nums.items()) == list(dot_both_ways(n, [(p, p)])._nums.items())


def test_dot_size_rule_picks_the_kernel():
    # 40 x 40 terms: 1,600 term pairs, at least 800 + 2 * 80, run on arrays;
    # 3 x 300 terms: 900 term pairs, below 800 + 2 * 303, stay on the loop
    n = 3
    wide = Polynomial(n, {monomial(n, a1=i, b1=j): i + j + 1 for i in range(8) for j in range(5)})
    tall = Polynomial(n, {monomial(n, a2=i, b2=j): i - j or 7 for i in range(8) for j in range(5)})
    exps = [(i, j, k) for i in range(10) for j in range(6) for k in range(5)]
    long = Polynomial(n, {monomial(n, a1=i, b1=j, b2=k): i - k or 3 for i, j, k in exps})
    short = Polynomial(n, {monomial(n, b3=1): 2, monomial(n, t=1): 1, (0,) * 6: -1})
    assert dot_and_loop_runs(n, [(wide, tall)], vector=None)[1] == 0
    assert dot_and_loop_runs(n, [(short, long)], vector=None)[1] == 1


@given(operands())
def test_ring_axioms(case):
    n, maps = case
    p, q, r = (Polynomial(n, m) for m in maps)
    zero, one = Polynomial.zero(n), Polynomial.const(n, 1)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert (p + (-p)).is_zero()
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(operands(count=2), st.integers(0, 5))
def test_leibniz_rule(case, idx):
    n, (f, g) = case
    p, q = Polynomial(n, f), Polynomial(n, g)
    idx %= 2 * n
    assert (p * q).diff_index(idx) == p.diff_index(idx) * q + p * q.diff_index(idx)


@st.composite
def fields(draw):
    n = draw(SIZES)

    def field():
        small = term_maps(n, max_terms=2, max_exp=1)
        comps = [Polynomial(n, draw(small)) for _ in range(2 * n - 1)]
        return VectorField.from_components(n, comps)

    return field(), field(), field()


@settings(max_examples=15)
@given(fields())
def test_bracket_jacobi_identity(triple):
    x, y, z = triple
    total = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
    assert total.is_zero()
    assert x.bracket(y) == -y.bracket(x)


def test_products_match_sympy():
    sympy = pytest.importorskip("sympy")
    n = 3
    gens = sympy.symbols("a1 a2 b1 b2 b3 t")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
            gens,
            domain=sympy.QQ,
        )

    x3 = master_field(3, n).components()
    w2 = poisson_tensor(2, n)
    entries = [w2.entry(i, j) for i in range(w2.dim()) for j in range(i + 1, w2.dim())]
    factors = [p for p in (*x3, *entries) if not p.is_zero()]
    for left in x3:
        for right in factors:
            product = dot_both_ways(n, [(left, right)])
            assert to_sympy(product) == to_sympy(left) * to_sympy(right)
