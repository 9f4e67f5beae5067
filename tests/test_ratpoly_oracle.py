"""Packed kernel against the tuple/Fraction reference kernel, plus ring laws.

``reference_ratpoly`` is the original implementation of ``Polynomial``
(tuple monomials, one ``Fraction`` per term).  Every operation of the
packed kernel must give the same terms, string and JSON as the reference
on the same inputs, and ``Polynomial.dot`` must equal the reference sum of
products.  The property tests below also check the ring axioms,
the Leibniz rule for ``diff_index`` and the Jacobi identity of
``VectorField.bracket`` directly.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import reference_ratpoly as ref  # noqa: E402
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


@given(operands())
def test_arithmetic_matches_reference(case):
    n, maps = case
    (p, rp), (q, rq), (r, rr) = (pair(n, m) for m in maps)
    assert_same(p, rp)
    assert_same(p + q, rp + rq)
    assert_same(p - q, rp - rq)
    assert_same(p * q, rp * rq)
    assert_same(p * q - r, rp * rq - rr)
    assert_same(-p, -rp)
    assert_same(p**2, rp**2)
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
    assert_same(Polynomial.dot(n, pairs), expected)
    assert_same(Polynomial.dot(n, iter(pairs)), expected)


def test_dot_edge_cases():
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
    cases = ((p + q, rp + rq), (p - p, rp - rp), (p * q + p * p, rp * rq + rp * rp))
    for packed, reference in cases:
        assert_same(packed, reference)
        assert packed.is_zero() and packed == Polynomial.zero(n)
    # a sum of thirds that adds up to an integer polynomial
    third = Polynomial(n, {(0, 0, 0, 0, 0, 0): Fraction(1, 3)})
    assert third + third + third == Polynomial.const(n, 1)


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
            assert to_sympy(left * right) == to_sympy(left) * to_sympy(right)
