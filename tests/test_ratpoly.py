"""Exact polynomial arithmetic: ring laws, calculus, serialization."""

import json
from fractions import Fraction

import pytest

from todasym.ratpoly import (
    EXPONENT_LIMIT,
    ExponentError,
    Polynomial,
    UniverseError,
    Vars,
    _Layout,
    num_vars,
    var_names,
)
from conftest import random_polynomial
from algebra_helpers import evaluate, is_homogeneous, total_degree


def test_variable_order():
    assert var_names(3) == ("a1", "a2", "b1", "b2", "b3", "t")


def test_additive_inverse_cancels():
    v = Vars(2)
    p = v.a(1) * v.b(2)
    assert (p + (-p)).is_zero()


def test_add_merges_like_terms():
    v = Vars(2)
    q = v.b(1) ** 2
    assert q + q == 2 * v.b(1) ** 2


def test_add_x1_b_component_instance():
    # b-component of the first master field at the chain start, N=2
    v = Vars(2)
    total = 5 * v.a(1) ** 2 + v.b(1) ** 2
    assert (5 * v.a(1) ** 2) + (v.b(1) ** 2) == total


def test_mul_by_zero(rng):
    v = Vars(3)
    p = random_polynomial(rng, 3)
    assert (p * v.zero).is_zero()


def test_square_of_sum():
    v = Vars(2)
    b1, b2 = v.b(1), v.b(2)
    assert (b1 + b2) ** 2 == b1**2 + 2 * b1 * b2 + b2**2


def test_mul_flow_component():
    v = Vars(2)
    assert v.a(1) * (v.b(2) - v.b(1)) == v.a(1) * v.b(2) - v.a(1) * v.b(1)


def test_diff_power_rule():
    v = Vars(2)
    assert (v.b(1) ** 2).diff("b1") == 2 * v.b(1)


def test_diff_absent_variable():
    v = Vars(2)
    assert (v.a(1) * v.b(2)).diff("t").is_zero()


def test_variables_are_the_directions_with_a_nonzero_partial(rng):
    for n in (2, 3, 4):
        for _ in range(20):
            p = random_polynomial(rng, n, with_t=True)
            assert p.variables() == tuple(i for i in range(num_vars(n)) if p.diff_index(i))
    assert Polynomial.zero(3).variables() == ()


def test_diff_h2_in_a1():
    # H_2 at N=2 expanded by hand: b1^2/2 + b2^2/2 + a1^2
    v = Vars(2)
    h2 = v.b(1) ** 2 / 2 + v.b(2) ** 2 / 2 + v.a(1) ** 2
    assert h2.diff("a1") == 2 * v.a(1)


def test_evaluate_exact():
    v = Vars(2)
    assert evaluate(v.b(1) + v.b(2), {"b1": 1, "b2": 2}) == Fraction(3)


def test_evaluate_zero():
    assert evaluate(Polynomial.zero(3), {}) == 0


def test_evaluate_boundary_expression():
    # 2 a1^2 - 2 a0^2 with a0 the zero polynomial
    v = Vars(2)
    p = 2 * v.a(1) ** 2 - 2 * v.a(0) ** 2
    assert evaluate(p, {"a1": Fraction(1, 2)}) == Fraction(1, 2)


def test_evaluate_float_mode():
    v = Vars(2)
    value = evaluate(v.a(1) * v.b(1), {"a1": 0.5, "b1": 4})
    assert isinstance(value, float) and value == 2.0


def test_evaluate_missing_assignment():
    v = Vars(2)
    with pytest.raises(ValueError, match="missing assignment"):
        evaluate(v.a(1) + v.b(1), {"a1": 1})


def test_is_zero_after_cancellation():
    v = Vars(2)
    p = (v.b(1) + v.b(2)) ** 2 - v.b(1) ** 2 - 2 * v.b(1) * v.b(2) - v.b(2) ** 2
    assert p.is_zero()


def test_self_difference_is_zero(rng):
    p = random_polynomial(rng, 3, with_t=True)
    assert (p - p).is_zero()


def test_ring_axioms_random(rng):
    for _ in range(40):
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        r = random_polynomial(rng, 3)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_product_degree_adds(rng):
    for _ in range(20):
        p = random_polynomial(rng, 2)
        q = random_polynomial(rng, 2)
        if p.is_zero() or q.is_zero():
            continue
        assert total_degree(p * q) == total_degree(p) + total_degree(q)


def test_mixed_partials_commute(rng):
    for _ in range(30):
        p = random_polynomial(rng, 3, max_terms=5, max_degree=4, with_t=True)
        for x, y in (("a1", "b2"), ("b1", "t"), ("a2", "a1")):
            assert p.diff(x).diff(y) == p.diff(y).diff(x)


def test_product_rule(rng):
    for _ in range(20):
        p = random_polynomial(rng, 2)
        q = random_polynomial(rng, 2)
        lhs = (p * q).diff("b1")
        rhs = p.diff("b1") * q + p * q.diff("b1")
        assert lhs == rhs


def test_evaluate_is_ring_homomorphism(rng):
    point = {name: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for name in var_names(2)}
    for _ in range(20):
        p = random_polynomial(rng, 2, with_t=True)
        q = random_polynomial(rng, 2, with_t=True)
        assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
        assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)


def test_universe_mismatch_rejected():
    with pytest.raises(UniverseError):
        Polynomial.variable(2, "b1") + Polynomial.variable(3, "b1")
    with pytest.raises(UniverseError):
        Polynomial.variable(2, "b1") * Polynomial.variable(3, "b1")


def test_unknown_variable_rejected():
    with pytest.raises(UniverseError):
        Polynomial.variable(2, "a2")
    with pytest.raises(UniverseError):
        Polynomial.variable(2, "b1").diff("b3")


def test_vars_boundary_convention():
    v = Vars(4)
    assert v.a(0).is_zero() and v.a(4).is_zero()
    assert v.b(0).is_zero() and v.b(5).is_zero()
    assert not v.a(3).is_zero() and not v.b(4).is_zero()


def test_json_round_trip_bit_exact(rng):
    for _ in range(20):
        p = random_polynomial(rng, 3, max_terms=6, with_t=True)
        blob = json.dumps(p.to_json_terms())
        q = Polynomial.from_json_terms(3, json.loads(blob))
        assert q == p
        assert json.dumps(q.to_json_terms()) == blob


def test_json_terms_sorted_and_sparse():
    v = Vars(2)
    p = v.b(2) ** 2 + 3 * v.a(1) - Fraction(1, 2) * v.t
    data = p.to_json_terms()
    assert [item["coeff"] for item in data] == ["3", "-1/2", "1"]
    assert data[0]["exps"] == {"a1": 1}
    assert data[1]["exps"] == {"t": 1}
    assert data[2]["exps"] == {"b2": 2}
    assert all(0 not in item["exps"].values() for item in data)


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        Polynomial.from_json_terms(2, [{"coeff": "1", "exps": {"c1": 1}}])
    with pytest.raises(ValueError):
        Polynomial.from_json_terms(2, [{"coeff": "1", "exps": {"a1": 0}}])


def test_str_rendering():
    v = Vars(2)
    p = -v.a(1) * v.b(1) + 3 * v.a(1) * v.b(2)
    assert str(p) == "-a1*b1 + 3*a1*b2"
    assert str(Polynomial.zero(2)) == "0"


def test_homogeneity_predicate():
    v = Vars(2)
    assert is_homogeneous(v.a(1) * v.b(1) + v.b(2) ** 2, 2)
    assert not is_homogeneous(v.a(1) + v.b(2) ** 2)


def test_json_rejects_bool_exponent():
    with pytest.raises(ExponentError):
        Polynomial.from_json_terms(2, [{"coeff": "1", "exps": {"a1": True}}])
    assert issubclass(ExponentError, ValueError)


def test_constructor_rejects_bool_exponent():
    with pytest.raises(ExponentError):
        Polynomial(2, {(True, 0, 0, 0): 1})


def test_exponent_limit_rejected_on_input():
    with pytest.raises(ExponentError):
        Polynomial.from_json_terms(2, [{"coeff": "1", "exps": {"b2": EXPONENT_LIMIT}}])
    for slot in range(num_vars(2)):
        mono = [0] * num_vars(2)
        mono[slot] = EXPONENT_LIMIT
        with pytest.raises(ExponentError):
            Polynomial(2, {tuple(mono): 1})


def test_largest_exponent_round_trips():
    top = EXPONENT_LIMIT - 1
    mono = (top,) * num_vars(3)
    p = Polynomial(3, {mono: Fraction(-7, 3)})
    assert dict(p.terms) == {mono: Fraction(-7, 3)}
    assert Polynomial.from_json_terms(3, p.to_json_terms()) == p
    assert p.diff("t").terms == {mono[:-1] + (top - 1,): Fraction(-7 * top, 3)}


def test_power_past_limit_raises():
    v = Vars(2)
    assert v.a(1) ** (EXPONENT_LIMIT - 1) == Polynomial(2, {(EXPONENT_LIMIT - 1, 0, 0, 0): 1})
    with pytest.raises(ExponentError):
        v.a(1) ** EXPONENT_LIMIT


def test_product_past_limit_raises():
    # each factor is valid; their a1 degrees sum to the limit, and the
    # overflow must not carry into b1 (the neighbouring field)
    v = Vars(2)
    high = Polynomial(2, {(EXPONENT_LIMIT - 1, 0, 0, 0): 1}) + v.b(1)
    with pytest.raises(ExponentError):
        high * (v.a(1) * v.b(1))
    half = Polynomial(2, {(EXPONENT_LIMIT // 2, 0, 0, 0): 1})
    with pytest.raises(ExponentError):
        half * half
    below = Polynomial(2, {(EXPONENT_LIMIT // 2 - 1, 0, 0, 0): 1})
    assert (below * half).terms == {(EXPONENT_LIMIT - 1, 0, 0, 0): 1}


def test_terms_view_is_read_only_mapping():
    v = Vars(2)
    p = v.a(1) / 2 - v.b(2) ** 3
    assert len(p.terms) == 2
    assert p.terms[(1, 0, 0, 0)] == Fraction(1, 2)
    assert p.terms.get((0, 0, 0, 1)) is None
    assert p.terms.get((1, 0)) is None
    assert (0, 0, 3, 0) in p.terms
    assert sorted(p.terms) == [(0, 0, 3, 0), (1, 0, 0, 0)]
    with pytest.raises(TypeError):
        p.terms[(1, 0, 0, 0)] = 1


def test_layout_guard_is_the_limit_in_every_field():
    # the guard is built from bytes in linear time; the sum over the shifted
    # fields is its definition, quadratic in N
    for n in range(2, 41):
        layout = _Layout(n)
        assert layout.guard == sum(EXPONENT_LIMIT << s for s in layout.shifts), n
