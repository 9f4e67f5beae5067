"""Vector field calculus: directional derivative, bracket, serialization."""

import json

import pytest

from todasym.fields import VectorField
from todasym.ratpoly import Polynomial, UniverseError, Vars
from conftest import random_field, random_polynomial
from lattice_helpers import toda_rhs


def test_component_counts_enforced():
    z = Polynomial.zero(3)
    with pytest.raises(ValueError):
        VectorField(3, (z,), (z, z, z))
    VectorField(3, (z, z), (z, z, z))


def test_apply_is_directional_derivative():
    v = Vars(2)
    field = VectorField(2, (v.one,), (v.zero, v.b(2)))
    f = v.a(1) ** 2 + v.b(2) ** 2
    assert field.apply(f) == 2 * v.a(1) + 2 * v.b(2) ** 2


def test_apply_ignores_t_direction():
    v = Vars(2)
    field = VectorField(2, (v.one,), (v.one, v.one))
    assert field.apply(v.t).is_zero()


def test_apply_sums_over_every_phase_direction(rng):
    # apply differentiates only in the variables f involves; the plain sum
    # over all 2N-1 directions is its slow oracle
    for n in (2, 3, 4):
        for _ in range(10):
            field = random_field(rng, n, with_t=True)
            f = random_polynomial(rng, n, with_t=True)
            pairs = zip(field.components(), map(f.diff_index, range(2 * n - 1)))
            assert field.apply(f) == sum((c * d for c, d in pairs), Polynomial.zero(n))


def test_apply_leibniz(rng):
    for _ in range(15):
        field = random_field(rng, 2)
        f = random_polynomial(rng, 2)
        g = random_polynomial(rng, 2)
        assert field.apply(f * g) == field.apply(f) * g + f * field.apply(g)


def test_bracket_antisymmetry(rng):
    for _ in range(10):
        v = random_field(rng, 2)
        w = random_field(rng, 2)
        assert v.bracket(w) == -(w.bracket(v))


def test_bracket_jacobi_identity(rng):
    for _ in range(6):
        u = random_field(rng, 2, max_terms=2, max_degree=2)
        v = random_field(rng, 2, max_terms=2, max_degree=2)
        w = random_field(rng, 2, max_terms=2, max_degree=2)
        total = (
            u.bracket(v.bracket(w))
            + v.bracket(w.bracket(u))
            + w.bracket(u.bracket(v))
        )
        assert total.is_zero()


def test_bracket_bilinearity(rng):
    u = random_field(rng, 3)
    v = random_field(rng, 3)
    w = random_field(rng, 3)
    assert u.bracket(v + w) == u.bracket(v) + u.bracket(w)
    assert u.bracket(v.scale(3)) == u.bracket(v).scale(3)


def test_autonomous_flag():
    v = Vars(2)
    assert toda_rhs(2).is_autonomous()
    timed = VectorField(2, (v.t * v.a(1),), (v.zero, v.zero))
    assert not timed.is_autonomous()


def test_dt_partial():
    v = Vars(2)
    field = VectorField(2, (v.t * v.a(1),), (v.t**2, v.zero))
    ddt = field.dt_partial()
    assert ddt.a == (v.a(1),)
    assert ddt.b == (2 * v.t, v.zero)


def test_universe_mismatch():
    with pytest.raises(UniverseError):
        toda_rhs(2).bracket(toda_rhs(3))
    with pytest.raises(UniverseError):
        toda_rhs(2).apply(Polynomial.variable(3, "b1"))


def test_json_round_trip(rng):
    field = random_field(rng, 3, with_t=True)
    obj = json.loads(json.dumps(field.to_json_obj()))
    assert obj["N"] == 3
    comps = [Polynomial.from_json_terms(3, item) for item in obj["a"] + obj["b"]]
    assert VectorField.from_components(3, comps) == field
