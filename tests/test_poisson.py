"""Antisymmetric tensors: brackets, Lie derivative, Schouten certificate."""

import json
from fractions import Fraction
from itertools import combinations, product

import pytest

from todasym.fields import VectorField
from todasym.lattice import hamiltonian
from todasym.poisson import (
    PoissonTensor,
    hamiltonian_field,
    lie_derivative,
    poisson_bracket,
    schouten_self,
)
from todasym.ratpoly import Polynomial, Vars
from todasym.hierarchy import master_field, poisson_tensor
from conftest import random_field, random_polynomial
import reference_poisson as ref
from lattice_helpers import gradient


def test_from_upper_entries_mirrors():
    v = Vars(2)
    w = PoissonTensor(2, {(0, 1): v.a(1), (1, 2): v.zero})
    assert w.entry(0, 1) == v.a(1)
    assert w.entry(1, 0) == -v.a(1)
    assert w.entry(0, 0).is_zero()
    assert w.upper == {(0, 1): v.a(1)}
    for key in ((1, 0), (1, 1), (0, 3)):
        with pytest.raises(ValueError, match="out of range"):
            PoissonTensor(2, {key: v.a(1)})


def test_hamiltonian_field_is_matrix_action():
    n = 2
    w1 = poisson_tensor(1, n)
    h = hamiltonian(2, n)
    grads = gradient(h, n)
    manual = []
    for i in range(3):
        acc = Polynomial.zero(n)
        for j in range(3):
            acc = acc + w1.entry(i, j) * grads[j]
        manual.append(acc)
    assert hamiltonian_field(w1, h) == VectorField.from_components(n, manual)


def test_poisson_bracket_antisymmetry(rng):
    w1 = poisson_tensor(1, 3)
    for _ in range(10):
        f = random_polynomial(rng, 3)
        g = random_polynomial(rng, 3)
        assert poisson_bracket(w1, f, g) == -poisson_bracket(w1, g, f)


def test_bracket_field_consistency(rng):
    # X_g(f) = {f, g} with the sign convention X_g = w . grad g
    w1 = poisson_tensor(1, 3)
    for _ in range(10):
        f = random_polynomial(rng, 3)
        g = random_polynomial(rng, 3)
        assert hamiltonian_field(w1, g).apply(f) == poisson_bracket(w1, f, g)


def test_lie_derivative_of_zero_tensor():
    zero = PoissonTensor(3, {})
    assert lie_derivative(master_field(1, 3), zero).is_zero()


def test_lie_derivative_requires_autonomous():
    v = Vars(2)
    timed = VectorField(2, (v.t,), (v.zero, v.zero))
    with pytest.raises(ValueError, match="autonomous"):
        lie_derivative(timed, poisson_tensor(1, 2))


def test_lie_derivative_euler_grading():
    # w_1 has degree-1 entries, so the Euler field scales it by 1 - 2 = -1
    for n in (2, 3):
        w1 = poisson_tensor(1, n)
        assert lie_derivative(master_field(0, n), w1) == w1.scale(-1)


def test_lie_derivative_is_a_derivation_of_the_bracket(rng):
    # L_X w applied to (df, dg) = X({f,g}) - {Xf, g} - {f, Xg}
    n = 2
    w1 = poisson_tensor(1, n)
    x = master_field(1, n)
    lw = lie_derivative(x, w1)
    for _ in range(8):
        f = random_polynomial(rng, n)
        g = random_polynomial(rng, n)
        lhs = poisson_bracket(lw, f, g)
        rhs = (
            x.apply(poisson_bracket(w1, f, g))
            - poisson_bracket(w1, x.apply(f), g)
            - poisson_bracket(w1, f, x.apply(g))
        )
        assert lhs == rhs


def test_schouten_constant_tensor_vanishes():
    v = Vars(3)
    w = PoissonTensor(
        3, {(0, 1): v.one, (2, 3): v.const(5), (1, 4): v.const(-2)}
    )
    assert schouten_self(w).is_zero()


def test_schouten_detects_non_poisson():
    # {a1,b1} = a1, {a1,b2} = -b2, {b1,b2} = b1 violates Jacobi: each cyclic
    # term of the self-bracket on (0,1,2) contributes one variable
    v = Vars(2)
    w = PoissonTensor(
        2, {(0, 1): v.a(1), (0, 2): -v.b(2), (1, 2): v.b(1)}
    )
    bracket3 = schouten_self(w)
    assert bracket3.entries[(0, 1, 2)] == v.a(1) + v.b(1) + v.b(2)


def test_schouten_linear_bracket_zero():
    for n in (2, 3, 4, 5):
        assert schouten_self(poisson_tensor(1, n)).is_zero()


def test_tensor_arithmetic():
    w1 = poisson_tensor(1, 2)
    assert (w1 - w1).is_zero()
    assert w1 + w1 == w1.scale(2)
    assert (w1 / 2).scale(2) == w1


def test_tensor_json_round_trip():
    w2 = poisson_tensor(2, 3)
    matrix = json.loads(json.dumps(w2.to_json_obj()))["matrix"]
    dim = w2.dim()
    assert len(matrix) == dim and all(len(row) == dim for row in matrix)
    for i, j in product(range(dim), repeat=2):
        assert Polynomial.from_json_terms(3, matrix[i][j]) == w2.entry(i, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tensor_json_mirrors_equal_negated_entries(n):
    # each lower entry is emitted from its mirror's JSON, with the signs
    # flipped: it must equal the negated polynomial's own JSON, term for term
    for k in range(1, 7):
        w = poisson_tensor(k, n)
        dim = w.dim()
        expected = [[w.entry(i, j).to_json_terms() for j in range(dim)] for i in range(dim)]
        assert json.dumps(w.to_json_obj()) == json.dumps({"N": n, "matrix": expected})


def test_tensor_json_mirrors_fraction_coefficients(rng):
    w = random_tensor(rng, 3).scale(Fraction(-3, 7))
    dim = w.dim()
    expected = [[w.entry(i, j).to_json_terms() for j in range(dim)] for i in range(dim)]
    assert json.dumps(w.to_json_obj()["matrix"]) == json.dumps(expected)
    assert any("/" in t["coeff"] for row in expected for entry in row for t in entry)


def random_tensor(rng, n):
    """Antisymmetric, in general not Poisson, with about a third of the entries zero."""
    upper = {
        key: random_polynomial(rng, n, max_terms=3, max_degree=2)
        for key in combinations(range(2 * n - 1), 2)
        if rng.random() < 0.7
    }
    return PoissonTensor(n, upper)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sparse_calculus_matches_dense_reference(rng, n):
    nonzero_slots = 0
    for _ in range(4):
        w = random_tensor(rng, n)
        h = random_polynomial(rng, n)
        assert hamiltonian_field(w, h) == ref.hamiltonian_field(w, h)
        x = random_field(rng, n)
        assert lie_derivative(x, w) == ref.lie_derivative(x, w)
        dense = ref.schouten_self(w).entries
        nonzero = {key: p for key, p in dense.items() if p}
        bracket3 = schouten_self(w)
        assert bracket3.entries == nonzero
        # verify's witness walks the entries in this order
        assert list(bracket3.entries) == sorted(nonzero)
        nonzero_slots += len(nonzero)
    assert nonzero_slots, "no random tensor failed Jacobi, so no slot was compared"


def test_sparse_calculus_matches_dense_reference_on_the_tower():
    n = 3
    for k in (1, 2, 3):
        w = poisson_tensor(k, n)
        assert hamiltonian_field(w, hamiltonian(3, n)) == ref.hamiltonian_field(
            w, hamiltonian(3, n)
        )
        assert lie_derivative(master_field(1, n), w) == ref.lie_derivative(
            master_field(1, n), w
        )
        assert schouten_self(w).is_zero()
        assert not any(ref.schouten_self(w).entries.values())
