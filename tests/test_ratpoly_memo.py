"""The partial derivatives and variable sets kept on a polynomial.

``Polynomial.variables`` computes its result once and keeps it on the
polynomial; ``Polynomial.diff_index`` keeps a partial derivative from its
second request on.  The kept results must equal a fresh computation, stay
immutable to callers, and leave every object the hierarchy builds on top
of them term for term and in term order as it is without the memo.
"""

from fractions import Fraction

import pytest

from todasym import hierarchy, lattice, symmetry
from todasym.hierarchy import chi, master_field, poisson_tensor
from todasym.ratpoly import Polynomial, num_vars
from todasym.symmetry import build_Y
from conftest import random_polynomial

CACHED = (
    hierarchy.master_field,
    hierarchy.poisson_tensor,
    hierarchy.chi,
    lattice.hamiltonian,
    lattice._lax_power,
    symmetry.build_Y,
)


def fresh_partial(p: Polynomial, idx: int) -> Polynomial:
    """d p / d x_idx from the public terms, kept nowhere."""
    out = {}
    for mono, coeff in p.terms.items():
        if mono[idx]:
            lower = list(mono)
            lower[idx] -= 1
            out[tuple(lower)] = coeff * mono[idx]
    return Polynomial(p.n, out)


def fresh_variables(p: Polynomial) -> tuple[int, ...]:
    return tuple(i for i in range(num_vars(p.n)) if any(mono[i] for mono in p.terms))


def packed(objs) -> list:
    """(term list in order, denominator) of every polynomial in objs."""
    return [(list(p._nums.items()), p._den) for p in objs]


def tower(top_n: int) -> dict:
    out = {}
    for n in range(2, top_n + 1):
        for k in range(-1, 9):
            out[f"X_{k}/N={n}"] = packed(master_field(k, n).components())
        for k in range(1, 7):
            w = poisson_tensor(k, n)
            out[f"w_{k}/N={n}"] = packed(w.upper.values()) + [list(w.upper)]
        for l in range(1, 7):
            out[f"chi_{l}/N={n}"] = packed(chi(l, n).components())
        for k in range(-1, 5):
            cand = build_Y(k, n)
            out[f"Y_{k}/N={n}"] = packed((cand.tau,) + cand.phi + cand.psi)
    return out


@pytest.fixture
def cold_caches():
    for cached in CACHED:
        cached.cache_clear()
    yield
    for cached in CACHED:
        cached.cache_clear()


def test_tower_is_unchanged_without_the_memo(cold_caches, monkeypatch):
    kept = tower(5)
    for cached in CACHED:
        cached.cache_clear()
    monkeypatch.setattr(Polynomial, "diff_index", fresh_partial)
    monkeypatch.setattr(Polynomial, "variables", fresh_variables)
    assert tower(5) == kept


def test_kept_partials_equal_fresh_ones(rng):
    polys = [
        random_polynomial(rng, n, max_terms=8, with_t=True) for n in (2, 3, 4) for _ in range(15)
    ]
    polys += master_field(3, 4).components() + chi(3, 4).components()
    for p in polys:
        for idx in range(num_vars(p.n)):
            assert p.diff_index(idx) == fresh_partial(p, idx)
            kept = p.diff_index(idx)
            assert kept == fresh_partial(p, idx)
            assert p.diff_index(idx) is kept
        assert p.diff("t") == fresh_partial(p, num_vars(p.n) - 1)
        assert p.variables() == fresh_variables(p)


def test_a_partial_is_kept_from_its_second_request():
    p = Polynomial(3, {(1, 0, 2, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 0, 1, 1): 5})
    first, second = p.diff("b1"), p.diff("b1")
    assert first is not second
    assert p.diff("b1") is second
    assert p.diff_index(2) is second
    assert second == Polynomial(3, {(1, 0, 1, 0, 0, 0): 3})


def test_kept_variables_cannot_be_changed_by_a_caller():
    p = Polynomial(3, {(1, 0, 2, 0, 0, 0): 1, (0, 0, 0, 0, 1, 1): -2})
    found = p.variables()
    assert found == (0, 2, 4, 5)
    with pytest.raises((TypeError, AttributeError)):
        found.append(1)
    with pytest.raises(TypeError):
        found[0] = 1
    assert p.variables() == (0, 2, 4, 5)
    assert not p.involves("a2") and p.involves("t")
