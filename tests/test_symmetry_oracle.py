"""The determining equations against the hand-written Gamma/Delta oracle.

``todasym.symmetry.determining_residuals`` derives the equations from
chi_2 as D(xi) - D(tau) F - xi(F); ``reference_symmetry`` writes them out
component by component on the hand-written flow.  The two must give the
same residual field on the catalogue, on Y_k for k = -1..4 at N = 2..5,
and on drawn candidates whose tau is nonzero and depends on t.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import reference_symmetry as ref  # noqa: E402
from todasym.ratpoly import Polynomial, Vars, num_vars  # noqa: E402
from todasym.symmetry import (  # noqa: E402
    SymmetryCandidate,
    build_Y,
    candidate_scaling,
    candidate_shift,
    candidate_time_translation,
    determining_residuals,
    total_derivative,
)

SIZES = (2, 3, 4, 5)


def catalogue(n):
    v = Vars(n)
    phi, psi = tuple(v.a(i) for i in range(1, n)), tuple(v.b(i) for i in range(1, n + 1))
    return [
        candidate_shift(n),
        candidate_time_translation(n),
        candidate_scaling(n),
        # the grading with a constant tau: not a symmetry
        SymmetryCandidate(n, v.const(-1), phi, psi),
        # the grading with tau = +t: the tau term with the wrong sign
        SymmetryCandidate(n, v.t, phi, psi),
    ]


@pytest.mark.parametrize("n", SIZES)
def test_catalogue_matches_oracle(n):
    for cand in catalogue(n):
        assert determining_residuals(cand) == ref.determining_residuals(cand)


@pytest.mark.parametrize("n", SIZES)
def test_y_family_matches_oracle(n):
    for k in range(-1, 5):
        cand = build_Y(k, n)
        assert determining_residuals(cand) == ref.determining_residuals(cand), k


COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))


def polynomials(n, with_t, min_terms=0):
    """Up to three terms of degree <= 2 per variable; t appears only if with_t."""
    width = num_vars(n) - (0 if with_t else 1)
    mono = st.tuples(*[st.integers(0, 2)] * width, *[st.just(0)] * (num_vars(n) - width))
    terms = st.dictionaries(mono, COEFFS, min_size=min_terms, max_size=3)
    return terms.map(lambda t: Polynomial(n, t))


@st.composite
def candidates(draw):
    """A candidate at N = 2..4 whose tau is nonzero and involves t."""
    n = draw(st.integers(2, 4))
    t = Vars(n).t
    tau = draw(polynomials(n, False)) + t * draw(polynomials(n, False, min_terms=1))
    phi = tuple(draw(polynomials(n, True)) for _ in range(n - 1))
    psi = tuple(draw(polynomials(n, True)) for _ in range(n))
    return SymmetryCandidate(n, tau, phi, psi)


@given(candidates())
def test_drawn_candidates_match_oracle(cand):
    assert cand.tau.involves("t")
    assert determining_residuals(cand) == ref.determining_residuals(cand)


@given(st.integers(2, 4).flatmap(lambda n: polynomials(n, True)))
def test_total_derivative_matches_oracle(f):
    assert total_derivative(f) == ref.total_derivative(f)
