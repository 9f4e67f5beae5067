"""Polynomial and candidate arithmetic that only the tests use.

``evaluate`` substitutes values into a polynomial, ``total_degree`` and
``is_homogeneous`` read its grading, and ``add_candidates`` and
``scale_candidate`` give symmetry candidates the linear structure the
tests check (their determining residuals are VectorFields, which have it).
"""

from fractions import Fraction

from todasym.ratpoly import Polynomial, var_names
from todasym.symmetry import SymmetryCandidate


def evaluate(poly: Polynomial, point):
    """Substitute a value for every variable that appears.

    Exact (Fraction) when all supplied values are int or Fraction, float
    otherwise.  Variables absent from the polynomial need not be assigned;
    a used-but-unassigned variable is an error.
    """
    names = var_names(poly.n)
    decoded = list(poly.terms.items())
    used = [i for i in range(len(names)) if any(m[i] for m, _ in decoded)]
    missing = [names[i] for i in used if names[i] not in point]
    if missing:
        raise ValueError(f"missing assignment for {', '.join(missing)}")
    values = {i: point[names[i]] for i in used}
    exact = all(isinstance(v, (int, Fraction)) for v in values.values())
    total = Fraction(0) if exact else 0.0
    for mono, coeff in decoded:
        term = coeff if exact else float(coeff)
        for i in used:
            if mono[i]:
                term = term * values[i] ** mono[i]
        total = total + term
    return total


def total_degree(poly: Polynomial) -> int:
    """Maximum term degree; 0 for the zero polynomial."""
    return max(map(sum, poly.terms), default=0)


def is_homogeneous(poly: Polynomial, degree: int | None = None) -> bool:
    """True when all terms share one total degree (optionally a given one).

    The grading counts the t exponent like any other variable.
    """
    degrees = set(map(sum, poly.terms))
    return len(degrees) <= 1 if degree is None else degrees <= {degree}


def add_candidates(c1: SymmetryCandidate, c2: SymmetryCandidate) -> SymmetryCandidate:
    if c1.n != c2.n:
        raise ValueError("candidates live over different lattice sizes")
    return SymmetryCandidate(
        c1.n,
        c1.tau + c2.tau,
        tuple(p + q for p, q in zip(c1.phi, c2.phi)),
        tuple(p + q for p, q in zip(c1.psi, c2.psi)),
    )


def scale_candidate(cand: SymmetryCandidate, c) -> SymmetryCandidate:
    return SymmetryCandidate(
        cand.n,
        cand.tau.scale(c),
        tuple(p.scale(c) for p in cand.phi),
        tuple(p.scale(c) for p in cand.psi),
    )
