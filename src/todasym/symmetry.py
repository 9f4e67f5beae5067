"""Infinitesimal symmetries of the Toda equations.

A candidate generator is

    v = tau d/dt + sum_j phi_j d/da_j + sum_j psi_j d/db_j

with polynomial coefficients in (a, b, t).  The Toda equations are
x' = F(x) with F = chi_2, and the first prolongation of v applied to them
gives the determining equations

    D(xi) - D(tau) F - xi(F) = 0,        xi = (phi, psi),

where D is the total derivative along solutions (d/dt plus F acting on the
phase variables) and xi(F) is F differentiated along xi.  A candidate is an
infinitesimal symmetry exactly when every component is the zero polynomial.
Since D(xi) - xi(F) = dxi/dt + [F, xi], the condition for an evolutionary
candidate (tau = 0) is

    dY/dt + [chi_2, Y] = 0,

which evolutionary_defect computes; determining_residuals adds the
-D(tau) F term for the rest.  The main family

    Y_k = X_k + t * chi_{k+2},     k >= -1,

passes, which verify_theorem checks exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .fields import VectorField
from .hierarchy import chi, master_field
from .ratpoly import Polynomial, Vars, check_json_keys


@dataclass(frozen=True, eq=False)
class SymmetryCandidate:
    """Coefficients (tau, phi_1..phi_{N-1}, psi_1..psi_N) of a generator."""

    n: int
    tau: Polynomial
    phi: tuple[Polynomial, ...]
    psi: tuple[Polynomial, ...]

    def __post_init__(self):
        _check_counts(self.n, self.phi, self.psi)
        for poly in (self.tau, *self.phi, *self.psi):
            if poly.n != self.n:
                raise ValueError("coefficient universe does not match candidate size")

    def is_evolutionary(self) -> bool:
        return self.tau.is_zero()

    def as_field(self) -> VectorField:
        """The (phi, psi) part as a vector field; requires tau = 0."""
        if not self.is_evolutionary():
            raise ValueError("only evolutionary candidates map to plain fields")
        return VectorField(self.n, self.phi, self.psi)

    @classmethod
    def from_field(cls, field: VectorField) -> "SymmetryCandidate":
        return cls(field.n, Polynomial.zero(field.n), field.a, field.b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetryCandidate):
            return NotImplemented
        return (
            self.n == other.n
            and self.tau == other.tau
            and self.phi == other.phi
            and self.psi == other.psi
        )

    def to_json_obj(self) -> dict:
        return {
            "N": self.n,
            "tau": self.tau.to_json_terms(),
            "phi": [p.to_json_terms() for p in self.phi],
            "psi": [p.to_json_terms() for p in self.psi],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SymmetryCandidate":
        """A candidate from {[N,] [tau,] phi, psi}, and no other key: tau is an
        array of term objects, phi and psi are arrays of such arrays."""
        check_json_keys(obj, ("N", "tau", "phi", "psi"))
        psi = _json_term_arrays(obj, "psi")
        n = obj.get("N", len(psi))
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"N must be a JSON integer, got {json.dumps(n, default=repr)}")
        tau = _json_terms(obj.get("tau", []), "'tau'")
        phi = _json_term_arrays(obj, "phi")
        # size and counts first: each polynomial built for a declared N costs O(N)
        if n < 2:
            raise ValueError(f"lattice size must be >= 2, got {n}")
        _check_counts(n, phi, psi)
        return cls(
            n,
            Polynomial.from_json_terms(n, tau),
            tuple(Polynomial.from_json_terms(n, item) for item in phi),
            tuple(Polynomial.from_json_terms(n, item) for item in psi),
        )


def _check_counts(n: int, phi, psi) -> None:
    if len(phi) != n - 1 or len(psi) != n:
        raise ValueError(
            f"expected {n - 1} phi and {n} psi components, got {len(phi)} and {len(psi)}"
        )


def _json_terms(value, where: str) -> list:
    """value, which must be a JSON array of term objects; `where` names it in the error."""
    if not isinstance(value, list) or not all(isinstance(term, dict) for term in value):
        raise ValueError(
            f"{where} must be a JSON array of term objects, got {json.dumps(value, default=repr)}"
        )
    return value


def _json_term_arrays(obj, key: str) -> list:
    """obj[key], which must be a JSON array of arrays of term objects."""
    value = obj[key]
    if not isinstance(value, list):
        raise ValueError(
            f"{key!r} must be a JSON array of term arrays, got {json.dumps(value, default=repr)}"
        )
    for i, item in enumerate(value):
        _json_terms(item, f"{key}[{i}]")
    return value


def total_derivative(f: Polynomial) -> Polynomial:
    """Derivative of f(a, b, t) along solutions: d/dt with the flow chi_2 substituted."""
    return f.diff("t") + chi(2, f.n).apply(f)


def evolutionary_defect(y: VectorField) -> VectorField:
    """dY/dt + [chi_2, Y]; the zero field iff Y generates a symmetry."""
    return y.dt_partial() + chi(2, y.n).bracket(y)


def determining_residuals(cand: SymmetryCandidate) -> VectorField:
    """D(xi) - D(tau) F - xi(F) with F = chi_2: Gamma_1..Gamma_{N-1} as the
    a-block, Delta_1..Delta_N as the b-block."""
    defect = evolutionary_defect(VectorField(cand.n, cand.phi, cand.psi))
    if cand.tau.is_zero():
        return defect
    return defect - chi(2, cand.n).mul_poly(total_derivative(cand.tau))


def residual_slots(residual: VectorField) -> list[tuple[str, Polynomial]]:
    """(gamma_j, Gamma_j) for j = 1..N-1, then (delta_j, Delta_j) for j = 1..N."""
    gammas = [(f"gamma_{j}", p) for j, p in enumerate(residual.a, start=1)]
    return gammas + [(f"delta_{j}", p) for j, p in enumerate(residual.b, start=1)]


# ---------------------------------------------------------------------------
# the catalogue of known generators
# ---------------------------------------------------------------------------


def candidate_shift(n: int) -> SymmetryCandidate:
    """tau = 0, phi = 0, psi = 1: rigid shift of all b (this is X_{-1})."""
    v = Vars(n)
    return SymmetryCandidate(n, v.zero, (v.zero,) * (n - 1), (v.one,) * n)


def candidate_time_translation(n: int) -> SymmetryCandidate:
    """tau = -1 with no coefficient part; evolutionary form is the flow itself."""
    v = Vars(n)
    return SymmetryCandidate(n, v.const(-1), (v.zero,) * (n - 1), (v.zero,) * n)


def candidate_scaling(n: int) -> SymmetryCandidate:
    """tau = -t, phi_j = a_j, psi_j = b_j: the grading symmetry.

    The chain equations are invariant under a -> s a, b -> s b, t -> t / s;
    differentiating at s = 1 gives tau = -t (a constant tau fails the
    determining equations, which the tests pin down).  Its evolutionary
    representative is X_0 + t chi_2 = build_Y(0).
    """
    v = Vars(n)
    return SymmetryCandidate(
        n,
        -v.t,
        tuple(v.a(i) for i in range(1, n)),
        tuple(v.b(i) for i in range(1, n + 1)),
    )


@lru_cache(maxsize=None)
def build_Y(k: int, n: int) -> SymmetryCandidate:
    """The time-dependent symmetry Y_k = X_k + t chi_{k+2} (tau = 0)."""
    if k < -1:
        raise ValueError(f"symmetry index must be >= -1, got {k}")
    t = Vars(n).t
    field = master_field(k, n) + chi(k + 2, n).mul_poly(t)
    return SymmetryCandidate.from_field(field)


# ---------------------------------------------------------------------------
# the Y_k theorem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremCase:
    """Outcome of the symmetry condition for one Y_k; no witness iff it holds."""

    k: int
    n: int
    witness: str | None

    @property
    def ok(self) -> bool:
        return self.witness is None


def verify_theorem(k_max: int, n: int) -> list[TheoremCase]:
    """Check Y_k for k = -1..k_max against the determining equations, exactly."""
    if k_max < -1:
        raise ValueError(f"k_max must be >= -1, got {k_max}")
    cases = []
    for k in range(-1, k_max + 1):
        slots = residual_slots(determining_residuals(build_Y(k, n)))
        witness = next((f"{label} = {poly}" for label, poly in slots if poly), None)
        cases.append(TheoremCase(k, n, witness))
    return cases
