"""Polynomial vector fields on Toda phase space.

A field has N-1 a-components and N b-components, each a Polynomial that may
involve t.  The phase-space directional derivative and the Lie bracket act
only in the a and b directions; t is carried as a parameter.  For fields
whose coefficients depend on t, the bracket below is the bracket of
evolutionary fields: d/dt terms are handled explicitly by callers that need
them (see symmetry.evolutionary_defect).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ratpoly import Polynomial, UniverseError


@dataclass(frozen=True, eq=False)
class VectorField:
    """Components over the 2N-1 phase directions, a-block then b-block."""

    n: int
    a: tuple[Polynomial, ...]
    b: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.a) != self.n - 1 or len(self.b) != self.n:
            raise ValueError(
                f"expected {self.n - 1} a-components and {self.n} b-components, "
                f"got {len(self.a)} and {len(self.b)}"
            )
        for comp in self.a + self.b:
            if comp.n != self.n:
                raise UniverseError("component universe does not match field size")

    @classmethod
    def from_components(cls, n: int, comps: Sequence[Polynomial]) -> "VectorField":
        if len(comps) != 2 * n - 1:
            raise ValueError(f"expected {2 * n - 1} components, got {len(comps)}")
        return cls(n, tuple(comps[: n - 1]), tuple(comps[n - 1 :]))

    def components(self) -> tuple[Polynomial, ...]:
        return self.a + self.b

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components())

    def is_autonomous(self) -> bool:
        return not any(c.involves("t") for c in self.components())

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.n == other.n and self.a == other.a and self.b == other.b

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(
            self.n,
            tuple(p + q for p, q in zip(self.a, other.a)),
            tuple(p + q for p, q in zip(self.b, other.b)),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(
            self.n,
            tuple(p - q for p, q in zip(self.a, other.a)),
            tuple(p - q for p, q in zip(self.b, other.b)),
        )

    def __neg__(self) -> "VectorField":
        return self.scale(-1)

    def scale(self, c) -> "VectorField":
        return VectorField(
            self.n,
            tuple(p.scale(c) for p in self.a),
            tuple(p.scale(c) for p in self.b),
        )

    def mul_poly(self, f: Polynomial) -> "VectorField":
        """Multiply every component by a polynomial (e.g. by t)."""
        return VectorField(
            self.n,
            tuple(f * p for p in self.a),
            tuple(f * p for p in self.b),
        )

    def __truediv__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(Fraction(1, 1) / c)
        return NotImplemented

    def _check(self, other: "VectorField") -> None:
        if self.n != other.n:
            raise UniverseError(f"universe mismatch: N={self.n} vs N={other.n}")

    # -- differential calculus -------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Directional derivative sum_i V^i df/dx_i over phase variables."""
        if f.n != self.n:
            raise UniverseError(f"universe mismatch: N={self.n} vs N={f.n}")
        comps = self.components()
        pairs = ((comps[i], f.diff_index(i)) for i in f.variables() if i < len(comps) and comps[i])
        return Polynomial.dot(self.n, pairs)

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [V, W]^i = V(W^i) - W(V^i), componentwise."""
        self._check(other)
        comps = [
            self.apply(w_i) - other.apply(v_i)
            for v_i, w_i in zip(self.components(), other.components())
        ]
        return VectorField.from_components(self.n, comps)

    def dt_partial(self) -> "VectorField":
        """Componentwise formal d/dt."""
        return VectorField(
            self.n,
            tuple(p.diff("t") for p in self.a),
            tuple(p.diff("t") for p in self.b),
        )

    # -- serialization ----------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "N": self.n,
            "a": [p.to_json_terms() for p in self.a],
            "b": [p.to_json_terms() for p in self.b],
        }
