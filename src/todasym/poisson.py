"""Antisymmetric 2-tensors with polynomial entries and their calculus.

A PoissonTensor is a (2N-1)x(2N-1) antisymmetric matrix w of Polynomials
indexed by the phase directions (a-block then b-block).  It induces

    bracket        {f, g}  = sum_ij w^ij  df/dx_i  dg/dx_j,
    field of h     X_h^i   = sum_j  w^ij  dh/dx_j,

and w is Poisson (the bracket satisfies Jacobi) exactly when its Schouten
self-bracket

    [w, w]^ijk = sum_l ( w^il d_l w^jk + w^jl d_l w^ki + w^kl d_l w^ij )

vanishes identically.  The Lie derivative along an autonomous field X is

    (L_X w)^ij = sum_k ( X^k d_k w^ij - (d_k X^i) w^kj - (d_k X^j) w^ik ).

All index sums run over the 2N-1 phase directions; nothing here assumes a
particular tensor beyond antisymmetry, which the constructor enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .fields import VectorField
from .ratpoly import Polynomial, UniverseError


class PoissonTensor:
    """Immutable antisymmetric matrix of polynomials over one lattice size."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat):
        dim = 2 * n - 1
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise ValueError(f"tensor must be {dim}x{dim} for lattice size {n}")
        frozen = tuple(tuple(row) for row in mat)
        for i in range(dim):
            for j in range(i, dim):
                entry = frozen[i][j]
                if entry.n != n:
                    raise UniverseError("entry universe does not match tensor size")
                if not (entry + frozen[j][i]).is_zero():
                    raise ValueError(f"tensor is not antisymmetric at ({i}, {j})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mat", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonTensor is immutable")

    @classmethod
    def from_upper_entries(
        cls, n: int, entries: Mapping[tuple[int, int], Polynomial]
    ) -> "PoissonTensor":
        """Build from entries {(i, j): w^ij} with i < j; the rest follows."""
        dim = 2 * n - 1
        zero = Polynomial.zero(n)
        rows = [[zero] * dim for _ in range(dim)]
        for (i, j), poly in entries.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"upper entry index ({i}, {j}) out of range")
            rows[i][j] = poly
            rows[j][i] = -poly
        return cls(n, rows)

    @classmethod
    def zero(cls, n: int) -> "PoissonTensor":
        return cls.from_upper_entries(n, {})

    def entry(self, i: int, j: int) -> Polynomial:
        return self.mat[i][j]

    def dim(self) -> int:
        return 2 * self.n - 1

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.mat for p in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonTensor):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    __hash__ = None

    def __add__(self, other: "PoissonTensor") -> "PoissonTensor":
        self._check(other)
        return PoissonTensor(
            self.n,
            [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(self.mat, other.mat)],
        )

    def __sub__(self, other: "PoissonTensor") -> "PoissonTensor":
        self._check(other)
        return PoissonTensor(
            self.n,
            [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(self.mat, other.mat)],
        )

    def __neg__(self) -> "PoissonTensor":
        return self.scale(-1)

    def scale(self, c) -> "PoissonTensor":
        return PoissonTensor(self.n, [[p.scale(c) for p in row] for row in self.mat])

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(Fraction(1, 1) / c)
        return NotImplemented

    def _check(self, other: "PoissonTensor") -> None:
        if self.n != other.n:
            raise UniverseError(f"universe mismatch: N={self.n} vs N={other.n}")

    def to_json_obj(self) -> dict:
        return {
            "N": self.n,
            "matrix": [[p.to_json_terms() for p in row] for row in self.mat],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PoissonTensor":
        n = obj["N"]
        rows = [
            [Polynomial.from_json_terms(n, item) for item in row]
            for row in obj["matrix"]
        ]
        return cls(n, rows)


@dataclass(frozen=True)
class ThreeTensor:
    """Fully antisymmetric 3-tensor, stored on strictly increasing triples."""

    n: int
    entries: Mapping[tuple[int, int, int], Polynomial]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries.values())

    def first_nonzero(self) -> tuple[tuple[int, int, int], Polynomial] | None:
        for key in sorted(self.entries):
            if not self.entries[key].is_zero():
                return key, self.entries[key]
        return None


# ---------------------------------------------------------------------------
# tensor calculus
# ---------------------------------------------------------------------------


def hamiltonian_field(w: PoissonTensor, h: Polynomial) -> VectorField:
    """Hamiltonian vector field w . grad h."""
    if h.n != w.n:
        raise UniverseError("polynomial and tensor live over different sizes")
    dim = w.dim()
    grads = [h.diff_index(j) for j in range(dim)]
    comps = []
    for i in range(dim):
        acc = Polynomial.zero(w.n)
        for j in range(dim):
            entry = w.mat[i][j]
            if entry.is_zero() or grads[j].is_zero():
                continue
            acc = acc + entry * grads[j]
        comps.append(acc)
    return VectorField.from_components(w.n, comps)


def poisson_bracket(w: PoissonTensor, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} under w."""
    field = hamiltonian_field(w, g)
    dim = w.dim()
    acc = Polynomial.zero(w.n)
    for i in range(dim):
        comp = field.components()[i]
        if comp.is_zero():
            continue
        part = f.diff_index(i)
        if not part.is_zero():
            acc = acc + part * comp
    return acc


def lie_derivative(x: VectorField, w: PoissonTensor) -> PoissonTensor:
    """Lie derivative of an antisymmetric 2-tensor along an autonomous field."""
    if x.n != w.n:
        raise UniverseError("field and tensor live over different sizes")
    if not x.is_autonomous():
        raise ValueError("Lie derivative requires an autonomous field")
    dim = w.dim()
    comps = x.components()
    zero = Polynomial.zero(w.n)
    out: dict[tuple[int, int], Polynomial] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            acc = zero
            w_ij = w.mat[i][j]
            for k in range(dim):
                if not comps[k].is_zero():
                    d = w_ij.diff_index(k)
                    if not d.is_zero():
                        acc = acc + comps[k] * d
                di = comps[i].diff_index(k)
                if not di.is_zero() and not w.mat[k][j].is_zero():
                    acc = acc - di * w.mat[k][j]
                dj = comps[j].diff_index(k)
                if not dj.is_zero() and not w.mat[i][k].is_zero():
                    acc = acc - dj * w.mat[i][k]
            out[(i, j)] = acc
    return PoissonTensor.from_upper_entries(w.n, out)


def schouten_self(w: PoissonTensor) -> ThreeTensor:
    """Schouten self-bracket [w, w]; identically zero iff w is Poisson."""
    dim = w.dim()
    entries: dict[tuple[int, int, int], Polynomial] = {}
    zero = Polynomial.zero(w.n)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = zero
                for l in range(dim):
                    for (r, pair) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                        w_rl = w.mat[r][l]
                        if w_rl.is_zero():
                            continue
                        d = w.mat[pair[0]][pair[1]].diff_index(l)
                        if not d.is_zero():
                            acc = acc + w_rl * d
                entries[(i, j, k)] = acc
    return ThreeTensor(w.n, entries)

