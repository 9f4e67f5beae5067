"""Antisymmetric 2-tensors with polynomial entries and their calculus.

A PoissonTensor w over the 2N-1 phase directions (a-block then b-block)
stores only its nonzero upper entries w^ij, i < j; the others follow from
w^ji = -w^ij and w^ii = 0.  It induces

    field of h     X_h^r   = sum_l  w^rl  d_l h,
    bracket        {f, g}  = X_g(f) = sum_ij  w^ij  d_i f  d_j g,

and w is Poisson (the bracket satisfies Jacobi) exactly when its Schouten
self-bracket vanishes identically.  On a sorted triple i < j < k it is

    [w, w]^ijk = X_{w^jk}^i - X_{w^ik}^j + X_{w^ij}^k,

the fields of the three entries w^jk, w^ik, w^ij read off rows i, j and k.
The Lie derivative along an autonomous field X is

    (L_X w)^ij = sum_k ( X^k d_k w^ij - (d_k X^i) w^kj - (d_k X^j) w^ik ).

Each field component, Schouten slot and Lie derivative entry is one
``Polynomial.dot`` over the nonzero entries of the rows involved, and each
entry's gradient is computed once per call.  All index sums run over the
2N-1 phase directions; nothing here assumes a particular tensor beyond
antisymmetry, which the upper-entry storage builds in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .fields import VectorField
from .ratpoly import Polynomial, UniverseError

Row = dict[int, Polynomial]


@dataclass(frozen=True)
class PoissonTensor:
    """Immutable antisymmetric 2-tensor: its nonzero entries w^ij with i < j.

    ``PoissonTensor(n, {(i, j): w^ij})`` checks each index pair and entry
    universe and drops zero entries; ``upper`` holds the rest in index
    order.  Equality is by value; a tensor is not hashable.
    """

    n: int
    upper: Mapping[tuple[int, int], Polynomial]

    def __post_init__(self):
        dim = 2 * self.n - 1
        kept: dict[tuple[int, int], Polynomial] = {}
        for i, j in sorted(self.upper):
            if not 0 <= i < j < dim:
                raise ValueError(f"upper entry index ({i}, {j}) out of range")
            poly = self.upper[(i, j)]
            if poly.n != self.n:
                raise UniverseError("entry universe does not match tensor size")
            if poly:
                kept[(i, j)] = poly
        object.__setattr__(self, "upper", kept)

    def entry(self, i: int, j: int) -> Polynomial:
        """w^ij for any index pair."""
        if i > j:
            return -self.entry(j, i)
        poly = self.upper.get((i, j))
        return Polynomial.zero(self.n) if poly is None else poly

    def dim(self) -> int:
        return 2 * self.n - 1

    def is_zero(self) -> bool:
        return not self.upper

    def __add__(self, other: "PoissonTensor") -> "PoissonTensor":
        self._check(other)
        out = dict(self.upper)
        for key, poly in other.upper.items():
            out[key] = out[key] + poly if key in out else poly
        return PoissonTensor(self.n, out)

    def __sub__(self, other: "PoissonTensor") -> "PoissonTensor":
        return self + (-other)

    def __neg__(self) -> "PoissonTensor":
        return self.scale(-1)

    def scale(self, c) -> "PoissonTensor":
        return PoissonTensor(self.n, {key: p.scale(c) for key, p in self.upper.items()})

    def __truediv__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(Fraction(1, 1) / c)
        return NotImplemented

    def _check(self, other: "PoissonTensor") -> None:
        if self.n != other.n:
            raise UniverseError(f"universe mismatch: N={self.n} vs N={other.n}")

    def to_json_obj(self) -> dict:
        """Dense form: the full (2N-1)x(2N-1) matrix, both triangles.

        A lower entry is the terms of its upper mirror's negation, which
        ``to_json_terms`` lists in the mirror's order.
        """
        dim = self.dim()
        matrix = [[[] for _ in range(dim)] for _ in range(dim)]
        for (i, j), poly in self.upper.items():
            matrix[i][j] = poly.to_json_terms()
            matrix[j][i] = (-poly).to_json_terms()
        return {"N": self.n, "matrix": matrix}


@dataclass(frozen=True)
class ThreeTensor:
    """Fully antisymmetric 3-tensor: its nonzero entries on increasing triples, in order."""

    n: int
    entries: Mapping[tuple[int, int, int], Polynomial]

    def is_zero(self) -> bool:
        return not self.entries


# ---------------------------------------------------------------------------
# tensor calculus
# ---------------------------------------------------------------------------


def _gradient(p: Polynomial, dim: int) -> Row:
    """The nonzero partials d_l p over the phase directions, by l."""
    return {l: p.diff_index(l) for l in p.variables() if l < dim}


def _rows_and_columns(w: PoissonTensor) -> tuple[list[Row], list[Row]]:
    """Row r as {l: w^rl} and column r as {l: w^lr}, over the nonzero entries."""
    dim = w.dim()
    rows: list[Row] = [{} for _ in range(dim)]
    cols: list[Row] = [{} for _ in range(dim)]
    for (i, j), poly in w.upper.items():
        neg = -poly
        rows[i][j] = cols[j][i] = poly
        rows[j][i] = cols[i][j] = neg
    return rows, cols


def _contract(row: Row, grad: Row) -> list[tuple[Polynomial, Polynomial]]:
    """The pairs (row[l], grad[l]) whose sum is sum_l row^l d_l h."""
    return [(row[l], d) for l, d in grad.items() if l in row]


def hamiltonian_field(w: PoissonTensor, h: Polynomial) -> VectorField:
    """Hamiltonian vector field w . grad h."""
    if h.n != w.n:
        raise UniverseError("polynomial and tensor live over different sizes")
    grad = _gradient(h, w.dim())
    rows, _ = _rows_and_columns(w)
    comps = [Polynomial.dot(w.n, _contract(row, grad)) for row in rows]
    return VectorField.from_components(w.n, comps)


def poisson_bracket(w: PoissonTensor, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} under w."""
    return hamiltonian_field(w, g).apply(f)


def lie_derivative(x: VectorField, w: PoissonTensor) -> PoissonTensor:
    """Lie derivative of an antisymmetric 2-tensor along an autonomous field."""
    if x.n != w.n:
        raise UniverseError("field and tensor live over different sizes")
    if not x.is_autonomous():
        raise ValueError("Lie derivative requires an autonomous field")
    dim = w.dim()
    comps = x.components()
    field = {k: comp for k, comp in enumerate(comps) if comp}
    dx = [_gradient(comp, dim) for comp in comps]
    grads = {key: _gradient(poly, dim) for key, poly in w.upper.items()}
    rows, cols = _rows_and_columns(w)
    out: dict[tuple[int, int], Polynomial] = {}
    for i, j in combinations(range(dim), 2):
        # -(d_k X^i) w^kj = (d_k X^i) w^jk and -(d_k X^j) w^ik = (d_k X^j) w^ki
        pairs = (
            _contract(field, grads.get((i, j), {}))
            + _contract(rows[j], dx[i])
            + _contract(cols[i], dx[j])
        )
        out[(i, j)] = Polynomial.dot(w.n, pairs)
    return PoissonTensor(w.n, out)


def schouten_self(w: PoissonTensor) -> ThreeTensor:
    """Schouten self-bracket [w, w]; identically zero iff w is Poisson."""
    dim = w.dim()
    grads = {key: _gradient(poly, dim) for key, poly in w.upper.items()}
    rows, cols = _rows_and_columns(w)
    entries: dict[tuple[int, int, int], Polynomial] = {}
    for i, j, k in combinations(range(dim), 3):
        # -X_{w^ik}^j = sum_l w^lj d_l w^ik reads column j
        pairs = (
            _contract(rows[i], grads.get((j, k), {}))
            + _contract(cols[j], grads.get((i, k), {}))
            + _contract(rows[k], grads.get((i, j), {}))
        )
        bracket = Polynomial.dot(w.n, pairs)
        if bracket:
            entries[(i, j, k)] = bracket
    return ThreeTensor(w.n, entries)
