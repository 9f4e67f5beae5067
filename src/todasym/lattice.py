"""The open Toda chain: phase space, Lax matrices, Hamiltonians, flow.

Coordinates are Flaschka variables

    a_i = (1/2) exp((q_i - q_{i+1})/2),   b_i = -(1/2) p_i,

under which the equations of motion read

    da_i/dt = a_i (b_{i+1} - b_i),        i = 1..N-1,
    db_i/dt = 2 (a_i^2 - a_{i-1}^2),      i = 1..N,  a_0 = a_N = 0,

equivalently dL/dt = [B, L] for the symmetric tridiagonal Jacobi matrix L
(diagonal b, off-diagonal a) and the skew matrix B with +a_i above the
diagonal.  The functions H_m = Tr(L^m)/m are conserved; their exact
polynomial forms are built here by sparse symbolic powers of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fields import VectorField
from .ratpoly import Polynomial, Vars

SymbolicMatrix = tuple[tuple[Polynomial, ...], ...]


# ---------------------------------------------------------------------------
# numeric phase points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhasePoint:
    """Numeric state (a_1..a_{N-1}, b_1..b_N) at a given time."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    time: float = 0.0

    def __post_init__(self):
        if len(self.b) != len(self.a) + 1:
            raise ValueError("need exactly one more b entry than a entries")
        if len(self.b) < 2:
            raise ValueError("lattice size must be >= 2")
        values = (*self.a, *self.b, self.time)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("phase point entries must be finite")
        # float tuples whatever sequences came in, so that a point is hashable
        object.__setattr__(self, "a", tuple(map(float, self.a)))
        object.__setattr__(self, "b", tuple(map(float, self.b)))
        object.__setattr__(self, "time", float(self.time))

    @property
    def n(self) -> int:
        return len(self.b)

    def state(self) -> np.ndarray:
        """Flat state vector, a-block then b-block."""
        return np.array(self.a + self.b, dtype=float)

    @classmethod
    def from_state(cls, n: int, x: Sequence[float], time: float = 0.0) -> "PhasePoint":
        x = tuple(float(v) for v in x)
        if len(x) != 2 * n - 1:
            raise ValueError(f"expected {2 * n - 1} entries, got {len(x)}")
        return cls(x[: n - 1], x[n - 1 :], time)

    @classmethod
    def from_json_obj(cls, obj) -> "PhasePoint":
        if "q" in obj or "p" in obj:
            if not ("q" in obj and "p" in obj):
                raise ValueError("position/momentum input needs both 'q' and 'p'")
            point = flaschka(obj["q"], obj["p"])
            if "t" in obj:
                point = PhasePoint(point.a, point.b, float(obj["t"]))
            return point
        return cls(
            tuple(float(v) for v in obj["a"]),
            tuple(float(v) for v in obj["b"]),
            float(obj.get("t", 0.0)),
        )


def flaschka(q: Sequence[float], p: Sequence[float]) -> PhasePoint:
    """Map positions and momenta to Flaschka variables (time set to 0)."""
    if len(q) != len(p):
        raise ValueError("q and p must have equal length")
    a = tuple(0.5 * math.exp(0.5 * (q[i] - q[i + 1])) for i in range(len(q) - 1))
    b = tuple(-0.5 * pi for pi in p)
    return PhasePoint(a, b, 0.0)


# ---------------------------------------------------------------------------
# symbolic Lax matrices and Hamiltonians
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def symbolic_lax(n: int) -> SymbolicMatrix:
    v = Vars(n)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(v.b(i))
            elif abs(i - j) == 1:
                row.append(v.a(min(i, j)))
            else:
                row.append(v.zero)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def symbolic_lax_b(n: int) -> SymbolicMatrix:
    v = Vars(n)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == i + 1:
                row.append(v.a(i))
            elif j == i - 1:
                row.append(-v.a(j))
            else:
                row.append(v.zero)
        rows.append(tuple(row))
    return tuple(rows)


def matmul_symbolic(left: SymbolicMatrix, right: SymbolicMatrix) -> SymbolicMatrix:
    n = left[0][0].n
    cols = tuple(zip(*right))
    return tuple(tuple(Polynomial.dot(n, zip(row, col)) for col in cols) for row in left)


@lru_cache(maxsize=None)
def _lax_power(m: int, n: int) -> SymbolicMatrix:
    if m == 1:
        return symbolic_lax(n)
    return matmul_symbolic(_lax_power(m - 1, n), symbolic_lax(n))


@lru_cache(maxsize=None)
def hamiltonian(m: int, n: int) -> Polynomial:
    """H_m = Tr(L^m) / m as an exact polynomial, homogeneous of degree m."""
    if m < 1:
        raise ValueError(f"Hamiltonian index must be >= 1, got {m}")
    power = _lax_power(m, n)
    trace = Polynomial.zero(n)
    for i in range(n):
        trace = trace + power[i][i]
    return trace / m


@lru_cache(maxsize=None)
def toda_rhs(n: int) -> VectorField:
    """The Toda flow as a polynomial vector field."""
    v = Vars(n)
    a_comps = tuple(v.a(i) * (v.b(i + 1) - v.b(i)) for i in range(1, n))
    b_comps = tuple(
        (v.a(i) * v.a(i) - v.a(i - 1) * v.a(i - 1)).scale(2) for i in range(1, n + 1)
    )
    return VectorField(n, a_comps, b_comps)


def toda_velocity(a, b_next, b_prev, da, half_db, sq, sq_next, sq_prev) -> None:
    """Toda right-hand side, its b-block halved, from views built once per run.

    a (N-1,) with b_next = b[1:] and b_prev = b[:-1]; da (N-1,) receives
    a_i (b_{i+1} - b_i) and half_db (N,) receives a_i^2 - a_{i-1}^2, which is
    db_i/dt / 2 exactly (the caller doubles it).  sq, sq_next and sq_prev are
    pad[1:-1], pad[1:] and pad[:-1] of one (N+1,) buffer whose ends stay 0.
    """
    np.multiply(a, np.subtract(b_next, b_prev, out=da), out=da)
    np.multiply(a, a, out=sq)
    np.subtract(sq_next, sq_prev, out=half_db)


def flow_residuals(a, b, adot, bdot) -> tuple[list, list]:
    """Defects of (adot, bdot) against the Toda equations.

    Works elementwise over any ring with +, - and *: floats along a numeric
    trajectory, Polynomials for exact identity checks.  Returns the Gamma
    residuals (length N-1) and Delta residuals (length N); both vanish
    exactly on solutions.
    """
    n = len(b)
    if len(a) != n - 1 or len(adot) != n - 1 or len(bdot) != n:
        raise ValueError("component counts do not match a single lattice size")
    gammas = [adot[j] - a[j] * (b[j + 1] - b[j]) for j in range(n - 1)]
    deltas = []
    for j in range(n):
        r = bdot[j]
        if j <= n - 2:
            r = r - 2 * (a[j] * a[j])
        if j >= 1:
            r = r + 2 * (a[j - 1] * a[j - 1])
        deltas.append(r)
    return gammas, deltas
