"""The open Toda chain: phase space, Lax matrices, Hamiltonians, flow.

Coordinates are Flaschka variables

    a_i = (1/2) exp((q_i - q_{i+1})/2),   b_i = -(1/2) p_i,

under which the equations of motion read

    da_i/dt = a_i (b_{i+1} - b_i),        i = 1..N-1,
    db_i/dt = 2 (a_i^2 - a_{i-1}^2),      i = 1..N,  a_0 = a_N = 0,

equivalently dL/dt = [B, L] for the symmetric tridiagonal Jacobi matrix L
(diagonal b, off-diagonal a) and the skew matrix B with +a_i above the
diagonal.  The equations are written once over any ring, as block
expressions in ``flow_residuals`` on float or Polynomial object arrays
(``toda_velocity`` is the stepper's in-place float kernel); the flow as a
polynomial field is chi_2 = w_1 . grad H_2.  The functions H_m = Tr(L^m)/m
are conserved; their exact forms are symbolic powers of L, stored as bands.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType as ReadOnly
from typing import Mapping, Sequence

import numpy as np

from .ratpoly import Polynomial, Vars, check_json_keys

# read-only rows {column: nonzero entry}, 0-based and in column order
SymbolicMatrix = tuple[Mapping[int, Polynomial], ...]


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
        """A point from {a, b[, t]} or {q, p[, t]}, and no other key; a, b, q
        and p must be JSON arrays, and every entry a JSON number."""
        positions = "q" in obj or "p" in obj
        check_json_keys(obj, ("q", "p", "t") if positions else ("a", "b", "t"))
        if positions:
            if not ("q" in obj and "p" in obj):
                raise ValueError("position/momentum input needs both 'q' and 'p'")
            point = flaschka(*(_json_floats(obj, key) for key in "qp"))
        else:
            point = cls(*(_json_floats(obj, key) for key in "ab"))
        return cls(point.a, point.b, _json_float(obj["t"]) if "t" in obj else 0.0)


def _json_floats(obj, key: str) -> tuple[float, ...]:
    """obj[key] as a tuple of floats; it must be a JSON array of numbers."""
    value = obj[key]
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON array, got {json.dumps(value, default=repr)}")
    return tuple(map(_json_float, value))


def _json_float(value) -> float:
    """A JSON number as a float; float() would also read true as 1.0 and "0.5" as 0.5."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"entries must be numbers, got {json.dumps(value, default=repr)}")
    return float(value)


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
    """The Jacobi matrix L: b_i on the diagonal, a_i beside it."""
    v = Vars(n)
    return tuple(
        ReadOnly(
            {j: v.b(i + 1) if j == i else v.a(max(i, j)) for j in (i - 1, i, i + 1) if 0 <= j < n}
        )
        for i in range(n)
    )


@lru_cache(maxsize=None)
def symbolic_lax_b(n: int) -> SymbolicMatrix:
    """The skew matrix B: +a_i above the diagonal, -a_i below it."""
    v = Vars(n)
    return tuple(
        ReadOnly({j: v.a(i + 1) if j > i else -v.a(j + 1) for j in (i - 1, i + 1) if 0 <= j < n})
        for i in range(n)
    )


def matmul_symbolic(left: SymbolicMatrix, right: SymbolicMatrix) -> SymbolicMatrix:
    """Product of two band matrices: one Polynomial.dot per entry with a nonzero pair."""
    n = len(left)
    out = []
    for row in left:
        entries = {}
        for k in sorted({k for j in row for k in right[j]}):
            pairs = ((p, right[j][k]) for j, p in row.items() if k in right[j])
            entry = Polynomial.dot(n, pairs)
            if entry:
                entries[k] = entry
        out.append(ReadOnly(entries))
    return tuple(out)


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
    trace = sum((row[i] for i, row in enumerate(_lax_power(m, n)) if i in row), Polynomial.zero(n))
    return trace / m


_multiply, _subtract = np.multiply, np.subtract  # bound once: toda_velocity runs 4 times per step


def toda_velocity(a, sq, ahead, behind, k, da) -> None:
    """Toda right-hand side, its b-block halved, in the stepper's stage layout.

    The stage point p is one buffer [a | spare | b | 0 | a^2 | 0] of 3N + 1
    entries: a = p[:N-1] and sq = p[2N+1:3N] (receives a_i^2), and ahead
    and behind are p[N+1:] and p[N:3N], so that ahead - behind is
    [b_{i+1} - b_i | -b_N | a_i^2 - a_{i-1}^2] with a_0 = a_N = 0.  That
    difference is written to k (2N,), whose first N-1 entries da are then
    multiplied by a: k is [da/dt | -b_N | db/dt / 2], exactly (the caller
    doubles the b-block and gives the spare slot weight 0).  The ufuncs are
    bound at module level and take their output by position: 0.32 us a call
    at N = 8, against 0.40 us for ``np.multiply(a, a, out=sq)``, on one core
    of a shared 2-core Xeon host.
    """
    _multiply(a, a, sq)
    _subtract(ahead, behind, k)
    _multiply(a, da, da)


def flow_residuals(a, b, adot, bdot) -> np.ndarray:
    """Defects of (adot, bdot) against the Toda equations: Gamma rows, then Delta rows.

    Written once on blocks, over any ring with +, - and *: Gamma is
    adot - a (b_{i+1} - b_i), and Delta is bdot minus 2 a_i^2 on sites 1..N-1
    plus the same 2 a_i^2 on sites 2..N (subtracted first, then added, as the
    equations read site by site).  Inputs are float arrays whose trailing axes
    index samples, or sequences of Polynomials, held as numpy object arrays so
    that no float enters the exact layer.  The N-1 + N rows, in the state's
    a-then-b layout, vanish exactly on solutions.
    """
    a, b, adot, bdot = map(np.asarray, (a, b, adot, bdot))
    n = len(b)
    if len(a) != n - 1 or len(adot) != n - 1 or len(bdot) != n:
        raise ValueError("component counts do not match a single lattice size")
    two_sq = 2 * (a * a)
    delta = np.concatenate((bdot[:-1] - two_sq, bdot[-1:]))
    delta[1:] += two_sq
    return np.concatenate((adot - a * (b[1:] - b[:-1]), delta))
