"""Numeric and symbolic lattice helpers that only the tests use.

``jacobi_matrix`` and ``lax_b_matrix`` build the dense Lax pair at a phase
point, ``hamiltonian_value`` evaluates H_m numerically by two independent
routes, and ``gradient`` is the dense phase-space gradient of a polynomial.
``toda_rhs`` is the Toda flow written out by hand as a polynomial field,
the independent oracle for chi_2 and for ``flow_residuals``, and
``flow_residuals_by_site`` is the per-site loop that ``flow_residuals``
replaced, the oracle for its block form;
``dense_symbolic_lax`` and ``dense_matmul_symbolic`` are the dense N x N
symbolic Jacobi matrix and product that the band storage of
``todasym.lattice`` is checked against.  The tests cross-check the
package's exact objects against them.
"""

from functools import lru_cache

import numpy as np

from todasym.fields import VectorField
from todasym.lattice import PhasePoint
from todasym.ratpoly import Polynomial, Vars


def jacobi_matrix(point: PhasePoint) -> np.ndarray:
    """Dense symmetric tridiagonal L for a numeric phase point."""
    n = point.n
    mat = np.zeros((n, n))
    mat[np.arange(n), np.arange(n)] = point.b
    off = np.arange(n - 1)
    mat[off, off + 1] = point.a
    mat[off + 1, off] = point.a
    return mat


def lax_b_matrix(point: PhasePoint) -> np.ndarray:
    """Skew-symmetric B with +a_i above the diagonal, -a_i below."""
    n = point.n
    mat = np.zeros((n, n))
    off = np.arange(n - 1)
    mat[off, off + 1] = point.a
    mat[off + 1, off] = np.negative(point.a)
    return mat


def gradient(h: Polynomial, n: int) -> tuple[Polynomial, ...]:
    """Phase-space gradient (d/da_1..d/da_{N-1}, d/db_1..d/db_N)."""
    if h.n != n:
        raise ValueError(f"polynomial lives over N={h.n}, expected N={n}")
    return tuple(h.diff_index(idx) for idx in range(2 * n - 1))


def hamiltonian_value(point: PhasePoint, m: int, method: str = "eigen") -> float:
    """Numeric H_m at a phase point.

    method="eigen" sums the m-th powers of the Jacobi spectrum; "power"
    takes the trace of the dense m-th matrix power.  The two agree to
    rounding and are cross-checked in the tests.
    """
    if m < 1:
        raise ValueError(f"Hamiltonian index must be >= 1, got {m}")
    mat = jacobi_matrix(point)
    if method == "eigen":
        eigs = np.linalg.eigvalsh(mat)
        return float(np.sum(eigs**m) / m)
    if method == "power":
        return float(np.trace(np.linalg.matrix_power(mat, m)) / m)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def toda_rhs(n: int) -> VectorField:
    """The Toda flow as a polynomial vector field."""
    v = Vars(n)
    a_comps = tuple(v.a(i) * (v.b(i + 1) - v.b(i)) for i in range(1, n))
    b_comps = tuple(
        (v.a(i) * v.a(i) - v.a(i - 1) * v.a(i - 1)).scale(2) for i in range(1, n + 1)
    )
    return VectorField(n, a_comps, b_comps)


def flow_residuals_by_site(a, b, adot, bdot) -> tuple[list, list]:
    """Defects of (adot, bdot) against the Toda equations, one site at a time.

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


def dense_symbolic_lax(n: int) -> tuple[tuple[Polynomial, ...], ...]:
    """The symbolic Jacobi matrix L with every one of its N x N entries stored."""
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


def dense_matmul_symbolic(left, right):
    """Dense symbolic product: one Polynomial.dot per entry, over every inner index."""
    n = left[0][0].n
    cols = tuple(zip(*right))
    return tuple(tuple(Polynomial.dot(n, zip(row, col)) for col in cols) for row in left)
