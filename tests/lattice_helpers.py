"""Numeric and symbolic lattice helpers that only the tests use.

``jacobi_matrix`` and ``lax_b_matrix`` build the dense Lax pair at a phase
point, ``hamiltonian_value`` evaluates H_m numerically by two independent
routes, and ``gradient`` is the dense phase-space gradient of a polynomial.
The tests cross-check the package's exact objects against them.
"""

import numpy as np

from todasym.lattice import PhasePoint
from todasym.ratpoly import Polynomial


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
