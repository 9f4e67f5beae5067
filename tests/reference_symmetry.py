"""Reference determining equations: the Toda flow's Gamma/Delta formulas by hand.

For x' = F(x) with F the Toda flow, the first prolongation of
tau d/dt + sum phi_j d/da_j + sum psi_j d/db_j gives, component by component,

    Gamma_j = D(phi_j) - D(tau) a_j (b_{j+1} - b_j) + phi_j (b_j - b_{j+1})
              + a_j psi_j - a_j psi_{j+1},                       j = 1..N-1,

    Delta_j = D(psi_j) - 2 D(tau) (a_j^2 - a_{j-1}^2)
              - 4 a_j phi_j + 4 a_{j-1} phi_{j-1},               j = 1..N,

with the boundary products a_0 phi_0 and a_N phi_N vanishing.  D is the
total derivative along solutions, here built on the hand-written flow
``toda_rhs``, so nothing below reads ``chi``.  These are the original
formulas of ``todasym.symmetry.determining_residuals``, kept as the slow,
independent oracle that ``test_symmetry.py`` compares the one-line
``D(xi) - D(tau) F - xi(F)`` against.  Nothing in ``src/`` imports this
module.
"""

from todasym.fields import VectorField
from todasym.ratpoly import Polynomial, Vars
from todasym.symmetry import SymmetryCandidate

from lattice_helpers import toda_rhs


def total_derivative(f: Polynomial) -> Polynomial:
    """d/dt plus the hand-written Toda flow acting on the phase variables."""
    return f.diff("t") + toda_rhs(f.n).apply(f)


def determining_residuals(cand: SymmetryCandidate) -> VectorField:
    """Exact residuals: Gamma_1..Gamma_{N-1} as the a-block, Delta_1..Delta_N as the b-block."""
    n = cand.n
    v = Vars(n)
    tau_dot = total_derivative(cand.tau)
    gamma = []
    for j in range(1, n):
        phi_j = cand.phi[j - 1]
        res = (
            total_derivative(phi_j)
            - tau_dot * v.a(j) * (v.b(j + 1) - v.b(j))
            + phi_j * (v.b(j) - v.b(j + 1))
            + v.a(j) * cand.psi[j - 1]
            - v.a(j) * cand.psi[j]
        )
        gamma.append(res)
    delta = []
    for j in range(1, n + 1):
        psi_j = cand.psi[j - 1]
        res = total_derivative(psi_j) - 2 * tau_dot * (v.a(j) ** 2 - v.a(j - 1) ** 2)
        if j <= n - 1:
            res = res - 4 * v.a(j) * cand.phi[j - 1]
        if j >= 2:
            res = res + 4 * v.a(j - 1) * cand.phi[j - 2]
        delta.append(res)
    return VectorField(n, tuple(gamma), tuple(delta))
