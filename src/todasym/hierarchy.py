"""Master symmetry fields X_k and the Poisson tensor ladder w_k.

The master fields are graded by how they act on the conserved quantities:

    X_k(H_m) = (k + m) H_{k+m}            (k >= 0, m >= 1)
    X_{-1}(H_m) = (m - 1) H_{m-1}         (m >= 2)

X_{-1} is the constant field sum_i d/db_i, X_0 the Euler field, X_1 and X_2
are given by explicit degree-2 and degree-3 component formulas, and for
k >= 3 the canonical representative is the rescaled bracket

    X_k := [X_1, X_{k-1}] / (k - 2).

The tensor ladder starts from the linear bracket w_1 with

    {a_i, b_i} = -a_i,   {a_i, b_{i+1}} = +a_i,

the unique tridiagonal-band tensor whose Hamiltonian field of H_2 is the
Toda flow (H_1 is its Casimir).  Scaling along the master fields moves the
ladder up: with the differential-geometric Lie derivative of poisson.py,

    L_{X_k} w_m = (m - k - 2) w_{k+m}

holds exactly for k = 0 (the Euler case L_{X_0} w_m = (m - 2) w_m fixes the
sign: w_1 has linear entries, so L_{X_0} w_1 = -w_1) and for k + m <= 4.
Past that it holds on the schedule's pairs (k, m) = (2, 3) and (4, 2), but
not in general: at N = 3 and 4 it fails for (1, 4), (1, 5), (2, 4), (3, 2),
(3, 3) and (4, 1), and L_{X_1} w_4 is no multiple of w_5.  So w_k for
k >= 5 is fixed by the schedule in poisson_tensor, not by the relation.
Each w_k is normalized so that the ladder of Hamiltonian fields aligns,

    w_k . grad H_l = w_{k-1} . grad H_{l+1},

so chi_l, the field of H_l under w_1, equals the field of H_{l-1} under w_2,
and so on.  The generation schedule (which X and which source tensor build
w_k) always has a nonzero scale factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fields import VectorField
from .lattice import hamiltonian
from .poisson import PoissonTensor, hamiltonian_field, lie_derivative
from .ratpoly import Polynomial, Vars


@lru_cache(maxsize=None)
def master_field(k: int, n: int) -> VectorField:
    """The master field X_k for an n-site chain; components have degree k+1."""
    if k < -1:
        raise ValueError(f"master field index must be >= -1, got {k}")
    v = Vars(n)
    if k == -1:
        return VectorField(n, (v.zero,) * (n - 1), (v.one,) * n)
    if k == 0:
        return VectorField(
            n,
            tuple(v.a(i) for i in range(1, n)),
            tuple(v.b(i) for i in range(1, n + 1)),
        )
    if k == 1:
        a_comps = tuple(
            v.a(i) * (-i * v.b(i) + (i + 2) * v.b(i + 1)) for i in range(1, n)
        )
        b_comps = tuple(
            (2 * i + 3) * v.a(i) ** 2 + (1 - 2 * i) * v.a(i - 1) ** 2 + v.b(i) ** 2
            for i in range(1, n + 1)
        )
        return VectorField(n, a_comps, b_comps)
    if k == 2:
        return _master_field_two(n)
    return master_field(1, n).bracket(master_field(k - 1, n)) / (k - 2)


def _partial_b_sum(v: Vars, i: int) -> Polynomial:
    """sigma_i = b_1 + ... + b_{i-1} (empty sum for i <= 1)."""
    acc = v.zero
    for j in range(1, i):
        acc = acc + v.b(j)
    return acc


def _master_field_two(n: int) -> VectorField:
    v = Vars(n)
    a_comps = []
    for i in range(1, n):
        sigma = _partial_b_sum(v, i)
        comp = (
            (2 - i) * v.a(i - 1) ** 2 * v.a(i)
            + (1 - i) * v.a(i) * v.b(i) ** 2
            + v.a(i) * v.b(i) * v.b(i + 1)
            + (i + 1) * v.a(i) * v.a(i + 1) ** 2
            + (i + 1) * v.a(i) * v.b(i + 1) ** 2
            + v.a(i) ** 3
            + sigma * v.a(i) * (v.b(i + 1) - v.b(i))
        )
        a_comps.append(comp)
    b_comps = []
    for i in range(1, n + 1):
        sigma = _partial_b_sum(v, i)
        sigma_prev = _partial_b_sum(v, i - 1)
        comp = (
            2 * sigma * v.a(i) ** 2
            - 2 * sigma_prev * v.a(i - 1) ** 2
            + (2 * i + 2) * v.a(i) ** 2 * v.b(i)
            + (2 * i + 1) * v.a(i) ** 2 * v.b(i + 1)
            + (3 - 2 * i) * v.a(i - 1) ** 2 * v.b(i - 1)
            + (4 - 2 * i) * v.a(i - 1) ** 2 * v.b(i)
            + v.b(i) ** 3
        )
        b_comps.append(comp)
    return VectorField(n, tuple(a_comps), tuple(b_comps))


@lru_cache(maxsize=None)
def poisson_tensor(k: int, n: int) -> PoissonTensor:
    """The k-th tensor of the ladder; entries are homogeneous of degree k."""
    if k < 1:
        raise ValueError(f"tensor index must be >= 1, got {k}")
    if k == 1:
        v = Vars(n)
        entries = {}
        for i in range(1, n):
            a_idx = i - 1
            entries[(a_idx, (n - 1) + (i - 1))] = -v.a(i)
            entries[(a_idx, (n - 1) + i)] = v.a(i)
        return PoissonTensor(n, entries)
    # source tensor w_m and field X_{k-m}; scale (m - (k-m) - 2) is -2, -1,
    # 2 - k (even k >= 4) or 4 - k (odd k >= 5), never 0
    m = 2 if k % 2 == 0 else 3
    if k <= 3:
        m = k - 1
    j = k - m
    scale = m - j - 2
    derived = lie_derivative(master_field(j, n), poisson_tensor(m, n))
    return derived / scale


@lru_cache(maxsize=None)
def chi(l: int, n: int) -> VectorField:
    """Hamiltonian field of H_l under w_1; chi_1 = 0 (H_1 is a Casimir)."""
    if l < 1:
        raise ValueError(f"chi index must be >= 1, got {l}")
    return hamiltonian_field(poisson_tensor(1, n), hamiltonian(l, n))


def chi_ladder(l: int, k: int, n: int) -> VectorField:
    """Hamiltonian field of H_l under w_k (chi_l^k in ladder notation)."""
    return hamiltonian_field(poisson_tensor(k, n), hamiltonian(l, n))


def equivalent_mod_chi(
    v: VectorField, w: VectorField, level: int
) -> Fraction | None:
    """Rational k with v - w = k * chi_level, or None if no such k exists.

    k = 0 means the fields are equal.  The candidate k is read off the first
    nonzero coefficient of chi_level and then verified globally, so a return
    value is a certificate, not a heuristic.
    """
    if v.n != w.n:
        raise ValueError("fields live over different lattice sizes")
    diff = v - w
    generator = chi(level, v.n)
    if generator.is_zero():
        return Fraction(0) if diff.is_zero() else None
    if diff.is_zero():
        return Fraction(0)
    # the generator is nonzero, so some component sets k
    for d_comp, g_comp in zip(diff.components(), generator.components()):
        if g_comp.is_zero():
            continue
        mono, coeff = g_comp.sorted_terms()[0]
        k = d_comp.terms.get(mono, Fraction(0)) / coeff
        break
    residual = diff - generator.scale(k)
    return k if residual.is_zero() else None
