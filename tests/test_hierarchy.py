"""Master fields, the tensor ladder, chi fields and equivalence constants."""

from fractions import Fraction

import pytest

from todasym.hierarchy import (
    chi,
    chi_ladder,
    equivalent_mod_chi,
    master_field,
    poisson_tensor,
)
from todasym.lattice import hamiltonian
from todasym.poisson import (
    PoissonTensor,
    hamiltonian_field,
    lie_derivative,
    poisson_bracket,
    schouten_self,
)
from todasym import ratpoly
from todasym.ratpoly import Polynomial, Vars
from algebra_helpers import is_homogeneous, total_degree
from lattice_helpers import toda_rhs


# -- explicit low-order fields -------------------------------------------------


def test_x_minus_one_is_b_shift():
    field = master_field(-1, 3)
    assert all(c.is_zero() for c in field.a)
    assert all(c == Polynomial.const(3, 1) for c in field.b)


def test_x_zero_is_euler():
    v = Vars(3)
    field = master_field(0, 3)
    assert field.a == (v.a(1), v.a(2))
    assert field.b == (v.b(1), v.b(2), v.b(3))


def test_x_one_explicit_n2():
    v = Vars(2)
    field = master_field(1, 2)
    assert field.a == (-v.a(1) * v.b(1) + 3 * v.a(1) * v.b(2),)
    assert field.b == (5 * v.a(1) ** 2 + v.b(1) ** 2, -3 * v.a(1) ** 2 + v.b(2) ** 2)


def test_master_field_degrees():
    for n in (2, 3):
        for k in range(-1, 5):
            field = master_field(k, n)
            for comp in field.components():
                assert is_homogeneous(comp)
                if not comp.is_zero():
                    assert total_degree(comp) == k + 1


def test_master_field_rejects_low_index():
    with pytest.raises(ValueError):
        master_field(-2, 3)


def test_recursion_definition():
    # [X_1, X_{k-1}] = (k-2) X_k for the canonical representatives
    for n in (2, 3):
        for k in (3, 4, 5):
            lhs = master_field(1, n).bracket(master_field(k - 1, n))
            assert lhs == master_field(k, n).scale(k - 2)


# -- the grading ladder -----------------------------------------------------------


def test_euler_bracket_lowering_field():
    # X_{-1} has constant components, so [X_0, X_{-1}] = -X_{-1}
    for n in (2, 3):
        lhs = master_field(0, n).bracket(master_field(-1, n))
        assert lhs == master_field(-1, n).scale(-1)


def test_ladder_on_hamiltonians():
    for n in (2, 3):
        for k in (0, 1, 2, 3):
            for m in (1, 2, 3):
                lhs = master_field(k, n).apply(hamiltonian(m, n))
                assert lhs == hamiltonian(k + m, n).scale(k + m)


def test_euler_measures_degree():
    assert master_field(0, 2).apply(hamiltonian(2, 2)) == hamiltonian(2, 2).scale(2)


def test_x1_applied_to_h2_gives_3h3():
    v = Vars(2)
    result = master_field(1, 2).apply(hamiltonian(2, 2))
    expected = (
        3 * v.a(1) ** 2 * v.b(1)
        + 3 * v.a(1) ** 2 * v.b(2)
        + v.b(1) ** 3
        + v.b(2) ** 3
    )
    assert result == expected
    assert result == hamiltonian(3, 2).scale(3)


def test_lowering_field_on_hamiltonians():
    for n in (2, 3):
        lower = master_field(-1, n)
        for m in (2, 3, 4, 5):
            assert lower.apply(hamiltonian(m, n)) == hamiltonian(m - 1, n).scale(m - 1)
        # the ladder bottoms out at the constant N
        assert lower.apply(hamiltonian(1, n)) == Polynomial.const(n, n)


def test_x3_raises_h1_to_h4():
    assert master_field(3, 3).apply(hamiltonian(1, 3)) == hamiltonian(4, 3).scale(4)


# -- the linear tensor: uniqueness oracle --------------------------------------------


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fraction; returns (solution, unique)."""
    m = len(rows)
    width = len(rows[0]) if m else 0
    aug = [list(map(Fraction, row)) + [Fraction(val)] for row, val in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][width] != 0:
            return None, False
    solution = [Fraction(0)] * width
    for row_idx, c in enumerate(pivots):
        solution[c] = aug[row_idx][width]
    return solution, len(pivots) == width


def test_w1_unique_linear_tensor_oracle():
    """At N=2, one linear antisymmetric tensor generates the flow from H_2
    with H_1 as a Casimir; solve for it from scratch and compare."""
    n = 2
    v = Vars(n)
    basis = [v.one, v.a(1), v.b(1), v.b(2)]
    slots = [(0, 1), (0, 2), (1, 2)]  # upper entries of a 3x3 antisymmetric matrix
    unknown_count = len(slots) * len(basis)

    def assemble(h):
        """Per unknown, the contribution of that basis monomial to w.grad(h)."""
        grads = [h.diff_index(j) for j in range(3)]
        columns = []
        for i, j in slots:
            for mono in basis:
                comps = [Polynomial.zero(n)] * 3
                comps = list(comps)
                comps[i] = comps[i] + mono * grads[j]
                comps[j] = comps[j] - mono * grads[i]
                columns.append(comps)
        return columns

    targets = list(toda_rhs(n).components()) + [Polynomial.zero(n)] * 3
    columns = [c1 + c2 for c1, c2 in zip(assemble(hamiltonian(2, n)), assemble(hamiltonian(1, n)))]
    # collect linear equations: one per (component slot, monomial)
    monomials = set()
    for comps in columns:
        for comp in comps:
            monomials.update(comp.terms)
    for comp in targets:
        monomials.update(comp.terms)
    monomials = sorted(monomials)
    rows, rhs = [], []
    for slot in range(6):
        for mono in monomials:
            rows.append([col[slot].terms.get(mono, Fraction(0)) for col in columns])
            rhs.append(targets[slot].terms.get(mono, Fraction(0)))
    solution, unique = _solve_exact(rows, rhs)
    assert solution is not None, "no linear tensor generates the flow"
    assert unique, "flow + Casimir conditions left free parameters"
    rebuilt = {}
    idx = 0
    for i, j in slots:
        entry = Polynomial.zero(n)
        for mono in basis:
            entry = entry + mono.scale(solution[idx])
            idx += 1
        rebuilt[(i, j)] = entry
    assert PoissonTensor(n, rebuilt) == poisson_tensor(1, n)


def test_w1_entries_and_flow():
    for n in (2, 3, 4):
        w1 = poisson_tensor(1, n)
        v = Vars(n)
        for i in range(1, n):
            assert w1.entry(i - 1, (n - 1) + i - 1) == -v.a(i)
            assert w1.entry(i - 1, (n - 1) + i) == v.a(i)
        assert hamiltonian_field(w1, hamiltonian(2, n)) == toda_rhs(n)
        assert hamiltonian_field(w1, hamiltonian(1, n)).is_zero()


# -- the quadratic and cubic tensors ---------------------------------------------------


def test_w2_regression_entries_n2():
    v = Vars(2)
    w2 = poisson_tensor(2, 2)
    assert w2.entry(0, 1) == -v.a(1) * v.b(1)
    assert w2.entry(0, 2) == v.a(1) * v.b(2)
    assert w2.entry(1, 2) == 2 * v.a(1) ** 2
    # and it is exactly -1/2 of the Lie derivative of w_1 along X_1
    assert w2 == lie_derivative(master_field(1, 2), poisson_tensor(1, 2)) / (-2)


def test_w2_adjacent_couplings_n3():
    v = Vars(3)
    w2 = poisson_tensor(2, 3)
    assert w2.entry(0, 1) == v.a(1) * v.a(2) / 2  # {a1, a2}
    assert w2.entry(2, 3) == 2 * v.a(1) ** 2  # {b1, b2}
    assert w2.entry(0, 2) == -v.a(1) * v.b(1)  # {a1, b1}
    assert w2.entry(0, 4).is_zero()  # {a1, b3} stays outside the band


def test_tensor_degrees():
    for n in (2, 3):
        for k in (1, 2, 3):
            w = poisson_tensor(k, n)
            for i in range(w.dim()):
                for j in range(i + 1, w.dim()):
                    entry = w.entry(i, j)
                    if not entry.is_zero():
                        assert is_homogeneous(entry, k)


def test_ladder_alignment():
    # w_k . grad H_l = w_{k-1} . grad H_{l+1}
    for n in (2, 3):
        for k in (2, 3):
            for l in (1, 2, 3):
                assert chi_ladder(l, k, n) == chi_ladder(l + 1, k - 1, n)


def test_chi2_is_flow():
    for n in (2, 3, 4):
        assert chi(2, n) == toda_rhs(n)
        assert chi(1, n).is_zero()


def test_w2_casimir_shifts_up():
    # H_1 stops being a Casimir for w_2; instead w_2 . grad H_1 is the flow
    for n in (2, 3):
        assert hamiltonian_field(poisson_tensor(2, n), hamiltonian(1, n)) == toda_rhs(n)


def test_schouten_certificates():
    for n in (2, 3):
        for k in (1, 2, 3):
            assert schouten_self(poisson_tensor(k, n)).is_zero()


def test_schouten_certifies_w6_at_five_sites():
    # the heaviest cell of the deep grid, past the verify suites' w_{nmax-1}
    assert schouten_self(poisson_tensor(6, 5)).is_zero()


def test_x8_at_five_sites_same_under_both_kernels(monkeypatch):
    # X_8 at N=5 (5,051 terms) rebuilt up X_k = [X_1, X_{k-1}] / (k - 2),
    # once with dot's vectorised kernel forced off and once forced on, through
    # its size rule: a minimum no product reaches, or both thresholds 0
    n = 5

    def terms_in_order(field):
        return [(c._den, list(c._nums.items())) for c in field.components()]

    builds = []
    for vector in (False, True):
        monkeypatch.setattr(ratpoly, "_VECTOR_MIN_PAIRS", 0 if vector else float("inf"))
        monkeypatch.setattr(ratpoly, "_VECTOR_PAIRS_PER_TERM", 0)
        x = master_field(2, n)
        for k in range(3, 9):
            x = master_field(1, n).bracket(x) / (k - 2)
        builds.append(terms_in_order(x))
    monkeypatch.undo()
    assert builds[0] == builds[1]
    assert builds[0] == terms_in_order(master_field(8, n))
    assert sum(len(c.terms) for c in master_field(8, n).components()) == 5051


def test_involution_under_all_tensors():
    for n in (2, 3):
        for k in (1, 2, 3):
            w = poisson_tensor(k, n)
            for m in range(1, 5):
                for l in range(m, 5):
                    assert poisson_bracket(w, hamiltonian(m, n), hamiltonian(l, n)).is_zero()


def test_tensor_scaling_cross_check():
    # L_{X_2} w_1 = -3 w_3 holds exactly, off the generation schedule
    for n in (2, 3):
        lhs = lie_derivative(master_field(2, n), poisson_tensor(1, n))
        assert lhs == poisson_tensor(3, n).scale(-3)


def test_tensor_scaling_fails_off_schedule_past_degree_four():
    # L_{X_1} w_4 != (4 - 1 - 2) w_5: the schedule, not the relation, fixes w_5
    lhs = lie_derivative(master_field(1, 3), poisson_tensor(4, 3))
    assert lhs != poisson_tensor(5, 3)


def test_higher_tensors_generate():
    # the schedule extends past the acceptance range without degenerating
    w4 = poisson_tensor(4, 2)
    assert not w4.is_zero()
    for i in range(w4.dim()):
        for j in range(i + 1, w4.dim()):
            if not w4.entry(i, j).is_zero():
                assert is_homogeneous(w4.entry(i, j), 4)


# -- equivalence -------------------------------------------------------------------


def test_equivalent_mod_chi_reflexive():
    x2 = master_field(2, 3)
    assert equivalent_mod_chi(x2, x2, 3) == 0


def test_equivalent_mod_chi_planted_multiple():
    x2 = master_field(2, 3)
    shifted = x2 + chi(3, 3).scale(2)
    assert equivalent_mod_chi(shifted, x2, 3) == Fraction(2)
    assert equivalent_mod_chi(shifted, x2, 4) is None


def test_equivalent_mod_chi_zero_generator():
    # chi_1 = 0, so only equal fields are related at level 1
    x1 = master_field(1, 2)
    assert equivalent_mod_chi(x1, x1, 1) == 0
    assert equivalent_mod_chi(x1 + chi(3, 2), x1, 1) is None


def test_bracket_equivalence_constants_vanish():
    # [X_i, X_j] = (j-i) X_{i+j} holds exactly on the whole desk-scale grid
    for n in (2, 3):
        for i in range(0, 4):
            for j in range(0, 4):
                bracket = master_field(i, n).bracket(master_field(j, n))
                target = master_field(i + j, n).scale(j - i)
                assert equivalent_mod_chi(bracket, target, i + j + 1) == 0, (n, i, j)
