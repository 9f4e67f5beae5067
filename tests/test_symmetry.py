"""Determining equations, the known catalogue, and the Y_k family."""

import pytest

from todasym.fields import VectorField
from todasym.hierarchy import chi, master_field
from todasym.lattice import hamiltonian
from todasym.ratpoly import Polynomial, Vars
from todasym.symmetry import (
    SymmetryCandidate,
    build_Y,
    candidate_scaling,
    candidate_shift,
    candidate_time_translation,
    determining_residuals,
    evolutionary_defect,
    residual_slots,
    total_derivative,
    verify_theorem,
)
from todasym.verify import VerifyConfig, run_verify
from conftest import random_polynomial
from algebra_helpers import add_candidates, scale_candidate
from lattice_helpers import toda_rhs
import reference_symmetry


def random_candidate(rng, n, **kw):
    return SymmetryCandidate(
        n,
        random_polynomial(rng, n, **kw),
        tuple(random_polynomial(rng, n, **kw) for _ in range(n - 1)),
        tuple(random_polynomial(rng, n, **kw) for _ in range(n)),
    )


# -- total derivative -------------------------------------------------------------


def test_total_derivative_of_time():
    assert total_derivative(Vars(2).t) == Polynomial.const(2, 1)


def test_total_derivative_of_conserved_quantity():
    assert total_derivative(hamiltonian(2, 3)).is_zero()
    assert total_derivative(hamiltonian(3, 3)).is_zero()


def test_total_derivative_of_b1():
    v = Vars(2)
    assert total_derivative(v.b(1)) == 2 * v.a(1) ** 2


def test_total_derivative_leibniz(rng):
    for _ in range(10):
        f = random_polynomial(rng, 2, with_t=True)
        g = random_polynomial(rng, 2, with_t=True)
        lhs = total_derivative(f * g)
        assert lhs == total_derivative(f) * g + f * total_derivative(g)


# -- determining equations ----------------------------------------------------------


def test_shift_solution_passes():
    for n in (2, 3):
        assert determining_residuals(candidate_shift(n)).is_zero()


def test_time_translation_passes_both_forms():
    for n in (2, 3):
        assert determining_residuals(candidate_time_translation(n)).is_zero()
        # tau = 0 with the flow itself as the coefficient part
        assert determining_residuals(SymmetryCandidate.from_field(toda_rhs(n))).is_zero()


def test_scaling_solution_passes():
    for n in (2, 3):
        assert determining_residuals(candidate_scaling(n)).is_zero()


def test_scaling_with_constant_tau_fails():
    """tau = -1 with phi = a, psi = b is not a symmetry; the grading
    generator needs tau = -t (its flow rescales time, not shifts it)."""
    n = 2
    v = Vars(n)
    wrong = SymmetryCandidate(n, v.const(-1), (v.a(1),), (v.b(1), v.b(2)))
    residual = determining_residuals(wrong)
    assert not residual.is_zero()
    label, poly = next(slot for slot in residual_slots(residual) if slot[1])
    assert label == "gamma_1"
    assert poly == v.a(1) * v.b(1) - v.a(1) * v.b(2)


def test_single_psi_candidate_fails():
    n = 2
    v = Vars(n)
    cand = SymmetryCandidate(n, v.zero, (v.zero,), (v.b(1), v.zero))
    residual = determining_residuals(cand)
    assert not residual.is_zero()
    # delta_1 = D(b1) = 2 a1^2 survives; gamma_1 picks up a1 b1
    assert residual.a[0] == v.a(1) * v.b(1)
    assert residual.b[0] == 2 * v.a(1) ** 2


def test_residuals_linear_in_candidate(rng):
    n = 2
    for _ in range(8):
        c1 = random_candidate(rng, n, with_t=True)
        c2 = random_candidate(rng, n, with_t=True)
        lhs = determining_residuals(add_candidates(c1, c2))
        assert lhs == determining_residuals(c1) + determining_residuals(c2)
        scaled = determining_residuals(scale_candidate(c1, 3))
        assert scaled == determining_residuals(c1).scale(3)


def test_random_candidate_is_not_a_symmetry(rng):
    # no vacuous passing: a generic candidate must leave a residual
    found_nonzero = 0
    for _ in range(5):
        cand = random_candidate(rng, 2, with_t=True)
        if not determining_residuals(cand).is_zero():
            found_nonzero += 1
    assert found_nonzero == 5


# -- the evolutionary condition against the hand-written equations ----------------------


def test_routes_agree_for_evolutionary_candidates(rng):
    # for tau = 0 the hand-written Gamma/Delta equations reduce to dY/dt + [chi_2, Y]
    for n in (2, 3):
        for _ in range(4):
            field = VectorField.from_components(
                n, [random_polynomial(rng, n, with_t=True) for _ in range(2 * n - 1)]
            )
            cand = SymmetryCandidate.from_field(field)
            assert reference_symmetry.determining_residuals(cand) == evolutionary_defect(field)


# -- the Y_k family ----------------------------------------------------------------------


def test_build_y_minus_one_is_shift():
    # chi_1 = 0, so Y_{-1} = X_{-1} with no time part
    assert build_Y(-1, 3) == candidate_shift(3)


def test_build_y_zero_is_scaling_representative():
    n = 3
    t = Vars(n).t
    expected = master_field(0, n) + toda_rhs(n).mul_poly(t)
    assert build_Y(0, n).as_field() == expected


def test_build_y_one_phi1_n2():
    v = Vars(2)
    y1 = build_Y(1, 2)
    assert y1.phi[0] == -v.a(1) * v.b(1) + 3 * v.a(1) * v.b(2) + v.t * (
        v.a(1) * v.b(2) ** 2 - v.a(1) * v.b(1) ** 2
    )


def test_build_y_is_evolutionary():
    y2 = build_Y(2, 2)
    assert y2.tau.is_zero()
    assert not y2.as_field().is_autonomous()


def test_theorem_small_sizes():
    for n in (2, 3):
        cases = verify_theorem(3, n)
        assert [c.k for c in cases] == [-1, 0, 1, 2, 3]
        for case in cases:
            assert case.ok, (n, case.k, case.witness)


def test_theorem_witness_on_failure():
    # verify_theorem reports the first nonzero residual for a broken family
    n = 2
    v = Vars(n)
    broken = SymmetryCandidate(
        n, v.zero, (v.a(1) * v.b(1),), (v.zero, v.zero)
    )
    residual = determining_residuals(broken)
    label, witness = next(slot for slot in residual_slots(residual) if slot[1])
    assert label.startswith("gamma")
    assert not witness.is_zero()


def test_y_minus_one_structure_constant():
    # index -1 closes with constant -4: [Y_{-1}, Y_m] = (m+1) Y_{m-1} - 4 chi_m
    for n in (2, 3, 4, 5):
        y_lower = build_Y(-1, n).as_field()
        for m in (1, 2, 3, 4):
            lhs = y_lower.bracket(build_Y(m, n).as_field())
            rhs = build_Y(m - 1, n).as_field().scale(m + 1) - chi(m, n).scale(4)
            assert lhs == rhs, (n, m)


# -- ladder brackets ------------------------------------------------------------------


def test_lowering_field_on_chi_ladder():
    # [X_{-1}, chi_l] = (l-1) chi_{l-1}: X_{-1} leaves w_1 invariant, so it lowers
    # chi_l = w_1 . grad H_l as X_{-1}(H_l) = (l-1) H_{l-1} lowers H_l
    for n in (2, 3, 4, 5):
        for l in (2, 3, 4, 5):
            lhs = master_field(-1, n).bracket(chi(l, n))
            assert lhs == chi(l - 1, n).scale(l - 1), (n, l)


def test_bracket_with_zero_chi():
    config = VerifyConfig(ns=(2,), n_max=2, suites=("chi-brackets",))
    (case,) = [c for c in run_verify(config).results if c.name == "[X1,chi1]"]
    assert case.ok  # [X_1, chi_1] = 0 = (1-1) chi_2


def test_bracket_suite_explicit_cases():
    n = 3
    assert master_field(1, n).bracket(chi(2, n)) == chi(3, n)
    assert master_field(2, n).bracket(chi(2, n)) == chi(4, n)


def test_bracket_suite_grid():
    for case in run_verify(VerifyConfig(ns=(3,), n_max=4, suites=("chi-brackets",))).results:
        assert case.ok, (case.name, case.witness)


def test_chi_flows_commute():
    # [chi_2, chi_l] = 0: all the ladder flows commute with the Toda flow
    n = 3
    for l in (1, 2, 3, 4):
        assert chi(2, n).bracket(chi(l, n)).is_zero()


def test_candidate_json_checks_the_counts_before_any_polynomial(monkeypatch):
    # a declared N far past the arrays given fails on the counts alone: each
    # polynomial built for that N would cost O(N)
    calls = []
    real = Polynomial.from_json_terms
    monkeypatch.setattr(
        Polynomial, "from_json_terms", lambda n, data: calls.append(n) or real(n, data)
    )
    with pytest.raises(ValueError) as exc:
        SymmetryCandidate.from_json_obj({"N": 100000, "phi": [[]], "psi": [[], []]})
    assert str(exc.value) == "expected 99999 phi and 100000 psi components, got 1 and 2"
    assert calls == []
    # the counter sees the builds of a well-formed candidate: tau, phi_1, psi_1, psi_2
    SymmetryCandidate.from_json_obj({"N": 2, "phi": [[]], "psi": [[], []]})
    assert calls == [2, 2, 2, 2]
