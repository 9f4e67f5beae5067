"""Phase space, Lax matrices, Hamiltonians and the flow."""

import math
import random

import numpy as np
import pytest

from todasym.hierarchy import chi
from todasym.lattice import (
    PhasePoint,
    _lax_power,
    flaschka,
    flow_residuals,
    hamiltonian,
    matmul_symbolic,
    symbolic_lax,
    symbolic_lax_b,
)
from todasym.ratpoly import Polynomial, Vars
from algebra_helpers import evaluate, is_homogeneous
from conftest import random_field
from lattice_helpers import (
    dense_matmul_symbolic,
    dense_symbolic_lax,
    flow_residuals_by_site,
    gradient,
    hamiltonian_value,
    jacobi_matrix,
    lax_b_matrix,
    toda_rhs,
)


# -- Flaschka map -----------------------------------------------------------


def test_flaschka_at_origin():
    point = flaschka([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert point.a == (0.5, 0.5)
    assert point.b == (0.0, 0.0, 0.0)
    assert point.time == 0.0


def test_flaschka_momentum_scaling():
    point = flaschka([1.0, -2.0], [2.0, -2.0])
    assert point.b == (-1.0, 1.0)


def test_flaschka_log_positions():
    point = flaschka([2.0 * math.log(2.0), 0.0], [0.0, 0.0])
    assert point.a[0] == pytest.approx(1.0, abs=1e-15)


def test_flaschka_positivity():
    rng = random.Random(5)
    q = [rng.uniform(-3, 3) for _ in range(4)]
    p = [rng.uniform(-3, 3) for _ in range(4)]
    assert all(ai > 0 for ai in flaschka(q, p).a)


# -- symbolic Hamiltonians ---------------------------------------------------


def test_h1_is_trace():
    v = Vars(4)
    assert hamiltonian(1, 4) == v.b(1) + v.b(2) + v.b(3) + v.b(4)


def test_h2_hand_expansion():
    v = Vars(2)
    assert hamiltonian(2, 2) == v.b(1) ** 2 / 2 + v.b(2) ** 2 / 2 + v.a(1) ** 2


def test_h3_hand_expansion():
    v = Vars(2)
    expected = (v.b(1) ** 3 + v.b(2) ** 3) / 3 + v.a(1) ** 2 * (v.b(1) + v.b(2))
    assert hamiltonian(3, 2) == expected


def test_h_homogeneous():
    for n in (2, 3):
        for m in range(1, 6):
            assert is_homogeneous(hamiltonian(m, n), m)


def test_h_rejects_bad_index():
    with pytest.raises(ValueError):
        hamiltonian(0, 3)


# -- gradients ---------------------------------------------------------------


def test_gradient_h1():
    n = 3
    grads = gradient(hamiltonian(1, n), n)
    assert all(g.is_zero() for g in grads[: n - 1])
    assert all(g == Polynomial.const(n, 1) for g in grads[n - 1 :])


def test_gradient_h2():
    v = Vars(2)
    assert gradient(hamiltonian(2, 2), 2) == (2 * v.a(1), v.b(1), v.b(2))


def test_gradient_constant():
    grads = gradient(Polynomial.const(3, 7), 3)
    assert all(g.is_zero() for g in grads)


# -- the flow ------------------------------------------------------------------


def test_toda_rhs_n2():
    v = Vars(2)
    flow = toda_rhs(2)
    assert flow.a == (v.a(1) * v.b(2) - v.a(1) * v.b(1),)
    assert flow.b == (2 * v.a(1) ** 2, -2 * v.a(1) ** 2)


def test_flow_vanishes_at_zero_coupling():
    flow = toda_rhs(3)
    point = {"a1": 0, "a2": 0, "b1": 3, "b2": -1, "b3": 2}
    assert all(evaluate(c, point) == 0 for c in flow.components())


def test_flow_conserves_hamiltonians():
    for n in (2, 3, 4):
        flow = toda_rhs(n)
        for m in range(1, 2 * n + 1):
            assert flow.apply(hamiltonian(m, n)).is_zero(), (n, m)


def test_h1_conservation_telescopes():
    # the b-components sum to zero before any cancellation against H_1
    flow = toda_rhs(3)
    total = flow.b[0] + flow.b[1] + flow.b[2]
    assert total.is_zero()


# -- residuals ------------------------------------------------------------------


def test_residuals_vanish_on_flow_symbolically():
    for n in (2, 3):
        v = Vars(n)
        flow = toda_rhs(n)
        a = [v.a(i) for i in range(1, n)]
        b = [v.b(i) for i in range(1, n + 1)]
        residual = flow_residuals(a, b, list(flow.a), list(flow.b))
        assert len(residual) == 2 * n - 1
        assert all(r.is_zero() for r in residual)


def test_residuals_at_fixed_point_numeric():
    assert flow_residuals([0.0], [1.0, -1.0], [0.0], [0.0, 0.0]).tolist() == [0.0, 0.0, 0.0]


def test_residuals_linear_in_perturbation():
    v = Vars(2)
    flow = toda_rhs(2)
    a = [v.a(1)]
    b = [v.b(1), v.b(2)]
    one = Polynomial.const(2, 1)
    residual = flow_residuals(a, b, [flow.a[0] + one], list(flow.b))
    assert residual[0] == one


def _same_floats(block, gammas, deltas):
    expected = np.array(gammas + deltas)
    return block.dtype == expected.dtype and block.shape == expected.shape and (
        block.tobytes() == expected.tobytes()
    )


def test_block_residuals_match_site_loop_on_a_point():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        a, adot = rng.uniform(0.1, 1.0, (2, n - 1)).tolist()
        b, bdot = rng.uniform(-1.0, 1.0, (2, n)).tolist()
        block = flow_residuals(a, b, adot, bdot)
        assert _same_floats(block, *flow_residuals_by_site(a, b, adot, bdot))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16])
def test_block_residuals_match_site_loop_on_a_grid(n):
    # the probe's shape: one row per component, 401 samples along the last axis
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, (2, 2 * n - 1, 401))
    args = (x[0, : n - 1], x[0, n - 1 :], x[1, : n - 1], x[1, n - 1 :])
    assert _same_floats(flow_residuals(*args), *flow_residuals_by_site(*args))


def _same_terms(block, gammas, deltas):
    # equal terms in equal order: no float and no reordering on the exact path
    expected = gammas + deltas
    return len(block) == len(expected) and all(
        isinstance(p, Polynomial) and list(p.terms.items()) == list(q.terms.items())
        for p, q in zip(block, expected)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_residuals_match_site_loop_on_polynomials(rng, n):
    v = Vars(n)
    a = [v.a(i) for i in range(1, n)]
    b = [v.b(i) for i in range(1, n + 1)]
    fields = [chi(2, n)] + [random_field(rng, n, with_t=True) for _ in range(4)]
    for field in fields:
        args = (a, b, field.a, field.b)
        assert _same_terms(flow_residuals(*args), *flow_residuals_by_site(*args))
    # polynomial a and b as well: the products and sums keep their term order
    for left, right in zip(fields[1::2], fields[2::2]):
        args = (left.a, left.b, right.a, right.b)
        assert _same_terms(flow_residuals(*args), *flow_residuals_by_site(*args))


# -- Lax pair --------------------------------------------------------------------


def test_lax_b_zero_coupling():
    point = PhasePoint((0.0, 0.0), (1.0, 2.0, 3.0))
    assert np.array_equal(lax_b_matrix(point), np.zeros((3, 3)))


def test_lax_b_shape_n2():
    point = PhasePoint((1.0,), (0.0, 0.0))
    assert np.array_equal(lax_b_matrix(point), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_commutator_hand_check_n2():
    lax = symbolic_lax(2)
    skew = symbolic_lax_b(2)
    comm_bl = matmul_symbolic(skew, lax)
    comm_lb = matmul_symbolic(lax, skew)
    v = Vars(2)
    assert comm_bl[0][0] - comm_lb[0][0] == 2 * v.a(1) ** 2
    assert comm_bl[1][1] - comm_lb[1][1] == -2 * v.a(1) ** 2
    assert comm_bl[0][1] - comm_lb[0][1] == v.a(1) * (v.b(2) - v.b(1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_commutator_assembles_flow(n):
    lax = symbolic_lax(n)
    skew = symbolic_lax_b(n)
    flow = toda_rhs(n)
    bl = matmul_symbolic(skew, lax)
    lb = matmul_symbolic(lax, skew)
    zero = Polynomial.zero(n)
    for i in range(n):
        for j in range(n):
            diff = bl[i].get(j, zero) - lb[i].get(j, zero)
            if i == j:
                assert diff == flow.b[i]
            elif abs(i - j) == 1:
                assert diff == flow.a[min(i, j)]
            else:
                assert diff.is_zero()


# -- band storage against the dense product -----------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lax_power_band_equals_dense_product(n):
    zero = Polynomial.zero(n)
    lax = dense_symbolic_lax(n)
    dense = lax
    for m in range(1, 7):
        band = _lax_power(m, n)
        assert len(band) == n
        for i, row in enumerate(band):
            assert list(row) == sorted(row)
            # only nonzero entries, none farther than m from the diagonal
            assert all(entry and abs(i - j) <= m for j, entry in row.items()), (m, i)
            assert [row.get(j, zero) for j in range(n)] == list(dense[i]), (m, i)
        dense = dense_matmul_symbolic(dense, lax)
    # the cached rows are shared by every caller, so they are read-only
    with pytest.raises(TypeError):
        _lax_power(2, n)[0][0] = zero


def test_band_product_makes_one_dot_per_band_entry(monkeypatch):
    # a count, not a timing: the dense product makes one dot per entry, 64 * 64
    lax = symbolic_lax(64)
    real = Polynomial.dot
    calls = []

    def counting(n, pairs):
        calls.append(n)
        return real(n, pairs)

    monkeypatch.setattr(Polynomial, "dot", staticmethod(counting))
    matmul_symbolic(lax, lax)
    assert 0 < len(calls) <= 5 * 64


# -- numeric Hamiltonians ----------------------------------------------------------


def test_hamiltonian_value_routes_agree():
    rng = random.Random(11)
    for n in (2, 4, 6):
        point = PhasePoint(
            tuple(rng.uniform(0.1, 1.0) for _ in range(n - 1)),
            tuple(rng.uniform(-1.0, 1.0) for _ in range(n)),
        )
        values = {name: float(val) for name, val in zip_point(point)}
        for m in range(1, n + 1):
            eig = hamiltonian_value(point, m, method="eigen")
            power = hamiltonian_value(point, m, method="power")
            symbolic = evaluate(hamiltonian(m, n), values)
            assert eig == pytest.approx(power, rel=1e-12, abs=1e-12)
            assert eig == pytest.approx(symbolic, rel=1e-12, abs=1e-12)


def zip_point(point):
    names = [f"a{i}" for i in range(1, point.n)] + [f"b{i}" for i in range(1, point.n + 1)]
    return zip(names, list(point.a) + list(point.b))


def test_jacobi_matrix_layout():
    point = PhasePoint((1.0, 2.0), (5.0, 6.0, 7.0))
    expected = np.array([[5.0, 1.0, 0.0], [1.0, 6.0, 2.0], [0.0, 2.0, 7.0]])
    assert np.array_equal(jacobi_matrix(point), expected)


# -- phase point serialization --------------------------------------------------------


def test_phase_point_json_round_trip():
    point = PhasePoint((0.25, 0.5), (-1.0, 0.0, 1.0), 2.5)
    obj = {"a": [0.25, 0.5], "b": [-1.0, 0.0, 1.0], "t": 2.5}
    assert PhasePoint.from_json_obj(obj) == point


def test_phase_point_accepts_positions_momenta():
    obj = {"q": [0.0, 0.0], "p": [2.0, -2.0]}
    point = PhasePoint.from_json_obj(obj)
    assert point.a == (0.5,)
    assert point.b == (-1.0, 1.0)


def test_phase_point_rejects_half_qp():
    with pytest.raises(ValueError):
        PhasePoint.from_json_obj({"q": [0.0, 0.0]})


def test_phase_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PhasePoint((float("nan"),), (0.0, 0.0))


def test_toda_rhs_equals_chi2():
    from todasym.hierarchy import chi

    for n in (2, 3, 4):
        assert toda_rhs(n) == chi(2, n)
