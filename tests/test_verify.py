"""The one pass/fail rule of the verify suites and its failure witnesses."""

import pytest

from todasym.fields import VectorField
from todasym.hierarchy import poisson_tensor
from todasym.poisson import PoissonTensor, schouten_self
from todasym.ratpoly import Vars
from todasym.verify import EXACT, FAIL, _check, _witness

v = Vars(2)
z = v.zero
# {a1,b1} = a1, {a1,b2} = -b2, {b1,b2} = b1 violates Jacobi on slot (0, 1, 2)
NON_POISSON = PoissonTensor(2, {(0, 1): v.a(1), (0, 2): -v.b(2), (1, 2): v.b(1)})

# (residual, the empty residual of the same kind, witness of the first)
WITNESS_CASES = [
    (
        3 * v.a(1) * v.b(2) ** 2 - v.b(1) * v.b(2) + 2 * v.a(1) * v.b(1),
        z,
        "leading term 2*a1*b1",
    ),
    (
        VectorField(2, (z,), (v.a(1) ** 2 * v.b(1) - v.b(2), v.b(1))),
        VectorField(2, (z,), (z, z)),
        "component 1: leading term -b2",
    ),
    (
        PoissonTensor(2, {(0, 1): z, (1, 2): v.b(1) * v.b(2) + v.a(1) ** 2 / 2}),
        PoissonTensor(2, {}),
        "entry (1,2): leading term 1/2*a1^2",
    ),
    (
        schouten_self(NON_POISSON),
        schouten_self(poisson_tensor(1, 2)),
        "slot (0, 1, 2): leading term a1",
    ),
    (
        ((z, z), (v.a(1) ** 3 - v.a(1) * v.b(2), v.b(1))),
        ((z, z), (z, z)),
        "entry (1,0): leading term -a1*b2",
    ),
]


@pytest.mark.parametrize(
    "residual, empty, expected",
    WITNESS_CASES,
    ids=["polynomial", "vector-field", "poisson-tensor", "three-tensor", "lax-matrix"],
)
def test_witness_is_first_nonzero_slot_leading_term(residual, empty, expected):
    assert _witness(residual) == expected
    assert _witness(empty) is None
    failed = _check("suite", "name", "statement", {}, residual)
    assert (failed.status, failed.witness) == (FAIL, expected)
    passed = _check("suite", "name", "statement", {}, empty)
    assert (passed.status, passed.witness) == (EXACT, None)
