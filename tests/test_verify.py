"""The one pass/fail rule of the verify suites, its witnesses and the depth n_max."""

import pytest

from todasym.fields import VectorField
from todasym.hierarchy import master_field, poisson_tensor
from todasym.poisson import PoissonTensor, schouten_self
from todasym.ratpoly import Polynomial, Vars
from todasym import verify
from todasym.verify import EXACT, FAIL, VerifyConfig, _check, _witness, run_verify

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


def test_n_max_is_the_depth_of_chi_brackets_and_equivalence(monkeypatch):
    # one bumped coefficient of X_2 at N=3, seen only through verify's own lookups
    real = verify.master_field
    comps = list(real(2, 3).components())
    comps[0] = verify._mutate_polynomial(comps[0], sorted(comps[0].terms)[0])
    bad_x2 = VectorField.from_components(3, comps)
    monkeypatch.setattr(verify, "master_field", lambda k, n: bad_x2 if (k, n) == (2, 3) else real(k, n))

    def failures(n_max):
        config = VerifyConfig(ns=(3,), n_max=n_max, suites=("chi-brackets", "equivalence"))
        return [(r.suite, r.name) for r in run_verify(config).failures()]

    # [X2,chi1] holds anyway (chi_1 = 0); [X0,X2] and [X2,X0] only see the grading
    assert failures(4) == [
        ("chi-brackets", "[X2,chi2]"),
        ("chi-brackets", "[X2,chi3]"),
        ("chi-brackets", "[X2,chi4]"),
        ("equivalence", "[X1,X2]"),
        ("equivalence", "[X2,X1]"),
        ("equivalence", "[X2,X3]"),
        ("equivalence", "[X3,X2]"),
    ]
    # at n_max 2 both suites stop at X_1: X_2 only enters as 0 * X_2 in [X1,X1]
    assert failures(2) == []


def x2_mutants(n):
    """X_2 at size n with one coefficient bumped, one mutant per term."""
    comps = list(master_field(2, n).components())
    for idx, comp in enumerate(comps):
        for mono in sorted(comp.terms):
            corrupted = list(comps)
            corrupted[idx] = verify._mutate_polynomial(comp, mono)
            term = Polynomial(n, {mono: comp.terms[mono]})
            yield f"component {idx} term {term}", VectorField.from_components(n, corrupted)


def w2_mutants(n):
    """w_2 at size n with one coefficient bumped, one mutant per term."""
    upper = poisson_tensor(2, n).upper
    for slot, entry in upper.items():
        for mono in sorted(entry.terms):
            corrupted = {**upper, slot: verify._mutate_polynomial(entry, mono)}
            term = Polynomial(n, {mono: entry.terms[mono]})
            yield f"entry {slot} term {term}", PoissonTensor(n, corrupted)


@pytest.mark.parametrize(
    "lookup, mutants, count",
    [("master_field", x2_mutants, 22), ("poisson_tensor", w2_mutants, 7)],
    ids=["X2", "w2"],
)
def test_default_grid_catches_every_x2_and_w2_coefficient(monkeypatch, lookup, mutants, count):
    # each mutant is seen only through verify's own lookups of (2, 3), as in
    # the n_max test above; every suite runs at the default depth n_max 4
    n = 3
    real = getattr(verify, lookup)
    config = VerifyConfig(ns=(n,), n_max=4, suites=verify.ALL_SUITES)
    seen, escaped = 0, []
    for label, bad in mutants(n):
        seen += 1
        monkeypatch.setattr(
            verify, lookup, lambda k, m, bad=bad: bad if (k, m) == (2, n) else real(k, m)
        )
        if not run_verify(config).failures():
            escaped.append(label)
    assert seen == count
    assert escaped == []
