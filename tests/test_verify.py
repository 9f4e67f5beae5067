"""The one pass/fail rule of the verify suites, its witnesses, the depth n_max, and the rows and builds the suites derive rather than repeat."""

from fractions import Fraction

import pytest

from todasym.fields import VectorField
from todasym.hierarchy import master_field, poisson_tensor
from todasym.lattice import hamiltonian
from todasym.poisson import PoissonTensor, hamiltonian_field, schouten_self
from todasym.ratpoly import Polynomial, Vars
from todasym import hierarchy, poisson, verify
from todasym.verify import EXACT, FAIL, MOD_EQUIV, VerifyConfig, _check, _witness, run_verify

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
        ({0: z, 1: z}, {0: v.a(1) ** 3 - v.a(1) * v.b(2), 1: v.b(1)}),
        ({0: z, 1: z}, {0: z, 1: z}),
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


@pytest.mark.parametrize(
    "residual, k, expected",
    [
        (z, Fraction(0), (EXACT, None, "0")),
        (z, Fraction(1, 2), (MOD_EQUIV, None, "1/2")),
        (v.a(1) - v.b(2), Fraction(1, 2), (FAIL, "leading term a1", None)),
    ],
    ids=["k-zero", "k-half", "failure-drops-k"],
)
def test_check_reports_the_equivalence_multiple(residual, k, expected):
    result = _check("suite", "name", "statement", {}, residual, k)
    assert (result.status, result.witness, result.k) == expected


def suite_records(suite, ns, n_max):
    """One suite's records over the sizes ns, as run_verify reports them."""
    return run_verify(VerifyConfig(ns=tuple(ns), n_max=n_max, suites=(suite,))).results


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


def test_transcription_suite_catches_a_bumped_chi2(monkeypatch):
    # one bumped coefficient of chi_2 at N=3, seen only through verify's own
    # lookups: flow_residuals and [B, L] must both notice it
    real = verify.chi
    comps = list(real(2, 3).components())
    comps[0] = verify._mutate_polynomial(comps[0], sorted(comps[0].terms)[0])
    bad_chi2 = VectorField.from_components(3, comps)
    monkeypatch.setattr(verify, "chi", lambda l, n: bad_chi2 if (l, n) == (2, 3) else real(l, n))

    results = {r.name: r for r in suite_records("transcription", (3,), 4)}
    assert [name for name, r in results.items() if not r.ok] == ["lax-commutator", "chi2-is-flow"]
    assert results["H1-casimir"].status == EXACT
    # a1*b2 - a1*b1 became 2*a1*b2 - a1*b1: the defect is the bumped term
    assert results["chi2-is-flow"].witness == "component 0: leading term a1*b2"
    assert results["lax-commutator"].witness == "entry (0,1): leading term -a1*b2"


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
    # verify reads w_k . grad H_l through chi_ladder: build it from verify's tensor lookup
    monkeypatch.setattr(
        verify,
        "chi_ladder",
        lambda l, k, m: hamiltonian_field(verify.poisson_tensor(k, m), hamiltonian(l, m)),
    )
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


# -- the equivalence suite derives its mirrored and diagonal rows ------------------


def full_equivalence(ns, n_max):
    """The equivalence suite computed in full: every (i, j), with no row derived."""
    out = []
    for n in ns:
        for i in range(n_max):
            for j in range(n_max):
                bracket = verify.master_field(i, n).bracket(verify.master_field(j, n))
                target = verify.master_field(i + j, n).scale(j - i)
                k = verify.equivalent_mod_chi(bracket, target, i + j + 1)
                if k is None:
                    status, witness = FAIL, _witness(bracket - target)
                else:
                    status, witness = (EXACT if k == 0 else verify.MOD_EQUIV), None
                out.append(
                    verify.CheckResult(
                        "equivalence",
                        f"[X{i},X{j}]",
                        "[X_i, X_j] = (j-i) X_{i+j} + k chi_{i+j+1} for some rational k",
                        {"N": n, "i": i, "j": j},
                        status,
                        witness,
                        k=None if k is None else str(k),
                    )
                )
    return out


@pytest.mark.parametrize(
    "ns, n_max", [((2, 3, 4, 5), 4), ((2, 3), 6)], ids=["n2to5-nmax4", "n2to3-nmax6"]
)
def test_equivalence_matches_the_full_computation(ns, n_max):
    assert suite_records("equivalence", ns, n_max) == full_equivalence(ns, n_max)


def _plant_x3(monkeypatch, bad_x3):
    real = verify.master_field
    monkeypatch.setattr(verify, "master_field", lambda k, n: bad_x3 if (k, n) == (3, 3) else real(k, n))


def test_equivalence_mirrors_a_planted_nonzero_k(monkeypatch):
    # X_3 + chi_4 / 2 at N=3: [X1,X2] - X_3' = -chi_4 / 2, and the mirror flips k
    _plant_x3(monkeypatch, master_field(3, 3) + verify.chi(4, 3).scale(Fraction(1, 2)))
    results = suite_records("equivalence", (3,), 4)
    assert results == full_equivalence((3,), 4)
    rows = {r.name: r for r in results}
    assert (rows["[X1,X2]"].status, rows["[X1,X2]"].k) == (verify.MOD_EQUIV, "-1/2")
    assert (rows["[X2,X1]"].status, rows["[X2,X1]"].k) == (verify.MOD_EQUIV, "1/2")
    assert (rows["[X3,X3]"].status, rows["[X3,X3]"].k) == (EXACT, "0")


def test_equivalence_mirrors_a_planted_failure(monkeypatch):
    comps = list(master_field(3, 3).components())
    comps[0] = verify._mutate_polynomial(comps[0], sorted(comps[0].terms)[0])
    _plant_x3(monkeypatch, VectorField.from_components(3, comps))
    results = suite_records("equivalence", (3,), 4)
    assert results == full_equivalence((3,), 4)
    failed = {(r.params["i"], r.params["j"]) for r in results if not r.ok}
    assert failed and failed == {(j, i) for i, j in failed}
    assert all(i != j for i, j in failed)


# -- work counts: each independent exact object is built once ----------------------


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


def test_equivalence_brackets_only_i_below_j(monkeypatch):
    # warm the master fields the suite reads, so only the suite's own brackets count
    for k in range(6):
        master_field(k, 3)
    brackets, lookups = [], []
    _counting(monkeypatch, VectorField, "bracket", brackets)
    _counting(monkeypatch, verify, "master_field", lookups)
    list(verify.suite_equivalence(3, 4))
    assert len(brackets) == 6
    assert (6, 3) not in lookups


def test_poisson_builds_each_hamiltonian_field_once(monkeypatch):
    calls = []
    for owner in (poisson, verify, hierarchy):
        _counting(monkeypatch, owner, "hamiltonian_field", calls)
    list(verify.suite_poisson(3, 4))
    assert len(calls) == 12
