"""Batch identity verification with machine-readable reports.

Each check is a pure function of its parameters and reports one record:
the identity being tested (as a formula string), the parameters it was
instantiated with, a status and, on failure, a witness term.  Checks are
independent of each other; the runner executes them in a fixed order so
that identical configurations produce byte-identical JSON reports.

Statuses: "exact-pass" for an identity holding term by term,
"pass-mod-equivalence" when equality holds only up to a multiple of a
ladder field chi_l (the rational multiple k is recorded), "fail" otherwise.

A suite is a generator ``suite(n, n_max)``: at one lattice size n it
yields, per check, ``(name, statement, params, residual)``, and the
equivalence suite adds the multiple k it certified.  The runner owns the
rest: it runs the chosen suites in ``SUITES`` order over the sorted sizes,
puts N first in each check's params, names the suite, and builds every
record through ``_check``, the one rule.  An identity passes exactly when
its residual (left side minus right side, a polynomial, field, tensor or
matrix) is empty, and the witness of a failure is the residual's first
nonzero slot with that slot's leading term.  A pass with a certified k
other than 0 is a pass modulo equivalence, and a failure reports no k.
The theorem suite is the one special case of the witness: its residual is
the ``TheoremCase`` of each Y_k, whose witness is the whole first nonzero
determining residual, named gamma_j or delta_j.

``n_max`` is the one depth of every suite; ``n_max = 4`` is the default
grid:

    transcription       no depth (n_max is ignored)
    hamiltonian-ladder  X_k(H_m), 0 <= k <= n_max, 1 <= m <= n_max;
                        X_{-1}(H_m), 2 <= m <= n_max + 1; X_{-1}(H_1)
    theorem             Y_k, -1 <= k <= n_max - 1
    chi-brackets        [X_k, chi_l], 0 <= k <= n_max - 1, 1 <= l <= n_max
    poisson             Schouten and involution for w_1..w_{n_max-1}
                        (1 <= m <= l <= n_max); the ladder for
                        2 <= k <= n_max - 1, 1 <= l <= n_max - 1; the
                        scaling corners L_{X_0} w_1 and L_{X_2} w_1.
                        Each field w_k . grad H_l is built once per N
    equivalence         [X_i, X_j], 0 <= i, j <= n_max - 1; computed for
                        i < j only; the mirrored rows i > j and the
                        diagonal i = j follow from antisymmetry
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import VectorField
from .hierarchy import (
    chi,
    chi_ladder,
    equivalent_mod_chi,
    master_field,
    poisson_tensor,
)
from .lattice import flow_residuals, hamiltonian, matmul_symbolic, symbolic_lax, symbolic_lax_b
from .poisson import (
    PoissonTensor,
    ThreeTensor,
    hamiltonian_field,
    lie_derivative,
    schouten_self,
)
from .ratpoly import Polynomial, Vars
from .symmetry import TheoremCase, verify_theorem

EXACT = "exact-pass"
MOD_EQUIV = "pass-mod-equivalence"
FAIL = "fail"


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    statement: str
    params: dict
    status: str
    witness: str | None = None
    k: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "name": self.name,
            "statement": self.statement,
            "params": self.params,
            "status": self.status,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.k is not None:
            obj["k"] = self.k
        return obj


def _check(suite: str, name: str, statement: str, params: dict, residual, k=None) -> CheckResult:
    """The record of an exact identity: it passes iff its residual is empty.

    k is the multiple of chi_l an equivalence check certified: a pass with
    k != 0 is a pass modulo equivalence, and a failure reports no k.
    """
    witness = _witness(residual)
    if witness is not None:
        return CheckResult(suite, name, statement, params, FAIL, witness)
    return CheckResult(
        suite, name, statement, params, MOD_EQUIV if k else EXACT, k=None if k is None else str(k)
    )


def _witness(residual) -> str | None:
    """The first nonzero slot of a residual and its leading term; None if empty.

    The theorem suite's residual is a TheoremCase, which carries its witness:
    the whole first nonzero determining residual gamma_j or delta_j.
    """
    if isinstance(residual, TheoremCase):
        return residual.witness
    for label, poly in _slots(residual):
        if poly:
            mono, coeff = poly.sorted_terms()[0]
            return f"{label}leading term {Polynomial(poly.n, {mono: coeff})}"
    return None


def _slots(residual):
    """(label, polynomial) for the slots of a residual, in report order.

    A residual is a Polynomial, VectorField, PoissonTensor, ThreeTensor or
    a symbolic matrix, whose rows are {column: polynomial} mappings read
    in column order.
    """
    if isinstance(residual, Polynomial):
        yield "", residual
    elif isinstance(residual, VectorField):
        for idx, comp in enumerate(residual.components()):
            yield f"component {idx}: ", comp
    elif isinstance(residual, PoissonTensor):
        for (i, j), entry in residual.upper.items():
            yield f"entry ({i},{j}): ", entry
    elif isinstance(residual, ThreeTensor):
        for triple, entry in residual.entries.items():
            yield f"slot {triple}: ", entry
    else:
        for i, row in enumerate(residual):
            for j, entry in row.items():
                yield f"entry ({i},{j}): ", entry


# ---------------------------------------------------------------------------
# individual suites: each yields (name, statement, params, residual[, k]) at one N
# ---------------------------------------------------------------------------


def _flow_defect(field: VectorField) -> VectorField:
    """field minus the Toda flow, componentwise, from flow_residuals' transcription."""
    v = Vars(field.n)
    a, b = [v.a(i) for i in range(1, field.n)], [v.b(i) for i in range(1, field.n + 1)]
    return VectorField.from_components(field.n, flow_residuals(a, b, field.a, field.b))


def suite_transcription(n: int, n_max: int):
    """Fixed-point checks on the explicit low-order objects."""
    flow, lax, lax_b = chi(2, n), symbolic_lax(n), symbolic_lax_b(n)
    zero = Polynomial.zero(n)
    residual = []
    for i, (bl, lb) in enumerate(zip(matmul_symbolic(lax_b, lax), matmul_symbolic(lax, lax_b))):
        # dL/dt on L's band: the flow's b-components on the diagonal, a-components beside it
        dl = {j: flow.b[i] if i == j else flow.a[min(i, j)] for j in lax[i]}
        cols = sorted({*bl, *lb, *dl})
        residual.append({j: bl.get(j, zero) - lb.get(j, zero) - dl.get(j, zero) for j in cols})
    yield (
        "lax-commutator",
        "[B, L] assembles the flow: diagonal 2(a_i^2-a_{i-1}^2), off-diagonal a_i(b_{i+1}-b_i)",
        {},
        residual,
    )
    yield "chi2-is-flow", "w_1 . grad H_2 equals the Toda right-hand side", {}, _flow_defect(flow)
    yield "H1-casimir", "w_1 . grad H_1 = 0", {}, chi(1, n)


def suite_hamiltonian_ladder(n: int, n_max: int):
    """X_k(H_m) = (k+m) H_{k+m}, plus the lowering field X_{-1}."""
    for k in range(0, n_max + 1):
        x = master_field(k, n)
        for m in range(1, n_max + 1):
            residual = x.apply(hamiltonian(m, n)) - hamiltonian(k + m, n).scale(k + m)
            yield f"X{k}(H{m})", "X_k(H_m) = (k+m) H_{k+m}", {"k": k, "m": m}, residual
    lower = master_field(-1, n)
    for m in range(2, n_max + 2):
        residual = lower.apply(hamiltonian(m, n)) - hamiltonian(m - 1, n).scale(m - 1)
        yield f"X-1(H{m})", "X_{-1}(H_m) = (m-1) H_{m-1}", {"m": m}, residual
    # the m = 1 edge: X_{-1}(H_1) is the constant N, reported as its own fact
    yield (
        "X-1(H1)",
        "X_{-1}(H_1) = N (the ladder bottoms out at a constant)",
        {},
        lower.apply(hamiltonian(1, n)) - Polynomial.const(n, n),
    )


def suite_theorem(n: int, n_max: int):
    statement = (
        "Y_k = X_k + t chi_{k+2} solves the determining equations and dY/dt + [chi_2, Y] = 0"
    )
    for case in verify_theorem(n_max - 1, n):
        yield f"Y{case.k}", statement, {"k": case.k}, case


def suite_chi_brackets(n: int, n_max: int):
    for k in range(0, n_max):
        for l in range(1, n_max + 1):
            residual = master_field(k, n).bracket(chi(l, n)) - chi(k + l, n).scale(l - 1)
            yield f"[X{k},chi{l}]", "[X_k, chi_l] = (l-1) chi_{k+l}", {"k": k, "l": l}, residual


def suite_poisson(n: int, n_max: int):
    """Jacobi certificates, involution, the chi ladder and tensor scaling."""
    tensors = range(1, n_max)
    for k in tensors:
        statement = "[w_k, w_k] = 0 (Jacobi identity)"
        yield f"schouten-w{k}", statement, {"k": k}, schouten_self(poisson_tensor(k, n))
    # w_k . grad H_l, built once: the involution and ladder checks only read it
    fields = {(k, l): chi_ladder(l, k, n) for k in tensors for l in range(1, n_max + 1)}
    for k in tensors:
        for m in range(1, n_max + 1):
            for l in range(m, n_max + 1):
                # {H_m, H_l} = (w_k . grad H_l)(H_m)
                params = {"k": k, "m": m, "l": l}
                residual = fields[k, l].apply(hamiltonian(m, n))
                yield f"involution-w{k}-H{m}-H{l}", "{H_m, H_l} = 0 under w_k", params, residual
    for k in range(2, n_max):
        for l in range(1, n_max):
            residual = fields[k, l] - fields[k - 1, l + 1]
            statement = "w_k . grad H_l = w_{k-1} . grad H_{l+1}"
            yield f"ladder-w{k}-H{l}", statement, {"k": k, "l": l}, residual
    # L_{X_k} w_m = (m-k-2) w_{k+m} at two fixed corners, the same at every
    # n_max: (k, m) = (1, 1) and (1, 2) define w_2 and w_3, so the informative
    # cases are the Euler scaling (0, 1) and the off-construction pair (2, 1)
    w1 = poisson_tensor(1, n)
    euler = lie_derivative(master_field(0, n), w1) - w1.scale(-1)
    yield "scaling-X0-w1", "L_{X_0} w_1 = -w_1 (linear entries, Euler grading)", {}, euler
    off = lie_derivative(master_field(2, n), w1) - poisson_tensor(3, n).scale(-3)
    yield "scaling-X2-w1", "L_{X_2} w_1 = -3 w_3", {}, off


def suite_equivalence(n: int, n_max: int):
    """[X_i, X_j] - (j-i) X_{i+j} = k chi_{i+j+1}; each k is reported.

    Only the pairs i < j are computed.  The bracket is exactly antisymmetric
    over Q, so the other rows are derived: the residual of (j, i) is the
    negated residual of (i, j), which gives the mirror -k, or a failure with
    the witness of the negated residual; the diagonal [X_i, X_i] = 0 =
    0 * X_{2i} is an exact pass with k = 0.  A certified k comes with the
    empty residual.
    """
    empty = Polynomial.zero(n)
    # (i, j) -> (residual, k); k is None exactly when the pair fails
    rows = {}
    for i in range(0, n_max):
        rows[i, i] = empty, Fraction(0)
        for j in range(i + 1, n_max):
            bracket = master_field(i, n).bracket(master_field(j, n))
            target = master_field(i + j, n).scale(j - i)
            k = equivalent_mod_chi(bracket, target, i + j + 1)
            if k is None:
                residual = bracket - target
                rows[i, j], rows[j, i] = (residual, None), (-residual, None)
            else:
                rows[i, j], rows[j, i] = (empty, k), (empty, -k)
    statement = "[X_i, X_j] = (j-i) X_{i+j} + k chi_{i+j+1} for some rational k"
    for i in range(0, n_max):
        for j in range(0, n_max):
            yield f"[X{i},X{j}]", statement, {"i": i, "j": j}, *rows[i, j]


# suite name -> suite(n, n_max), in report order
SUITES = {
    "transcription": suite_transcription,
    "hamiltonian-ladder": suite_hamiltonian_ladder,
    "theorem": suite_theorem,
    "chi-brackets": suite_chi_brackets,
    "poisson": suite_poisson,
    "equivalence": suite_equivalence,
}
ALL_SUITES = tuple(SUITES)


@dataclass(frozen=True)
class VerifyConfig:
    ns: tuple[int, ...] = (2, 3, 4)
    n_max: int = 4
    suites: tuple[str, ...] = ALL_SUITES

    def __post_init__(self):
        if not self.ns or min(self.ns) < 2:
            raise ValueError("lattice sizes must all be >= 2")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.suites:
            raise ValueError("suite list is empty")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        for what, values in (("lattice sizes", self.ns), ("suites", self.suites)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"repeated {what}: {repeated}")


@dataclass
class Report:
    config: VerifyConfig
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def to_json_str(self) -> str:
        obj = {
            "config": {
                "N": list(self.config.ns),
                "n_max": self.config.n_max,
                "suites": list(self.config.suites),
            },
            "ok": self.ok,
            "counts": {
                "total": len(self.results),
                "failed": len(self.failures()),
            },
            "checks": [r.to_json_obj() for r in self.results],
        }
        return json.dumps(obj, indent=2)

    def to_table(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.results), default=4)
        for r in self.results:
            params = ", ".join(f"{k}={v}" for k, v in r.params.items())
            status = {EXACT: "PASS", MOD_EQUIV: "PASS*", FAIL: "FAIL"}[r.status]
            extra = f"  k={r.k}" if r.k is not None else ""
            witness = f"  [{r.witness}]" if r.witness and r.status == FAIL else ""
            lines.append(f"{status:5s} {r.name:<{width}s}  ({params}){extra}{witness}")
        failed = len(self.failures())
        lines.append(
            f"{len(self.results)} checks, {len(self.results) - failed} passed, {failed} failed"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# runner and mutation smoke test
# ---------------------------------------------------------------------------


def run_verify(config: VerifyConfig) -> Report:
    report = Report(config)
    for suite_name, suite in SUITES.items():
        if suite_name in config.suites:
            for n in sorted(config.ns):
                for name, statement, params, *outcome in suite(n, config.n_max):
                    params = {"N": n, **params}
                    report.results.append(_check(suite_name, name, statement, params, *outcome))
    return report


def _mutate_polynomial(poly: Polynomial, mono) -> Polynomial:
    """Bump one coefficient by +1 (a corrupted copy for smoke testing)."""
    terms = dict(poly.terms)
    terms[mono] = terms.get(mono, Fraction(0)) + 1
    return Polynomial(poly.n, terms)


def _ladder_checks_pass(x1: VectorField) -> bool:
    """The cheap ladder identities a corrupted X_1 must break."""
    n = x1.n
    if x1.apply(hamiltonian(1, n)) != hamiltonian(2, n).scale(2):
        return False
    if x1.apply(hamiltonian(2, n)) != hamiltonian(3, n).scale(3):
        return False
    return x1.bracket(chi(2, n)) == chi(3, n)


def _w1_checks_pass(w1: PoissonTensor) -> bool:
    """The cheap structure identities a corrupted w_1 must break."""
    n = w1.n
    if not _flow_defect(hamiltonian_field(w1, hamiltonian(2, n))).is_zero():
        return False
    if not hamiltonian_field(w1, hamiltonian(1, n)).is_zero():
        return False
    if not schouten_self(w1).is_zero():
        return False
    derived = lie_derivative(master_field(1, n), w1) / (-2)
    ladder = hamiltonian_field(derived, hamiltonian(1, n)) - hamiltonian_field(
        w1, hamiltonian(2, n)
    )
    return ladder.is_zero()


def mutation_smoke(n: int) -> list[tuple[str, bool]]:
    """Corrupt single coefficients of X_1 and w_1, one at a time.

    Every corruption must trip at least one ladder, bracket or Poisson
    identity, proving those checks are not vacuously green.  Returns
    (label, caught) pairs; caught must always be True.
    """
    results = []
    x1 = master_field(1, n)
    comps = list(x1.components())
    for idx, comp in enumerate(comps):
        for mono in sorted(comp.terms):
            corrupted = list(comps)
            corrupted[idx] = _mutate_polynomial(comp, mono)
            mutant = VectorField.from_components(n, corrupted)
            label = f"X1 component {idx} term {Polynomial(n, {mono: comp.terms[mono]})}"
            results.append((label, not _ladder_checks_pass(mutant)))
    w1 = poisson_tensor(1, n)
    for (i, j), entry in w1.upper.items():
        for mono in sorted(entry.terms):
            entries = dict(w1.upper)
            entries[(i, j)] = _mutate_polynomial(entry, mono)
            mutant_w = PoissonTensor(n, entries)
            label = f"w1 entry ({i},{j}) term {Polynomial(n, {mono: entry.terms[mono]})}"
            results.append((label, not _w1_checks_pass(mutant_w)))
    return results
