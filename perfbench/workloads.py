"""The four benchmark workloads: seeded inputs, the timed op and its oracle.

Every call into the program goes through the ``todasym`` package namespace
at call time, so the traced run's wrappers (see spans.py) see it.  Inputs
come only from ``random.Random(f"{seed}/{pass}")``: a string seed is hashed
with SHA-512, so the same seed gives the same inputs in every interpreter.

A workload is an object with
  ``inputs(rng, tiny)``  -> list of ops (plain data, built during set-up),
  ``run(op)``            -> the program's output for one op (the timed part),
  ``check(ops, outputs, errors, golden)`` -> one (ok, fingerprint, reason)
                            per op, computed after the pass, untimed.
``tiny`` shrinks the inputs for the self-test; the code path is the same.
"""

from __future__ import annotations

import hashlib
import json
import math

import todasym
from todasym.verify import ALL_SUITES

EPS_VALUES = (1e-3, 5e-4, 2.5e-4)
PROBE_KS = (-1, 0, 1, 2, 3)
PLANTED = "planted"
DRIFT_TOL = 1e-8


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_digest(obj) -> str:
    return sha256_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def count_terms(obj) -> int:
    """Number of polynomial terms in a to_json_obj() tree."""
    if isinstance(obj, dict):
        return 1 if "coeff" in obj else sum(count_terms(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(count_terms(v) for v in obj)
    return 0


class VerifyGrid:
    """One op: run_verify on a single (N, suite) cell, then to_json_str().

    The cells run in the order ``todasym verify --n 2,...,8`` runs them, so
    each op's share of the cache fills, and of the garbage collector's work
    on a growing heap, is the same in every pass.  The seed draws nothing.
    """

    name = "verify-grid"

    def inputs(self, rng, tiny):
        sizes = (2, 3) if tiny else range(2, 9)
        return [(n, suite) for n in sizes for suite in ALL_SUITES]

    def run(self, cell):
        n, suite = cell
        config = todasym.VerifyConfig(ns=(n,), n_max=4, suites=(suite,))
        return todasym.run_verify(config).to_json_str()

    def check(self, cells, outputs, errors, golden):
        table = golden["verify-grid"]
        out = []
        for (n, suite), text, err in zip(cells, outputs, errors):
            if err is not None:
                out.append((False, None, err))
                continue
            digest = sha256_text(text)
            want = table.get(f"N={n}/{suite}")
            ok = digest == want
            out.append((ok, digest, None if ok else f"N={n}/{suite}: digest {digest[:12]} != {str(want)[:12]}"))
        return out


class DeepTower:
    """One op: master_field(k, N), poisson_tensor(k, N) or schouten_self(w_k).

    For each size, each family runs up in k and schouten_self(w_k) follows
    poisson_tensor(k), so every op pays only its own step of the tower.  The
    order is fixed for the same reason as verify-grid's; the seed draws
    nothing.  N=3 adds 17 cheap ops, so that two passes time 100 ops.
    """

    name = "deep-tower"

    def inputs(self, rng, tiny):
        sizes, x_top, w_top = ((3,), 4, 3) if tiny else ((3, 4, 5), 8, 6)
        ops = []
        for n in sizes:
            ops += [("X", k, n) for k in range(3, x_top + 1)]
            ops.append(("S", 1, n))  # w_1 is no op of its own
            for k in range(2, w_top + 1):
                ops += [("w", k, n), ("S", k, n)]
        return ops

    def run(self, op):
        family, k, n = op
        if family == "X":
            return todasym.master_field(k, n)
        if family == "w":
            return todasym.poisson_tensor(k, n)
        return todasym.schouten_self(todasym.poisson_tensor(k, n))

    def check(self, ops, outputs, errors, golden):
        table = golden["deep-tower"]
        out = []
        for (family, k, n), value, err in zip(ops, outputs, errors):
            label = f"{family}_{k}/N={n}"
            if err is not None:
                out.append((False, None, f"{label}: {err}"))
                continue
            if family == "S":
                ok = value.is_zero()
                out.append((ok, "empty" if ok else "nonzero", None if ok else f"{label}: Schouten bracket not empty"))
                continue
            obj = value.to_json_obj()
            got = {"sha256": canonical_digest(obj), "terms": count_terms(obj)}
            ok = got == table.get(label)
            out.append((ok, got["sha256"], None if ok else f"{label}: {got} != {table.get(label)}"))
        return out


class Simulate:
    """One op: integrate(z0, 2.0, 1e-3) then drift_report(stride=10).

    N is log-uniform on [4, 128], drawn as an evenly spaced log grid with a
    random offset, so every pass covers the range the same way and the
    seed moves only the exact sizes and the initial points.
    """

    name = "simulate"
    ops_per_pass = 36

    def inputs(self, rng, tiny):
        count, top = (4, 8) if tiny else (self.ops_per_pass, 128)
        lo, hi = math.log(4), math.log(top)
        offset = rng.random()
        ops = []
        for slot in range(count):
            n = round(math.exp(lo + (slot + offset) / count * (hi - lo)))
            a = tuple(rng.uniform(0.1, 0.6) for _ in range(n - 1))
            b = tuple(rng.uniform(-0.5, 0.5) for _ in range(n))
            ops.append(todasym.PhasePoint(a, b))
        rng.shuffle(ops)
        return ops

    def run(self, z0):
        traj = todasym.integrate(z0, 2.0, 1e-3)
        return todasym.drift_report(traj, m_max=min(z0.n, 8), stride=10)

    def check(self, ops, outputs, errors, golden):
        out = []
        for z0, rep, err in zip(ops, outputs, errors):
            if err is not None:
                out.append((False, None, f"N={z0.n}: {err}"))
                continue
            worst = max(rep.eigenvalue_drift, rep.max_h_drift())
            ok = worst < DRIFT_TOL
            out.append((ok, repr(worst), None if ok else f"N={z0.n}: drift {worst:.3e}"))
        return out


class Probe:
    """One op: symmetry_map_test(candidate, z0, eps).

    Six z0 per pass, at N = 3, 4, 5, 6, 4, 5; per z0 the candidates
    Y_-1..Y_3 and a planted non-symmetry (psi = b_1 e_1), each at three eps:
    108 ops, which one pass of about 20 s times.  A group
    (z0, candidate) passes by criterion 7's rule and its verdict applies to
    each of its three ops.
    """

    name = "probe"

    def inputs(self, rng, tiny):
        sizes = (3,) if tiny else (3, 4, 5, 6, 4, 5)
        ks = (-1, 1) if tiny else PROBE_KS
        ops = []
        for z_index, n in enumerate(sizes):
            a = tuple(rng.uniform(0.2, 0.5) for _ in range(n - 1))
            b = tuple(rng.uniform(-0.4, 0.4) for _ in range(n))
            z0 = todasym.PhasePoint(a, b)
            v = todasym.Vars(n)
            planted = todasym.SymmetryCandidate(
                n, v.zero, (v.zero,) * (n - 1), (v.b(1),) + (v.zero,) * (n - 1)
            )
            for cand in ks + (PLANTED,):
                for eps in EPS_VALUES:
                    ops.append((z_index, z0, cand, planted, eps))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        _, z0, cand, planted, eps = op
        field = planted if cand == PLANTED else todasym.build_Y(cand, z0.n)
        return todasym.symmetry_map_test(field, z0, eps).defect

    def check(self, ops, outputs, errors, golden):
        groups: dict[tuple, dict[float, float]] = {}
        failed_groups = {}
        for (z_index, z0, cand, _, eps), defect, err in zip(ops, outputs, errors):
            key = (z_index, cand)
            if err is not None:
                failed_groups[key] = err
            else:
                groups.setdefault(key, {})[eps] = defect
        for key, by_eps in groups.items():
            if key in failed_groups:
                continue
            defects = [by_eps[eps] for eps in EPS_VALUES]
            if key[1] == PLANTED:
                ratios = [d1 / d2 if d2 else math.inf for d1, d2 in zip(defects, defects[1:])]
                if not all(1.8 < r < 2.2 for r in ratios):
                    failed_groups[key] = f"planted defect ratios {ratios}"
            else:
                slopes = [d / e for d, e in zip(defects, EPS_VALUES)]
                quadratic = all(s2 < 0.7 * s1 for s1, s2 in zip(slopes, slopes[1:]))
                if not (quadratic or defects[0] < 1e-10):
                    failed_groups[key] = f"Y_{key[1]} slopes {slopes}"
        out = []
        for (z_index, z0, cand, _, eps), defect in zip(ops, outputs):
            reason = failed_groups.get((z_index, cand))
            label = f"z{z_index}/N={z0.n}/{cand}/eps={eps}"
            out.append((reason is None, repr(defect), None if reason is None else f"{label}: {reason}"))
        return out


WORKLOADS = {w.name: w for w in (VerifyGrid(), DeepTower(), Simulate(), Probe())}
