"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/selftest.py -q

Named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def tiny_pass(name, seed=3, golden=GOLDEN, extra_ops=()):
    w = workloads.WORKLOADS[name]
    ops = w.inputs(random.Random(f"{seed}/0"), tiny=True) + list(extra_ops)
    return ops, worker.run_pass(w, ops, golden)


def fail_frac(result):
    return sum(not ok for ok in result["ok"]) / len(result["ok"])


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][1] == "perfbench/run.py"
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    name_re, unit_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"), re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = NAMES + [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # with --trace 1 this also checks that traced outputs equal untraced ones
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name, key", [("verify-grid", "N=2/theorem"), ("deep-tower", "X_4/N=3")])
def test_planted_wrong_digest_is_a_failed_op(name, key):
    _, clean = tiny_pass(name)
    assert fail_frac(clean) == 0
    golden = copy.deepcopy(GOLDEN)
    planted = golden[name][key]
    golden[name][key] = {**planted, "sha256": "0" * 64} if isinstance(planted, dict) else "0" * 64
    _, result = tiny_pass(name, golden=golden)
    assert fail_frac(result) == 1 / len(result["ok"])


def test_planted_failing_op_is_counted():
    # couplings of 1e3 make dt = 1e-3 far too coarse: the integrator aborts
    stiff = workloads.todasym.PhasePoint((1e3,) * 3, (0.0,) * 4)
    _, result = tiny_pass("simulate", extra_ops=[stiff])
    assert result["ok"][-1] is False and fail_frac(result) > 0
    assert all(result["ok"][:-1])


def test_planted_symmetry_that_is_not_one_is_counted():
    # the planted non-symmetry under a Y label must fail the quadratic rule
    ops, _ = tiny_pass("probe")
    z_index, z0, _, planted, _ = ops[0]

    class Mislabelled(workloads.Probe):
        def run(self, op):
            return workloads.todasym.symmetry_map_test(op[3], op[1], op[4]).defect

    w = Mislabelled()
    group = [(z_index, z0, 1, planted, eps) for eps in workloads.EPS_VALUES]
    result = worker.run_pass(w, group, GOLDEN)
    assert not any(result["ok"])


def test_seed_moves_numeric_inputs_and_keeps_symbolic_digests():
    for name in ("simulate", "probe"):
        w = workloads.WORKLOADS[name]
        first = repr(w.inputs(random.Random("1/0"), tiny=True))
        assert first == repr(w.inputs(random.Random("1/0"), tiny=True))
        assert first != repr(w.inputs(random.Random("2/0"), tiny=True))
    for name in ("verify-grid", "deep-tower"):
        digests = []
        for seed in (1, 2):
            ops, result = tiny_pass(name, seed=seed)
            digests.append(dict(zip(map(repr, ops), result["fingerprints"])))
        assert digests[0] == digests[1]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
