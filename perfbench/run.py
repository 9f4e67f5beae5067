"""todasym benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/todasym``.  Each pass of a
workload runs in a fresh worker interpreter (perfbench/worker.py), one at a
time: a closed loop with a single client, one thread, BLAS pinned to one
thread, and cold lru_caches every pass, as every ``todasym`` CLI call has.

--trace 0 measures the end-to-end metrics.  A run makes as many passes as
fit in S seconds at nominal speed (see speed.py), and at least enough to
time MIN_OPS ops; the first pass fixes the count.  Set-up is
timed in every pass, and in set-up-only workers up to MIN_SETUPS samples.
Times are reported at the nominal speed of speed.py, with the raw times
beside them in the table.  --trace 1 alternates an untraced and a traced
pass on the same inputs and reports the per-layer metrics of the traced
passes (see spans.py) plus the tracing overhead.

Every op's output is checked (see workloads.py).  The last line of stdout is
one JSON object: correct, attempted, failed and metrics, with the units of
BENCHMARK.json.  A failed op counts in ``failed``; a worker that crashes
ends the run with a non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-grid", "deep-tower", "simulate", "probe")
MIN_OPS = 100  # op_ms_p90 needs ten samples beyond it
MIN_SETUPS = 3  # setup_s is a median of at least this many worker starts
RUN_LIMIT_S = 165.0  # the whole run ends well inside 180 s
ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src"),
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, pass_index, deadline, *flags):
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(pass_index), *flags]  # fmt: skip
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=ENV, capture_output=True,
            text=True, timeout=max(deadline - t0, 1.0),
        )  # fmt: skip
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} pass {pass_index} ran past the run limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload} pass {pass_index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Harrell-Davis estimate: a beta-weighted mean of all order statistics.

    Op costs come in clusters (one per kind of op), so a plain order
    statistic jumps between clusters when two neighbours swap ranks; this
    estimate moves smoothly instead.
    """
    x = np.sort(values)
    n = len(x)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def wanted(nominal_s, per_run, seconds):
    """Passes (or pairs) per run: as many as fit in seconds at nominal speed.

    The count follows the nominal time, not the host's speed at the moment,
    so a run of the same code always makes the same number of passes.
    """
    return max(per_run, math.floor(seconds / max(nominal_s, 1e-9)))


def timed_run(args, deadline, flags):
    start = time.monotonic()
    passes = [spawn(args.workload, args.seed, 0, deadline, *flags)]
    per_pass = time.monotonic() - start
    min_passes = math.ceil((1 if args.tiny else MIN_OPS) / len(passes[0]["op_s"]))
    count = wanted(sum(passes[0]["op_nominal_s"]), min_passes, args.seconds)
    while len(passes) < count and time.monotonic() + 1.5 * per_pass < deadline:
        passes.append(spawn(args.workload, args.seed, len(passes), deadline, *flags))
    setups = passes[:]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args.workload, args.seed, 0, deadline, "--setup-only", *flags))

    def summary(op_key, setup_key):
        op_ms = [t * 1e3 for p in passes for t in p[op_key]]
        return {
            "setup_s": statistics.median(s[setup_key] for s in setups),
            "wall_s": statistics.median(sum(p[op_key]) for p in passes),
            "op_ms_p50": quantile(op_ms, 0.5),
            "op_ms_p90": quantile(op_ms, 0.9),
        }

    values = summary("op_nominal_s", "setup_nominal_s")
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    op_count = sum(len(p["op_s"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["ok"])
    reasons = [r for p in passes for r in p["reasons"]]
    ref_ms = statistics.median(r for p in passes for r in p["ref_s"]) * 1e3
    counts = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "op_ms_p50": f"over {op_count} ops",
        "op_ms_p90": f"over {op_count} ops",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    for name, value in summary("op_s", "setup_s").items():
        counts[name] += f"; raw {value:.6g}"
    counts["wall_s"] += f"; reference sample {ref_ms:.3g} ms, nominal {speed.NOMINAL_S * 1e3:g} ms"
    return values, counts, op_count, failed, reasons


def traced_run(args, deadline, flags):
    pairs = []
    start = time.monotonic()
    count = 1
    while len(pairs) < count:
        plain = spawn(args.workload, args.seed, len(pairs), deadline, *flags)
        traced = spawn(args.workload, args.seed, len(pairs), deadline, "--trace", *flags)
        pairs.append((plain, traced))
        per_pair = (time.monotonic() - start) / len(pairs)
        if len(pairs) == 1:
            count = wanted(sum(plain["op_nominal_s"]) + sum(traced["op_nominal_s"]), 1, args.seconds)
        if time.monotonic() + 1.5 * per_pair > deadline:
            break
    attempted = failed = 0
    reasons = []
    for plain, traced in pairs:
        attempted += len(plain["ok"]) + len(traced["ok"])
        failed += sum(not ok for ok in plain["ok"])
        for i, ok in enumerate(traced["ok"]):
            same = ok == plain["ok"][i] and traced["fingerprints"][i] == plain["fingerprints"][i]
            if not (ok and same):
                failed += 1
                if not same:
                    reasons.append(f"op {i}: traced output differs from untraced")
        reasons += plain["reasons"] + traced["reasons"]
    layers = [traced["layers"] for _, traced in pairs]
    values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    plain_wall = statistics.median(sum(p["op_nominal_s"]) for p, _ in pairs)
    traced_wall = statistics.median(sum(t["op_nominal_s"]) for _, t in pairs)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    counts = {name: f"median of {len(pairs)} traced passes" for name in values}
    return values, counts, attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "todasym" / "__init__.py").is_file():
        print(f"no todasym sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # a terminated run still kills and reaps its worker (subprocess.run does on exit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    flags = ["--tiny"] if args.tiny else []
    run = traced_run if args.trace else timed_run
    try:
        values, counts, attempted, failed, reasons = run(args, deadline, flags)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:>14.6g} {unit:6s} {counts[name]}")
    print(f"  {'fail_frac':42s} {failed / attempted:>14.6g} {'ratio':6s} {failed} of {attempted} ops")
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
