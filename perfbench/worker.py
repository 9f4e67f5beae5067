"""One pass of one workload in a fresh interpreter, so every lru_cache starts cold.

    python3 perfbench/worker.py --workload NAME --seed N --pass I --t0 T
        [--trace] [--setup-only] [--tiny]

T is the parent's time.monotonic() taken just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so setup_s covers the
interpreter start, ``import todasym`` and input generation.  Prints one
JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import todasym

    expected = ROOT / "src" / "todasym"
    if Path(todasym.__file__).resolve().parent != expected:
        print(f"todasym imported from {todasym.__file__}, not {expected}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text())
    ops = workload.inputs(random.Random(f"{args.seed}/{args.pass_index}"), args.tiny)
    setup_s = time.monotonic() - args.t0
    setup = {
        "setup_s": setup_s,
        "setup_nominal_s": setup_s * speed.NOMINAL_S / statistics.median(
            speed.reference_sample() for _ in range(3)
        ),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    result = run_pass(workload, ops, golden, recorder)
    result.update(setup)
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        recorder.save(out_dir / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


def run_pass(workload, ops, golden, recorder=None) -> dict:
    """Run every op back to back, then check all outputs (untimed).

    A reference sample (see speed.py) is taken before the first op, after
    the last, and between ops whenever REF_EVERY_S has passed, so every op
    lies between two samples of the machine's speed at that time.
    """
    outputs, errors, op_start, op_s, ref_at, ref_s = [], [], [], [], [], []
    clock = time.perf_counter
    pass_start = clock()
    last_ref = -math.inf
    for op_id, op in enumerate(ops):
        if clock() - last_ref >= speed.REF_EVERY_S:
            ref_at.append(clock() - pass_start)
            ref_s.append(speed.reference_sample())
            last_ref = clock()
        if recorder is not None:
            recorder.begin_op(op_id)
        start = clock()
        try:
            out, err = workload.run(op), None
        except Exception as exc:  # a failing op is counted, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        if recorder is not None:
            recorder.end_op()
        op_start.append(start - pass_start)
        op_s.append(end - start)
        outputs.append(out)
        errors.append(err)
    ref_at.append(clock() - pass_start)
    ref_s.append(speed.reference_sample())
    verdicts = workload.check(ops, outputs, errors, golden)
    return {
        "op_s": op_s,
        "op_nominal_s": speed.at_nominal_speed(op_start, op_s, ref_at, ref_s),
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok": [ok for ok, _, _ in verdicts],
        "fingerprints": [fp for _, fp, _ in verdicts],
        "reasons": [reason for _, _, reason in verdicts if reason is not None][:5],
    }


if __name__ == "__main__":
    sys.exit(main())
