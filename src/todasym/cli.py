"""Command line entry point.

Subcommands:

    verify     run the exact identity suites and emit a report
    simulate   integrate the Toda flow, write a CSV trajectory and drift report
    hierarchy  emit Hamiltonians, master fields and tensors as JSON
    symcheck   test a symmetry candidate from a JSON file

Exit codes: 0 on success, 1 when an identity or threshold fails, 2 for
usage or input errors, with one "error:" line; a stdout closed before the
output is written (``todasym verify --json | head -5``) exits 2 silently.
Defaults may be set through TODA_* environment variables (TODA_N,
TODA_NMAX, TODA_TEND, TODA_DT, TODA_EPS, TODA_TOL, TODA_OUT); each
subcommand reads only the variables of its own options, and explicit flags
win over the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict

from .dynamics import drift_report, integrate, symmetry_map_test
from .hierarchy import master_field, poisson_tensor
from .lattice import PhasePoint, hamiltonian
from .ratpoly import ExponentError
from .symmetry import SymmetryCandidate, build_Y, determining_residuals
from .verify import ALL_SUITES, VerifyConfig, run_verify

USAGE_ERROR = 2
CHECK_ERROR = 1


def _env(name: str, default, cast):
    raw = os.environ.get(f"TODA_{name}")
    if raw is None:
        return default
    try:
        return cast(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise BadInput(f"invalid TODA_{name}={raw!r}: {exc}")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated size list: {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


# per subcommand: option -> (TODA_* variable, default, cast); only the
# subcommand that runs reads its variables
ENV_DEFAULTS = {
    "verify": {
        "n": ("N", (2, 3, 4), _parse_sizes),
        "nmax": ("NMAX", 4, int),
        "out": ("OUT", None, str),
    },
    "simulate": {
        "tend": ("TEND", 10.0, float),
        "dt": ("DT", 1e-3, float),
        "nmax": ("NMAX", 4, int),
        "out": ("OUT", None, str),
        "tol": ("TOL", 1e-8, float),
        "eps": ("EPS", 1e-4, float),
    },
    "hierarchy": {
        "n": ("N", 3, int),
        "nmax": ("NMAX", 3, int),
        "out": ("OUT", None, str),
    },
    "symcheck": {},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todasym",
        description="Exact identity verification and simulation for the open Toda chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the exact identity suites")
    p_verify.add_argument(
        "--n",
        type=_parse_sizes,
        help="comma-separated lattice sizes (default 2,3,4)",
    )
    p_verify.add_argument(
        "--nmax", type=int, help="depth of every suite: all index ranges grow with it (default 4)"
    )
    p_verify.add_argument(
        "--suites",
        default=",".join(ALL_SUITES),
        help="comma-separated suite names (default: all)",
    )
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.add_argument("--json", action="store_true", help="print JSON instead of a table")

    p_sim = sub.add_parser("simulate", help="integrate the Toda flow")
    p_sim.add_argument("init", help="JSON file with {a, b[, t]} or {q, p}")
    p_sim.add_argument("--tend", type=float)
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--nmax", type=int, help="drift is tracked for H_1..H_nmax")
    p_sim.add_argument("--out", help="CSV trajectory path")
    p_sim.add_argument("--report", default=None, help="write the drift report JSON here")
    p_sim.add_argument(
        "--assert",
        dest="enforce",
        action="store_true",
        help="exit 1 unless all drifts stay below --tol",
    )
    p_sim.add_argument("--tol", type=float)
    p_sim.add_argument(
        "--symmetry",
        type=int,
        default=None,
        metavar="K",
        help="also measure the map defect of Y_K along this trajectory's start",
    )
    p_sim.add_argument("--eps", type=float)
    p_sim.add_argument("--json", action="store_true", help="print the drift report as JSON")

    p_hier = sub.add_parser("hierarchy", help="emit H_m, X_k and w_k as JSON")
    p_hier.add_argument("--n", type=int, help="lattice size")
    p_hier.add_argument("--nmax", type=int)
    p_hier.add_argument("--out")

    p_sym = sub.add_parser("symcheck", help="check a symmetry candidate JSON file")
    p_sym.add_argument("candidate", help="JSON file with {tau, phi, psi}")
    p_sym.add_argument("--all", action="store_true", help="print every residual")
    p_sym.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "verify": cmd_verify,
        "simulate": cmd_simulate,
        "hierarchy": cmd_hierarchy,
        "symcheck": cmd_symcheck,
    }
    try:
        for dest, (name, default, cast) in ENV_DEFAULTS[args.command].items():
            if getattr(args, dest) is None:
                setattr(args, dest, _env(name, default, cast))
        code = commands[args.command](args)
        sys.stdout.flush()
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    return code


class BadInput(Exception):
    """Unusable configuration or input file."""


@contextmanager
def _output(path: str):
    """Open path for writing; failing to open or write it is bad input."""
    try:
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise BadInput(f"cannot write {path}: {exc}")


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise BadInput(f"{path} is not valid JSON: {exc}")


def cmd_verify(args) -> int:
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    try:
        config = VerifyConfig(ns=tuple(args.n), n_max=args.nmax, suites=suites)
    except ValueError as exc:
        raise BadInput(str(exc))
    report = run_verify(config)
    rendered = report.to_json_str()
    if args.out:
        with _output(args.out) as handle:
            handle.write(rendered + "\n")
    print(rendered if args.json else report.to_table())
    return 0 if report.ok else CHECK_ERROR


def cmd_simulate(args) -> int:
    data = _load_json(args.init)
    try:
        z0 = PhasePoint.from_json_obj(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"bad initial data: {exc}")
    if not all(map(math.isfinite, (args.tend, args.dt, args.tol, args.eps))):
        raise BadInput("--tend, --dt, --tol and --eps must be finite")
    if args.dt <= 0 or args.tend < 0 or args.eps <= 0:
        raise BadInput("need dt > 0, tend >= 0 and eps > 0")
    if args.nmax < 1:
        raise BadInput(f"nmax must be >= 1, got {args.nmax}")
    if args.symmetry is not None and args.symmetry < -1:
        raise BadInput(f"symmetry index must be >= -1, got {args.symmetry}")
    try:
        traj = integrate(z0, args.tend, args.dt)
        if args.symmetry is not None:
            probe = symmetry_map_test(build_Y(args.symmetry, z0.n), z0, args.eps)
    except ValueError as exc:
        raise BadInput(str(exc))
    except RuntimeError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return CHECK_ERROR
    report = drift_report(traj, args.nmax)
    if args.out:
        with _output(args.out) as handle:
            traj.write_csv(handle)
    if args.report:
        with _output(args.report) as handle:
            json.dump(report.to_json_obj(), handle, indent=2)
            handle.write("\n")
    payload = report.to_json_obj()
    if args.symmetry is not None:
        payload["symmetry_map"] = {"k": args.symmetry, **asdict(probe)}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"samples: {len(traj.times)}  (t_end={args.tend}, dt={args.dt})")
        print(f"eigenvalue drift: {report.eigenvalue_drift:.3e}")
        for m, value in sorted(report.h_drift.items()):
            print(f"H_{m} drift:       {value:.3e}")
        if "symmetry_map" in payload:
            sm = payload["symmetry_map"]
            interval = f"t_end={sm['t_end']}, dt={sm['dt']}"
            print(f"Y_{sm['k']} map defect at eps={sm['eps']:g}: {sm['defect']:.3e}  ({interval})")
    if args.enforce:
        worst = max(report.eigenvalue_drift, report.max_h_drift())
        if worst >= args.tol:
            print(f"drift {worst:.3e} exceeds tolerance {args.tol:.3e}", file=sys.stderr)
            return CHECK_ERROR
    return 0


def cmd_hierarchy(args) -> int:
    if args.n < 2 or args.nmax < 1:
        raise BadInput("need lattice size >= 2 and nmax >= 1")
    n, top = args.n, args.nmax
    payload = {
        "N": n,
        "hamiltonians": [
            {"m": m, "poly": hamiltonian(m, n).to_json_terms()} for m in range(1, top + 1)
        ],
        "master_fields": [
            {"k": k, **master_field(k, n).to_json_obj()} for k in range(-1, top + 1)
        ],
        "poisson_tensors": [
            {"k": k, **poisson_tensor(k, n).to_json_obj()} for k in range(1, top + 1)
        ],
    }
    rendered = json.dumps(payload, indent=2)
    if args.out:
        with _output(args.out) as handle:
            handle.write(rendered + "\n")
    print(rendered)
    return 0


def cmd_symcheck(args) -> int:
    data = _load_json(args.candidate)
    try:
        cand = SymmetryCandidate.from_json_obj(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"bad candidate: {exc}")
    try:
        residual = determining_residuals(cand)
    except ExponentError as exc:
        raise BadInput(f"bad candidate: {exc}")
    ok = residual.all_zero()
    if args.json:
        payload = {
            "ok": ok,
            "gamma": [str(p) for p in residual.gamma],
            "delta": [str(p) for p in residual.delta],
        }
        print(json.dumps(payload, indent=2))
    elif args.all or not ok:
        for j, poly in enumerate(residual.gamma, start=1):
            print(f"gamma_{j} = {poly}")
        for j, poly in enumerate(residual.delta, start=1):
            print(f"delta_{j} = {poly}")
    if ok:
        if not args.json:
            print("symmetry: all determining residuals vanish")
        return 0
    found = residual.first_nonzero()
    if not args.json and found is not None:
        print(f"not a symmetry: first nonzero residual {found[0]} = {found[1]}")
    return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
