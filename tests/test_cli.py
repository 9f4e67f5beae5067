"""Command line behavior: subcommands, exit codes, determinism, env defaults."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from todasym.cli import main
from todasym.symmetry import SymmetryCandidate, build_Y, candidate_scaling, candidate_shift
from todasym.ratpoly import EXPONENT_LIMIT, Vars
from conftest import subprocess_env


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -----------------------------------------------------------------------


def test_verify_smallest_size_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--n", "2", "--nmax", "2"])
    assert code == 0
    assert "failed" in out.splitlines()[-1]
    assert " 0 failed" in out.splitlines()[-1]


def test_verify_json_deterministic(capsys, tmp_path):
    argv = ["verify", "--n", "2", "--nmax", "2", "--json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert payload["counts"]["failed"] == 0
    assert all("statement" in check for check in payload["checks"])


def test_verify_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, ["verify", "--n", "2", "--nmax", "2", "--out", str(out_path)]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True


def test_verify_equivalence_constants_reported(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--n", "2", "--suites", "equivalence", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    ks = [check["k"] for check in payload["checks"]]
    assert ks and all(k == "0" for k in ks)


def test_verify_rejects_bad_suite(capsys):
    code, _, err = run_cli(capsys, ["verify", "--suites", "nonsense"])
    assert code == 2
    assert "unknown suites" in err


def test_verify_rejects_empty_suite_list(capsys):
    # zero checks would report "ok": true without testing anything
    code, out, err = run_cli(capsys, ["verify", "--suites", ","])
    assert code == 2
    assert out == ""
    assert err == "error: suite list is empty\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--n", "2,2", "error: repeated lattice sizes: [2]\n"),
        ("--suites", "transcription,transcription", "error: repeated suites: ['transcription']\n"),
    ],
    ids=["sizes", "suites"],
)
def test_verify_rejects_repeats(capsys, option, value, message):
    # a repeated size would run and count every check at that size twice
    argv = ["verify", "--n", "2", "--nmax", "1", "--suites", "transcription", option, value]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_verify_strips_suite_names(capsys):
    argv = ["verify", "--n", "2", "--nmax", "1", "--suites", "transcription, poisson ", "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["config"]["suites"] == ["transcription", "poisson"]


def test_verify_rejects_bad_size(capsys):
    code, _, err = run_cli(capsys, ["verify", "--n", "1"])
    assert code == 2


def test_verify_env_defaults(capsys, monkeypatch):
    monkeypatch.setenv("TODA_N", "2")
    monkeypatch.setenv("TODA_NMAX", "2")
    code, out, _ = run_cli(capsys, ["verify", "--suites", "transcription", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["N"] == [2]
    assert payload["config"]["n_max"] == 2


def test_verify_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("TODA_NMAX", "7")
    code, out, _ = run_cli(
        capsys, ["verify", "--n", "2", "--nmax", "2", "--suites", "transcription", "--json"]
    )
    assert code == 0
    assert json.loads(out)["config"]["n_max"] == 2


# sha256 of the exact stdout bytes; any change to a report's content or
# layout shows up here
PINNED_STDOUT = [
    (
        ["verify", "--n", "2,3,4", "--nmax", "4", "--json"],
        "9e1e264d900d413cf45525181de14d6231b9fa9efb9a935192a3e33587f6e25a",
    ),
    (
        # the deep grid: 789 checks, all exact passes, every equivalence k is 0
        ["verify", "--n", "2,3,4", "--nmax", "6", "--json"],
        "8c6dfab8ba303cdb60d7ed3bbe0c1ac96d5a0e87322f95b2c1aa08a77a5159aa",
    ),
    (
        ["hierarchy", "--n", "4", "--nmax", "4"],
        "178fb76dc488541965384eee8056894b898e47e040b8557511a11b12c38d10fd",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_STDOUT, ids=["verify", "verify-nmax6", "hierarchy"]
)
def test_report_bytes_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- simulate ----------------------------------------------------------------------


def write_init(tmp_path, payload, name="init.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_fixed_point(capsys, tmp_path):
    init = write_init(tmp_path, {"a": [0.0], "b": [1.0, -1.0]})
    csv_path = tmp_path / "traj.csv"
    report_path = tmp_path / "drift.json"
    code, out, _ = run_cli(
        capsys,
        [
            "simulate", init,
            "--tend", "0.5", "--dt", "0.01",
            "--out", str(csv_path), "--report", str(report_path),
            "--assert", "--json",
        ],
    )
    assert code == 0
    drift = json.loads(report_path.read_text())
    assert drift["eigenvalue_drift"] == 0.0
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,a1,b1,b2"
    payload = json.loads(out)
    assert payload["eigenvalue_drift"] == 0.0


def test_simulate_csv_ends_at_tend(capsys, tmp_path):
    # 1 / 0.3 is not a whole number of steps: the last row is still t = 1
    init = write_init(tmp_path, {"a": [0.4, 0.3], "b": [0.1, -0.2, 0.0]})
    csv_path = tmp_path / "f.csv"
    argv = ["simulate", init, "--tend", "1", "--dt", "0.3", "--out", str(csv_path)]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    rows = csv_path.read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows[1:]][-1] == 1.0
    assert len(rows) == 6  # header, t = 0, 0.3, 0.6, 0.9 and 1


def test_simulate_accepts_positions_momenta(capsys, tmp_path):
    init = write_init(tmp_path, {"q": [0.0, 0.0], "p": [0.0, 0.0]})
    code, out, _ = run_cli(
        capsys, ["simulate", init, "--tend", "0.1", "--dt", "0.01", "--json"]
    )
    assert code == 0
    assert json.loads(out)["eigenvalue_drift"] < 1e-12


def test_simulate_random_drift_under_threshold(capsys, tmp_path):
    init = write_init(tmp_path, {"a": [0.4, 0.3, 0.5], "b": [0.1, -0.2, 0.3, -0.1]})
    code, _, _ = run_cli(
        capsys,
        ["simulate", init, "--tend", "2.0", "--dt", "1e-3", "--assert", "--nmax", "4"],
    )
    assert code == 0


def test_simulate_threshold_violation_exits_one(capsys, tmp_path):
    init = write_init(tmp_path, {"a": [0.4], "b": [0.1, -0.2]})
    code, _, err = run_cli(
        capsys,
        ["simulate", init, "--tend", "1.0", "--dt", "0.01", "--assert", "--tol", "1e-30"],
    )
    assert code == 1
    assert "exceeds tolerance" in err


def test_simulate_bad_json_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["simulate", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_simulate_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["simulate", str(tmp_path / "absent.json")])
    assert code == 2


def test_simulate_bad_lattice_data_exits_two(capsys, tmp_path):
    init = write_init(tmp_path, {"a": [0.5, 0.5], "b": [0.0, 0.0]})
    code, _, err = run_cli(capsys, ["simulate", init])
    assert code == 2
    assert "bad initial data" in err


def test_simulate_overflowing_flaschka_exits_two(capsys, tmp_path):
    # a_1 = exp((q_1 - q_2) / 2) / 2 = exp(1000) / 2 is past the float range
    init = write_init(tmp_path, {"q": [0, -2000], "p": [0, 0]})
    code, out, err = run_cli(capsys, ["simulate", init])
    assert code == 2
    assert out == ""
    assert err == "error: bad initial data: math range error\n"


def test_simulate_symmetry_map_option(capsys, tmp_path):
    init = write_init(tmp_path, {"a": [0.4, 0.3], "b": [0.1, -0.2, 0.3]})
    code, out, _ = run_cli(
        capsys,
        ["simulate", init, "--tend", "0.5", "--dt", "1e-3",
         "--symmetry", "0", "--eps", "1e-3", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetry_map"]["k"] == 0
    assert payload["symmetry_map"]["defect"] < 1e-4
    # the probe's own interval, not the run's --tend 0.5 and --dt 1e-3
    assert payload["symmetry_map"]["t_end"] == 1.0
    assert payload["symmetry_map"]["dt"] == 5e-4


def test_simulate_symmetry_text_states_probe_interval(capsys, tmp_path):
    init = write_init(tmp_path, {"a": [0.4, 0.3], "b": [0.1, -0.2, 0.3]})
    code, out, _ = run_cli(
        capsys,
        ["simulate", init, "--tend", "0.5", "--dt", "1e-3", "--symmetry", "0", "--eps", "1e-3"],
    )
    assert code == 0
    probe_line = out.splitlines()[-1]
    assert probe_line.startswith("Y_0 map defect at eps=0.001: ")
    assert probe_line.endswith("  (t_end=1.0, dt=0.0005)")


def test_simulate_symmetry_probe_abort_exits_one(capsys, tmp_path):
    # the run itself at dt=1e-7 is fine; the probe's own run at dt=5e-4
    # drives a_1 through zero
    init = write_init(tmp_path, {"a": [1000.0, 1000.0], "b": [0.0, 0.0, 0.0]})
    argv = ["simulate", init, "--tend", "0.0001", "--dt", "1e-7", "--symmetry", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("integration aborted: off-diagonal entry crossed zero")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--dt", "nan"],
        ["--tend", "inf"],
        ["--eps", "nan"],
        ["--symmetry", "-3"],
        ["--assert", "--tol", "nan"],
        ["--nmax", "0"],
        ["--tend", "1e300", "--dt", "1e-300"],
        ["--tend", "1e9", "--dt", "1e-3"],
    ],
    ids=[
        "dt-nan", "tend-inf", "eps-nan", "symmetry-below-minus-one", "tol-nan", "nmax-0",
        "step-count-overflow", "step-count-over-limit",
    ],
)
def test_simulate_bad_number_exits_two(capsys, tmp_path, extra):
    # a run from a_1 = 1000 aborts within a few steps (exit 1), so exit 2
    # also shows that each bad number is refused before integrating
    init = write_init(tmp_path, {"a": [1000.0], "b": [0.0, 0.0]})
    code, out, err = run_cli(
        capsys, ["simulate", init, "--tend", "0.1", "--dt", "0.01", *extra]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_simulate_env_nmax_below_one_exits_two(capsys, monkeypatch, tmp_path):
    init = write_init(tmp_path, {"a": [0.4], "b": [0.1, -0.2]})
    monkeypatch.setenv("TODA_NMAX", "-5")
    code, out, err = run_cli(capsys, ["simulate", init, "--tend", "0.1", "--json"])
    assert code == 2
    assert out == ""
    assert err == "error: nmax must be >= 1, got -5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2", "--nmax", "1", "--json"],
        ["simulate", "{init}", "--tend", "0.1", "--dt", "0.01", "--json"],
    ],
    ids=["verify", "simulate"],
)
def test_closed_stdout_exits_quietly(tmp_path, argv):
    # the read end is closed before the child starts, so its first write fails
    init = write_init(tmp_path, {"a": [0.4], "b": [0.1, -0.2]})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "todasym", *[arg.format(init=init) for arg in argv]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2", "--nmax", "1", "--suites", "transcription", "--out", "{missing}"],
        ["simulate", "{init}", "--tend", "0.1", "--dt", "0.01", "--out", "{missing}"],
        ["simulate", "{init}", "--tend", "0.1", "--dt", "0.01", "--report", "{missing}"],
        ["hierarchy", "--n", "2", "--nmax", "1", "--out", "{missing}"],
    ],
    ids=["verify-out", "simulate-out", "simulate-report", "hierarchy-out"],
)
def test_output_into_missing_directory_exits_two(capsys, tmp_path, argv):
    init = write_init(tmp_path, {"a": [0.4], "b": [0.1, -0.2]})
    missing = str(tmp_path / "absent" / "file")
    argv = [arg.format(init=init, missing=missing) for arg in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("name, value", [("N", "2,3"), ("DT", "abc")])
def test_verify_ignores_other_subcommands_env(capsys, monkeypatch, name, value):
    # TODA_N=2,3 is no hierarchy size, and verify has no --dt
    monkeypatch.setenv(f"TODA_{name}", value)
    code, out, _ = run_cli(
        capsys, ["verify", "--n", "2", "--nmax", "1", "--suites", "transcription", "--json"]
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (["hierarchy"], "N", "2,3"),
        (["verify", "--suites", "transcription"], "N", "two"),
        (["verify", "--suites", "transcription"], "NMAX", "4.5"),
        (["simulate", "{init}"], "DT", "abc"),
    ],
    ids=["hierarchy-N", "verify-N", "verify-NMAX", "simulate-DT"],
)
def test_bad_env_value_exits_two(capsys, monkeypatch, tmp_path, argv, name, value):
    init = write_init(tmp_path, {"a": [0.4], "b": [0.1, -0.2]})
    monkeypatch.setenv(f"TODA_{name}", value)
    code, out, err = run_cli(capsys, [arg.format(init=init) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid TODA_{name}=") and err.count("\n") == 1


# -- hierarchy ----------------------------------------------------------------------


def test_hierarchy_output(capsys):
    code, out, _ = run_cli(capsys, ["hierarchy", "--n", "2", "--nmax", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 2
    h1 = payload["hamiltonians"][0]
    assert h1["m"] == 1
    assert h1["poly"] == [
        {"coeff": "1", "exps": {"b1": 1}},
        {"coeff": "1", "exps": {"b2": 1}},
    ]
    x_by_k = {item["k"]: item for item in payload["master_fields"]}
    assert x_by_k[1]["a"] == [
        [
            {"coeff": "-1", "exps": {"a1": 1, "b1": 1}},
            {"coeff": "3", "exps": {"a1": 1, "b2": 1}},
        ]
    ]
    w1 = payload["poisson_tensors"][0]["matrix"]
    assert w1[0][1] == [{"coeff": "-1", "exps": {"a1": 1}}]
    assert w1[0][2] == [{"coeff": "1", "exps": {"a1": 1}}]


def test_hierarchy_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["hierarchy", "--n", "3", "--nmax", "3"])
    code2, out2, _ = run_cli(capsys, ["hierarchy", "--n", "3", "--nmax", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_hierarchy_round_trips_through_schema(capsys):
    from todasym.hierarchy import master_field, poisson_tensor

    code, out, _ = run_cli(capsys, ["hierarchy", "--n", "3", "--nmax", "2"])
    assert code == 0
    payload = json.loads(out)
    for item in payload["master_fields"]:
        assert item == {"k": item["k"], **master_field(item["k"], 3).to_json_obj()}
    for item in payload["poisson_tensors"]:
        assert item == {"k": item["k"], **poisson_tensor(item["k"], 3).to_json_obj()}


def test_hierarchy_rejects_bad_size(capsys):
    code, _, err = run_cli(capsys, ["hierarchy", "--n", "1"])
    assert code == 2


# -- symcheck -----------------------------------------------------------------------


def write_candidate(tmp_path, cand, name="cand.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cand.to_json_obj()))
    return str(path)


def test_symcheck_shift_passes(capsys, tmp_path):
    path = write_candidate(tmp_path, candidate_shift(3))
    code, out, _ = run_cli(capsys, ["symcheck", path])
    assert code == 0
    assert "all determining residuals vanish" in out


def test_symcheck_scaling_passes(capsys, tmp_path):
    path = write_candidate(tmp_path, candidate_scaling(3))
    code, _, _ = run_cli(capsys, ["symcheck", path])
    assert code == 0


def test_symcheck_y2_passes(capsys, tmp_path):
    path = write_candidate(tmp_path, build_Y(2, 2))
    code, _, _ = run_cli(capsys, ["symcheck", path])
    assert code == 0


def test_symcheck_planted_failure(capsys, tmp_path):
    v = Vars(2)
    from todasym.symmetry import SymmetryCandidate

    cand = SymmetryCandidate(2, v.zero, (v.zero,), (v.b(1), v.zero))
    path = write_candidate(tmp_path, cand)
    code, out, _ = run_cli(capsys, ["symcheck", path])
    assert code == 1
    assert "not a symmetry" in out
    assert "gamma_1" in out


SYMCHECK_PASS = """\
symmetry: all determining residuals vanish
"""
SYMCHECK_PASS_ALL = """\
gamma_1 = 0
gamma_2 = 0
delta_1 = 0
delta_2 = 0
delta_3 = 0
symmetry: all determining residuals vanish
"""
SYMCHECK_PASS_JSON = json.dumps({"ok": True, "gamma": ["0"] * 2, "delta": ["0"] * 3}, indent=2)
SYMCHECK_GAMMA = """\
gamma_1 = a1*b1
delta_1 = 2*a1^2
delta_2 = 0
not a symmetry: first nonzero residual gamma_1 = a1*b1
"""
SYMCHECK_GAMMA_JSON = json.dumps(
    {"ok": False, "gamma": ["a1*b1"], "delta": ["2*a1^2", "0"]}, indent=2
)
SYMCHECK_DELTA = """\
gamma_1 = 0
gamma_2 = 0
delta_1 = 2*a1^2
delta_2 = 2*a1^2
delta_3 = 2*a1^2
not a symmetry: first nonzero residual delta_1 = 2*a1^2
"""
SYMCHECK_DELTA_JSON = json.dumps(
    {"ok": False, "gamma": ["0"] * 2, "delta": ["2*a1^2"] * 3}, indent=2
)


def _gamma_failure():
    # psi_1 = b1 alone: gamma_1 = a1 b1 and delta_1 = D(b1) = 2 a1^2
    v = Vars(2)
    return SymmetryCandidate(2, v.zero, (v.zero,), (v.b(1), v.zero))


def _delta_failure():
    # psi_j = b1 for every j: every gamma cancels, every delta is D(b1)
    v = Vars(3)
    return SymmetryCandidate(3, v.zero, (v.zero,) * 2, (v.b(1),) * 3)


@pytest.mark.parametrize(
    "make, flag, code, stdout",
    [
        (lambda: build_Y(2, 3), None, 0, SYMCHECK_PASS),
        (lambda: build_Y(2, 3), "--all", 0, SYMCHECK_PASS_ALL),
        (lambda: build_Y(2, 3), "--json", 0, SYMCHECK_PASS_JSON + "\n"),
        (_gamma_failure, None, 1, SYMCHECK_GAMMA),
        (_gamma_failure, "--all", 1, SYMCHECK_GAMMA),
        (_gamma_failure, "--json", 1, SYMCHECK_GAMMA_JSON + "\n"),
        (_delta_failure, None, 1, SYMCHECK_DELTA),
        (_delta_failure, "--all", 1, SYMCHECK_DELTA),
        (_delta_failure, "--json", 1, SYMCHECK_DELTA_JSON + "\n"),
    ],
    ids=[
        "Y2-plain", "Y2-all", "Y2-json",
        "gamma-plain", "gamma-all", "gamma-json",
        "delta-plain", "delta-all", "delta-json",
    ],
)
def test_symcheck_output_pinned(capsys, tmp_path, make, flag, code, stdout):
    path = write_candidate(tmp_path, make())
    argv = ["symcheck", path] + ([flag] if flag else [])
    assert run_cli(capsys, argv) == (code, stdout, "")


def test_symcheck_json_mode(capsys, tmp_path):
    path = write_candidate(tmp_path, candidate_shift(2))
    code, out, _ = run_cli(capsys, ["symcheck", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["gamma"] == ["0"]


def test_symcheck_malformed_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"phi": []}))
    code, _, err = run_cli(capsys, ["symcheck", str(path)])
    assert code == 2
    assert "bad candidate" in err


@pytest.mark.parametrize(
    "coeff, message",
    [
        # json reads the number 1e400 as inf, which no Fraction can hold
        ("1e400", "cannot convert Infinity to integer ratio"),
        ('"1/0"', "Fraction(1, 0)"),
    ],
    ids=["inf", "zero-denominator"],
)
def test_symcheck_unusable_coefficient_exits_two(capsys, tmp_path, coeff, message):
    path = tmp_path / "cand.json"
    path.write_text('{"N": 2, "phi": [[]], "psi": [[{"coeff": %s, "exps": {}}], []]}' % coeff)
    code, out, err = run_cli(capsys, ["symcheck", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: bad candidate: {message}\n"


@pytest.mark.parametrize(
    "term, message",
    [
        ('{"coeff": "1", "exps": []}', "term exponents must be an object, got []"),
        ('{"coeff": true, "exps": {}}', "term coefficient must be a number or a string, got True"),
    ],
    ids=["list-exps", "bool-coeff"],
)
def test_symcheck_malformed_term_exits_two(capsys, tmp_path, term, message):
    path = tmp_path / "cand.json"
    path.write_text('{"N": 2, "phi": [[]], "psi": [[%s], []]}' % term)
    code, out, err = run_cli(capsys, ["symcheck", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: bad candidate: {message}\n"


def _candidate_with_psi_exponent(tmp_path, exponent):
    payload = candidate_shift(2).to_json_obj()
    payload["psi"][0] = [{"coeff": "1", "exps": {"b1": exponent}}]
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_symcheck_bool_exponent_exits_two(capsys, tmp_path):
    path = _candidate_with_psi_exponent(tmp_path, True)
    code, out, err = run_cli(capsys, ["symcheck", path])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "bad candidate" in err


def test_symcheck_exponent_limit_exits_two(capsys, tmp_path):
    path = _candidate_with_psi_exponent(tmp_path, EXPONENT_LIMIT)
    code, _, err = run_cli(capsys, ["symcheck", path])
    assert code == 2
    assert err.count("\n") == 1 and "bad candidate" in err


def test_symcheck_residual_overflow_exits_two(capsys, tmp_path):
    # a valid exponent whose determining residual (a_1 * psi_1) passes the limit
    payload = candidate_shift(2).to_json_obj()
    payload["psi"][0] = [{"coeff": "1", "exps": {"a1": EXPONENT_LIMIT - 1}}]
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, ["symcheck", str(path)])
    assert code == 2
    assert err.count("\n") == 1 and "bad candidate" in err
