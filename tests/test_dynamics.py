"""Integration, spectra, drift certificates and the symmetry map probe."""

import io
import math
import sys
import random

import numpy as np
import pytest

from todasym import dynamics
from todasym.dynamics import (
    CompiledField,
    DriftReport,
    Trajectory,
    _grid_residuals,
    drift_report,
    integrate,
    order_of_accuracy_ratio,
    spectrum,
    symmetry_map_test,
)
from todasym.fields import VectorField
from todasym.lattice import PhasePoint, toda_velocity
from todasym.ratpoly import Polynomial, Vars
from todasym.symmetry import SymmetryCandidate, build_Y
import reference_dynamics as ref
from algebra_helpers import evaluate
from lattice_helpers import toda_rhs


def random_point(rng, n, a_range=(0.1, 0.6), b_range=(-0.5, 0.5)):
    return PhasePoint(
        tuple(rng.uniform(*a_range) for _ in range(n - 1)),
        tuple(rng.uniform(*b_range) for _ in range(n)),
    )


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_diagonal_case():
    point = PhasePoint((0.0, 0.0), (3.0, -1.0, 2.0))
    assert np.allclose(spectrum(point), [-1.0, 2.0, 3.0])


def test_spectrum_two_site():
    point = PhasePoint((1.0,), (0.0, 0.0))
    assert np.allclose(spectrum(point), [-1.0, 1.0], atol=1e-14)


def test_spectrum_three_site_hand_value():
    point = PhasePoint((1.0, 1.0), (0.0, 0.0, 0.0))
    expected = [-math.sqrt(2.0), 0.0, math.sqrt(2.0)]
    assert np.allclose(spectrum(point), expected, atol=1e-12)


# -- integration --------------------------------------------------------------------


def test_fixed_point_stays_fixed():
    point = PhasePoint((0.0, 0.0), (1.0, -2.0, 0.5))
    traj = integrate(point, 1.0, 0.01)
    assert np.allclose(traj.states, traj.states[0])


def test_invalid_steps_rejected():
    point = PhasePoint((0.5,), (0.0, 0.0))
    with pytest.raises(ValueError):
        integrate(point, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(point, -1.0, 0.1)


def test_step_count_must_be_finite():
    # 1e300 / 1e-300 overflows to inf: no step count can be formed
    point = PhasePoint((0.5,), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite step count"):
        integrate(point, 1e300, 1e-300)


def test_step_count_is_bounded():
    limit = dynamics.MAX_STEPS
    assert dynamics._step_count(limit * 1e-3, 1e-3) == (limit, False)
    with pytest.raises(ValueError, match="exceeds the limit"):
        dynamics._step_count(limit * 1e-3 + 1e-4, 1e-3)
    # 1e9 / 1e-3 is 1e12 steps; a run from a_1 = 1000 aborts within a few
    # steps, so the ValueError shows the count is refused before any step
    point = PhasePoint((1000.0,), (0.0, 0.0))
    with pytest.raises(ValueError, match="exceeds the limit of 10000000"):
        integrate(point, 1e9, 1e-3)


@pytest.mark.parametrize("stride", [0, -1])
def test_store_stride_below_one_rejected(stride):
    point = PhasePoint((0.5,), (0.0, 0.0))
    with pytest.raises(ValueError, match=f"store_stride must be >= 1, got {stride}"):
        integrate(point, 0.1, 0.01, store_stride=stride)


def test_sorting_behavior_two_site():
    # b_1 grows monotonically (db_1/dt = 2 a_1^2 > 0), so asymptotically the
    # diagonal carries the spectrum with the larger eigenvalue first
    z0 = PhasePoint((0.5,), (0.0, 0.0))
    traj = integrate(z0, 30.0, 1e-3)
    final = traj.states[-1]
    assert abs(final[0]) < 1e-10  # coupling dies out
    assert final[1] == pytest.approx(0.5, abs=1e-10)  # larger eigenvalue
    assert final[2] == pytest.approx(-0.5, abs=1e-10)


def test_positive_a_abort_on_coarse_step():
    z0 = PhasePoint((1.6, 1.9), (1.9, -1.7, -0.4))
    with pytest.raises(RuntimeError, match="crossed zero"):
        integrate(z0, 20.0, 0.55)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_abort():
    # a_1 = -1 is not tracked for positivity, and dt = 1 is past RK4's
    # stability limit: the state overflows after a few steps
    z0 = PhasePoint((-1.0,), (0.0, 0.0))
    with pytest.raises(RuntimeError, match=r"non-finite state at t=6 \(step 6\)"):
        integrate(z0, 20.0, 1.0)


def test_integrate_takes_no_field_and_a_keyword_stride():
    # perfbench's span hook binds integrate's arguments by position, with a
    # stale field slot fourth: a positional stride must not land in it
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    with pytest.raises(TypeError):
        integrate(z0, 1.0, 0.1, 3)
    with pytest.raises(TypeError):
        integrate(z0, 1.0, 0.1, field=toda_rhs(3))


def test_compiled_field_matches_exact_evaluation(np_rng):
    n = 3
    field = toda_rhs(n)
    compiled = CompiledField(field)
    for _ in range(5):
        x = np_rng.uniform(-1.0, 1.0, size=2 * n - 1)
        values = {f"a{i}": x[i - 1] for i in range(1, n)}
        values.update({f"b{i}": x[n - 2 + i] for i in range(1, n + 1)})
        expected = [evaluate(c, values) for c in field.components()]
        assert np.allclose(compiled(x, 0.0), expected)


def test_store_stride():
    z0 = PhasePoint((0.5,), (0.0, 0.0))
    traj = integrate(z0, 1.0, 0.01, store_stride=10)
    assert len(traj.times) == 11
    assert traj.times[1] == pytest.approx(0.1)


def test_store_stride_keeps_final_state():
    # 10 steps at stride 3 store steps 3, 6 and 9, then the final step 10
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    every = integrate(z0, 1.0, 0.1)
    strided = integrate(z0, 1.0, 0.1, store_stride=3)
    assert strided.times[-1] == 1.0
    assert np.array_equal(strided.times, every.times[[0, 3, 6, 9, 10]])
    assert np.array_equal(strided.states, every.states[[0, 3, 6, 9, 10]])


def test_partial_last_step_ends_at_t_end():
    # 1.0 / 0.3 is not whole: three steps of 0.3, then one of 0.1
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    traj = integrate(z0, 1.0, 0.3)
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert traj.times[-1] == 1.0
    fine = integrate(z0, 1.0, 1e-3)
    assert np.allclose(traj.states[-1], fine.states[-1], atol=1e-4)
    assert not np.allclose(traj.states[-2], fine.states[-1], atol=1e-4)


def test_partial_last_step_from_nonzero_start_time():
    # two steps of 0.1 and one of 0.05 from t = 0.5; the Toda flow is
    # autonomous, so the states are those of the same run from t = 0
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0), 0.5)
    traj = integrate(z0, 0.25, 0.1)
    assert traj.times.tolist() == [0.5, 0.6, 0.7, 0.75]
    from_zero = integrate(PhasePoint(z0.a, z0.b), 0.25, 0.1)
    assert traj.states.tobytes() == from_zero.states.tobytes()


# -- the preallocated stepper against the allocating reference loop ------------------


def assert_same_bits(fast: Trajectory, slow: Trajectory):
    assert fast.times.shape == slow.times.shape and fast.states.shape == slow.states.shape
    assert fast.times.tobytes() == slow.times.tobytes()
    assert fast.states.tobytes() == slow.states.tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_toda_kernel_matches_allocating_reference(np_rng, n):
    # the stage point is [a | spare | b | 0 | a^2 | 0]; k is [da | -b_N | db / 2],
    # and its doubled b-block is the reference's db
    a = np_rng.uniform(-1.0, 1.0, size=n - 1)
    b = np_rng.uniform(-1.0, 1.0, size=n)
    p = np.concatenate((a, [np.nan], b, [0.0], np.full(n - 1, np.nan), [0.0]))
    k = np.full(2 * n, np.nan)
    toda_velocity(p[: n - 1], p[2 * n + 1 : 3 * n], p[n + 1 :], p[n : 3 * n], k, k[: n - 1])
    ref_da, ref_db = ref.toda_velocity(a, b)
    assert k[: n - 1].tobytes() == ref_da.tobytes()
    assert (2 * k[n:]).tobytes() == ref_db.tobytes()
    assert k[n - 1] == -b[-1]
    assert p[2 * n + 1 : 3 * n].tobytes() == (a * a).tobytes()
    assert p[2 * n] == p[3 * n] == 0.0 and np.isnan(p[n - 1])  # the spare slot is not read


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 8, 33, 128])
def test_integrate_matches_allocating_reference(np_rng, n, stride):
    # 50 steps: at stride 7 the final state is stored off the stride
    z0 = random_point(np_rng, n)
    fast = integrate(z0, 1.0, 0.02, store_stride=stride)
    assert_same_bits(fast, ref.integrate(z0, 1.0, 0.02, store_stride=stride))


@pytest.mark.parametrize("stride", [1, 7])
def test_integrate_matches_reference_short_step_and_start_time(np_rng, stride):
    # 1.0 / 0.03 is not whole: 33 steps of 0.03 and a short one, from t = 0.5
    point = random_point(np_rng, 5)
    z0 = PhasePoint(point.a, point.b, 0.5)
    fast = integrate(z0, 1.0, 0.03, store_stride=stride)
    assert fast.times[-1] == 1.5
    assert_same_bits(fast, ref.integrate(z0, 1.0, 0.03, store_stride=stride))


@pytest.mark.parametrize("n, start", [(3, -0.0), (6, 0.5), (33, 2.25)])
def test_integrate_matches_reference_on_the_probe_grid(np_rng, n, start):
    # length 1 at dt = 5e-4 (2,000 steps), every 5th state stored; the first
    # sample time is z0.time itself, so a start of -0.0 keeps its sign bit
    point = random_point(np_rng, n)
    z0 = PhasePoint(point.a, point.b, start)
    fast = integrate(z0, 1.0, 5e-4, store_stride=5)
    assert len(fast.times) == 401
    assert_same_bits(fast, ref.integrate(z0, 1.0, 5e-4, store_stride=5))


def test_start_time_without_increasing_samples_is_refused_before_the_first_step(monkeypatch):
    # at t = 1e20 a float spacing is 16384, so every sample time is 1e20
    calls = []
    monkeypatch.setattr(dynamics, "toda_velocity", lambda *args: calls.append(args))
    z0 = PhasePoint((0.5,), (0.0, 0.0), 1e20)
    with pytest.raises(ValueError, match="^sample times must be strictly increasing$"):
        integrate(z0, 1.0, 1e-3)
    assert calls == []


MAX_FLOAT = sys.float_info.max

ABORTS = [
    (PhasePoint((1.6, 1.9), (1.9, -1.7, -0.4)), 20.0, 0.55, "crossed zero"),
    # the coarse, unstable run of test_nonfinite_abort: it overflows at step 6
    (PhasePoint((-1.0,), (0.0, 0.0)), 20.0, 1.0, "non-finite"),
    # a_1^2 is finite but 2 a_1^2 overflows: the halved kernel never forms
    # 2 a_1^2, and the run must still abort where the full velocity does
    (PhasePoint((9.6e153,), (0.0, 0.0)), 1.0, 1e-3, "non-finite"),
    (PhasePoint((1.2e154, 0.5), (0.1, -0.2, 0.0)), 1.0, 1e-3, "non-finite"),
    # b_3 - 1e297 overflows: b_N is the only non-finite entry of the second
    # stage point, and the spare slot of k turns inf there
    (PhasePoint((0.5, 1e150), (-MAX_FLOAT,) * 3), 1.0, 1e-3, "non-finite"),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "z0, t_end, dt, message",
    ABORTS,
    ids=["crossing", "non-finite", "overflow-9.6e153", "overflow-1.2e154", "overflow-b_N"],
)
def test_integrate_aborts_like_allocating_reference(z0, t_end, dt, message):
    raised = []
    for run in (integrate, ref.integrate):
        with pytest.raises(RuntimeError, match=message) as info:
            run(z0, t_end, dt)
        raised.append((type(info.value), str(info.value)))
    # the message names the time and the step, so equal messages mean the same step
    assert raised[0] == raised[1]


# -- the block check at its edges: steps are checked and stored BLOCK at a time -----

CROSSING, UNSTABLE, OVERFLOW_B_N = ABORTS[0][0], ABORTS[1][0], ABORTS[4][0]

BLOCK_EDGE_ABORTS = [
    (CROSSING, 20.0, 1.1, 1, "crossed zero"),
    # the crossing point at dt near 0.4949 overflows late, at the edge of block 1
    (CROSSING, 400.0, 0.494926879883, 256, "non-finite"),
    (CROSSING, 400.0, 0.494926757812, 257, "non-finite"),
    # at dt near 0.256 it crosses zero at the edge of block 3
    (CROSSING, 400.0, 0.2564, 768, "crossed zero"),
    (CROSSING, 400.0, 0.256, 769, "crossed zero"),
    # on a short last step: 5 steps of 1 and one of 0.5, 767 of 0.2564 and
    # one of 0.1412, 768 of 0.256 and one of 0.192
    (UNSTABLE, 5.5, 1.0, 6, "non-finite"),
    (CROSSING, 196.9, 0.2564, 768, "crossed zero"),
    (CROSSING, 196.8, 0.256, 769, "crossed zero"),
    # step 1 leaves a_2 = -inf: the row both is non-finite and crossed zero
    (OVERFLOW_B_N, 5e-8, 5e-9, 1, "non-finite"),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "z0, t_end, dt, step, message",
    BLOCK_EDGE_ABORTS,
    ids=[
        "step-1",
        "last-of-block-1",
        "first-of-block-2",
        "last-of-block-3",
        "first-of-block-4",
        "short-step-6",
        "short-last-of-block-3",
        "short-first-of-block-4",
        "non-finite-and-crossed",
    ],
)
def test_block_edge_aborts_like_allocating_reference(z0, t_end, dt, step, message):
    assert dynamics.BLOCK == 256  # the edges above are steps 256, 257, 768 and 769
    raised = []
    for run in (integrate, ref.integrate):
        with pytest.raises(RuntimeError, match=message) as info:
            run(z0, t_end, dt)
        raised.append((type(info.value), str(info.value)))
    assert f"(step {step})" in raised[0][1]
    assert raised[0] == raised[1]


def test_block_check_reports_the_first_faulty_row():
    # rows are steps 11..14 of a 3-site state [a1 a2 | spare | b1 b2 b3]
    states = np.ones((4, 6))
    states[1, 0] = -0.5  # step 12 crossed zero
    states[2, 4] = np.inf  # step 13 is non-finite

    def time_of(step):
        return step / 10

    dynamics._check_block(states[:1], 3, True, 10, time_of)
    with pytest.raises(RuntimeError, match=r"^off-diagonal .* at t=1\.2 \(step 12\)"):
        dynamics._check_block(states, 3, True, 10, time_of)
    dynamics._check_block(states[:2], 3, False, 10, time_of)  # a was not positive at the start
    with pytest.raises(RuntimeError, match=r"^non-finite state at t=1\.3 \(step 13\)"):
        dynamics._check_block(states, 3, False, 10, time_of)
    states[1, 3] = np.nan  # both faults in one row: non-finite wins
    with pytest.raises(RuntimeError, match=r"^non-finite state at t=1\.2 \(step 12\)"):
        dynamics._check_block(states, 3, True, 10, time_of)


@pytest.mark.parametrize(
    "t_end, dt, stride",
    [
        (1.2, 0.002, 7),  # 600 steps; 7 and 100 do not divide the block size
        (1.2, 0.002, 100),
        (1.2011, 0.002, 7),  # 600 steps and a short one, step 601
        (1.0251, 0.002, 5),  # 512 steps and a short one: the short step opens block 3
        (1.024, 0.002, 1),  # 512 steps, an exact multiple of the block size
        (1.024, 0.002, 5),
        (1.024, 0.002, 256),
        (1.024, 0.002, 1000),  # only the first and the final state
    ],
)
def test_block_edges_keep_the_reference_bits(np_rng, t_end, dt, stride):
    point = random_point(np_rng, 4)
    z0 = PhasePoint(point.a, point.b, 0.25)
    fast = integrate(z0, t_end, dt, store_stride=stride)
    assert_same_bits(fast, ref.integrate(z0, t_end, dt, store_stride=stride))


@pytest.mark.parametrize("stride", [1, 3])
def test_zero_step_run_is_the_initial_state(stride):
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0), 0.75)
    traj = integrate(z0, 0.0, 0.1, store_stride=stride)
    assert traj.times.tolist() == [0.75]
    assert traj.states.tobytes() == z0.state()[np.newaxis].tobytes()
    assert_same_bits(traj, ref.integrate(z0, 0.0, 0.1, store_stride=stride))


def test_toda_velocity_runs_four_times_per_step(monkeypatch):
    # perfbench counts lattice.toda_velocity through the dynamics module global
    calls = []
    real = dynamics.toda_velocity

    def counted(*args):
        calls.append(len(args))
        real(*args)

    monkeypatch.setattr(dynamics, "toda_velocity", counted)
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    traced = integrate(z0, 1.0, 0.3, store_stride=2)  # three steps of 0.3, one of 0.1
    assert len(calls) == 4 * 4
    assert list(traced.times) == [0.0, 0.6, 1.0]
    calls.clear()
    integrate(z0, 1.0, 0.1)
    assert len(calls) == 4 * 10
    monkeypatch.undo()
    assert_same_bits(traced, integrate(z0, 1.0, 0.3, store_stride=2))


# -- order of accuracy -----------------------------------------------------------------


def test_rk4_order_ratio(np_rng):
    for n in (3, 4):
        a = np_rng.uniform(0.2, 0.7, size=n - 1)
        b = np_rng.uniform(-0.5, 0.5, size=n)
        z0 = PhasePoint(tuple(a), tuple(b))
        ratio = order_of_accuracy_ratio(z0, 1.0, 0.02)
        assert 12.8 <= ratio <= 19.2


# -- drift certificates ---------------------------------------------------------------


def test_constant_trajectory_has_zero_drift():
    point = PhasePoint((0.0,), (1.0, -1.0))
    traj = integrate(point, 1.0, 0.01)
    report = drift_report(traj, 2)
    assert report.eigenvalue_drift == 0.0
    assert report.max_h_drift() == 0.0


def test_isospectral_drift_small(np_rng):
    z0 = random_point(np_rng, 4)
    traj = integrate(z0, 10.0, 1e-3)
    report = drift_report(traj, 4, stride=20)
    assert report.eigenvalue_drift < 1e-8
    assert report.max_h_drift() < 1e-8


def test_h1_drift_bounded_by_eigen_sum_drift(np_rng):
    z0 = random_point(np_rng, 3)
    traj = integrate(z0, 2.0, 1e-3)
    report = drift_report(traj, 3, stride=10)
    assert report.h_drift[1] <= 3 * report.eigenvalue_drift + 1e-15


@pytest.mark.parametrize("n, stride", [(2, 1), (4, 7), (32, 10)])
def test_drift_report_matches_point_spectra(np_rng, n, stride):
    # spectra taken from the state rows equal spectrum(traj.point(i)) bit for bit
    traj = integrate(random_point(np_rng, n), 0.5, 1e-2)
    m_max = min(n, 8)
    assert drift_report(traj, m_max, stride) == ref.drift_report(traj, m_max, stride)


def report_bits(report: DriftReport):
    return report.eigenvalue_drift.hex(), {m: v.hex() for m, v in report.h_drift.items()}


@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("n", [2, 3, 8, 33, 128])
def test_spectra_match_eigh_tridiagonal(np_rng, n, stride):
    # the direct dstevd calls give eigh_tridiagonal's bytes, per point and per row
    traj = integrate(random_point(np_rng, n), 0.5, 1e-2)
    m_max = min(n, 8)
    fast = drift_report(traj, m_max, stride)
    assert report_bits(fast) == report_bits(ref.row_drift_report(traj, m_max, stride))
    rows = dynamics._spectra(n, traj.states[::stride])
    for i, row in zip(range(0, len(traj.times), stride), rows):
        expected = ref.spectrum(traj.point(i)).tobytes()
        assert spectrum(traj.point(i)).tobytes() == expected and row.tobytes() == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_sample_raises_like_eigh_tridiagonal(bad):
    traj = integrate(PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0)), 0.1, 0.01)
    states = traj.states.copy()
    states[4, 1] = bad
    broken = Trajectory(traj.n, traj.times, states)
    raised = []
    for report in (drift_report, ref.row_drift_report):
        with pytest.raises(ValueError) as info:
            report(broken, 2, stride=2)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    # only the sampled rows are checked: row 4 is skipped at stride 3
    assert drift_report(broken, 2, stride=3) == ref.row_drift_report(broken, 2, stride=3)


def test_lapack_failure_raises(monkeypatch):
    def failing(d, e, compute_v):
        return np.zeros_like(d), np.zeros((1, 1)), 2

    monkeypatch.setattr(dynamics, "_dstevd", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        spectrum(PhasePoint((0.5,), (0.0, 0.0)))


def test_drift_report_rejects_stride_below_one():
    traj = integrate(PhasePoint((0.5,), (0.0, 0.0)), 0.1, 0.01)
    with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
        drift_report(traj, 2, stride=0)


def test_drift_report_json():
    report = DriftReport(1e-12, {1: 2e-13, 2: 3e-13})
    obj = report.to_json_obj()
    assert obj == {
        "eigenvalue_drift": 1e-12,
        "H_drift": {"1": 2e-13, "2": 3e-13},
    }


# -- trajectory output ------------------------------------------------------------------


def test_csv_format():
    z0 = PhasePoint((0.5,), (0.125, -0.125))
    traj = integrate(z0, 0.02, 0.01)
    buffer = io.StringIO()
    traj.write_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "t,a1,b1,b2"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.5
    assert len(lines) == 4  # header + three samples


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(2, np.array([0.0, 0.0]), np.zeros((2, 3)))


# -- symmetry map probe ------------------------------------------------------------------


def test_shift_symmetry_defect_is_tiny(np_rng):
    z0 = random_point(np_rng, 3)
    result = symmetry_map_test(build_Y(-1, 3), z0, 1e-3)
    # shifting all b by eps maps solutions to exact solutions
    assert result.defect < 1e-10


def test_flow_symmetry_defect_quadratic(np_rng):
    z0 = random_point(np_rng, 3)
    cand = SymmetryCandidate.from_field(toda_rhs(3))
    d1 = symmetry_map_test(cand, z0, 1e-3).defect
    d2 = symmetry_map_test(cand, z0, 5e-4).defect
    assert 3.0 < d1 / d2 < 5.0


def test_non_symmetry_defect_linear(np_rng):
    n = 3
    v = Vars(n)
    planted = SymmetryCandidate(
        n, v.zero, (v.zero,) * (n - 1), (v.b(1),) + (v.zero,) * (n - 1)
    )
    z0 = random_point(np_rng, n)
    d1 = symmetry_map_test(planted, z0, 1e-3).defect
    d2 = symmetry_map_test(planted, z0, 5e-4).defect
    assert 1.8 < d1 / d2 < 2.2


def test_symmetry_map_rejects_nonuniform_grid():
    # at t = 1e9 a float spacing is 1.2e-7, so steps of 2.5e-3 round unevenly
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0), 1e9)
    with pytest.raises(ValueError, match="residual grid must be uniform"):
        symmetry_map_test(build_Y(1, 3), z0, 1e-3)


@pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
def test_symmetry_map_rejects_non_finite_eps(eps):
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
        symmetry_map_test(build_Y(1, 3), z0, eps)


def test_zero_candidate_has_zero_defect(np_rng):
    n = 3
    v = Vars(n)
    zero = SymmetryCandidate(n, v.zero, (v.zero,) * (n - 1), (v.zero,) * n)
    result = symmetry_map_test(zero, random_point(np_rng, n), 1e-3)
    assert result.defect == 0.0
    assert result.raw_residual == result.baseline_residual


@pytest.mark.parametrize("k, n, m", [(1, 3, 4), (0, 3, 2)])
def test_symmetry_map_rejects_size_mismatch(k, n, m):
    # numpy's broadcast error (N=4) and an IndexError (N=2) before the check
    z0 = PhasePoint((0.5,) * (m - 1), (0.1,) * m)
    with pytest.raises(ValueError, match=f"^the candidate has N={n} but z0 has N={m}$"):
        symmetry_map_test(build_Y(k, n), z0, 1e-3)


def test_symmetry_map_rejects_nonzero_tau():
    from todasym.symmetry import candidate_time_translation

    z0 = PhasePoint((0.5,), (0.0, 0.0))
    with pytest.raises(ValueError, match="evolutionary"):
        symmetry_map_test(candidate_time_translation(2), z0, 1e-4)


# -- memoised base run ----------------------------------------------------------------------


@pytest.fixture
def base_runs():
    """The base-run memo, emptied before and after the test with the shifts memo."""
    dynamics._base_run.cache_clear()
    dynamics._SHIFTS.clear()
    yield dynamics._base_run
    dynamics._base_run.cache_clear()
    dynamics._SHIFTS.clear()


@pytest.fixture
def integrations(monkeypatch):
    """Counts the calls of dynamics.integrate, which the base run looks up at call time."""
    calls = []
    real = dynamics.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Counts the fields compiled by dynamics.CompiledField, looked up at call time."""
    fields = []
    real = dynamics.CompiledField

    def counted(field):
        fields.append(field)
        return real(field)

    monkeypatch.setattr(dynamics, "CompiledField", counted)
    return fields


def planted_candidate(n):
    v = Vars(n)
    return SymmetryCandidate(n, v.zero, (v.zero,) * (n - 1), (v.b(1),) + (v.zero,) * (n - 1))


def probe_candidates(n):
    return [build_Y(k, n) for k in range(-1, 4)] + [planted_candidate(n)]


PROBE_EPS = (1e-3, 5e-4, 2.5e-4)


def test_memoised_probe_equals_uncached_reference(base_runs, builds):
    # probe's z0 ranges and eps values over N = 3..6, the z0 interleaved in a
    # shuffled op order; the reference integrates each z0 once, outside the
    # memo, and evaluates each candidate's shifts once for all eps
    rng = random.Random(20240818)
    ops = []
    for n in (3, 4, 5, 6):
        z0 = PhasePoint(
            tuple(rng.uniform(0.2, 0.5) for _ in range(n - 1)),
            tuple(rng.uniform(-0.4, 0.4) for _ in range(n)),
        )
        traj = ref.base_trajectory(z0)
        for cand in probe_candidates(n):
            expected = ref.symmetry_map_test(cand, traj, PROBE_EPS)
            ops += [(cand, z0, eps, slow) for eps, slow in zip(PROBE_EPS, expected)]
    rng.shuffle(ops)
    for cand, z0, eps, slow in ops:
        assert symmetry_map_test(cand, z0, eps) == slow
    assert base_runs.cache_info().misses == 4
    assert len(builds) == 24  # 4 z0 x 6 candidates, each for all three eps


def test_probe_integrates_once_per_z0(base_runs, integrations, builds, np_rng):
    z0 = random_point(np_rng, 3, a_range=(0.2, 0.5), b_range=(-0.4, 0.4))
    for cand in probe_candidates(3):
        for eps in PROBE_EPS:
            symmetry_map_test(cand, z0, eps)
    assert len(integrations) == 1
    assert base_runs.cache_info().hits == 17
    assert len(builds) == 6  # and compiles each candidate once for the three eps


def reversed_terms(p):
    return Polynomial(p.n, dict(reversed(list(p.terms.items()))))


def test_equal_candidate_is_compiled_anew(base_runs, builds):
    # an equal candidate with its terms in another order sums them in another
    # order: its shifts differ in the last bits, so it must not share an entry
    cand = build_Y(3, 5)
    copy = SymmetryCandidate(
        cand.n,
        reversed_terms(cand.tau),
        tuple(map(reversed_terms, cand.phi)),
        tuple(map(reversed_terms, cand.psi)),
    )
    assert copy == cand and copy is not cand
    z0 = PhasePoint((0.3, 0.4, 0.25, 0.45), (0.1, -0.2, 0.3, 0.0, -0.1))
    symmetry_map_test(cand, z0, 1e-3)
    memoised = symmetry_map_test(copy, z0, 1e-3)
    assert len(builds) == 2
    traj, _, _ = base_runs(z0)
    cached = dynamics._SHIFTS[id(copy), z0][1]
    fresh = CompiledField(copy.as_field())(traj.states, traj.times)
    np.testing.assert_array_equal(cached, fresh)
    assert not np.array_equal(dynamics._SHIFTS[id(cand), z0][1], fresh)
    dynamics._SHIFTS.clear()
    assert symmetry_map_test(copy, z0, 1e-3) == memoised


def test_shifts_memo_evicts_least_recently_used(base_runs, builds):
    n = 2
    v = Vars(n)
    z0 = PhasePoint((0.5,), (0.1, -0.1))
    cands = [SymmetryCandidate(n, v.zero, (v.zero,), (v.const(i), v.zero)) for i in range(65)]
    for cand in cands[:64]:
        symmetry_map_test(cand, z0, 1e-3)
    symmetry_map_test(cands[0], z0, 1e-3)  # a hit: cands[1] is now the oldest
    assert len(builds) == 64
    symmetry_map_test(cands[64], z0, 1e-3)
    assert len(dynamics._SHIFTS) == 64
    assert (id(cands[0]), z0) in dynamics._SHIFTS
    assert (id(cands[1]), z0) not in dynamics._SHIFTS
    symmetry_map_test(cands[1], z0, 1e-3)  # evicted, so compiled again
    assert len(builds) == 66
    assert (id(cands[2]), z0) not in dynamics._SHIFTS


def test_base_run_key_covers_every_grid_parameter(base_runs, integrations):
    # the grid is fixed but for its start, so the key is z0: its a, b and time
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    cand = build_Y(1, 3)
    symmetry_map_test(cand, z0, 1e-3)
    symmetry_map_test(cand, z0, 5e-4)
    assert len(integrations) == 1
    changes = (
        PhasePoint(z0.a, z0.b, 0.5),
        PhasePoint((0.5, 0.25), z0.b),
        PhasePoint(z0.a, (0.1, -0.2, 0.125)),
    )
    for point in changes:
        before = len(integrations)
        symmetry_map_test(cand, point, 1e-3)
        assert len(integrations) == before + 1, point
    assert base_runs.cache_info().misses == 4


def test_base_run_key_ignores_entry_types(base_runs, integrations):
    # lists and numpy floats become float tuples: a hashable key, the same run
    z0 = PhasePoint((0.5, 0.25), (0.125, -0.25, 0.0))
    same = PhasePoint([np.float64(0.5), 0.25], np.array([0.125, -0.25, 0.0]), 0)
    for point in (z0, same):
        symmetry_map_test(build_Y(1, 3), point, 1e-3)
    assert len(integrations) == 1


def test_base_run_arrays_are_read_only(base_runs):
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    cand = build_Y(1, 3)
    symmetry_map_test(cand, z0, 1e-3)
    traj, baseline, _ = base_runs(z0)
    assert base_runs.cache_info().hits == 1
    held, shifts = dynamics._SHIFTS[id(cand), z0]  # the memoised shifts too
    assert held is cand
    for array in (traj.times, traj.states, baseline, shifts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_probe_hit_computes_only_the_perturbed_residuals(base_runs, monkeypatch):
    # the base run checks its grid and takes its residuals and their max once
    calls, checks = [], []
    real_residuals, real_allclose = dynamics._grid_residuals, np.allclose
    monkeypatch.setattr(dynamics, "_grid_residuals", lambda *args: calls.append(1) or real_residuals(*args))
    monkeypatch.setattr(np, "allclose", lambda *args: checks.append(1) or real_allclose(*args))
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    results = [symmetry_map_test(build_Y(1, 3), z0, eps) for eps in PROBE_EPS]
    assert len(calls) == 1 + len(PROBE_EPS) and len(checks) == 1
    _, baseline, baseline_residual = base_runs(z0)
    assert {r.baseline_residual for r in results} == {float(np.max(np.abs(baseline)))}
    assert type(baseline_residual) is float


def test_aborted_base_run_is_not_cached(base_runs, integrations):
    # a_1^2 overflows in the first step's stages
    z0 = PhasePoint((1e154, 0.3), (0.1, -0.2, 0.0))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="non-finite state at t=0.0005 \\(step 1\\)"):
            symmetry_map_test(build_Y(1, 3), z0, 1e-3)
    assert len(integrations) == 2
    assert base_runs.cache_info().currsize == 0


# -- one-matrix field and one-call residuals against the reference loops ----------------


def oracle_states(np_rng, n):
    z0 = random_point(np_rng, n)
    return integrate(z0, 1.0, 1e-2, store_stride=10)


def assert_fields_agree(field, traj):
    fast, slow = CompiledField(field), ref.CompiledField(field)
    for x, t in zip(traj.states, traj.times):
        expected = slow(x, float(t))
        # the matrix product may sum a component's terms in another order than
        # the per-component dot: allow a few hundred float64 ulps of the largest
        scale = max(float(np.max(np.abs(expected))), 1.0)
        np.testing.assert_allclose(fast(x, float(t)), expected, rtol=1e-12, atol=1e-13 * scale)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_compiled_field_matches_reference_on_Y(np_rng, n):
    traj = oracle_states(np_rng, n)
    for k in range(-1, 7):
        assert_fields_agree(build_Y(k, n).as_field(), traj)


def test_compiled_field_empty_and_time_dependent(np_rng):
    n = 4
    v = Vars(n)
    traj = oracle_states(np_rng, n)
    empty = VectorField(n, (v.zero,) * (n - 1), (v.zero,) * n)
    assert CompiledField(empty)(traj.states[-1], 1.0).tolist() == [0.0] * (2 * n - 1)
    assert_fields_agree(empty, traj)
    timed = VectorField(
        n,
        (v.t * v.a(1), v.zero, v.t**2 * v.b(3)),
        (v.t, v.zero, v.a(2) * v.b(1) - v.t * v.b(4) ** 2, 3 * v.t**3),
    )
    assert_fields_agree(timed, traj)
    assert_one_point_bits(timed, traj)


# -- the stacked field against the one-matrix, one-point evaluator ----------------------


def assert_one_point_bits(field, traj):
    """Stacked and single-point calls both give the oracle's bytes."""
    fast, slow = CompiledField(field), ref.MatrixField(field)
    expected = np.array([slow(x, float(t)) for x, t in zip(traj.states, traj.times)])
    stacked = fast(traj.states, traj.times)
    assert stacked.shape == traj.states.shape
    assert stacked.tobytes() == expected.tobytes()
    for x, t, row in zip(traj.states, traj.times, expected):
        assert fast(x, float(t)).tobytes() == row.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_field_has_one_point_bits_on_Y(np_rng, n):
    traj = oracle_states(np_rng, n)
    for k in range(-1, 5):
        assert_one_point_bits(build_Y(k, n).as_field(), traj)


def test_empty_field_is_zero_stacked_and_single(np_rng):
    # no terms: an exponent matrix of shape (0, 2N), whose plain max() raises
    n = 3
    v = Vars(n)
    traj = oracle_states(np_rng, n)
    compiled = CompiledField(VectorField(n, (v.zero,) * (n - 1), (v.zero,) * n))
    assert compiled(traj.states, traj.times).tobytes() == np.zeros(traj.states.shape).tobytes()
    assert compiled(traj.states[3], float(traj.times[3])).tobytes() == np.zeros(2 * n - 1).tobytes()


def test_constant_field_is_its_coefficients(np_rng):
    # Y_-1 shifts every b by 1 and has only exponent 0
    n = 4
    traj = oracle_states(np_rng, n)
    compiled = CompiledField(build_Y(-1, n).as_field())
    row = [0.0] * (n - 1) + [1.0] * n
    assert compiled(traj.states, traj.times).tolist() == [row] * len(traj.times)
    assert compiled(traj.states[0], 0.0).tolist() == row


@pytest.mark.parametrize("n", [2, 3, 6])
def test_grid_residuals_match_reference(np_rng, n):
    traj = integrate(random_point(np_rng, n), 0.5, 1e-3, store_stride=5)
    shifts = CompiledField(build_Y(2, n).as_field())
    perturbed = traj.states + 1e-3 * np.array(
        [shifts(x, float(t)) for x, t in zip(traj.states, traj.times)]
    )
    for states in (traj.states, perturbed):
        fast = _grid_residuals(n, traj.times, states)
        assert fast.shape == (len(traj.times) - 2, 2 * n - 1)
        assert np.array_equal(fast, ref.grid_residuals(n, traj.times, states))
