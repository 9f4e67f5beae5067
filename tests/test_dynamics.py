"""Integration, spectra, drift certificates and the symmetry map probe."""

import io
import math
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
from todasym.lattice import PhasePoint, toda_rhs, toda_velocity
from todasym.ratpoly import Vars
from todasym.symmetry import SymmetryCandidate, build_Y
import reference_dynamics as ref
from algebra_helpers import evaluate


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
    # integrate db/ds = b^2 from b = 1: blows up in finite time
    v = Vars(2)
    from todasym.fields import VectorField

    field = VectorField(2, (v.zero,), (v.b(1) ** 2, v.zero))
    z0 = PhasePoint((1.0,), (1.0, 0.0))
    with pytest.raises(RuntimeError, match="non-finite"):
        integrate(z0, 20.0, 0.5, field=field)


def test_time_dependent_field_integration():
    # dx/ds = t along the t-axis only: db_1/ds = s so b_1(t) = t^2/2
    v = Vars(2)
    from todasym.fields import VectorField

    field = VectorField(2, (v.zero,), (v.t, v.zero))
    z0 = PhasePoint((1.0,), (0.0, 0.0))
    traj = integrate(z0, 2.0, 0.01, field=field)
    assert traj.states[-1][1] == pytest.approx(2.0, rel=1e-12)


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
    v = Vars(2)
    field = VectorField(2, (v.zero,), (v.t, v.zero))
    z0 = PhasePoint((1.0,), (0.0, 0.0), 0.5)
    traj = integrate(z0, 0.25, 0.1, field=field)
    assert traj.times[-1] == 0.75
    # db_1/ds = s from s = 0.5 to 0.75; RK4 is exact on this quadratic
    assert traj.states[-1][1] == pytest.approx((0.75**2 - 0.5**2) / 2, rel=1e-12)


# -- the preallocated stepper against the allocating reference loop ------------------


def assert_same_bits(fast: Trajectory, slow: Trajectory):
    assert fast.times.shape == slow.times.shape and fast.states.shape == slow.states.shape
    assert fast.times.tobytes() == slow.times.tobytes()
    assert fast.states.tobytes() == slow.states.tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_toda_kernel_matches_allocating_reference(np_rng, n):
    # the kernel leaves the b-block halved: doubled, it is the reference's db
    a = np_rng.uniform(-1.0, 1.0, size=n - 1)
    b = np_rng.uniform(-1.0, 1.0, size=n)
    da, half_db, pad = np.full(n - 1, np.nan), np.full(n, np.nan), np.zeros(n + 1)
    toda_velocity(a, b[1:], b[:-1], da, half_db, pad[1:-1], pad[1:], pad[:-1])
    ref_da, ref_db = ref.toda_velocity(a, b)
    assert da.tobytes() == ref_da.tobytes() and (2 * half_db).tobytes() == ref_db.tobytes()
    assert pad[0] == pad[-1] == 0.0


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 8, 33])
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


@pytest.mark.parametrize("stride", [1, 7])
def test_integrate_matches_reference_on_time_dependent_field(np_rng, stride):
    # Y_1 = X_1 + t chi_3 depends on t; the run starts at t = 0.25 and ends short
    field = build_Y(1, 3).as_field()
    point = random_point(np_rng, 3)
    z0 = PhasePoint(point.a, point.b, 0.25)
    fast = integrate(z0, 0.5, 0.015, field=field, store_stride=stride)
    assert_same_bits(fast, ref.integrate(z0, 0.5, 0.015, field=field, store_stride=stride))


def blow_up_field():
    # db_1/ds = b_1^2 from b_1 = 1: non-finite in finite time
    v = Vars(2)
    return VectorField(2, (v.zero,), (v.b(1) ** 2, v.zero))


ABORTS = [
    (PhasePoint((1.6, 1.9), (1.9, -1.7, -0.4)), 20.0, 0.55, None, "crossed zero"),
    (PhasePoint((1.0,), (1.0, 0.0)), 20.0, 0.5, blow_up_field(), "non-finite"),
    # a_1^2 is finite but 2 a_1^2 overflows: the halved kernel never forms
    # 2 a_1^2, and the run must still abort where the full velocity does
    (PhasePoint((9.6e153,), (0.0, 0.0)), 1.0, 1e-3, None, "non-finite"),
    (PhasePoint((1.2e154, 0.5), (0.1, -0.2, 0.0)), 1.0, 1e-3, None, "non-finite"),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "z0, t_end, dt, field, message",
    ABORTS,
    ids=["crossing", "non-finite", "overflow-9.6e153", "overflow-1.2e154"],
)
def test_integrate_aborts_like_allocating_reference(z0, t_end, dt, field, message):
    raised = []
    for run in (integrate, ref.integrate):
        with pytest.raises(RuntimeError, match=message) as info:
            run(z0, t_end, dt, field=field)
        raised.append((type(info.value), str(info.value)))
    # the message names the time and the step, so equal messages mean the same step
    assert raised[0] == raised[1]


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
    calls.clear()
    integrate(z0, 1.0, 0.1, field=toda_rhs(3))  # a compiled field has its own evaluation
    assert calls == []
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
    result = symmetry_map_test(build_Y(-1, 3), z0, 1e-3, t_end=0.5)
    # shifting all b by eps maps solutions to exact solutions
    assert result.defect < 1e-10


def test_flow_symmetry_defect_quadratic(np_rng):
    z0 = random_point(np_rng, 3)
    cand = SymmetryCandidate.from_field(toda_rhs(3))
    d1 = symmetry_map_test(cand, z0, 1e-3, t_end=0.5).defect
    d2 = symmetry_map_test(cand, z0, 5e-4, t_end=0.5).defect
    assert 3.0 < d1 / d2 < 5.0


def test_non_symmetry_defect_linear(np_rng):
    n = 3
    v = Vars(n)
    planted = SymmetryCandidate(
        n, v.zero, (v.zero,) * (n - 1), (v.b(1),) + (v.zero,) * (n - 1)
    )
    z0 = random_point(np_rng, n)
    d1 = symmetry_map_test(planted, z0, 1e-3, t_end=0.5).defect
    d2 = symmetry_map_test(planted, z0, 5e-4, t_end=0.5).defect
    assert 1.8 < d1 / d2 < 2.2


def test_symmetry_map_rejects_nonuniform_grid(np_rng):
    # 600 steps at stride 7 leave a last sample 5 steps after the one before
    z0 = random_point(np_rng, 3)
    with pytest.raises(ValueError, match="uniform"):
        symmetry_map_test(build_Y(1, 3), z0, 1e-3, t_end=0.3, sample_stride=7)


@pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
def test_symmetry_map_rejects_non_finite_eps(eps):
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
        symmetry_map_test(build_Y(1, 3), z0, eps, t_end=0.1)


def test_zero_candidate_has_zero_defect(np_rng):
    n = 3
    v = Vars(n)
    zero = SymmetryCandidate(n, v.zero, (v.zero,) * (n - 1), (v.zero,) * n)
    result = symmetry_map_test(zero, random_point(np_rng, n), 1e-3, t_end=0.25)
    assert result.defect == 0.0
    assert result.raw_residual == result.baseline_residual


def test_symmetry_map_rejects_nonzero_tau():
    from todasym.symmetry import candidate_time_translation

    z0 = PhasePoint((0.5,), (0.0, 0.0))
    with pytest.raises(ValueError, match="evolutionary"):
        symmetry_map_test(candidate_time_translation(2), z0, 1e-4)


# -- memoised base run ----------------------------------------------------------------------


@pytest.fixture
def base_runs():
    dynamics._base_run.cache_clear()
    yield dynamics._base_run
    dynamics._base_run.cache_clear()


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


def planted_candidate(n):
    v = Vars(n)
    return SymmetryCandidate(n, v.zero, (v.zero,) * (n - 1), (v.b(1),) + (v.zero,) * (n - 1))


def probe_candidates(n):
    return [build_Y(k, n) for k in range(-1, 4)] + [planted_candidate(n)]


PROBE_EPS = (1e-3, 5e-4, 2.5e-4)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"t_end": 0.0}, "this grid has 1"),
        ({"t_end": 5e-4, "sample_stride": 1}, "this grid has 2"),
        ({"t_end": 0.01, "dt": 1e-3, "sample_stride": 10}, "this grid has 2"),
        ({"sample_stride": 0}, "sample_stride must be >= 1, got 0"),
        ({"sample_stride": -1}, "sample_stride must be >= 1, got -1"),
    ],
    ids=["t_end-0", "t_end-dt", "one-stride", "stride-0", "stride-negative"],
)
def test_symmetry_map_rejects_short_grid_and_bad_stride(base_runs, kwargs, message):
    z0 = PhasePoint((0.5,), (0.0, 0.0))
    symmetry_map_test(build_Y(1, 2), z0, 1e-3, t_end=0.05)
    before = base_runs.cache_info()
    with pytest.raises(ValueError, match=message):
        symmetry_map_test(build_Y(1, 2), z0, 1e-3, **kwargs)
    # rejected before the memo is consulted, so no cache state can change the error
    assert base_runs.cache_info() == before


def test_memoised_probe_equals_uncached_reference(base_runs):
    # probe's z0 ranges and eps values over N = 3..6, the z0 interleaved in a
    # shuffled op order; t_end = 0.25 keeps the 72 reference integrations short
    rng = random.Random(20240818)
    ops = []
    for n in (3, 4, 5, 6):
        z0 = PhasePoint(
            tuple(rng.uniform(0.2, 0.5) for _ in range(n - 1)),
            tuple(rng.uniform(-0.4, 0.4) for _ in range(n)),
        )
        ops += [(cand, z0, eps) for cand in probe_candidates(n) for eps in PROBE_EPS]
    rng.shuffle(ops)
    for cand, z0, eps in ops:
        fast = symmetry_map_test(cand, z0, eps, t_end=0.25)
        slow = ref.symmetry_map_test(cand, z0, eps, t_end=0.25)
        assert fast == slow
    assert base_runs.cache_info().misses == 4


def test_probe_integrates_once_per_z0(base_runs, integrations, np_rng):
    z0 = random_point(np_rng, 3, a_range=(0.2, 0.5), b_range=(-0.4, 0.4))
    for cand in probe_candidates(3):
        for eps in PROBE_EPS:
            symmetry_map_test(cand, z0, eps)
    assert len(integrations) == 1
    assert base_runs.cache_info().hits == 17


def test_base_run_key_covers_every_grid_parameter(base_runs, integrations):
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    cand = build_Y(1, 3)
    base = {"t_end": 0.1, "dt": 1e-3, "sample_stride": 5}
    symmetry_map_test(cand, z0, 1e-3, **base)
    symmetry_map_test(cand, z0, 5e-4, **base)
    assert len(integrations) == 1
    shifted_start = PhasePoint(z0.a, z0.b, 0.5)
    symmetry_map_test(cand, shifted_start, 1e-3, **base)
    assert len(integrations) == 2
    for change in ({"t_end": 0.2}, {"dt": 5e-4}, {"sample_stride": 4}):
        before = len(integrations)
        symmetry_map_test(cand, z0, 1e-3, **{**base, **change})
        assert len(integrations) == before + 1, change
    assert base_runs.cache_info().misses == 5


def test_base_run_key_ignores_entry_types(base_runs, integrations):
    # lists and numpy floats become float tuples: a hashable key, the same run
    z0 = PhasePoint((0.5, 0.25), (0.125, -0.25, 0.0))
    same = PhasePoint([np.float64(0.5), 0.25], np.array([0.125, -0.25, 0.0]), 0)
    for point in (z0, same):
        symmetry_map_test(build_Y(1, 3), point, 1e-3, t_end=0.1)
    assert len(integrations) == 1


def test_base_run_arrays_are_read_only(base_runs):
    z0 = PhasePoint((0.5, 0.3), (0.1, -0.2, 0.0))
    symmetry_map_test(build_Y(1, 3), z0, 1e-3, t_end=0.1)
    traj, baseline = base_runs(z0, 0.1, 5e-4, 5)
    assert base_runs.cache_info().hits == 1
    for array in (traj.times, traj.states, baseline):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_aborted_base_run_is_not_cached(base_runs, integrations):
    # the coarse step drives a coupling through zero (see the abort test above)
    z0 = PhasePoint((1.6, 1.9), (1.9, -1.7, -0.4))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="crossed zero"):
            symmetry_map_test(build_Y(1, 3), z0, 1e-3, t_end=20.0, dt=0.55, sample_stride=1)
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
    """Stacked, single-point and out= calls all give the oracle's bytes."""
    fast, slow = CompiledField(field), ref.MatrixField(field)
    expected = np.array([slow(x, float(t)) for x, t in zip(traj.states, traj.times)])
    stacked = fast(traj.states, traj.times)
    assert stacked.shape == traj.states.shape
    assert stacked.tobytes() == expected.tobytes()
    out = np.full(traj.states.shape[1], np.nan)
    for x, t, row in zip(traj.states, traj.times, expected):
        assert fast(x, float(t)).tobytes() == row.tobytes()
        fast(x, float(t), out=out)
        assert out.tobytes() == row.tobytes()


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
