"""Numerical side: integrate flows, certify spectra, probe symmetries.

Everything here is deliberately plain: a fixed-step classical fourth-order
Runge-Kutta stepper (trajectories of interest are short and smooth, and a
fixed step keeps drift assertions deterministic), LAPACK's symmetric
tridiagonal eigensolver for spectra, and finite differences to measure how
well a perturbed trajectory still satisfies the equations.  The stepper
allocates its buffers once per run (stage point, k1..k4, weighted sum and
the stored rows), binds its four stage right-hand sides to them, and
writes every velocity, stage and update into them with ``out=`` ufuncs in
the allocating loop's order, so the states keep its bits.  The Toda
velocity is the in-place ``lattice.toda_velocity``, which leaves the
b-block halved; the b-block's stage and update weights are doubled
instead, and doubling is exact.  A spectrum is one call of LAPACK
``dstevd``, the routine scipy's ``eigh_tridiagonal`` picks for eigenvalues
only, without that wrapper's per-call checks; scipy is imported at the
first spectrum, so ``verify``, ``symcheck``, ``hierarchy`` and the probe
never load it.

The continuous Toda flow preserves a_i > 0 exactly; the discrete stepper
does not, so crossing a_i <= 0 aborts with a diagnostic (the step size is
too coarse for the data).  A polynomial field is compiled once to per-variable
exponent columns over (a, b, t) and a weight matrix holding each term's
coefficient in its component's column; a stack of points is evaluated with a
power table, a left fold of in-place products over the variables and a
row-wise product with the weights.  The finite-difference residuals of a
sampled curve are one ``flow_residuals`` call on the transposed sample arrays.

The symmetry map probe tests many candidates and eps values on one base
trajectory, so its base run (the strided Toda trajectory and its baseline
residuals) is memoised on ``(z0, t_end, dt, sample_stride)``.  ``integrate``
is deterministic, so a cache hit returns the very arrays a fresh run would.
The cache holds 8 runs, enough for the six initial points that a probe
interleaves (one z0 is the common case); each run is a few hundred samples,
well under 1 MB in total.  The cached arrays are read-only, so no caller
can corrupt a later probe.  Failed runs are not cached: an aborting
integration raises again on every call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import IO

import numpy as np

from .fields import VectorField
from .lattice import PhasePoint, flow_residuals, toda_velocity
from .symmetry import SymmetryCandidate


class CompiledField:
    """Polynomial vector field flattened to numpy arrays for fast evaluation.

    Takes points x (S, 2N-1) and times t (S,), or one point and a scalar t, and
    gives each the bits of ``np.prod(np.append(x, t) ** exps, axis=1) @ weights``:
    the same powers, factors multiplied in variable order (a factor x**0 is an
    exact 1.0), and one 1 x T product per row, not an (S, T) block product.
    """

    def __init__(self, field: VectorField):
        self.n = field.n
        terms = [
            (i, exps, float(coeff))
            for i, poly in enumerate(field.components())
            for exps, coeff in poly.terms.items()
        ]
        rows = np.arange(len(terms))
        exps = np.array([e for _, e, _ in terms], dtype=np.int64).reshape(rows.size, 2 * field.n)
        self._powers = np.arange(exps.max(initial=0) + 1)
        cols = np.ascontiguousarray(exps.T)
        self._fold = [(v, cols[v]) for v in np.flatnonzero(cols.any(axis=1))] or [(0, cols[0])]
        self._weights = np.zeros((rows.size, 2 * field.n - 1))
        self._weights[rows, [i for i, _, _ in terms]] = [c for _, _, c in terms]

    def __call__(self, x: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
        table = np.concatenate((x, np.expand_dims(t, -1)), axis=-1)[..., None] ** self._powers
        (v, col), *rest = self._fold
        monos = np.ascontiguousarray(table[..., v, col])  # strided rows would sum differently
        for v, col in rest:
            monos *= table[..., v, col]
        target = None if out is None else out[..., None, :]
        return np.matmul(monos[..., None, :], self._weights, out=target)[..., 0, :]


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times strictly increasing, one state row per sample."""

    n: int
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if self.states.shape != (len(self.times), 2 * self.n - 1):
            raise ValueError("state array shape does not match times and size")

    def point(self, index: int) -> PhasePoint:
        return PhasePoint.from_state(self.n, self.states[index], float(self.times[index]))

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        header = ["t"]
        header += [f"a{i}" for i in range(1, self.n)]
        header += [f"b{i}" for i in range(1, self.n + 1)]
        writer.writerow(header)
        for t, row in zip(self.times, self.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def integrate(
    z0: PhasePoint,
    t_end: float,
    dt: float,
    field: VectorField | None = None,
    store_stride: int = 1,
) -> Trajectory:
    """Integrate from z0 with fixed-step classical fourth-order Runge-Kutta.

    field=None integrates the Toda flow itself and aborts when couplings
    that all started positive lose positivity (dt is too coarse); a
    VectorField (possibly t-dependent) is compiled first.  When t_end / dt
    is not whole within a relative 1e-9, a shortened last step ends exactly
    at z0.time + t_end.  Every store_stride-th state (store_stride >= 1) and
    the final state are stored, into arrays sized before the first step.
    Both flows run one loop, whose four stage right-hand sides are bound to
    the run's buffers before the first step.
    """
    steps, short = _step_count(t_end, dt)
    if store_stride < 1:
        raise ValueError(f"store_stride must be >= 1, got {store_stride}")
    n = z0.n
    positive_a = field is None and n > 1 and all(ai > 0 for ai in z0.a)
    if field is not None and field.n != n:
        raise ValueError("field and initial point have different lattice sizes")
    x = z0.state()
    y, acc, *k = np.empty((6, x.size))  # stage point (later 2 k3), weighted sum, k1..k4
    points = (x, y, y, y)
    scale = np.ones(x.size)  # per component: the stage and update weights in units of h
    if field is None:
        rhs1, rhs2, rhs3, rhs4 = _toda_stages(n, points, k)
        scale[n - 1 :] = 2.0  # the Toda stages leave the b-block of k halved
    else:
        compiled = CompiledField(field)
        rhs1, rhs2, rhs3, rhs4 = (partial(compiled, p, out=ki) for p, ki in zip(points, k))
    k1, k2, k3, k4 = k
    rows = 1 + steps // store_stride + (steps % store_stride > 0)
    times, states = np.empty(rows), np.empty((rows, x.size))
    times[0], states[0] = z0.time, x
    row = 1
    a = x[: n - 1]
    zero = np.zeros(x.size)  # x . 0 is nan exactly when an entry of x is inf or nan
    least = np.minimum.reduce  # a.min() without its Python-level wrapper
    t = z0.time
    h = dt
    half, whole, sixth = (scale * c for c in (0.5 * h, h, h / 6.0))
    for step in range(1, steps + 1):
        last = short and step == steps
        if last:
            h = t_end - (step - 1) * dt
            half, whole, sixth = (scale * c for c in (0.5 * h, h, h / 6.0))
        t_half = t + 0.5 * h
        rhs1(t)
        np.add(x, np.multiply(k1, half, out=y), out=y)
        rhs2(t_half)
        np.add(x, np.multiply(k2, half, out=y), out=y)
        rhs3(t_half)
        np.add(x, np.multiply(k3, whole, out=y), out=y)
        rhs4(t + h)
        np.add(k1, np.multiply(k2, 2.0, out=acc), out=acc)
        np.add(acc, np.multiply(k3, 2.0, out=y), out=acc)
        np.add(acc, k4, out=acc)
        np.add(x, np.multiply(acc, sixth, out=acc), out=x)
        t = z0.time + (t_end if last else step * dt)
        if not math.isfinite(x.dot(zero)):
            raise RuntimeError(
                f"non-finite state at t={t:.6g} (step {step}); "
                "reduce dt or check the field"
            )
        if positive_a and least(a) <= 0.0:
            raise RuntimeError(
                f"off-diagonal entry crossed zero at t={t:.6g} (step {step}); "
                "dt is too large for this trajectory"
            )
        if step % store_stride == 0 or step == steps:
            times[row], states[row] = t, x
            row += 1
    return Trajectory(n, times, states)


def _toda_stages(n: int, points: tuple, k: list[np.ndarray]) -> list:
    """The four Toda stage right-hand sides: toda_velocity on fixed views.

    Stage i reads points[i] and writes k[i] with its b-block halved.  The
    kernel is read from this module's namespace once per run, so a wrapped
    or patched toda_velocity is the one called, four times per step.
    """
    kernel = toda_velocity
    pad = np.zeros(n + 1)
    squares = (pad[1:-1], pad[1:], pad[:-1])
    stages = []
    for p, ki in zip(points, k):
        b = p[n - 1 :]
        args = (p[: n - 1], b[1:], b[:-1], ki[: n - 1], ki[n - 1 :], *squares)
        stages.append(lambda t, args=args: kernel(*args))
    return stages


# integrate steps at roughly 4e4-6e4 steps/s on one core of a shared 2-core
# host (N = 4..128), so 1e7 steps is minutes of work.  The stored rows are
# one array sized before the first step: at store_stride 1 that is
# 8 (2N - 1) bytes per step, 20 GB for 1e7 steps at N = 128.  A larger count
# is refused before any step runs; the longest run any caller, test or demo
# needs is 40,000 steps.
MAX_STEPS = 10**7


def _step_count(t_end: float, dt: float) -> tuple[int, bool]:
    """Number of RK4 steps from 0 to t_end, and whether the last one is short."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt = {ratio} is not a finite step count")
    steps = round(ratio)
    short = not math.isclose(ratio, steps, rel_tol=1e-9)
    if short:
        steps = math.floor(ratio) + 1
    if steps > MAX_STEPS:
        raise ValueError(f"t_end / dt = {ratio:.6g} steps exceeds the limit of {MAX_STEPS}")
    return steps, short


def spectrum(point: PhasePoint) -> np.ndarray:
    """Eigenvalues of the Jacobi matrix, ascending."""
    return _spectra(point.n, point.state()[np.newaxis])[0]


def _spectra(n: int, states: np.ndarray) -> np.ndarray:
    """Ascending Jacobi eigenvalues of each state row, one row each.

    The b-block is the diagonal and the a-block the off-diagonal.  Each row
    is one call of LAPACK dstevd, the routine eigh_tridiagonal(d, e,
    eigvals_only=True) selects, so the eigenvalues keep its bits; its
    finiteness check runs once here, over all rows, with its message.
    """
    if not np.isfinite(states).all():
        raise ValueError("array must not contain infs or NaNs")
    stevd = _dstevd()
    spectra = np.empty((len(states), n))
    for row, x in zip(spectra, states):
        row[:], _, info = stevd(x[n - 1 :], x[: n - 1], compute_v=0)
        if info:
            raise np.linalg.LinAlgError(f"LAPACK dstevd failed with info={info}")
    return spectra


@lru_cache(maxsize=None)
def _dstevd():
    """LAPACK dstevd; scipy is imported here, on the first spectrum."""
    from scipy.linalg.lapack import dstevd

    return dstevd


@dataclass(frozen=True)
class DriftReport:
    """Worst-case movement of spectrum and Hamiltonians along a trajectory."""

    eigenvalue_drift: float
    h_drift: dict[int, float]

    def max_h_drift(self) -> float:
        return max(self.h_drift.values(), default=0.0)

    def to_json_obj(self) -> dict:
        return {
            "eigenvalue_drift": self.eigenvalue_drift,
            "H_drift": {str(m): v for m, v in sorted(self.h_drift.items())},
        }


def drift_report(traj: Trajectory, m_max: int, stride: int = 1) -> DriftReport:
    """Compare eigenvalues and H_1..H_{m_max} of each sample to the first."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    spectra = _spectra(traj.n, traj.states[::stride])
    eig_drift = float(np.max(np.abs(spectra - spectra[0])))
    h_drift = {}
    for m in range(1, m_max + 1):
        values = np.sum(spectra**m, axis=1) / m
        h_drift[m] = float(np.max(np.abs(values - values[0])))
    return DriftReport(eig_drift, h_drift)


def order_of_accuracy_ratio(z0: PhasePoint, t_end: float, dt: float) -> float:
    """Step-halving error ratio; close to 16 for a fourth-order method."""
    finals = []
    for scale in (1, 2, 4):
        traj = integrate(z0, t_end, dt / scale)
        finals.append(traj.states[-1])
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    if e2 == 0.0:
        raise RuntimeError("halved-step solutions coincide; dt too small to resolve")
    return float(e1 / e2)


@dataclass(frozen=True)
class SymmetryMapResult:
    """Finite-difference residuals of a perturbed trajectory.

    raw_residual is the max equation residual of the perturbed curve,
    baseline_residual the same for the unperturbed samples (pure
    discretization), and defect the max residual after subtracting the
    baseline arrays, which isolates the part introduced by the perturbation.
    For a true symmetry the defect scales like eps^2, for anything else
    like eps.  t_end and dt are the length and step of the base run from z0.
    """

    eps: float
    t_end: float
    dt: float
    defect: float
    raw_residual: float
    baseline_residual: float


def symmetry_map_test(
    cand: SymmetryCandidate,
    z0: PhasePoint,
    eps: float,
    t_end: float = 1.0,
    dt: float = 5.0e-4,
    sample_stride: int = 5,
) -> SymmetryMapResult:
    """Push a solution by eps times a candidate field and re-test the equations.

    The Toda flow is integrated from z0, each sample z(t) is displaced to
    z(t) + eps * Y(z(t), t), and the displaced curve's time derivative
    (central differences on the sample grid) is compared against the flow.
    The base trajectory and its residuals come from a memoised run (see the
    module docstring).  A sample grid that is not uniform (see integrate) or
    has fewer than three samples raises ValueError.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not cand.is_evolutionary():
        raise ValueError("the map test applies to evolutionary candidates (tau = 0)")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    steps, _ = _step_count(t_end, dt)
    samples = 1 + math.ceil(steps / sample_stride)
    if samples < 3:
        raise ValueError(f"the map test needs >= 3 samples, this grid has {samples}")
    traj, baseline = _base_run(z0, t_end, dt, sample_stride)
    shifts = CompiledField(cand.as_field())(traj.states, traj.times)
    perturbed = _grid_residuals(traj.n, traj.times, traj.states + eps * shifts)
    return SymmetryMapResult(
        eps=eps,
        t_end=t_end,
        dt=dt,
        defect=float(np.max(np.abs(perturbed - baseline))),
        raw_residual=float(np.max(np.abs(perturbed))),
        baseline_residual=float(np.max(np.abs(baseline))),
    )


@lru_cache(maxsize=8)
def _base_run(
    z0: PhasePoint, t_end: float, dt: float, sample_stride: int
) -> tuple[Trajectory, np.ndarray]:
    """The strided Toda trajectory from z0 and its residuals, all read-only."""
    traj = integrate(z0, t_end, dt, store_stride=sample_stride)
    baseline = _grid_residuals(traj.n, traj.times, traj.states)
    for array in (traj.times, traj.states, baseline):
        array.flags.writeable = False
    return traj, baseline


def _grid_residuals(n: int, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Central-difference equation residuals, one row per interior sample."""
    h = times[1:] - times[:-1]
    if not np.allclose(h, h[0]):
        raise ValueError("residual grid must be uniform")
    mid = states[1:-1].T
    xdot = ((states[2:] - states[:-2]) / (2.0 * h[0])).T
    gammas, deltas = flow_residuals(mid[: n - 1], mid[n - 1 :], xdot[: n - 1], xdot[n - 1 :])
    return np.array(gammas + deltas).T
