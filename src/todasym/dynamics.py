"""Numerical side: integrate the Toda flow, certify spectra, probe symmetries.

Everything here is deliberately plain: a fixed-step classical fourth-order
Runge-Kutta stepper (trajectories of interest are short and smooth, and a
fixed step keeps drift assertions deterministic), LAPACK's symmetric
tridiagonal eigensolver for spectra, and finite differences to measure how
well a perturbed trajectory still satisfies the equations.  The stepper
allocates its buffers once per run (two stage points, k1..k4 in one block,
the weighted sum, a block of step states and the stored rows), binds its
four stage right-hand sides to them, and writes every velocity, stage and
update into them with ufuncs bound once and given their output by
position, in the allocating loop's order, so the states keep its bits.
A stage point is laid out [a | spare | b | 0 | a^2 | 0], so the Toda
velocity, the in-place ``lattice.toda_velocity``, is three numpy calls; it
leaves the b-block halved and -b_N in the spare slot.  The b-block's stage
and update weights are doubled instead, and doubling is exact; the spare
slot's weight is 0.  k2 and k3 are doubled in place after their last stage
use, and the weighted sum is one reduction over the four rows of k, in the
order ((k1 + 2 k2) + 2 k3) + k4.  The step loop tests nothing: each
step's state goes to the next row of a block of BLOCK = 256 rows, and a
full block, and the last, is checked in one vectorised pass (the first row
with a non-finite entry, or with a coupling that is not positive, names the
abort) before it is copied to the stored rows, which hold every step in the
public [a | b] layout.  A faulty run thus takes at most 255 steps past its
first fault before it raises.  A step takes 8-10 us at N = 4..128.  The
sample times, which an abort's message reads too, are one vector
expression built before the first step.  A spectrum is one call of LAPACK
``dstevd``, the routine scipy's ``eigh_tridiagonal`` picks for eigenvalues
only, without that wrapper's per-call checks; scipy is imported at the
first spectrum, so ``verify``, ``symcheck``, ``hierarchy`` and the probe
never load it.

The continuous Toda flow preserves a_i > 0 exactly; the discrete stepper
does not, so crossing a_i <= 0 aborts with a diagnostic (the step size is
too coarse for the data).  The probe evaluates a candidate's polynomial
field on all samples of the base trajectory in one stacked call: the field
is compiled once to per-variable exponent columns over (a, b, t) and a
weight matrix holding each term's coefficient in its component's column,
and the stack is evaluated with a power table, a left fold of in-place
products over the variables and a row-wise product with the weights.  The
finite-difference residuals of a sampled curve are one ``flow_residuals``
call on a contiguous component-major copy of the samples, since its blocks
iterate far faster than strided views of the sample-major rows.

The symmetry map probe runs on one grid, length 1 from z0.time at step 5e-4
with every 5th step of the run sampled, and tests many candidates and eps
values on one base trajectory; so its base run (a copy of every 5th step of
the Toda run, checked once for a uniform grid, its baseline residuals and
their maximum) is memoised on z0, its entries and start time.
``integrate`` is deterministic, so a cache hit returns the very arrays a
fresh run would.  The cache holds 8 runs, enough for the six initial points
that a probe interleaves (one z0 is the common case); each run is a few
hundred samples, well under 1 MB in total.  The cached arrays are
read-only, so no caller can corrupt a later probe.  Failed runs are not
cached: an aborting integration raises again on every call.

A candidate's shifts Y(z(t), t) on the base run do not depend on eps, and
every probe tests each candidate at several eps, so each base run also
memoises its shifts, keyed on the candidate object.  The key is the
object, not its value: two equal candidates may hold their terms in another
order, and CompiledField then sums them in another order, which can move a
shift by an ulp; an identity key keeps the promise that a hit returns the
very array a fresh evaluation would.  Each entry holds its candidate, so
its id cannot be reused while the entry lives.  A run keeps the shifts of
its 8 most recently used candidates (every probe tests at most 6 per z0),
at most 8 x 401 x (2N - 1) x 8 bytes per run, about 0.3 MB at N = 6, and
they go with the run; the arrays are read-only.  Only the eps-dependent part, the
displaced curve's residuals and their maxima, runs on every call, so
results keep their bits.
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

    def __call__(self, x: np.ndarray, t) -> np.ndarray:
        table = np.concatenate((x, np.expand_dims(t, -1)), axis=-1)[..., None] ** self._powers
        (v, col), *rest = self._fold
        monos = np.ascontiguousarray(table[..., v, col])  # strided rows would sum differently
        for v, col in rest:
            monos *= table[..., v, col]
        return np.matmul(monos[..., None, :], self._weights)[..., 0, :]


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


def integrate(z0: PhasePoint, t_end: float, dt: float) -> Trajectory:
    """Integrate the Toda flow from z0 with fixed-step classical fourth-order Runge-Kutta.

    The run aborts on a non-finite state, and when couplings that all
    started positive lose positivity (dt is too coarse).  When t_end / dt
    is not whole within a relative 1e-9, a shortened last step ends exactly
    at z0.time + t_end.  Every state is stored.  The sample times and the
    Trajectory that holds them are built before the first step, so a start
    time too large for the samples to increase is refused before any work;
    the four stage right-hand sides are bound to the run's buffers (see
    ``_toda_stages``).  Each step writes its state to a row of a block of
    BLOCK rows; a full block, and the last one, is checked at once and
    copied out, so an abort names the first faulty step after at most one
    block of further steps.  A step takes 8-10 us at N = 4..128 (see MAX_STEPS).
    """
    steps, short = _step_count(t_end, dt)
    n = z0.n
    times = z0.time + np.arange(steps + 1) * dt
    times[0] = z0.time  # a start of -0.0 keeps its sign
    if short:
        times[-1] = z0.time + t_end
    traj = Trajectory(n, times, np.empty((steps + 1, 2 * n - 1)))
    store_a, store_b = traj.states[:, : n - 1], traj.states[:, n - 1 :]
    store_a[0], store_b[0] = z0.a, z0.b
    positive_a = all(ai > 0 for ai in z0.a)
    m = 2 * n  # the state in the stage layout: a, the spare slot, b
    x, y = np.zeros((2, 3 * n + 1))  # stage points, laid out as in _toda_stages
    x[: n - 1], x[n:m] = z0.a, z0.b
    ks = np.empty((4, m))  # k1..k4, one contiguous block for the weighted sum
    rhs1, rhs2, rhs3, rhs4 = _toda_stages(n, (x, y, y, y), ks)
    k1, k2, k3, k4 = ks
    xs, ys, acc = x[:m], y[:m], np.empty(m)
    scale = np.ones(m)  # per component: the stage and update weights in units of h
    scale[n - 1] = 0.0  # the spare slot stays 0
    scale[n:] = 2.0  # the Toda stages leave the b-block of k halved
    block = np.empty((BLOCK, m))  # the states of one block of steps, in the stage layout
    rows = list(block)  # its row views, made once: iterating block makes one per step
    add, mul, weigh = np.add, np.multiply, np.add.reduce
    full = steps - short
    runs = [(0, full, dt), (full, steps, t_end - full * dt)]  # then the short step, if any
    # an overflowing run is reported by the block check below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, h in runs:
            half, whole, sixth = (scale * c for c in (0.5 * h, h, h / 6.0))
            for first in range(start, stop, BLOCK):
                size = min(BLOCK, stop - first)
                for out in rows[:size]:
                    rhs1()
                    add(xs, mul(k1, half, ys), ys)
                    rhs2()
                    add(xs, mul(k2, half, ys), ys)
                    rhs3()
                    add(k2, k2, k2)  # 2 k2, exactly
                    add(xs, mul(k3, whole, ys), ys)
                    rhs4()
                    add(k3, k3, k3)
                    weigh(ks, 0, None, acc)  # ((k1 + 2 k2) + 2 k3) + k4, row by row
                    add(xs, mul(acc, sixth, acc), xs)
                    out[...] = xs
                states = block[:size]  # steps first + 1 .. first + size
                _check_block(states, n, positive_a, first, times)
                stored = slice(first + 1, first + size + 1)
                store_a[stored], store_b[stored] = states[:, : n - 1], states[:, n:]
    return traj


def _check_block(states, n, positive_a, first, times) -> None:
    """Raise for the first faulty row of a block of states, steps first + 1 on.

    A row is faulty when an entry is not finite, or, if every coupling
    started positive, when an entry of a is not positive; a non-finite row
    is reported as such even where a crossed zero too.  times[step] is the
    time a step reaches, for the message.
    """
    finite = np.isfinite(states).all(axis=1)
    fault = ~finite
    if positive_a:
        fault |= (states[:, : n - 1] <= 0.0).any(axis=1)
    if not fault.any():
        return
    i = int(fault.argmax())
    step = first + i + 1
    t = times[step]
    if not finite[i]:
        raise RuntimeError(f"non-finite state at t={t:.6g} (step {step}); reduce dt")
    raise RuntimeError(
        f"off-diagonal entry crossed zero at t={t:.6g} (step {step}); "
        "dt is too large for this trajectory"
    )


def _toda_stages(n: int, points: tuple, ks: np.ndarray) -> list:
    """The four Toda stage right-hand sides: toda_velocity on fixed views.

    Each stage point is one buffer of 3N + 1 entries laid out as
    [a | spare | b | 0 | a^2 | 0], and each k_i one row of 2N entries laid
    out as [a | spare | b].  Stage i reads points[i] and writes ks[i] with
    its b-block halved and -b_N in the spare slot; the caller gives that
    slot weight 0, so the state's spare slot stays 0.  The kernel is read
    from this module's namespace once per run, so a wrapped or patched
    toda_velocity is the one called, four times per step.
    """
    kernel = toda_velocity
    stages = []
    for p, k in zip(points, ks):
        tail = p[n:]  # b, 0, a^2, 0
        args = (p[: n - 1], p[2 * n + 1 : 3 * n], tail[1:], tail[:-1], k, k[: n - 1])
        stages.append(partial(kernel, *args))
    return stages


# integrate takes 8-10 us per step (about 1e5 steps/s) on one core of a
# shared 2-core Xeon host (N = 4..128), so 1e7 steps is minutes of work.  The
# stored rows are one array sized before the first step: 8 (2N - 1) bytes
# per step, 20 GB for 1e7 steps at N = 128.  A larger count is refused
# before any step runs; the longest run any caller, test or demo needs is
# 40,000 steps.  The states of BLOCK steps are checked and stored together;
# their buffer is BLOCK x 2N x 8 bytes whatever the step count, 0.5 MB at
# N = 128.
MAX_STEPS = 10**7
BLOCK = 256


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
    """Compare eigenvalues and H_1..H_{m_max} of each sample to the first.

    An H_m drift that is not finite (the eigenvalues' m-th powers overflow a
    float) raises ValueError naming m; it is never reported as NaN or inf.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    spectra = _spectra(traj.n, traj.states[::stride])
    eig_drift = float(np.max(np.abs(spectra - spectra[0])))
    h_drift = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for m in range(1, m_max + 1):
            values = np.sum(spectra**m, axis=1) / m
            h_drift[m] = float(np.max(np.abs(values - values[0])))
            if not math.isfinite(h_drift[m]):
                raise ValueError(f"H_{m} drift is not finite: the eigenvalues' powers overflow")
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


_PROBE_T_END, _PROBE_DT, _PROBE_STRIDE = 1.0, 5.0e-4, 5  # the probe's one grid


def symmetry_map_test(cand: SymmetryCandidate, z0: PhasePoint, eps: float) -> SymmetryMapResult:
    """Push a solution by eps times a candidate field and re-test the equations.

    The Toda flow is integrated from z0 over the probe's one grid, each sample
    z(t) is displaced to z(t) + eps * Y(z(t), t), and the displaced curve's
    time derivative (central differences on the sample grid) is compared
    against the flow.  The base trajectory and its residuals come from a run
    memoised on z0, and the shifts Y(z(t), t) from that run's memo, keyed on
    the candidate object (see the module docstring).  A non-finite or
    non-positive eps, a candidate with tau != 0 or another lattice size than
    z0 raise ValueError, and so does a start time so large that the float
    sample times are not uniform.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not cand.is_evolutionary():
        raise ValueError("the map test applies to evolutionary candidates (tau = 0)")
    if cand.n != z0.n:
        raise ValueError(f"the candidate has N={cand.n} but z0 has N={z0.n}")
    traj, baseline, baseline_residual, memo = _base_run(z0)
    shifts = _shifts(cand, traj, memo)
    perturbed = _grid_residuals(traj.n, traj.times, traj.states + eps * shifts)
    return SymmetryMapResult(
        eps=eps,
        t_end=_PROBE_T_END,
        dt=_PROBE_DT,
        defect=float(np.max(np.abs(perturbed - baseline))),
        raw_residual=float(np.max(np.abs(perturbed))),
        baseline_residual=baseline_residual,
    )


@lru_cache(maxsize=8)
def _base_run(z0: PhasePoint) -> tuple[Trajectory, np.ndarray, float, dict]:
    """The probe's base run from z0: samples, their residuals and max, and a shifts memo.

    The samples are copies of every 5th step of the Toda run, so the run's
    every-step arrays are freed; they and the residuals are read-only.  The
    memo starts empty; ``_shifts`` fills it.
    """
    run = integrate(z0, _PROBE_T_END, _PROBE_DT)
    thin = slice(None, None, _PROBE_STRIDE)
    traj = Trajectory(run.n, run.times[thin].copy(), run.states[thin].copy())
    h = np.diff(traj.times)
    if not np.allclose(h, h[0]):
        raise ValueError("residual grid must be uniform")
    baseline = _grid_residuals(traj.n, traj.times, traj.states)
    for array in (traj.times, traj.states, baseline):
        array.flags.writeable = False
    return traj, baseline, float(np.max(np.abs(baseline))), {}


def _shifts(cand: SymmetryCandidate, traj: Trajectory, memo: dict) -> np.ndarray:
    """The candidate's field on every sample of a base run, read-only.

    memo maps id(cand) -> (cand, shifts) for the run's 8 most recently used
    candidates, least recently used first; see the module docstring.
    """
    entry = memo.pop(id(cand), None)  # put back last below: the most recently used
    if entry is None:
        shifts = CompiledField(cand.as_field())(traj.states, traj.times)
        shifts.flags.writeable = False
        entry = cand, shifts
        if len(memo) == 8:
            del memo[next(iter(memo))]
    memo[id(cand)] = entry
    return entry[1]


def _grid_residuals(n: int, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Central-difference equation residuals, one row per interior sample.

    The step is times[1] - times[0]; the caller has checked that the grid is uniform.
    """
    # one row per component: blocks of a contiguous copy iterate fast, strided views slowly
    x = np.ascontiguousarray(states.T)
    mid, xdot = x[:, 1:-1], (x[:, 2:] - x[:, :-2]) / (2.0 * (times[1] - times[0]))
    return flow_residuals(mid[: n - 1], mid[n - 1 :], xdot[: n - 1], xdot[n - 1 :]).T
