"""Reference numerics: the per-component and per-sample loops of ``todasym.dynamics``.

``CompiledField`` here keeps one (exponent array, coefficient vector) pair
per component, special-cases empty components and evaluates the components
one at a time; ``MatrixField`` evaluates one point at a time with one
exponent matrix and one weight matrix, a row-wise power product and one
matrix product; ``grid_residuals`` calls ``flow_residuals`` once per interior
sample; ``spectrum`` and ``row_drift_report`` call scipy's
``eigh_tridiagonal`` once per point or sampled row, with its own argument
checks; ``drift_report`` builds a ``PhasePoint`` per sample and takes its
spectrum with ``spectrum``; ``symmetry_map_test`` integrates its base
trajectory afresh on every call, with no memo, and evaluates the shifts one
sample at a time; ``integrate`` is the allocating RK4 loop, with a fresh
array for every velocity and stage sum and the full b-block velocity.  They
are the original implementations, kept as the slow, independent oracle that
``test_dynamics.py`` compares the stacked field, the one-call residuals, the
direct LAPACK spectra, the memoised probe and the preallocated stepper
against.  Nothing in ``src/`` imports this module.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from todasym import dynamics
from todasym.fields import VectorField
from todasym.lattice import PhasePoint, flow_residuals
from todasym.symmetry import SymmetryCandidate


class CompiledField:
    """Polynomial vector field flattened to numpy arrays for fast evaluation."""

    def __init__(self, field: VectorField):
        self.n = field.n
        width = 2 * field.n
        comps = []
        for poly in field.components():
            if poly.terms:
                exps = np.array(list(poly.terms.keys()), dtype=np.int64)
                coeffs = np.array([float(c) for c in poly.terms.values()])
            else:
                exps = np.zeros((0, width), dtype=np.int64)
                coeffs = np.zeros(0)
            comps.append((exps, coeffs))
        self._comps = comps

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        values = np.append(x, t)
        out = np.empty(len(self._comps))
        for i, (exps, coeffs) in enumerate(self._comps):
            if coeffs.size == 0:
                out[i] = 0.0
            else:
                out[i] = np.prod(values**exps, axis=1) @ coeffs
        return out


class MatrixField:
    """Polynomial vector field flattened to numpy arrays for fast evaluation.

    The one-matrix, one-point evaluator: ``dynamics.CompiledField`` must give
    its bytes for every point, whether called on one point or on a stack.
    """

    def __init__(self, field: VectorField):
        self.n = field.n
        terms = [
            (i, exps, float(coeff))
            for i, poly in enumerate(field.components())
            for exps, coeff in poly.terms.items()
        ]
        rows = np.arange(len(terms))
        exps = [e for _, e, _ in terms]
        self._exps = np.array(exps, dtype=np.int64).reshape(rows.size, 2 * field.n)
        self._weights = np.zeros((rows.size, 2 * field.n - 1))
        self._weights[rows, [i for i, _, _ in terms]] = [c for _, _, c in terms]

    def __call__(self, x: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(np.prod(np.append(x, t) ** self._exps, axis=1), self._weights, out=out)


def toda_velocity(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numeric Toda right-hand side for arrays a (N-1,) and b (N,)."""
    da = a * (b[1:] - b[:-1])
    sq = a * a
    db = np.zeros_like(b)
    db[:-1] += 2.0 * sq
    db[1:] -= 2.0 * sq
    return da, db


def _toda_func(x: np.ndarray, t: float) -> np.ndarray:
    n = (len(x) + 1) // 2
    da, db = toda_velocity(x[: n - 1], x[n - 1 :])
    return np.concatenate([da, db])


def integrate(
    z0: PhasePoint,
    t_end: float,
    dt: float,
    field: VectorField | None = None,
    store_stride: int = 1,
) -> dynamics.Trajectory:
    """Integrate from z0 with fixed-step classical fourth-order Runge-Kutta.

    The allocating original.  A field is evaluated one point at a time by
    ``MatrixField``, so its states must equal ``dynamics.integrate``'s bit for
    bit.
    """
    steps, short = dynamics._step_count(t_end, dt)
    if store_stride < 1:
        raise ValueError(f"store_stride must be >= 1, got {store_stride}")
    n = z0.n
    positive_a = field is None and n > 1 and all(ai > 0 for ai in z0.a)
    if field is not None and field.n != n:
        raise ValueError("field and initial point have different lattice sizes")
    func = _toda_func if field is None else MatrixField(field)

    x = z0.state()
    t = z0.time
    times = [t]
    states = [x.copy()]
    for step in range(1, steps + 1):
        last = short and step == steps
        h = t_end - (step - 1) * dt if last else dt
        k1 = func(x, t)
        k2 = func(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = func(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = func(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = z0.time + (t_end if last else step * dt)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(
                f"non-finite state at t={t:.6g} (step {step}); "
                "reduce dt or check the field"
            )
        if positive_a and np.any(x[: n - 1] <= 0.0):
            raise RuntimeError(
                f"off-diagonal entry crossed zero at t={t:.6g} (step {step}); "
                "dt is too large for this trajectory"
            )
        if step % store_stride == 0 or step == steps:
            times.append(t)
            states.append(x.copy())
    return dynamics.Trajectory(n, np.array(times), np.array(states))


def grid_residuals(n: int, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Central-difference equation residuals at interior samples."""
    h = times[1:] - times[:-1]
    if not np.allclose(h, h[0]):
        raise ValueError("residual grid must be uniform")
    xdot = (states[2:] - states[:-2]) / (2.0 * h[0])
    rows = []
    for i in range(xdot.shape[0]):
        mid = states[i + 1]
        gammas, deltas = flow_residuals(
            mid[: n - 1], mid[n - 1 :], xdot[i, : n - 1], xdot[i, n - 1 :]
        )
        rows.append(np.concatenate([gammas, deltas]))
    return np.array(rows)


def symmetry_map_test(
    cand: SymmetryCandidate,
    z0: PhasePoint,
    eps: float,
    t_end: float = 1.0,
    dt: float = 5.0e-4,
    sample_stride: int = 5,
) -> dynamics.SymmetryMapResult:
    """Push a solution by eps times a candidate field and re-test the equations.

    The uncached original: it integrates the base trajectory on every call
    and evaluates ``MatrixField`` one sample at a time.  It uses the library's
    residuals (not the loop above), so its results must equal the memoised,
    stacked probe's bit for bit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not cand.is_evolutionary():
        raise ValueError("the map test applies to evolutionary candidates (tau = 0)")
    traj = dynamics.integrate(z0, t_end, dt, store_stride=sample_stride)
    compiled = MatrixField(cand.as_field())
    shifts = np.array([compiled(x, float(t)) for x, t in zip(traj.states, traj.times)])
    baseline = dynamics._grid_residuals(traj.n, traj.times, traj.states)
    perturbed = dynamics._grid_residuals(traj.n, traj.times, traj.states + eps * shifts)
    return dynamics.SymmetryMapResult(
        eps=eps,
        t_end=t_end,
        dt=dt,
        defect=float(np.max(np.abs(perturbed - baseline))),
        raw_residual=float(np.max(np.abs(perturbed))),
        baseline_residual=float(np.max(np.abs(baseline))),
    )


def spectrum(point: PhasePoint) -> np.ndarray:
    """Eigenvalues of the Jacobi matrix, ascending."""
    return eigh_tridiagonal(
        np.asarray(point.b, dtype=float),
        np.asarray(point.a, dtype=float),
        eigvals_only=True,
    )


def row_drift_report(traj: dynamics.Trajectory, m_max: int, stride: int = 1) -> dynamics.DriftReport:
    """Compare eigenvalues and H_1..H_{m_max} of each sample to the first."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n = traj.n
    spectra = np.array(
        [eigh_tridiagonal(x[n - 1 :], x[: n - 1], eigvals_only=True) for x in traj.states[::stride]]
    )
    eig_drift = float(np.max(np.abs(spectra - spectra[0])))
    h_drift = {}
    for m in range(1, m_max + 1):
        values = np.sum(spectra**m, axis=1) / m
        h_drift[m] = float(np.max(np.abs(values - values[0])))
    return dynamics.DriftReport(eig_drift, h_drift)


def drift_report(traj: dynamics.Trajectory, m_max: int, stride: int = 1) -> dynamics.DriftReport:
    """Compare eigenvalues and H_1..H_{m_max} of each sample to the first."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    rows = range(0, len(traj.times), stride)
    spectra = np.array([spectrum(traj.point(i)) for i in rows])
    eig_drift = float(np.max(np.abs(spectra - spectra[0])))
    h_drift = {}
    for m in range(1, m_max + 1):
        values = np.sum(spectra**m, axis=1) / m
        h_drift[m] = float(np.max(np.abs(values - values[0])))
    return dynamics.DriftReport(eig_drift, h_drift)
