"""Reference numerics: the per-component and per-sample loops of ``todasym.dynamics``.

``CompiledField`` here keeps one (exponent array, coefficient vector) pair
per component, special-cases empty components and evaluates the components
one at a time; ``grid_residuals`` calls ``flow_residuals`` once per interior
sample; ``drift_report`` builds a ``PhasePoint`` per sample and takes its
spectrum with ``dynamics.spectrum``; ``symmetry_map_test`` integrates its
base trajectory afresh on every call, with no memo.  They are the original
implementations, kept as the slow, independent oracle that
``test_dynamics.py`` compares the one-matrix field, the one-call residuals,
the row-wise spectra and the memoised probe against.  Nothing in ``src/``
imports this module.
"""

import numpy as np

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

    The uncached original: it integrates the base trajectory on every call.
    It uses the library's field and residuals (not the loops above), so its
    results must equal the memoised probe's bit for bit.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not cand.is_evolutionary():
        raise ValueError("the map test applies to evolutionary candidates (tau = 0)")
    traj = dynamics.integrate(z0, t_end, dt, store_stride=sample_stride)
    compiled = dynamics.CompiledField(cand.as_field())
    shifts = np.array([compiled(x, float(t)) for x, t in zip(traj.states, traj.times)])
    baseline = dynamics._grid_residuals(traj.n, traj.times, traj.states)
    perturbed = dynamics._grid_residuals(traj.n, traj.times, traj.states + eps * shifts)
    return dynamics.SymmetryMapResult(
        eps=eps,
        defect=float(np.max(np.abs(perturbed - baseline))),
        raw_residual=float(np.max(np.abs(perturbed))),
        baseline_residual=float(np.max(np.abs(baseline))),
    )


def drift_report(traj: dynamics.Trajectory, m_max: int, stride: int = 1) -> dynamics.DriftReport:
    """Compare eigenvalues and H_1..H_{m_max} of each sample to the first."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    rows = range(0, len(traj.times), stride)
    spectra = np.array([dynamics.spectrum(traj.point(i)) for i in rows])
    eig_drift = float(np.max(np.abs(spectra - spectra[0])))
    h_drift = {}
    for m in range(1, m_max + 1):
        values = np.sum(spectra**m, axis=1) / m
        h_drift[m] = float(np.max(np.abs(values - values[0])))
    return dynamics.DriftReport(eig_drift, h_drift)
