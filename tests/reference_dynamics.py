"""Reference numerics: the per-component and per-sample loops of ``todasym.dynamics``.

``CompiledField`` here keeps one (exponent array, coefficient vector) pair
per component, special-cases empty components and evaluates the components
one at a time; ``grid_residuals`` calls ``flow_residuals`` once per interior
sample.  They are the original implementations, kept as the slow,
independent oracle that ``test_dynamics.py`` compares the one-matrix field
and the one-call residuals against.  Nothing in ``src/`` imports this module.
"""

import numpy as np

from todasym.fields import VectorField
from todasym.lattice import flow_residuals


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
