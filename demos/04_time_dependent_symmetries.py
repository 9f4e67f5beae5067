#!/usr/bin/env python3
"""Master fields are not symmetries, but X_k + t chi_{k+2} is.

A generator tau d/dt + sum phi_j d/da_j + sum psi_j d/db_j is an
infinitesimal symmetry exactly when its determining-equation residuals
vanish identically.  The catalogue below runs the classics, then the whole
family Y_k = X_k + t chi_{k+2}, checked exactly against the prolongation
residuals; for these tau = 0 generators they are the evolutionary condition
dY/dt + [chi_2, Y] = 0.

At the end, a numeric cross-check: push a true solution by eps*Y and
measure how badly the pushed curve fails the equations.  For a symmetry
the failure shrinks like eps^2, for anything else only like eps.
"""

import numpy as np

from todasym import (
    PhasePoint,
    SymmetryCandidate,
    build_Y,
    candidate_scaling,
    candidate_shift,
    candidate_time_translation,
    determining_residuals,
    residual_slots,
    symmetry_map_test,
    verify_theorem,
)
from todasym.ratpoly import Vars

N = 3

print("the classical symmetries:")
catalogue = [
    ("shift of all b (tau=0, psi=1)", candidate_shift(N)),
    ("time translation (tau=-1)", candidate_time_translation(N)),
    ("grading symmetry (tau=-t, phi=a, psi=b)", candidate_scaling(N)),
]
for label, cand in catalogue:
    ok = determining_residuals(cand).is_zero()
    print(f"  {label}:  {'symmetry' if ok else 'NOT a symmetry'}")

v = Vars(N)
wrong = SymmetryCandidate(
    N, v.const(-1), tuple(v.a(i) for i in range(1, N)), tuple(v.b(i) for i in range(1, N + 1))
)
label, poly = next(slot for slot in residual_slots(determining_residuals(wrong)) if slot[1])
print(f"  same phi, psi with tau=-1 instead of -t:  fails, {label} = {poly}")

print("\nthe time-dependent family Y_k = X_k + t*chi_(k+2), both criteria exact:")
for case in verify_theorem(3, N):
    print(f"  Y_{case.k}: determining residuals zero and dY/dt + [chi_2, Y] = 0:  {case.ok}")

print("\nnumeric cross-check along a random trajectory:")
rng = np.random.default_rng(42)
z0 = PhasePoint(tuple(rng.uniform(0.2, 0.5, N - 1)), tuple(rng.uniform(-0.4, 0.4, N)))
eps_values = (1e-3, 5e-4, 2.5e-4)
for k in (0, 1):
    defects = [symmetry_map_test(build_Y(k, N), z0, eps).defect for eps in eps_values]
    print(f"  Y_{k} defect at eps={eps_values}: "
          + ", ".join(f"{d:.2e}" for d in defects)
          + f"  (ratios ~4: {defects[0]/defects[1]:.2f}, {defects[1]/defects[2]:.2f})")

planted = SymmetryCandidate(N, v.zero, (v.zero,) * (N - 1), (v.b(1),) + (v.zero,) * (N - 1))
defects = [symmetry_map_test(planted, z0, eps).defect for eps in eps_values]
print("  planted non-symmetry defect:             "
      + ", ".join(f"{d:.2e}" for d in defects)
      + f"  (ratios ~2: {defects[0]/defects[1]:.2f}, {defects[1]/defects[2]:.2f})")
