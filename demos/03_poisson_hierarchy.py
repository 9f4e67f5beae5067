#!/usr/bin/env python3
"""The tower of compatible Poisson structures behind one integrable flow.

The linear tensor w_1 makes the Toda flow Hamiltonian with energy H_2 and
Casimir H_1.  Lie derivatives along the master fields generate quadratic,
cubic, ... tensors w_2, w_3, ..., all Poisson (vanishing Schouten
self-bracket), all keeping the invariants in involution, and all aligned
through the Lenard ladder

    w_k . grad H_l = w_{k-1} . grad H_{l+1},

so the same flow has many Hamiltonian descriptions.
"""

from todasym import (
    Vars,
    chi_ladder,
    flow_residuals,
    hamiltonian,
    hamiltonian_field,
    poisson_bracket,
    poisson_tensor,
    schouten_self,
)
from todasym.ratpoly import var_names

N = 3
names = var_names(N)


def is_toda_flow(field):
    """True when the field satisfies the Toda equations, as written in flow_residuals."""
    v = Vars(N)
    a = [v.a(i) for i in range(1, N)]
    b = [v.b(i) for i in range(1, N + 1)]
    return not any(flow_residuals(a, b, field.a, field.b))


print(f"chain size N = {N}")
w1 = poisson_tensor(1, N)
print("\nw_1, the linear bracket (nonzero upper entries):")
for i in range(w1.dim()):
    for j in range(i + 1, w1.dim()):
        if not w1.entry(i, j).is_zero():
            print(f"  {{{names[i]},{names[j]}}} = {w1.entry(i, j)}")

print("\nw_2, generated by a Lie derivative along X_1:")
w2 = poisson_tensor(2, N)
for i in range(w2.dim()):
    for j in range(i + 1, w2.dim()):
        if not w2.entry(i, j).is_zero():
            print(f"  {{{names[i]},{names[j]}}} = {w2.entry(i, j)}")

print("\nstructure certificates (exact):")
print("  w_1.grad H_2 is the Toda flow:   ", is_toda_flow(hamiltonian_field(w1, hamiltonian(2, N))))
print("  w_1.grad H_1 vanishes (Casimir): ", hamiltonian_field(w1, hamiltonian(1, N)).is_zero())
for k in (1, 2, 3):
    print(f"  Schouten [w_{k}, w_{k}] = 0:        ", schouten_self(poisson_tensor(k, N)).is_zero())

print("\ninvariants in involution under every tensor:")
for k in (1, 2, 3):
    w = poisson_tensor(k, N)
    flat = all(
        poisson_bracket(w, hamiltonian(m, N), hamiltonian(l, N)).is_zero()
        for m in (1, 2, 3, 4)
        for l in (1, 2, 3, 4)
    )
    print(f"  {{H_m, H_l}} = 0 under w_{k} for m,l <= 4:  {flat}")

print("\nthe Lenard ladder (the same flow from different tensors):")
for k in (2, 3):
    for l in (1, 2):
        same = chi_ladder(l, k, N) == chi_ladder(l + 1, k - 1, N)
        print(f"  w_{k}.grad H_{l} == w_{k - 1}.grad H_{l + 1}:  {same}")
print("  in particular w_2.grad H_1 is again the Toda flow:",
      is_toda_flow(hamiltonian_field(w2, hamiltonian(1, N))))
