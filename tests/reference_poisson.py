"""Reference tensor calculus: the dense index loops of ``todasym.poisson``.

These are the original implementations of ``hamiltonian_field``,
``lie_derivative`` and ``schouten_self``: every index pair or triple, every
summation index, one ``acc = acc + p * q`` per nonzero product, with all
entries read through ``PoissonTensor.entry(i, j)``.  They are kept as the
slow, independent oracle that ``test_poisson.py`` compares the sparse
sum-of-products versions against.  Nothing in ``src/`` imports this module.

``schouten_self`` here stores every strictly increasing triple, zero or
not; the sparse version stores only the nonzero ones.
"""

from todasym.fields import VectorField
from todasym.poisson import PoissonTensor, ThreeTensor
from todasym.ratpoly import Polynomial, UniverseError


def hamiltonian_field(w: PoissonTensor, h: Polynomial) -> VectorField:
    """Hamiltonian vector field w . grad h."""
    if h.n != w.n:
        raise UniverseError("polynomial and tensor live over different sizes")
    dim = w.dim()
    grads = [h.diff_index(j) for j in range(dim)]
    comps = []
    for i in range(dim):
        acc = Polynomial.zero(w.n)
        for j in range(dim):
            entry = w.entry(i, j)
            if entry.is_zero() or grads[j].is_zero():
                continue
            acc = acc + entry * grads[j]
        comps.append(acc)
    return VectorField.from_components(w.n, comps)


def lie_derivative(x: VectorField, w: PoissonTensor) -> PoissonTensor:
    """Lie derivative of an antisymmetric 2-tensor along an autonomous field."""
    if x.n != w.n:
        raise UniverseError("field and tensor live over different sizes")
    if not x.is_autonomous():
        raise ValueError("Lie derivative requires an autonomous field")
    dim = w.dim()
    comps = x.components()
    zero = Polynomial.zero(w.n)
    out: dict[tuple[int, int], Polynomial] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            acc = zero
            w_ij = w.entry(i, j)
            for k in range(dim):
                if not comps[k].is_zero():
                    d = w_ij.diff_index(k)
                    if not d.is_zero():
                        acc = acc + comps[k] * d
                di = comps[i].diff_index(k)
                if not di.is_zero() and not w.entry(k, j).is_zero():
                    acc = acc - di * w.entry(k, j)
                dj = comps[j].diff_index(k)
                if not dj.is_zero() and not w.entry(i, k).is_zero():
                    acc = acc - dj * w.entry(i, k)
            out[(i, j)] = acc
    return PoissonTensor(w.n, out)


def schouten_self(w: PoissonTensor) -> ThreeTensor:
    """Schouten self-bracket [w, w]; identically zero iff w is Poisson."""
    dim = w.dim()
    entries: dict[tuple[int, int, int], Polynomial] = {}
    zero = Polynomial.zero(w.n)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = zero
                for l in range(dim):
                    for (r, pair) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                        w_rl = w.entry(r, l)
                        if w_rl.is_zero():
                            continue
                        d = w.entry(pair[0], pair[1]).diff_index(l)
                        if not d.is_zero():
                            acc = acc + w_rl * d
                entries[(i, j, k)] = acc
    return ThreeTensor(w.n, entries)
