"""The value containers: equality by value, no hash, no assignment."""

import pytest

from todasym.fields import VectorField
from todasym.poisson import PoissonTensor
from todasym.ratpoly import Vars
from todasym.symmetry import SymmetryCandidate

V = Vars(3)


def field(c):
    return VectorField(3, (V.a(1) * V.b(2), V.zero), (V.const(c), V.b(1), V.t))


def candidate(c):
    return SymmetryCandidate(3, V.zero, (V.a(2), V.const(c)), (V.b(1), V.zero, V.t * V.a(1)))


def tensor(c):
    return PoissonTensor(3, {(1, 4): V.const(c) * V.b(3), (0, 2): V.a(1) * V.b(2)})


CONTAINERS = pytest.mark.parametrize("make", [field, candidate, tensor], ids=lambda f: f.__name__)


@CONTAINERS
def test_equality_is_by_value(make):
    one, other = make(2), make(2)
    assert one is not other and one == other
    assert make(3) != one  # one coefficient changed
    assert (one == 0) is False


@CONTAINERS
def test_not_hashable_and_not_assignable(make):
    one = make(2)
    with pytest.raises(TypeError):
        hash(one)
    with pytest.raises(AttributeError):
        one.n = 4
    assert one == make(2)


def test_tensor_keeps_its_nonzero_entries_in_index_order():
    w = PoissonTensor(3, {(2, 3): V.b(1), (0, 4): V.zero, (0, 1): V.a(1), (1, 2): V.a(2) - V.a(2)})
    assert list(w.upper.items()) == [((0, 1), V.a(1)), ((2, 3), V.b(1))]
