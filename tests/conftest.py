"""Shared helpers: seeded random polynomials, fields and candidates."""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from todasym.fields import VectorField
from todasym.ratpoly import Polynomial, num_vars

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no example database: the suite gives the same
    # result on every run
    settings.register_profile(
        "deterministic", derandomize=True, database=None, deadline=None, max_examples=50
    )
    settings.load_profile("deterministic")


def random_polynomial(rng, n, max_terms=4, max_degree=3, with_t=False):
    """Small random polynomial with coefficients in [-5, 5]."""
    width = num_vars(n)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            top = width if with_t else width - 1
            mono[rng.randrange(top)] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        mono = tuple(mono)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(n, terms)


def random_field(rng, n, **kw):
    comps = [random_polynomial(rng, n, **kw) for _ in range(2 * n - 1)]
    return VectorField.from_components(n, comps)


def subprocess_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def rng():
    return random.Random(1729)
