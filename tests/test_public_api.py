"""Every exported name has a caller outside the tests.

A name in ``todasym.__all__`` must be used somewhere in the package other
than its own definition and ``__init__.py``, or in ``demos/``, or in
``perfbench/``.  API that only the tests reach belongs in the tests.
"""

import tokenize
from pathlib import Path

import pytest

import todasym

ROOT = Path(__file__).resolve().parents[1]

# the acceptance gates in test_acceptance.py call these two; nothing else needs them
ACCEPTANCE_GATES = {"mutation_smoke", "order_of_accuracy_ratio"}


def used_names(path: Path) -> set[str]:
    """Identifiers in the code of a file, minus the names its def/class lines define.

    A string literal that is exactly an identifier counts as a use: that is
    how perfbench names the functions it wraps.  Docstrings and comments do not.
    """
    used, prev = set(), None
    with path.open() as handle:
        for tok in tokenize.generate_tokens(handle.readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                used.add(tok.string)
            elif tok.type == tokenize.STRING and tok.string[1:-1].isidentifier():
                used.add(tok.string[1:-1])
            prev = tok.string
    return used


def callers() -> list[Path]:
    package = (ROOT / "src" / "todasym").glob("*.py")
    files = [p for p in package if p.name != "__init__.py"]
    return files + list((ROOT / "demos").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))


USED = set().union(*map(used_names, callers()))


@pytest.mark.parametrize("name", sorted(set(todasym.__all__) - ACCEPTANCE_GATES))
def test_exported_name_has_a_caller_outside_tests(name):
    assert name in USED, f"{name} is exported but only the tests use it"


def test_acceptance_gates_are_exported():
    assert ACCEPTANCE_GATES <= set(todasym.__all__)
