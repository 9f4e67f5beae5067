"""scipy loads at the first spectrum, not at import or in the exact suites."""

import subprocess
import sys

from conftest import subprocess_env

SCIPY_MODULES = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def loaded_after(code: str) -> str:
    """The last stdout line of a fresh interpreter that runs code and prints SCIPY_MODULES."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint({SCIPY_MODULES})"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_scipy():
    assert loaded_after("import todasym") == "[]"


def test_verify_run_loads_no_scipy():
    # what python -m todasym verify --n 2 --nmax 2 runs, with sys.modules read after it
    code = (
        "import runpy\n"
        "sys.argv = ['todasym', 'verify', '--n', '2', '--nmax', '2']\n"
        "try:\n"
        "    runpy.run_module('todasym', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )
    assert loaded_after(code) == "[]"


def test_first_spectrum_loads_scipy():
    code = "import todasym\ntodasym.spectrum(todasym.PhasePoint((0.5,), (0.0, 0.0)))"
    assert "scipy.linalg" in loaded_after(code)
