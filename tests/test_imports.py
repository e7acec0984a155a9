"""Import hygiene: photonam starts on numpy alone and loads scipy only for E1.

Each case runs in a fresh interpreter, because the test process itself has
imported scipy long before.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import contextlib, io, sys
import photonam
command = sys.argv[1]
if command:
    import photonam.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert photonam.cli.main([command]) == 0
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(command: str) -> set[str]:
    """scipy modules loaded by `import photonam` and then, unless command is "", the command."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, command], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("command", ["", "radial", "algebra", "variance", "entangle"])
def test_no_scipy_without_e1(command):
    assert scipy_modules_after(command) == set()


@pytest.mark.parametrize("command", ["decay", "verify-all"])
def test_e1_loads_scipy_special_only(command):
    loaded = scipy_modules_after(command)
    assert "scipy.special" in loaded
    assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.") for m in loaded)
