"""Import hygiene: photonam runs on numpy alone, and no command loads scipy.

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

#: Refuses every scipy import, then runs each argument list (one per line of
#: stdin) through the CLI and prints its exit code.
BLOCKED_PROBE = """
import contextlib, io, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
import photonam.cli
for line in sys.stdin.read().splitlines():
    with contextlib.redirect_stdout(io.StringIO()):
        code = photonam.cli.main(line.split())
    print(code)
"""

#: The six default commands and the non-default runs that reach E1 or the
#: larger operator algebra.
COMMANDS = [
    "radial",
    "algebra",
    "variance",
    "decay",
    "entangle",
    "verify-all",
    "decay --format json",
    "verify-all --cutoff 8",
]


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
def test_e1_commands_load_no_scipy(command):
    # E1 is summed in numpy, so the commands that evaluate it load no scipy either
    assert scipy_modules_after(command) == set()


def test_every_command_runs_with_scipy_blocked():
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_PROBE],
        input="\n".join(COMMANDS), capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert dict(zip(COMMANDS, result.stdout.split())) == dict.fromkeys(COMMANDS, "0")
