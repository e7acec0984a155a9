"""Import hygiene: photonam runs on numpy alone, no command loads scipy, and a
command loads only the modules it runs.

`import photonam` loads no submodule and no numpy: each submodule imports on
first use. Each module-set case runs in a fresh interpreter,
because the test process itself has imported scipy long before.
"""

import json
import os
import subprocess
import sys

import pytest

import photonam

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Imports photonam and, unless the argument is "", runs it through the CLI as
#: one command line; prints the exit code (argparse's SystemExit included), the
#: modules loaded and how many times the CSV layout tables were built.
PROBE = """
import contextlib, io, json, sys
import photonam
argv, code = sys.argv[1].split(), None
if argv:
    import photonam.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = photonam.cli.main(argv)
        except SystemExit as exc:  # --help and argparse's refusals
            code = exc.code
output = sys.modules.get("photonam.output")
tables = output._tables.cache_info().misses if output else 0
print(json.dumps({"code": code, "modules": sorted(sys.modules), "tables": tables}))
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


#: The submodules the package serves, each imported on first use.
SUBMODULES = ["angular", "decay", "fock", "output", "radial", "twins"]


def report(command: str) -> dict:
    """PROBE's report on the command line."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, command], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def probe(command: str) -> tuple[int | None, set[str]]:
    """The exit code of the command line (None for "") and the modules loaded by
    `import photonam` and then the command."""
    probed = report(command)
    return probed["code"], set(probed["modules"])


def modules_after(command: str) -> set[str]:
    """Modules loaded by `import photonam` and then, unless command is "", the command,
    which must exit 0."""
    code, loaded = probe(command)
    assert code in (None, 0)
    return loaded


def scipy_modules_after(command: str) -> set[str]:
    return {m for m in modules_after(command) if m == "scipy" or m.startswith("scipy.")}


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


def test_import_photonam_loads_no_submodule_and_no_numpy():
    loaded = modules_after("")
    assert {m for m in loaded if m.startswith("photonam.")} == set()
    assert "photonam" in loaded and "numpy" not in loaded


def test_each_submodule_resolves_lazily_to_itself():
    # in a fresh interpreter, so that each name goes through the package's __getattr__
    code = (
        "import photonam, sys\n"
        "for m in photonam.__all__:\n"
        "    assert getattr(photonam, m) is sys.modules['photonam.' + m], m\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert photonam.__all__ == SUBMODULES
    assert photonam.__version__ == "0.1.0"
    # a function or class is reached only where it is defined
    assert callable(photonam.decay.sz_curve)
    with pytest.raises(AttributeError, match="'sz_curve'"):
        photonam.sz_curve


def test_star_import_binds_exactly_the_submodules():
    namespace = {}
    exec("from photonam import *", namespace)
    namespace.pop("__builtins__")
    assert namespace == {module: sys.modules[f"photonam.{module}"] for module in SUBMODULES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        photonam.no_such_name


# no command loads numpy.polynomial: the shell quadrature's Gauss-Legendre rule
# is a constant of radial, not solved for on the first shell integral
@pytest.mark.parametrize("command", ["radial", "algebra", "variance", "decay",
                                     "radial --format json"])
def test_command_loads_no_twins_and_no_numpy_polynomial(command):
    loaded = modules_after(command)
    assert "photonam.twins" not in loaded
    assert "numpy.polynomial" not in loaded


@pytest.mark.parametrize("command", ["entangle", "verify-all"])
def test_pair_commands_load_twins_and_no_numpy_polynomial(command):
    # the two commands that run the twins checks; verify-all also integrates over shells
    loaded = modules_after(command)
    assert "photonam.twins" in loaded
    assert "numpy.polynomial" not in loaded


@pytest.mark.parametrize("command, builds", [
    ("algebra", 0),
    ("variance", 0),
    ("entangle", 0),
    ("verify-all", 0),
    ("radial --format json", 0),
    ("decay --format json", 0),
    ("radial", 1),
    ("decay", 1),
])
def test_only_csv_commands_build_the_layout_tables(command, builds):
    # the CSV writer builds its tables on its first write, once per process
    probed = report(command)
    assert probed["code"] == 0
    assert probed["tables"] == builds


@pytest.mark.parametrize("command, code", [
    ("--help", 0),
    ("variance --m 2", 2),
    ("radial --kR nan", 2),
    ("algebra --format csv", 2),
    ("decay --samples 2000000", 2),
])
def test_help_and_early_refusals_load_no_numpy_and_no_submodule(command, code):
    # argparse and the checks of _validate that need no module run before any import
    exit_code, loaded = probe(command)
    assert exit_code == code
    assert "numpy" not in loaded
    assert {m for m in loaded if m.split(".")[0] == "photonam"} == {"photonam", "photonam.cli"}


def test_importtime_reports_every_submodule_a_command_loads():
    # a submodule loaded through the package's lazy names is timed like any other import
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "photonam", "entangle"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    reported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert {f"photonam.{m}" for m in (*photonam.__all__, "cli")} <= reported


def test_conftest_loads_every_local_module_a_full_run_loads():
    # Hypothesis draws from the literals of the loaded local modules, so one that
    # only some test module loads would make the draws depend on the selection
    import conftest

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
    local = {
        name for name, module in list(sys.modules.items())
        if (getattr(module, "__file__", None) or "").startswith(root)
        and os.sep + "tests" + os.sep not in module.__file__
    }
    assert local <= {"photonam", *conftest.LOCAL_MODULES}
