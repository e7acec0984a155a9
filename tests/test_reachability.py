"""Reachability: every function in src/photonam is called by some command.

A fresh interpreter starts `sys.setprofile` before `import photonam`, runs the
commands of COMMANDS and one `--config` run in process, and reports every code
object of a src/photonam/*.py file that was called, import time included. The
test compiles those files, lists every function they define with `def`, at any
depth (a lambda or a comprehension is part of the function around it), and
fails on one that no command called, unless ALLOWED names it with a reason.

`decay.__getattr__`, the module hook that serves the benchmark's `integrate`
lookup, counts as reached without a benchmark: `cli._decay_params`, which every
command runs through `_validate`, imports `from .decay import DecayParams`, and
the import machinery probes the module for `__path__`, which calls it.
"""

import inspect
import json
import os
import subprocess
import sys
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "photonam")

#: The six default commands and the non-default runs whose code paths differ.
COMMANDS = [
    ["radial"],
    ["algebra"],
    ["variance"],
    ["decay"],
    ["entangle"],
    ["verify-all"],
    ["radial", "--format", "json"],
    ["decay", "--format", "json"],
    ["variance", "--m", "1"],
]

#: Functions no command calls, each with the reason it stays in src/.
ALLOWED = {
    "fock.annihilation": "the benchmark times it by name (perfbench/spans.py LAYERS), "
    "and tests/ladder.py builds its dense reference on it",
    "fock.OperatorMatrix.matrix": "the benchmark's operator-sweep hands the dense "
    "matrices to its checker (perfbench/workloads.py)",
    "radial.RadialProfile.n_samples": "the benchmark's radial-sweep reports it "
    "(perfbench/workloads.py)",
    "fock.FockSpace.basis": "the occupation tuples, built on demand for inspection: the "
    "benchmark's operator-sweep reads them outside its timed operation "
    "(perfbench/workloads.py); the commands read the occupation array",
    "radial.spherical_bessel": "public j0/j2; the tests check the kernel's Bessel rows "
    "against mpmath through it",
    "angular.Su3GeneratorSet.all_generators": "the benchmark's operator-sweep counts the "
    "independent generators through it (perfbench/workloads.py); the commands read the "
    "three raw diagonals",
}

#: Runs each argument list through the CLI under a profile hook installed before
#: photonam is imported; prints the exit codes and the called code objects of
#: the package as (file name, first line, name).
PROBE = """
import contextlib, io, json, os, sys

package = sys.argv[1] + os.sep
called = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        code = frame.f_code
        called.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))


sys.setprofile(profile)
import photonam.cli

codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(photonam.cli.main(argv))
sys.setprofile(None)
assert photonam.__file__.startswith(package), photonam.__file__
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> dotted name of every `def` in the package."""
    found = {}

    def walk(code: types.CodeType, filename: str, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            # a class body is not an optimized code object, a function is
            if const.co_flags & inspect.CO_OPTIMIZED:
                found[(filename, const.co_firstlineno, const.co_name)] = name
                walk(const, filename, name + ".<locals>.")
            else:
                walk(const, filename, name + ".")

    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec")
            walk(module, filename, filename[: -len(".py")] + ".")
    return found


def called_functions(commands: list[list[str]]) -> set[tuple[str, int, str]]:
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, PACKAGE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0] * len(commands)
    return {tuple(key) for key in report["called"]}


def test_every_function_is_reached_by_a_command(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("command = decay\nformat = json\nomega0_over_gamma = 500\n")
    called = called_functions(COMMANDS + [["--config", str(config)]])
    defined = defined_functions()
    unreached = {name for key, name in defined.items() if key not in called}
    # equality: an allowed function that a command starts to call, or that is
    # deleted, leaves the list too
    assert unreached == set(ALLOWED)
    # the six entries above; the cap falls with each one removed
    assert len(ALLOWED) <= 6 and all(ALLOWED.values())
