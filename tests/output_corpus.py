"""The output corpus: stdout, stderr and exit code of a fixed list of command lines.

`tests/corpus/` holds one `NN.out` file of stdout per command line and
`index.json`, which lists each line's arguments, exit code and stderr, and the
Python, numpy and BLAS the corpus was made with. `tests/test_corpus.py` reruns
every line in process through `cli.main` and compares the bytes. A change that
moves any output commits the rewritten corpus, so its diff shows every changed
cell. Rewrite the corpus from the photonam on the path with

    PYTHONPATH=src python tests/output_corpus.py
"""

from __future__ import annotations

import io
import json
import os
import platform
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np

from photonam.cli import main

DIRECTORY = Path(__file__).with_name("corpus")

#: Command lines, in the order of their NN files.
COMMANDS = (
    # the six defaults
    ("radial",),
    ("algebra",),
    ("variance",),
    ("decay",),
    ("entangle",),
    ("verify-all",),
    ("radial", "--format", "json"),
    ("decay", "--format", "json"),
    ("variance", "--m", "1"),
    ("algebra", "--cutoff", "1"),
    ("algebra", "--cutoff", "8"),
    ("algebra", "--cutoff", "20"),
    ("verify-all", "--cutoff", "8"),
    ("verify-all", "--cutoff", "20"),
    ("verify-all", "--kR", "20"),
    ("verify-all", "--kR", "1e14"),
    ("verify-all", "--tol", "1e-30"),
    ("radial", "--kR", "1e14", "--format", "json"),
    ("radial", "--kR", "20"),
    ("radial", "--kR", "20", "--format", "json"),
    ("radial", "--kR", "1000", "--format", "json"),
    ("radial", "--kR", "12345.678", "--samples", "7777"),
    # five refusals: an argparse choice, the grid bounds, a NaN and CSV of a JSON report
    ("variance", "--m", "2"),
    ("radial", "--samples", "5"),
    ("decay", "--samples", "2000000"),
    ("radial", "--kR", "nan"),
    ("algebra", "--format", "csv"),
    ("--help",),
)

#: JSON keys that read at rounding level, so their digits depend on the BLAS
#: and libm build; on another build they are held to their bounds instead.
ROUNDING_KEYS = ("max_residual", "max_deviation", "max_evolution_overlap", "evolution_overlaps")
#: wave_zone_discrepancy reads rounding only where the windows are far out.
ROUNDING_AT_LARGE_KR = ("wave_zone_discrepancy",)

#: argparse wraps --help to the terminal width; the corpus is written at this one.
COLUMNS = "80"


def rounding_keys(args: tuple[str, ...]) -> tuple[str, ...]:
    return ROUNDING_KEYS + (ROUNDING_AT_LARGE_KR if "1e14" in args else ())


def build() -> dict:
    """The Python, numpy and BLAS that rounding-level digits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def run(args: tuple[str, ...]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one command line, in process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}), redirect_stdout(out), \
            redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exit_:  # argparse's --help and refusals
            code = exit_.code
    return out.getvalue(), err.getvalue(), code


def stdout_path(index: int) -> Path:
    return DIRECTORY / f"{index + 1:02d}.out"


def write() -> None:
    DIRECTORY.mkdir(exist_ok=True)
    cases = []
    for index, args in enumerate(COMMANDS):
        stdout, stderr, code = run(args)
        stdout_path(index).write_text(stdout, encoding="utf-8", newline="\n")
        cases.append({"args": list(args), "code": code, "stderr": stderr})
    rows = ",\n".join(f"    {json.dumps(case, ensure_ascii=False)}" for case in cases)
    text = f'{{\n  "build": {json.dumps(build())},\n  "cases": [\n{rows}\n  ]\n}}\n'
    (DIRECTORY / "index.json").write_text(text, encoding="utf-8", newline="\n")


if __name__ == "__main__":
    write()
