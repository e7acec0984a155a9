"""The output contract: each corpus command line still writes its recorded bytes.

tests/output_corpus.py holds the command list and rewrites tests/corpus/. On
the numpy and BLAS the corpus was made with, stdout, stderr and the exit code
must match byte for byte. On another build the rounding-level keys of a JSON
report (output_corpus.ROUNDING_KEYS) are held to their bounds instead, each on
the same side of its bound as recorded, and the test warns that it did so;
every other byte stays exact. The argparse help text is held exact on the
recorded Python minor version only.
"""

import json
import platform
import warnings

import pytest

from output_corpus import COMMANDS, DIRECTORY, build, rounding_keys, run, stdout_path
from photonam import radial, twins

INDEX = json.loads((DIRECTORY / "index.json").read_text(encoding="utf-8"))
RECORDED = INDEX["build"]
SAME_NUMERICS = all(build()[key] == RECORDED[key] for key in ("numpy", "blas"))
SAME_PYTHON = platform.python_version_tuple()[:2] == tuple(RECORDED["python"].split(".")[:2])

#: Bounds of rounding keys read outside a check record, which carries its own.
UNRECORDED_BOUNDS = {
    "evolution_overlaps": twins.OVERLAP_TOL,
    "wave_zone_discrepancy": radial.WAVE_DISCREPANCY_MAX,
}


def first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for number, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {number}: got {a!r}, recorded {b!r}"
    return f"got {len(got_lines)} lines, recorded {len(want_lines)}"


def held_to_bounds(payload, keys, readings):
    """payload with each value under one of keys replaced by None.

    (key, value, bound) of each replaced value goes to readings; its bound is
    the enclosing check's "bound", the entry for key where that is an object.
    """
    if isinstance(payload, list):
        return [held_to_bounds(item, keys, readings) for item in payload]
    if not isinstance(payload, dict):
        return payload
    masked = {}
    for key, value in payload.items():
        if key == "bound":  # the bounds themselves are exact
            masked[key] = value
        elif key in keys:
            bound = payload.get("bound", UNRECORDED_BOUNDS.get(key))
            readings.append((key, value, bound[key] if isinstance(bound, dict) else bound))
            masked[key] = None
        else:
            masked[key] = held_to_bounds(value, keys, readings)
    return masked


def test_corpus_lists_the_commands():
    assert [tuple(case["args"]) for case in INDEX["cases"]] == list(COMMANDS)
    assert sorted(path.name for path in DIRECTORY.glob("*.out")) == [
        stdout_path(index).name for index in range(len(COMMANDS))
    ]


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(a) for a in COMMANDS])
def test_command_line_writes_its_corpus(index):
    args, case = COMMANDS[index], INDEX["cases"][index]
    stdout, stderr, code = run(args)
    assert (code, stderr) == (case["code"], case["stderr"])
    want = stdout_path(index).read_bytes().decode("utf-8")
    if args == ("--help",) and not SAME_PYTHON:
        assert stdout.startswith("usage: photonam")
        return
    if SAME_NUMERICS or not want.startswith("{"):
        same = stdout == want
        assert same, first_difference(stdout, want)
        return
    keys = rounding_keys(args)
    got_readings, want_readings = [], []
    got = held_to_bounds(json.loads(stdout), keys, got_readings)
    assert got == held_to_bounds(json.loads(want), keys, want_readings)
    for (key, value, bound), (_, recorded, _) in zip(got_readings, want_readings):
        values, recorded = (v if isinstance(v, list) else [v] for v in (value, recorded))
        assert [abs(v) < bound for v in values] == [abs(v) < bound for v in recorded], key
    now = build()
    warnings.warn(
        f"numpy {now['numpy']} / {now['blas']} is not the corpus build "
        f"({RECORDED['numpy']} / {RECORDED['blas']}): {', '.join(keys)} held to their bounds",
        stacklevel=1,
    )
