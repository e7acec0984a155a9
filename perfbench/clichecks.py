"""Checks of the CLI's default-flag output, and the CSV checks the sweeps share.

Standard library only: the orchestrator checks every cold command's stdout
without importing numpy or photonam itself.
"""

from __future__ import annotations

import json
import math

#: One pass of cli-cold: each command once, default flags.
COMMANDS = ("radial", "algebra", "variance", "decay", "entangle", "verify-all")
DEFAULT_KR = 100.0
DEFAULT_RADIAL_SAMPLES = 2000
DEFAULT_DECAY_SAMPLES = 200

RADIAL_HEADER = "kr,f_spin,f_oam,cum_spin,cum_oam"
DECAY_HEADER = "t,sz_over_hbar,excited_pop,norm_residual"
#: CSV and JSON values carry 12 significant digits.
DIGITS_TOL = 1e-11
#: The shell totals are hbar/2 each; verify-all uses the same bound.
SHELL_TOL = 1e-6
#: verify-all's bounds on the entanglement optimum.
C1_TOL = 1e-8
MU_TOL = 1e-10


def _csv_rows(lines: list[str], header: str, n_rows: int):
    if not lines or lines[0] != header:
        return f"CSV header is {lines[:1]!r}"
    if len(lines) != n_rows + 1:
        return f"CSV has {len(lines) - 1} rows, expected {n_rows}"
    width = header.count(",") + 1
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return f"CSV value does not parse: {exc}"
    if any(len(row) != width or not all(map(math.isfinite, row)) for row in rows):
        return "CSV row with a wrong field count or a non-finite value"
    return rows


def check_profile_csv(lines: list[str], kR: float, n_rows: int) -> list[str]:
    """Radial CSV: the grid ends at kR and both shell totals are 1/2."""
    rows = _csv_rows(lines, RADIAL_HEADER, n_rows)
    if isinstance(rows, str):
        return [rows]
    kr, _, _, cum_spin, cum_oam = rows[-1]
    failures = []
    if abs(kr - kR) > DIGITS_TOL * kR:
        failures.append(f"last CSV kr is {kr}, expected {kR}")
    if abs(cum_spin - 0.5) > SHELL_TOL or abs(cum_oam - 0.5) > SHELL_TOL:
        failures.append(f"CSV shell totals are {cum_spin}, {cum_oam}, not 1/2")
    return failures


def check_decay_csv(lines: list[str], n_rows: int) -> list[str]:
    """Decay CSV: S_z + P_exc / 2 = 1/2 on every row, zero residual at t = 0."""
    rows = _csv_rows(lines, DECAY_HEADER, n_rows)
    if isinstance(rows, str):
        return [rows]
    worst = max(abs(sz + pop / 2.0 - 0.5) for _, sz, pop, _ in rows)
    failures = []
    if worst > DIGITS_TOL:
        failures.append(f"CSV S_z + P_exc/2 misses 1/2 by {worst:.3g}")
    if rows[0][0] != 0.0 or rows[0][3] != 0.0:
        failures.append(f"CSV first row is {rows[0]}, expected t = 0 with zero residual")
    return failures


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def _strict_json(text: str):
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        return "JSON report without schema 1"
    return payload


def _close(value, want: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - want) <= tol


def check_command(command: str, code: int, stdout: str) -> list[str]:
    """Failures of one default-flag command's exit code and stdout."""
    failures = [] if code == 0 else [f"{command} exited with {code}"]
    if command == "radial":
        return failures + check_profile_csv(
            stdout.splitlines(), DEFAULT_KR, DEFAULT_RADIAL_SAMPLES
        )
    if command == "decay":
        return failures + check_decay_csv(stdout.splitlines(), DEFAULT_DECAY_SAMPLES)
    payload = _strict_json(stdout)
    if isinstance(payload, str):
        return failures + [f"{command}: {payload}"]
    if command == "variance":
        if not (
            payload.get("m") == 0
            and _close(payload.get("varJx"), 1.0, DIGITS_TOL)
            and _close(payload.get("varJy"), 1.0, DIGITS_TOL)
            and _close(payload.get("varJz"), 0.0, DIGITS_TOL)
        ):
            failures.append(f"variance for m = 0 is {payload}, expected (1, 1, 0)")
        return failures
    if payload.get("pass") is not True:
        failures.append(f"{command} reports pass = {payload.get('pass')!r}")
    checks = payload.get("checks", [])
    failures += [f"{command}: {c.get('name')} fails" for c in checks if c.get("pass") is not True]
    if command == "entangle" and not (
        _close(payload.get("c1_abs"), 1.0 / math.sqrt(3.0), C1_TOL)
        and _close(payload.get("mu_max"), 2.0 / (3.0 * math.sqrt(3.0)), MU_TOL)
        and payload.get("selection_rule", {}).get("pass") is True
    ):
        failures.append(f"entangle optimum is c1 = {payload.get('c1_abs')}, mu = {payload.get('mu_max')}")
    if command in ("algebra", "verify-all") and not checks:
        failures.append(f"{command} reports no checks")
    return failures
