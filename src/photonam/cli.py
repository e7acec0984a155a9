"""Command-line front end: profiles, algebra checks, decay curves, entanglement.

Every command emits machine-readable CSV or JSON at 12 significant digits,
with byte-identical output for identical configurations. Exit codes: 0 all
requested verifications pass, 1 verification failure, 2 invalid flags or
config parse error, 3 I/O failure (the --out file or stdout cannot be written).

The option table `_OPTIONS` is the one definition of every flag and config
key: its parser, its allowed values and its help text. Flags may stand on
either side of the command; of a flag given twice the later value wins. A JSON
report is "schema", then the fields of the library's report dataclass in order,
a `passed` field written as "pass" (`_fields`).

`algebra` and `verify-all` are ordered lists of checks, each an `output.Check`
computed in the module whose physics it tests (`angular`, `radial`, `decay`,
`twins`) against a bound that module names; `_report_text` writes each as its
name, "pass", "bound" and its readings. --tol is the bound of every `algebra`
check and of verify-all's su2_closure, variance_table and density_commutators.

The module level imports only the standard library that argparse and
`RunConfig` need. Each command imports the modules it runs, and `_validate`
makes the checks that need no module first, so --help, an argparse refusal and
those refusals load no numpy.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

SCHEMA_VERSION = 1

#: Defaults for the entanglement Hamiltonian: resonant pair emission.
ENTANGLE_OMEGA = 1.0
ENTANGLE_OMEGA0 = 2.0
ENTANGLE_COUPLING = 0.05

#: Largest radial or decay grid; it is checked before anything is allocated.
#: It is radial.MAX_SAMPLES, written out so that the refusal loads no numpy
#: (tests/test_cli.py holds the two equal).
MAX_SAMPLES = 10**6

#: Fewest samples of every command but radial: the decay curve spans t = 0 to
#: 10 / gamma, the smallest grid any command accepts.
MIN_DECAY_SAMPLES = 2

#: The values --format and --m accept; a config file must keep to them too.
#: M_VALUES is sorted(angular.M_VALUES), written out so that argparse runs
#: before numpy loads (tests/test_cli.py holds the two equal).
FORMATS = ("csv", "json")
M_VALUES = (-1, 0, 1)


@dataclass
class RunConfig:
    command: str = "verify-all"
    kR: float = 100.0
    samples: int | None = None
    m: int = 0
    omega0_over_gamma: float = 1000.0
    cutoff: int = 3
    tol: float = 1e-12
    out: str | None = None
    format: str | None = None


def _json_text(payload: dict) -> str:
    """payload as strict JSON at the output precision, after a leading "schema"."""
    import json

    from .output import g12

    def rounded(value):
        """value with every float at the output precision, through dicts, lists and tuples."""
        if isinstance(value, float):
            return float(g12(value))
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(item) for item in value]
        return value

    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(rounded(payload), indent=2, allow_nan=False) + "\n"


def _fields(report) -> dict:
    """A report dataclass as its fields in order, the `passed` field written as "pass"."""
    return {("pass" if key == "passed" else key): value for key, value in asdict(report).items()}


def _report_text(checks: list[output.Check]) -> tuple[str, int]:
    """The checks in order, each its name, "pass", "bound" and readings; exit 1 if one fails."""
    rows = [{"name": c.name, "pass": bool(c.passed), "bound": c.bound, **c.values} for c in checks]
    ok = all(row["pass"] for row in rows)
    return _json_text({"checks": rows, "pass": ok}), 0 if ok else 1


def _cavity(cfg: RunConfig) -> radial.CavityConfig:
    from .radial import CavityConfig

    return CavityConfig(k=1.0, R=cfg.kR)


def cmd_radial(cfg: RunConfig) -> tuple[str, int]:
    from . import radial

    fmt = cfg.format or "csv"
    samples = cfg.samples if cfg.samples is not None else 2000
    cavity = _cavity(cfg)
    if fmt == "csv":
        profile = radial.radial_profile(cavity, samples)
        return "\n".join(radial.profile_csv_lines(profile)) + "\n", 0
    report = radial.zone_report(cavity, samples)
    return _json_text(_fields(report)), 0


def cmd_algebra(cfg: RunConfig) -> tuple[str, int]:
    from . import angular

    space = angular.three_mode_space(cfg.cutoff)
    triple = angular.j_operators(space)
    return _report_text([
        angular.su2_closure(triple, cfg.tol),
        *angular.density_identities(triple, _cavity(cfg), cfg.tol),
        angular.su3_diagonal_dependence(space, cfg.tol),
    ])


def cmd_variance(cfg: RunConfig) -> tuple[str, int]:
    from . import angular

    var_x, var_y, var_z = angular.am_variances(cfg.m, cfg.cutoff)
    return _json_text({"m": cfg.m, "varJx": var_x, "varJy": var_y, "varJz": var_z}), 0


def _decay_params(cfg: RunConfig, n_times: int) -> decay.DecayParams:
    import numpy as np

    # a from-import probes decay for __path__, which calls decay.__getattr__ (tests/test_reachability.py)
    from .decay import DecayParams

    # gamma = 1: times in units of 1 / gamma, n_times of them from 0 to 10
    return DecayParams(cfg.omega0_over_gamma, 1.0, np.linspace(0.0, 10.0, n_times))


def cmd_decay(cfg: RunConfig) -> tuple[str, int]:
    from . import decay

    fmt = cfg.format or "csv"
    samples = cfg.samples if cfg.samples is not None else 200
    params = _decay_params(cfg, samples)
    if fmt == "csv":
        curve = decay.sz_curve(params)
        return "\n".join(decay.decay_csv_lines(curve)) + "\n", 0
    residual = decay.conservation_check(params, 10.0)
    ok = abs(residual) < decay.DECAY_RESIDUAL_MAX
    payload = {"omega0_over_gamma": cfg.omega0_over_gamma,
               "sz_over_hbar_final": decay.sz_expectation(10.0, params),
               "norm_residual_at_10_over_gamma": residual, "pass": ok}
    return _json_text(payload), 0 if ok else 1


def _selection_rule() -> twins.SelectionRuleReport:
    """The selection rule of the resonant pair Hamiltonian."""
    from . import twins  # entangle and verify-all alone load twins

    space = twins.atom_field_space()
    h = twins.interaction_hamiltonian(space, ENTANGLE_OMEGA, ENTANGLE_OMEGA0, ENTANGLE_COUPLING)
    return twins.selection_rule_check(h, space, ENTANGLE_OMEGA, ENTANGLE_COUPLING)


def cmd_entangle(cfg: RunConfig) -> tuple[str, int]:
    from . import twins

    optimum, rule = twins.maximize_entanglement(), _selection_rule()
    ok = optimum.variational_pass and rule.passed
    payload = {**_fields(optimum), "selection_rule": _fields(rule), "pass": ok}
    return _json_text(payload), 0 if ok else 1


def cmd_verify_all(cfg: RunConfig) -> tuple[str, int]:
    from . import angular, decay, radial, twins

    triple = angular.j_operators(angular.three_mode_space(cfg.cutoff))
    cavity = _cavity(cfg)
    zone = radial.zone_report(cavity)
    return _report_text([
        angular.su2_closure(triple, cfg.tol),
        angular.variance_table(cfg.tol),
        radial.shell_conservation(),
        radial.near_zone_spin_dominance(cavity, zone),
        radial.oam_peak_location(zone),
        radial.wave_zone_equality(),
        angular.density_commutators(triple, cavity, cfg.tol),
        decay.decay_conservation(),
        twins.entanglement_maximum(twins.maximize_entanglement()),
        twins.selection_rule(_selection_rule()),
    ])


_DISPATCH = {
    "radial": cmd_radial,
    "algebra": cmd_algebra,
    "variance": cmd_variance,
    "decay": cmd_decay,
    "entangle": cmd_entangle,
    "verify-all": cmd_verify_all,
}

COMMANDS = tuple(_DISPATCH)


class _Option(NamedTuple):
    """How one RunConfig field is read, from its flag and from a config line alike."""

    parse: type
    #: The values accepted; None accepts whatever `parse` accepts.
    choices: tuple | None
    #: Flag help; "{:g}" shows the RunConfig default. None: no flag (the command, a positional).
    help: str | None


#: Every option, keyed by its RunConfig field; the flag of `omega0_over_gamma` is
#: --omega0-over-gamma, and so on.
_OPTIONS = {
    "command": _Option(str, COMMANDS, None),
    "kR": _Option(float, None, "dimensionless cavity size k*R (default {:g})"),
    "samples": _Option(int, None, "grid size (default: 2000 radial, 200 decay)"),
    "m": _Option(int, M_VALUES, "AM projection for variance (default {:g})"),
    "omega0_over_gamma": _Option(float, None,
                                 "transition frequency over decay width (default {:g})"),
    "cutoff": _Option(
        int, None,
        "Fock-space total-occupation cutoff (default {:g}); entangle and verify-all's "
        "selection_rule do not read it: their 22-state pair sector is the same at every cutoff",
    ),
    "tol": _Option(
        float, None,
        "bound of every algebra check and of verify-all's su2_closure, variance_table and "
        "density_commutators (default {:g}); verify-all's other bounds are fixed",
    ),
    "out": _Option(str, None, "output path (default stdout)"),
    "format": _Option(str, FORMATS, "output format (default depends on command)"),
}


def load_config(path: str) -> RunConfig:
    """Parse a UTF-8 `key = value` config file, a byte-order mark allowed; `#` starts a comment.

    A file that cannot be read or parsed raises ValueError naming the path and the line.
    """
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        option = _OPTIONS[key]
        try:
            values[key] = option.parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if option.choices is not None and values[key] not in option.choices:
            allowed = ", ".join(map(str, option.choices))
            raise ValueError(f"{path}:{lineno}: {key} must be one of {allowed}, got {value!r}")
    return RunConfig(**values)


def _build_parser() -> argparse.ArgumentParser:
    """One parser; its parse_intermixed_args reads flags on either side of the command."""
    parser = argparse.ArgumentParser(
        prog="photonam",
        description="Angular-momentum structure of dipole-emitted photons: "
        "radial density profiles, operator-algebra checks, decay curves, "
        "and photon-twin entanglement.",
    )
    # one `error: ...` line, as every other refusal, without argparse's usage block
    parser.error = lambda message: parser.exit(2, f"error: {message}\n")
    parser.add_argument(
        "command", nargs="?", choices=COMMANDS, default=None,
        help=f"the computation to run (default {RunConfig.command})",
    )
    parser.add_argument("--config", help="key = value config file; flags override")
    for name, option in _OPTIONS.items():
        if option.help is not None:
            parser.add_argument(
                "--" + name.replace("_", "-"), dest=name, type=option.parse,
                choices=option.choices, help=option.help.format(getattr(RunConfig, name)),
            )
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    overrides = {key: value for key, value in vars(args).items() if value is not None}
    path = overrides.pop("config", None)
    return replace(load_config(path) if path else RunConfig(), **overrides)


def _validate(cfg: RunConfig) -> None:
    """Refuse a tolerance that judges nothing, a grid out of bounds and CSV of a JSON report.

    The cutoff, cavity and decay parameters are checked whatever the command, so
    a flag the command does not read is refused just as one it reads. The checks
    that need no module come first: those refusals load no numpy.
    """
    if cfg.format == "csv" and cfg.command not in ("radial", "decay"):
        raise ValueError(f"{cfg.command} writes json only, got --format csv")
    for name in ("kR", "omega0_over_gamma", "tol"):
        if not (math.isfinite(value := getattr(cfg, name)) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if cfg.samples is not None and cfg.samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {cfg.samples}")
    from . import angular, radial

    fewest = radial.MIN_SAMPLES if cfg.command == "radial" else MIN_DECAY_SAMPLES
    if cfg.samples is not None and cfg.samples < fewest:
        raise ValueError(f"samples must be >= {fewest}, got {cfg.samples}")
    angular.check_cutoff(cfg.cutoff)
    _cavity(cfg)
    _decay_params(cfg, 1)


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout; OSError if it cannot be written."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        return
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # the unwritten bytes stay buffered; let the flush at exit send them nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_intermixed_args(argv)
    try:
        config = _merge_config(args)
        _validate(config)
        text, code = _DISPATCH[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _write(text, config.out)
    except OSError as exc:
        print(f"error: cannot write {config.out or 'stdout'}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
