"""Command-line front end: profiles, algebra checks, decay curves, entanglement.

Every command emits machine-readable CSV or JSON at 12 significant digits,
with byte-identical output for identical configurations. Exit codes: 0 all
requested verifications pass, 1 verification failure, 2 invalid flags or
config parse error, 3 I/O failure (the --out file or stdout cannot be written).

The option table `_OPTIONS` is the one definition of every flag and config
key: its parser, its allowed values and its help text.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import angular, decay, output, radial, twins

SCHEMA_VERSION = 1

#: Defaults for the entanglement Hamiltonian: resonant pair emission.
ENTANGLE_OMEGA = 1.0
ENTANGLE_OMEGA0 = 2.0
ENTANGLE_COUPLING = 0.05

#: The fixed tolerance of verify-all's algebra, variance and density checks.
VERIFY_TOL = 1e-12

#: Radii and operator pairs of the nine density-commutator identities.
DENSITY_RADII = (0.5, 3.0, 50.0)
DENSITY_PAIRS = (("spin", "spin"), ("oam", "oam"), ("oam", "spin"))

#: Largest radial or decay grid; it is checked before anything is allocated.
MAX_SAMPLES = 10**6

#: Fewest samples of every command but radial: the decay curve spans t = 0 to
#: 10 / gamma, the smallest grid any command accepts.
MIN_DECAY_SAMPLES = 2

#: The values --format and --m accept; a config file must keep to them too.
FORMATS = ("csv", "json")
M_VALUES = tuple(sorted(angular.M_VALUES))


class ConfigError(ValueError):
    """Config file cannot be parsed; message carries the line number."""


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


def _rounded(value):
    """value with every float at the output precision, through dicts, lists and tuples."""
    if isinstance(value, float):
        return float(output.g12(value))
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _json_text(payload: dict) -> str:
    """payload as strict JSON at the output precision, after a leading "schema"."""
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(_rounded(payload), indent=2, allow_nan=False) + "\n"


def _check(name: str, passed: bool, **details) -> dict:
    return {"name": name, "pass": bool(passed), **details}


def _report_check(name: str, report: angular.AlgebraReport) -> dict:
    return _check(name, report.passed, max_residual=report.max_residual,
                  tolerance=report.tolerance)


def _report_text(checks: list[dict]) -> tuple[str, int]:
    ok = all(c["pass"] for c in checks)
    return _json_text({"checks": checks, "pass": ok}), 0 if ok else 1


def _cavity(cfg: RunConfig) -> radial.CavityConfig:
    return radial.CavityConfig(k=1.0, R=cfg.kR)


def cmd_radial(cfg: RunConfig) -> tuple[str, int]:
    fmt = cfg.format or "csv"
    samples = cfg.samples if cfg.samples is not None else 2000
    cavity = _cavity(cfg)
    if fmt == "csv":
        profile = radial.radial_profile(cavity, samples)
        return "\n".join(radial.profile_csv_lines(profile)) + "\n", 0
    report = radial.zone_report(cavity, samples)
    return _json_text(report.to_json_dict()), 0


def _algebra_reports(
    cfg: RunConfig, tol: float
) -> tuple[angular.AlgebraReport, list[tuple[float, angular.AlgebraReport]], float]:
    """SU(2) closure, the nine (kr, density report) pairs, the SU(3) dependence residual."""
    space = angular.three_mode_space(cfg.cutoff)
    triple = angular.j_operators(space)
    cavity = _cavity(cfg)
    densities = [
        (kr, angular.density_commutator_check(a, b, kr, tol, config=cavity, triple=triple))
        for kr in DENSITY_RADII
        for a, b in DENSITY_PAIRS
    ]
    # the three diagonals summed block by block, so no dense operator is assembled
    raw = angular.su3_generators(space).diagonal_raw
    dependence = max(
        float(np.max(np.abs(sum(blocks)))) for blocks in zip(*(op.blocks for op in raw))
    )
    return angular.verify_su2(triple, tol), densities, dependence


def cmd_algebra(cfg: RunConfig) -> tuple[str, int]:
    su2, densities, su3_residual = _algebra_reports(cfg, cfg.tol)
    checks = [_report_check(su2.identity, su2)]
    checks += [_report_check(f"{rep.identity} @ kr={kr}", rep) for kr, rep in densities]
    checks.append(
        _check("su3_diagonal_dependence", su3_residual < cfg.tol, max_residual=su3_residual,
               tolerance=cfg.tol)
    )
    return _report_text(checks)


def cmd_variance(cfg: RunConfig) -> tuple[str, int]:
    var_x, var_y, var_z = angular.am_variances(cfg.m, cfg.cutoff)
    return _json_text({"m": cfg.m, "varJx": var_x, "varJy": var_y, "varJz": var_z}), 0


def _decay_params(cfg: RunConfig, n_times: int) -> decay.DecayParams:
    gamma = 1.0
    omega0 = cfg.omega0_over_gamma * gamma
    grid = np.linspace(0.0, 10.0 / gamma, n_times)
    return decay.DecayParams(omega0=omega0, gamma=gamma, time_grid=grid)


def cmd_decay(cfg: RunConfig) -> tuple[str, int]:
    fmt = cfg.format or "csv"
    samples = cfg.samples if cfg.samples is not None else 200
    params = _decay_params(cfg, samples)
    if fmt == "csv":
        curve = decay.sz_curve(params)
        return "\n".join(decay.decay_csv_lines(curve)) + "\n", 0
    residual = decay.conservation_check(params, 10.0 / params.gamma)
    ok = abs(residual) < 0.02
    payload = {
        "omega0_over_gamma": cfg.omega0_over_gamma,
        "sz_over_hbar_final": decay.sz_expectation(10.0 / params.gamma, params),
        "norm_residual_at_10_over_gamma": residual,
        "pass": ok,
    }
    return _json_text(payload), 0 if ok else 1


def _entangle_reports() -> tuple[twins.EntanglementOptimum, twins.SelectionRuleReport]:
    """The entanglement optimum and the selection rule of the resonant pair Hamiltonian."""
    space = twins.atom_field_space()
    hamiltonian = twins.interaction_hamiltonian(
        space, ENTANGLE_OMEGA, ENTANGLE_OMEGA0, ENTANGLE_COUPLING
    )
    rule = twins.selection_rule_check(hamiltonian, space, ENTANGLE_OMEGA, ENTANGLE_COUPLING)
    return twins.maximize_entanglement(), rule


def cmd_entangle(cfg: RunConfig) -> tuple[str, int]:
    optimum, rule = _entangle_reports()
    ok = optimum.variational_pass and rule.passed
    payload = {**optimum.to_json_dict(), "selection_rule": rule.to_json_dict(), "pass": ok}
    return _json_text(payload), 0 if ok else 1


def _verify_all_checks(cfg: RunConfig) -> list[dict]:
    checks: list[dict] = []

    su2, densities, _ = _algebra_reports(cfg, VERIFY_TOL)
    checks.append(_report_check("su2_closure", su2))

    expected = {0: (1.0, 1.0, 0.0), 1: (0.5, 0.5, 0.0), -1: (0.5, 0.5, 0.0)}
    got = {m: angular.am_variances(m, cfg.cutoff) for m in expected}
    worst = max(abs(g - w) for m, want in expected.items() for g, w in zip(got[m], want))
    ordering = got[0][0] > got[1][0]
    checks.append(
        _check("variance_table", worst < VERIFY_TOL and ordering, max_deviation=worst,
               tolerance=VERIFY_TOL)
    )

    # quadrature of the densities: the profile's cum_* columns end at 1/2 anyway
    worst_shell = 0.0
    for kR in (20.0, 100.0, 500.0):
        spin, oam = radial.shell_integrals(
            radial.CavityConfig(k=1.0, R=kR), np.linspace(0.0, kR, 2001)
        )
        dev = max(abs(spin - 0.5), abs(oam - 0.5), abs(spin + oam - 1.0) / 2.0)
        worst_shell = max(worst_shell, dev)
    checks.append(
        _check("shell_conservation", worst_shell < 1e-6, max_deviation=worst_shell,
               tolerance=1e-6)
    )

    cavity = _cavity(cfg)
    zone = radial.zone_report(cavity)
    near_ok = (
        zone.near_ratio > 100.0
        and radial.f_oam(0.0, cavity) == 0.0
        and int(np.argmax(radial.radial_profile(cavity).f_spin)) == 0
    )
    checks.append(_check("near_zone_spin_dominance", near_ok, near_ratio=zone.near_ratio))

    peak = zone.oam_peak_over_lambda
    checks.append(
        _check("oam_peak_location", 0.4 <= peak <= 0.65, oam_peak_over_lambda=peak)
    )

    wide = radial.CavityConfig(k=1.0, R=1000.0)
    discrepancies = [radial.wave_zone_discrepancy(wide, start) for start in (100.0, 200.0, 400.0, 800.0)]
    wave_ok = all(d < 0.05 for d in discrepancies) and all(
        discrepancies[i] > discrepancies[i + 1] for i in range(len(discrepancies) - 1)
    )
    checks.append(_check("wave_zone_equality", wave_ok, discrepancies=discrepancies))

    reports = [rep for _, rep in densities]
    checks.append(
        _check("density_commutators", all(rep.passed for rep in reports),
               max_residual=max(rep.max_residual for rep in reports), tolerance=VERIFY_TOL)
    )

    residuals = []
    for ratio in (1e2, 1e3, 1e4):
        params = decay.DecayParams(omega0=ratio, gamma=1.0, time_grid=np.array([0.0]))
        residuals.append(abs(decay.conservation_check(params, 10.0)))
    params = _decay_params(cfg, 41)
    curve = decay.sz_curve(params)
    closed_form = np.max(np.abs(curve.excited_pop + 2.0 * curve.sz_expect - 1.0))
    decay_ok = (
        closed_form == 0.0
        and residuals[1] < 0.02
        and residuals[0] > residuals[1] > residuals[2]
    )
    checks.append(
        _check("decay_conservation", decay_ok, residuals=residuals,
               closed_form_deviation=float(closed_form))
    )

    optimum, rule = _entangle_reports()
    target_c1 = 1.0 / np.sqrt(3.0)
    target_c2 = np.sqrt(2.0 / 3.0)
    target_mu = 2.0 / (3.0 * np.sqrt(3.0))
    ent_ok = (
        abs(optimum.c1_abs - target_c1) < 1e-8
        and abs(optimum.c2_abs - target_c2) < 1e-8
        and optimum.local_expectation_max_abs < 1e-8
        and abs(optimum.mu_max - target_mu) < 1e-10
    )
    checks.append(
        _check("entanglement_maximum", ent_ok, c1_abs=optimum.c1_abs,
               c2_abs=optimum.c2_abs, mu_max=optimum.mu_max,
               local_expectation_max_abs=optimum.local_expectation_max_abs)
    )
    checks.append(
        _check("selection_rule", rule.passed, coupling_to_odd=rule.coupling_to_odd,
               eigen_residual=rule.eigen_residual,
               max_evolution_overlap=max(rule.evolution_overlaps))
    )
    return checks


def cmd_verify_all(cfg: RunConfig) -> tuple[str, int]:
    return _report_text(_verify_all_checks(cfg))


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
    #: Flag help; "{:g}" shows the RunConfig default. None: no flag (the sub-command).
    help: str | None


#: Every option, keyed by its RunConfig field; the flag of `omega0_over_gamma` is
#: --omega0-over-gamma, and so on.
_OPTIONS = {
    "command": _Option(str, COMMANDS, None),
    "kR": _Option(float, None, "dimensionless cavity size k*R (default {:g})"),
    "samples": _Option(int, None, "grid size (default: 2000 radial, 200 decay)"),
    "m": _Option(int, M_VALUES, "AM projection for variance (default {:g})"),
    "omega0_over_gamma": _Option(
        float, None, "transition frequency over decay width (default {:g})"
    ),
    "cutoff": _Option(int, None, "Fock-space total-occupation cutoff (default {:g})"),
    "tol": _Option(float, None, "tolerance for algebra checks (default {:g})"),
    "out": _Option(str, None, "output path (default stdout)"),
    "format": _Option(str, FORMATS, "output format (default depends on command)"),
}


def load_config(path: str) -> RunConfig:
    """Parse a `key = value` config file; `#` starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        option = _OPTIONS[key]
        try:
            values[key] = option.parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if option.choices is not None and values[key] not in option.choices:
            allowed = ", ".join(map(str, option.choices))
            raise ConfigError(f"{path}:{lineno}: {key} must be one of {allowed}, got {value!r}")
    return RunConfig(**values)


def _build_parser() -> argparse.ArgumentParser:
    # one set of flags, accepted before and after the command name; a flag not
    # given sets nothing, so it cannot overwrite one given in the other position
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="key = value config file; flags override")
    for name, option in _OPTIONS.items():
        if option.help is not None:
            common.add_argument(
                "--" + name.replace("_", "-"), dest=name, type=option.parse,
                choices=option.choices, help=option.help.format(getattr(RunConfig, name)),
            )
    parser = argparse.ArgumentParser(
        prog="photonam",
        description="Angular-momentum structure of dipole-emitted photons: "
        "radial density profiles, operator-algebra checks, decay curves, "
        "and photon-twin entanglement.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        sub.add_parser(name, parents=[common], help=f"run the {name} computation")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    overrides = {key: value for key, value in vars(args).items() if value is not None}
    path = overrides.pop("config", None)
    return replace(load_config(path) if path else RunConfig(), **overrides)


def _validate(cfg: RunConfig) -> None:
    """Refuse a tolerance that judges nothing and a grid out of bounds.

    The cutoff, cavity and decay parameters are built whatever the command, so
    a flag the command does not read is refused just as one it reads.
    """
    if not (np.isfinite(cfg.tol) and cfg.tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {cfg.tol}")
    if cfg.samples is not None and cfg.samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {cfg.samples}")
    fewest = radial.MIN_SAMPLES if cfg.command == "radial" else MIN_DECAY_SAMPLES
    if cfg.samples is not None and cfg.samples < fewest:
        raise ValueError(f"samples must be >= {fewest}, got {cfg.samples}")
    angular.three_mode_space(cfg.cutoff)
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
    args = _build_parser().parse_args(argv)
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
