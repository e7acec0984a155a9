"""Command-line front end: profiles, algebra checks, decay curves, entanglement.

Every command emits machine-readable CSV or JSON at 12 significant digits,
with byte-identical output for identical configurations. Exit codes: 0 all
requested verifications pass, 1 verification failure, 2 invalid flags or
config parse error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import angular, decay, radial, twins

SCHEMA_VERSION = 1

COMMANDS = ("radial", "algebra", "variance", "decay", "entangle", "verify-all")

#: Defaults for the entanglement Hamiltonian: resonant pair emission.
ENTANGLE_OMEGA = 1.0
ENTANGLE_OMEGA0 = 2.0
ENTANGLE_COUPLING = 0.05


class ConfigError(Exception):
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


_CONFIG_PARSERS = {
    "command": str,
    "kR": float,
    "samples": int,
    "m": int,
    "omega0_over_gamma": float,
    "cutoff": int,
    "tol": float,
    "out": str,
    "format": str,
}


def load_config(path: str) -> RunConfig:
    """Parse a `key = value` config file; `#` starts a comment."""
    config = RunConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
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
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            parsed = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        config = replace(config, **{key: parsed})
    return config


def _round12(value: float) -> float:
    return float(f"{float(value):.12g}")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _check(name: str, passed: bool, **details) -> dict:
    entry = {"name": name, "pass": bool(passed)}
    for key, value in details.items():
        if isinstance(value, float):
            entry[key] = _round12(value)
        elif isinstance(value, (list, tuple)):
            entry[key] = [_round12(v) if isinstance(v, float) else v for v in value]
        else:
            entry[key] = value
    return entry


def _report_text(checks: list[dict]) -> tuple[str, bool]:
    ok = all(c["pass"] for c in checks)
    return _json_text({"schema": SCHEMA_VERSION, "checks": checks, "pass": ok}), ok


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
    payload = {"schema": SCHEMA_VERSION}
    payload.update({k: _round12(v) for k, v in report.to_json_dict().items()})
    return _json_text(payload), 0


def _algebra_checks(cfg: RunConfig) -> list[dict]:
    space = angular.three_mode_space(cfg.cutoff)
    triple = angular.j_operators(space)
    cavity = _cavity(cfg)
    su2 = angular.verify_su2(triple, cfg.tol)
    checks = [
        _check(su2.identity, su2.passed, max_residual=su2.max_residual,
               tolerance=su2.tolerance)
    ]
    for kr in (0.5, 3.0, 50.0):
        for kind_a, kind_b in (("spin", "spin"), ("oam", "oam"), ("oam", "spin")):
            rep = angular.density_commutator_check(
                kind_a, kind_b, kr, cfg.tol, config=cavity, triple=triple
            )
            checks.append(
                _check(f"{rep.identity} @ kr={kr}", rep.passed,
                       max_residual=rep.max_residual, tolerance=rep.tolerance)
            )
    gens = angular.su3_generators(space)
    dependence = sum(op.matrix for op in gens.diagonal_raw)
    residual = float(np.max(np.abs(dependence)))
    checks.append(
        _check("su3_diagonal_dependence", residual < cfg.tol, max_residual=residual,
               tolerance=cfg.tol)
    )
    return checks


def cmd_algebra(cfg: RunConfig) -> tuple[str, int]:
    text, ok = _report_text(_algebra_checks(cfg))
    return text, 0 if ok else 1


def cmd_variance(cfg: RunConfig) -> tuple[str, int]:
    var_x, var_y, var_z = angular.am_variances(cfg.m, cfg.cutoff)
    payload = {
        "schema": SCHEMA_VERSION,
        "m": cfg.m,
        "varJx": _round12(var_x),
        "varJy": _round12(var_y),
        "varJz": _round12(var_z),
    }
    return _json_text(payload), 0


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
        "schema": SCHEMA_VERSION,
        "omega0_over_gamma": _round12(cfg.omega0_over_gamma),
        "sz_over_hbar_final": _round12(decay.sz_expectation(10.0 / params.gamma, params)),
        "norm_residual_at_10_over_gamma": _round12(residual),
        "pass": ok,
    }
    return _json_text(payload), 0 if ok else 1


def cmd_entangle(cfg: RunConfig) -> tuple[str, int]:
    optimum = twins.maximize_entanglement()
    space = twins.atom_field_space()
    hamiltonian = twins.interaction_hamiltonian(
        space, ENTANGLE_OMEGA, ENTANGLE_OMEGA0, ENTANGLE_COUPLING
    )
    rule = twins.selection_rule_check(
        hamiltonian, space, ENTANGLE_OMEGA, ENTANGLE_COUPLING
    )
    payload = {"schema": SCHEMA_VERSION}
    for key, value in optimum.to_json_dict().items():
        payload[key] = _round12(value) if isinstance(value, float) else value
    rule_dict = rule.to_json_dict()
    payload["selection_rule"] = {
        key: (
            _round12(value)
            if isinstance(value, float)
            else [_round12(v) for v in value] if isinstance(value, list) else value
        )
        for key, value in rule_dict.items()
    }
    ok = optimum.variational_pass and rule.passed
    payload["pass"] = ok
    return _json_text(payload), 0 if ok else 1


def _verify_all_checks(cfg: RunConfig) -> list[dict]:
    checks: list[dict] = []

    space = angular.three_mode_space(cfg.cutoff)
    triple = angular.j_operators(space)
    su2 = angular.verify_su2(triple, 1e-12)
    checks.append(
        _check("su2_closure", su2.passed, max_residual=su2.max_residual, tolerance=1e-12)
    )

    expected = {0: (1.0, 1.0, 0.0), 1: (0.5, 0.5, 0.0), -1: (0.5, 0.5, 0.0)}
    worst = 0.0
    for m, want in expected.items():
        got = angular.am_variances(m, cfg.cutoff)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    ordering = angular.am_variances(0, cfg.cutoff)[0] > angular.am_variances(1, cfg.cutoff)[0]
    checks.append(
        _check("variance_table", worst < 1e-12 and ordering, max_deviation=worst,
               tolerance=1e-12)
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
    profile = radial.radial_profile(cavity, 2000)
    near_ok = (
        zone.near_ratio > 100.0
        and radial.f_oam(0.0, cavity) == 0.0
        and int(np.argmax(profile.f_spin)) == 0
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

    worst_dens = 0.0
    for kr in (0.5, 3.0, 50.0):
        for kind_a, kind_b in (("spin", "spin"), ("oam", "oam"), ("oam", "spin")):
            rep = angular.density_commutator_check(
                kind_a, kind_b, kr, 1e-12, config=cavity, triple=triple
            )
            worst_dens = max(worst_dens, rep.max_residual)
    checks.append(
        _check("density_commutators", worst_dens < 1e-12, max_residual=worst_dens,
               tolerance=1e-12)
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

    optimum = twins.maximize_entanglement()
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

    space2 = twins.atom_field_space()
    hamiltonian = twins.interaction_hamiltonian(
        space2, ENTANGLE_OMEGA, ENTANGLE_OMEGA0, ENTANGLE_COUPLING
    )
    rule = twins.selection_rule_check(hamiltonian, space2, ENTANGLE_OMEGA, ENTANGLE_COUPLING)
    checks.append(
        _check("selection_rule", rule.passed, coupling_to_odd=rule.coupling_to_odd,
               eigen_residual=rule.eigen_residual,
               max_evolution_overlap=max(rule.evolution_overlaps))
    )
    return checks


def cmd_verify_all(cfg: RunConfig) -> tuple[str, int]:
    text, ok = _report_text(_verify_all_checks(cfg))
    return text, 0 if ok else 1


_DISPATCH = {
    "radial": cmd_radial,
    "algebra": cmd_algebra,
    "variance": cmd_variance,
    "decay": cmd_decay,
    "entangle": cmd_entangle,
    "verify-all": cmd_verify_all,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonam",
        description="Angular-momentum structure of dipole-emitted photons: "
        "radial density profiles, operator-algebra checks, decay curves, "
        "and photon-twin entanglement.",
    )
    parser.add_argument("--config", default=None,
                        help="key = value config file; flags override")
    sub = parser.add_subparsers(dest="command")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help="key = value config file; flags override")
        p.add_argument("--kR", type=float, default=None,
                       help="dimensionless cavity size k*R (default 100)")
        p.add_argument("--samples", type=int, default=None,
                       help="grid size (default: 2000 radial, 200 decay)")
        p.add_argument("--m", type=int, choices=(-1, 0, 1), default=None,
                       help="AM projection for variance (default 0)")
        p.add_argument("--omega0-over-gamma", type=float, default=None,
                       dest="omega0_over_gamma",
                       help="transition frequency over decay width (default 1000)")
        p.add_argument("--cutoff", type=int, default=None,
                       help="Fock-space total-occupation cutoff (default 3)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance for algebra checks (default 1e-12)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default depends on command)")

    for name in COMMANDS:
        add_common(sub.add_parser(name, help=f"run the {name} computation"))
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if args.command is not None:
        config.command = args.command
    for field_info in fields(RunConfig):
        if field_info.name == "command":
            continue
        value = getattr(args, field_info.name, None)
        if value is not None:
            setattr(config, field_info.name, value)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.command not in _DISPATCH:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        text, code = _DISPATCH[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
