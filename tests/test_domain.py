"""Every command over its accepted domain: exit 0 and strict JSON at seeded draws.

`verify-all` runs at log-uniform kR in [20, 1e14], log-uniform omega0/gamma in
[50, 1e300] and cutoffs 1-20, all drawn together; `radial --format json` at
each kR and `decay --format json` at each omega0/gamma. The kR of two former
failures of near_zone_spin_dominance, whose profile grid started past the
central lobe of f_spin, are run too.

The twins' omega, omega0 and gamma have no flag, so the selection rule is run
in process: log-uniform omega in [1e-2, 1e8] and gamma in [1e-9, 1e2], each
with omega0 = 2 omega, 3 omega and 2 omega + 1.
"""

import json

import numpy as np
import pytest

from photonam import twins
from photonam.cli import main

DRAWS = 200


def draws(seed: int) -> list[tuple[float, float, int]]:
    rng = np.random.default_rng(seed)
    # clipped: 10 ** log10(20) may round below 20
    kR = np.clip(10.0 ** rng.uniform(np.log10(20.0), 14.0, DRAWS), 20.0, 1e14)
    ratio = np.clip(10.0 ** rng.uniform(np.log10(50.0), 300.0, DRAWS), 50.0, None)
    cutoff = rng.integers(1, 21, DRAWS)
    return list(zip(kR.tolist(), ratio.tolist(), cutoff.tolist()))


def refused_runs(capsys, argvs) -> list[tuple[list[str], int]]:
    """The argument lists whose run does not exit 0 with strict JSON on stdout."""
    refused = []
    for argv in argvs:
        code = main(argv)
        out = capsys.readouterr().out
        try:
            json.loads(out, parse_constant=lambda name: 1 / 0)
        except (ValueError, ZeroDivisionError):
            code = code or -1
        if code != 0:
            refused.append((argv, code))
    return refused


def test_every_command_passes_over_its_accepted_domain(capsys):
    argvs = []
    for kR, ratio, cutoff in draws(20240613):
        flags = ["--kR", repr(kR), "--omega0-over-gamma", repr(ratio), "--cutoff", str(cutoff)]
        argvs += [["verify-all", *flags], ["radial", "--format", "json", *flags],
                  ["decay", "--format", "json", *flags]]
    assert refused_runs(capsys, argvs) == []


@pytest.mark.parametrize("kR", ["5736.288000174625", "20000"])
def test_verify_all_passes_where_a_sampled_profile_peaked_off_the_atom(capsys, kR):
    assert refused_runs(capsys, [["verify-all", "--kR", kR]]) == []


def test_selection_rule_passes_over_the_twins_domain():
    rng = np.random.default_rng(20240613)
    omegas = 10.0 ** rng.uniform(-2.0, 8.0, DRAWS)
    gammas = 10.0 ** rng.uniform(-9.0, 2.0, DRAWS)
    space = twins.atom_field_space()
    failed = []
    for omega, gamma in zip(omegas.tolist(), gammas.tolist()):
        for omega0 in (2.0 * omega, 3.0 * omega, 2.0 * omega + 1.0):
            h = twins.interaction_hamiltonian(space, omega, omega0, gamma)
            check = twins.selection_rule(twins.selection_rule_check(h, space, omega, gamma))
            within = all(check.values[name] < bound for name, bound in check.bound.items())
            if not (check.passed and within):
                failed.append((omega, omega0, gamma, check.values))
    assert failed == []


def test_selection_rule_passes_or_refuses_down_to_subnormal_gamma():
    # at gamma near the float floor the longest time 10 / gamma, or the phase
    # max|E| t, overflows: such a call is refused in one line, never warned
    rng = np.random.default_rng(20240614)
    omegas = 10.0 ** rng.uniform(-2.0, 8.0, DRAWS)
    gammas = 10.0 ** rng.uniform(-310.0, -9.0, DRAWS)
    space = twins.atom_field_space()
    failed, refused = [], 0
    for omega, gamma in zip(omegas.tolist(), gammas.tolist()):
        for omega0 in (2.0 * omega, 3.0 * omega, 2.0 * omega + 1.0):
            h = twins.interaction_hamiltonian(space, omega, omega0, gamma)
            try:
                check = twins.selection_rule(twins.selection_rule_check(h, space, omega, gamma))
            except ValueError as exc:
                refused += 1
                if not str(exc).startswith("gamma_coupling must be finite") or "\n" in str(exc):
                    failed.append((omega, omega0, gamma, str(exc)))
                continue
            within = all(check.values[name] < bound for name, bound in check.bound.items())
            if not (check.passed and within):
                failed.append((omega, omega0, gamma, check.values))
    assert failed == []
    assert 0 < refused < 3 * DRAWS
