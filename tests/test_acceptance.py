"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import numpy as np
import pytest

from photonam import angular, decay, radial, twins
from photonam.cli import main


def report(number: int, description: str, ok: bool) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {description}")
    return ok


def test_criterion_01_su2_closure():
    rep = angular.verify_su2(angular.j_operators(angular.three_mode_space(3)), 1e-12)
    ok = rep.passed and rep.max_residual < 1e-12
    assert report(1, "SU(2) closure residuals < 1e-12 on the truncated space", ok)


def test_criterion_02_variance_table():
    expected = {0: (1.0, 1.0, 0.0), 1: (0.5, 0.5, 0.0), -1: (0.5, 0.5, 0.0)}
    ok = True
    for m, want in expected.items():
        got = angular.am_variances(m)
        ok = ok and all(abs(g - w) < 1e-12 for g, w in zip(got, want))
    ok = ok and angular.am_variances(0)[0] > angular.am_variances(1)[0]
    assert report(2, "AM variances (1,1,0) for m=0, (1/2,1/2,0) for m=+-1", ok)


def test_criterion_03_shell_integral_conservation():
    # quadrature of the densities: the profile's cum_* columns end at 1/2 by
    # construction, so reading them would not test the normalization
    ok = True
    for kR in (20.0, 100.0, 500.0):
        spin, oam = radial.shell_integrals(radial.CavityConfig(k=1.0, R=kR), 0.0, kR)
        ok = ok and abs(spin - 0.5) < 1e-6 and abs(oam - 0.5) < 1e-6
        ok = ok and abs(spin + oam - 1.0) < 2e-6
    assert report(3, "shell integrals reach hbar/2 each and hbar total", ok)


def test_criterion_04_near_zone_dominance():
    config = radial.CavityConfig(k=1.0, R=100.0)
    zone = radial.zone_report(config)
    profile = radial.radial_profile(config, 2000)
    ok = (
        zone.near_ratio > 100.0
        and radial.f_oam(0.0, config) == 0.0
        and int(np.argmax(profile.f_spin)) == 0
    )
    assert report(4, "spin density dominates near zone; OAM vanishes at origin", ok)


def test_criterion_05_oam_peak_location():
    zone = radial.zone_report(radial.CavityConfig(k=1.0, R=100.0))
    peak = zone.oam_peak_over_lambda
    assert report(5, "OAM density peaks between 0.4 and 0.65 wavelengths", 0.4 <= peak <= 0.65)


def test_criterion_06_wave_zone_equality():
    config = radial.CavityConfig(k=1.0, R=1000.0)
    starts = (100.0, 200.0, 400.0, 800.0)
    values = [radial.wave_zone_discrepancy(config, s) for s in starts]
    ok = all(v < 0.05 for v in values) and all(
        values[i] > values[i + 1] for i in range(len(values) - 1)
    )
    assert report(6, "windowed spin/OAM integrals within 5%, shrinking over octaves", ok)


def test_criterion_07_density_commutators():
    config = radial.CavityConfig(k=1.0, R=100.0)
    triple = angular.j_operators(angular.three_mode_space(3))
    ok = True
    for kr in (0.5, 3.0, 50.0):
        for kinds in (("spin", "spin"), ("oam", "oam"), ("oam", "spin")):
            rep = angular.density_commutator_check(
                *kinds, kr, 1e-12, config=config, triple=triple
            )
            ok = ok and rep.passed and rep.max_residual < 1e-12
    assert report(7, "density commutator identities < 1e-12 at kr in {0.5, 3, 50}", ok)


def test_criterion_08_decay_curve_and_conservation():
    grid = np.linspace(0.0, 10.0, 101)
    params = decay.DecayParams(omega0=1000.0, gamma=1.0)
    curve = decay.sz_curve(params, 101)
    closed_form = 0.5 * (1.0 - np.exp(-2.0 * params.gamma * grid))
    ok = np.array_equal(curve.t, grid) and np.array_equal(curve.sz_expect, closed_form)
    residuals = []
    for ratio in (1e2, 1e3, 1e4):
        p = decay.DecayParams(omega0=ratio, gamma=1.0)
        residuals.append(abs(decay.conservation_check(p, 10.0)))
    ok = ok and residuals[1] < 0.02
    ok = ok and residuals[0] > residuals[1] > residuals[2]
    assert report(8, "decay curve closed form; conservation < 0.02 and improving", ok)


def test_criterion_09_entanglement_maximum():
    result = twins.maximize_entanglement()
    # 1d calculus oracle: d/da (a - a^3) = 0 at a = sqrt(1/3)
    a_oracle = np.sqrt(1.0 / 3.0)
    mu_oracle = a_oracle - a_oracle**3
    ok = (
        abs(result.c1_abs - a_oracle) < 1e-8
        and abs(result.c2_abs - np.sqrt(2.0 / 3.0)) < 1e-8
        and result.local_expectation_max_abs < 1e-8
        and abs(result.mu_max - mu_oracle) < 1e-10
    )
    assert report(9, "maximum entanglement at |c1| = 1/sqrt(3), |c2| = sqrt(2/3)", ok)


def test_criterion_10_selection_rule():
    space = twins.atom_field_space()
    hamiltonian = twins.interaction_hamiltonian(space, 1.0, 2.0, 0.05)
    rep = twins.selection_rule_check(hamiltonian, space, 1.0, 0.05)
    ok = (
        rep.coupling_to_odd < 1e-12
        and rep.eigen_residual < 1e-12
        and all(v < 1e-10 for v in rep.evolution_overlaps)
    )
    assert report(10, "odd pair state decoupled: matrix element, eigenvector, evolution", ok)


def test_criterion_11_determinism(tmp_path):
    first = tmp_path / "verify1.json"
    second = tmp_path / "verify2.json"
    code1 = main(["verify-all", "--out", str(first)])
    code2 = main(["verify-all", "--out", str(second)])
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    assert report(11, "two verify-all runs emit byte-identical reports", ok)
