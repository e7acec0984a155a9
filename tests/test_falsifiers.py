"""Committed falsifiers: a physics-level perturbation and the checks it must flip.

Each row monkeypatches one constant or function, runs a command, and names
the checks that must then read "pass": false, with exit 1; every other check
must still pass. entangle reports no check list: its two readings,
variational_pass and selection_rule.pass, stand in for it. The unperturbed commands pass (tests/test_cli.py). Where two
checks rest on the same computation the row states it, so that they are seen
to flip together. Each perturbation's comment gives the smallest one of its
kind that flips the row's check, measured by bisection on the factor.

The radial rows perturb the mode normalization through the function that the
per-cavity density weights are computed from, so they also show that the
weights' cache does not hide a perturbed normalization.
"""

import json

import numpy as np
import pytest

from photonam import angular, decay, radial, twins
from photonam.cli import main


def perturb_spin1_jx(monkeypatch):
    # Jx x (1 + 1e-6) breaks [J_a, J_b] = i J_c by ~1e-6 relative. Every
    # density identity is f_A f_B times that closure residual, so the nine
    # density checks fail with su2_closure: they have no falsifier of their own.
    # variance_table reads the same SPIN1_BLOCKS (am_variances) and flips too.
    jx, jy, jz = angular.SPIN1_BLOCKS
    monkeypatch.setattr(angular, "SPIN1_BLOCKS", (jx * (1.0 + 1e-6), jy, jz))


def _scale_c2(monkeypatch, factor):
    exact = radial.normalize_mode
    monkeypatch.setattr(
        radial,
        "normalize_mode",
        lambda config, ell: exact(config, ell) * (factor if ell == 2 else 1.0),
    )


def perturb_c2_by_1e_5(monkeypatch):
    # The OAM shell integral becomes (1 + eps)^2 / 2, so max_deviation is ~eps
    # against a tolerance of 1e-6: c2 x (1 +- 1.0e-6) is the smallest scaling
    # that flips shell_conservation.
    _scale_c2(monkeypatch, 1.0 + 1e-5)


def perturb_c2_by_2_percent(monkeypatch):
    # The discrepancies read 5.75e-4, 5.0e-5, 1.6e-5, 5.0e-6 against a bound
    # of 1e-3. The smallest scaling that flips wave_zone_equality is
    # c2 x (1 + 1.59e-4), where the first window passes 1e-3, or
    # c2 x (1 - 3.9e-6), where the offset breaks the monotone fall. Both lie
    # past shell_conservation's 1e-6, so the two flip together: the wave-zone
    # check has no falsifier of its own among normalization errors.
    _scale_c2(monkeypatch, 1.02)


def swap_density_weights(monkeypatch):
    # w0 and w2 differ only by O(1/kR) (by 2.0e-3 at kR = 20, 4.5e-4 at 100),
    # so swapping them moves near_ratio from 1781 to 1783 and leaves
    # near_zone_spin_dominance passing; shell_conservation sees the swap
    # (max_deviation 1.7e-3, at kR = 20).
    weights = radial.CavityConfig.density_weights
    monkeypatch.setattr(
        radial.CavityConfig,
        "density_weights",
        property(lambda cavity: weights.func(cavity)[::-1]),
    )


def swap_densities(monkeypatch):
    # f_spin and f_oam exchanged: near_ratio reads 5.6e-4, f_oam(0) is not 0
    # and the spin profile peaks away from the origin, so each of the three
    # conditions of near_zone_spin_dominance fails. Both still integrate to
    # hbar/2, so no other check moves.
    exact = radial._densities
    monkeypatch.setattr(radial, "_densities", lambda kr, config: exact(kr, config)[::-1])


def scale_near_zone_oam(monkeypatch):
    # f_oam x 1.2 out to kr = 0.2 pi, the near-zone radius: near_ratio reads
    # 1781 against its bound of 1500, so f_oam x 1.1876 is the smallest scaling
    # that flips near_zone_spin_dominance. shell_conservation reads 2.1e-7
    # against its 1e-6, so no other check moves.
    exact = radial._densities

    def densities(kr, config):
        spin, oam = exact(kr, config)
        return spin, oam * np.where(np.asarray(kr) <= 0.2 * np.pi, 1.2, 1.0)

    monkeypatch.setattr(radial, "_densities", densities)


def shift_oam_peak(monkeypatch):
    # The peak sits at 0.532 wavelengths and the check accepts 0.4-0.65, so
    # kr_peak x 1.222 (or x 0.752) is the smallest scaling that flips it.
    exact = radial._oam_peak_kr
    monkeypatch.setattr(radial, "_oam_peak_kr", lambda: exact() * 1.23)


def scale_exp1(monkeypatch):
    # E1 x (1 - delta) shifts the three residuals at G t = 10 (3e-9 to 5e-9)
    # by nearly the same amount, so their order across omega0/gamma survives
    # every delta up to 0.981: that is the smallest delta that flips
    # decay_conservation, and no E1 x (1 + delta) up to x 101 flips it. Only
    # this check evaluates E1 in verify-all.
    exact = decay._exp1
    monkeypatch.setattr(decay, "_exp1", lambda z: exact(z) * (1.0 - 0.99))


def leak_to_odd_pair(monkeypatch):
    # A hermitian coupling eps between |e; vac> and |g; psi3> inside the
    # 2 N_exc = 2 sector radiates the odd pair state: coupling_to_odd reads
    # eps, so eps = 1.0e-12 (the coupling bound) is the smallest that flips
    # selection_rule (and entangle's selection_rule.pass). entanglement_maximum
    # and variational_pass read the coupling array C, not H, so a leak added
    # to H alone moves no other check.
    exact = twins.interaction_hamiltonian
    eps = 1e-9

    def leaky(space, *args):
        h = exact(space, *args)
        sector = space.sectors.indices[twins.PAIR_SECTOR]
        vacuum = np.eye(space.field_space.dim)[0]
        excited = space.state("e", vacuum)[sector]
        odd = space.state("g", twins.pair_field_vector(space, twins.PARITY_BASIS[2]))[sector]
        start = space.sectors.offsets[twins.PAIR_SECTOR]
        flat = h.flat.copy()
        flat[start : start + odd.size**2] += eps * (
            np.outer(odd, excited.conj()) + np.outer(excited, odd.conj())
        ).ravel()
        return type(h)(h.space, flat)

    monkeypatch.setattr(twins, "interaction_hamiltonian", leaky)


def unequal_psi2(monkeypatch):
    # psi2 with amplitudes 1/sqrt(2) + delta and 1/sqrt(2) on |+1, -1> and
    # |-1, +1>: c2, the radiated pair's overlap with psi2, moves by delta/sqrt(3),
    # so delta = +1.74e-14 or -1.75e-14 is the smallest that passes the 1e-14
    # bound and flips entanglement_maximum. The selection rule reads psi3 only.
    # entangle stays at exit 0: it bounds only the local expectations
    # (variational_pass) and the selection rule, never c1, c2 or mu, which
    # verify-all's entanglement_maximum alone holds to their closed forms.
    psi1, _, psi3 = twins.PARITY_BASIS
    root = 1.0 / np.sqrt(2.0)
    skewed = twins._pair_state({(1, -1): root + 1e-13, (-1, 1): root})
    monkeypatch.setattr(twins, "PARITY_BASIS", (psi1, skewed, psi3))


def _scale_coupling(monkeypatch, m, factor):
    """The entry (m, -m) of the coupling array C, read by H and the radiated pair alike."""
    coupling = np.array(twins.PAIR_COUPLING)
    coupling[twins.M_VALUES.index(m), twins.M_VALUES.index(-m)] *= factor
    coupling.setflags(write=False)
    monkeypatch.setattr(twins, "PAIR_COUPLING", coupling)


def scale_m0_coupling(monkeypatch):
    # C at m = 0 x 1.01: the radiated pair leaves the maximum, and the local
    # SU(3) expectations read ~(2/3) delta, so C x (1 +- 1.5e-14) is the smallest
    # that flips entanglement_maximum, and entangle's variational_pass, which
    # bounds those expectations alone. The m = 0 term couples to psi1, which
    # psi3 is orthogonal to, so both selection-rule readings still pass.
    _scale_coupling(monkeypatch, 0, 1.01)


def asymmetric_coupling(monkeypatch):
    # C[+1, -1] x (1 + 1e-6): L gains an exchange-odd part, coupling_to_odd
    # reads gamma delta / sqrt(2) and the radiated pair leaves the maximum.
    # delta = 2.83e-11 is the smallest that flips selection_rule, and
    # entanglement_maximum flips from 1.5e-14 on, so at 1e-6 the two flip together.
    _scale_coupling(monkeypatch, 1, 1.0 + 1e-6)


def slightly_asymmetric_coupling(monkeypatch):
    # C[+1, -1] x (1 + 1e-12): coupling_to_odd reads 3.5e-14 against its 1e-12,
    # so only entanglement_maximum flips.
    _scale_coupling(monkeypatch, 1, 1.0 + 1e-12)


def density_row(name):
    return name.startswith("[")


def only(*names):
    return lambda name: name in names


#: (perturbation, command, predicate on check names, how many checks it names):
#: the named checks, and only they, must fail.
ROWS = [
    (perturb_spin1_jx, "algebra", lambda name: name == "su2_closure" or density_row(name), 10),
    (perturb_spin1_jx, "verify-all",
     only("su2_closure", "variance_table", "density_commutators"), 3),
    (perturb_c2_by_1e_5, "verify-all", only("shell_conservation"), 1),
    (perturb_c2_by_2_percent, "verify-all", only("shell_conservation", "wave_zone_equality"), 2),
    (swap_density_weights, "verify-all", only("shell_conservation"), 1),
    (swap_densities, "verify-all", only("near_zone_spin_dominance"), 1),
    (scale_near_zone_oam, "verify-all", only("near_zone_spin_dominance"), 1),
    (shift_oam_peak, "verify-all", only("oam_peak_location"), 1),
    (scale_exp1, "verify-all", only("decay_conservation"), 1),
    (leak_to_odd_pair, "verify-all", only("selection_rule"), 1),
    (unequal_psi2, "verify-all", only("entanglement_maximum"), 1),
    (scale_m0_coupling, "verify-all", only("entanglement_maximum"), 1),
    (asymmetric_coupling, "verify-all", only("selection_rule", "entanglement_maximum"), 2),
    (slightly_asymmetric_coupling, "verify-all", only("entanglement_maximum"), 1),
    (scale_m0_coupling, "entangle", only("variational_pass"), 1),
    (leak_to_odd_pair, "entangle", only("selection_rule.pass"), 1),
]


def checks(payload):
    """(name, passed) of each check in a command's JSON: its "checks" list, or
    entangle's two readings."""
    if "checks" not in payload:
        return [("variational_pass", payload["variational_pass"]),
                ("selection_rule.pass", payload["selection_rule"]["pass"])]
    return [(check["name"], check["pass"]) for check in payload["checks"]]


@pytest.mark.parametrize("perturb,command,flipped,count", ROWS,
                         ids=[f"{row[0].__name__}-{row[1]}" for row in ROWS])
def test_perturbation_flips_its_checks(capsys, monkeypatch, perturb, command, flipped, count):
    perturb(monkeypatch)
    code = main([command])
    payload = json.loads(capsys.readouterr().out)
    named = [name for name, _ in checks(payload) if flipped(name)]
    failed = [name for name, passed in checks(payload) if not passed]
    assert code == 1 and payload["pass"] is False
    assert len(named) == count
    assert failed == named


#: Checks no row can flip, each with its reason.
NO_ROW = {
    # the three occupation differences n_m - n_{m-1} of its diagonals sum in
    # integer arithmetic, so it reads exactly 0.0 at every cutoff
    "su3_diagonal_dependence": "integer-arithmetic diagonals",
}


def uncovered(capsys, command):
    """The command's check names that no row of that command flips and NO_ROW does not list."""
    assert main([command]) == 0
    names = [name for name, _ in checks(json.loads(capsys.readouterr().out))]
    covered = {
        name for _, row_command, flipped, _ in ROWS if row_command == command
        for name in names if flipped(name)
    }
    assert not covered & NO_ROW.keys()
    return set(names) - covered - NO_ROW.keys()


def test_every_verify_all_check_has_a_row(capsys):
    assert uncovered(capsys, "verify-all") == set()


def test_every_algebra_check_has_a_row_or_a_reason(capsys):
    assert uncovered(capsys, "algebra") == set()


def test_both_entangle_readings_have_a_row(capsys):
    assert uncovered(capsys, "entangle") == set()
