"""Library inputs that numpy cannot take as float64 or int64, and non-integer
cutoffs and m: each is refused with one ValueError line, not a TypeError or
OverflowError from numpy or math, and the large values a float holds are
accepted.

An int past int64 (10**20) is read as the Python float it equals; one past
the float range (10**400) is not finite. A cutoff, m or n_samples that is a
float or a bool is refused as a non-integer even where it equals an integer, and
before its range is read; numpy integers are accepted.
"""

import re

import numpy as np
import pytest

from photonam.angular import am_variances, three_mode_space
from photonam.decay import DecayParams, conservation_check, sz_expectation
from photonam.fock import build_space
from photonam.radial import (
    CavityConfig,
    f_oam,
    f_spin,
    radial_profile,
    shell_integrals,
    spherical_bessel,
    wave_zone_discrepancy,
)
from photonam.twins import atom_field_space, interaction_hamiltonian, selection_rule_check

BIG = 10**400
CAVITY = CavityConfig()
PARAMS = DecayParams(100.0, 1.0)
TWINS = atom_field_space(2)
H = interaction_hamiltonian(TWINS, 1.0, 2.0, 0.1)
TIME_REFUSAL = "t must be >= 0 and not NaN, nor an int past the float range"

#: (call, pattern of the one-line refusal, or None where the call is accepted
#: and returns True)
CASES = {
    "cavity R past int64": (lambda: CavityConfig(1, 10**20), r"kR must be <= 1e\+14, got 1e\+20"),
    "cavity R past int64 and small k": (
        lambda: CavityConfig(1e-300, 10**300), r"kR must be >= 20\.0, got 1\.0"
    ),
    "cavity R past floats": (
        lambda: CavityConfig(1, BIG), r"R must be finite and > 0, got 10{400}"
    ),
    "cavity k past floats": (
        lambda: CavityConfig(BIG, 1), r"k must be finite and > 0, got 10{400}"
    ),
    "cavity negative k past floats": (
        lambda: CavityConfig(-BIG, 1), r"k must be finite and > 0, got -10{400}"
    ),
    "omega0 past floats": (
        lambda: DecayParams(BIG, 1), r"omega0 must be finite and > 0, got 10{400}"
    ),
    "gamma past floats": (
        lambda: DecayParams(100, BIG), r"gamma must be finite and > 0, got 10{400}"
    ),
    "time grid past floats": (
        lambda: DecayParams(100, 1, time_grid=[0, BIG]), "time_grid entries must be finite and >= 0"
    ),
    "f_spin past floats": (lambda: f_spin(BIG, CAVITY), "kr must be finite and >= 0"),
    "f_spin list past floats": (lambda: f_spin([1.0, BIG], CAVITY), "kr must be finite and >= 0"),
    "f_oam past floats": (lambda: f_oam(BIG, CAVITY), "kr must be finite and >= 0"),
    "spherical_bessel past floats": (
        lambda: spherical_bessel(0, BIG), "argument must be finite and >= 0"
    ),
    "shell_integrals stop past floats": (
        lambda: shell_integrals(CAVITY, 0, BIG), r"stop_kr must be finite, got 10{400}"
    ),
    "wave zone window start past floats": (
        lambda: wave_zone_discrepancy(CAVITY, BIG), "window must lie inside the cavity"
    ),
    "conservation_check past floats": (
        lambda: conservation_check(PARAMS, BIG), TIME_REFUSAL
    ),
    "sz_expectation past floats": (
        lambda: sz_expectation([0, BIG], PARAMS), TIME_REFUSAL
    ),
    "hamiltonian omega past floats": (
        lambda: interaction_hamiltonian(TWINS, BIG, 2.0, 0.1), r"omega must be finite, got 10{400}"
    ),
    "hamiltonian omega0 past floats": (
        lambda: interaction_hamiltonian(TWINS, 1.0, BIG, 0.1), r"omega0 must be finite, got 10{400}"
    ),
    "hamiltonian gamma past floats": (
        lambda: interaction_hamiltonian(TWINS, 1.0, 2.0, BIG),
        r"gamma_coupling must be finite, got 10{400}",
    ),
    "selection rule omega past floats": (
        lambda: selection_rule_check(H, TWINS, BIG, 0.1), r"omega must be finite, got 10{400}"
    ),
    "selection rule gamma past floats": (
        lambda: selection_rule_check(H, TWINS, 1.0, BIG),
        r"gamma_coupling must be finite and > 0, got 10{400}",
    ),
    "three_mode_space float cutoff": (
        lambda: three_mode_space(2.5), r"cutoff must be an integer, got 2\.5"
    ),
    "three_mode_space bool cutoff": (
        lambda: three_mode_space(True), "cutoff must be an integer, got True"
    ),
    "three_mode_space fractional cutoff below 1": (
        lambda: three_mode_space(0.5), r"cutoff must be an integer, got 0\.5"
    ),
    "am_variances fractional cutoff below 1": (
        lambda: am_variances(0, 0.5), r"cutoff must be an integer, got 0\.5"
    ),
    "atom_field_space fractional cutoff below 2": (
        lambda: atom_field_space(1.5), r"cutoff must be an integer, got 1\.5"
    ),
    "atom_field_space bool cutoff": (
        lambda: atom_field_space(True), "cutoff must be an integer, got True"
    ),
    "atom_field_space integral float cutoff": (
        lambda: atom_field_space(2.0), r"cutoff must be an integer, got 2\.0"
    ),
    "am_variances float cutoff": (
        lambda: am_variances(0, 2.5), r"cutoff must be an integer, got 2\.5"
    ),
    "build_space float cutoff": (
        lambda: build_space((1, 0, -1), 5.5), r"cutoff must be an integer, got 5\.5"
    ),
    "am_variances bool m": (
        lambda: am_variances(True), r"m must be the integer 1, 0 or -1, got True"
    ),
    "am_variances integral float m": (
        lambda: am_variances(1.0), r"m must be the integer 1, 0 or -1, got 1\.0"
    ),
    "radial_profile bool n_samples": (
        lambda: radial_profile(CAVITY, True), "n_samples must be an integer, got True"
    ),
    "radial_profile numpy bool n_samples": (
        lambda: radial_profile(CAVITY, np.True_),
        f"n_samples must be an integer, got {re.escape(repr(np.True_))}",
    ),
    "omega0 past int64 accepted": (lambda: DecayParams(10**20, 1).omega0 == 1e20, None),
    "int R accepted": (lambda: CavityConfig(1, 10**2) == CavityConfig(1.0, 100.0), None),
    "numpy cutoff accepted": (
        lambda: three_mode_space(np.int64(3)).dim == three_mode_space(3).dim, None
    ),
    "numpy m accepted": (lambda: am_variances(np.int64(1)) == am_variances(1), None),
    "hamiltonian omega past int64 accepted": (
        lambda: np.array_equal(
            interaction_hamiltonian(TWINS, 10**20, 2, 1).flat,
            interaction_hamiltonian(TWINS, 1e20, 2.0, 1.0).flat,
        ),
        None,
    ),
}


@pytest.mark.parametrize("call, refusal", CASES.values(), ids=CASES.keys())
def test_numbers_numpy_cannot_take_are_refused_in_one_line(call, refusal):
    if refusal is None:
        assert call()
        return
    with pytest.raises(ValueError, match=f"^{refusal}$") as refused:
        call()
    assert "\n" not in str(refused.value)
