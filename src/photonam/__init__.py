"""Angular-momentum structure of photons emitted by atomic dipole transitions.

Subpackages cover the truncated Fock-space operator algebra, the total-AM
and SU(3) generator sets, radial spin/OAM density profiles with zone
diagnostics, Weisskopf-Wigner decay of the AM expectation, and the
entanglement of counter-propagating photon twins.

There is no state type: a state is a plain amplitude array, over a Fock
basis placed with `FockSpace.index_of`, or, for a photon twin pair, a 3x3
array over |1_{m1}; 1_{m2}>. There is no mode type either: a mode is its
label, the projection m of `angular.M_VALUES`, or (m, "fwd") and (m, "bwd")
for the twins. An operator is one flat array of its blocks, one per
sector of the label it conserves (`OperatorMatrix.flat`; `.blocks` are views).

`import photonam` loads nothing else: a public name, or a submodule such as
`photonam.radial`, imports its submodule on first use (PEP 562), so a command
pays only for the modules it runs.
"""

import sys

__version__ = "0.1.0"

#: Submodule of each public name.
_PUBLIC = {
    "angular": ("AlgebraReport", "AmOperatorTriple", "Su3GeneratorSet", "am_variances",
                "density_commutator_check", "j_operators", "su3_generators",
                "three_mode_space", "verify_su2"),
    "decay": ("DecayCurve", "DecayParams", "conservation_check", "sz_curve", "sz_expectation"),
    "fock": ("FockSpace", "OperatorMatrix", "annihilation", "build_space"),
    "radial": ("CavityConfig", "RadialProfile", "ZoneReport", "f_oam", "f_spin",
               "normalize_mode", "radial_profile", "spherical_bessel",
               "wave_zone_discrepancy", "zone_report"),
    "twins": ("AtomFieldSpace", "EntanglementOptimum", "SelectionRuleReport",
              "atom_field_space", "entanglement_measure", "interaction_hamiltonian",
              "local_expectations", "maximize_entanglement", "selection_rule_check"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "output")

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, so that -X importtime reports the submodule
    __import__(f"{__name__}.{module}")
    submodule = sys.modules[f"{__name__}.{module}"]
    return submodule if module == name else getattr(submodule, name)
