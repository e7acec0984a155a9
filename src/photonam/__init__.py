"""Angular-momentum structure of photons emitted by atomic dipole transitions.

Subpackages cover the truncated Fock-space operator algebra, the total-AM
and SU(3) generator sets, radial spin/OAM density profiles with zone
diagnostics, Weisskopf-Wigner decay of the AM expectation, and the
entanglement of counter-propagating photon twins.

There is no state type: a state is a plain amplitude array, over a Fock
basis placed with `FockSpace.index_of`, or, for a photon twin pair, a 3x3
array over |1_{m1}; 1_{m2}>. An operator is one flat array of its blocks, one per
sector of the label it conserves (`OperatorMatrix.flat`; `.blocks` are views).
"""

from .angular import (
    AlgebraReport,
    AmOperatorTriple,
    Su3GeneratorSet,
    am_variances,
    density_commutator_check,
    j_operators,
    su3_generators,
    three_mode_space,
    verify_su2,
)
from .decay import (
    DecayCurve,
    DecayParams,
    conservation_check,
    sz_curve,
    sz_expectation,
)
from .fock import (
    FockSpace,
    ModeLabel,
    OperatorMatrix,
    annihilation,
    build_space,
)
from .radial import (
    CavityConfig,
    RadialProfile,
    ZoneReport,
    f_oam,
    f_spin,
    normalize_mode,
    radial_profile,
    spherical_bessel,
    wave_zone_discrepancy,
    zone_report,
)
from .twins import (
    AtomFieldSpace,
    EntanglementOptimum,
    SelectionRuleReport,
    atom_field_space,
    entanglement_measure,
    interaction_hamiltonian,
    local_expectations,
    maximize_entanglement,
    selection_rule_check,
)

__version__ = "0.1.0"
