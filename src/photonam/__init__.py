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

The package serves its six submodules only, each imported on first use
(PEP 562): a function is `photonam.decay.sz_curve`, or `from photonam.decay
import sz_curve`. `import photonam` loads nothing else, so a command pays
only for the modules it runs.
"""

import sys

__version__ = "0.1.0"

__all__ = ["angular", "decay", "fock", "output", "radial", "twins"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, so that -X importtime reports the submodule
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]
