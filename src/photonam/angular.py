"""Total angular-momentum operators on the three-mode (m = +1, 0, -1) photon space.

Every operator here conserves photon number, so each is fixed by its 3x3
single-photon block over the modes (+1, 0, -1) and built from it by
`fock.bilinear`, as one block per photon-number sector: the spin-1 matrices
give the AM components, and the cyclic lower-index convention gives the eight
hermitian SU(3) generators. The spin and orbital densities at one radius are
f_spin(kr) J and f_oam(kr) J, so [f_A J_a, f_B J_b] - i f_A f_B J_c =
f_A f_B ([J_a, J_b] - i J_c): the relative residual of every density identity
is the SU(2) closure residual over max|J|^2 at every radius, read from the
closure each triple computes once. Verification routines report residuals
rather than raising, so callers can aggregate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import radial
from .fock import FockSpace, OperatorMatrix, bilinear, build_space, check_dim
from .output import Check, integer

#: The photon modes, each labelled by its projection m: the mode order of the
#: three-mode space and the row order of every 3x3 block.
M_VALUES = (1, 0, -1)

DEFAULT_CUTOFF = 3

#: Spin-1 matrices (Jx, Jy, Jz) in the (+1, 0, -1) basis.
SPIN1_BLOCKS = (
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0),
    np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2.0),
    np.diag([1.0, 0.0, -1.0]),
)


def three_mode_space(cutoff: int = DEFAULT_CUTOFF) -> FockSpace:
    """Fock space of the three AM-projection modes with the default cutoff.

    The cutoff must admit one photon: on the vacuum alone every AM operator is
    zero and each identity would hold vacuously.
    """
    check_cutoff(cutoff)
    return build_space(M_VALUES, cutoff)


def check_cutoff(cutoff: int) -> None:
    """ValueError unless cutoff is an integer that admits a photon and three-mode sectors
    within MAX_SECTOR_DIM."""
    if integer(cutoff, "cutoff") < 1:
        raise ValueError(f"cutoff must be >= 1 to hold a photon, got {cutoff}")
    check_dim(len(M_VALUES), cutoff)


@dataclass(frozen=True)
class AmOperatorTriple:
    """Cartesian components of the total AM operator, all hermitian."""

    jx: OperatorMatrix
    jy: OperatorMatrix
    jz: OperatorMatrix

    def components(self) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
        return (self.jx, self.jy, self.jz)

    @cached_property
    def closure(self) -> tuple[float, float]:
        """(max |[J_a, J_b] - i J_c| over cyclic (a, b, c) and sectors, max|J|).

        The operators are read-only, so the cached value cannot go stale.
        """
        comps = self.components()
        return _cyclic_residual([op.blocks for op in comps]), _max_abs(op.flat for op in comps)


def j_operators(space: FockSpace) -> AmOperatorTriple:
    """Total AM components J_a = sum_mm' (J_a)_mm' a_m^dagger a_m'.

    (J_a)_mm' are the SPIN1_BLOCKS over the modes (+1, 0, -1), so Jz = n_+ - n_-
    and Jx, Jy move one photon to or from m = 0, exactly on every occupation
    sector. A space without the three AM modes raises ValueError.
    """
    return AmOperatorTriple(*bilinear(space, M_VALUES, SPIN1_BLOCKS))


@dataclass(frozen=True)
class Su3GeneratorSet:
    """Hermitian SU(3) generators over the three AM modes, as operators on a Fock space.

    `diagonal_raw` holds the three occupation differences n_m - n_{m-1} with the
    cyclic convention m-1 = +1 when m = -1. They sum to zero, so all_generators()
    returns the eight independent ones: the fields in order at SU3_INDEPENDENT.
    """

    diagonal_raw: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]
    offdiag_real: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]
    offdiag_imag: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]

    def all_generators(self) -> tuple[OperatorMatrix, ...]:
        fields = self.diagonal_raw + self.offdiag_real + self.offdiag_imag
        return tuple(fields[i] for i in SU3_INDEPENDENT)


def _unit(row: int, col: int) -> np.ndarray:
    return np.outer(np.eye(3)[row], np.eye(3)[col])


#: Cyclic pairs (m, m-1) = (+1, 0), (0, -1), (-1, +1) as positions in M_VALUES.
_CYCLIC_PAIRS = ((0, 1), (1, 2), (2, 0))

#: Single-photon blocks of the SU(3) generators, one read-only (9, 3, 3) array:
#: per cyclic pair n_m - n_{m-1}, then per pair the hermitian and then the
#: anti-hermitian part of the hop a_m^dagger a_{m-1}, the fields of
#: Su3GeneratorSet in order.
SU3_BLOCKS = np.array(
    [_unit(m, m) - _unit(n, n) for m, n in _CYCLIC_PAIRS]
    + [0.5 * (_unit(m, n) + _unit(n, m)) for m, n in _CYCLIC_PAIRS]
    + [(1.0 / 2j) * (_unit(m, n) - _unit(n, m)) for m, n in _CYCLIC_PAIRS]
)
SU3_BLOCKS.setflags(write=False)

#: Positions of the eight independent generators in SU3_BLOCKS and in the fields
#: of Su3GeneratorSet in order: all but the third raw diagonal, which is minus
#: the sum of the first two.
SU3_INDEPENDENT = (0, 1, 3, 4, 5, 6, 7, 8)


def su3_generators(space: FockSpace) -> Su3GeneratorSet:
    """Hermitian SU(3) generator set with the cyclic lower-index convention."""
    ops = bilinear(space, M_VALUES, SU3_BLOCKS)
    return Su3GeneratorSet(diagonal_raw=ops[:3], offdiag_real=ops[3:6], offdiag_imag=ops[6:])


@dataclass(frozen=True)
class AlgebraReport:
    """Outcome of a commutator-identity verification."""

    identity: str
    max_residual: float
    tolerance: float
    passed: bool
    degenerate: bool = False


#: Radii and operator pairs of the nine density-commutator identities.
DENSITY_RADII = (0.5, 3.0, 50.0)
DENSITY_PAIRS = (("spin", "spin"), ("oam", "oam"), ("oam", "spin"))

#: (var Jx, var Jy, var Jz) of the one-photon state |1_m>, by m, that variance_table expects.
VARIANCES = {0: (1.0, 1.0, 0.0), 1: (0.5, 0.5, 0.0), -1: (0.5, 0.5, 0.0)}

#: Component positions (a, b, c) of the cyclic identities [J_a, J_b] = i J_c.
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

#: The AM densities at kr, f(kr) J, in the order radial._densities returns their f.
_DENSITY_KINDS = ("spin", "oam")


def _max_abs(arrays) -> float:
    """Largest entry modulus over a sequence of arrays."""
    return max(float(np.max(np.abs(array))) for array in arrays)


def _cyclic_residual(comps) -> float:
    """Max entry of |[J_a, J_b] - i J_c| over cyclic (a, b, c), J_a the blocks comps[a]."""
    return _max_abs(
        x @ y - y @ x - z * 1j
        for a, b, c in _CYCLIC
        for x, y, z in zip(comps[a], comps[b], comps[c])
    )


def verify_su2(triple: AmOperatorTriple, tol: float = 1e-12) -> AlgebraReport:
    """Max residual of [J_a, J_b] = i J_c over the three cyclic identities.

    The residual covers every stored entry: J conserves photon number, so the
    products are exact on each sector block of the truncated space. A triple of
    zero operators is reported as degenerate: the identities hold vacuously.
    """
    residual, size = triple.closure
    if size == 0.0:
        return AlgebraReport("su2_closure", 0.0, tol, True, degenerate=True)
    return AlgebraReport("su2_closure", residual, tol, residual < tol)


def density_commutator_check(
    kind_a: str, kind_b: str, kr: float, tol: float = 1e-12, *,
    config: radial.CavityConfig, triple: AmOperatorTriple,
) -> AlgebraReport:
    """Verify [A_a(r), B_b(r)] = i eps_abc f_A(kr) B_c(r) for the densities f(kr) J.

    Relative to the operator magnitudes, the residual is the triple's SU(2)
    closure residual over max|J|^2, the same at every kr (module docstring);
    densities at two different radii are not covered. The identity holds
    vacuously (degenerate) when f_A(kr), f_B(kr) or the triple is zero. A kind
    other than 'spin' or 'oam', or a negative kr, raises ValueError.
    """
    for kind in (kind_a, kind_b):
        if kind not in _DENSITY_KINDS:
            raise ValueError(f"kind must be 'spin' or 'oam', got {kind!r}")
    factors = dict(zip(_DENSITY_KINDS, map(float, radial._densities(kr, config))))
    f_a, f_b = factors[kind_a], factors[kind_b]
    identity = f"[{kind_a}_a(r),{kind_b}_b(r)] = i eps_abc f_{kind_a}(kr) {kind_b}_c(r)"
    closure, size = triple.closure
    # each factor on its own: a product of small factors could underflow to 0
    if f_a == 0.0 or f_b == 0.0 or size == 0.0:
        return AlgebraReport(identity, 0.0, tol, True, degenerate=True)
    residual = closure / size / size
    return AlgebraReport(identity, residual, tol, residual < tol)


def am_variances(m: int, cutoff: int = DEFAULT_CUTOFF) -> tuple[float, float, float]:
    """(var Jx, var Jy, var Jz) in the single-photon state |1_m>.

    Returns (1, 1, 0) for m = 0 and (1/2, 1/2, 0) for m = +-1: the m = 0
    photon carries the larger transverse AM fluctuations. J conserves photon
    number, so on one photon each component is its SPIN1_BLOCKS matrix B and
    the variance is (B^2)_mm - (B_mm)^2 at any cutoff; the cutoff is only
    validated, as three_mode_space would, without building the basis.
    """
    row = M_VALUES.index(integer(m, "m", M_VALUES))
    check_cutoff(cutoff)
    return tuple(
        float((block @ block)[row, row].real - block[row, row].real ** 2)
        for block in SPIN1_BLOCKS
    )


def _residual_check(name: str, report: AlgebraReport) -> Check:
    values = {"max_residual": report.max_residual, "tolerance": report.tolerance}
    return Check(name, report.passed, report.tolerance, values)


def su2_closure(triple: AmOperatorTriple, tol: float) -> Check:
    return _residual_check("su2_closure", verify_su2(triple, tol))


def density_identities(triple: AmOperatorTriple, config, tol: float) -> list[Check]:
    """The nine density identities, "... @ kr=...", over DENSITY_RADII and DENSITY_PAIRS."""
    reports = [(kr, density_commutator_check(a, b, kr, tol, config=config, triple=triple))
               for kr in DENSITY_RADII for a, b in DENSITY_PAIRS]
    return [_residual_check(f"{rep.identity} @ kr={kr}", rep) for kr, rep in reports]


def density_commutators(triple: AmOperatorTriple, config, tol: float) -> Check:
    """The nine density identities as one check."""
    checks = density_identities(triple, config, tol)
    worst = max(check.values["max_residual"] for check in checks)
    passed = all(check.passed for check in checks)
    return Check("density_commutators", passed, tol, {"max_residual": worst, "tolerance": tol})


def variance_table(tol: float) -> Check:
    """am_variances within tol of VARIANCES at every m, the m = 0 photon's the larger."""
    got = {m: am_variances(m) for m in VARIANCES}
    worst = max(abs(g - w) for m, want in VARIANCES.items() for g, w in zip(got[m], want))
    passed = worst < tol and got[0][0] > got[1][0]
    return Check("variance_table", passed, tol, {"max_deviation": worst, "tolerance": tol})


def su3_diagonal_dependence(space: FockSpace, tol: float) -> Check:
    # the three raw diagonals summed as stored, so no dense operator is assembled
    residual = float(np.max(np.abs(sum(op.flat for op in su3_generators(space).diagonal_raw))))
    return Check("su3_diagonal_dependence", residual < tol, tol,
                 {"max_residual": residual, "tolerance": tol})
