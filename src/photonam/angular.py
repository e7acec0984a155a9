"""Total angular-momentum operators on the three-mode (m = +1, 0, -1) photon space.

Every operator here conserves photon number, so each is fixed by its 3x3
single-photon block over the modes (+1, 0, -1) and built from it by
`fock.bilinear`, as one block per photon-number sector: the spin-1 matrices
give the AM components, and the cyclic lower-index convention gives the eight
hermitian SU(3) generators. The spin and orbital densities at one radius are
f_spin(kr) J and f_oam(kr) J, so their identities are checked on the sector
blocks of J scaled as plain arrays, by the same cyclic residual as SU(2)
closure. Verification routines report commutator residuals rather than
raising, so callers can aggregate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radial
from .fock import FockSpace, ModeLabel, OperatorMatrix, bilinear, build_space, check_dim

M_PLUS = ModeLabel("+1")
M_ZERO = ModeLabel("0")
M_MINUS = ModeLabel("-1")

#: Canonical mode order (m = +1, 0, -1) used for single-photon blocks.
AM_MODES = (M_PLUS, M_ZERO, M_MINUS)

#: Projection m of each AM_MODES entry: the row order of every 3x3 block.
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
    _check_cutoff(cutoff)
    return build_space(AM_MODES, cutoff)


def _check_cutoff(cutoff: int) -> None:
    """ValueError unless cutoff admits a photon and three-mode sectors within MAX_SECTOR_DIM."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1 to hold a photon, got {cutoff}")
    check_dim(len(AM_MODES), cutoff)


@dataclass(frozen=True)
class AmOperatorTriple:
    """Cartesian components of the total AM operator, all hermitian."""

    jx: OperatorMatrix
    jy: OperatorMatrix
    jz: OperatorMatrix

    def components(self) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
        return (self.jx, self.jy, self.jz)


def j_operators(space: FockSpace) -> AmOperatorTriple:
    """Total AM components J_a = sum_mm' (J_a)_mm' a_m^dagger a_m'.

    (J_a)_mm' are the SPIN1_BLOCKS over the modes (+1, 0, -1), so Jz = n_+ - n_-
    and Jx, Jy move one photon to or from m = 0, exactly on every occupation
    sector. A space without the three AM modes raises ValueError.
    """
    return AmOperatorTriple(*(bilinear(space, AM_MODES, block) for block in SPIN1_BLOCKS))


@dataclass(frozen=True)
class Su3GeneratorSet:
    """Eight hermitian SU(3) generators over the three AM modes.

    `diagonal_raw` holds the three occupation differences n_m - n_{m-1}
    with the cyclic convention m-1 = +1 when m = -1; they sum to zero, so
    only the first two enter the independent set. The entries are operators
    on a Fock space, or in SU3_BLOCKS their 3x3 single-photon blocks.
    """

    diagonal_raw: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]
    offdiag_real: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]
    offdiag_imag: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]

    @property
    def diagonal(self) -> tuple[OperatorMatrix, OperatorMatrix]:
        return self.diagonal_raw[:2]

    def all_generators(self) -> tuple[OperatorMatrix, ...]:
        return self.diagonal + self.offdiag_real + self.offdiag_imag


def _unit(row: int, col: int) -> np.ndarray:
    return np.outer(np.eye(3)[row], np.eye(3)[col])


#: Cyclic pairs (m, m-1) = (+1, 0), (0, -1), (-1, +1) as positions in AM_MODES.
_CYCLIC_PAIRS = ((0, 1), (1, 2), (2, 0))

#: Single-photon blocks of the SU(3) generators: per cyclic pair, n_m - n_{m-1}
#: and the hermitian and anti-hermitian parts of the hop a_m^dagger a_{m-1}.
SU3_BLOCKS = Su3GeneratorSet(
    diagonal_raw=tuple(_unit(m, m) - _unit(n, n) for m, n in _CYCLIC_PAIRS),
    offdiag_real=tuple(0.5 * (_unit(m, n) + _unit(n, m)) for m, n in _CYCLIC_PAIRS),
    offdiag_imag=tuple((1.0 / 2j) * (_unit(m, n) - _unit(n, m)) for m, n in _CYCLIC_PAIRS),
)


def su3_generators(space: FockSpace) -> Su3GeneratorSet:
    """Hermitian SU(3) generator set with the cyclic lower-index convention."""
    def lift(blocks):
        return tuple(bilinear(space, AM_MODES, block) for block in blocks)

    return Su3GeneratorSet(
        diagonal_raw=lift(SU3_BLOCKS.diagonal_raw),
        offdiag_real=lift(SU3_BLOCKS.offdiag_real),
        offdiag_imag=lift(SU3_BLOCKS.offdiag_imag),
    )


@dataclass(frozen=True)
class AlgebraReport:
    """Outcome of a commutator-identity verification."""

    identity: str
    max_residual: float
    tolerance: float
    passed: bool
    degenerate: bool = False


#: Component positions (a, b, c) of the cyclic identities [J_a, J_b] = i J_c.
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

#: Radial factor of each AM density: the density at kr is f(kr) J.
_DENSITY_FACTORS = {"spin": radial.f_spin, "oam": radial.f_oam}


def _max_abs(blocks) -> float:
    """Largest entry modulus over a sequence of sector blocks."""
    return max(float(np.max(np.abs(block))) for block in blocks)


def _cyclic_residual(a_ops, b_ops, coeff: float) -> float:
    """Max entry of |[A_a, B_b] - i coeff B_c| over the cyclic (a, b, c) and the sectors.

    Each of a_ops, b_ops holds three components, each a sequence of sector blocks.
    """
    return _max_abs(
        x @ y - y @ x - z * (1j * coeff)
        for a, b, c in _CYCLIC
        for x, y, z in zip(a_ops[a], b_ops[b], b_ops[c])
    )


def verify_su2(triple: AmOperatorTriple, tol: float = 1e-12) -> AlgebraReport:
    """Max residual of [J_a, J_b] = i J_c over the three cyclic identities.

    The residual covers every stored entry: J conserves photon number, so the
    products are exact on each sector block of the truncated space. A triple of
    zero operators is reported as degenerate: the identities hold vacuously.
    """
    comps = [op.blocks for op in triple.components()]
    if max(_max_abs(op) for op in comps) == 0.0:
        return AlgebraReport("su2_closure", 0.0, tol, True, degenerate=True)
    residual = _cyclic_residual(comps, comps, 1.0)
    return AlgebraReport("su2_closure", residual, tol, residual < tol)


def density_commutator_check(
    kind_a: str,
    kind_b: str,
    kr: float,
    tol: float = 1e-12,
    *,
    config: radial.CavityConfig,
    triple: AmOperatorTriple,
) -> AlgebraReport:
    """Verify [A_a(r), B_b(r)] = i eps_abc f_A(kr) B_c(r) for density operators.

    A density at kr is f_spin(kr) J or f_oam(kr) J, so the identity is checked
    on the sector blocks of J scaled as arrays; the coefficient is f_A(kr).
    Commutators between densities at two different radii are not covered by
    these identities and are not implemented. Residuals are relative to the
    product of the operator magnitudes, over every sector block; the identity
    passes vacuously (degenerate) when either density vanishes. A kind other
    than 'spin' or 'oam', or a negative kr, raises ValueError.
    """
    for kind in (kind_a, kind_b):
        if kind not in _DENSITY_FACTORS:
            raise ValueError(f"kind must be 'spin' or 'oam', got {kind!r}")
    f_a = float(_DENSITY_FACTORS[kind_a](kr, config))
    f_b = float(_DENSITY_FACTORS[kind_b](kr, config))
    a_ops = [[block * f_a for block in op.blocks] for op in triple.components()]
    b_ops = [[block * f_b for block in op.blocks] for op in triple.components()]
    identity = (
        f"[{kind_a}_a(r),{kind_b}_b(r)] = i eps_abc f_{kind_a}(kr) {kind_b}_c(r)"
    )
    scale = max(_max_abs(op) for op in a_ops) * max(_max_abs(op) for op in b_ops)
    if scale == 0.0:
        return AlgebraReport(identity, 0.0, tol, True, degenerate=True)
    residual = _cyclic_residual(a_ops, b_ops, f_a) / scale
    return AlgebraReport(identity, residual, tol, residual < tol)


def am_variances(m: int, cutoff: int = DEFAULT_CUTOFF) -> tuple[float, float, float]:
    """(var Jx, var Jy, var Jz) in the single-photon state |1_m>.

    Returns (1, 1, 0) for m = 0 and (1/2, 1/2, 0) for m = +-1: the m = 0
    photon carries the larger transverse AM fluctuations. J conserves photon
    number, so on one photon each component is its SPIN1_BLOCKS matrix B and
    the variance is (B^2)_mm - (B_mm)^2 at any cutoff; the cutoff is only
    validated, as three_mode_space would, without building the basis.
    """
    if m not in M_VALUES:
        raise ValueError(f"m must be one of +1, 0, -1, got {m}")
    _check_cutoff(cutoff)
    row = M_VALUES.index(m)
    return tuple(
        float((block @ block)[row, row].real - block[row, row].real ** 2)
        for block in SPIN1_BLOCKS
    )
