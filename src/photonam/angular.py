"""Total angular-momentum operators on the three-mode (m = +1, 0, -1) photon space.

Builds the AM component operators from ladder operators, the eight hermitian
SU(3) generators with the cyclic lower-index convention, and the
position-scaled spin/orbital density operators. Verification routines report
commutator residuals rather than raising, so callers can aggregate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radial
from .fock import (
    FockSpace,
    ModeLabel,
    OperatorMatrix,
    build_space,
    commutator,
    creation,
    annihilation,
    fock_state,
    number_operator,
    variance,
)

M_PLUS = ModeLabel("+1")
M_ZERO = ModeLabel("0")
M_MINUS = ModeLabel("-1")

#: Canonical mode order (m = +1, 0, -1) used for single-photon blocks.
AM_MODES = (M_PLUS, M_ZERO, M_MINUS)

DEFAULT_CUTOFF = 3


def three_mode_space(cutoff: int = DEFAULT_CUTOFF) -> FockSpace:
    """Fock space of the three AM-projection modes with the default cutoff."""
    return build_space(AM_MODES, cutoff)


@dataclass(frozen=True)
class AmOperatorTriple:
    """Cartesian components of the total AM operator, all hermitian."""

    jx: OperatorMatrix
    jy: OperatorMatrix
    jz: OperatorMatrix

    def components(self) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
        return (self.jx, self.jy, self.jz)

    def squared(self) -> OperatorMatrix:
        return self.jx @ self.jx + self.jy @ self.jy + self.jz @ self.jz

    def scaled(self, factor: float) -> "AmOperatorTriple":
        return AmOperatorTriple(factor * self.jx, factor * self.jy, factor * self.jz)


def _am_mode_triple(
    space: FockSpace, modes: tuple[ModeLabel, ModeLabel, ModeLabel] | None
) -> tuple[ModeLabel, ModeLabel, ModeLabel]:
    if modes is None:
        modes = AM_MODES
    if len(modes) != 3:
        raise ValueError("need exactly the three modes m = +1, 0, -1")
    for mode in modes:
        space.mode_position(mode)  # raises on unknown label
    return tuple(modes)


def j_operators(
    space: FockSpace,
    modes: tuple[ModeLabel, ModeLabel, ModeLabel] | None = None,
) -> AmOperatorTriple:
    """Total AM components built from the (+1, 0, -1) ladder operators.

    Jx = [a0+ (a+ + a-) + h.c.] / sqrt(2)
    Jy = i [a0+ (a+ - a-) - h.c.] / sqrt(2)
    Jz = a++ a+  -  a-+ a-

    `modes` selects which labels play (+1, 0, -1); defaults to the canonical
    three-mode set. Each component is number-conserving, so products of the
    truncated matrices are exact on every occupation sector of the basis.
    """
    mp, m0, mm = _am_mode_triple(space, modes)
    a_p, a_0, a_m = (annihilation(space, m) for m in (mp, m0, mm))
    c_0 = creation(space, m0)
    raise_term = c_0 @ (a_p + a_m)
    jx = (1.0 / np.sqrt(2.0)) * (raise_term + raise_term.dag())
    diff_term = c_0 @ (a_p - a_m)
    jy = (1j / np.sqrt(2.0)) * (diff_term - diff_term.dag())
    jz = number_operator(space, mp) - number_operator(space, mm)
    return AmOperatorTriple(
        jx=OperatorMatrix(space, jx.matrix, hermitian=True),
        jy=OperatorMatrix(space, jy.matrix, hermitian=True),
        jz=OperatorMatrix(space, jz.matrix, hermitian=True),
    )


@dataclass(frozen=True)
class Su3GeneratorSet:
    """Eight hermitian SU(3) generators over the three AM modes.

    `diagonal_raw` holds the three occupation differences n_m - n_{m-1}
    with the cyclic convention m-1 = +1 when m = -1; they sum to zero, so
    only the first two enter the independent set.
    """

    diagonal_raw: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]
    diagonal: tuple[OperatorMatrix, OperatorMatrix]
    offdiag_real: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]
    offdiag_imag: tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]

    def all_generators(self) -> tuple[OperatorMatrix, ...]:
        return self.diagonal + self.offdiag_real + self.offdiag_imag


def su3_generators(
    space: FockSpace,
    modes: tuple[ModeLabel, ModeLabel, ModeLabel] | None = None,
) -> Su3GeneratorSet:
    """Hermitian SU(3) generator set with the cyclic lower-index convention."""
    triple = _am_mode_triple(space, modes)
    # cyclic pairs (m, m-1): (+1, 0), (0, -1), (-1, +1)
    pairs = [(triple[0], triple[1]), (triple[1], triple[2]), (triple[2], triple[0])]
    diag_raw = []
    off_real = []
    off_imag = []
    for upper, lower in pairs:
        diag_raw.append(number_operator(space, upper) - number_operator(space, lower))
        hop = creation(space, upper) @ annihilation(space, lower)
        off_real.append(0.5 * (hop + hop.dag()))
        off_imag.append((1.0 / 2j) * (hop - hop.dag()))
    mark = lambda op: OperatorMatrix(space, op.matrix, hermitian=True)
    diag_raw = tuple(mark(op) for op in diag_raw)
    return Su3GeneratorSet(
        diagonal_raw=diag_raw,
        diagonal=diag_raw[:2],
        offdiag_real=tuple(mark(op) for op in off_real),
        offdiag_imag=tuple(mark(op) for op in off_imag),
    )


def single_photon_block(
    op: OperatorMatrix,
    space: FockSpace,
    modes: tuple[ModeLabel, ModeLabel, ModeLabel] | None = None,
) -> np.ndarray:
    """3x3 restriction of an operator to the single-photon subspace.

    Rows and columns follow the (+1, 0, -1) mode order.
    """
    triple = _am_mode_triple(space, modes)
    indices = [space.index_of(fock_occ) for fock_occ in _single_photon_tuples(space, triple)]
    return op.matrix[np.ix_(indices, indices)]


def _single_photon_tuples(space, triple):
    for mode in triple:
        occ = [0] * len(space.modes)
        occ[space.mode_position(mode)] = 1
        yield tuple(occ)


@dataclass(frozen=True)
class AlgebraReport:
    """Outcome of a commutator-identity verification."""

    identity: str
    max_residual: float
    tolerance: float
    passed: bool
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


_CYCLIC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))


def _component_map(triple: AmOperatorTriple) -> dict[str, OperatorMatrix]:
    return {"x": triple.jx, "y": triple.jy, "z": triple.jz}


def verify_su2(triple: AmOperatorTriple, tol: float = 1e-12) -> AlgebraReport:
    """Max residual of [J_a, J_b] = i J_c over the three cyclic identities.

    The residual covers the whole truncated space, where the number-conserving
    products are exact. A triple of zero operators is reported as degenerate:
    the identities hold vacuously.
    """
    comps = _component_map(triple)
    scale = max(op.max_abs() for op in triple.components())
    if scale == 0.0:
        return AlgebraReport("su2_closure", 0.0, tol, True, degenerate=True)
    residual = 0.0
    for a, b, c in _CYCLIC:
        delta = commutator(comps[a], comps[b]) - 1j * comps[c]
        residual = max(residual, delta.max_abs())
    return AlgebraReport("su2_closure", residual, tol, residual < tol)


@dataclass(frozen=True)
class DensityOperator:
    """Spin or orbital AM density at one radius: a scalar times the J triple.

    The scale is f_spin(kr) or f_oam(kr); components are materialized on
    demand so radius sweeps stay cheap and exact.
    """

    kind: str
    kr: float
    scale: float
    triple: AmOperatorTriple

    def components(self) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
        return self.triple.scaled(self.scale).components()


def density_operator(
    kind: str,
    kr: float,
    config: radial.CavityConfig,
    triple: AmOperatorTriple | None = None,
) -> DensityOperator:
    if kind not in ("spin", "oam"):
        raise ValueError(f"kind must be 'spin' or 'oam', got {kind!r}")
    if kr < 0:
        raise ValueError(f"kr must be >= 0, got {kr}")
    if triple is None:
        triple = j_operators(three_mode_space())
    scale = radial.f_spin(kr, config) if kind == "spin" else radial.f_oam(kr, config)
    return DensityOperator(kind=kind, kr=kr, scale=float(scale), triple=triple)


def density_commutator_check(
    kind_a: str,
    kind_b: str,
    kr: float,
    tol: float = 1e-12,
    config: radial.CavityConfig | None = None,
    triple: AmOperatorTriple | None = None,
) -> AlgebraReport:
    """Verify [A_a(r), B_b(r)] = i eps_abc f_A(kr) B_c(r) for density operators.

    With A = spin the coefficient is f_spin(kr); with A = oam it is f_oam(kr),
    matching the commutation relations of equal-radius density components.
    Commutators between densities at two different radii are not covered by
    these identities and are not implemented. Residuals are relative to the
    product of the operator magnitudes, over the whole truncated space; the
    identity passes vacuously (degenerate) when either density vanishes.
    """
    if config is None:
        config = radial.CavityConfig(k=1.0, R=50.0)
    dens_a = density_operator(kind_a, kr, config, triple)
    dens_b = density_operator(kind_b, kr, config, triple=dens_a.triple)
    a_ops = _component_map(dens_a.triple.scaled(dens_a.scale))
    b_ops = _component_map(dens_b.triple.scaled(dens_b.scale))
    identity = (
        f"[{kind_a}_a(r),{kind_b}_b(r)] = i eps_abc f_{kind_a}(kr) {kind_b}_c(r)"
    )
    scale = max(op.max_abs() for op in a_ops.values()) * max(
        op.max_abs() for op in b_ops.values()
    )
    if scale == 0.0:
        return AlgebraReport(identity, 0.0, tol, True, degenerate=True)
    residual = 0.0
    for a, b, c in _CYCLIC:
        delta = commutator(a_ops[a], b_ops[b]) - 1j * dens_a.scale * b_ops[c]
        residual = max(residual, delta.max_abs() / scale)
    return AlgebraReport(identity, residual, tol, residual < tol)


def am_variances(m: int, cutoff: int = DEFAULT_CUTOFF) -> tuple[float, float, float]:
    """(var Jx, var Jy, var Jz) in the single-photon state |1_m>.

    Returns (1, 1, 0) for m = 0 and (1/2, 1/2, 0) for m = +-1: the m = 0
    photon carries the larger transverse AM fluctuations.
    """
    by_m = {1: M_PLUS, 0: M_ZERO, -1: M_MINUS}
    if m not in by_m:
        raise ValueError(f"m must be one of +1, 0, -1, got {m}")
    space = three_mode_space(cutoff)
    triple = j_operators(space)
    state = fock_state(space, {by_m[m]: 1})
    return tuple(variance(state, op) for op in triple.components())
