"""Operator references for the tests.

photonam stores each operator as one flat array of its blocks, one per
conserved sector. The tests check those blocks against dense dim x dim matrices built here, state by
state, from `fock.annihilation`: a ladder operator changes the photon number,
so it has no sector blocks and stays a dense array. `creation` pushes the
states at the cutoff out of the truncated basis and represents them as zero.

`from_dense` turns a dense matrix, a perturbed operator say, back into sector
blocks.

`scaled_density_residual` is the reference of the density commutator checks:
it multiplies out the commutators of the scaled densities f(kr) J, where
photonam reads the residual from the SU(2) closure of J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from photonam import fock, radial


@dataclass(frozen=True)
class DenseOperator:
    """A dense complex matrix on a space: the reference form of an operator."""

    space: object
    matrix: np.ndarray

    def dag(self) -> "DenseOperator":
        return DenseOperator(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        _require_same_space(self, other)
        return DenseOperator(self.space, self.matrix @ other.matrix)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0


def dense(op: fock.OperatorMatrix) -> DenseOperator:
    """The dense matrix assembled from an operator's sector blocks."""
    return DenseOperator(op.space, op.matrix)


def from_dense(space, matrix) -> fock.OperatorMatrix:
    """The sector blocks of a dense dim x dim matrix in basis order.

    A nonzero entry between two sectors raises ValueError (from
    `OperatorMatrix.from_entries`), so a matrix that does not conserve the
    label cannot become an operator.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (space.dim, space.dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match space dim {space.dim}")
    rows, cols = np.nonzero(matrix)
    return fock.OperatorMatrix.from_entries(space, rows, cols, matrix[rows, cols])


def _require_same_space(a: DenseOperator, b: DenseOperator) -> None:
    if a.space is not b.space:
        raise ValueError("operators act on different spaces")


def annihilation(space: fock.FockSpace, mode: Hashable) -> DenseOperator:
    return DenseOperator(space, fock.annihilation(space, mode))


def creation(space: fock.FockSpace, mode: Hashable) -> DenseOperator:
    """Adjoint of annihilation; states pushed past the cutoff map to zero."""
    return annihilation(space, mode).dag()


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA on a shared space."""
    _require_same_space(a, b)
    return DenseOperator(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)


def total_number_operator(space: fock.FockSpace) -> fock.OperatorMatrix:
    """N = sum_i a_i^dagger a_i as sector blocks: an exact integer diagonal."""
    return fock.bilinear(space, space.modes, [np.eye(len(space.modes))])[0]


def is_hermitian_operator(op: fock.OperatorMatrix, tol: float = fock.HERMITICITY_TOL) -> bool:
    """Every sector block of op is hermitian to within tol."""
    return all(np.max(np.abs(block - block.conj().T), initial=0.0) <= tol for block in op.blocks)


#: Component positions (a, b, c) of the cyclic identities [J_a, J_b] = i J_c.
CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

DENSITY_FACTORS = {"spin": radial.f_spin, "oam": radial.f_oam}


def scaled_density_residual(kind_a, kind_b, kr, config, triple) -> tuple[float, bool, float]:
    """(residual, degenerate, scale) of [A_a, B_b] = i f_A(kr) B_c, multiplied out.

    The densities A = f_A(kr) J and B = f_B(kr) J are built as scaled copies of
    J's sector blocks, and the largest entry of [A_a, B_b] - i f_A B_c over the
    cyclic (a, b, c) and the sectors is divided by scale = max|A| max|B|. The
    identity is degenerate where scale is 0. Once scale nears the smallest
    normal float, the scaled products lose their digits to underflow.
    """
    f_a = float(DENSITY_FACTORS[kind_a](kr, config))
    f_b = float(DENSITY_FACTORS[kind_b](kr, config))
    a_ops = [[block * f_a for block in op.blocks] for op in triple.components()]
    b_ops = [[block * f_b for block in op.blocks] for op in triple.components()]

    def max_abs(blocks):
        return max(float(np.max(np.abs(block))) for block in blocks)

    scale = max(max_abs(op) for op in a_ops) * max(max_abs(op) for op in b_ops)
    if scale == 0.0:
        return 0.0, True, scale
    residual = max_abs(
        x @ y - y @ x - z * (1j * f_a)
        for a, b, c in CYCLIC
        for x, y, z in zip(a_ops[a], b_ops[b], b_ops[c])
    )
    return residual / scale, False, scale
