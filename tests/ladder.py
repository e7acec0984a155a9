"""Dense ladder-operator reference for the tests.

photonam stores each operator as one block per conserved sector. The tests
check those blocks against dense dim x dim matrices built here, state by
state, from `fock.annihilation`: a ladder operator changes the photon number,
so it has no sector blocks and stays a dense array. `creation` pushes the
states at the cutoff out of the truncated basis and represents them as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from photonam import fock


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


def _require_same_space(a: DenseOperator, b: DenseOperator) -> None:
    if a.space is not b.space:
        raise ValueError("operators act on different spaces")


def annihilation(space: fock.FockSpace, mode: fock.ModeLabel) -> DenseOperator:
    return DenseOperator(space, fock.annihilation(space, mode))


def creation(space: fock.FockSpace, mode: fock.ModeLabel) -> DenseOperator:
    """Adjoint of annihilation; states pushed past the cutoff map to zero."""
    return annihilation(space, mode).dag()


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA on a shared space."""
    _require_same_space(a, b)
    return DenseOperator(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)
