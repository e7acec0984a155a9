"""Truncated multimode bosonic Fock space with dense operator algebra.

The basis enumerates occupation tuples with a total-occupation cutoff in
lexicographic order, so basis indices are reproducible across runs and
platforms. Ladder operators are dense complex matrices on that basis;
a creation operator acting on a state at the cutoff boundary maps out of
the truncated basis and is represented as zero (documented truncation
behavior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12

#: Largest basis build_space admits, because dense operators are dim x dim
#: complex matrices (16 MiB at this size): cutoff <= 16 for three modes, <= 6 for six.
MAX_DIM = 1024


@dataclass(frozen=True)
class ModeLabel:
    """Symbolic bosonic mode label, optionally tagged by propagation direction."""

    name: str
    direction: str | None = None

    def __str__(self) -> str:
        if self.direction is None:
            return self.name
        return f"{self.name}@{self.direction}"


@dataclass(frozen=True)
class FockSpace:
    """Occupation-number basis for a set of modes with a total-occupation cutoff."""

    modes: tuple[ModeLabel, ...]
    cutoff: int
    basis: tuple[tuple[int, ...], ...] = field(repr=False)
    _index: dict[tuple[int, ...], int] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, occupation: tuple[int, ...]) -> int:
        try:
            return self._index[tuple(occupation)]
        except KeyError:
            raise ValueError(f"occupation {occupation} not in truncated basis") from None

    def mode_position(self, mode: ModeLabel) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode label {mode}") from None


def build_space(modes: Sequence[ModeLabel], cutoff: int) -> FockSpace:
    """Enumerate the occupation basis with sum(n) <= cutoff, lexicographically.

    The ordering is deterministic: same modes and cutoff always produce the
    identical basis, with the vacuum at index 0.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode list must be non-empty")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if len(set(modes)) != len(modes):
        raise ValueError("mode labels must be unique")
    dim = math.comb(cutoff + len(modes), len(modes))
    if dim > MAX_DIM:
        raise ValueError(
            f"{len(modes)} modes at cutoff {cutoff} give dimension {dim} > {MAX_DIM}"
        )
    # stars and bars: each choice of len(modes) bars among cutoff + len(modes)
    # slots is one admitted occupation, the gaps before each bar, and the
    # bar choices come in the lexicographic order of their gaps
    bars = combinations(range(cutoff + len(modes)), len(modes))
    basis = tuple(tuple(b - a - 1 for a, b in zip((-1, *c), c)) for c in bars)
    index = {occ: i for i, occ in enumerate(basis)}
    return FockSpace(modes=modes, cutoff=cutoff, basis=basis, _index=index)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix acting on a Fock-space basis.

    `space` may be any object exposing `dim`; setting `hermitian=True`
    asserts and verifies entrywise hermiticity at construction.
    """

    space: object
    matrix: np.ndarray = field(repr=False)
    hermitian: bool = False

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dim = self.space.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dim {dim}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.hermitian and not is_hermitian(mat, HERMITICITY_TOL):
            raise ValueError("matrix declared hermitian fails entrywise check")

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _require_same_space(self, other)
        return OperatorMatrix(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _require_same_space(self, other)
        return OperatorMatrix(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _require_same_space(self, other)
        return OperatorMatrix(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, -self.matrix)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return is_hermitian(self.matrix, tol)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a Fock-space basis."""

    space: object
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.space.dim,):
            raise ValueError(f"amplitude length {amp.shape} does not match dim {self.space.dim}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)


def is_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= tol) if matrix.size else True


def _require_same_space(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.space is not b.space:
        raise ValueError("operators act on different spaces")


def annihilation(space: FockSpace, mode: ModeLabel) -> OperatorMatrix:
    """Ladder-down operator: <..., n-1, ...| a |..., n, ...> = sqrt(n)."""
    pos = space.mode_position(mode)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, occ in enumerate(space.basis):
        n = occ[pos]
        if n > 0:
            target = occ[:pos] + (n - 1,) + occ[pos + 1 :]
            mat[space.index_of(target), i] = np.sqrt(n)
    return OperatorMatrix(space, mat)


def creation(space: FockSpace, mode: ModeLabel) -> OperatorMatrix:
    """Adjoint of annihilation; states pushed past the cutoff map to zero."""
    return annihilation(space, mode).dag()


def number_operator(space: FockSpace, mode: ModeLabel) -> OperatorMatrix:
    return creation(space, mode) @ annihilation(space, mode)


def total_number_operator(space: FockSpace) -> OperatorMatrix:
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for mode in space.modes:
        mat += number_operator(space, mode).matrix
    return OperatorMatrix(space, mat)


def identity_operator(space: FockSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim, dtype=complex))


def occupation_projector(space: FockSpace, max_total: int) -> OperatorMatrix:
    """Diagonal projector onto basis states with total occupation <= max_total."""
    diag = np.array([1.0 if sum(occ) <= max_total else 0.0 for occ in space.basis])
    return OperatorMatrix(space, np.diag(diag).astype(complex))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA on a shared space."""
    _require_same_space(a, b)
    return OperatorMatrix(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)


def fock_state(space: FockSpace, occupations: Mapping[ModeLabel, int]) -> StateVector:
    """Unit basis vector for the given mode occupations (unlisted modes empty)."""
    occ = [0] * len(space.modes)
    for mode, n in occupations.items():
        if n < 0:
            raise ValueError(f"occupation must be >= 0, got {n}")
        occ[space.mode_position(mode)] = int(n)
    if sum(occ) > space.cutoff:
        raise ValueError(f"total occupation {sum(occ)} exceeds cutoff {space.cutoff}")
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index_of(tuple(occ))] = 1.0
    return StateVector(space, amp)


def vacuum_state(space: FockSpace) -> StateVector:
    return fock_state(space, {})


def expectation(state: StateVector, op: OperatorMatrix) -> complex:
    if state.space is not op.space:
        raise ValueError("state and operator act on different spaces")
    if abs(state.norm() - 1.0) > 1e-12:
        raise ValueError("expectation requires a normalized state")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def variance(state: StateVector, op: OperatorMatrix) -> float:
    """<op^2> - <op>^2 for a hermitian operator; tiny negatives clamp to 0."""
    if not op.is_hermitian(HERMITICITY_TOL):
        raise ValueError("variance requires a hermitian operator")
    mean = expectation(state, op).real
    second = expectation(state, op @ op).real
    var = second - mean * mean
    return max(var, 0.0)
