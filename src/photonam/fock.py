"""Truncated multimode bosonic Fock space with dense operator algebra.

The basis enumerates occupation tuples with a total-occupation cutoff in
lexicographic order, so basis indices are reproducible across runs and
platforms. Operators are dense complex matrices on that basis. One ladder
map builds them: a product of ladder operators on distinct modes that adds no
photon moves each basis state to one other, found by index arithmetic, so it
is exact on every occupation sector. `bilinear` maps a block to every
number-conserving operator, sum_ij block[i, j] a_i^dagger a_j, that way.
`annihilation` and `creation` stay as per-state references; a creation
operator at the cutoff boundary maps out of the truncated basis and is
represented as zero (documented truncation behavior). A state is an
amplitude array over the basis, placed with `index_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12

#: Largest basis check_dim (and so build_space) admits, because dense operators
#: are dim x dim complex matrices (16 MiB at this size): cutoff <= 16 for three
#: modes, <= 6 for six.
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

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Occupation array, mixed-radix keys and key weights of the basis."""
        # the keys rise with the basis order; Python ints once the largest key,
        # cutoff * weights[0], would overflow int64
        weights = [(self.cutoff + 1) ** k for k in reversed(range(len(self.modes)))]
        key_type = np.int64 if self.cutoff * weights[0] < 2**63 else object
        occupations = np.array(self.basis)
        keys = occupations.astype(key_type) @ np.array(weights, dtype=key_type)
        return occupations, keys, weights


def check_dim(n_modes: int, cutoff: int) -> None:
    """ValueError if cutoff < 0 or the basis of n_modes modes at cutoff exceeds MAX_DIM.

    It reads the size off comb(cutoff + n_modes, n_modes) without enumerating
    the basis.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    dim = math.comb(cutoff + n_modes, n_modes)
    if dim > MAX_DIM:
        raise ValueError(f"{n_modes} modes at cutoff {cutoff} give dimension {dim} > {MAX_DIM}")


def build_space(modes: Sequence[ModeLabel], cutoff: int) -> FockSpace:
    """Enumerate the occupation basis with sum(n) <= cutoff, lexicographically.

    The ordering is deterministic: same modes and cutoff always produce the
    identical basis, with the vacuum at index 0.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode list must be non-empty")
    if len(set(modes)) != len(modes):
        raise ValueError("mode labels must be unique")
    check_dim(len(modes), cutoff)
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

    `space` may be any object exposing `dim`. Hermiticity is checked where it
    is relied on, not at construction.
    """

    space: object
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dim = self.space.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dim {dim}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _require_same_space(self, other)
        return OperatorMatrix(self.space, self.matrix @ other.matrix)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return is_hermitian(self.matrix, tol)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0


def is_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= tol) if matrix.size else True


def _require_same_space(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.space is not b.space:
        raise ValueError("operators act on different spaces")


def annihilation(space: FockSpace, mode: ModeLabel) -> OperatorMatrix:
    """Ladder-down operator, <..., n-1, ...| a |..., n, ...> = sqrt(n), state by state."""
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


def _hops(space: FockSpace, raised: Sequence, lowered: Sequence) -> tuple[np.ndarray, ...]:
    """(src, dst, amplitude) of prod_r a_r^dagger prod_l a_l over distinct modes.

    With no more raised than lowered modes no image leaves the truncated basis:
    src lists the states with every lowered mode occupied, dst is found by the
    key of src + sum_r e_r - sum_l e_l, amplitude = prod sqrt(n_r + 1) sqrt(n_l).
    """
    occupations, keys, weights = space._radix
    up = [space.mode_position(mode) for mode in raised]
    down = [space.mode_position(mode) for mode in lowered]
    src = np.flatnonzero(np.all(occupations[:, down] > 0, axis=1))
    shift = sum(weights[k] for k in up) - sum(weights[k] for k in down)
    dst = np.searchsorted(keys, keys[src] + shift)
    counts = np.hstack([occupations[src][:, up] + 1, occupations[src][:, down]])
    return src, dst, np.prod(np.sqrt(counts), axis=1)


def bilinear(space: FockSpace, modes: Sequence[ModeLabel], block) -> OperatorMatrix:
    """sum_ij block[i, j] a_i^dagger a_j over the distinct `modes`.

    The diagonal holds sum_i block[i, i] n_i, exact for integer-valued blocks,
    and each off-diagonal a_i^dagger a_j is one ladder-map hop, |n> to
    |n + e_i - e_j> with amplitude sqrt(n_i + 1) sqrt(n_j). The operator
    conserves the total occupation, so no state leaves the truncated basis.
    An exactly hermitian block gives an exactly hermitian operator.
    """
    block = np.asarray(block, dtype=complex)
    positions = [space.mode_position(mode) for mode in modes]
    if len(set(positions)) != len(positions):
        raise ValueError("bilinear modes must be distinct")
    if block.shape != (len(positions), len(positions)):
        raise ValueError(f"block shape {block.shape} does not match {len(positions)} modes")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    np.fill_diagonal(mat, space._radix[0][:, positions] @ np.diag(block))
    for i, j in zip(*np.nonzero(block - np.diag(np.diag(block)))):
        src, dst, amplitude = _hops(space, (modes[i],), (modes[j],))
        mat[dst, src] = block[i, j] * amplitude
    return OperatorMatrix(space, mat)


def total_number_operator(space: FockSpace) -> OperatorMatrix:
    return bilinear(space, space.modes, np.eye(len(space.modes)))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA on a shared space."""
    _require_same_space(a, b)
    return OperatorMatrix(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)
