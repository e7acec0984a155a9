"""Truncated multimode bosonic Fock space, with operators stored as sector blocks.

The basis enumerates occupation tuples with a total-occupation cutoff in
lexicographic order, so basis indices are reproducible across runs and
platforms. A state is an amplitude array over the basis, placed with
`index_of`.

Every operator photonam builds conserves an integer label of the basis
states: the photon number on a FockSpace, twice the excitation number on the
twins atom-field space. `Sectors` groups the basis by that label, and an
`OperatorMatrix` holds one dense block per sector, so products, residuals and
eigen-decompositions run block by block and the label is conserved by
construction. `.matrix` assembles the dense dim x dim array in basis order.

One ladder map fills the blocks: a product of ladder operators on distinct
modes that adds no photon moves each basis state to one other, found by index
arithmetic, so it is exact on every sector. `bilinear` maps a block to every
number-conserving operator, sum_ij block[i, j] a_i^dagger a_j, that way.
`annihilation` stays as the dense per-state reference; it changes the photon
number, so it is a plain dim x dim array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12

#: Largest photon-number sector check_dim (and so build_space) admits, and the
#: most sectors. Operators are stored and multiplied block by block, so the
#: largest block sets their cost. Three modes reach cutoff 20, a top sector of
#: (20 + 1)(20 + 2) / 2 = 231 states, where a cold `algebra --cutoff 20` takes
#: about 1 s on 2 cores; 252 is six modes at cutoff 5, so the twins atom-field
#: space keeps cutoffs up to 5.
MAX_SECTOR_DIM = 252


@dataclass(frozen=True)
class ModeLabel:
    """Symbolic bosonic mode label, optionally tagged by propagation direction."""

    name: str
    direction: str | None = None

    def __str__(self) -> str:
        if self.direction is None:
            return self.name
        return f"{self.name}@{self.direction}"


@dataclass(frozen=True, eq=False)
class Sectors:
    """Basis states grouped by a conserved integer label 0, 1, ..., max.

    indices[k] lists the basis indices of label k in increasing order, and
    local[i] is the position of basis state i inside its sector. Stored one
    after another, row-major, block k of an operator starts at offsets[k].
    """

    labels: np.ndarray = field(repr=False)
    indices: tuple[np.ndarray, ...] = field(repr=False)
    local: np.ndarray = field(repr=False)
    sizes: np.ndarray
    offsets: np.ndarray = field(repr=False)


def sectors_of(labels) -> Sectors:
    """Group the basis by labels[i] >= 0, the integer label of basis state i."""
    labels = np.asarray(labels, dtype=np.intp)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(labels.max() + 2))
    sizes = np.diff(bounds)
    local = np.empty(labels.size, dtype=np.intp)
    local[order] = np.arange(labels.size) - np.repeat(bounds[:-1], sizes)
    return Sectors(
        labels=labels,
        indices=tuple(order[a:b] for a, b in zip(bounds[:-1], bounds[1:])),
        local=local,
        sizes=sizes,
        offsets=np.concatenate(([0], np.cumsum(sizes * sizes))),
    )


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

    @cached_property
    def sectors(self) -> Sectors:
        """Photon-number sectors: label N holds the states with N photons in total."""
        return sectors_of(self._radix[0].sum(axis=1))


def check_dim(n_modes: int, cutoff: int) -> None:
    """ValueError if cutoff < 0 or the space of n_modes modes at cutoff has a
    photon-number sector of more than MAX_SECTOR_DIM states, or more sectors.

    The top sector, the states holding exactly `cutoff` photons, is the
    largest: comb(cutoff + n_modes - 1, n_modes - 1) states, read without
    enumerating the basis. One mode has one state per sector, so there the
    cutoff + 1 sectors are what is bounded.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    largest = math.comb(cutoff + n_modes - 1, n_modes - 1)
    if largest > MAX_SECTOR_DIM:
        raise ValueError(
            f"{n_modes} modes at cutoff {cutoff} give a {cutoff}-photon sector of "
            f"{largest} states > {MAX_SECTOR_DIM}"
        )
    if cutoff + 1 > MAX_SECTOR_DIM:
        raise ValueError(
            f"{n_modes} modes at cutoff {cutoff} give {cutoff + 1} photon-number sectors "
            f"> {MAX_SECTOR_DIM}"
        )


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
    """Operator that conserves its space's sector label, as one block per sector.

    `space` may be any object exposing `dim` and `sectors`; blocks[k] is the
    operator on the basis states space.sectors.indices[k], in basis order, held
    as a read-only complex array. Hermiticity is checked where it is relied on,
    not at construction.
    """

    space: object
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        sizes = self.space.sectors.sizes
        blocks = tuple(np.asarray(block, dtype=complex).view() for block in self.blocks)
        if len(blocks) != len(sizes) or any(b.shape != (n, n) for b, n in zip(blocks, sizes)):
            raise ValueError(
                f"block shapes {[b.shape for b in blocks]} do not match the sector sizes "
                f"{sizes.tolist()}"
            )
        for block in blocks:
            block.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_entries(cls, space, rows, cols, values) -> "OperatorMatrix":
        """The operator whose (rows[k], cols[k]) entry is values[k], zero elsewhere.

        Indices are basis indices of the whole space, each (row, col) given at
        most once. An entry between two sectors raises ValueError, so the
        operator conserves the label.
        """
        sectors = space.sectors
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        label = sectors.labels[cols]
        leaks = np.flatnonzero(sectors.labels[rows] != label)
        if leaks.size:
            row, col = rows[leaks[0]], cols[leaks[0]]
            raise ValueError(
                f"entry ({row}, {col}) couples sector {sectors.labels[col]} to sector "
                f"{sectors.labels[row]}; the operator must conserve the sector label"
            )
        flat = np.zeros(sectors.offsets[-1], dtype=complex)
        flat[
            sectors.offsets[label] + sectors.local[rows] * sectors.sizes[label] + sectors.local[cols]
        ] = values
        bounds = zip(sectors.offsets, sectors.offsets[1:], sectors.sizes)
        return cls(space, tuple(flat[a:b].reshape(n, n) for a, b, n in bounds))

    @classmethod
    def from_dense(cls, space, matrix) -> "OperatorMatrix":
        """The blocks of a dense dim x dim matrix in basis order.

        A nonzero entry outside the sectors raises ValueError.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match space dim {space.dim}")
        rows, cols = np.nonzero(matrix)
        return cls.from_entries(space, rows, cols, matrix[rows, cols])

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim array in basis order, assembled from the blocks."""
        mat = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        for indices, block in zip(self.space.sectors.indices, self.blocks):
            mat[np.ix_(indices, indices)] = block
        mat.setflags(write=False)
        return mat

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return all(is_hermitian(block, tol) for block in self.blocks)


def is_hermitian(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= tol) if matrix.size else True


# kept as the dense per-state reference: perfbench/spans.py LAYERS looks it up by name
def annihilation(space: FockSpace, mode: ModeLabel) -> np.ndarray:
    """Dense ladder-down matrix, <..., n-1, ...| a |..., n, ...> = sqrt(n), state by state."""
    pos = space.mode_position(mode)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, occ in enumerate(space.basis):
        n = occ[pos]
        if n > 0:
            target = occ[:pos] + (n - 1,) + occ[pos + 1 :]
            mat[space.index_of(target), i] = np.sqrt(n)
    return mat


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
    |n + e_i - e_j> with amplitude sqrt(n_i + 1) sqrt(n_j). Each entry is
    written once, into the block of its photon-number sector. An exactly
    hermitian block gives an exactly hermitian operator.
    """
    block = np.asarray(block, dtype=complex)
    positions = [space.mode_position(mode) for mode in modes]
    if len(set(positions)) != len(positions):
        raise ValueError("bilinear modes must be distinct")
    if block.shape != (len(positions), len(positions)):
        raise ValueError(f"block shape {block.shape} does not match {len(positions)} modes")
    states = np.arange(space.dim)
    rows, cols, values = [states], [states], [space._radix[0][:, positions] @ np.diag(block)]
    for i, j in zip(*np.nonzero(block - np.diag(np.diag(block)))):
        src, dst, amplitude = _hops(space, (modes[i],), (modes[j],))
        rows.append(dst)
        cols.append(src)
        values.append(block[i, j] * amplitude)
    return OperatorMatrix.from_entries(
        space, np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    )


def total_number_operator(space: FockSpace) -> OperatorMatrix:
    return bilinear(space, space.modes, np.eye(len(space.modes)))
