"""Truncated multimode bosonic Fock space, with operators stored as sector blocks.

The basis is one read-only dim x n_modes integer array, `occupations`: the
occupations within a total-occupation cutoff in lexicographic order, so basis
indices are reproducible. A state is an amplitude array over it, placed with
`index_of` by mixed-radix key; the tuples `basis` are built only when read.

Every operator photonam builds conserves an integer label of the basis
states: the photon number on a FockSpace, twice the excitation number on the
twins atom-field space. `Sectors` groups the basis by that label, and an
`OperatorMatrix` is the flat array of its dense sector blocks, so the label is
conserved by construction; products, residuals and eigen-decompositions run on
its `blocks`, read-only views of it. `.matrix` assembles the dense array.

One ladder map fills the blocks: a product of ladder operators on distinct
modes that adds no photon moves each basis state to one other, found by index
arithmetic, so it is exact on every sector; one call maps every term of an
operator set. `bilinear` maps a stack of blocks to the number-conserving
operators sum_ij block[i, j] a_i^dagger a_j that way.
`annihilation` stays as the dense per-state reference; it changes the photon
number, so it is a plain dim x dim array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, combinations, repeat
from operator import mul
from typing import Hashable, Sequence

import numpy as np

from .output import integer

HERMITICITY_TOL = 1e-12

#: Largest photon-number sector check_dim (and so build_space) admits, and the
#: most sectors. Operators are stored and multiplied block by block, so the
#: largest block sets their cost. Three modes reach cutoff 20, a top sector of
#: (20 + 1)(20 + 2) / 2 = 231 states, where a cold `algebra --cutoff 20` takes
#: about 0.2 s (median of 7 runs, 2 cores, Python 3.11, numpy 2.4); 252 is six
#: modes at cutoff 5, so the twins atom-field space keeps cutoffs up to 5.
MAX_SECTOR_DIM = 252


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


def _flat_positions(sectors: Sectors, rows, cols) -> np.ndarray:
    """Flat positions of the (rows[k], cols[k]) entries in the blocks stored one
    after another; ValueError if an entry couples two sectors."""
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
    return sectors.offsets[label] + sectors.local[rows] * sectors.sizes[label] + sectors.local[cols]


@dataclass(frozen=True)
class FockSpace:
    """Occupations within a total cutoff, row i of `occupations`; column k counts mode modes[k]."""

    modes: tuple[Hashable, ...]
    cutoff: int
    occupations: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.occupations)

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The occupation tuples in basis order, built on first read."""
        return tuple(map(tuple, self.occupations.tolist()))

    def index_of(self, occupation):
        """Basis index of an occupation, or the k indices of a (k, n_modes) array of them,
        from one search of their mixed-radix keys; ValueError unless each occupation is
        len(modes) integers >= 0 (bools count) that sum to <= cutoff."""
        occ = np.asarray(occupation)
        fits = occ.ndim in (1, 2) and occ.shape[-1] == len(self.modes) and occ.dtype.kind in "biu"
        if not fits or (occ < 0).any() or (occ.sum(axis=-1) > self.cutoff).any():
            raise ValueError(f"occupation {occupation} not in truncated basis")
        keys, weights = self._radix
        index = keys.searchsorted(occ.astype(weights.dtype) @ weights)
        return int(index) if occ.ndim == 1 else index

    def mode_position(self, mode: Hashable) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode label {mode!r}") from None

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray]:
        """Mixed-radix keys of the basis, rising with its order, and the key weights."""
        weights = [*accumulate(repeat(self.cutoff + 1, len(self.modes) - 1), mul, initial=1)][::-1]
        # Python ints once the largest key, cutoff * weights[0], would overflow int64
        key_type = np.int64 if self.cutoff * weights[0] < 2**63 else object
        weights = np.array(weights, dtype=key_type)
        return self.occupations.astype(key_type) @ weights, weights

    @cached_property
    def _roots(self) -> np.ndarray:
        """Row k < len(modes) is sqrt(n_k + 1) over the basis, row len(modes) + k sqrt(n_k)."""
        return np.sqrt(np.vstack([self.occupations.T + 1, self.occupations.T]))

    @cached_property
    def sectors(self) -> Sectors:
        """Photon-number sectors: label N holds the states with N photons in total."""
        return sectors_of(self.occupations.sum(axis=1))


def check_dim(n_modes: int, cutoff: int) -> None:
    """ValueError unless cutoff is an integer, not a float or bool; if cutoff < 0;
    or if the space of n_modes modes at cutoff has a photon-number sector of
    more than MAX_SECTOR_DIM states, or more sectors.

    The top sector, the states holding exactly `cutoff` photons, is the
    largest: comb(cutoff + n_modes - 1, n_modes - 1) states, read without
    enumerating the basis. One mode has one state per sector, so there the
    cutoff + 1 sectors are what is bounded.
    """
    cutoff = integer(cutoff, "cutoff")
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


def build_space(modes: Sequence[Hashable], cutoff: int) -> FockSpace:
    """Enumerate the occupation basis with sum(n) <= cutoff, lexicographically.

    `modes` are distinct hashable labels; column k of `occupations` is modes[k].

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
    n, dim = len(modes), math.comb(cutoff + len(modes), len(modes))
    bars = np.fromiter(chain.from_iterable(combinations(range(cutoff + n), n)), np.intp, dim * n)
    occupations = np.diff(bars.reshape(dim, n), axis=1, prepend=-1) - 1
    occupations.setflags(write=False)
    return FockSpace(modes=modes, cutoff=cutoff, occupations=occupations)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Operator that conserves its space's sector label, as its sector blocks stored flat.

    `space` may be any object exposing `dim` and `sectors`; the read-only complex
    `flat` holds block k, the operator on the basis states space.sectors.indices[k]
    in basis order, row-major from space.sectors.offsets[k]. Hermiticity is
    checked where it is relied on, not at construction.
    """

    space: object
    flat: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        flat = np.asarray(self.flat, dtype=complex).view()
        if flat.shape != (self.space.sectors.offsets[-1],):
            sizes = self.space.sectors.sizes.tolist()
            raise ValueError(f"flat shape {flat.shape} does not fit the sector sizes {sizes}")
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_entries(cls, space, rows, cols, values) -> "OperatorMatrix":
        """The operator whose (rows[k], cols[k]) entry is values[k], zero elsewhere.

        Indices are basis indices of the whole space, each (row, col) given at
        most once. An entry between two sectors raises ValueError, so the
        operator conserves the label.
        """
        flat = np.zeros(space.sectors.offsets[-1], dtype=complex)
        flat[_flat_positions(space.sectors, rows, cols)] = values
        return cls(space, flat)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """blocks[k], the n_k x n_k block of sector k: a read-only view of `flat`."""
        offsets, sizes = self.space.sectors.offsets, self.space.sectors.sizes
        return tuple(self.flat[a : a + n * n].reshape(n, n) for a, n in zip(offsets, sizes))

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim array in basis order, assembled from the blocks."""
        mat = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        for indices, block in zip(self.space.sectors.indices, self.blocks):
            mat[np.ix_(indices, indices)] = block
        mat.setflags(write=False)
        return mat


def is_hermitian(matrix: np.ndarray) -> bool:
    return bool(np.max(np.abs(matrix - matrix.conj().T), initial=0.0) <= HERMITICITY_TOL)


# kept as the dense per-state reference: perfbench/spans.py LAYERS looks it up by name
def annihilation(space: FockSpace, mode: Hashable) -> np.ndarray:
    """Dense ladder-down matrix, <..., n-1, ...| a |..., n, ...> = sqrt(n), state by state."""
    pos = space.mode_position(mode)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, occ in enumerate(space.basis):
        n = occ[pos]
        if n > 0:
            target = occ[:pos] + (n - 1,) + occ[pos + 1 :]
            mat[space.index_of(target), i] = np.sqrt(n)
    return mat


def _hops(space: FockSpace, up: np.ndarray, down: np.ndarray) -> tuple[np.ndarray, ...]:
    """(term, src, dst, amplitude) of each term t, prod_r a_r^dagger prod_l a_l over the
    distinct mode positions r in row t of the array up and l in row t of down.

    With no more raised than lowered modes no image leaves the truncated basis:
    amplitude = prod sqrt(n_r + 1) sqrt(n_l) is nonzero on the states src with every
    lowered mode occupied, and dst is found by the key of src + sum_r e_r - sum_l e_l.
    """
    keys, weights = space._radix
    amplitude = space._roots[np.hstack([up, len(space.modes) + down])].prod(axis=1)
    term, src = amplitude.nonzero()
    shift = weights[up].sum(axis=1) - weights[down].sum(axis=1)
    return term, src, keys.searchsorted(keys[src] + shift[term]), amplitude[term, src]


def bilinear(space: FockSpace, modes: Sequence[Hashable], blocks) -> tuple[OperatorMatrix, ...]:
    """sum_ij block[i, j] a_i^dagger a_j over the distinct `modes`, per block of a (k, n, n) stack.

    Diagonal: sum_i block[i, i] n_i, exact for integer-valued blocks. Every
    off-diagonal a_i^dagger a_j that a block uses is a term of one ladder-map
    call, |n> to |n + e_i - e_j> with amplitude sqrt(n_i + 1) sqrt(n_j),
    scattered into all k blocks at once. An exactly hermitian block gives an
    exactly hermitian operator.
    """
    blocks = np.asarray(blocks, dtype=complex)
    positions = np.array([space.mode_position(mode) for mode in modes], dtype=np.intp)
    if len(set(positions.tolist())) != positions.size:
        raise ValueError("bilinear modes must be distinct")
    if blocks.ndim != 3 or blocks.shape[1:] != (len(positions),) * 2:
        raise ValueError(f"block stack shape {blocks.shape} does not match {len(positions)} modes")
    i, j = np.nonzero(np.any(blocks != 0, axis=0) & ~np.eye(len(positions), dtype=bool))
    term, src, dst, amplitude = _hops(space, positions[i, None], positions[j, None])
    states = np.arange(space.dim)
    where = _flat_positions(space.sectors, np.append(states, dst), np.append(states, src))
    diagonal = np.diagonal(blocks, axis1=1, axis2=2) @ space.occupations[:, positions].T
    flat = np.zeros((len(blocks), space.sectors.offsets[-1]), dtype=complex)
    flat[:, where[: space.dim]] = diagonal
    flat[:, where[space.dim :]] = blocks[:, i[term], j[term]] * amplitude
    return tuple(OperatorMatrix(space, row) for row in flat)
