"""Photon twins from a quadrupole-degenerate (j=2 to j=0) transition.

The two emitted photons counter-propagate and are modeled as two
distinguishable three-mode families. Total projection conservation confines
the pair to the m1 + m2 = 0 subspace, spanned by two exchange-even states
and one exchange-odd state; the pair-creation interaction couples only to
the even combination, so the odd state is never radiated. The Hamiltonian
conserves the excitation number N_exc = |e><e| + N_photons / 2, so it is
stored as one block per value of 2 N_exc, and the selection rule is checked
inside the 2 N_exc = 2 sector: |e; vac> and the two-photon states |g; n>.
Entanglement of the radiated state is measured by mu = |c1| |c2|^2 over the
even pair, and its maximum coincides with all sixteen local SU(3) generator
expectations vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import AM_MODES, M_VALUES, SU3_BLOCKS
from .fock import (
    FockSpace,
    ModeLabel,
    OperatorMatrix,
    Sectors,
    _hops,
    build_space,
    is_hermitian,
    sectors_of,
)

FORWARD_MODES = tuple(ModeLabel(m.name, "fwd") for m in AM_MODES)
BACKWARD_MODES = tuple(ModeLabel(m.name, "bwd") for m in AM_MODES)

VARIATIONAL_TOL = 1e-8
#: Bounds on the odd-state coupling and eigen-residual, and on its evolved overlap.
COUPLING_TOL = 1e-12
OVERLAP_TOL = 1e-10


def _pair_state(entries: dict[tuple[int, int], complex]) -> np.ndarray:
    amps = np.zeros((3, 3), dtype=complex)
    for (m1, m2), value in entries.items():
        amps[M_VALUES.index(m1), M_VALUES.index(m2)] = value
    amps.setflags(write=False)
    return amps


_INV_RT2 = 1.0 / np.sqrt(2.0)

#: Exchange-even pair states psi1, psi2 and the exchange-odd psi3: read-only
#: 3x3 amplitudes over |1_{m1}; 1_{m2}>, rows m1 and columns m2 in M_VALUES order.
PARITY_BASIS = (
    _pair_state({(0, 0): 1.0}),
    _pair_state({(1, -1): _INV_RT2, (-1, 1): _INV_RT2}),
    _pair_state({(1, -1): _INV_RT2, (-1, 1): -_INV_RT2}),
)


def entanglement_measure(c1: complex, c2: complex) -> float:
    """mu = |c1| |c2|^2 of c1 psi1 + c2 psi2; zero on both product-state endpoints."""
    return abs(c1) * abs(c2) ** 2


def local_expectations(psi: np.ndarray) -> np.ndarray:
    """Sixteen generator expectations of the 3x3 pair state psi.

    Eight on photon 1, then eight on photon 2.
    """
    rho1 = psi @ psi.conj().T
    rho2 = (psi.conj().T @ psi).T
    blocks = SU3_BLOCKS.all_generators()
    values = [np.trace(g @ rho1).real for g in blocks]
    values += [np.trace(g @ rho2).real for g in blocks]
    return np.array(values)


@dataclass(frozen=True)
class EntanglementOptimum:
    """Maximizer of the pair-entanglement measure with its variational check."""

    c1_abs: float
    c2_abs: float
    mu_max: float
    local_expectation_max_abs: float
    variational_pass: bool

    def to_json_dict(self) -> dict:
        return {
            "c1_abs": self.c1_abs,
            "c2_abs": self.c2_abs,
            "mu_max": self.mu_max,
            "local_expectation_max_abs": self.local_expectation_max_abs,
            "variational_pass": self.variational_pass,
        }


def maximize_entanglement() -> EntanglementOptimum:
    """Maximize mu = a (1 - a^2) over a = |c1| by Newton steps on mu' = 1 - 3 a^2.

    mu' is concave and falling, so from a = 1 the iterates fall monotonically
    onto the maximizer 1/sqrt(3); they stop at the first step that does not
    decrease the iterate, at the root to rounding, where value comparisons
    would stall on the flat maximum. The optimum is cross-checked against the
    variational condition that all sixteen local generator expectations vanish.
    """
    c1 = 1.0
    while (nxt := c1 + (1.0 - 3.0 * c1 * c1) / (6.0 * c1)) < c1:
        c1 = nxt
    c2 = float(np.sqrt(1.0 - c1 * c1))
    psi1, psi2, _ = PARITY_BASIS
    max_abs = float(np.max(np.abs(local_expectations(c1 * psi1 + c2 * psi2))))
    return EntanglementOptimum(
        c1_abs=c1,
        c2_abs=c2,
        mu_max=entanglement_measure(c1, c2),
        local_expectation_max_abs=max_abs,
        variational_pass=max_abs < VARIATIONAL_TOL,
    )


#: Atomic levels in the order of the atom index, the major index of the basis.
ATOM_LEVELS = ("g", "e")

#: The 2 N_exc of |e; vac>, and of the photon pairs it radiates.
PAIR_SECTOR = 2


@dataclass(frozen=True)
class AtomFieldSpace:
    """Two-level atom tensor two counter-propagating three-mode photon families."""

    field_space: FockSpace

    @property
    def atom_dim(self) -> int:
        return len(ATOM_LEVELS)

    @property
    def dim(self) -> int:
        return self.atom_dim * self.field_space.dim

    @cached_property
    def sectors(self) -> Sectors:
        """Sectors of the conserved 2 N_exc = N_photons + 2 [atom = e]."""
        return sectors_of(np.rint(2.0 * excitation_number(self)))

    def atom_index(self, level: str) -> int:
        try:
            return ATOM_LEVELS.index(level)
        except ValueError:
            raise ValueError(f"unknown atomic level {level!r}") from None

    def state(self, level: str, field_amplitudes: np.ndarray) -> np.ndarray:
        """Amplitudes of |level> tensor the field state, atom index major."""
        amps = np.zeros((self.atom_dim, self.field_space.dim), dtype=complex)
        amps[self.atom_index(level)] = field_amplitudes
        return amps.ravel()


def atom_field_space(cutoff: int = 2) -> AtomFieldSpace:
    """The cutoff must admit the emitted pair: below 2 the pair term is zero."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 to hold a photon pair, got {cutoff}")
    field = build_space(FORWARD_MODES + BACKWARD_MODES, cutoff)
    return AtomFieldSpace(field_space=field)


def pair_field_vector(space: AtomFieldSpace, amps: np.ndarray) -> np.ndarray:
    """Embed a 3x3 pair amplitude array as one forward and one backward photon."""
    fs = space.field_space
    vec = np.zeros(fs.dim, dtype=complex)
    for i, fwd in enumerate(FORWARD_MODES):
        for j, bwd in enumerate(BACKWARD_MODES):
            occ = tuple(int(mode in (fwd, bwd)) for mode in fs.modes)
            vec[fs.index_of(occ)] = amps[i, j]
    return vec


def interaction_hamiltonian(
    space: AtomFieldSpace, omega: float, omega0: float, gamma_coupling: float
) -> OperatorMatrix:
    """Pair-emission Hamiltonian with the m1 + m2 = 0 selection rule.

    H = omega * N_photons + omega0 * |e><e|
        + gamma * (|e><g| L + |g><e| L^dagger),  L = sum_m a_m^fwd a_{-m}^bwd

    The interaction creates one photon in each family with opposite
    projections, so only the exchange-even pair combination couples to the
    excited atom. H conserves N_exc, so it is built as the blocks of
    space.sectors: the diagonal, then each term of L as one ladder-map hop from
    |g; n> to |e; n - pair> and its exact adjoint, so H is exactly hermitian.
    """
    fs = space.field_space
    g_offset, e_offset = (space.atom_index(level) * fs.dim for level in ("g", "e"))
    photons = fs.sectors.labels
    states = np.arange(space.dim)
    rows, cols = [states], [states]
    values = [np.concatenate([omega * photons + (level == "e") * omega0 for level in ATOM_LEVELS])]
    for fwd, m in zip(FORWARD_MODES, M_VALUES):
        src, dst, amplitude = _hops(fs, (), (fwd, BACKWARD_MODES[M_VALUES.index(-m)]))
        coupling = gamma_coupling * amplitude
        rows += [e_offset + dst, g_offset + src]
        cols += [g_offset + src, e_offset + dst]
        values += [coupling, coupling.conj()]
    return OperatorMatrix.from_entries(
        space, np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    )


def excitation_number(space: AtomFieldSpace) -> np.ndarray:
    """Diagonal of the conserved N_exc = |e><e| + N_photons / 2 over the basis.

    The basis is atom index major, in the order of ATOM_LEVELS; 2 N_exc is an
    integer on every state and labels the sectors of the Hamiltonian.
    """
    half = 0.5 * space.field_space.sectors.labels
    return np.concatenate([half + (level == "e") for level in ATOM_LEVELS])


@dataclass(frozen=True)
class SelectionRuleReport:
    """Numerical evidence that the exchange-odd pair state is never radiated."""

    coupling_to_odd: float
    eigen_residual: float
    eigenvalue: float
    times: tuple[float, ...]
    evolution_overlaps: tuple[float, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "coupling_to_odd": self.coupling_to_odd,
            "eigen_residual": self.eigen_residual,
            "eigenvalue": self.eigenvalue,
            "times": list(self.times),
            "evolution_overlaps": list(self.evolution_overlaps),
            "pass": self.passed,
        }


def selection_rule_check(
    h: OperatorMatrix,
    space: AtomFieldSpace,
    omega: float,
    gamma_coupling: float,
) -> SelectionRuleReport:
    """Verify the odd pair state decouples from the radiating atom.

    Checks (a) zero matrix element between |e; vac> and |g; psi3>,
    (b) |g; psi3> is an H eigenvector at 2 omega, and (c) evolution from
    |e; vac> through the eigen-decomposition of the hermitian H never develops
    overlap with |g; psi3>. Both states lie in the 2 N_exc = 2 sector, which H
    conserves, so every check runs on that one block. The decomposition reads
    one triangle of the block only, so a block that fails the entrywise
    hermiticity check raises ValueError.
    """
    sector = space.sectors.indices[PAIR_SECTOR]
    block = h.blocks[PAIR_SECTOR]
    if not is_hermitian(block):
        raise ValueError("selection_rule_check requires a hermitian h")
    odd = space.state("g", pair_field_vector(space, PARITY_BASIS[2]))[sector]
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac)[sector]

    coupling = abs(np.vdot(odd, block @ excited))
    eigen_residual = float(np.max(np.abs(block @ odd - 2.0 * omega * odd)))

    times = tuple(scale / gamma_coupling for scale in (0.1, 1.0, 10.0))
    energies, vectors = np.linalg.eigh(block)
    odd_e, excited_e = vectors.conj().T @ odd, vectors.conj().T @ excited
    overlaps = [
        float(abs(np.vdot(odd_e, np.exp(-1j * energies * t) * excited_e))) for t in times
    ]

    passed = bool(
        coupling < COUPLING_TOL
        and eigen_residual < COUPLING_TOL
        and all(v < OVERLAP_TOL for v in overlaps)
    )
    return SelectionRuleReport(
        coupling_to_odd=float(coupling),
        eigen_residual=eigen_residual,
        eigenvalue=2.0 * omega,
        times=times,
        evolution_overlaps=tuple(overlaps),
        passed=passed,
    )
