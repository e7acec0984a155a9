"""Photon twins from a quadrupole-degenerate (j=2 to j=0) transition.

The two emitted photons counter-propagate and are modeled as two
distinguishable three-mode families. The atom radiates through the pair
operator L = sum_ab C[a, b] a_{m_a}^fwd a_{m_b}^bwd, whose coupling array C
(`PAIR_COUPLING`) is one where m_a + m_b = 0: total projection conservation.
That subspace is spanned by two exchange-even states and one exchange-odd
state; C is exchange-even, so the odd state is never radiated. The
Hamiltonian conserves the excitation number N_exc = |e><e| + N_photons / 2,
so it is stored as one block per value of 2 N_exc. In the 2 N_exc = 2 sector
|e; vac> couples to one state only, |g; L^dagger vac>, so the radiated pair is
C* / ||C|| at every time and detuning; the selection rule is checked there.
Entanglement is measured by mu = |c1| |c2|^2 over the even pair, and the
radiated pair sits at its maximum, where all sixteen local SU(3) generator
expectations vanish.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .angular import M_VALUES, SU3_BLOCKS, SU3_INDEPENDENT
from .fock import (
    FockSpace,
    OperatorMatrix,
    Sectors,
    _hops,
    build_space,
    is_hermitian,
    sectors_of,
)
from .output import Check, integer, real

#: The twins' modes, each labelled by its projection m and propagation direction.
FORWARD_MODES = tuple((m, "fwd") for m in M_VALUES)
BACKWARD_MODES = tuple((m, "bwd") for m in M_VALUES)

#: Bound on the local SU(3) expectations of the radiated pair (variational_pass)
#: and, in verify-all's entanglement_maximum, on the deviations of its |c1|, |c2|
#: and mu from their closed forms at the maximum. All four read 0.0.
OPTIMUM_TOL = 1e-14
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


#: C of the pair operator L = sum_ab C[a, b] a_{m_a}^fwd a_{m_b}^bwd: read-only,
#: rows m_a and columns m_b in M_VALUES order, one where m_a + m_b = 0. The
#: Hamiltonian's pair terms and the radiated pair L^dagger |vac> are read from it.
PAIR_COUPLING = _pair_state({(m, -m): 1.0 for m in M_VALUES})


#: The eight independent SU(3) single-photon blocks that local_expectations contracts.
_SU3_INDEPENDENT_BLOCKS = SU3_BLOCKS[list(SU3_INDEPENDENT)]


def entanglement_measure(c1: complex, c2: complex) -> float:
    """mu = |c1| |c2|^2 of c1 psi1 + c2 psi2; zero on both product-state endpoints."""
    return abs(c1) * abs(c2) ** 2


def local_expectations(psi: np.ndarray) -> np.ndarray:
    """Sixteen generator expectations of the 3x3 pair state psi.

    Eight on photon 1, <psi| G (x) 1 |psi>, then eight on photon 2, <psi| 1 (x) G |psi>.
    """
    photons = np.stack([psi, psi.T])
    return np.einsum("pia,kij,pja->pk", photons.conj(), _SU3_INDEPENDENT_BLOCKS, photons).real.ravel()


@dataclass(frozen=True)
class EntanglementOptimum:
    """The radiated pair's |c1|, |c2|, mu and variational check; they lead the entangle report."""

    c1_abs: float
    c2_abs: float
    mu_max: float
    local_expectation_max_abs: float
    variational_pass: bool


def maximize_entanglement() -> EntanglementOptimum:
    """The radiated pair L^dagger |vac> / ||C|| = C* / ||C|| as c1 psi1 + c2 psi2.

    mu = a (1 - a^2) of a = |c1| is largest at a = 1/sqrt(3), which
    entanglement_maximum holds c1 to; there all sixteen local generator
    expectations vanish, the variational condition checked here.
    """
    pair = PAIR_COUPLING.conj() / np.linalg.norm(PAIR_COUPLING)
    c1, c2 = (float(abs(np.vdot(state, pair))) for state in PARITY_BASIS[:2])
    max_abs = float(np.max(np.abs(local_expectations(pair))))
    return EntanglementOptimum(c1, c2, entanglement_measure(c1, c2), max_abs, max_abs < OPTIMUM_TOL)


def entanglement_maximum(optimum: EntanglementOptimum) -> Check:
    """|c1|, |c2|, mu and the local SU(3) expectations at 1/sqrt(3), sqrt(2/3), 2/(3 sqrt(3)), 0."""
    values = dict(list(asdict(optimum).items())[:4])
    exact = (1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0), 2.0 / (3.0 * np.sqrt(3.0)), 0.0)
    passed = all(abs(v - w) < OPTIMUM_TOL for v, w in zip(values.values(), exact))
    return Check("entanglement_maximum", passed, OPTIMUM_TOL, values)


#: Atomic levels in the order of the atom index, the major index of the basis.
ATOM_LEVELS = ("g", "e")

#: The 2 N_exc of |e; vac>, and of the photon pairs it radiates.
PAIR_SECTOR = 2


@dataclass(frozen=True)
class AtomFieldSpace:
    """Two-level atom tensor two three-mode photon families, atom index major as ATOM_LEVELS."""

    field_space: FockSpace

    @property
    def dim(self) -> int:
        return len(ATOM_LEVELS) * self.field_space.dim

    @cached_property
    def sectors(self) -> Sectors:
        """Sectors of the conserved integer 2 N_exc = N_photons + 2 [atom = e]."""
        photons = self.field_space.sectors.labels
        return sectors_of(np.concatenate([photons + 2 * (level == "e") for level in ATOM_LEVELS]))

    def atom_index(self, level: str) -> int:
        try:
            return ATOM_LEVELS.index(level)
        except ValueError:
            raise ValueError(f"unknown atomic level {level!r}") from None

    def state(self, level: str, field_amplitudes: np.ndarray) -> np.ndarray:
        """Amplitudes of |level> tensor the field state, atom index major."""
        amps = np.zeros((len(ATOM_LEVELS), self.field_space.dim), dtype=complex)
        amps[self.atom_index(level)] = field_amplitudes
        return amps.ravel()


def atom_field_space(cutoff: int = 2) -> AtomFieldSpace:
    """The cutoff must admit the emitted pair: below 2 the pair term is zero."""
    if integer(cutoff, "cutoff") < 2:
        raise ValueError(f"cutoff must be >= 2 to hold a photon pair, got {cutoff}")
    field = build_space(FORWARD_MODES + BACKWARD_MODES, cutoff)
    return AtomFieldSpace(field_space=field)


def pair_field_vector(space: AtomFieldSpace, amps: np.ndarray) -> np.ndarray:
    """Embed a 3x3 pair amplitude array as one forward and one backward photon."""
    fs = space.field_space
    units = np.eye(len(fs.modes), dtype=np.intp)
    fwd = units[[fs.mode_position(m) for m in FORWARD_MODES]]
    bwd = units[[fs.mode_position(m) for m in BACKWARD_MODES]]
    vec = np.zeros(fs.dim, dtype=complex)
    # row (a, b) of the nine occupations is |1_{m_a} fwd, 1_{m_b} bwd>
    vec[fs.index_of((fwd[:, None] + bwd[None, :]).reshape(9, -1)).reshape(3, 3)] = amps
    return vec


def interaction_hamiltonian(
    space: AtomFieldSpace, omega: float, omega0: float, gamma_coupling: float
) -> OperatorMatrix:
    """Pair-emission Hamiltonian with the m1 + m2 = 0 selection rule.

    H = omega * N_photons + omega0 * |e><e|
        + gamma * (|e><g| L + |g><e| L^dagger),  L = sum_ab C[a, b] a_{m_a}^fwd a_{m_b}^bwd

    with C = PAIR_COUPLING. The interaction creates one photon in each family
    with opposite projections, so only the exchange-even pair combination
    couples to the excited atom. H conserves N_exc, so it is built as the blocks
    of space.sectors: the diagonal, then the terms of L, one per nonzero entry
    of C, in one ladder-map call, hops |g; n> to |e; n - pair>, and their exact
    adjoints: H is exactly hermitian. A non-finite omega, omega0 or gamma, or
    one that makes an entry overflow, raises ValueError.
    """
    # Python floats: numpy cannot take an int past int64 in omega * photons
    omega, omega0 = real(omega, "omega"), real(omega0, "omega0")
    gamma_coupling = real(gamma_coupling, "gamma_coupling")
    fs = space.field_space
    g_offset, e_offset = (space.atom_index(level) * fs.dim for level in ("g", "e"))
    photons = fs.sectors.labels
    states = np.arange(space.dim)
    fwd, bwd = np.nonzero(PAIR_COUPLING)
    positions = np.array([[fs.mode_position(m) for m in family]
                          for family in (FORWARD_MODES, BACKWARD_MODES)])
    lowered = np.stack([positions[0, fwd], positions[1, bwd]], axis=1)
    term, src, dst, amplitude = _hops(fs, np.empty((len(fwd), 0), dtype=np.intp), lowered)
    # the largest entries in Python floats, whose overflow is inf without a warning:
    # omega N + omega0 at the cutoff's N, and gamma times the largest pair amplitude
    largest = (omega * fs.cutoff + omega0, gamma_coupling * float(amplitude.max(initial=0.0)))
    if not all(-np.inf < value < np.inf for value in largest):
        raise ValueError(
            "omega N + omega0 at the cutoff's N and gamma_coupling times each pair amplitude must "
            f"be finite, got omega={omega}, omega0={omega0}, gamma_coupling={gamma_coupling}"
        )
    coupling = gamma_coupling * PAIR_COUPLING[fwd[term], bwd[term]] * amplitude
    diagonal = np.concatenate([omega * photons + (level == "e") * omega0 for level in ATOM_LEVELS])
    return OperatorMatrix.from_entries(
        space,
        np.concatenate([states, e_offset + dst, g_offset + src]),
        np.concatenate([states, g_offset + src, e_offset + dst]),
        np.concatenate([diagonal, coupling, coupling.conj()]),
    )


@dataclass(frozen=True)
class SelectionRuleReport:
    """Evidence that the odd pair state is never radiated: entangle's "selection_rule"."""

    coupling_to_odd: float
    eigen_residual: float
    eigenvalue: float
    times: tuple[float, ...]
    evolution_overlaps: tuple[float, ...]
    passed: bool


def selection_rule_check(
    h: OperatorMatrix, space: AtomFieldSpace, omega: float, gamma_coupling: float
) -> SelectionRuleReport:
    """Verify the odd pair state decouples from the radiating atom.

    Checks (a) zero matrix element between |e; vac> and |g; psi3>,
    (b) |g; psi3> is an H eigenvector at 2 omega, and (c) evolution from
    |e; vac> through the eigen-decomposition of the hermitian H never develops
    overlap with |g; psi3>. Both states lie in the 2 N_exc = 2 sector, which H
    conserves, so every check runs on that one block. Its |g; n> hold two
    photons each, so (c) decomposes the block less 2 omega, a global phase
    that keeps the overlap's rounding from growing with omega t. eigh reads
    one triangle of the block only, so a block that fails the entrywise
    hermiticity check raises ValueError, as do a non-finite omega and a gamma
    that is not finite and > 0 or whose largest phase, max|E| * 10 / gamma over
    the block's energies E less 2 omega, overflows.
    """
    omega = real(omega, "omega")
    gamma_coupling = real(gamma_coupling, "gamma_coupling", positive=True)
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

    energies, vectors = np.linalg.eigh(block - 2.0 * omega * np.eye(len(block)))
    # the largest phase, max|E| times the longest time, in Python floats, whose
    # overflow is inf without a warning
    if not float(np.max(np.abs(energies))) * (10.0 / gamma_coupling) < np.inf:
        raise ValueError(
            f"gamma_coupling must be finite and > 0, and max|E| * 10 / gamma_coupling "
            f"finite, got {gamma_coupling}"
        )
    times = tuple(scale / gamma_coupling for scale in (0.1, 1.0, 10.0))
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


def selection_rule(rule: SelectionRuleReport) -> Check:
    """The readings of selection_rule_check in brief, each with its bound."""
    names = ("coupling_to_odd", "eigen_residual", "max_evolution_overlap")
    values = (rule.coupling_to_odd, rule.eigen_residual, max(rule.evolution_overlaps))
    bound = dict(zip(names, (COUPLING_TOL, COUPLING_TOL, OVERLAP_TOL)))
    return Check("selection_rule", rule.passed, bound, dict(zip(names, values)))
