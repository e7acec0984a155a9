"""Photon twins from a quadrupole-degenerate (j=2 to j=0) transition.

The two emitted photons counter-propagate and are modeled as two
distinguishable three-mode families. Total projection conservation confines
the pair to the m1 + m2 = 0 subspace, spanned by two exchange-even states
and one exchange-odd state; the pair-creation interaction couples only to
the even combination, so the odd state is never radiated. Entanglement of
the radiated state is measured by mu = |c1| |c2|^2 over the even pair, and
its maximum coincides with all sixteen local SU(3) generator expectations
vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .angular import AM_MODES, SU3_BLOCKS
from .fock import (
    FockSpace,
    ModeLabel,
    OperatorMatrix,
    StateVector,
    _hops,
    build_space,
    total_number_operator,
)

#: Projection order shared by all 3x3 amplitude blocks.
M_VALUES = (1, 0, -1)

FORWARD_MODES = tuple(ModeLabel(m.name, "fwd") for m in AM_MODES)
BACKWARD_MODES = tuple(ModeLabel(m.name, "bwd") for m in AM_MODES)

NORM_TOL = 1e-12
VARIATIONAL_TOL = 1e-8
#: Bounds on the odd-state coupling and eigen-residual, and on its evolved overlap.
COUPLING_TOL = 1e-12
OVERLAP_TOL = 1e-10

#: |c1| grid whose argmax of mu seeds the Newton steps, 1e-4 apart.
_C1_GRID = np.linspace(0.0, 1.0, 10001)


@dataclass(frozen=True)
class TwoQutritState:
    """3x3 complex amplitudes over |1_{m1}; 1_{m2}>, unit Frobenius norm."""

    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (3, 3):
            raise ValueError(f"amplitude array must be 3x3, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} differs from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def overlap(self, other: "TwoQutritState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def swapped(self) -> "TwoQutritState":
        """Exchange the two photons."""
        return TwoQutritState(self.amps.T.copy())


def _pair_state(entries: dict[tuple[int, int], complex]) -> TwoQutritState:
    amps = np.zeros((3, 3), dtype=complex)
    for (m1, m2), value in entries.items():
        amps[M_VALUES.index(m1), M_VALUES.index(m2)] = value
    return TwoQutritState(amps)


@dataclass(frozen=True)
class ParityBasis:
    """Exchange-even pair states (psi1, psi2) and the exchange-odd one (psi3)."""

    psi1: TwoQutritState
    psi2: TwoQutritState
    psi3: TwoQutritState

    def states(self) -> tuple[TwoQutritState, TwoQutritState, TwoQutritState]:
        return (self.psi1, self.psi2, self.psi3)


def parity_basis() -> ParityBasis:
    inv_rt2 = 1.0 / np.sqrt(2.0)
    return ParityBasis(
        psi1=_pair_state({(0, 0): 1.0}),
        psi2=_pair_state({(1, -1): inv_rt2, (-1, 1): inv_rt2}),
        psi3=_pair_state({(1, -1): inv_rt2, (-1, 1): -inv_rt2}),
    )


@dataclass(frozen=True)
class RadiatedState:
    """Coefficients over the even pair states, |c1|^2 + |c2|^2 = 1."""

    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        total = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"|c1|^2 + |c2|^2 = {total} differs from 1 beyond {NORM_TOL}")

    def to_two_qutrit(self) -> TwoQutritState:
        basis = parity_basis()
        return TwoQutritState(self.c1 * basis.psi1.amps + self.c2 * basis.psi2.amps)


def entanglement_measure(state: RadiatedState) -> float:
    """mu = |c1| |c2|^2; zero on both product-state endpoints."""
    return abs(state.c1) * abs(state.c2) ** 2


def local_expectations(state: TwoQutritState) -> np.ndarray:
    """Sixteen generator expectations: eight on photon 1, then eight on photon 2."""
    psi = state.amps
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
    """Maximize mu = a (1 - a^2) over a = |c1| by a grid scan and Newton steps.

    The grid argmax lies within 1e-4 of the maximizer 1/sqrt(3); two Newton
    steps on the derivative 1 - 3 a^2 then reach it to rounding, where value
    comparisons would stall on the flat maximum. The optimum is cross-checked
    against the variational condition that all sixteen local generator
    expectations vanish.
    """
    a_star = _C1_GRID[np.argmax(_C1_GRID * (1.0 - _C1_GRID * _C1_GRID))]
    for _ in range(2):
        a_star += (1.0 - 3.0 * a_star * a_star) / (6.0 * a_star)
    c1 = float(a_star)
    c2 = float(np.sqrt(1.0 - c1 * c1))
    state = RadiatedState(c1, c2)
    max_abs = float(np.max(np.abs(local_expectations(state.to_two_qutrit()))))
    return EntanglementOptimum(
        c1_abs=c1,
        c2_abs=c2,
        mu_max=entanglement_measure(state),
        local_expectation_max_abs=max_abs,
        variational_pass=max_abs < VARIATIONAL_TOL,
    )


ATOM_LEVELS = ("g", "e")


@dataclass(frozen=True)
class AtomFieldSpace:
    """Two-level atom tensor two counter-propagating three-mode photon families."""

    field_space: FockSpace
    atom_levels: tuple[str, str] = ATOM_LEVELS

    @property
    def atom_dim(self) -> int:
        return len(self.atom_levels)

    @property
    def dim(self) -> int:
        return self.atom_dim * self.field_space.dim

    def atom_index(self, level: str) -> int:
        try:
            return self.atom_levels.index(level)
        except ValueError:
            raise ValueError(f"unknown atomic level {level!r}") from None

    def state(self, level: str, field_amplitudes: np.ndarray) -> StateVector:
        amps = np.zeros((self.atom_dim, self.field_space.dim), dtype=complex)
        amps[self.atom_index(level)] = field_amplitudes
        return StateVector(self, amps.ravel())


def atom_field_space(cutoff: int = 2) -> AtomFieldSpace:
    """The cutoff must admit the emitted pair: below 2 the pair term is zero."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 to hold a photon pair, got {cutoff}")
    field = build_space(FORWARD_MODES + BACKWARD_MODES, cutoff)
    return AtomFieldSpace(field_space=field)


def pair_field_vector(space: AtomFieldSpace, state: TwoQutritState) -> np.ndarray:
    """Embed a two-qutrit amplitude block as one forward and one backward photon."""
    fs = space.field_space
    vec = np.zeros(fs.dim, dtype=complex)
    for i, fwd in enumerate(FORWARD_MODES):
        for j, bwd in enumerate(BACKWARD_MODES):
            occ = tuple(int(mode in (fwd, bwd)) for mode in fs.modes)
            vec[fs.index_of(occ)] = state.amps[i, j]
    return vec


def interaction_hamiltonian(
    space: AtomFieldSpace, omega: float, omega0: float, gamma_coupling: float
) -> OperatorMatrix:
    """Pair-emission Hamiltonian with the m1 + m2 = 0 selection rule.

    H = omega * N_photons + omega0 * |e><e|
        + gamma * (|e><g| L + |g><e| L^dagger),  L = sum_m a_m^fwd a_{-m}^bwd

    The interaction creates one photon in each family with opposite
    projections, so only the exchange-even pair combination couples to the
    excited atom. H is 2x2 atom blocks in the order (g, e); each term of L is
    one ladder-map hop and L^dagger its exact adjoint, so H is exactly hermitian.
    """
    fs = space.field_space
    lower = np.zeros((fs.dim, fs.dim), dtype=complex)
    for fwd, m in zip(FORWARD_MODES, M_VALUES):
        src, dst, amplitude = _hops(fs, (), (fwd, BACKWARD_MODES[M_VALUES.index(-m)]))
        lower[dst, src] = amplitude
    field_energy = omega * total_number_operator(fs).matrix
    h = np.block([
        [field_energy, gamma_coupling * lower.conj().T],
        [gamma_coupling * lower, field_energy + omega0 * np.eye(fs.dim)],
    ])
    return OperatorMatrix(space, h)


def excitation_number(space: AtomFieldSpace) -> OperatorMatrix:
    """Conserved N_exc = |e><e| + N_photons / 2, as 2x2 atom blocks in the order (g, e)."""
    fs = space.field_space
    half = 0.5 * total_number_operator(fs).matrix
    zero = np.zeros_like(half)
    return OperatorMatrix(space, np.block([[half, zero], [zero, half + np.eye(fs.dim)]]))


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
    overlap with |g; psi3>. The decomposition reads one triangle of H only,
    so an H that fails the entrywise hermiticity check raises ValueError.
    """
    if not h.is_hermitian():
        raise ValueError("selection_rule_check requires a hermitian h")
    odd = space.state("g", pair_field_vector(space, parity_basis().psi3)).amplitudes
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac).amplitudes

    coupling = abs(np.vdot(odd, h.matrix @ excited))
    eigen_residual = float(np.max(np.abs(h.matrix @ odd - 2.0 * omega * odd)))

    times = tuple(scale / gamma_coupling for scale in (0.1, 1.0, 10.0))
    energies, vectors = np.linalg.eigh(h.matrix)
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
