"""Photon-twin pair states, entanglement measure, and the radiation selection rule."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from photonam.angular import SU3_BLOCKS
from photonam.fock import OperatorMatrix, annihilation, commutator
from photonam.twins import (
    BACKWARD_MODES,
    FORWARD_MODES,
    M_VALUES,
    AtomFieldSpace,
    RadiatedState,
    TwoQutritState,
    atom_field_space,
    entanglement_measure,
    excitation_number,
    interaction_hamiltonian,
    local_expectations,
    maximize_entanglement,
    pair_field_vector,
    parity_basis,
    selection_rule_check,
)

INV_RT3 = 1.0 / np.sqrt(3.0)
RT23 = np.sqrt(2.0 / 3.0)
MU_MAX = 2.0 / (3.0 * np.sqrt(3.0))

JZ_BLOCK = np.diag([1.0, 0.0, -1.0])


@pytest.fixture(scope="module")
def basis():
    return parity_basis()


def test_parity_basis_orthonormal(basis):
    states = basis.states()
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            want = 1.0 if i == j else 0.0
            assert a.overlap(b) == pytest.approx(want, abs=1e-15)


def test_parity_under_photon_swap(basis):
    np.testing.assert_allclose(basis.psi1.swapped().amps, basis.psi1.amps, atol=1e-15)
    np.testing.assert_allclose(basis.psi2.swapped().amps, basis.psi2.amps, atol=1e-15)
    np.testing.assert_allclose(basis.psi3.swapped().amps, -basis.psi3.amps, atol=1e-15)


def test_total_projection_zero(basis):
    # (Jz x I + I x Jz) psi = Jz psi + psi Jz^T = 0 on the m1 + m2 = 0 subspace
    for state in basis.states():
        total = JZ_BLOCK @ state.amps + state.amps @ JZ_BLOCK.T
        assert np.max(np.abs(total)) == 0.0


def test_two_qutrit_validation():
    with pytest.raises(ValueError):
        TwoQutritState(np.ones((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        TwoQutritState(np.zeros((2, 2), dtype=complex))


def test_radiated_state_validation():
    with pytest.raises(ValueError):
        RadiatedState(1.0, 1.0)
    state = RadiatedState(INV_RT3, RT23)
    amps = state.to_two_qutrit().amps
    assert amps[1, 1] == pytest.approx(INV_RT3)
    assert amps[0, 2] == pytest.approx(RT23 / np.sqrt(2.0))
    assert amps[2, 0] == pytest.approx(RT23 / np.sqrt(2.0))


def test_measure_endpoints_and_maximum_value():
    assert entanglement_measure(RadiatedState(1.0, 0.0)) == 0.0
    assert entanglement_measure(RadiatedState(0.0, 1.0)) == 0.0
    assert entanglement_measure(RadiatedState(INV_RT3, RT23)) == pytest.approx(
        0.3849001794597505, abs=1e-15
    )


def test_measure_phase_invariance():
    base = entanglement_measure(RadiatedState(INV_RT3, RT23))
    rotated = RadiatedState(INV_RT3 * np.exp(1j * 0.7), RT23 * np.exp(-1j * 1.3))
    assert entanglement_measure(rotated) == pytest.approx(base, abs=1e-15)


def kron_expectations(state: TwoQutritState) -> np.ndarray:
    """Independent tensor-product route to the sixteen local expectations."""
    vec = state.amps.reshape(9)
    eye = np.eye(3)
    values = []
    for block in SU3_BLOCKS.all_generators():
        values.append(np.vdot(vec, np.kron(block, eye) @ vec).real)
    for block in SU3_BLOCKS.all_generators():
        values.append(np.vdot(vec, np.kron(eye, block) @ vec).real)
    return np.array(values)


def test_local_expectations_against_kron_oracle(basis):
    states = [
        basis.psi1,
        basis.psi2,
        basis.psi3,
        RadiatedState(0.8, 0.6).to_two_qutrit(),
        RadiatedState(INV_RT3, RT23).to_two_qutrit(),
    ]
    for state in states:
        np.testing.assert_allclose(
            local_expectations(state), kron_expectations(state), atol=1e-14
        )


def test_local_expectations_on_odd_state(basis):
    # reduced density diag(1/2, 0, 1/2) per photon: the occupation-difference
    # generators read +-1/2, every off-diagonal generator reads 0
    values = local_expectations(basis.psi3)
    expected = np.array([0.5, -0.5, 0, 0, 0, 0, 0, 0] * 2)
    np.testing.assert_allclose(values, expected, atol=1e-14)


def test_local_expectations_on_product_state(basis):
    values = local_expectations(basis.psi1)
    assert 1.0 in np.round(values, 12).tolist()
    assert -1.0 in np.round(values, 12).tolist()


def test_local_expectations_vanish_at_optimum():
    state = RadiatedState(INV_RT3, RT23).to_two_qutrit()
    assert np.max(np.abs(local_expectations(state))) < 1e-12


def test_maximize_entanglement_targets():
    result = maximize_entanglement()
    assert result.c1_abs == pytest.approx(INV_RT3, abs=1e-9)
    assert result.c2_abs == pytest.approx(RT23, abs=1e-9)
    assert result.mu_max == pytest.approx(MU_MAX, abs=1e-10)
    assert result.local_expectation_max_abs < 1e-8
    assert result.variational_pass


def test_variational_condition_unique_and_matches_optimum():
    def occupation_balance(a: float) -> float:
        state = RadiatedState(a, np.sqrt(1.0 - a * a)).to_two_qutrit()
        return local_expectations(state)[0]

    grid = np.linspace(1e-3, 1.0 - 1e-3, 200)
    values = np.array([occupation_balance(a) for a in grid])
    assert np.all(np.diff(values) < 0.0)  # strictly monotone: a unique root
    from scipy.optimize import brentq

    root = brentq(occupation_balance, 0.1, 0.9, xtol=1e-12)
    assert root == pytest.approx(maximize_entanglement().c1_abs, abs=1e-8)


def test_json_report_schema():
    payload = maximize_entanglement().to_json_dict()
    assert set(payload) == {
        "c1_abs",
        "c2_abs",
        "mu_max",
        "local_expectation_max_abs",
        "variational_pass",
    }


# ---------------------------------------------------------------- hamiltonian


@pytest.fixture(scope="module")
def space():
    return atom_field_space()


@pytest.fixture(scope="module")
def hamiltonian(space):
    return interaction_hamiltonian(space, omega=1.0, omega0=2.0, gamma_coupling=0.05)


def test_atom_field_dimension(space):
    # 6 modes, at most 2 photons in total, times the two atomic levels
    count = sum(
        1
        for occ in itertools.product(range(3), repeat=6)
        if sum(occ) <= 2
    )
    assert count == 28
    assert space.dim == 2 * count


def test_hamiltonian_is_hermitian(hamiltonian):
    # exactly: the (g, e) block is the adjoint of the (e, g) block, not a sum near it
    assert hamiltonian.is_hermitian(0.0)


def test_atom_field_space_needs_a_pair():
    for cutoff in (-1, 0, 1):
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            atom_field_space(cutoff)
    assert atom_field_space(2).field_space.cutoff == 2


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    cutoff=st.integers(2, 5),
    omega=st.floats(0.01, 10.0),
    omega0=st.floats(0.01, 10.0),
    gamma=st.floats(0.001, 1.0),
)
def test_hamiltonian_blocks_are_exact(cutoff, omega, omega0, gamma):
    space = atom_field_space(cutoff)
    h = interaction_hamiltonian(space, omega, omega0, gamma)
    assert h.is_hermitian(0.0)
    assert commutator(h, excitation_number(space)).max_abs() == 0.0
    # independent route to the (e, g) pair block: products of per-state ladder matrices
    fs = space.field_space
    pair = sum(
        annihilation(fs, fwd).matrix
        @ annihilation(fs, BACKWARD_MODES[M_VALUES.index(-m)]).matrix
        for fwd, m in zip(FORWARD_MODES, M_VALUES)
    )
    e, g = space.atom_index("e"), space.atom_index("g")
    block = h.matrix.reshape(2, fs.dim, 2, fs.dim)[e, :, g, :]
    assert np.array_equal(block, gamma * pair)


def test_interaction_couples_even_states_only(space, hamiltonian, basis):
    gamma = 0.05
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac).amplitudes
    for state, expected in ((basis.psi1, gamma), (basis.psi2, gamma * np.sqrt(2.0)),
                            (basis.psi3, 0.0)):
        bra = space.state("g", pair_field_vector(space, state)).amplitudes
        amplitude = np.vdot(bra, hamiltonian.matrix @ excited)
        assert abs(amplitude) == pytest.approx(expected, abs=1e-13)


def test_excitation_number_conserved():
    space = atom_field_space(3)
    hamiltonian = interaction_hamiltonian(space, omega=1.0, omega0=2.0, gamma_coupling=0.05)
    n_exc = excitation_number(space)
    # the sector label 2 N_exc is an exact integer, so H commutes with N_exc exactly
    twice = 2.0 * np.diag(n_exc.matrix)
    assert np.array_equal(twice, np.round(twice.real))
    assert commutator(hamiltonian, n_exc).max_abs() == 0.0


def test_selection_rule_report(space, hamiltonian):
    report = selection_rule_check(hamiltonian, space, omega=1.0, gamma_coupling=0.05)
    assert report.coupling_to_odd < 1e-12
    assert report.eigen_residual < 1e-12
    assert report.eigenvalue == 2.0
    assert all(v < 1e-10 for v in report.evolution_overlaps)
    assert report.passed
    payload = report.to_json_dict()
    assert payload["pass"] is True
    assert len(payload["evolution_overlaps"]) == 3
    # a hermitian perturbation coupling |e; vac> to |g; psi3> radiates the odd
    # state, and the failing report is plain JSON too
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac).amplitudes
    odd = space.state("g", pair_field_vector(space, parity_basis().psi3)).amplitudes
    leak = 1e-3 * (np.outer(odd, excited.conj()) + np.outer(excited, odd.conj()))
    leaky = OperatorMatrix(space, hamiltonian.matrix + leak)
    failed = selection_rule_check(leaky, space, omega=1.0, gamma_coupling=0.05)
    assert failed.coupling_to_odd == pytest.approx(1e-3, rel=1e-12)
    assert max(failed.evolution_overlaps) > 1e-4
    assert json.loads(json.dumps(failed.to_json_dict()))["pass"] is False


def test_selection_rule_check_rejects_non_hermitian(space, hamiltonian):
    # eigh would read only one triangle of a non-hermitian h and report on another operator
    skewed = hamiltonian.matrix.copy()
    skewed[0, 1] += 1e-3
    with pytest.raises(ValueError, match="hermitian"):
        selection_rule_check(OperatorMatrix(space, skewed), space, omega=1.0, gamma_coupling=0.05)


def test_evolution_actually_radiates(space, hamiltonian, basis):
    # sanity of the dynamics: resonant pair emission moves population out of
    # the excited state and into the even pair sector, never the odd one
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac).amplitudes
    t = 1.0 / 0.05
    evolved = expm(-1j * hamiltonian.matrix * t) @ excited
    survival = abs(np.vdot(excited, evolved)) ** 2
    assert survival < 0.999
    even = space.state("g", pair_field_vector(space, basis.psi2)).amplitudes
    assert abs(np.vdot(even, evolved)) > 1e-3
