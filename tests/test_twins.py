"""Photon-twin pair states, entanglement measure, and the radiation selection rule."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from photonam.angular import SU3_BLOCKS
from ladder import DenseOperator, annihilation, commutator, dense
from photonam.fock import OperatorMatrix
from photonam.twins import (
    BACKWARD_MODES,
    FORWARD_MODES,
    M_VALUES,
    PARITY_BASIS,
    AtomFieldSpace,
    atom_field_space,
    entanglement_measure,
    excitation_number,
    interaction_hamiltonian,
    local_expectations,
    maximize_entanglement,
    pair_field_vector,
    selection_rule_check,
)

INV_RT3 = 1.0 / np.sqrt(3.0)
RT23 = np.sqrt(2.0 / 3.0)
MU_MAX = 2.0 / (3.0 * np.sqrt(3.0))

JZ_BLOCK = np.diag([1.0, 0.0, -1.0])


PSI1, PSI2, PSI3 = PARITY_BASIS


def radiated(c1: complex, c2: complex) -> np.ndarray:
    return c1 * PSI1 + c2 * PSI2


def test_parity_basis_orthonormal():
    for i, a in enumerate(PARITY_BASIS):
        for j, b in enumerate(PARITY_BASIS):
            want = 1.0 if i == j else 0.0
            assert np.vdot(a, b) == pytest.approx(want, abs=1e-15)


def test_parity_basis_is_read_only():
    for state in PARITY_BASIS:
        assert state.shape == (3, 3) and state.dtype == complex
        with pytest.raises(ValueError):
            state[0, 0] = 1.0


def test_parity_under_photon_swap():
    np.testing.assert_allclose(PSI1.T, PSI1, atol=1e-15)
    np.testing.assert_allclose(PSI2.T, PSI2, atol=1e-15)
    np.testing.assert_allclose(PSI3.T, -PSI3, atol=1e-15)


def test_total_projection_zero():
    # (Jz x I + I x Jz) psi = Jz psi + psi Jz^T = 0 on the m1 + m2 = 0 subspace
    for state in PARITY_BASIS:
        total = JZ_BLOCK @ state + state @ JZ_BLOCK.T
        assert np.max(np.abs(total)) == 0.0


def test_radiated_state_entries():
    # the optimum c1 psi1 + c2 psi2 has unit norm and the m1 + m2 = 0 entries
    amps = radiated(INV_RT3, RT23)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-15)
    assert amps[1, 1] == pytest.approx(INV_RT3)
    assert amps[0, 2] == pytest.approx(RT23 / np.sqrt(2.0))
    assert amps[2, 0] == pytest.approx(RT23 / np.sqrt(2.0))


def test_measure_endpoints_and_maximum_value():
    assert entanglement_measure(1.0, 0.0) == 0.0
    assert entanglement_measure(0.0, 1.0) == 0.0
    assert entanglement_measure(INV_RT3, RT23) == pytest.approx(0.3849001794597505, abs=1e-15)


def test_measure_phase_invariance():
    base = entanglement_measure(INV_RT3, RT23)
    rotated = entanglement_measure(INV_RT3 * np.exp(1j * 0.7), RT23 * np.exp(-1j * 1.3))
    assert rotated == pytest.approx(base, abs=1e-15)


def kron_expectations(psi: np.ndarray) -> np.ndarray:
    """Independent tensor-product route to the sixteen local expectations."""
    vec = psi.reshape(9)
    eye = np.eye(3)
    values = []
    for block in SU3_BLOCKS.all_generators():
        values.append(np.vdot(vec, np.kron(block, eye) @ vec).real)
    for block in SU3_BLOCKS.all_generators():
        values.append(np.vdot(vec, np.kron(eye, block) @ vec).real)
    return np.array(values)


_unit_interval = st.floats(-1.0, 1.0, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(parts=st.lists(_unit_interval, min_size=18, max_size=18).filter(
    lambda xs: np.linalg.norm(xs) > 1e-3))
def test_local_expectations_against_kron_oracle(parts):
    # the parity basis, two radiated states, and any unit-norm 3x3 pair state,
    # entangled or not, inside m1 + m2 = 0 or not
    drawn = (np.array(parts[:9]) + 1j * np.array(parts[9:])).reshape(3, 3)
    drawn /= np.linalg.norm(drawn)
    for state in (PSI1, PSI2, PSI3, radiated(0.8, 0.6), radiated(INV_RT3, RT23), drawn):
        np.testing.assert_allclose(
            local_expectations(state), kron_expectations(state), atol=1e-14
        )


def test_local_expectations_on_odd_state():
    # reduced density diag(1/2, 0, 1/2) per photon: the occupation-difference
    # generators read +-1/2, every off-diagonal generator reads 0
    values = local_expectations(PSI3)
    expected = np.array([0.5, -0.5, 0, 0, 0, 0, 0, 0] * 2)
    np.testing.assert_allclose(values, expected, atol=1e-14)


def test_local_expectations_on_product_state():
    values = local_expectations(PSI1)
    assert 1.0 in np.round(values, 12).tolist()
    assert -1.0 in np.round(values, 12).tolist()


def test_local_expectations_vanish_at_optimum():
    assert np.max(np.abs(local_expectations(radiated(INV_RT3, RT23)))) < 1e-12


def test_maximize_entanglement_targets():
    result = maximize_entanglement()
    assert result.c1_abs == pytest.approx(INV_RT3, abs=1e-9)
    assert result.c2_abs == pytest.approx(RT23, abs=1e-9)
    # c2 = sqrt(1 - c1^2): the radiated state c1 psi1 + c2 psi2 has unit norm
    assert result.c1_abs**2 + result.c2_abs**2 == pytest.approx(1.0, abs=1e-15)
    assert result.mu_max == pytest.approx(MU_MAX, abs=1e-10)
    assert result.local_expectation_max_abs < 1e-8
    assert result.variational_pass


def test_variational_condition_unique_and_matches_optimum():
    def occupation_balance(a: float) -> float:
        return local_expectations(radiated(a, np.sqrt(1.0 - a * a)))[0]

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
    n_exc = DenseOperator(space, np.diag(excitation_number(space)))
    assert commutator(dense(h), n_exc).max_abs() == 0.0
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


def test_interaction_couples_even_states_only(space, hamiltonian):
    gamma = 0.05
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac)
    for state, expected in ((PSI1, gamma), (PSI2, gamma * np.sqrt(2.0)), (PSI3, 0.0)):
        bra = space.state("g", pair_field_vector(space, state))
        amplitude = np.vdot(bra, hamiltonian.matrix @ excited)
        assert abs(amplitude) == pytest.approx(expected, abs=1e-13)


def test_excitation_number_conserved():
    space = atom_field_space(3)
    hamiltonian = interaction_hamiltonian(space, omega=1.0, omega0=2.0, gamma_coupling=0.05)
    n_exc = excitation_number(space)
    # the sector label 2 N_exc is an exact integer, so H commutes with N_exc exactly
    twice = 2.0 * n_exc
    assert np.array_equal(twice, np.round(twice))
    assert np.array_equal(space.sectors.labels, twice)
    assert commutator(dense(hamiltonian), DenseOperator(space, np.diag(n_exc))).max_abs() == 0.0
    # the selection rule's sector, 2 N_exc = 2: |e; vac> and the 21 two-photon |g; n>
    assert space.dim == 168
    assert space.sectors.sizes[2] == 22


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
    excited = space.state("e", vac)
    odd = space.state("g", pair_field_vector(space, PSI3))
    leak = 1e-3 * (np.outer(odd, excited.conj()) + np.outer(excited, odd.conj()))
    leaky = OperatorMatrix.from_dense(space, hamiltonian.matrix + leak)
    failed = selection_rule_check(leaky, space, omega=1.0, gamma_coupling=0.05)
    assert failed.coupling_to_odd == pytest.approx(1e-3, rel=1e-12)
    assert max(failed.evolution_overlaps) > 1e-4
    assert json.loads(json.dumps(failed.to_json_dict()))["pass"] is False


def test_selection_rule_check_rejects_non_hermitian(space, hamiltonian):
    # eigh would read only one triangle of a non-hermitian h and report on another
    # operator; the skew sits in the 2 N_exc = 2 sector the check decomposes
    first, second = space.sectors.indices[2][:2]
    skewed = hamiltonian.matrix.copy()
    skewed[first, second] += 1e-3
    with pytest.raises(ValueError, match="hermitian"):
        selection_rule_check(
            OperatorMatrix.from_dense(space, skewed), space, omega=1.0, gamma_coupling=0.05
        )


def test_evolution_actually_radiates(space, hamiltonian):
    # sanity of the dynamics: resonant pair emission moves population out of
    # the excited state and into the even pair sector, never the odd one
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac)
    t = 1.0 / 0.05
    evolved = expm(-1j * hamiltonian.matrix * t) @ excited
    survival = abs(np.vdot(excited, evolved)) ** 2
    assert survival < 0.999
    even = space.state("g", pair_field_vector(space, PSI2))
    assert abs(np.vdot(even, evolved)) > 1e-3


@settings(derandomize=True, deadline=None, max_examples=25)
@given(gamma=st.floats(0.01, 0.1), leak=st.sampled_from([0.0, 1e-3]))
def test_sector_evolution_matches_dense_eigh(space, gamma, leak):
    # the overlaps selection_rule_check reads from its one-sector eigh, against
    # an eigh of the whole dense H; a leak to |g; psi3> makes them nonzero
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac)
    odd = space.state("g", pair_field_vector(space, PSI3))
    h = interaction_hamiltonian(space, omega=1.0, omega0=2.0, gamma_coupling=gamma).matrix
    h = h + leak * (np.outer(odd, excited.conj()) + np.outer(excited, odd.conj()))
    report = selection_rule_check(
        OperatorMatrix.from_dense(space, h), space, omega=1.0, gamma_coupling=gamma
    )
    energies, vectors = np.linalg.eigh(h)
    start = vectors.conj().T @ excited
    want = [
        abs(np.vdot(odd, vectors @ (np.exp(-1j * energies * t) * start))) for t in report.times
    ]
    np.testing.assert_allclose(report.evolution_overlaps, want, rtol=0, atol=1e-12)
    assert (max(want) > 1e-4) == (leak > 0.0)
