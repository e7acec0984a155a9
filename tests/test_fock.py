"""Fock-space construction, ladder algebra, and expectation machinery."""

import itertools

import numpy as np
import pytest

from photonam.fock import (
    ModeLabel,
    OperatorMatrix,
    StateVector,
    annihilation,
    build_space,
    commutator,
    creation,
    expectation,
    fock_state,
    identity_operator,
    number_operator,
    occupation_projector,
    total_number_operator,
    vacuum_state,
    variance,
)

M1, M2, M3 = ModeLabel("+1"), ModeLabel("0"), ModeLabel("-1")


def brute_force_basis(n_modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Independent enumeration of weak compositions with sum <= cutoff."""
    return [
        occ
        for occ in itertools.product(range(cutoff + 1), repeat=n_modes)
        if sum(occ) <= cutoff
    ]


def test_build_space_sizes():
    assert build_space([M1], 0).dim == 1
    assert build_space([M1, M2, M3], 1).dim == 4
    assert build_space([M1, M2, M3], 3).dim == len(brute_force_basis(3, 3)) == 20
    assert build_space([M1, M2, M3], 16).dim == 969


def test_basis_matches_brute_force_enumeration():
    space = build_space([M1, M2, M3], 3)
    assert list(space.basis) == brute_force_basis(3, 3)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("cutoff", [0, 1, 2, 4])
def test_basis_matches_brute_force_for_small_cases(n_modes, cutoff):
    modes = [ModeLabel(str(i)) for i in range(n_modes)]
    assert list(build_space(modes, cutoff).basis) == brute_force_basis(n_modes, cutoff)


def test_build_space_many_modes():
    # only the admitted states are enumerated: (cutoff + 1)^modes would be 2^20 and 2^2000
    space = build_space([ModeLabel(str(i)) for i in range(20)], 1)
    assert space.dim == 21
    assert space.basis[1] == (0,) * 19 + (1,)
    assert space.basis[-1] == (1,) + (0,) * 19
    assert build_space([ModeLabel(str(i)) for i in range(2000)], 0).basis == ((0,) * 2000,)


def test_basis_ordering_deterministic_and_bijective():
    a = build_space([M1, M2, M3], 3)
    b = build_space([M1, M2, M3], 3)
    assert a.basis == b.basis
    assert a.basis[0] == (0, 0, 0)
    for i, occ in enumerate(a.basis):
        assert a.index_of(occ) == i


def test_build_space_errors():
    with pytest.raises(ValueError):
        build_space([], 2)
    with pytest.raises(ValueError):
        build_space([M1], -1)
    with pytest.raises(ValueError):
        build_space([M1, M1], 2)
    # the first cutoffs past MAX_DIM = 1024 for three and six modes
    with pytest.raises(ValueError, match="dimension 1140"):
        build_space([M1, M2, M3], 17)
    with pytest.raises(ValueError, match="dimension 1716"):
        build_space([ModeLabel(str(i)) for i in range(6)], 7)


def test_annihilation_matches_hand_built_single_mode_matrix():
    space = build_space([M1], 3)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    expected[2, 3] = np.sqrt(3.0)
    np.testing.assert_array_equal(annihilation(space, M1).matrix, expected)


def test_annihilation_action():
    space = build_space([M1], 3)
    a = annihilation(space, M1)
    assert np.all(a.matrix @ vacuum_state(space).amplitudes == 0)
    one = fock_state(space, {M1: 1})
    np.testing.assert_allclose(a.matrix @ one.amplitudes, vacuum_state(space).amplitudes)
    two = fock_state(space, {M1: 2})
    np.testing.assert_allclose(
        a.matrix @ two.amplitudes, np.sqrt(2.0) * one.amplitudes
    )


def test_creation_is_exact_adjoint_and_truncates():
    space = build_space([M1, M2], 2)
    for mode in (M1, M2):
        a = annihilation(space, mode)
        adag = creation(space, mode)
        np.testing.assert_array_equal(adag.matrix, a.matrix.conj().T)
    top = fock_state(space, {M1: 2})
    assert np.all(creation(space, M1).matrix @ top.amplitudes == 0)
    np.testing.assert_allclose(
        creation(space, M1).matrix @ vacuum_state(space).amplitudes,
        fock_state(space, {M1: 1}).amplitudes,
    )


def test_unknown_mode_errors():
    space = build_space([M1, M2], 2)
    with pytest.raises(ValueError):
        annihilation(space, M3)
    with pytest.raises(ValueError):
        fock_state(space, {M3: 1})


def test_commutator_identity_on_safe_subspace():
    space = build_space([M1, M2, M3], 3)
    proj = occupation_projector(space, space.cutoff - 1)
    for ma in (M1, M2, M3):
        for mb in (M1, M2, M3):
            comm = commutator(annihilation(space, ma), creation(space, mb))
            boxed = proj @ comm @ proj
            want = proj.matrix if ma == mb else np.zeros_like(proj.matrix)
            np.testing.assert_allclose(boxed.matrix, want, atol=1e-12)


def test_commutator_with_itself_is_zero_and_space_mismatch_raises():
    space = build_space([M1, M2], 2)
    other = build_space([M1, M2], 2)
    a = annihilation(space, M1)
    assert commutator(a, a).max_abs() == 0.0
    with pytest.raises(ValueError):
        commutator(a, annihilation(other, M1))


def test_number_operator_diagonal_integer_hermitian():
    space = build_space([M1, M2, M3], 3)
    for mode in (M1, M2, M3):
        n_op = number_operator(space, mode)
        assert n_op.is_hermitian()
        off_diag = n_op.matrix - np.diag(np.diag(n_op.matrix))
        assert np.max(np.abs(off_diag)) == 0.0
        pos = space.mode_position(mode)
        np.testing.assert_allclose(
            np.diag(n_op.matrix).real, [occ[pos] for occ in space.basis], atol=1e-12
        )


def test_fock_state_indexing():
    space = build_space([M1, M2, M3], 3)
    assert np.argmax(np.abs(vacuum_state(space).amplitudes)) == 0
    one_zero = fock_state(space, {M2: 1})
    assert one_zero.norm() == 1.0
    pair = fock_state(space, {M1: 1, M3: 1})
    expected_index = brute_force_basis(3, 3).index((1, 0, 1))
    assert np.argmax(np.abs(pair.amplitudes)) == expected_index
    with pytest.raises(ValueError):
        fock_state(space, {M1: 2, M2: 2})


def test_expectation_values():
    space = build_space([M1, M2], 2)
    n1 = number_operator(space, M1)
    assert expectation(vacuum_state(space), n1) == 0
    assert expectation(fock_state(space, {M1: 1}), n1) == pytest.approx(1.0, abs=1e-14)


def test_variance_superposition():
    space = build_space([M1], 2)
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.index_of((0,))] = 1.0
    amps[space.index_of((1,))] = 1.0
    state = StateVector(space, amps).normalized()
    assert variance(state, number_operator(space, M1)) == pytest.approx(0.25, abs=1e-14)


def test_variance_rejects_non_hermitian():
    space = build_space([M1], 2)
    with pytest.raises(ValueError):
        variance(vacuum_state(space), annihilation(space, M1))


def test_variance_non_negative():
    space = build_space([M1, M2], 3)
    state = fock_state(space, {M1: 1})
    assert variance(state, total_number_operator(space)) >= 0.0


def test_operator_matrix_validation():
    space = build_space([M1], 2)
    with pytest.raises(ValueError):
        OperatorMatrix(space, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        OperatorMatrix(space, annihilation(space, M1).matrix, hermitian=True)
    ident = identity_operator(space)
    assert OperatorMatrix(space, ident.matrix, hermitian=True).hermitian


def test_state_vector_validation():
    space = build_space([M1], 2)
    with pytest.raises(ValueError):
        StateVector(space, np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        StateVector(space, np.zeros(space.dim, dtype=complex)).normalized()
