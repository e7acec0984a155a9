"""Fock-space construction and ladder algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ladder import annihilation, commutator, creation
from photonam.fock import (
    ModeLabel,
    OperatorMatrix,
    bilinear,
    build_space,
    check_dim,
    is_hermitian,
    total_number_operator,
)

M1, M2, M3 = ModeLabel("+1"), ModeLabel("0"), ModeLabel("-1")


def brute_force_basis(n_modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Independent enumeration of weak compositions with sum <= cutoff."""
    return [
        occ
        for occ in itertools.product(range(cutoff + 1), repeat=n_modes)
        if sum(occ) <= cutoff
    ]


def unit(space, occupation):
    """Basis vector of one occupation tuple, placed by index_of."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index_of(occupation)] = 1.0
    return vec


def test_build_space_sizes():
    assert build_space([M1], 0).dim == 1
    assert build_space([M1, M2, M3], 1).dim == 4
    assert build_space([M1, M2, M3], 3).dim == len(brute_force_basis(3, 3)) == 20
    assert build_space([M1, M2, M3], 16).dim == 969
    assert build_space([M1, M2, M3], 20).dim == 1771


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
    # the first cutoffs past MAX_SECTOR_DIM = 252 for three and six modes, and
    # for one mode, whose sectors hold one state each
    with pytest.raises(ValueError, match="21-photon sector of 253 states"):
        build_space([M1, M2, M3], 21)
    with pytest.raises(ValueError, match="6-photon sector of 462 states"):
        build_space([ModeLabel(str(i)) for i in range(6)], 6)
    with pytest.raises(ValueError, match="253 photon-number sectors > 252"):
        build_space([M1], 252)


def test_check_dim_admits_the_largest_bases():
    # top sectors of 231 and 252 states, the largest within MAX_SECTOR_DIM for
    # three and six modes, and 252 one-state sectors for one mode
    for n_modes, cutoff in ((3, 20), (6, 5), (1, 0), (1, 251)):
        check_dim(n_modes, cutoff)
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        check_dim(3, -1)
    with pytest.raises(ValueError, match="3 modes at cutoff 21 give a 21-photon sector of 253 states > 252"):
        check_dim(3, 21)


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
    vacuum, one, two = (unit(space, (n,)) for n in range(3))
    assert np.all(a.matrix @ vacuum == 0)
    np.testing.assert_allclose(a.matrix @ one, vacuum)
    np.testing.assert_allclose(a.matrix @ two, np.sqrt(2.0) * one)


def test_creation_is_exact_adjoint_and_truncates():
    space = build_space([M1, M2], 2)
    for mode in (M1, M2):
        a = annihilation(space, mode)
        adag = creation(space, mode)
        np.testing.assert_array_equal(adag.matrix, a.matrix.conj().T)
    top = unit(space, (2, 0))
    assert np.all(creation(space, M1).matrix @ top == 0)
    np.testing.assert_allclose(
        creation(space, M1).matrix @ unit(space, (0, 0)), unit(space, (1, 0))
    )


def test_unknown_mode_errors():
    space = build_space([M1, M2], 2)
    with pytest.raises(ValueError):
        annihilation(space, M3)
    with pytest.raises(ValueError, match="unknown mode"):
        space.mode_position(M3)


def test_commutator_identity_on_safe_subspace():
    # [a_i, a_j^dagger] = delta_ij holds on states below the cutoff
    space = build_space([M1, M2, M3], 3)
    safe = np.array([sum(occ) < space.cutoff for occ in space.basis])
    for ma in (M1, M2, M3):
        for mb in (M1, M2, M3):
            comm = commutator(annihilation(space, ma), creation(space, mb)).matrix
            want = np.eye(safe.sum()) * (ma == mb)
            np.testing.assert_allclose(comm[np.ix_(safe, safe)], want, atol=1e-12)


def test_commutator_with_itself_is_zero_and_space_mismatch_raises():
    space = build_space([M1, M2], 2)
    other = build_space([M1, M2], 2)
    a = annihilation(space, M1)
    assert commutator(a, a).max_abs() == 0.0
    with pytest.raises(ValueError):
        commutator(a, annihilation(other, M1))


def test_number_operator_diagonal_integer_hermitian():
    for cutoff in (3, 8):
        space = build_space([M1, M2, M3], cutoff)
        for mode in (M1, M2, M3):
            n_op = bilinear(space, (mode,), [[1.0]])
            assert n_op.is_hermitian(0.0)
            pos = space.mode_position(mode)
            np.testing.assert_array_equal(n_op.matrix, np.diag([occ[pos] for occ in space.basis]))
        np.testing.assert_array_equal(
            total_number_operator(space).matrix, np.diag([sum(occ) for occ in space.basis])
        )


def ladder_bilinear(space, modes, block):
    """Independent route: sum_ij block[i, j] creation(i) @ annihilation(j)."""
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            total += block[i, j] * (creation(space, mi) @ annihilation(space, mj)).matrix
    return total


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), n_modes=st.integers(1, 4), cutoff=st.integers(0, 8))
def test_bilinear_matches_ladder_products(data, n_modes, cutoff):
    space = build_space([ModeLabel(str(i)) for i in range(n_modes)], cutoff)
    picked = data.draw(st.permutations(space.modes).map(tuple))
    picked = picked[: data.draw(st.integers(1, n_modes))]
    parts = st.floats(-1.0, 1.0)
    entries = st.lists(st.builds(complex, parts, parts), min_size=len(picked) ** 2,
                       max_size=len(picked) ** 2)
    block = np.array(data.draw(entries)).reshape(len(picked), len(picked))
    op = bilinear(space, picked, block)
    np.testing.assert_allclose(
        op.matrix, ladder_bilinear(space, picked, block), rtol=0, atol=1e-13
    )
    # the block is the operator's restriction to the one-photon states
    if cutoff >= 1:
        ones = [
            space.index_of(tuple(int(m == mode) for m in space.modes)) for mode in picked
        ]
        np.testing.assert_array_equal(op.matrix[np.ix_(ones, ones)], block)
    hermitian = block + block.conj().T
    assert bilinear(space, picked, hermitian).is_hermitian(0.0)


def test_bilinear_validation():
    space = build_space([M1, M2], 2)
    with pytest.raises(ValueError, match="unknown mode"):
        bilinear(space, (M1, M3), np.eye(2))
    with pytest.raises(ValueError, match="distinct"):
        bilinear(space, (M1, M1), np.eye(2))
    with pytest.raises(ValueError, match="block shape"):
        bilinear(space, (M1, M2), np.eye(3))


def test_bilinear_many_modes():
    # 70 modes at cutoff 1: the basis keys pass 2**63 and become Python ints
    modes = [ModeLabel(str(i)) for i in range(70)]
    space = build_space(modes, 1)
    pair, hop = (modes[0], modes[69]), np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(
        bilinear(space, pair, hop).matrix, ladder_bilinear(space, pair, hop)
    )


def test_fock_state_indexing():
    space = build_space([M1, M2, M3], 3)
    assert space.index_of((0, 0, 0)) == 0
    assert space.index_of((1, 0, 1)) == brute_force_basis(3, 3).index((1, 0, 1))
    with pytest.raises(ValueError, match="not in truncated basis"):
        space.index_of((2, 2, 0))


def test_operator_matrix_validation():
    space = build_space([M1], 2)
    with pytest.raises(ValueError, match="does not match space dim"):
        OperatorMatrix.from_dense(space, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="sector sizes"):
        OperatorMatrix(space, (np.zeros((1, 1)),) * 2)
    assert not is_hermitian(annihilation(space, M1).matrix)
    assert OperatorMatrix.from_dense(space, np.eye(space.dim)).is_hermitian(0.0)


def test_dense_round_trip_and_off_sector_entry():
    space = build_space([M1, M2, M3], 3)
    op = bilinear(space, (M1, M2, M3), np.arange(9.0).reshape(3, 3) * (1 + 0.5j))
    # the blocks of the assembled dense matrix are the stored blocks, bit for bit
    again = OperatorMatrix.from_dense(space, op.matrix)
    assert all(np.array_equal(a, b) for a, b in zip(again.blocks, op.blocks, strict=True))
    # one entry from the one-photon state |0, 0, 1> to the vacuum leaves its sector
    leaky = op.matrix.copy()
    leaky[0, space.index_of((0, 0, 1))] = 1e-300
    with pytest.raises(ValueError, match="couples sector 1 to sector 0"):
        OperatorMatrix.from_dense(space, leaky)
