"""Fock-space construction and ladder algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ladder import (
    annihilation,
    commutator,
    creation,
    from_dense,
    is_hermitian_operator,
    total_number_operator,
)
from photonam import angular, fock
from photonam.fock import (
    OperatorMatrix,
    bilinear,
    build_space,
    check_dim,
    is_hermitian,
)

M1, M2, M3 = 1, 0, -1


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
    modes = range(n_modes)
    assert list(build_space(modes, cutoff).basis) == brute_force_basis(n_modes, cutoff)


def test_build_space_many_modes():
    # only the admitted states are enumerated: (cutoff + 1)^modes would be 2^20 and 2^2000
    space = build_space(range(20), 1)
    assert space.dim == 21
    assert space.basis[1] == (0,) * 19 + (1,)
    assert space.basis[-1] == (1,) + (0,) * 19
    assert build_space(range(2000), 0).basis == ((0,) * 2000,)


def admitted_cutoffs(n_modes: int) -> list[int]:
    """Every cutoff check_dim admits for n_modes modes."""
    cutoffs = []
    while True:
        try:
            check_dim(n_modes, len(cutoffs))
        except ValueError:
            return cutoffs
        cutoffs.append(len(cutoffs))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(admitted_cutoffs(n)))
    )
)
def test_occupations_match_brute_force_enumeration(case):
    n_modes, cutoff = case
    occupations = build_space(range(n_modes), cutoff).occupations
    assert occupations.dtype == np.intp and not occupations.flags.writeable
    assert occupations.tolist() == [list(occ) for occ in brute_force_basis(n_modes, cutoff)]


def test_occupations_of_many_modes():
    # 2000 modes hold the vacuum only; 70 modes at cutoff 1 the vacuum, then one
    # photon in the last mode, ..., one photon in the first, as lexicographic order puts them
    vacuum = build_space(range(2000), 0).occupations
    assert vacuum.shape == (1, 2000) and not vacuum.any()
    ones = build_space(range(70), 1).occupations
    np.testing.assert_array_equal(ones, np.vstack([np.zeros(70), np.eye(70)[::-1]]))


@pytest.mark.parametrize("n_modes, cutoff", [(3, 3), (3, 20), (6, 5), (1, 251), (70, 1), (2000, 0)])
def test_index_of_round_trips_every_state(n_modes, cutoff):
    # 70 modes at cutoff 1 take Python-int keys; the others int64
    space = build_space(range(n_modes), cutoff)
    assert [space.index_of(occ) for occ in space.basis] == list(range(space.dim))
    assert [space.index_of(row) for row in space.occupations] == list(range(space.dim))
    # the whole basis as one (dim, n_modes) array: one search of all the keys
    assert space.index_of(space.occupations).tolist() == list(range(space.dim))
    assert space.index_of(space.occupations[::-1]).tolist() == list(range(space.dim))[::-1]


@pytest.mark.parametrize(
    "occupation",
    [(-1, 1, 0), (0, -1, 0), (1, 0), (1, 0, 0, 0), (), (2, 2, 0), (4, 0, 0), (0.5, 0, 0),
     (1.0, 0, 0), ("1", 0, 0), (None, 0, 0), (float("nan"), 0, 0)],
)
def test_index_of_refuses_states_outside_the_basis(occupation):
    space = build_space([M1, M2, M3], 3)
    with pytest.raises(ValueError) as info:
        space.index_of(occupation)
    assert str(info.value) == f"occupation {occupation} not in truncated basis"


def test_index_of_refuses_an_array_with_one_state_outside_the_basis():
    space = build_space([M1, M2, M3], 3)
    for bad in ([[0, 0, 1], [2, 2, 0]], [[0, 0, 1], [0, -1, 0]], [[1.0, 0, 0]], [[[0, 0, 0]]]):
        with pytest.raises(ValueError, match="not in truncated basis"):
            space.index_of(np.array(bad))
    assert space.index_of(np.zeros((0, 3), dtype=int)).tolist() == []
    assert space.index_of(np.array([[True, False, True]])).tolist() == [space.index_of((1, 0, 1))]


def reference_hops(space, raised, lowered):
    """(src, dst, amplitude) of prod creation(raised) prod annihilation(lowered),
    multiplied out from the dense per-state matrices of fock.annihilation."""
    product = np.eye(space.dim, dtype=complex)
    for mode in raised:
        product = product @ fock.annihilation(space, mode).conj().T
    for mode in lowered:
        product = product @ fock.annihilation(space, mode)
    src, dst = np.nonzero(product.T)
    assert not product.imag.any()
    return src, dst, product.real[dst, src]


@pytest.mark.parametrize("n_modes, cutoff", [(1, 4), (2, 5), (3, 4), (4, 3), (70, 1)])
def test_hops_match_the_dense_ladder_reference(n_modes, cutoff):
    modes = range(n_modes)
    space = build_space(modes, cutoff)
    picked = modes[:4] if n_modes <= 4 else [modes[0], modes[1], modes[-2], modes[-1]]
    for k in range(len(picked) + 1):
        terms = list(itertools.permutations(picked, k))
        positions = np.array([[space.mode_position(m) for m in t] for t in terms], dtype=np.intp)
        # every split of the chosen modes with no more raised than lowered, each
        # split's terms in one call, against the per-term references in term order
        for n_up in range(k // 2 + 1):
            got = fock._hops(space, positions[:, :n_up], positions[:, n_up:])
            per_term = [reference_hops(space, t[:n_up], t[n_up:]) for t in terms]
            want = [np.concatenate([np.full(len(src), t) for t, (src, _, _) in enumerate(per_term)])]
            want += [np.concatenate(column) for column in zip(*per_term)]
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b), (k, n_up)


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
        build_space(range(6), 6)
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
            (n_op,) = bilinear(space, (mode,), [[[1.0]]])
            assert is_hermitian_operator(n_op, 0.0)
            pos = space.mode_position(mode)
            np.testing.assert_array_equal(n_op.matrix, np.diag([occ[pos] for occ in space.basis]))
        np.testing.assert_array_equal(
            total_number_operator(space).matrix, np.diag([sum(occ) for occ in space.basis])
        )


def ladder_products(space, modes):
    """creation(m_i) @ annihilation(m_j) for every ordered pair of modes, dense."""
    lowers = [annihilation(space, mode) for mode in modes]
    return [[(lower.dag() @ other).matrix for other in lowers] for lower in lowers]


def ladder_bilinear(space, modes, block, products=None):
    """Independent route: sum_ij block[i, j] creation(i) @ annihilation(j)."""
    products = ladder_products(space, modes) if products is None else products
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for i, row in enumerate(products):
        for j, product in enumerate(row):
            total += block[i, j] * product
    return total


#: Entries drawn by Hypothesis into the blocks: zeros of both signs, the ends
#: of the drawn range and the smallest subnormal.
SPECIAL_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    data=st.data(), n_modes=st.integers(1, 4), cutoff=st.integers(0, 8), k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_bilinear_matches_ladder_products(data, n_modes, cutoff, k, seed):
    space = build_space(range(n_modes), cutoff)
    picked = data.draw(st.permutations(space.modes).map(tuple))
    picked = picked[: data.draw(st.integers(1, n_modes))]
    size = k * len(picked) ** 2
    # the bulk from the seed: parts uniform in [-1, 1], and about half the
    # entries zero, so stacks mix hops some blocks use and others skip
    rng = np.random.default_rng(seed)
    blocks = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
    blocks[rng.random(size) < 0.5] = 0j
    specials = st.tuples(st.integers(0, size - 1), st.builds(complex, SPECIAL_PARTS, SPECIAL_PARTS))
    for position, value in data.draw(st.lists(specials, max_size=4)):
        blocks[position] = value
    blocks = blocks.reshape(k, len(picked), len(picked))
    ops = bilinear(space, picked, blocks)
    assert len(ops) == k
    products = ladder_products(space, picked)
    for op, block in zip(ops, blocks, strict=True):
        np.testing.assert_allclose(
            op.matrix, ladder_bilinear(space, picked, block, products), rtol=0, atol=1e-13
        )
        # the block is the operator's restriction to the one-photon states
        if cutoff >= 1:
            ones = [
                space.index_of(tuple(int(m == mode) for m in space.modes)) for mode in picked
            ]
            np.testing.assert_array_equal(op.matrix[np.ix_(ones, ones)], block)
    hermitian = blocks + blocks.conj().transpose(0, 2, 1)
    assert all(is_hermitian_operator(op, 0.0) for op in bilinear(space, picked, hermitian))


def test_bilinear_validation():
    space = build_space([M1, M2], 2)
    with pytest.raises(ValueError, match="unknown mode"):
        bilinear(space, (M1, M3), [np.eye(2)])
    with pytest.raises(ValueError, match="distinct"):
        bilinear(space, (M1, M1), [np.eye(2)])
    with pytest.raises(ValueError, match="block stack shape"):
        bilinear(space, (M1, M2), [np.eye(3)])
    # a single block is not a stack of one
    with pytest.raises(ValueError, match="block stack shape"):
        bilinear(space, (M1, M2), np.eye(2))


def test_bilinear_makes_one_ladder_call_per_stack(monkeypatch):
    calls, hops = [], fock._hops

    def counted(space, up, down):
        calls.append((np.shape(up), np.shape(down)))
        return hops(space, up, down)

    monkeypatch.setattr(fock, "_hops", counted)
    space = angular.three_mode_space(4)
    angular.j_operators(space)
    angular.su3_generators(space)
    angular.j_operators(space)
    # J uses the four hops to or from m = 0; SU(3) all six ordered pairs of three modes;
    # nothing is kept between calls
    assert calls == [((4, 1), (4, 1)), ((6, 1), (6, 1)), ((4, 1), (4, 1))]
    # a diagonal-only stack makes the call too, with no term
    bilinear(space, angular.M_VALUES, [np.diag([1.0, 2.0, 3.0])])
    assert calls[3:] == [((0, 1), (0, 1))]


def test_bilinear_refuses_a_hop_out_of_its_sector(monkeypatch):
    space = build_space([M1, M2, M3], 2)
    hops = fock._hops

    def leaky(*args):
        term, src, dst, amplitude = hops(*args)
        # send the first image to the vacuum, sector 0; every hop source holds a photon
        return term, src, np.concatenate(([0], dst[1:])), amplitude

    monkeypatch.setattr(fock, "_hops", leaky)
    with pytest.raises(ValueError, match="couples sector 1 to sector 0"):
        bilinear(space, (M1, M2), [[[0.0, 1.0], [0.0, 0.0]]])


def test_bilinear_many_modes():
    # 70 modes at cutoff 1: the basis keys pass 2**63 and become Python ints
    modes = range(70)
    space = build_space(modes, 1)
    pair, hop = (modes[0], modes[69]), np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(
        bilinear(space, pair, [hop])[0].matrix, ladder_bilinear(space, pair, hop)
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
        from_dense(space, np.zeros((2, 2)))
    # three one-state sectors: a flat of three entries, no other shape
    assert np.array_equal(OperatorMatrix(space, np.arange(3.0)).matrix, np.diag(np.arange(3.0)))
    for flat in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros((1, 3))):
        with pytest.raises(ValueError, match="sector sizes"):
            OperatorMatrix(space, flat)
    assert not is_hermitian(annihilation(space, M1).matrix)
    assert is_hermitian_operator(from_dense(space, np.eye(space.dim)), 0.0)


def test_dense_round_trip_and_off_sector_entry():
    space = build_space([M1, M2, M3], 3)
    (op,) = bilinear(space, (M1, M2, M3), [np.arange(9.0).reshape(3, 3) * (1 + 0.5j)])
    # the blocks of the assembled dense matrix are the stored blocks, bit for bit
    again = from_dense(space, op.matrix)
    assert all(np.array_equal(a, b) for a, b in zip(again.blocks, op.blocks, strict=True))
    # one entry from the one-photon state |0, 0, 1> to the vacuum leaves its sector
    leaky = op.matrix.copy()
    leaky[0, space.index_of((0, 0, 1))] = 1e-300
    with pytest.raises(ValueError, match="couples sector 1 to sector 0"):
        from_dense(space, leaky)


def test_blocks_are_read_only_views_of_flat():
    space = build_space([M1, M2, M3], 3)
    ops = bilinear(space, (M1, M2, M3), [np.arange(9.0).reshape(3, 3), np.eye(3)])
    for op in ops:
        assert op.flat.shape == (space.sectors.offsets[-1],)
        assert op.blocks is op.blocks
        assert [b.shape for b in op.blocks] == [(n, n) for n in space.sectors.sizes]
        for k, block in enumerate(op.blocks):
            assert np.shares_memory(block, op.flat)
            a, b = space.sectors.offsets[k : k + 2]
            np.testing.assert_array_equal(block.ravel(), op.flat[a:b])
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            op.flat[0] = 1.0
    # each row of the stacked array bilinear writes is an operator as it is
    assert ops[0].flat.base is ops[1].flat.base


def test_operator_equality_is_identity():
    space = angular.three_mode_space(2)
    jx = angular.j_operators(space).jx
    again = angular.j_operators(space).jx
    assert np.array_equal(jx.flat, again.flat)
    assert jx == jx and jx != again and not (jx == again)
    assert len({jx, again, jx}) == 2
