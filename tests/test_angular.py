"""Total-AM operator triple, SU(3) generators, and density commutators."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import spherical_jn

from photonam import angular
from photonam.angular import (
    AmOperatorTriple,
    M_VALUES,
    am_variances,
    density_commutator_check,
    j_operators,
    su3_generators,
    three_mode_space,
    verify_su2,
)
from ladder import (
    DENSITY_FACTORS,
    annihilation,
    creation,
    from_dense,
    is_hermitian_operator,
    scaled_density_residual,
)
from photonam.fock import bilinear, build_space
from photonam.radial import CavityConfig, f_oam, f_spin, normalize_mode

RT2 = np.sqrt(2.0)

# spin-1 matrices in the (m = +1, 0, -1) basis, frozen by hand
SPIN1_JX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / RT2
SPIN1_JY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / RT2
SPIN1_JZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


def one_photon_indices(space):
    """Basis indices of |1_m> for m = +1, 0, -1, placed by index_of."""
    return [
        space.index_of(tuple(int(m == mode) for m in space.modes)) for mode in M_VALUES
    ]


def one_photon_block(matrix, space):
    """3x3 restriction of an operator matrix to the one-photon states."""
    ones = one_photon_indices(space)
    return matrix[np.ix_(ones, ones)]


@pytest.fixture(scope="module")
def space():
    return three_mode_space()


@pytest.fixture(scope="module")
def triple(space):
    return j_operators(space)


def test_jz_eigenvalues(space, triple):
    for m, index in zip((1, 0, -1), one_photon_indices(space)):
        state = np.eye(space.dim)[index]
        np.testing.assert_allclose(triple.jz.matrix @ state, m * state, atol=1e-15)


def test_single_photon_blocks_are_spin_one_matrices(space, triple):
    np.testing.assert_allclose(one_photon_block(triple.jx.matrix, space), SPIN1_JX, atol=1e-15)
    np.testing.assert_allclose(one_photon_block(triple.jy.matrix, space), SPIN1_JY, atol=1e-15)
    np.testing.assert_allclose(one_photon_block(triple.jz.matrix, space), SPIN1_JZ, atol=1e-15)


def ladder_formulas(space):
    """J and SU(3) operators written out as products of ladder matrices."""
    a = {mode: annihilation(space, mode).matrix for mode in M_VALUES}
    c = {mode: creation(space, mode).matrix for mode in M_VALUES}
    raise_0 = c[0] @ (a[1] + a[-1])
    diff_0 = c[0] @ (a[1] - a[-1])
    jx = (raise_0 + raise_0.conj().T) / RT2
    jy = 1j * (diff_0 - diff_0.conj().T) / RT2
    jz = c[1] @ a[1] - c[-1] @ a[-1]
    pairs = [(1, 0), (0, -1), (-1, 1)]
    hops = [c[up] @ a[low] for up, low in pairs]
    diag_raw = [c[up] @ a[up] - c[low] @ a[low] for up, low in pairs]
    off_real = [0.5 * (h + h.conj().T) for h in hops]
    off_imag = [(h - h.conj().T) / 2j for h in hops]
    return (jx, jy, jz), diag_raw, off_real, off_imag


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_operators_match_ladder_formulas(cutoff):
    space = three_mode_space(cutoff)
    j_want, raw_want, real_want, imag_want = ladder_formulas(space)
    gens = su3_generators(space)
    got = [op.matrix for op in j_operators(space).components()]
    got += [op.matrix for op in gens.diagonal_raw + gens.offdiag_real + gens.offdiag_imag]
    want = [*j_want, *raw_want, *real_want, *imag_want]
    for g, w in zip(got, want, strict=True):
        # the ladder product sqrt(n) * sqrt(n) misses the integer n by up to
        # one ulp (1.8e-15 at n = 8), where the bilinear map gives n exactly
        np.testing.assert_allclose(g, w, rtol=1e-15, atol=0)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_su2_closure(cutoff):
    report = verify_su2(j_operators(three_mode_space(cutoff)))
    assert report.passed
    assert not report.degenerate
    assert report.max_residual < 1e-12


def test_j_squared_on_single_photon(space, triple):
    jx, jy, jz = (op.matrix for op in triple.components())
    j_sq = jx @ jx + jy @ jy + jz @ jz
    for index in one_photon_indices(space):
        assert j_sq[index, index].real == pytest.approx(2.0, abs=1e-12)


def test_transverse_means_vanish(space, triple):
    for index, m in zip(one_photon_indices(space), (1, 0, -1)):
        assert abs(triple.jx.matrix[index, index]) < 1e-14
        assert abs(triple.jy.matrix[index, index]) < 1e-14
        assert triple.jz.matrix[index, index].real == pytest.approx(m, abs=1e-14)


def test_verify_su2_detects_perturbation(space, triple):
    # an in-sector perturbation: <1_+| Jx |1_0>, inside the one-photon sector
    plus, zero, _ = one_photon_indices(space)
    perturbed_jx = triple.jx.matrix.copy()
    perturbed_jx[plus, zero] += 0.01
    bad = type(triple)(
        jx=from_dense(space, perturbed_jx),
        jy=triple.jy,
        jz=triple.jz,
    )
    report = verify_su2(bad)
    assert not report.passed
    assert report.max_residual > 1e-3
    # at cutoff 1 the check must still see the single-photon sector
    single = j_operators(three_mode_space(1))
    doubled = type(single)(
        jx=single.jx, jy=single.jy,
        jz=from_dense(single.jz.space, 2.0 * single.jz.matrix),
    )
    report = verify_su2(doubled)
    assert not report.passed
    assert report.max_residual > 0.5
    # the density identities rest on the same closure, so they fail with it
    cavity = CavityConfig(k=1.0, R=50.0)
    for kinds in (("spin", "spin"), ("spin", "oam"), ("oam", "spin"), ("oam", "oam")):
        report = density_commutator_check(*kinds, 3.0, config=cavity, triple=bad)
        assert not report.passed
        assert not report.degenerate
        assert report.max_residual > 1e-3
    # the vacuum -> one-photon perturbation breaks number conservation, so no
    # operator holds it: it is refused when the blocks are built
    off_sector = triple.jx.matrix.copy()
    off_sector[0, 1] += 0.01
    with pytest.raises(ValueError, match="couples sector 1 to sector 0"):
        from_dense(space, off_sector)


def test_verify_su2_zero_triple_degenerate(space):
    zero = from_dense(space, np.zeros((space.dim, space.dim), dtype=complex))
    report = verify_su2(type(j_operators(space))(jx=zero, jy=zero, jz=zero))
    assert report.degenerate
    assert report.passed
    assert report.max_residual == 0.0


def test_wrong_mode_set_raises():
    other = build_space(["a", "b"], 2)
    with pytest.raises(ValueError):
        j_operators(other)
    with pytest.raises(ValueError):
        su3_generators(other)


def test_su3_generators_hermitian_and_dependent(space):
    gens = su3_generators(space)
    for op in gens.all_generators() + gens.diagonal_raw:
        assert is_hermitian_operator(op)
    total = sum(op.matrix for op in gens.diagonal_raw)
    assert np.max(np.abs(total)) == 0.0
    assert len(gens.all_generators()) == 8


def test_su3_single_photon_blocks_independent_and_traceless(space):
    gens = su3_generators(space)
    blocks = [one_photon_block(op.matrix, space) for op in gens.all_generators()]
    stacked = np.array([b.ravel() for b in blocks])
    assert np.linalg.matrix_rank(stacked) == 8
    for block in blocks:
        assert abs(np.trace(block)) < 1e-14


def test_su3_cyclic_convention(space):
    gens = su3_generators(space)
    # third pair is (m = -1, m-1 = +1): symmetric hop between the outer modes
    expected = np.zeros((3, 3))
    expected[2, 0] = expected[0, 2] = 0.5
    np.testing.assert_allclose(
        one_photon_block(gens.offdiag_real[2].matrix, space), expected, atol=1e-15
    )
    # first raw diagonal is n_{+1} - n_0
    np.testing.assert_allclose(
        one_photon_block(gens.diagonal_raw[0].matrix, space), np.diag([1.0, -1.0, 0.0]),
        atol=1e-15,
    )


@pytest.mark.parametrize(
    "m,expected",
    [(0, (1.0, 1.0, 0.0)), (1, (0.5, 0.5, 0.0)), (-1, (0.5, 0.5, 0.0))],
)
def test_variance_table(m, expected):
    got = am_variances(m)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_variance_sum_rule_and_ordering():
    for m in (-1, 0, 1):
        vx, vy, vz = am_variances(m)
        assert vx + vy + vz + m * m == pytest.approx(2.0, abs=1e-12)
    assert am_variances(0)[0] > am_variances(1)[0]


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_am_variances_match_ladder_oracle(cutoff):
    # <J^2> - <J>^2 in |1_m> on the whole truncated space, with J written out
    # as ladder products: no spin-1 block is shared with am_variances
    space = three_mode_space(cutoff)
    j_ladder, *_ = ladder_formulas(space)
    table = {1: (0.5, 0.5, 0.0), 0: (1.0, 1.0, 0.0), -1: (0.5, 0.5, 0.0)}
    for m, index in zip((1, 0, -1), one_photon_indices(space)):
        state = np.eye(space.dim)[index]
        want = [
            np.vdot(state, j @ j @ state).real - np.vdot(state, j @ state).real ** 2
            for j in j_ladder
        ]
        got = am_variances(m, cutoff)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, table[m], rtol=0, atol=1e-15)


def test_am_variances_invalid_m():
    with pytest.raises(ValueError):
        am_variances(2)


@pytest.mark.parametrize(
    "cutoff,message",
    [
        (0, "cutoff must be >= 1 to hold a photon, got 0"),
        (21, "3 modes at cutoff 21 give a 21-photon sector of 253 states > 252"),
    ],
)
def test_am_variances_refuses_cutoffs_as_three_mode_space(cutoff, message):
    for call in (three_mode_space, lambda c: am_variances(1, c)):
        with pytest.raises(ValueError) as info:
            call(cutoff)
        assert str(info.value) == message


def test_am_variances_builds_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("am_variances built a basis")

    monkeypatch.setattr(angular, "build_space", refuse)
    np.testing.assert_allclose(am_variances(0, 16), (1.0, 1.0, 0.0), rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def cavity():
    return CavityConfig(k=1.0, R=50.0)


def test_density_commutator_kind_validation(cavity, triple):
    for kinds in (("total", "spin"), ("spin", "total")):
        with pytest.raises(ValueError, match="kind"):
            density_commutator_check(*kinds, 1.0, config=cavity, triple=triple)


@pytest.mark.parametrize("kr", [0.5, 3.0, 5.0, 50.0])
@pytest.mark.parametrize(
    "kinds", [("spin", "spin"), ("oam", "oam"), ("oam", "spin"), ("spin", "oam")]
)
def test_density_commutators_hold(cavity, triple, kr, kinds):
    report = density_commutator_check(*kinds, kr, config=cavity, triple=triple)
    assert report.passed
    assert report.max_residual < 1e-12


def test_density_commutators_vanishing_oam_at_origin(cavity, triple):
    # f_oam(0) = 0, so every identity involving the OAM density is 0 = 0
    for kinds in (("oam", "oam"), ("oam", "spin")):
        report = density_commutator_check(*kinds, 0.0, config=cavity, triple=triple)
        assert report.passed
        assert report.degenerate
        assert scaled_density_residual(*kinds, 0.0, cavity, triple)[:2] == (0.0, True)
    spin = density_commutator_check("spin", "spin", 0.0, config=cavity, triple=triple)
    assert spin.passed and not spin.degenerate


def test_density_commutator_negative_kr(cavity, triple):
    for kinds in (("spin", "spin"), ("oam", "oam")):
        with pytest.raises(ValueError, match="kr"):
            density_commutator_check(*kinds, -2.0, config=cavity, triple=triple)


DENSITY_KIND_PAIRS = (("spin", "spin"), ("oam", "oam"), ("oam", "spin"), ("spin", "oam"))

#: Below this max|A| max|B| the reference's scaled products reach the
#: subnormal floats and lose their digits, so its residual means nothing there.
NORMAL_SCALE = np.finfo(float).tiny / np.finfo(float).eps


@functools.cache
def triple_at(cutoff, jx_scale):
    """J at cutoff with its Jx block scaled by jx_scale (1.0: the exact triple)."""
    jx, jy, jz = angular.SPIN1_BLOCKS
    space = three_mode_space(cutoff)
    return AmOperatorTriple(*bilinear(space, M_VALUES, [jx * jx_scale, jy, jz]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    kr=st.floats(0.0, 50.0),  # [0, kR] of the cavity fixture
    kinds=st.sampled_from(DENSITY_KIND_PAIRS),
    cutoff=st.integers(1, 8),
    jx_scale=st.sampled_from([1.0, 1.0 + 1e-6]),
)
def test_density_residual_matches_scaled_block_reference(cavity, kr, kinds, cutoff, jx_scale):
    # photonam reads the residual from the SU(2) closure of J; the reference
    # multiplies out the commutators of the scaled densities f(kr) J
    triple = triple_at(cutoff, jx_scale)
    report = density_commutator_check(*kinds, kr, config=cavity, triple=triple)
    want, want_degenerate, scale = scaled_density_residual(*kinds, kr, cavity, triple)
    factors = [DENSITY_FACTORS[kind](kr, cavity) for kind in kinds]
    assert report.degenerate == (0.0 in factors)
    if jx_scale == 1.0:
        assert report.passed and report.max_residual < 1e-12
    if not (0.0 in factors or scale >= NORMAL_SCALE):
        return
    assert report.degenerate == want_degenerate
    if jx_scale == 1.0:
        # both are the rounding noise of an identity that holds exactly
        assert abs(report.max_residual - want) <= 1e-15
        assert want < 1e-12
    elif not report.degenerate:
        # a broken closure: both see the same ~1e-6 relative residual
        assert not report.passed
        assert report.max_residual == pytest.approx(want, rel=1e-9)


def test_density_degenerate_only_where_a_factor_vanishes(cavity, triple):
    # f_oam(1e-60) ~ 1e-244 is a normal float, but f_oam^2 max|J|^2 underflows:
    # the reference's scale reads 0 and calls the identity vacuous, while
    # photonam tests each factor on its own and reports the closure residual
    kr = 1e-60
    assert f_oam(kr, cavity) > 0.0 and f_oam(kr, cavity) ** 2 == 0.0
    report = density_commutator_check("oam", "oam", kr, config=cavity, triple=triple)
    assert report.passed and not report.degenerate
    at_three = density_commutator_check("oam", "oam", 3.0, config=cavity, triple=triple)
    assert report.max_residual == at_three.max_residual
    assert scaled_density_residual("oam", "oam", kr, cavity, triple)[:2] == (0.0, True)


def test_density_commutators_zero_triple_degenerate(space, cavity):
    zero = from_dense(space, np.zeros((space.dim, space.dim), dtype=complex))
    zeros = AmOperatorTriple(jx=zero, jy=zero, jz=zero)
    for kinds in DENSITY_KIND_PAIRS:
        report = density_commutator_check(*kinds, 3.0, config=cavity, triple=zeros)
        assert report.degenerate and report.passed and report.max_residual == 0.0
        assert scaled_density_residual(*kinds, 3.0, cavity, zeros)[:2] == (0.0, True)


def test_closure_computed_once_per_triple(monkeypatch, cavity):
    # verify_su2 and every density check read one cached closure
    calls = []
    cyclic = angular._cyclic_residual
    monkeypatch.setattr(angular, "_cyclic_residual", lambda comps: calls.append(1) or cyclic(comps))
    fresh = j_operators(three_mode_space(2))
    su2 = verify_su2(fresh)
    for kr in (0.5, 3.0, 50.0):
        for kinds in DENSITY_KIND_PAIRS:
            density_commutator_check(*kinds, kr, config=cavity, triple=fresh)
    assert len(calls) == 1
    assert su2.max_residual == fresh.closure[0]


# ----------------------------------------- spin and orbital AM from the field
#
# An independent derivation of the densities' operator structure: the
# electric-dipole mode E_m(n) is written out in Cartesian form, and its spin
# and orbital AM are integrated over the unit sphere numerically, with no
# Clebsch-Gordan table and no formula shared with photonam.

#: Spherical unit vectors e_{+1} = -(x + iy)/sqrt2, e_0 = z, e_{-1} = (x - iy)/sqrt2 as rows.
SPHERICAL_BASIS = np.array([[-1.0, -1j, 0.0], [0.0, 0.0, RT2], [1.0, -1j, 0.0]]) / RT2

#: Levi-Civita symbol eps[k, i, j].
LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_i, _k, _j] = -1.0


def sphere_rule() -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (P, 3) and weights (P,) of 4-point Gauss-Legendre in cos(theta)
    times an 8-point trapezoid in phi: exact for polynomials of degree <= 7 in n."""
    nodes, w_cos = np.polynomial.legendre.leggauss(4)
    cos_t, phi = np.meshgrid(nodes, 2.0 * np.pi * np.arange(8) / 8, indexing="ij")
    sin_t = np.sqrt(1.0 - cos_t**2)
    n = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)
    return n.reshape(-1, 3), np.repeat(w_cos, 8) * (2.0 * np.pi / 8)


def field_am(a0: float, a2: float) -> tuple[np.ndarray, np.ndarray]:
    """(spin, orbital) matrices [k, m, m'] over m = +1, 0, -1 of the mode
    E_m(n) = sqrt2 a0 e_m / sqrt(4 pi) + a2 (3 n (n.e_m) - e_m) / sqrt(8 pi),
    the L = 0 plus L = 2 vector harmonics of total J = 1.

    spin_k = int E_m^* . S_k E_m' with (S_k)_ij = -i eps_kij, and
    orbital_k = int E_m^* . (L_k E_m') with L_k = -i (r x grad)_k acting on
    each Cartesian component through L_k n_i = -i eps_kai n_a.
    """
    n, w = sphere_rule()
    e = SPHERICAL_BASIS
    n_dot_e = n @ e.T  # [p, m]
    l2 = a2 / np.sqrt(8.0 * np.pi)
    field = RT2 * a0 / np.sqrt(4.0 * np.pi) * e[:, None, :] + l2 * (
        3.0 * n_dot_e.T[:, :, None] * n[None, :, :] - e[:, None, :]
    )  # [m, p, i]
    # L_k [3 n_i (n.e)] = 3 (L_k n_i)(n.e) + 3 n_i L_k (n.e); L_k kills constants
    l_field = -3j * l2 * (
        np.einsum("kai,pa,pm->kmpi", LEVI_CIVITA, n, n_dot_e)
        + np.einsum("pi,kab,pa,mb->kmpi", n, LEVI_CIVITA, n, e)
    )  # [k, m', p, i]
    spin = np.einsum("p,mpi,kij,npj->kmn", w, field.conj(), -1j * LEVI_CIVITA, field)
    orbital = np.einsum("p,mpi,knpi->kmn", w, field.conj(), l_field)
    return spin, orbital


SPIN1 = np.array([SPIN1_JX, SPIN1_JY, SPIN1_JZ])


@pytest.mark.parametrize("a0,a2", [(1.0, 0.0), (0.0, 1.0), (0.8, -1.3), (-1.7, 0.6), (-0.4, -2.1)])
def test_field_am_is_radial_factor_times_j(a0, a2):
    # the paper's first claim: spin and orbital AM have the J structure and
    # differ only in their coefficients; the L = 0 / L = 2 cross terms vanish
    spin, orbital = field_am(a0, a2)
    np.testing.assert_allclose(spin, (2.0 * a0**2 - 0.5 * a2**2) * SPIN1, rtol=0, atol=1e-14)
    np.testing.assert_allclose(orbital, 1.5 * a2**2 * SPIN1, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kr", [0.5, 3.0, 50.0])
def test_field_am_coefficients_are_density_factors(cavity, kr):
    a0 = normalize_mode(cavity, 0) * spherical_jn(0, kr)
    a2 = normalize_mode(cavity, 2) * spherical_jn(2, kr)
    spin, orbital = field_am(a0, a2)
    atol = 1e-12 * (2.0 * a0**2 + a2**2)
    three_v = 3.0 * cavity.volume
    np.testing.assert_allclose(spin, three_v * f_spin(kr, cavity) * SPIN1, rtol=0, atol=atol)
    np.testing.assert_allclose(orbital, three_v * f_oam(kr, cavity) * SPIN1, rtol=0, atol=atol)
