"""Total-AM operator triple, SU(3) generators, and density commutators."""

import numpy as np
import pytest

from photonam.angular import (
    AM_MODES,
    M_MINUS,
    M_PLUS,
    M_ZERO,
    am_variances,
    density_commutator_check,
    density_operator,
    j_operators,
    single_photon_block,
    su3_generators,
    three_mode_space,
    verify_su2,
)
from photonam.fock import (
    ModeLabel,
    OperatorMatrix,
    annihilation,
    build_space,
    creation,
    expectation,
    fock_state,
)
from photonam.radial import CavityConfig, f_oam, f_spin

RT2 = np.sqrt(2.0)

# spin-1 matrices in the (m = +1, 0, -1) basis, frozen by hand
SPIN1_JX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / RT2
SPIN1_JY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / RT2
SPIN1_JZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def space():
    return three_mode_space()


@pytest.fixture(scope="module")
def triple(space):
    return j_operators(space)


def test_jz_eigenvalues(space, triple):
    for m, mode in ((1, M_PLUS), (0, M_ZERO), (-1, M_MINUS)):
        state = fock_state(space, {mode: 1})
        np.testing.assert_allclose(
            triple.jz.matrix @ state.amplitudes, m * state.amplitudes, atol=1e-15
        )


def test_single_photon_blocks_are_spin_one_matrices(space, triple):
    np.testing.assert_allclose(single_photon_block(triple.jx, space), SPIN1_JX, atol=1e-15)
    np.testing.assert_allclose(single_photon_block(triple.jy, space), SPIN1_JY, atol=1e-15)
    np.testing.assert_allclose(single_photon_block(triple.jz, space), SPIN1_JZ, atol=1e-15)


def ladder_formulas(space):
    """J and SU(3) operators written out as products of ladder matrices."""
    a = {mode: annihilation(space, mode).matrix for mode in AM_MODES}
    c = {mode: creation(space, mode).matrix for mode in AM_MODES}
    raise_0 = c[M_ZERO] @ (a[M_PLUS] + a[M_MINUS])
    diff_0 = c[M_ZERO] @ (a[M_PLUS] - a[M_MINUS])
    jx = (raise_0 + raise_0.conj().T) / RT2
    jy = 1j * (diff_0 - diff_0.conj().T) / RT2
    jz = c[M_PLUS] @ a[M_PLUS] - c[M_MINUS] @ a[M_MINUS]
    pairs = [(M_PLUS, M_ZERO), (M_ZERO, M_MINUS), (M_MINUS, M_PLUS)]
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
    j_sq = triple.squared()
    for mode in AM_MODES:
        state = fock_state(space, {mode: 1})
        assert expectation(state, j_sq).real == pytest.approx(2.0, abs=1e-12)


def test_transverse_means_vanish(space, triple):
    for mode, m in zip(AM_MODES, (1, 0, -1)):
        state = fock_state(space, {mode: 1})
        assert abs(expectation(state, triple.jx)) < 1e-14
        assert abs(expectation(state, triple.jy)) < 1e-14
        assert expectation(state, triple.jz).real == pytest.approx(m, abs=1e-14)


def test_verify_su2_detects_perturbation(space, triple):
    perturbed_jx = triple.jx.matrix.copy()
    perturbed_jx[0, 1] += 0.01
    bad = type(triple)(
        jx=OperatorMatrix(space, perturbed_jx),
        jy=triple.jy,
        jz=triple.jz,
    )
    report = verify_su2(bad)
    assert not report.passed
    assert report.max_residual > 1e-3
    # at cutoff 1 the check must still see the single-photon sector
    single = j_operators(three_mode_space(1))
    doubled = type(single)(jx=single.jx, jy=single.jy, jz=2.0 * single.jz)
    report = verify_su2(doubled)
    assert not report.passed
    assert report.max_residual > 0.5


def test_verify_su2_zero_triple_degenerate(space):
    zero = OperatorMatrix(space, np.zeros((space.dim, space.dim), dtype=complex))
    report = verify_su2(type(j_operators(space))(jx=zero, jy=zero, jz=zero))
    assert report.degenerate
    assert report.passed
    assert report.max_residual == 0.0


def test_wrong_mode_set_raises():
    other = build_space([ModeLabel("a"), ModeLabel("b")], 2)
    with pytest.raises(ValueError):
        j_operators(other)
    with pytest.raises(ValueError):
        su3_generators(other)


def test_su3_generators_hermitian_and_dependent(space):
    gens = su3_generators(space)
    for op in gens.all_generators() + gens.diagonal_raw:
        assert op.is_hermitian()
    total = sum(op.matrix for op in gens.diagonal_raw)
    assert np.max(np.abs(total)) == 0.0
    assert len(gens.all_generators()) == 8


def test_su3_single_photon_blocks_independent_and_traceless(space):
    gens = su3_generators(space)
    blocks = [single_photon_block(op, space) for op in gens.all_generators()]
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
        single_photon_block(gens.offdiag_real[2], space), expected, atol=1e-15
    )
    # first raw diagonal is n_{+1} - n_0
    np.testing.assert_allclose(
        single_photon_block(gens.diagonal_raw[0], space), np.diag([1.0, -1.0, 0.0]),
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


def test_am_variances_invalid_m():
    with pytest.raises(ValueError):
        am_variances(2)


@pytest.fixture(scope="module")
def cavity():
    return CavityConfig(k=1.0, R=50.0)


def test_density_operator_is_scalar_multiple(cavity, triple):
    dens = density_operator("spin", 3.0, cavity, triple)
    assert dens.scale == f_spin(3.0, cavity)
    sx, _, _ = dens.components()
    np.testing.assert_array_equal(sx.matrix, dens.scale * triple.jx.matrix)
    oam = density_operator("oam", 3.0, cavity, triple)
    assert oam.scale == f_oam(3.0, cavity)


def test_density_operator_validation(cavity):
    with pytest.raises(ValueError):
        density_operator("total", 1.0, cavity)
    with pytest.raises(ValueError):
        density_operator("spin", -1.0, cavity)


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
    spin = density_commutator_check("spin", "spin", 0.0, config=cavity, triple=triple)
    assert spin.passed and not spin.degenerate


def test_density_commutator_negative_kr(cavity):
    with pytest.raises(ValueError):
        density_commutator_check("spin", "spin", -2.0, config=cavity)


def test_algebra_report_json_keys(triple):
    payload = verify_su2(triple).to_json_dict()
    assert set(payload) == {"identity", "max_residual", "tolerance", "pass"}
    assert payload["pass"] is True
