"""Photon-twin pair states, entanglement measure, and the radiation selection rule."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonam import twins
from photonam.cli import main
from ladder import (
    DenseOperator,
    annihilation,
    commutator,
    dense,
    from_dense,
    is_hermitian_operator,
)
from photonam.twins import (
    BACKWARD_MODES,
    FORWARD_MODES,
    M_VALUES,
    PAIR_COUPLING,
    PARITY_BASIS,
    AtomFieldSpace,
    atom_field_space,
    entanglement_measure,
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


#: The eight independent SU(3) generators over (+1, 0, -1), written out: n_{+1} - n_0,
#: n_0 - n_{-1}, then for the hops a_{+1}^dagger a_0, a_0^dagger a_{-1} and
#: a_{-1}^dagger a_{+1} their hermitian parts, then their anti-hermitian parts.
SU3_GENERATORS = np.array([
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
    [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]],
    [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]],
    [[0, -0.5j, 0], [0.5j, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, -0.5j], [0, 0.5j, 0]],
    [[0, 0, 0.5j], [0, 0, 0], [-0.5j, 0, 0]],
])


def kron_expectations(psi: np.ndarray) -> np.ndarray:
    """Independent tensor-product route to the sixteen local expectations."""
    vec = psi.reshape(9)
    eye = np.eye(3)
    values = []
    for block in SU3_GENERATORS:
        values.append(np.vdot(vec, np.kron(block, eye) @ vec).real)
    for block in SU3_GENERATORS:
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


#: Keys of the entangle report in order: "schema", the EntanglementOptimum
#: fields, the SelectionRuleReport as "selection_rule", then "pass".
ENTANGLE_KEYS = [
    "schema",
    "c1_abs",
    "c2_abs",
    "mu_max",
    "local_expectation_max_abs",
    "variational_pass",
    "selection_rule",
    "pass",
]

#: Keys of its "selection_rule" object in order; the field `passed` reads "pass".
SELECTION_RULE_KEYS = [
    "coupling_to_odd",
    "eigen_residual",
    "eigenvalue",
    "times",
    "evolution_overlaps",
    "pass",
]


def entangle_report(capsys):
    code = main(["entangle"])
    return code, json.loads(capsys.readouterr().out, parse_constant=pytest.fail)


def test_json_report_schema(capsys):
    # renaming or reordering a report field fails here
    code, payload = entangle_report(capsys)
    assert code == 0
    assert list(payload) == ENTANGLE_KEYS
    assert list(payload["selection_rule"]) == SELECTION_RULE_KEYS
    assert payload["variational_pass"] is True
    assert payload["mu_max"] == float(f"{maximize_entanglement().mu_max:.12g}")


# ---------------------------------------------------------------- hamiltonian


def twice_excitation_number(space: AtomFieldSpace) -> np.ndarray:
    """2 N_exc = N_photons + 2 [atom = e] over the atom-major basis, from the occupations."""
    excited = 2 * (np.arange(2) == space.atom_index("e"))
    return np.add.outer(excited, space.field_space.occupations.sum(axis=1)).ravel()


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
    assert is_hermitian_operator(hamiltonian, 0.0)


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
    assert is_hermitian_operator(h, 0.0)
    twice_n_exc = DenseOperator(space, np.diag(twice_excitation_number(space)))
    assert commutator(dense(h), twice_n_exc).max_abs() == 0.0
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


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_pair_field_vector_places_each_pair_by_index_of(cutoff):
    # independent of the keys: |1_{m1} fwd, 1_{m2} bwd> found among the rows of the basis
    space = atom_field_space(cutoff)
    fs = space.field_space
    units = [np.eye(9)[k].reshape(3, 3) for k in range(9)]
    for amps in units + list(PARITY_BASIS):
        want = np.zeros(fs.dim, dtype=complex)
        for a, b in itertools.product(range(3), repeat=2):
            occ = [0] * len(fs.modes)
            occ[fs.mode_position(FORWARD_MODES[a])] = 1
            occ[fs.mode_position(BACKWARD_MODES[b])] = 1
            (row,) = np.flatnonzero((fs.occupations == occ).all(axis=1))
            want[row] = amps[a, b]
        assert np.array_equal(pair_field_vector(space, amps), want)


def test_interaction_hamiltonian_makes_one_ladder_call(monkeypatch):
    calls, hops = [], twins._hops

    def counted(space, up, down):
        calls.append((np.shape(up), np.shape(down)))
        return hops(space, up, down)

    monkeypatch.setattr(twins, "_hops", counted)
    interaction_hamiltonian(atom_field_space(3), omega=1.0, omega0=2.0, gamma_coupling=0.05)
    # the three pair terms a_m^fwd a_{-m}^bwd, no mode raised
    assert calls == [((3, 0), (3, 2))]


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
    # the sector label is 2 N_exc, which H conserves (test_hamiltonian_blocks_are_exact);
    # the dimension is 2 comb(cutoff + 6, 6): two levels times six modes below the cutoff
    for cutoff, dim in ((2, 56), (3, 168), (4, 420), (5, 924)):
        space = atom_field_space(cutoff)
        assert space.dim == dim
        assert np.array_equal(space.sectors.labels, twice_excitation_number(space))
        # the selection rule's sector, 2 N_exc = 2: |e; vac> and the 21 two-photon |g; n>
        assert space.sectors.sizes[twins.PAIR_SECTOR] == 22


def test_selection_rule_report(space, hamiltonian, capsys, monkeypatch):
    report = selection_rule_check(hamiltonian, space, omega=1.0, gamma_coupling=0.05)
    assert report.coupling_to_odd < 1e-12
    assert report.eigen_residual < 1e-12
    assert report.eigenvalue == 2.0
    assert all(v < 1e-10 for v in report.evolution_overlaps)
    assert report.passed
    code, payload = entangle_report(capsys)
    rule = payload["selection_rule"]
    assert code == 0 and list(rule) == SELECTION_RULE_KEYS and rule["pass"] is True
    assert len(rule["times"]) == len(rule["evolution_overlaps"]) == 3
    # a hermitian perturbation coupling |e; vac> to |g; psi3> radiates the odd
    # state, and the failing report is plain JSON too
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    excited = space.state("e", vac)
    odd = space.state("g", pair_field_vector(space, PSI3))
    leak = 1e-3 * (np.outer(odd, excited.conj()) + np.outer(excited, odd.conj()))
    leaky = from_dense(space, hamiltonian.matrix + leak)
    failed = selection_rule_check(leaky, space, omega=1.0, gamma_coupling=0.05)
    assert failed.coupling_to_odd == pytest.approx(1e-3, rel=1e-12)
    assert max(failed.evolution_overlaps) > 1e-4
    # entangle writes the failing report as strict JSON, with exit 1
    monkeypatch.setattr(twins, "interaction_hamiltonian", lambda *args: leaky)
    code, payload = entangle_report(capsys)
    rule = payload["selection_rule"]
    assert code == 1 and payload["pass"] is False
    assert list(rule) == SELECTION_RULE_KEYS and rule["pass"] is False
    assert rule["coupling_to_odd"] == float(f"{failed.coupling_to_odd:.12g}")


def test_selection_rule_check_rejects_non_hermitian(space, hamiltonian):
    # eigh would read only one triangle of a non-hermitian h and report on another
    # operator; the skew sits in the 2 N_exc = 2 sector the check decomposes
    first, second = space.sectors.indices[2][:2]
    skewed = hamiltonian.matrix.copy()
    skewed[first, second] += 1e-3
    with pytest.raises(ValueError, match="hermitian"):
        selection_rule_check(from_dense(space, skewed), space, omega=1.0, gamma_coupling=0.05)


_NON_FINITE = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("value", (0.0, -0.5, *_NON_FINITE))
@pytest.mark.parametrize("name", ["omega", "omega0", "gamma_coupling"])
def test_interaction_hamiltonian_refuses_non_finite_parameters(space, name, value):
    # zero and negative values make a hermitian H; a non-finite one is one ValueError line
    params = {"omega": 1.0, "omega0": 2.0, "gamma_coupling": 0.05, name: value}
    if np.isfinite(value):
        assert is_hermitian_operator(interaction_hamiltonian(space, **params), 0.0)
        return
    with pytest.raises(ValueError, match=f"^{name} must be finite, got ") as refused:
        interaction_hamiltonian(space, **params)
    assert "\n" not in str(refused.value)


@pytest.mark.parametrize(
    "cutoff,omega,omega0,gamma",
    [(2, 1e308, 1e308, 0.05), (2, 1e308, -1e308, 0.05), (2, -1e308, 0.0, 0.05),
     (2, 1e308 / 2, 1e308, 0.05), (5, 1.0, 2.0, 1e308), (5, 1.0, 2.0, -1e308)],
)
def test_interaction_hamiltonian_refuses_overflowing_entries(cutoff, omega, omega0, gamma):
    # finite parameters whose omega N + omega0 or gamma times a pair amplitude (up to
    # sqrt(6) at cutoff 5) overflow: one ValueError line, no inf in a block, no warning
    with pytest.raises(ValueError, match=r"^omega N \+ omega0 at the cutoff's N and gamma_coupling "
                                         r"times each pair amplitude must be finite, got [^\n]*$"):
        interaction_hamiltonian(atom_field_space(cutoff), omega, omega0, gamma)
    # just inside: the largest entries are finite and the Hamiltonian is built
    h = interaction_hamiltonian(atom_field_space(2), 1e308 / 2, -1e308, 1e308)
    assert np.isfinite(h.flat).all()


@pytest.mark.parametrize(
    "name,value",
    [("gamma_coupling", v) for v in (0.0, -0.05, 1e-320, *_NON_FINITE)]
    + [("omega", v) for v in _NON_FINITE],
)
def test_selection_rule_check_refuses_invalid_parameters(space, hamiltonian, name, value):
    # unchecked, gamma = 0 divides by zero in the evolution times, 10 / 1e-320
    # overflows to an infinite time, and a NaN omega fails in eigh
    params = {"omega": 1.0, "gamma_coupling": 0.05, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite") as refused:
        selection_rule_check(hamiltonian, space, **params)
    assert "\n" not in str(refused.value)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    log_gamma=st.floats(-3.0, 0.0),
    gamma_t=st.floats(0.0, 20.0),
    detuning=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
)
def test_radiated_pair_is_the_coupling_array(space, log_gamma, gamma_t, detuning):
    # the dynamics as the oracle of maximize_entanglement's pair: |e; vac>
    # evolved through an eigh of the dense H, at omega0 = 2 omega + detuning,
    # leaves in its g block only the pair C* / ||C||, whatever t and detuning.
    # H is decomposed less 2 omega N_exc, which commutes with it and only shifts
    # the sector's phase, so the phases carry no rounding of omega t.
    gamma, t = 10.0**log_gamma, gamma_t / 10.0**log_gamma
    h = interaction_hamiltonian(space, 1.0, 2.0 + detuning, gamma).matrix
    h = h - np.diag(twice_excitation_number(space))
    energies, vectors = np.linalg.eigh(h)
    vac = np.zeros(space.field_space.dim, dtype=complex)
    vac[0] = 1.0
    evolved = vectors @ (np.exp(-1j * energies * t) * (vectors.conj().T @ space.state("e", vac)))
    g_block = evolved.reshape(2, -1)[space.atom_index("g")]
    pair = pair_field_vector(space, PAIR_COUPLING.conj() / np.linalg.norm(PAIR_COUPLING))
    amplitude = np.vdot(pair, g_block)
    assert np.linalg.norm(g_block - amplitude * pair) ** 2 <= 1e-14
    if detuning == 0.0:
        # a two-level Rabi problem with coupling sqrt(3) gamma
        assert abs(amplitude) ** 2 == pytest.approx(np.sin(np.sqrt(3.0) * gamma_t) ** 2, abs=1e-13)


def test_maximize_entanglement_reads_the_coupling_array(monkeypatch):
    # no space and no Hamiltonian: the radiated pair is read from C alone
    def refuse(*args, **kwargs):
        raise AssertionError("maximize_entanglement built a space or a Hamiltonian")

    for name in ("atom_field_space", "build_space", "interaction_hamiltonian"):
        monkeypatch.setattr(twins, name, refuse)
    result = maximize_entanglement()
    assert (result.c1_abs, result.c2_abs) == pytest.approx((INV_RT3, RT23), abs=1e-15)
    # C is the m1 + m2 = 0 rule, read-only, and the radiated pair is c1 psi1 + c2 psi2
    support = [[m1 + m2 == 0 for m2 in M_VALUES] for m1 in M_VALUES]
    assert np.array_equal(PAIR_COUPLING != 0, support)
    with pytest.raises(ValueError):
        PAIR_COUPLING[0, 0] = 1.0
    np.testing.assert_allclose(
        PAIR_COUPLING / np.sqrt(3.0), radiated(result.c1_abs, result.c2_abs), atol=1e-15
    )


#: omega0 as (a, b) of a * omega + b: resonant, and detuned by omega and by 1.
_OMEGA0_FORMS = ((2.0, 0.0), (3.0, 0.0), (2.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    log_omega=st.floats(-2.0, 8.0),
    log_gamma=st.floats(-9.0, 2.0),
    omega0_form=st.sampled_from(_OMEGA0_FORMS),
)
def test_selection_rule_passes_at_every_scale(space, log_omega, log_gamma, omega0_form):
    # a correct Hamiltonian passes whatever omega t is: the evolution overlap
    # reads rounding only, not rounding that grows with the 2 omega energy
    omega, gamma = 10.0**log_omega, 10.0**log_gamma
    a, b = omega0_form
    h = interaction_hamiltonian(space, omega, a * omega + b, gamma)
    report = selection_rule_check(h, space, omega, gamma)
    assert report.passed, report
    assert max(report.evolution_overlaps) < 1e-13


@pytest.mark.parametrize(
    "omega,omega0,gamma", [(1.0, 2.0, 1e-9), (1e5, 2e5, 0.05), (1e8, 2e8, 0.05)]
)
def test_selection_rule_overlap_is_rounding_at_large_omega_t(space, omega, omega0, gamma):
    # decomposing the unshifted block, these read 1.5e-7, 2.4e-10 and 3.7e-8
    report = selection_rule_check(interaction_hamiltonian(space, omega, omega0, gamma),
                                  space, omega, gamma)
    assert report.passed and max(report.evolution_overlaps) <= 1e-15


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
    report = selection_rule_check(from_dense(space, h), space, omega=1.0, gamma_coupling=gamma)
    energies, vectors = np.linalg.eigh(h)
    start = vectors.conj().T @ excited
    want = [
        abs(np.vdot(odd, vectors @ (np.exp(-1j * energies * t) * start))) for t in report.times
    ]
    np.testing.assert_allclose(report.evolution_overlaps, want, rtol=0, atol=1e-12)
    assert (max(want) > 1e-4) == (leak > 0.0)
