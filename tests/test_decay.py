"""Decay amplitudes, calibration, conservation, and the AM expectation curve."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson
from scipy.optimize import brentq

from photonam.decay import (
    CSV_HEADER,
    DecayParams,
    calibration_constant,
    conservation_check,
    decay_csv_lines,
    excited_amplitude,
    photon_amplitude,
    photon_weight,
    sz_curve,
    sz_expectation,
)


@pytest.fixture(scope="module")
def params():
    return DecayParams(omega0=1000.0, gamma=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        DecayParams(omega0=-1.0, gamma=1.0)
    with pytest.raises(ValueError):
        DecayParams(omega0=100.0, gamma=0.0)
    with pytest.raises(ValueError):
        DecayParams(omega0=100.0, gamma=10.0)  # ratio below Markov floor
    with pytest.raises(ValueError):
        DecayParams(omega0=100.0, gamma=1.0, time_grid=np.array([-1.0]))
    with pytest.raises(ValueError):
        DecayParams(omega0=100.0, gamma=1.0, time_grid=np.array([]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            DecayParams(omega0=bad, gamma=1.0)
        with pytest.raises(ValueError):
            DecayParams(omega0=100.0, gamma=bad)
        with pytest.raises(ValueError):
            DecayParams(omega0=100.0, gamma=1.0, time_grid=np.array([0.0, bad]))


def test_excited_amplitude_values(params):
    assert excited_amplitude(0.0, params) == 1.0 + 0.0j
    assert abs(excited_amplitude(1.0, params)) ** 2 == pytest.approx(
        0.1353352832366127, abs=1e-15
    )
    with pytest.raises(ValueError):
        excited_amplitude(-0.1, params)


def test_excited_amplitude_phase(params):
    for t in (0.001, 0.01, 0.1):
        c = excited_amplitude(t, params)
        # arg C(t) = -omega0 t mod 2 pi
        assert np.exp(1j * (np.angle(c) + params.omega0 * t)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_photon_amplitude_zero_at_t0(params):
    for k in (params.omega0 - 5.0, params.omega0, params.omega0 + 5.0):
        assert photon_amplitude(k, 0.0, params) == 0.0


def test_photon_amplitude_argument_validation(params):
    with pytest.raises(ValueError):
        photon_amplitude(0.0, 1.0, params)
    with pytest.raises(ValueError):
        photon_amplitude(-2.0, 1.0, params)
    with pytest.raises(ValueError):
        photon_amplitude(1.0, -1.0, params)


def test_on_resonance_steady_state(params):
    k_const = calibration_constant(params)
    late = 50.0 / params.gamma
    peak = abs(photon_amplitude(params.omega0, late, params)) ** 2
    assert peak == pytest.approx(
        k_const * params.omega0**3 / params.gamma**2, rel=1e-10
    )


def test_calibration_constant_against_plain_quadrature(params):
    lorentz = lambda k: k**3 / ((k - params.omega0) ** 2 + params.gamma**2)
    window = (params.omega0 - 40.0 * params.gamma, params.omega0 + 40.0 * params.gamma)
    integral, _ = quad(lorentz, *window, limit=800, epsrel=1e-11)
    assert calibration_constant(params) == pytest.approx(1.0 / integral, rel=1e-8)


def test_lorentzian_half_width(params):
    late = 50.0 / params.gamma
    peak = abs(photon_amplitude(params.omega0, late, params)) ** 2

    def half_crossing(k):
        return abs(photon_amplitude(k, late, params)) ** 2 - peak / 2.0

    upper = brentq(half_crossing, params.omega0, params.omega0 + 5.0 * params.gamma)
    lower = brentq(half_crossing, params.omega0 - 5.0 * params.gamma, params.omega0)
    assert upper - params.omega0 == pytest.approx(params.gamma, rel=0.01)
    assert params.omega0 - lower == pytest.approx(params.gamma, rel=0.01)


def test_photon_weight_against_simpson_oracle(params):
    t = 1.0 / params.gamma
    k_grid = np.linspace(
        params.omega0 - 40.0 * params.gamma,
        params.omega0 + 40.0 * params.gamma,
        40001,
    )
    density = np.abs(photon_amplitude(k_grid, t, params)) ** 2
    reference = simpson(density, x=k_grid)
    assert photon_weight(params, t) == pytest.approx(reference, abs=1e-6)


def test_conservation_zero_at_t0(params):
    assert conservation_check(params, 0.0) == 0.0


def quad_residual(ratio: float, tau: float) -> float:
    """|C|^2 + photon weight - 1 at G t = tau from adaptive QAWO window integrals."""
    eps = 1.0 / ratio
    lorentz = lambda u: (1.0 + eps * u) ** 3 / (1.0 + u * u)
    base, _ = quad(lorentz, -40.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=400)
    osc, _ = quad(
        lorentz, -40.0, 40.0, weight="cos", wvar=tau, epsabs=1e-14, epsrel=1e-13,
        limit=max(400, int(40 * tau) + 50),
    )
    decay = np.exp(-tau)
    return decay * decay + ((1.0 + decay * decay) * base - 2.0 * decay * osc) / base - 1.0


@settings(derandomize=True, deadline=None, max_examples=40)
@given(ratio=st.floats(50.0, 1e4), log_tau=st.floats(-6.0, np.log10(50.0)))
def test_closed_form_window_weights_match_quadrature_oracle(ratio, log_tau):
    tau = 10.0**log_tau
    p = DecayParams(omega0=ratio, gamma=1.0)
    assert conservation_check(p, tau) == pytest.approx(quad_residual(ratio, tau), rel=0, abs=1e-12)


def test_conservation_finite_at_extreme_times(params):
    taus = np.array([0.0, 1e-12, 700.0, 710.0, 1e6])
    residuals = conservation_check(params, taus / params.gamma)
    assert np.all(np.isfinite(residuals))
    assert residuals[0] == 0.0
    assert photon_weight(params, 0.0) == 0.0
    assert abs(residuals[1]) < 1e-10
    assert np.all(residuals[2:] == 0.0)  # the oscillatory part has underflowed


def test_curve_residual_matches_pointwise_check():
    grid = np.linspace(0.0, 10.0, 41)
    p = DecayParams(omega0=1000.0, gamma=1.0, time_grid=grid)
    pointwise = [conservation_check(p, float(t)) for t in grid]
    np.testing.assert_array_equal(sz_curve(p).norm_residual, pointwise)


def test_conservation_small_at_late_time(params):
    assert abs(conservation_check(params, 10.0 / params.gamma)) < 0.02
    assert abs(conservation_check(params, 1.0 / params.gamma)) < 0.02


def test_conservation_improves_with_markov_ratio():
    residuals = []
    for ratio in (1e2, 1e3, 1e4):
        p = DecayParams(omega0=ratio, gamma=1.0)
        residuals.append(abs(conservation_check(p, 10.0)))
    assert residuals[0] > residuals[1] > residuals[2]


def test_conservation_scale_invariance():
    a = DecayParams(omega0=1000.0, gamma=1.0)
    b = DecayParams(omega0=2000.0, gamma=2.0)
    assert conservation_check(a, 10.0) == pytest.approx(
        conservation_check(b, 5.0), rel=1e-12
    )


def test_sz_expectation_values(params):
    assert sz_expectation(0.0, params) == 0.0
    half_time = np.log(2.0) / (2.0 * params.gamma)
    assert sz_expectation(half_time, params) == pytest.approx(0.25, abs=1e-15)
    assert sz_expectation(50.0 / params.gamma, params) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        sz_expectation(-1.0, params)


def test_sz_curve_structure():
    grid = np.linspace(0.0, 10.0, 41)
    params = DecayParams(omega0=1000.0, gamma=1.0, time_grid=grid)
    curve = sz_curve(params)
    assert curve.sz_expect[0] == 0.0
    assert np.all(np.diff(curve.sz_expect) >= 0.0)
    assert np.all(curve.sz_expect <= 0.5)
    assert curve.norm_residual[0] == 0.0
    assert np.max(np.abs(curve.norm_residual[1:])) < 0.05
    # excited population decays exactly as the AM expectation grows
    assert np.max(np.abs(curve.excited_pop + 2.0 * curve.sz_expect - 1.0)) == 0.0


def test_decay_csv(params):
    grid = np.linspace(0.0, 10.0, 11)
    p = DecayParams(omega0=1000.0, gamma=1.0, time_grid=grid)
    curve = sz_curve(p)
    lines = decay_csv_lines(curve)
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12
    columns = (curve.t, curve.sz_expect, curve.excited_pop, curve.norm_residual)
    assert lines[1:] == [",".join(f"{col[i]:.12g}" for col in columns) for i in range(11)]
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "1" and first[3] == "0"
