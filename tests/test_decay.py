"""Decay amplitudes, calibration, conservation, and the AM expectation curve.

The amplitude model (tests/decay_model.py) is the oracle of the closed-form
conservation residual that photonam computes.
"""

import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from decay_model import calibration_constant, excited_amplitude, photon_amplitude, photon_weight
from photonam.decay import (
    _DAMPED_TAU_MAX,
    _SERIES_RADIUS,
    _excited_population,
    _exp1,
    CSV_HEADER,
    DecayParams,
    conservation_check,
    decay_csv_lines,
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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            DecayParams(omega0=bad, gamma=1.0)
        with pytest.raises(ValueError):
            DecayParams(omega0=100.0, gamma=bad)
    # 10/gamma overflows: one ValueError line, not a curve to inf that warns
    for omega0, gamma in ((1.0, 1e-309), (1e308, 1e-308), (np.float64(1e308), np.float64(1e-308))):
        with pytest.raises(ValueError, match="^10/gamma, the decay curve's end, must be finite"):
            DecayParams(omega0=omega0, gamma=gamma)


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


def test_conservation_against_simpson_oracle():
    # the residual from the amplitudes: |C(t)|^2 plus a Simpson sum of |B(k, t)|^2
    # over the window, minus one; it shares no formula with the E1 closed form,
    # and the two agree to ~7e-16 on these nine points
    for ratio in (1e2, 1e3, 1e4):
        params = DecayParams(omega0=ratio, gamma=1.0)
        for t in (0.1, 1.0, 10.0):
            reference = abs(excited_amplitude(t, params)) ** 2 + photon_weight(params, t) - 1.0
            assert conservation_check(params, t) == pytest.approx(reference, rel=0, abs=1e-12)


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


def mpmath_residual(ratio: float, tau: float) -> float:
    """|C|^2 + photon weight - 1 at G t = tau from 30-digit Gauss-Legendre window integrals."""
    with mpmath.workdps(30):
        eps, tau = 1 / mpmath.mpf(ratio), mpmath.mpf(tau)
        lorentz = lambda u: (1 + eps * u) ** 3 / (1 + u * u)
        panels = mpmath.linspace(-40, 40, 17)
        base = mpmath.quad(lorentz, panels, method="gauss-legendre")
        osc = mpmath.quad(lambda u: lorentz(u) * mpmath.cos(u * tau), panels,
                          method="gauss-legendre")
        decay = mpmath.exp(-tau)
        return float(decay**2 + ((1 + decay**2) * base - 2 * decay * osc) / base - 1)


@pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("tau", [0.5, 5.0, 10.0])
def test_conservation_residual_to_full_relative_precision(ratio, tau):
    # at tau = 10 the residual is ~3e-9 and must not be a difference of O(1) terms
    p = DecayParams(omega0=ratio, gamma=1.0)
    assert conservation_check(p, tau) == pytest.approx(mpmath_residual(ratio, tau), rel=1e-12)


def test_conservation_finite_at_extreme_times(params):
    taus = np.array([0.0, 1e-12, 700.0, 710.0, 1e6])
    residuals = conservation_check(params, taus / params.gamma)
    assert np.all(np.isfinite(residuals))
    assert residuals[0] == 0.0
    assert abs(residuals[1]) < 1e-10
    assert np.all(residuals[2:] == 0.0)  # the oscillatory part has underflowed


def window_arguments(tau) -> np.ndarray:
    """The two E1 arguments of the damped window weight at G t = tau: tau (+-1 - 40 i)."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    return np.concatenate([tau * (-1.0 - 40j), tau * (1.0 - 40j)])


def assert_exp1_matches_mpmath(tau) -> None:
    z = window_arguments(tau)
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.e1(mpmath.mpc(w.real, w.imag))) for w in z])
    # |a - b| / |b|: the quotient a / b overflows where |E1| nears 1e304
    relative = np.abs(_exp1(z) - want) / np.abs(want)
    assert np.max(relative) <= 1e-14


def test_exp1_on_a_log_grid_of_window_arguments():
    assert_exp1_matches_mpmath(np.geomspace(1e-6, 700.0, 300))


def test_exp1_across_the_series_seam():
    seam = _SERIES_RADIUS / abs(1.0 - 40j)
    tau = np.concatenate([seam * np.linspace(0.9, 1.1, 41),
                          np.nextafter(seam, [0.0, np.inf])])
    assert np.any(np.abs(window_arguments(tau)) < _SERIES_RADIUS)
    assert np.any(np.abs(window_arguments(tau)) >= _SERIES_RADIUS)
    assert_exp1_matches_mpmath(tau)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(log_tau=st.floats(-6.0, np.log10(700.0)))
def test_exp1_matches_mpmath_over_tau(log_tau):
    assert_exp1_matches_mpmath(10.0**log_tau)


def test_window_weight_quiet_just_below_the_cutoff(params):
    # e^{-z} in _exp1 overflows near tau = 709: _DAMPED_TAU_MAX must stay clear of it
    tau = np.nextafter(_DAMPED_TAU_MAX, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(_exp1(window_arguments(tau))))
        assert np.isfinite(conservation_check(params, tau / params.gamma))


def test_curve_residual_matches_pointwise_check():
    grid = np.linspace(0.0, 10.0, 41)
    p = DecayParams(omega0=1000.0, gamma=1.0)
    pointwise = [conservation_check(p, float(t)) for t in grid]
    curve = sz_curve(p, 41)
    np.testing.assert_array_equal(curve.t, grid)
    np.testing.assert_array_equal(curve.norm_residual, pointwise)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(n=st.integers(2, 5000), log_gamma=st.floats(-300.0, 300.0))
def test_curve_columns_are_the_functions_on_its_grid(n, log_gamma):
    # the curve lays n uniform times from 0 to 10 / gamma; each column is, bit for
    # bit, its function on a grid built here
    gamma = 10.0**log_gamma
    params = DecayParams(1e3 * gamma, gamma)
    curve = sz_curve(params, n)
    t = np.linspace(0.0, 10.0 / gamma, n)
    np.testing.assert_array_equal(curve.t, t)
    np.testing.assert_array_equal(curve.sz_expect, sz_expectation(t, params))
    np.testing.assert_array_equal(curve.excited_pop, np.exp(-2.0 * gamma * t))
    np.testing.assert_array_equal(curve.norm_residual, conservation_check(params, t))
    assert not any(column.flags.writeable for column in
                   (curve.t, curve.sz_expect, curve.excited_pop, curve.norm_residual))


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


@pytest.mark.parametrize("curve", [conservation_check, lambda p, t: sz_expectation(t, p)],
                         ids=["conservation_check", "sz_expectation"])
@pytest.mark.parametrize("bad", [-1.0, np.nan, -np.inf, np.array([0.0, np.nan])])
def test_times_refuse_nan_and_negative(params, curve, bad):
    # np.any(t < 0) is False for NaN, which would come out as a NaN residual
    with pytest.raises(ValueError, match="t must be >= 0 and not NaN"):
        curve(params, bad)


def test_times_accept_infinity(params):
    # the late-time limits: the residual has decayed, the AM expectation is hbar/2
    assert conservation_check(params, np.inf) == 0.0
    assert sz_expectation(np.inf, params) == 0.5
    np.testing.assert_array_equal(conservation_check(params, np.array([0.0, np.inf])), [0.0, 0.0])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(depth=st.floats(0.0, 314.0), log_gamma=st.floats(-3.0, 3.0))
def test_finite_times_up_to_the_float_maximum_warn_nothing(depth, log_gamma):
    # t log-uniform in [1.8e-6, sys.float_info.max]: where G t or 2 G t passes the
    # float range, the curves read their t = inf limits, quietly (the suite turns a
    # RuntimeWarning into an error)
    t, gamma = sys.float_info.max * 10.0**-depth, 10.0**log_gamma
    params, times = DecayParams(omega0=1e3 * gamma, gamma=gamma), np.array([0.0, t])
    sz, residual = sz_expectation(t, params), conservation_check(params, t)
    assert 0.0 <= sz <= 0.5 and np.isfinite(residual)
    assert sz_expectation(times, params)[1] == sz and conservation_check(params, times)[1] == residual
    assert _excited_population(gamma, times)[1] + 2.0 * sz - 1.0 == 0.0
    if gamma * t >= _DAMPED_TAU_MAX:
        assert (sz, residual) == (0.5, 0.0)


def test_sz_curve_structure():
    curve = sz_curve(DecayParams(omega0=1000.0, gamma=1.0), 41)
    assert curve.sz_expect[0] == 0.0
    assert np.all(np.diff(curve.sz_expect) >= 0.0)
    assert np.all(curve.sz_expect <= 0.5)
    assert curve.norm_residual[0] == 0.0
    assert np.max(np.abs(curve.norm_residual[1:])) < 0.05
    # excited population decays exactly as the AM expectation grows
    assert np.max(np.abs(curve.excited_pop + 2.0 * curve.sz_expect - 1.0)) == 0.0


def test_decay_csv(params):
    curve = sz_curve(params, 11)
    lines = decay_csv_lines(curve)
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12
    columns = (curve.t, curve.sz_expect, curve.excited_pop, curve.norm_residual)
    assert lines[1:] == [",".join(f"{col[i]:.12g}" for col in columns) for i in range(11)]
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "1" and first[3] == "0"
