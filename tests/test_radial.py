"""Spherical Bessel modes, normalization, density profiles, zone diagnostics.

The package computes shell integrals from the Lommel antiderivatives

    int_0^X j0(x)^2 x^2 dx = X/2 - sin(2X)/4
    int_0^X j2(x)^2 x^2 dx = (X^3/2) [j2(X)^2 - j1(X) j3(X)].

The tests check them against the same formulas evaluated with scipy's Bessel
routines, and against oracles that share no formula with them: adaptive
`quad` for the normalization, and fixed 16-point Gauss-Legendre panels over
scipy's spherical_jn for the cumulative columns and the wave-zone windows.
The OAM peak is checked against root finders on scipy's and mpmath's j2'.
"""

import functools

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import spherical_jn

from photonam import radial
from photonam.radial import (
    CavityConfig,
    CSV_HEADER,
    f_oam,
    f_spin,
    normalize_mode,
    profile_csv_lines,
    radial_profile,
    spherical_bessel,
    wave_zone_discrepancy,
    zone_report,
)


def cum_j0_sq(x: float) -> float:
    return x / 2.0 - np.sin(2.0 * x) / 4.0


def cum_j2_sq(x: float) -> float:
    j1, j2, j3 = (spherical_jn(ell, x) for ell in (1, 2, 3))
    return (x**3 / 2.0) * (j2 * j2 - j1 * j3)


def reference_cumulatives(config: CavityConfig, x: float) -> tuple[float, float]:
    """Closed-form cum_spin and cum_oam at kr = x."""
    c0 = normalize_mode(config, 0).c_ell
    c2 = normalize_mode(config, 2).c_ell
    base = 1.0 / (3.0 * config.volume * config.k**3)
    cum_s = base * (2.0 * c0 * c0 * cum_j0_sq(x) - 0.5 * c2 * c2 * cum_j2_sq(x))
    cum_l = base * 1.5 * c2 * c2 * cum_j2_sq(x)
    return cum_s, cum_l


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gl_panels(ell: int, edges) -> np.ndarray:
    """int t^2 j_ell(t)^2 dt over each panel between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + half[:, None] * _GL_NODES
    return half * ((t * spherical_jn(ell, t)) ** 2 @ _GL_WEIGHTS)


def gl_cumulative(ell: int, points) -> np.ndarray:
    """int_0^x t^2 j_ell(t)^2 dt at each x of an ascending array, panels <= 1 wide."""
    points = np.asarray(points, dtype=float)
    edges = np.union1d(np.linspace(0.0, points[-1], int(np.ceil(points[-1])) + 1), points)
    cum = np.concatenate(([0.0], np.cumsum(gl_panels(ell, edges))))
    return cum[np.searchsorted(edges, points)]


@functools.cache
def mpmath_oam_peak() -> float:
    """First root of d/dx [sqrt(pi / 2x) J_{5/2}(x)] = j2'(x) at 40 digits."""
    with mpmath.workdps(40):
        j2 = lambda x: mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(mpmath.mpf(5) / 2, x)
        return float(mpmath.findroot(lambda x: mpmath.diff(j2, x), 3.3))


def scipy_oam_peak() -> float:
    return brentq(lambda x: spherical_jn(2, x, derivative=True), 2.0, 5.0, xtol=1e-15)


def near_ratio_oracle(kR: float) -> float:
    """f_spin / f_oam at kr = 0.2 pi from spherical_jn and the Lommel shell integrals."""
    x = 0.2 * np.pi
    j0, j2 = spherical_jn(0, x), spherical_jn(2, x)
    return (4.0 / 3.0) * (cum_j2_sq(kR) / cum_j0_sq(kR)) * (j0 / j2) ** 2 - 1.0 / 3.0


def oracle_densities_integrated(w0, w2, n0, n2):
    """(spin, oam) shell integrals from raw j0^2, j2^2 integrals w and norms n."""
    a0, a2 = w0 / n0, w2 / n2
    return (2.0 * a0 - 0.5 * a2) / 3.0, a2 / 2.0


# ---------------------------------------------------------------- bessel


def test_bessel_limits_exact():
    assert spherical_bessel(0, 0.0) == 1.0
    assert spherical_bessel(2, 0.0) == 0.0


def test_bessel_special_value_at_pi():
    # (3/x^3 - 1/x) sin(pi) = 0 and -(3/x^2) cos(pi) = 3/pi^2
    assert spherical_bessel(2, np.pi) == pytest.approx(3.0 / np.pi**2, rel=1e-14)


@pytest.mark.parametrize("x", [1.0, 2.0, 10.0])
def test_bessel_j0_definition(x):
    assert spherical_bessel(0, x) == np.sin(x) / x


def test_bessel_matches_scipy_over_wide_range():
    x = np.concatenate([np.geomspace(1e-4, 500.0, 400), [0.0]])
    for ell in (0, 2):
        ours = spherical_bessel(ell, x)
        ref = spherical_jn(ell, x)
        np.testing.assert_allclose(ours, ref, atol=1e-13, rtol=1e-12)


def test_bessel_series_seam():
    seam = radial.SERIES_SWITCH
    j0_closed = np.sin(seam) / seam
    j2_closed = (3.0 / seam**3 - 1.0 / seam) * np.sin(seam) - 3.0 * np.cos(seam) / seam**2
    assert abs(radial._bessel_series(0, seam) - j0_closed) < 1e-12
    assert abs(radial._bessel_series(2, seam) - j2_closed) < 1e-12


def test_bessel_errors():
    with pytest.raises(ValueError):
        spherical_bessel(0, -1.0)
    with pytest.raises(ValueError):
        spherical_bessel(1, 1.0)


def test_bessel_array_shape():
    out = spherical_bessel(2, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2)


# ---------------------------------------------------------------- config


def test_cavity_config_validation():
    with pytest.raises(ValueError):
        CavityConfig(k=0.0, R=100.0)
    with pytest.raises(ValueError):
        CavityConfig(k=1.0, R=-1.0)
    with pytest.raises(ValueError):
        CavityConfig(k=1.0, R=10.0)  # kR below the enforced floor
    with pytest.raises(ValueError, match="kR"):
        CavityConfig(k=1.0, R=np.nextafter(radial.MAX_KR, np.inf))
    assert CavityConfig(k=1.0, R=radial.MAX_KR).kR == radial.MAX_KR
    for bad in (np.nan, np.inf):
        for field in ("k", "R"):
            with pytest.raises(ValueError, match=field):
                CavityConfig(**{field: bad})
    config = CavityConfig(k=2.0, R=50.0)
    assert config.kR == 100.0
    assert config.volume == pytest.approx(4.0 * np.pi * 50.0**3 / 3.0)
    assert config.wavelength == pytest.approx(np.pi)


# ---------------------------------------------------------------- normalization


@pytest.mark.parametrize("kR", [20.0, 50.0, 100.0, 500.0])
@pytest.mark.parametrize("ell", [0, 2])
def test_normalization_round_trip(kR, ell):
    config = CavityConfig(k=1.0, R=kR)
    mode = normalize_mode(config, ell)
    integral, _ = quad(
        lambda x: mode.evaluate(x) ** 2 * x * x, 0.0, kR, limit=2000, epsrel=1e-12
    )
    assert abs(integral - config.volume) < 1e-8 * config.volume


@pytest.mark.parametrize("ell", [0, 2])
def test_shell_antiderivative_across_series_seam(ell):
    seam = radial._LOMMEL_SWITCH[ell]
    x = np.array([1e-3, 0.1, 1.0, np.nextafter(seam, 0.0), seam, 5.0])
    want = np.cumsum(gl_panels(ell, np.concatenate(([0.0], x))))
    np.testing.assert_allclose(radial._shell_antiderivative(ell, x), want, rtol=1e-14)


def test_c0_large_argument_asymptotic():
    config = CavityConfig(k=1.0, R=100.0)
    c0 = normalize_mode(config, 0).c_ell
    assert c0 == pytest.approx(np.sqrt(8.0 * np.pi / 3.0) * 100.0, rel=0.02)


def test_c0_against_closed_form():
    for kR in (20.0, 100.0, 500.0):
        config = CavityConfig(k=1.0, R=kR)
        c0 = normalize_mode(config, 0).c_ell
        expected = np.sqrt(config.volume / cum_j0_sq(kR))
        assert c0 == pytest.approx(expected, rel=1e-9)


def test_c2_against_closed_form():
    for kR in (20.0, 100.0, 500.0):
        config = CavityConfig(k=1.0, R=kR)
        c2 = normalize_mode(config, 2).c_ell
        expected = np.sqrt(config.volume / cum_j2_sq(kR))
        assert c2 == pytest.approx(expected, rel=1e-9)


def test_mode_amplitude_ratio_approaches_one():
    deviations = []
    for kR in (50.0, 100.0, 500.0):
        config = CavityConfig(k=1.0, R=kR)
        ratio = normalize_mode(config, 0).c_ell / normalize_mode(config, 2).c_ell
        deviations.append(abs(ratio - 1.0))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[-1] < 0.01


def test_normalize_mode_invalid_ell():
    with pytest.raises(ValueError):
        normalize_mode(CavityConfig(k=1.0, R=100.0), 1)


# ---------------------------------------------------------------- densities


@pytest.fixture(scope="module")
def config():
    return CavityConfig(k=1.0, R=100.0)


def test_f_oam_zero_at_origin(config):
    assert f_oam(0.0, config) == 0.0


def test_f_spin_at_origin(config):
    c0 = normalize_mode(config, 0).c_ell
    assert f_spin(0.0, config) == pytest.approx(
        2.0 * c0 * c0 / (3.0 * config.volume), rel=1e-12
    )


def test_f_oam_non_negative(config):
    x = np.linspace(0.0, config.kR, 5000)
    assert np.min(f_oam(x, config)) >= 0.0


def test_f_oam_quartic_small_argument(config):
    # j2 ~ x^2/15 gives f_oam ~ x^4
    ratio = f_oam(2e-3, config) / f_oam(1e-3, config)
    assert ratio == pytest.approx(16.0, rel=1e-3)


def test_density_negative_kr_errors(config):
    with pytest.raises(ValueError):
        f_spin(-0.5, config)
    with pytest.raises(ValueError):
        f_oam(np.array([1.0, -1.0]), config)


# ---------------------------------------------------------------- profile


def test_profile_requires_minimum_sampling(config):
    with pytest.raises(ValueError):
        radial_profile(config, 99)


def test_zone_report_requires_minimum_sampling(config):
    # no diagnostic reads a profile, but n_samples is validated all the same
    with pytest.raises(ValueError, match="n_samples must be >= 100"):
        zone_report(config, 99)
    assert zone_report(config, 100) == zone_report(config)


@pytest.mark.parametrize("kR", [20.0, 100.0, 500.0])
def test_shell_integral_conservation(kR):
    profile = radial_profile(CavityConfig(k=1.0, R=kR), 2000)
    assert abs(profile.cum_spin[-1] - 0.5) < 1e-6
    assert abs(profile.cum_oam[-1] - 0.5) < 1e-6
    assert abs(profile.cum_spin[-1] + profile.cum_oam[-1] - 1.0) < 2e-6


def test_cumulative_against_closed_form(config):
    profile = radial_profile(config, 500)
    for idx in (0, 49, 249, 499):
        x = profile.kr[idx]
        ref_s, ref_l = reference_cumulatives(config, x)
        assert profile.cum_spin[idx] == pytest.approx(ref_s, abs=1e-9)
        assert profile.cum_oam[idx] == pytest.approx(ref_l, abs=1e-9)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    kR=st.floats(20.0, 2e4),
    n_samples=st.integers(100, 4000),
    picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
def test_cumulative_columns_match_quadrature_oracle(kR, n_samples, picks):
    profile = radial_profile(CavityConfig(k=1.0, R=kR), n_samples)
    idx = np.unique([min(int(p * n_samples), n_samples - 1) for p in picks])
    points = np.append(profile.kr[idx], kR)
    c0, c2 = gl_cumulative(0, points), gl_cumulative(2, points)
    spin, oam = oracle_densities_integrated(c0[:-1], c2[:-1], c0[-1], c2[-1])
    np.testing.assert_allclose(profile.cum_spin[idx], spin, rtol=0, atol=1e-12)
    np.testing.assert_allclose(profile.cum_oam[idx], oam, rtol=0, atol=1e-12)


def test_cumulative_oam_monotone(config):
    profile = radial_profile(config, 1000)
    assert np.all(np.diff(profile.cum_oam) >= 0.0)


def test_quadrature_step_halving(config):
    coarse = radial_profile(config, 500)
    fine = radial_profile(config, 1000)
    # coarse grid point i sits at fine grid point 2i+1
    for i in (99, 299, 499):
        assert abs(coarse.kr[i] - fine.kr[2 * i + 1]) < 1e-9
        assert abs(coarse.cum_spin[i] - fine.cum_spin[2 * i + 1]) < 1e-8
        assert abs(coarse.cum_oam[i] - fine.cum_oam[2 * i + 1]) < 1e-8


def test_profile_deterministic(config):
    a = radial_profile(config, 300)
    b = radial_profile(config, 300)
    np.testing.assert_array_equal(a.cum_spin, b.cum_spin)
    np.testing.assert_array_equal(a.f_oam, b.f_oam)


# ---------------------------------------------------------------- zones


def test_near_zone_ratio_matches_closed_form(config):
    report = zone_report(config)
    x = 0.2 * np.pi
    c0 = normalize_mode(config, 0).c_ell
    c2 = normalize_mode(config, 2).c_ell
    j0, j2 = spherical_jn(0, x), spherical_jn(2, x)
    expected = (2.0 * c0**2 * j0**2 - 0.5 * c2**2 * j2**2) / (1.5 * c2**2 * j2**2)
    assert report.near_ratio == pytest.approx(expected, rel=1e-12)
    assert report.near_ratio > 1e3


def test_oam_peak_location(config):
    report = zone_report(config)
    assert report.oam_peak_r * config.k == pytest.approx(scipy_oam_peak(), abs=1e-14)
    assert 0.4 <= report.oam_peak_over_lambda <= 0.65


@pytest.mark.parametrize("kR, n_samples", [(100.0, 100), (5e3, 2000), (8e3, 2000), (1e8, 2000)])
def test_oam_peak_bracketed_inside_first_wavelength(kR, n_samples):
    # grid spacings 1, 2.5, 4 and 5e4: the last two leave at most one sample in (0, lambda]
    report = zone_report(CavityConfig(k=1.0, R=kR), n_samples)
    assert report.oam_peak_r == pytest.approx(scipy_oam_peak(), abs=1e-14)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    log_kR=st.floats(np.log10(20.0), 14.0),
    n_samples=st.integers(100, 5000),
)
def test_zone_diagnostics_independent_of_the_grid(log_kR, n_samples):
    config = CavityConfig(k=1.0, R=10.0**log_kR)
    report = zone_report(config, n_samples)
    other = zone_report(config, 100 if n_samples > 100 else 5000)
    assert report.oam_peak_r == other.oam_peak_r
    assert report.near_ratio == other.near_ratio
    assert abs(report.oam_peak_r * config.k - mpmath_oam_peak()) <= 1e-15
    assert report.near_ratio == pytest.approx(near_ratio_oracle(config.kR), rel=1e-12)


def test_bessel_large_arguments_without_overflow_warning():
    x = np.array([0.05, 1e8, 1e100])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = spherical_bessel(2, x)
    assert np.all(np.isfinite(values))
    assert values[1] == pytest.approx(spherical_jn(2, 1e8), rel=1e-6, abs=1e-14)


def test_wave_zone_discrepancy_small_at_kr200():
    report = zone_report(CavityConfig(k=1.0, R=200.0))
    assert report.wave_zone_discrepancy < 0.05


def test_wave_zone_discrepancy_monotone_octaves():
    wide = CavityConfig(k=1.0, R=1000.0)
    starts = (12.5, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
    values = [wave_zone_discrepancy(wide, s) for s in starts]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_wave_zone_discrepancy_against_quadrature_oracle():
    # the discrepancy is ~5e-6 at start 800, so every sum here is exact-rounded
    wide = CavityConfig(k=1.0, R=1000.0)
    cavity_edges = np.linspace(0.0, wide.kR, 1001)
    n0, n2 = (math.fsum(gl_panels(ell, cavity_edges)) for ell in (0, 2))
    for start in (100.0, 200.0, 400.0, 800.0):
        edges = np.linspace(start, start + 2.0 * np.pi, 8)
        w0, w2 = (math.fsum(gl_panels(ell, edges)) for ell in (0, 2))
        spin, oam = oracle_densities_integrated(w0, w2, n0, n2)
        want = abs(spin - oam) / spin
        assert wave_zone_discrepancy(wide, start) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_wave_zone_asymptotic_magnitude():
    # windowed-averaged densities approach (1/2V) c^2 sin^2(x)/x^2, whose
    # shell integral over one wavelength is (c^2 / 2V) pi
    wide = CavityConfig(k=1.0, R=1000.0)
    c0 = normalize_mode(wide, 0).c_ell
    expected = c0 * c0 * np.pi / (2.0 * wide.volume)
    i_s, i_l = radial.window_shell_integrals(wide, 800.0)
    assert i_s == pytest.approx(expected, rel=0.01)
    assert i_l == pytest.approx(expected, rel=0.01)


def test_window_must_fit_in_cavity(config):
    with pytest.raises(ValueError):
        wave_zone_discrepancy(config, config.kR)


def test_zone_report_json(config):
    payload = zone_report(config).to_json_dict()
    assert set(payload) == {
        "near_ratio",
        "oam_peak_r",
        "oam_peak_over_lambda",
        "wave_zone_discrepancy",
    }


# ---------------------------------------------------------------- csv


def test_csv_shape_and_precision(config):
    profile = radial_profile(config, 120)
    lines = profile_csv_lines(profile)
    assert lines[0] == CSV_HEADER
    assert len(lines) == 121
    row = lines[1].split(",")
    assert len(row) == 5
    assert float(row[0]) == pytest.approx(profile.kr[0], rel=1e-11)
    # 12 significant digits round-trip
    assert row[1] == f"{profile.f_spin[0]:.12g}"


def test_csv_writer(config):
    # the shared row formatter against a per-index loop over the columns
    profile = radial_profile(config, 120)
    columns = (profile.kr, profile.f_spin, profile.f_oam, profile.cum_spin, profile.cum_oam)
    rows = [",".join(f"{col[i]:.12g}" for col in columns) for i in range(120)]
    assert profile_csv_lines(profile) == [CSV_HEADER] + rows
