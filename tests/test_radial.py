"""Spherical Bessel modes, normalization, density profiles, zone diagnostics.

The package computes shell integrals from the Lommel antiderivatives

    int_0^X j0(x)^2 x^2 dx = X/2 - sin(2X)/4
    int_0^X j2(x)^2 x^2 dx = (X^3/2) [j2(X)^2 - j1(X) j3(X)].

The tests check them against the same formulas evaluated with scipy's Bessel
routines, and against oracles that share no formula with them: adaptive
`quad` for the normalization, and fixed 16-point Gauss-Legendre panels over
scipy's spherical_jn for the cumulative columns, the wave-zone windows and
the shell quadrature. The OAM peak is checked against root finders on
scipy's and mpmath's j2', and verify-all's window discrepancies against mpmath.
"""

import functools
import json

import math
import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
from numpy.polynomial.polynomial import polyval
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import spherical_jn

from photonam import cli, radial
from photonam.cli import main
from photonam.radial import (
    CavityConfig,
    CSV_HEADER,
    NEAR_RATIO_MIN,
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
    c0 = normalize_mode(config, 0)
    c2 = normalize_mode(config, 2)
    base = 1.0 / (3.0 * config.volume * config.k**3)
    cum_s = base * (2.0 * c0 * c0 * cum_j0_sq(x) - 0.5 * c2 * c2 * cum_j2_sq(x))
    cum_l = base * 1.5 * c2 * c2 * cum_j2_sq(x)
    return cum_s, cum_l


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def test_shell_rule_is_numpys_gauss_legendre_bitwise():
    # radial writes the rule out as hex floats; numpy solves for it
    assert radial._GL_NODES.tobytes() == _GL_NODES.tobytes()
    assert radial._GL_WEIGHTS.tobytes() == _GL_WEIGHTS.tobytes()


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


def test_series_horner_rounds_as_polyval():
    # the series run in-place Horner steps; numpy's polyval is the loop they must round like,
    # each series alone and all four from the stacked (terms, 4, 1) table in one pass
    x = np.linspace(0.0, 9.0, 20001)
    table = radial._SERIES
    stacked = radial._horner(x, table)
    assert stacked.shape == (4, x.size)
    for row, coefficients in enumerate(table[:, :, 0].T):
        want = polyval(x, coefficients)
        assert np.array_equal(radial._horner(x, coefficients), want)
        assert np.array_equal(stacked[row], want)


def test_bessel_series_seam():
    # at its seam each Bessel series of the stacked table agrees with the textbook
    # closed form to 1 ulp
    x0, x2 = radial.SERIES_SWITCH[0], radial.SERIES_SWITCH[2]
    series = radial._horner(np.array([x0, x2]) ** 2, radial._SERIES)
    j0_closed = np.sin(x0) / x0
    j2_closed = (3.0 / x2**3 - 1.0 / x2) * np.sin(x2) - 3.0 * np.cos(x2) / x2**2
    assert series[0, 0] == pytest.approx(j0_closed, rel=2.3e-16, abs=0)
    assert x2**2 * series[1, 1] == pytest.approx(j2_closed, rel=2.3e-16, abs=0)


def test_bessel_relative_error_against_mpmath():
    # relative, not absolute: near x = 0.1 j2 is ~7e-4, so an absolute bound of
    # 1e-13 cannot see a relative error of 1e-10 there
    x = np.concatenate([np.geomspace(1e-4, 5.5, 300), np.linspace(0.05, 3.5, 300)])
    with mpmath.workdps(40):
        for ell in (0, 2):
            for value, arg in zip(spherical_bessel(ell, x), map(mpmath.mpf, x)):
                exact = mpmath.sqrt(mpmath.pi / (2 * arg)) * mpmath.besselj(ell + 0.5, arg)
                assert abs((value - exact) / exact) <= 1e-15, (ell, arg)


def test_bessel_errors():
    with pytest.raises(ValueError):
        spherical_bessel(0, -1.0)
    with pytest.raises(ValueError):
        spherical_bessel(1, 1.0)
    # a float order equal to 0 or 2 is refused, not used as a row index
    for ell in (2.0, 0.0, np.float64(2), True):
        with pytest.raises(ValueError, match="^ell must be the integer 0 or 2, got [^\n]*$"):
            spherical_bessel(ell, 1.0)
    assert spherical_bessel(np.int64(2), 1.0) == spherical_bessel(2, 1.0)


@pytest.mark.parametrize("ell", [0, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan])])
def test_bessel_refuses_nan_and_infinity(ell, bad):
    # np.any(x < 0) is False for NaN, and j_ell(inf) would come out NaN
    with pytest.raises(ValueError, match="finite and >= 0"):
        spherical_bessel(ell, bad)


def test_bessel_array_shape():
    out = spherical_bessel(2, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2)


def _straddle(seam):
    """One argument below seam and one at or above it."""
    return st.tuples(st.floats(0.0, seam, exclude_max=True), st.floats(seam, 4.0 * seam))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    pairs=st.tuples(*(_straddle(s) for s in radial.SERIES_SWITCH.values())),
    extra=st.lists(st.floats(0.0, 1e3), max_size=6),
)
def test_scalar_calls_equal_array_elements_bitwise(pairs, extra):
    # a 0-d call evaluates the series only below the upper seam; the array call
    # evaluates both branches on a mix of arguments on either side of every seam
    xs = [x for pair in pairs for x in pair] + extra
    whole = radial._radial_functions(np.array(xs))
    single = np.array([radial._radial_functions(x) for x in xs]).T
    assert whole.shape == single.shape == (4, len(xs))
    assert whole.tobytes() == single.tobytes()
    for row, ell in enumerate((0, 2)):
        assert spherical_bessel(ell, np.array(xs)).tobytes() == whole[row].tobytes()
        assert [spherical_bessel(ell, x) for x in xs] == whole[row].tolist()


@pytest.mark.parametrize("x", [4.9e102, 1e103, 1e200, 1.7e308])
def test_kernel_far_out_warns_nothing(x):
    # x^3 of the A_2 row overflows past ~5.6e102, 2x of the A_0 row past ~9e307: those
    # rows go inf or NaN unwarned, scalar as array, while j0 and j2 keep their digits
    scalar, array = radial._radial_functions(x), radial._radial_functions(np.array([x]))
    assert scalar.tobytes() == array[:, 0].tobytes()
    with mpmath.workdps(40):
        big = mpmath.mpf(x)
        sin, cos = mpmath.sin(big), mpmath.cos(big)
        want = [float(sin / big), float((3 / big**2 - 1) * sin / big - 3 * cos / big**2)]
    for ell, value in zip((0, 2), want):
        assert spherical_bessel(ell, x) == scalar[ell // 2]
        assert spherical_bessel(ell, np.array([x, x])).tolist() == [scalar[ell // 2]] * 2
        assert spherical_bessel(ell, x) == pytest.approx(value, rel=1e-14, abs=0.0)
    cavity = CavityConfig()
    assert np.isfinite(f_spin(x, cavity)) and np.isfinite(f_oam(np.array([x]), cavity)).all()


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


@pytest.mark.parametrize("scalar", [float, np.float64])
def test_cavity_config_refuses_overflowing_cubes(scalar):
    # a Python float cubed past the float range raises OverflowError, a numpy one warns
    refusal = r"^volume and k\^3 must be finite, got R={}, k={}$"
    with pytest.raises(ValueError, match=refusal.format(r"1e\+110", "1e-100")):
        CavityConfig(scalar(1e-100), scalar(1e110))
    with pytest.raises(ValueError, match=refusal.format("1e-100", r"1e\+110")):
        CavityConfig(scalar(1e110), scalar(1e-100))
    assert normalize_mode(CavityConfig(scalar(0.5), scalar(80.0)), 2) == normalize_mode(
        CavityConfig(0.5, 80.0), 2)


# ---------------------------------------------------------------- normalization


@pytest.mark.parametrize("kR", [20.0, 50.0, 100.0, 500.0])
@pytest.mark.parametrize("ell", [0, 2])
def test_normalization_round_trip(kR, ell):
    config = CavityConfig(k=1.0, R=kR)
    c_ell = normalize_mode(config, ell)
    integral, _ = quad(
        lambda x: (c_ell * spherical_jn(ell, x)) ** 2 * x * x, 0.0, kR, limit=2000, epsrel=1e-12
    )
    assert abs(integral - config.volume) < 1e-8 * config.volume


@pytest.mark.parametrize("ell", [0, 2])
def test_shell_antiderivative_across_series_seam(ell):
    # rows A_0 and A_2 of the kernel, on both sides of both seams
    seams = list(radial.SERIES_SWITCH.values())
    x = np.sort([1e-3, 0.1, 1.0, 5.0, *seams, *np.nextafter(seams, 0.0)])
    want = np.cumsum(gl_panels(ell, np.concatenate(([0.0], x))))
    np.testing.assert_allclose(radial._radial_functions(x)[2 + ell // 2], want, rtol=1e-14)


def test_one_kernel_call_per_profile_density_and_normalization(monkeypatch):
    # j0, j2, A_0 and A_2 come from one kernel call on each set of points
    kernel, calls = radial._radial_functions, []

    def counted(x):
        calls.append(np.shape(x))
        return kernel(x)

    monkeypatch.setattr(radial, "_radial_functions", counted)
    cavity = CavityConfig(k=1.0, R=100.0)
    normalize_mode(cavity, 2)
    assert calls == [()]
    cavity.density_weights  # both normalizations read the cavity's one kernel call
    assert calls == [()]
    calls.clear()
    radial_profile(cavity, 300)
    assert calls == [(300,)]
    calls.clear()
    radial._densities(np.linspace(0.0, 5.0, 7), cavity)
    f_oam(2.5, cavity)
    assert calls == [(7,), ()]


def test_kernel_writes_its_rows_in_place():
    # at 10^6 samples a float array is 8 MB: the grid, the four kernel rows,
    # x clipped to its seam and j1, then a temporary, or the profile's own
    # columns later, nine in all, where copying the rows took eleven
    cavity = CavityConfig(k=1.0, R=100.0)
    cavity.density_weights
    tracemalloc.start()
    try:
        radial_profile(cavity, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 8 * 10**6 + 2**16


@pytest.mark.parametrize("x", [0.0, 1.5, 2.5, 4.0, 1e14])
def test_kernel_at_a_scalar_matches_the_kernel_on_an_array(x):
    # a 0-d argument takes the scalar path, _point_rows
    assert np.array_equal(radial._radial_functions(x), radial._radial_functions(np.array([x]))[:, 0])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(x=st.one_of(st.floats(0.0, 1e14), st.floats(0.0, 4.0)))
def test_scalar_kernel_rows_equal_one_element_array_rows_bitwise(x):
    # the scalar path's float arithmetic and 0-d ufuncs round as the array path's loops;
    # the second strategy crowds the draws around both series seams
    assert radial._radial_functions(x).tobytes() == radial._radial_functions(np.array([x])).tobytes()


def test_c0_large_argument_asymptotic():
    config = CavityConfig(k=1.0, R=100.0)
    c0 = normalize_mode(config, 0)
    assert c0 == pytest.approx(np.sqrt(8.0 * np.pi / 3.0) * 100.0, rel=0.02)


def test_c0_against_closed_form():
    for kR in (20.0, 100.0, 500.0):
        config = CavityConfig(k=1.0, R=kR)
        c0 = normalize_mode(config, 0)
        expected = np.sqrt(config.volume / cum_j0_sq(kR))
        assert c0 == pytest.approx(expected, rel=1e-9)


def test_c2_against_closed_form():
    for kR in (20.0, 100.0, 500.0):
        config = CavityConfig(k=1.0, R=kR)
        c2 = normalize_mode(config, 2)
        expected = np.sqrt(config.volume / cum_j2_sq(kR))
        assert c2 == pytest.approx(expected, rel=1e-9)


def test_mode_amplitude_ratio_approaches_one():
    deviations = []
    for kR in (50.0, 100.0, 500.0):
        config = CavityConfig(k=1.0, R=kR)
        ratio = normalize_mode(config, 0) / normalize_mode(config, 2)
        deviations.append(abs(ratio - 1.0))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[-1] < 0.01


def test_normalize_mode_invalid_ell():
    with pytest.raises(ValueError):
        normalize_mode(CavityConfig(k=1.0, R=100.0), 1)
    for ell in (2.0, 0.0, np.float64(2), False):
        with pytest.raises(ValueError, match="^ell must be the integer 0 or 2, got [^\n]*$"):
            normalize_mode(CavityConfig(k=1.0, R=100.0), ell)
    cavity = CavityConfig(k=1.0, R=100.0)
    assert normalize_mode(cavity, np.int64(2)) == normalize_mode(cavity, 2)


def test_density_weights_computed_once_per_cavity(monkeypatch):
    exact = radial.normalize_mode
    calls = []

    def counting(config, ell):
        calls.append((config.kR, ell))
        return exact(config, ell)

    monkeypatch.setattr(radial, "normalize_mode", counting)
    cavity = CavityConfig(k=1.0, R=100.0)
    assert calls == []  # built lazily
    radial_profile(cavity, 200)
    zone_report(cavity)
    points = np.array([0.0, 0.5, 3.0, 50.0])
    for density in (f_spin, f_oam):
        density(3.0, cavity)
        density(points, cavity)
    assert calls == [(100.0, 0), (100.0, 2)]

    twin = CavityConfig(k=1.0, R=100.0)  # an equal cavity has its own weights
    assert twin == cavity and hash(twin) == hash(cavity)
    assert repr(twin) == repr(cavity) == "CavityConfig(k=1.0, R=100.0)"
    f_spin(3.0, twin)
    assert len(calls) == 4
    copy = replace(cavity)
    assert copy == cavity and hash(copy) == hash(cavity)
    f_oam(points, copy)
    assert len(calls) == 6
    wider = replace(cavity, R=200.0)
    assert wider != cavity
    f_spin(3.0, wider)
    assert calls[-2:] == [(200.0, 0), (200.0, 2)]
    with pytest.raises(FrozenInstanceError):
        cavity.density_weights = (1.0, 1.0)

    for config in (cavity, wider, CavityConfig(k=0.5, R=41.0), CavityConfig(k=3.0, R=1e12)):
        base = 1.0 / (3.0 * config.volume)
        c0, c2 = exact(config, 0), exact(config, 2)
        assert config.density_weights == (base * c0 * c0, base * c2 * c2)


# ---------------------------------------------------------------- densities


@pytest.fixture(scope="module")
def config():
    return CavityConfig(k=1.0, R=100.0)


def test_profile_columns_equal_density_calls_bitwise(config):
    # the profile, f_spin and f_oam all read one _densities evaluation
    profile = radial_profile(config, 500)
    assert profile.f_spin.tobytes() == f_spin(profile.kr, config).tobytes()
    assert profile.f_oam.tobytes() == f_oam(profile.kr, config).tobytes()
    for x in (0.0, 0.05, 0.2 * np.pi, 3.0, 99.5):
        assert (f_spin(x, config), f_oam(x, config)) == radial._densities(x, config)


def test_f_oam_zero_at_origin(config):
    assert f_oam(0.0, config) == 0.0


def test_f_spin_at_origin(config):
    c0 = normalize_mode(config, 0)
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


@pytest.mark.parametrize("density", [f_spin, f_oam])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan])])
def test_density_refuses_nan_and_infinity(config, density, bad):
    with pytest.raises(ValueError, match="kr must be finite and >= 0"):
        density(bad, config)


# ---------------------------------------------------------------- profile


def test_profile_requires_minimum_sampling(config):
    with pytest.raises(ValueError):
        radial_profile(config, 99)


@pytest.mark.parametrize("n_samples", [10**12, radial.MAX_SAMPLES + 1, 150.5, "2000"])
def test_profile_refuses_oversized_or_fractional_grids_before_allocating(config, n_samples):
    # 10^12 samples asked numpy for 7.28 TiB, and a float count failed in linspace;
    # zone_report, which reads no profile, validates n_samples the same way. The CLI
    # writes the cap out, so that its --samples refusal loads no numpy
    assert cli.MAX_SAMPLES == radial.MAX_SAMPLES
    if isinstance(n_samples, int):
        refusal = f"n_samples must be an integer <= 1000000, got {n_samples}"
    else:
        refusal = f"n_samples must be an integer, got {n_samples!r}"
    for report in (radial_profile, zone_report):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                report(config, n_samples)
            assert tracemalloc.get_traced_memory()[1] < 2**16
        finally:
            tracemalloc.stop()


def test_zone_report_requires_minimum_sampling(config):
    # no diagnostic reads a profile, but n_samples is validated all the same
    with pytest.raises(ValueError, match="n_samples must be >= 100"):
        zone_report(config, 99)
    assert zone_report(config, 100) == zone_report(config)


def composite_simpson(x: np.ndarray, y: np.ndarray) -> float:
    """Composite Simpson's rule on a uniform grid with an even number of intervals."""
    assert (len(x) - 1) % 2 == 0
    h = (x[-1] - x[0]) / (len(x) - 1)
    return float(h / 3.0 * (y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]))


@pytest.mark.parametrize("kR", [20.0, 100.0, 500.0])
def test_shell_integral_conservation(kR):
    # Simpson over the profile's own density columns, not its cumulative ones,
    # which radial_profile normalizes to 1/2 at kR by construction; the origin,
    # where kr^2 f vanishes, makes 2000 intervals
    profile = radial_profile(CavityConfig(k=1.0, R=kR), 2000)
    kr = np.concatenate(([0.0], profile.kr))
    for density in (profile.f_spin, profile.f_oam):
        integrand = np.concatenate(([0.0], density * profile.kr**2))
        assert abs(composite_simpson(kr, integrand) - 0.5) < 1e-6


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
    c0 = normalize_mode(config, 0)
    c2 = normalize_mode(config, 2)
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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(log_kR=st.floats(np.log10(20.0), 14.0))
def test_near_ratio_clears_the_verify_all_bound(log_kR):
    # near_ratio reads 1760-1783 over the whole kR range, so f_oam x 1.2 fails
    # the bound at every kR
    report = zone_report(CavityConfig(k=1.0, R=10.0**log_kR))
    assert NEAR_RATIO_MIN < report.near_ratio < 1.2 * NEAR_RATIO_MIN


@pytest.mark.parametrize("kR", [100.0, 5736.288000174625, 20000.0, 1.58e13])
def test_near_zone_check_reads_no_profile(monkeypatch, kR):
    # f_spin peaks at the atom on a grid fixed in kr; a profile grid starting at
    # kR / 2000 began past the central lobe from kR ~ 5268 on
    def refuse(*args):
        raise AssertionError("near_zone_spin_dominance built a profile")

    monkeypatch.setattr(radial, "radial_profile", refuse)
    cavity = CavityConfig(k=1.0, R=kR)
    check = radial.near_zone_spin_dominance(cavity, zone_report(cavity))
    assert check.passed and check.bound == NEAR_RATIO_MIN
    assert check.values == {"near_ratio": zone_report(cavity).near_ratio}


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
    c0 = normalize_mode(wide, 0)
    expected = c0 * c0 * np.pi / (2.0 * wide.volume)
    i_s, i_l = radial.shell_integrals(wide, 800.0, 800.0 + 2.0 * np.pi)
    assert i_s == pytest.approx(expected, rel=0.01)
    assert i_l == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize(
    "start, stop",
    [(math.nan, 5.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (math.inf, 0.0),
     (0.0, 1e18), (0.0, 98175.0)],
)
def test_shell_integrals_refuse_unbounded_intervals(start, stop):
    # one line before linspace allocates: a non-finite bound, or more than 10^6
    # nodes (62500 panels of 16, kr intervals past 62500 pi / 2 ~ 98174.8)
    cavity = CavityConfig(k=1.0, R=500.0)
    if not math.isfinite(start):
        refusal = f"start_kr must be finite, got {start}"
    elif not math.isfinite(stop):
        refusal = f"stop_kr must be finite, got {stop}"
    else:
        refusal = f"kr bounds must be finite and need at most 1000000 nodes, got [{start}, {stop}]"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            radial.shell_integrals(cavity, start, stop)
        assert tracemalloc.get_traced_memory()[1] < 2**16
    finally:
        tracemalloc.stop()


def test_shell_integrals_size_their_panels_from_the_interval(monkeypatch):
    # panels at most a quarter wavelength (pi/2 in kr) wide, at least 8, 16 nodes each
    sizes = []
    exact = radial._densities

    def densities(kr, config):
        sizes.append(np.size(kr))
        return exact(kr, config)

    monkeypatch.setattr(radial, "_densities", densities)
    cavity = CavityConfig(k=1.0, R=500.0)
    for start, stop in ((0.0, 500.0), (0.0, 20.0), (100.0, 100.0 + 2.0 * np.pi), (9.0, 22.0)):
        radial.shell_integrals(cavity, start, stop)
    assert sizes == [16 * panels for panels in (319, 13, 8, 9)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kR=st.floats(20.0, 1e4),
    wavelengths=st.floats(0.5, 20.0),
    place=st.floats(0.0, 1.0),
)
def test_shell_integrals_match_fine_panel_oracle(kR, wavelengths, place):
    # the oracle lays 64 panels per wavelength over scipy's spherical_jn and sums
    # them exactly; the gap is node-position rounding at large kr (at most 6.3e-13
    # over 3000 random draws)
    cavity = CavityConfig(k=1.0, R=kR)
    width = min(wavelengths * 2.0 * np.pi, kR)
    start = place * (kR - width)
    stop = start + width
    edges = np.linspace(start, stop, math.ceil(64.0 * width / (2.0 * np.pi)) + 1)
    raw0, raw2 = (math.fsum(gl_panels(ell, edges)) for ell in (0, 2))
    w0, w2 = cavity.density_weights
    spin, oam = radial.shell_integrals(cavity, start, stop)
    assert spin == pytest.approx(2.0 * w0 * raw0 - 0.5 * w2 * raw2, rel=1e-12, abs=0.0)
    assert oam == pytest.approx(1.5 * w2 * raw2, rel=1e-12, abs=0.0)


def mpmath_window_discrepancy(kR: float, start: float) -> float:
    """wave_zone_discrepancy at 40 digits: Lommel integrals of sqrt(pi / 2x) J_{l+1/2}."""
    with mpmath.workdps(40):
        def j(ell, x):
            return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(ell + mpmath.mpf(1) / 2, x)

        def lommel(ell, x):
            x = mpmath.mpf(x)
            return x**3 / 2 * (j(ell, x) ** 2 - j(ell - 1, x) * j(ell + 1, x))

        # the window ends where the float sum start + 2 pi lands
        stop = start + 2.0 * np.pi
        a0, a2 = ((lommel(ell, stop) - lommel(ell, start)) / lommel(ell, kR) for ell in (0, 2))
        spin, oam = (2 * a0 - a2 / 2) / 3, a2 / 2
        return float(abs(spin - oam) / spin)


def test_verify_all_wave_zone_discrepancies_against_mpmath(capsys):
    # the windows at 400 and 800; over exact 2 pi windows mpmath reads
    # 1.58897611211328e-5 and 5.03937566919521e-6, within 6e-12 relative of these
    assert main(["verify-all"]) == 0
    checks = {check["name"]: check for check in json.loads(capsys.readouterr().out)["checks"]}
    got = checks["wave_zone_equality"]["discrepancies"][2:]
    want = [mpmath_window_discrepancy(1000.0, start) for start in (400.0, 800.0)]
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_window_must_fit_in_cavity(config):
    with pytest.raises(ValueError):
        wave_zone_discrepancy(config, config.kR)


@pytest.mark.parametrize("start", [-1.0, np.nan, np.inf, -np.inf])
def test_window_start_refuses_negative_nan_and_infinity(config, start):
    # a NaN start fails every comparison, so the check must be one that NaN fails
    with pytest.raises(ValueError, match="inside the cavity"):
        wave_zone_discrepancy(config, start)


def test_zone_report_json(capsys):
    # the output contract: "schema", then the ZoneReport fields in order, so
    # renaming or reordering a field fails here
    assert main(["radial", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "schema",
        "near_ratio",
        "oam_peak_r",
        "oam_peak_over_lambda",
        "wave_zone_discrepancy",
    ]
    report = zone_report(CavityConfig(k=1.0, R=100.0))
    assert payload["oam_peak_over_lambda"] == float(f"{report.oam_peak_over_lambda:.12g}")


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
