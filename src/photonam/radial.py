"""Radial structure of the electric-dipole photon's spin and orbital AM densities.

The cavity mode mixes the ell = 0 and ell = 2 spherical Bessel functions at a
single wavenumber k. Each ell is normalized independently so that the shell
integral of the squared mode over the cavity returns the cavity volume; the
spin and orbital density profiles then integrate to hbar/2 each,

    f_spin(x) = (hbar/3V) [2 j0(x)^2 - j2(x)^2 / 2],
    f_oam(x)  = (hbar/3V) (3/2) j2(x)^2,          x = kr,

with j_ell the normalized modes and hbar = 1. Near the source the spin
density dominates (f_oam vanishes as x^4); the orbital density peaks near
r = 0.53 lambda; in the wave zone both contribute equally when averaged over
a wavelength.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, prod

import numpy as np
from numpy.polynomial.polynomial import polyval

from .output import csv_lines

#: Below this argument the closed forms lose digits to cancellation and the
#: power series is machine-exact; both branches agree to ~5e-14 at the seam.
SERIES_SWITCH = 0.1

#: Per-ell seam of the shell antiderivative: below it the closed forms cancel
#: (for ell = 2, 1.2e-7 relative error at x = 0.1) and the series is used.
#: Both then stay within 8.4e-16 relative of exact over x in [1e-4, 2e4].
_LOMMEL_SWITCH = {0: 2.0, 2: 3.0}
_SERIES_TERMS = 24

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

MIN_KR = 20.0

#: Fewest points of a radial profile grid.
MIN_SAMPLES = 100

#: Largest kR: below it the one-wavelength window at 0.8 R still has 257
#: distinct panel edges (kR eps 257 < 2 pi); past ~4e16 they all coincide.
MAX_KR = 1e14


@dataclass(frozen=True)
class CavityConfig:
    """Spherical cavity of radius R with a single radiated wavenumber k.

    20 <= kR <= MAX_KR is enforced: the two mode normalizations differ by
    O(1/kR), the zone diagnostics assume the cavity spans well past the wave
    zone, and the wave-zone window must resolve one wavelength in floats.
    """

    k: float = 1.0
    R: float = 100.0

    def __post_init__(self) -> None:
        for name in ("k", "R"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.kR < MIN_KR:
            raise ValueError(f"kR must be >= {MIN_KR}, got {self.kR}")
        if self.kR > MAX_KR:
            raise ValueError(f"kR must be <= {MAX_KR:g}, got {self.kR}")
        try:
            cubes = (self.volume, self.k**3)
        except OverflowError:  # a Python float cubed past the float range
            cubes = (np.inf,)
        if not np.all(np.isfinite(cubes)):
            raise ValueError(f"volume and k^3 must be finite, got R={self.R}, k={self.k}")

    @property
    def kR(self) -> float:
        return self.k * self.R

    @property
    def volume(self) -> float:
        return 4.0 * np.pi * self.R**3 / 3.0

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi / self.k


def spherical_bessel(ell: int, x):
    """j0 or j2 for x >= 0, scalar or array.

    Closed forms j0 = sin(x)/x and j2 = (3/x^3 - 1/x) sin(x) - (3/x^2) cos(x)
    above SERIES_SWITCH; Taylor series below it, where the j2 closed form
    cancels catastrophically. The series is evaluated on those arguments only.
    """
    if ell not in (0, 2):
        raise ValueError(f"ell must be 0 or 2, got {ell}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("argument must be >= 0")
    small = arr < SERIES_SWITCH
    safe = np.where(small, 1.0, arr)  # avoid 0/0 where the series replaces the closed form
    if ell == 0:
        closed = np.sin(safe) / safe
    else:
        closed = (3.0 / safe**3 - 1.0 / safe) * np.sin(safe) - 3.0 * np.cos(safe) / safe**2
    out = np.asarray(closed)  # a 0-d array where numpy returned a scalar
    out[small] = _bessel_series(ell, arr[small])
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _series_coefficients(ell: int) -> np.ndarray:
    """a_s in j_ell(x) = x^ell sum_s a_s x^(2s), a_s = (-1/2)^s / (s! (2 ell + 2s + 1)!!)."""
    return np.array(
        [
            (-0.5) ** s / (factorial(s) * prod(range(2 * ell + 2 * s + 1, 0, -2)))
            for s in range(_SERIES_TERMS)
        ]
    )


_BESSEL_SERIES = {ell: _series_coefficients(ell) for ell in (0, 2)}

#: c_n in A_ell(x) = x^(2 ell + 3) sum_n c_n x^(2n): the squared j_ell series
#: integrated term by term.
_LOMMEL_SERIES = {
    ell: np.convolve(a, a)[:_SERIES_TERMS] / (2 * ell + 2 * np.arange(_SERIES_TERMS) + 3)
    for ell, a in _BESSEL_SERIES.items()
}


def _bessel_series(ell: int, x):
    return x**ell * polyval(np.square(x), _BESSEL_SERIES[ell])


def _spherical_j1_j2(x):
    """(j1, j2) at x > 0 by upward recurrence from j0 = sin(x)/x; they cancel below x ~ 1."""
    j0 = np.sin(x) / x
    j1 = (j0 - np.cos(x)) / x
    return j1, 3.0 * j1 / x - j0


def _shell_antiderivative(ell: int, x) -> np.ndarray:
    """A_ell(x) = int_0^x t^2 j_ell(t)^2 dt for ell = 0, 2 (Lommel, DLMF 10.22).

    From _LOMMEL_SWITCH[ell] on, the closed forms x/2 - sin(2x)/4 and
    (x^3/2)(j2^2 - j1 j3), with j1, j2 and j3 by upward recurrence from
    j0 = sin(x)/x; below it, the Taylor series.
    """
    x = np.asarray(x, dtype=float)
    small = x < _LOMMEL_SWITCH[ell]
    xs = np.where(small, x, 0.0)
    series = xs ** (2 * ell + 3) * polyval(xs * xs, _LOMMEL_SERIES[ell])
    xc = np.where(small, _LOMMEL_SWITCH[ell], x)  # keep the unused branch finite
    if ell == 0:
        closed = xc / 2.0 - np.sin(2.0 * xc) / 4.0
    else:
        j1, j2 = _spherical_j1_j2(xc)
        closed = xc**3 / 2.0 * (j2 * j2 - j1 * (5.0 * j2 / xc - j1))
    return np.where(small, series, closed)


@dataclass(frozen=True)
class NormalizedMode:
    """Amplitude c_ell scaling j_ell so its squared shell integral equals V."""

    ell: int
    c_ell: float

    def evaluate(self, kr):
        return self.c_ell * spherical_bessel(self.ell, kr)


def normalize_mode(config: CavityConfig, ell: int) -> NormalizedMode:
    """c_ell = sqrt(V k^3 / A_ell(kR)) from the exact shell antiderivative, rel err < 1e-15."""
    if ell not in (0, 2):
        raise ValueError(f"ell must be 0 or 2, got {ell}")
    raw = float(_shell_antiderivative(ell, config.kR))
    return NormalizedMode(ell=ell, c_ell=float(np.sqrt(config.volume * config.k**3 / raw)))


def _density_prefactors(config: CavityConfig) -> tuple[float, float]:
    """(weight0, weight2) so f_spin = 2*w0*j0^2 - 0.5*w2*j2^2, f_oam = 1.5*w2*j2^2."""
    c0 = normalize_mode(config, 0).c_ell
    c2 = normalize_mode(config, 2).c_ell
    base = 1.0 / (3.0 * config.volume)
    return base * c0 * c0, base * c2 * c2


def f_spin(kr, config: CavityConfig):
    """Spin AM density at dimensionless radius kr, in units hbar/V.

    May go locally negative near zeros of j0: it is a density of the AM
    decomposition, not an observable-positive quantity.
    """
    arr = np.asarray(kr, dtype=float)
    if np.any(arr < 0):
        raise ValueError("kr must be >= 0")
    w0, w2 = _density_prefactors(config)
    out = 2.0 * w0 * spherical_bessel(0, arr) ** 2 - 0.5 * w2 * spherical_bessel(2, arr) ** 2
    return float(out) if arr.ndim == 0 else out


def f_oam(kr, config: CavityConfig):
    """Orbital AM density at kr; non-negative, vanishing as (kr)^4 at the origin."""
    arr = np.asarray(kr, dtype=float)
    if np.any(arr < 0):
        raise ValueError("kr must be >= 0")
    _, w2 = _density_prefactors(config)
    out = 1.5 * w2 * spherical_bessel(2, arr) ** 2
    return float(out) if arr.ndim == 0 else out


def _panel_integrals(func, edges: np.ndarray) -> np.ndarray:
    """Per-panel Gauss-Legendre integrals with a fixed summation order."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    points = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    values = func(points.ravel()).reshape(points.shape)
    return half * (values @ _GL_WEIGHTS)


@dataclass(frozen=True)
class RadialProfile:
    """Sampled spin/OAM densities and their running shell integrals."""

    config: CavityConfig
    kr: np.ndarray = field(repr=False)
    f_spin: np.ndarray = field(repr=False)
    f_oam: np.ndarray = field(repr=False)
    cum_spin: np.ndarray = field(repr=False)
    cum_oam: np.ndarray = field(repr=False)

    @property
    def n_samples(self) -> int:
        return len(self.kr)


def radial_profile(config: CavityConfig, n_samples: int = 2000) -> RadialProfile:
    """Uniform kr grid over (0, kR] with cumulative shell integrals.

    The cumulative columns are exact, with a_ell = A_ell(kr) / A_ell(kR):
    cum_spin = (hbar/3)(2 a0 - a2/2) and cum_oam = (hbar/2) a2. Both end at
    hbar/2 by construction, so they do not check the normalization.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    kR = config.kR
    grid = np.linspace(kR / n_samples, kR, n_samples)
    a0 = _shell_antiderivative(0, grid) / _shell_antiderivative(0, kR)
    a2 = _shell_antiderivative(2, grid) / _shell_antiderivative(2, kR)
    arrays = dict(
        kr=grid,
        f_spin=f_spin(grid, config),
        f_oam=f_oam(grid, config),
        cum_spin=(2.0 * a0 - 0.5 * a2) / 3.0,
        cum_oam=a2 / 2.0,
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return RadialProfile(config=config, **arrays)


def shell_integrals(config: CavityConfig, edges: np.ndarray) -> tuple[float, float]:
    """Gauss-Legendre shell integrals of f_spin and f_oam over the panels between edges.

    They keep their digits far out in the wave zone, where differences of the
    antiderivatives do not, and check the normalization without sharing its formula.
    """
    k3 = config.k**3
    i_s = float(np.sum(_panel_integrals(lambda x: f_spin(x, config) * x * x / k3, edges)))
    i_l = float(np.sum(_panel_integrals(lambda x: f_oam(x, config) * x * x / k3, edges)))
    return i_s, i_l


def window_shell_integrals(config: CavityConfig, start_kr: float) -> tuple[float, float]:
    """Shell integrals of f_spin and f_oam over one wavelength from start_kr."""
    width = 2.0 * np.pi
    if start_kr < 0 or start_kr + width > config.kR:
        raise ValueError("window must lie inside the cavity")
    return shell_integrals(config, np.linspace(start_kr, start_kr + width, 257))


def wave_zone_discrepancy(config: CavityConfig, start_kr: float) -> float:
    """Relative mismatch of the wavelength-windowed spin and OAM shell integrals.

    Windowed integrals are compared instead of pointwise ratios because both
    densities vanish at shared nodes in the wave zone.
    """
    i_s, i_l = window_shell_integrals(config, start_kr)
    return abs(i_s - i_l) / i_s


@dataclass(frozen=True)
class ZoneReport:
    """Near-, intermediate-, and wave-zone diagnostics of the density split.

    Each diagnostic is exact at its radius or window; none reads a sampled
    profile.
    """

    near_ratio: float
    oam_peak_r: float
    wave_zone_discrepancy: float
    config: CavityConfig

    @property
    def oam_peak_over_lambda(self) -> float:
        return self.oam_peak_r / self.config.wavelength

    def to_json_dict(self) -> dict:
        return {
            "near_ratio": self.near_ratio,
            "oam_peak_r": self.oam_peak_r,
            "oam_peak_over_lambda": self.oam_peak_over_lambda,
            "wave_zone_discrepancy": self.wave_zone_discrepancy,
        }


def _oam_peak_kr() -> float:
    """The first maximum of j2: the single root of j2' = j1 - 3 j2 / x in (0, 2 pi].

    j2' (DLMF 10.51.2) is positive below the root (~3.342) and -0.12 at 2 pi,
    so bisection on its sign needs no bracket from a grid. It stops when the
    midpoint rounds onto an end, 5e-16 from the root: the rounding noise of j2'.
    """
    lo, hi = 0.0, 2.0 * np.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        j1, j2 = _spherical_j1_j2(mid)
        if j1 - 3.0 * j2 / mid > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return float(mid)


def zone_report(config: CavityConfig, n_samples: int = 2000) -> ZoneReport:
    """Zone diagnostics: near-zone spin dominance, OAM peak, wave-zone equality.

    near_ratio is f_spin/f_oam at exactly r = 0.1 lambda, where the ratio
    is monotone decreasing. The OAM peak is the root of j2' inside the first
    wavelength. The wave-zone discrepancy uses a window of one wavelength
    starting at 0.8 R, clipped to fit inside the cavity. No diagnostic depends
    on n_samples; it is validated like radial_profile's, below MIN_SAMPLES
    raising ValueError.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    x_near = 0.2 * np.pi
    start = min(0.8 * config.kR, config.kR - 2.0 * np.pi)
    return ZoneReport(
        near_ratio=f_spin(x_near, config) / f_oam(x_near, config),
        oam_peak_r=_oam_peak_kr() / config.k,
        wave_zone_discrepancy=wave_zone_discrepancy(config, start),
        config=config,
    )


CSV_HEADER = "kr,f_spin,f_oam,cum_spin,cum_oam"


def profile_csv_lines(profile: RadialProfile) -> list[str]:
    """CSV rows at 12 significant digits, header included."""
    columns = (profile.kr, profile.f_spin, profile.f_oam, profile.cum_spin, profile.cum_oam)
    return csv_lines(CSV_HEADER, columns)
