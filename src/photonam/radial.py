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
from functools import cache, cached_property
from math import ceil, factorial, prod

import numpy as np

from .output import Check, csv_lines, integer, nonnegative, real

#: Per-ell seam of j_ell and of its shell antiderivative A_ell: below it the
#: closed forms cancel (for ell = 2, j2 loses 7e-11 and A_2 1.2e-7 relative at
#: x = 0.1) and the Taylor series is used. j0 and j2 then stay within 8e-16
#: relative of exact over x in [1e-4, 5.5], A_0 and A_2 within 8.4e-16 over
#: [1e-4, 2e4].
SERIES_SWITCH = {0: 2.0, 2: 3.0}
_SERIES_TERMS = 24

MIN_KR = 20.0

#: Fewest and most points of a radial profile grid, whose every column takes
#: 8 bytes a point: 8 MB at MAX_SAMPLES.
MIN_SAMPLES = 100
MAX_SAMPLES = 10**6

#: Largest kR. At 1e14 floats near 0.8 R are 1/64 apart, so each node of the
#: wave-zone window's 8 panels, pi/4 wide, rounds by under 1% of a panel; past
#: ~6e15 the panel edges coincide.
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
            # a Python float, whose power past the float range raises OverflowError
            # where a numpy scalar's warns: the one check below serves both
            object.__setattr__(self, name, real(getattr(self, name), name, positive=True))
        if self.kR < MIN_KR:
            raise ValueError(f"kR must be >= {MIN_KR}, got {self.kR}")
        if self.kR > MAX_KR:
            raise ValueError(f"kR must be <= {MAX_KR:g}, got {self.kR}")
        try:
            cubes = (self.volume, self.k**3)
        except OverflowError:
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

    @cached_property
    def _shell_antiderivatives(self) -> np.ndarray:
        """(A_0(kR), A_2(kR)), from one kernel call for both mode normalizations."""
        return _radial_functions(self.kR)[2:]

    @cached_property
    def density_weights(self) -> tuple[float, float]:
        """(w0, w2) = c_ell^2 / 3V, so f_spin = 2 w0 j0^2 - w2 j2^2 / 2 and f_oam = 3 w2 j2^2 / 2.

        Computed once per cavity, on the instance: an equal cavity built anew
        normalizes its modes again.
        """
        c0 = normalize_mode(self, 0)
        c2 = normalize_mode(self, 2)
        base = 1.0 / (3.0 * self.volume)
        return base * c0 * c0, base * c2 * c2


def _ell_row(ell: int) -> int:
    """ell's row of the per-ell tables: ValueError unless ell is the integer 0 or 2."""
    return integer(ell, "ell", (0, 2)) // 2


def spherical_bessel(ell: int, x):
    """j0 or j2 for finite x >= 0, scalar or array: its row of `_radial_functions`."""
    row = _ell_row(ell)
    arr = nonnegative(x, "argument")
    out = _radial_functions(arr)[row]
    return float(out) if arr.ndim == 0 else out


def _series_table() -> np.ndarray:
    """Taylor coefficients of the rows j0, j2, A_0, A_2 of `_radial_functions`, (terms, 4, 1).

    j_ell(x) = x^ell sum_s a_s x^(2s) with a_s = (-1/2)^s / (s! (2 ell + 2s + 1)!!), and
    A_ell(x) = x^(2 ell + 3) sum_n c_n x^(2n): the squared series integrated term by term.
    """
    n = np.arange(_SERIES_TERMS)
    bessel = [
        [(-0.5) ** s / (factorial(s) * prod(range(2 * ell + 2 * s + 1, 0, -2))) for s in n.tolist()]
        for ell in (0, 2)
    ]
    lommel = [np.convolve(a, a)[: n.size] / (2 * ell + 2 * n + 3) for ell, a in zip((0, 2), bessel)]
    return np.stack(bessel + lommel, axis=1)[:, :, None]


#: Scalars below it take `_point_rows`, where x^3 and 2x stay finite; those past
#: it take the array path of `_radial_functions`, which lets them overflow unwarned.
_POINT_MAX = 5e102

#: Row r of `_radial_functions` is x^_SERIES_POWERS[r] times its series in x^2
#: below _SEAMS[r], the seam of its ell.
_SERIES = _series_table()
_SERIES_POWERS = (0, 2, 3, 7)
_SEAMS = np.array([SERIES_SWITCH[0], SERIES_SWITCH[2]] * 2)[:, None]


def _horner(x, coefficients: np.ndarray) -> np.ndarray:
    """sum_n coefficients[n] x^n in place, rounded step for step as numpy's polyval; a stacked
    (terms, k, 1) table evaluates k series at once, each rounded as polyval of its column."""
    acc = coefficients[-1] + np.zeros_like(x)
    for c in coefficients[-2::-1]:
        acc *= x
        acc += c
    return acc


def _spherical_j0_j1_j2(x, out_j0=None, out_j2=None):
    """(j0, j1, j2) at x > 0, j0 = sin(x)/x and upward recurrence; j1, j2 cancel below x ~ 1."""
    j0 = np.divide(np.sin(x), x, out=out_j0)
    j1 = (j0 - np.cos(x)) / x
    return j0, j1, np.subtract(3.0 * j1 / x, j0, out=out_j2)


def _radial_functions(x) -> np.ndarray:
    """Rows j0, j2, A_0, A_2 at finite x >= 0, an array of shape (4, *x.shape).

    A_ell(x) = int_0^x t^2 j_ell(t)^2 dt (Lommel, DLMF 10.22). From its seam
    on, SERIES_SWITCH[ell], a row is its closed form: j0 = sin(x)/x, j2 by
    upward recurrence, A_0 = x/2 - sin(2x)/4 and A_2 = (x^3/2)(j2^2 - j1 j3),
    from one sin, one cos and one sin(2x), each written into its row. Below
    it, the Taylor series, all four in one Horner pass over the arguments
    below the upper seam. A scalar x below _POINT_MAX takes `_point_rows`.
    Past ~5.6e102 x^3 overflows, past ~9e307 2x too: there the A rows are inf
    or NaN, unwarned, and j0 and j2 stay finite. Only the profile and the mode
    normalization read the A rows, at kr <= MAX_KR.
    """
    if np.ndim(x) == 0 and x < _POINT_MAX:
        return _point_rows(float(x))
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    rows = np.empty((4, x.size))
    j0, j2, a0, a2 = rows
    safe = np.where(x < SERIES_SWITCH[0], SERIES_SWITCH[0], x)  # keep the unused branch finite
    _, j1, _ = _spherical_j0_j1_j2(safe, j0, j2)
    # (x^3 / 2) (j2 j2 - j1 (5 j2 / x - j1)), a step at a time into its row
    np.multiply(5.0 * j2 / safe - j1, j1, out=a2)
    np.subtract(j2 * j2, a2, out=a2)
    with np.errstate(over="ignore", invalid="ignore"):  # x^3 and 2x past the float range
        a2 *= safe**3 / 2.0
        np.sin(np.multiply(2.0, safe, out=a0), out=a0)
    np.subtract(safe / 2.0, a0 / 4.0, out=a0)
    small = x < SERIES_SWITCH[2]
    if small.any():
        xs = x[small]
        series = np.array([xs**p for p in _SERIES_POWERS]) * _horner(xs * xs, _SERIES)
        rows[:, small] = np.where(xs < _SEAMS, series, rows[:, small])
    return rows.reshape(4, *shape)


#: Per row of `_radial_functions`: its power of x, its seam and its Taylor
#: coefficients in x^2, highest first, as floats for `_point_rows`.
_POINT_SERIES = [
    (power, seam, coefficients[::-1])
    for power, seam, coefficients in zip(_SERIES_POWERS, _SEAMS[:, 0].tolist(),
                                         _SERIES[:, :, 0].T.tolist())
]


def _point_rows(x: float) -> np.ndarray:
    """`_radial_functions` at one point, bit for bit the rows of a one-element array.

    Only the branch each row takes is evaluated. sin, cos and x^3, x^7 run as
    the array's ufuncs, whose loops need not round as libm does; the rest is
    float arithmetic in the array's order of operations, rounded the same.
    """
    rows = [0.0] * 4
    if x >= SERIES_SWITCH[0]:
        j0 = float(np.sin(x)) / x
        j1 = (j0 - float(np.cos(x))) / x
        j2 = 3.0 * j1 / x - j0
        a0 = x / 2.0 - float(np.sin(2.0 * x)) / 4.0
        a2 = (j2 * j2 - (5.0 * j2 / x - j1) * j1) * (float(np.power(x, 3)) / 2.0)
        rows = [j0, j2, a0, a2]
    x2 = x * x
    for row, (power, seam, coefficients) in enumerate(_POINT_SERIES):
        if x < seam:
            acc = coefficients[0]
            for c in coefficients[1:]:
                acc = acc * x2 + c
            scale = 1.0 if power == 0 else x2 if power == 2 else float(np.power(x, power))
            rows[row] = scale * acc
    return np.array(rows)


def normalize_mode(config: CavityConfig, ell: int) -> float:
    """c_ell = sqrt(V k^3 / A_ell(kR)), so the squared shell integral of c_ell j_ell is V.

    A_ell is the exact shell antiderivative, so c_ell has relative error < 1e-15.
    """
    raw = float(config._shell_antiderivatives[_ell_row(ell)])
    return float(np.sqrt(config.volume * config.k**3 / raw))


def _spin_oam(j0, j2, config: CavityConfig):
    """(f_spin, f_oam) from j0 and j2 at the same points, with j2 squared once."""
    w0, w2 = config.density_weights
    j2_sq = j2**2
    return 2.0 * w0 * j0**2 - 0.5 * w2 * j2_sq, 1.5 * w2 * j2_sq


def _densities(kr, config: CavityConfig):
    """(f_spin, f_oam) at finite kr >= 0, floats for a scalar kr."""
    x = nonnegative(kr, "kr")
    rows = _radial_functions(x)[:2]
    return _spin_oam(*(rows.tolist() if x.ndim == 0 else rows), config)


def f_spin(kr, config: CavityConfig):
    """Spin AM density at dimensionless radius kr, in units hbar/V.

    May go locally negative near zeros of j0: it is a density of the AM
    decomposition, not an observable-positive quantity.
    """
    return _densities(kr, config)[0]


def f_oam(kr, config: CavityConfig):
    """Orbital AM density at kr; non-negative, vanishing as (kr)^4 at the origin."""
    return _densities(kr, config)[1]


@dataclass(frozen=True)
class RadialProfile:
    """Sampled spin/OAM densities and their running shell integrals."""

    kr: np.ndarray = field(repr=False)
    f_spin: np.ndarray = field(repr=False)
    f_oam: np.ndarray = field(repr=False)
    cum_spin: np.ndarray = field(repr=False)
    cum_oam: np.ndarray = field(repr=False)

    @property
    def n_samples(self) -> int:
        return len(self.kr)


def _check_samples(n_samples: int) -> None:
    """ValueError, before anything is allocated, unless n_samples is an integer in
    [MIN_SAMPLES, MAX_SAMPLES]."""
    n_samples = integer(n_samples, "n_samples")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be an integer <= {MAX_SAMPLES}, got {n_samples}")
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")


def radial_profile(config: CavityConfig, n_samples: int = 2000) -> RadialProfile:
    """Uniform kr grid over (0, kR] with cumulative shell integrals.

    The cumulative columns are exact, with a_ell = A_ell(kr) / A_ell(kR):
    cum_spin = (hbar/3)(2 a0 - a2/2) and cum_oam = (hbar/2) a2. Both end at
    hbar/2 by construction, so they do not check the normalization.
    """
    _check_samples(n_samples)
    kR = config.kR
    grid = np.linspace(kR / n_samples, kR, n_samples)  # its last point is kR exactly
    j0, j2, a0, a2 = _radial_functions(grid)
    # in place: copies left a grid-sized hole in the heap, +7 MiB peak RSS at 10^6 samples
    a0 /= a0[-1]
    a2 /= a2[-1]
    spin, oam = _spin_oam(j0, j2, config)
    arrays = dict(
        kr=grid,
        f_spin=spin,
        f_oam=oam,
        cum_spin=(2.0 * a0 - 0.5 * a2) / 3.0,
        cum_oam=a2 / 2.0,
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return RadialProfile(**arrays)


#: The 16-point Gauss-Legendre rule on [-1, 1], bit for bit numpy's
#: `polynomial.legendre.leggauss(16)`, which is symmetric: the nodes in [0, 1]
#: and their weights, as hex floats, mirrored.
_GL_HALF_NODES = [float.fromhex(h) for h in (
    "0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2",
    "0x1.3c5a466d5e8b8p-1", "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1",
    "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1",
)]
_GL_HALF_WEIGHTS = [float.fromhex(h) for h in (
    "0x1.83feae80e4e01p-3", "0x1.75f8c77e0c011p-3", "0x1.5a6ebbb5a7600p-3",
    "0x1.325f61bca3cbep-3", "0x1.fe7af2bad3878p-4", "0x1.85c4ee79cc24bp-4",
    "0x1.fdfb1a2c1261ep-5", "0x1.bcddab4b7c228p-6",
)]
_GL_NODES = np.array([-x for x in _GL_HALF_NODES[::-1]] + _GL_HALF_NODES)
_GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)
#: Most nodes shell_integrals lays: 62500 panels, kr intervals up to ~98175
#: wide. shell_conservation's widest, [0, 500], takes 319 panels.
_SHELL_NODES_MAX = 10**6


def shell_integrals(config: CavityConfig, start_kr: float, stop_kr: float) -> tuple[float, float]:
    """Gauss-Legendre shell integrals of f_spin and f_oam over kr in [start_kr, stop_kr].

    Equal panels, at most a quarter wavelength (pi/2 in kr) wide and at least 8,
    each a fixed-order 16-node dot product with the constant rule `_GL_NODES`,
    `_GL_WEIGHTS`, so no call imports numpy.polynomial or solves for its nodes.
    They keep their digits far out in the wave zone, where differences of the
    antiderivatives do not, and check the normalization without sharing its formula.
    """
    # bounded before linspace allocates, in Python floats, which overflow to inf
    # without a warning: a panel count past the float range is inf
    start_kr, stop_kr = real(start_kr, "start_kr"), real(stop_kr, "stop_kr")
    panels = 2.0 * (stop_kr - start_kr) / np.pi
    if not panels * _GL_NODES.size <= _SHELL_NODES_MAX:
        raise ValueError(
            f"kr bounds must be finite and need at most {_SHELL_NODES_MAX} nodes, "
            f"got [{start_kr}, {stop_kr}]"
        )
    edges = np.linspace(start_kr, stop_kr, max(8, ceil(panels)) + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    points = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    x = points.ravel()
    k3 = config.k**3
    return tuple(
        float(np.sum(half * ((f * x * x / k3).reshape(points.shape) @ _GL_WEIGHTS)))
        for f in _densities(x, config)
    )


def wave_zone_discrepancy(config: CavityConfig, start_kr: float) -> float:
    """Relative mismatch of the spin and OAM shell integrals over one wavelength from start_kr.

    Windowed integrals are compared instead of pointwise ratios because both
    densities vanish at shared nodes in the wave zone. A window that leaves
    the cavity, or a NaN start_kr, raises ValueError. The bounds are compared, not
    summed, so an int past the float range is compared exactly, not converted.
    """
    width = 2.0 * np.pi
    if not 0 <= start_kr <= config.kR - width:
        raise ValueError("window must lie inside the cavity")
    i_s, i_l = shell_integrals(config, start_kr, start_kr + width)
    return abs(i_s - i_l) / i_s


@dataclass(frozen=True)
class ZoneReport:
    """Near-, intermediate-, and wave-zone diagnostics of the density split.

    Each diagnostic is exact at its radius or window; none reads a sampled
    profile. The fields, in order, are the keys of `radial --format json`.
    """

    near_ratio: float
    oam_peak_r: float
    oam_peak_over_lambda: float
    wave_zone_discrepancy: float


@cache
def _oam_peak_kr() -> float:
    """The first maximum of j2: the single root of j2' = j1 - 3 j2 / x in (0, 2 pi].

    j2' (DLMF 10.51.2) is positive below the root (~3.342) and -0.12 at 2 pi,
    so bisection on its sign needs no bracket from a grid. It stops when the
    midpoint rounds onto an end, 5e-16 from the root: the rounding noise of j2'.
    The root depends on no input, so it is found once per process.
    """
    lo, hi = 0.0, 2.0 * np.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        _, j1, j2 = _spherical_j0_j1_j2(mid)
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
    on n_samples; it is validated as radial_profile's is.
    """
    _check_samples(n_samples)
    spin_near, oam_near = _densities(0.2 * np.pi, config)
    start = min(0.8 * config.kR, config.kR - 2.0 * np.pi)
    peak_r = _oam_peak_kr() / config.k
    return ZoneReport(
        near_ratio=spin_near / oam_near,
        oam_peak_r=peak_r,
        oam_peak_over_lambda=peak_r / config.wavelength,
        wave_zone_discrepancy=wave_zone_discrepancy(config, start),
    )


#: Bound of shell_conservation on the deviations of the shell integrals from hbar/2.
SHELL_DEVIATION_MAX = 1e-6

#: Bound of near_zone_spin_dominance on near_ratio, which reads 1760-1783 for
#: every kR from 20 to 1e14: f_oam 19% too large fails it.
NEAR_RATIO_MIN = 1500.0

#: Points of the grid over the first wavelength, kr in [0, 2 pi], on which
#: near_zone_spin_dominance finds f_spin largest at the atom.
NEAR_ZONE_SAMPLES = 201

#: The wavelengths within which oam_peak_location places the OAM peak (0.532).
OAM_PEAK_RANGE = (0.4, 0.65)

#: Bound of wave_zone_equality's discrepancies at kR = 1000, the largest of
#: which reads 5.75e-4 (the window at kr = 100).
WAVE_DISCREPANCY_MAX = 1e-3


def shell_conservation() -> Check:
    # quadrature of the densities: the profile's cum_* columns end at 1/2 anyway
    integrals = [shell_integrals(CavityConfig(1.0, kR), 0.0, kR) for kR in (20.0, 100.0, 500.0)]
    worst = max(max(abs(s - 0.5), abs(o - 0.5)) for s, o in integrals)
    return Check("shell_conservation", worst < SHELL_DEVIATION_MAX, SHELL_DEVIATION_MAX,
                 {"max_deviation": worst, "tolerance": SHELL_DEVIATION_MAX})


def near_zone_spin_dominance(config: CavityConfig, zone: ZoneReport) -> Check:
    """near_ratio past its bound, f_oam(0) = 0, and f_spin largest at kr = 0 over the first
    wavelength, on a grid fixed in kr: it depends on neither kR nor a profile's samples."""
    grid = np.linspace(0.0, 2.0 * np.pi, NEAR_ZONE_SAMPLES)
    ratio = zone.near_ratio
    passed = ratio > NEAR_RATIO_MIN and f_oam(0.0, config) == 0.0
    passed = passed and int(np.argmax(f_spin(grid, config))) == 0
    return Check("near_zone_spin_dominance", passed, NEAR_RATIO_MIN, {"near_ratio": ratio})


def oam_peak_location(zone: ZoneReport) -> Check:
    peak = zone.oam_peak_over_lambda
    passed = OAM_PEAK_RANGE[0] <= peak <= OAM_PEAK_RANGE[1]
    return Check("oam_peak_location", passed, OAM_PEAK_RANGE, {"oam_peak_over_lambda": peak})


def wave_zone_equality() -> Check:
    """Discrepancies of the windows at kr = 100-800 in a kR = 1000 cavity, falling."""
    wide = CavityConfig(k=1.0, R=1000.0)
    found = [wave_zone_discrepancy(wide, start) for start in (100.0, 200.0, 400.0, 800.0)]
    passed = all(a > b for a, b in zip(found, found[1:]))
    passed = passed and all(d < WAVE_DISCREPANCY_MAX for d in found)
    return Check("wave_zone_equality", passed, WAVE_DISCREPANCY_MAX, {"discrepancies": found})


CSV_HEADER = "kr,f_spin,f_oam,cum_spin,cum_oam"


def profile_csv_lines(profile: RadialProfile) -> list[str]:
    """CSV rows at 12 significant digits, header included."""
    columns = (profile.kr, profile.f_spin, profile.f_oam, profile.cum_spin, profile.cum_oam)
    return csv_lines(CSV_HEADER, columns)
