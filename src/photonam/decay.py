"""Weisskopf-Wigner decay of an excited dipole and the emitted AM expectation.

The excited population decays as |C(t)|^2 = exp(-2 G t), and the z component
of both the spin and the orbital AM expectation grows as
(hbar/2)(1 - exp(-2 G t)), exactly mirroring it. The one-photon amplitude
B(k, t) at wavenumber k (c = 1) is a Lorentzian in k - w0 of width G, scaled
by a calibration constant K that makes the steady-state photon weight over
the window k in [w0 - 40 G, w0 + 40 G] (flat mode density) equal to one; the
amplitude model, C(t), K and B(k, t), lives in the tests (tests/decay_model.py)
as the oracle of the conservation residual computed here.

Every window weight of |B|^2 has a closed form. The only special function is
the complex exponential integral E1, summed here in numpy (`_exp1`), so this
module, like the rest of photonam, runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .output import Check, csv_lines, nonnegative, real

#: Integration window half-width in units of the decay width.
WINDOW_WIDTHS = 40.0

#: Bound of the norm residual at t = 10 / gamma: of `decay --format json`, and
#: at omega0 / gamma = 1e3 of decay_conservation.
DECAY_RESIDUAL_MAX = 0.02

#: Markov validity floor for the transition-frequency-to-width ratio.
MIN_OMEGA0_OVER_GAMMA = 50.0

#: From this G t on the damped oscillatory weight is 0: e^{-z} in `_exp1`
#: overflows near 709, and e^{-G t} < 1e-304 leaves the weight subnormal already.
_DAMPED_TAU_MAX = 700.0

#: `_exp1` sums the power series below this |z| and the continued fraction above.
_SERIES_RADIUS = 3.0

#: (-1)^k / (k k!) for k = 28 down to 1: below _SERIES_RADIUS the first term
#: left out is under 3e-19.
_SERIES_COEFFS = np.array([(-1.0) ** k / (k * math.factorial(k)) for k in range(28, 0, -1)])


def __getattr__(name: str):
    # Only for the benchmark's tracing hook (perfbench/spans.py), which still
    # reads `decay.integrate` to count quadratures this module no longer makes.
    # It loads scipy.integrate on first access; it goes away with ROADMAP item 1.
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class DecayParams:
    """Transition frequency, decay width, and output time grid (c = hbar = 1)."""

    omega0: float
    gamma: float
    time_grid: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("omega0", "gamma"):
            # Python floats, whose quotients overflow to inf without a warning
            object.__setattr__(self, name, real(getattr(self, name), name, positive=True))
        omega0, gamma = self.omega0, self.gamma
        if omega0 / gamma < MIN_OMEGA0_OVER_GAMMA:
            raise ValueError(
                f"omega0/gamma must be >= {MIN_OMEGA0_OVER_GAMMA} for Markov validity, "
                f"got {omega0 / gamma}"
            )
        grid = self.time_grid
        if grid is None:
            if 10.0 / gamma == math.inf:
                raise ValueError(
                    f"10/gamma, the default time grid's end, must be finite, got gamma {gamma}"
                )
            grid = np.linspace(0.0, 10.0 / gamma, 201)
        grid = nonnegative(grid, "time_grid entries")
        if grid.ndim != 1 or len(grid) == 0:
            raise ValueError("time_grid must be a non-empty 1-d array")
        object.__setattr__(self, "time_grid", grid)


def _base_weight_integral(omega0: float, gamma: float) -> float:
    """Steady-state photon weight in dimensionless detuning units.

    With u = (k - w0)/G the uncalibrated weight is (w0^3/G) I0 where
    I0 = int_{-L}^{L} (1 + eps u)^3 / (1 + u^2) du, eps = G/w0, L = WINDOW_WIDTHS.
    The odd part cancels on the symmetric window, and the even part is
    3 eps^2 + (1 - 3 eps^2)/(1 + u^2), so I0 = 6 eps^2 L + 2 (1 - 3 eps^2) arctan L.
    """
    eps2 = (gamma / omega0) ** 2
    return float(6.0 * eps2 * WINDOW_WIDTHS + 2.0 * (1.0 - 3.0 * eps2) * np.arctan(WINDOW_WIDTHS))


def _exp1(z: np.ndarray) -> np.ndarray:
    """Exponential integral E1 of a complex array off the negative real axis.

    Below _SERIES_RADIUS it is the power series -gamma - ln z - sum_k (-z)^k / (k k!)
    (DLMF 6.6.2), one polynomial product over a table of powers; beyond, the
    even contraction of the continued fraction DLMF 6.9.1,
    E1(z) = e^{-z} / (z + 1 - 1^2 / (z + 3 - 2^2 / (z + 5 - ...))), evaluated
    backward from depth ceil(175 / |z|) + 2. On the two rays the decay window
    uses, arg z = -pi/2 +- 0.025, both agree with 30-digit mpmath to 3e-15
    relative; near the positive real axis the series loses a digit more.
    """
    out = np.empty_like(z)
    radius = np.abs(z)
    near = radius < _SERIES_RADIUS
    if near.any():
        z_near = z[near]
        series = np.vander(z_near, len(_SERIES_COEFFS)) @ _SERIES_COEFFS
        out[near] = -np.euler_gamma - np.log(z_near) - z_near * series
    # by falling |z| the depths rise, so the points still in the recursion at
    # level k, those of depth >= k, are a suffix
    far = np.flatnonzero(~near)
    if far.size:
        far = far[np.argsort(-radius[far])]
        z_far = z[far]
        depth = np.ceil(175.0 / radius[far]).astype(int) + 2
        first = np.searchsorted(depth, np.arange(depth[-1] + 1)).tolist()
        fraction = z_far + (2 * depth + 1)
        for k in range(depth[-1], 0, -1):
            tail = fraction[first[k]:]
            np.subtract(z_far[first[k]:] + (2 * k - 1), k * k / tail, out=tail)
        out[far] = np.exp(-z_far) / fraction
    return out


def _damped_oscillatory_weight(eps: float, tau: np.ndarray) -> np.ndarray:
    """e^{-tau} int (1 + eps u)^3 / (1 + u^2) cos(u tau) du over the window; 0 at tau = 0.

    With the even part as in the base weight, the integral is
    6 eps^2 sin(L tau)/tau + (1 - 3 eps^2) [pi e^{-tau} - 2 Re T], where by partial
    fractions (DLMF 6.2) the tail T = int_L^inf e^{i u tau}/(1 + u^2) du
    = [e^{-tau} E1(-tau (1 + i L)) - e^{tau} E1(tau (1 - i L))] / 2i. Damping
    the tail first keeps e^{tau} out of the arithmetic.
    """
    length, eps2 = WINDOW_WIDTHS, eps * eps
    out = np.zeros_like(tau)
    live = (tau > 0.0) & (tau < _DAMPED_TAU_MAX)
    tau = tau[live]
    decay = np.exp(-tau)
    # E1 at the first argument grows as e^{tau}, at the second it falls as e^{-tau}
    arguments = np.concatenate([-tau * (1.0 + 1j * length), tau * (1.0 - 1j * length)])
    rising, falling = np.split(_exp1(arguments), 2)
    # Im(tail) = 2 Re(e^{-tau} T)
    tail = decay * (decay * rising) - falling
    sine = 6.0 * eps2 * decay * np.sin(length * tau) / tau
    out[live] = sine + (1.0 - 3.0 * eps2) * (np.pi * decay * decay - tail.imag)
    return out


def conservation_check(params: DecayParams, t):
    """Residual |C(t)|^2 + int rho K |B(k, t)|^2 dk - 1, scalar or array t >= 0.

    With tau = G t, it equals 2 (e^{-2 tau} - damped / base), where damped /
    base is e^{-tau} times the oscillatory window weight over the steady-state
    one; that is evaluated instead: it subtracts no 1 and so keeps full
    relative precision when the residual is tiny. Zero exactly at t = 0. The
    finite window leaves a transient deficit of order 0.03 exp(-2 G t) at
    early times; by t ~ 1/G the magnitude is well below 0.02 for
    omega0/gamma >= 1e3, and at fixed G t it shrinks as omega0/gamma grows.
    """
    arr = nonnegative(t, "t", finite=False)
    with np.errstate(over="ignore"):  # a G t past the float range is the t = inf limit
        tau = params.gamma * arr.ravel()
    base = _base_weight_integral(params.omega0, params.gamma)
    fraction = _damped_oscillatory_weight(params.gamma / params.omega0, tau) / base
    population = _excited_population(params.gamma, arr.ravel())
    out = np.where(tau == 0.0, 0.0, 2.0 * (population - fraction))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _excited_population(gamma: float, t: np.ndarray) -> np.ndarray:
    """|C(t)|^2 = exp(-2 G t): its t = inf limit 0, unwarned, where 2 G t overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-2.0 * gamma * t)


def sz_expectation(t, params: DecayParams):
    """<S_z(t)> = <L_z(t)> in units hbar: (1/2)(1 - exp(-2 G t))."""
    arr = nonnegative(t, "t", finite=False)
    out = 0.5 * (1.0 - _excited_population(params.gamma, arr))
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class DecayCurve:
    """Decay observables on the parameter time grid (sz_expect in units hbar)."""

    t: np.ndarray = field(repr=False)
    sz_expect: np.ndarray = field(repr=False)
    excited_pop: np.ndarray = field(repr=False)
    norm_residual: np.ndarray = field(repr=False)


def sz_curve(params: DecayParams) -> DecayCurve:
    """Closed-form AM expectation curve with a per-time conservation residual.

    excited_pop decays as the AM expectation grows, and norm_residual reports
    how well the calibrated photon weight completes the excited population
    to one.
    """
    t = params.time_grid
    arrays = dict(
        t=t.copy(),
        sz_expect=sz_expectation(t, params),
        excited_pop=_excited_population(params.gamma, t),
        norm_residual=conservation_check(params, t),
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return DecayCurve(**arrays)


def decay_conservation() -> Check:
    """Residuals at G t = 10 falling over omega0/gamma = 1e2, 1e3, 1e4, the middle one below
    DECAY_RESIDUAL_MAX, and S_z + P_exc / 2 = 1/2 exactly at 41 points of G t in [0, 10]."""
    residuals = [abs(conservation_check(DecayParams(r, 1.0), 10.0)) for r in (1e2, 1e3, 1e4)]
    t = np.linspace(0.0, 10.0, 41)  # G t at gamma = 1; neither reading depends on omega0
    deviation = _excited_population(1.0, t) + 2.0 * sz_expectation(t, DecayParams(1e3, 1.0)) - 1.0
    closed_form = float(np.max(np.abs(deviation)))
    passed = closed_form == 0.0 and min(residuals[0], DECAY_RESIDUAL_MAX) > residuals[1] > residuals[2]
    return Check("decay_conservation", passed, DECAY_RESIDUAL_MAX,
                 {"residuals": residuals, "closed_form_deviation": closed_form})


CSV_HEADER = "t,sz_over_hbar,excited_pop,norm_residual"


def decay_csv_lines(curve: DecayCurve) -> list[str]:
    """CSV rows at 12 significant digits, header included."""
    columns = (curve.t, curve.sz_expect, curve.excited_pop, curve.norm_residual)
    return csv_lines(CSV_HEADER, columns)
