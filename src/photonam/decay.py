"""Weisskopf-Wigner decay of an excited dipole and the emitted AM expectation.

The excited amplitude decays as C(t) = exp(-i w0 t - G t); the one-photon
amplitude at wavenumber k (units with c = 1, so the mode frequency is k) is

    B(k, t) = -sqrt(K) k^{3/2} / (k - w0 + i G) * (1 - exp(i (k - w0) t - G t)),

where K is a calibration constant fixed once per parameter set by requiring
the steady-state photon weight integrated over k in [w0 - 40 G, w0 + 40 G]
(flat mode density) to equal one. The z component of both the spin and the
orbital AM expectation grows as (hbar/2)(1 - exp(-2 G t)), exactly mirroring
the decay of the excited population.

Every window weight has a closed form. The only special function is the
complex exponential integral E1, and `scipy.special` is imported where E1 is
evaluated, so importing this module (and photonam) loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .output import csv_lines

#: Integration window half-width in units of the decay width.
WINDOW_WIDTHS = 40.0

#: Markov validity floor for the transition-frequency-to-width ratio.
MIN_OMEGA0_OVER_GAMMA = 50.0

#: From this G t on the damped oscillatory weight is 0: E1 in it overflows
#: near 720, and e^{-G t} < 1e-304 leaves the weight subnormal already.
_DAMPED_TAU_MAX = 700.0


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
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.omega0 / self.gamma < MIN_OMEGA0_OVER_GAMMA:
            raise ValueError(
                f"omega0/gamma must be >= {MIN_OMEGA0_OVER_GAMMA} for Markov validity, "
                f"got {self.omega0 / self.gamma}"
            )
        grid = self.time_grid
        if grid is None:
            grid = np.linspace(0.0, 10.0 / self.gamma, 201)
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise ValueError("time_grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(grid) & (grid >= 0)):
            raise ValueError("time_grid entries must be finite and >= 0")
        object.__setattr__(self, "time_grid", grid)


def excited_amplitude(t, params: DecayParams):
    """C(t) = exp(-i w0 t - G t); |C|^2 = exp(-2 G t)."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("t must be >= 0")
    out = np.exp((-1j * params.omega0 - params.gamma) * arr)
    return complex(out) if arr.ndim == 0 else out


def _base_weight_integral(omega0: float, gamma: float) -> float:
    """Steady-state photon weight in dimensionless detuning units.

    With u = (k - w0)/G the uncalibrated weight is (w0^3/G) I0 where
    I0 = int_{-L}^{L} (1 + eps u)^3 / (1 + u^2) du, eps = G/w0, L = WINDOW_WIDTHS.
    The odd part cancels on the symmetric window, and the even part is
    3 eps^2 + (1 - 3 eps^2)/(1 + u^2), so I0 = 6 eps^2 L + 2 (1 - 3 eps^2) arctan L.
    """
    eps2 = (gamma / omega0) ** 2
    return float(6.0 * eps2 * WINDOW_WIDTHS + 2.0 * (1.0 - 3.0 * eps2) * np.arctan(WINDOW_WIDTHS))


def calibration_constant(params: DecayParams) -> float:
    """K such that the steady-state photon weight over the window equals one."""
    base = _base_weight_integral(params.omega0, params.gamma)
    return params.gamma / (params.omega0**3 * base)


def photon_amplitude(k, t, params: DecayParams):
    """Calibrated one-photon amplitude B(k, t); zero at t = 0 for every k."""
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr <= 0):
        raise ValueError("k must be > 0")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    detune = k_arr - params.omega0
    root_k = np.sqrt(calibration_constant(params)) * k_arr**1.5
    out = (
        -root_k
        / (detune + 1j * params.gamma)
        * (1.0 - np.exp((1j * detune - params.gamma) * t_arr))
    )
    if np.isscalar(k) and np.isscalar(t):
        return complex(out)
    return out


def _damped_oscillatory_weight(eps: float, tau: np.ndarray) -> np.ndarray:
    """e^{-tau} int (1 + eps u)^3 / (1 + u^2) cos(u tau) du over the window; 0 at tau = 0.

    With the even part as in the base weight, the integral is
    6 eps^2 sin(L tau)/tau + (1 - 3 eps^2) [pi e^{-tau} - 2 Re T], where by partial
    fractions (DLMF 6.2) the tail T = int_L^inf e^{i u tau}/(1 + u^2) du
    = [e^{-tau} E1(-tau (1 + i L)) - e^{tau} E1(tau (1 - i L))] / 2i. Damping
    the tail first keeps e^{tau} out of the arithmetic.
    """
    from scipy import special

    length, eps2 = WINDOW_WIDTHS, eps * eps
    out = np.zeros_like(tau)
    live = (tau > 0.0) & (tau < _DAMPED_TAU_MAX)
    tau = tau[live]
    decay = np.exp(-tau)
    # Im(tail) = 2 Re(e^{-tau} T)
    tail = decay * (decay * special.exp1(-tau * (1.0 + 1j * length)))
    tail -= special.exp1(tau * (1.0 - 1j * length))
    sine = 6.0 * eps2 * decay * np.sin(length * tau) / tau
    out[live] = sine + (1.0 - 3.0 * eps2) * (np.pi * decay * decay - tail.imag)
    return out


def _window_curve(params: DecayParams, t, combine):
    """combine(tau, damped / base) at tau = G t, exactly 0 at t = 0, shaped like t.

    damped / base is e^{-tau} times the oscillatory window weight over the
    steady-state one, the same ratio for every quantity built on the window.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("t must be >= 0")
    tau = params.gamma * arr.ravel()
    base = _base_weight_integral(params.omega0, params.gamma)
    fraction = _damped_oscillatory_weight(params.gamma / params.omega0, tau) / base
    out = np.where(tau == 0.0, 0.0, combine(tau, fraction))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def photon_weight(params: DecayParams, t):
    """Calibrated photon probability int rho K |B(k, t)|^2 dk, scalar or array t.

    |B(k, t)|^2 factors into the steady-state Lorentzian weight times
    1 - 2 e^{-G t} cos((k - w0) t) + e^{-2 G t}; the smooth and oscillatory
    parts are integrated separately, and the weight is exactly 0 at t = 0.
    """
    return _window_curve(params, t, lambda tau, frac: 1.0 + np.exp(-2.0 * tau) - 2.0 * frac)


def conservation_check(params: DecayParams, t):
    """Residual |C(t)|^2 + int rho K |B(k, t)|^2 dk - 1, scalar or array t.

    It equals 2 (e^{-2 G t} - damped / base), which is evaluated instead: it
    subtracts no 1 and so keeps full relative precision when the residual is
    tiny. Zero exactly at t = 0. The finite window leaves a transient deficit
    of order 0.03 exp(-2 G t) at early times; by t ~ 1/G the magnitude is
    well below 0.02 for omega0/gamma >= 1e3, and at fixed G t it shrinks as
    omega0/gamma grows.
    """
    return _window_curve(params, t, lambda tau, frac: 2.0 * (np.exp(-2.0 * tau) - frac))


def sz_expectation(t, params: DecayParams):
    """<S_z(t)> = <L_z(t)> in units hbar: (1/2)(1 - exp(-2 G t))."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("t must be >= 0")
    out = 0.5 * (1.0 - np.exp(-2.0 * params.gamma * arr))
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

    The amplitude machinery validates the closed form: excited_pop decays as
    the AM expectation grows, and norm_residual reports how well the
    calibrated photon weight completes the excited population to one.
    """
    t = params.time_grid
    arrays = dict(
        t=t.copy(),
        sz_expect=sz_expectation(t, params),
        excited_pop=np.exp(-2.0 * params.gamma * t),
        norm_residual=conservation_check(params, t),
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return DecayCurve(**arrays)


CSV_HEADER = "t,sz_over_hbar,excited_pop,norm_residual"


def decay_csv_lines(curve: DecayCurve) -> list[str]:
    """CSV rows at 12 significant digits, header included."""
    columns = (curve.t, curve.sz_expect, curve.excited_pop, curve.norm_residual)
    return csv_lines(CSV_HEADER, columns)
