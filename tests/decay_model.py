"""Weisskopf-Wigner amplitude model of the decay, the oracle of photonam.decay.

photonam computes the conservation residual |C(t)|^2 + int K |B(k, t)|^2 dk - 1
from closed-form window weights (arctan and the complex exponential integral
E1). The tests build it here from the amplitudes themselves:

    C(t)    = exp(-i w0 t - G t),
    B(k, t) = -sqrt(K) k^{3/2} / (k - w0 + i G) * (1 - exp(i (k - w0) t - G t)),

in units with c = 1, so the mode frequency is k. K makes the steady-state photon
weight int k^3 / ((k - w0)^2 + G^2) dk over the window [w0 - 40 G, w0 + 40 G]
(flat mode density) equal to one, and the photon weight is a Simpson sum of
|B|^2 over that window. None of it reads photonam's window-weight formulas.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import simpson

#: Window half-width in units of the decay width, as in photonam.decay.
WINDOW_WIDTHS = 40.0


def excited_amplitude(t, params):
    """C(t) = exp(-i w0 t - G t); |C|^2 = exp(-2 G t)."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("t must be >= 0")
    out = np.exp((-1j * params.omega0 - params.gamma) * arr)
    return complex(out) if arr.ndim == 0 else out


def calibration_constant(params) -> float:
    """K = 1 / int k^3 / ((k - w0)^2 + G^2) dk over the window.

    With u = (k - w0)/G and eps = G/w0 the integral is (w0^3/G) int (1 + eps u)^3
    / (1 + u^2) du over [-L, L]; expanding the cube, the odd powers cancel and
    u^2 / (1 + u^2) = 1 - 1 / (1 + u^2), which leaves
    2 arctan L + 6 eps^2 (L - arctan L).
    """
    eps2 = (params.gamma / params.omega0) ** 2
    length = WINDOW_WIDTHS
    integral = 2.0 * np.arctan(length) + 6.0 * eps2 * (length - np.arctan(length))
    return params.gamma / (params.omega0**3 * integral)


def photon_amplitude(k, t, params):
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


def photon_weight(params, t: float, points: int = 40001) -> float:
    """Photon probability int K |B(k, t)|^2 dk over the window, by Simpson's rule."""
    half = WINDOW_WIDTHS * params.gamma
    k_grid = np.linspace(params.omega0 - half, params.omega0 + half, points)
    return float(simpson(np.abs(photon_amplitude(k_grid, t, params)) ** 2, x=k_grid))
