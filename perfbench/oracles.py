"""Checks of each sweep operation against computations made apart from photonam.

Every check takes an operation's input and its outputs as plain values (see
each sweep's `outputs` in workloads.py) and returns a list of failure
messages; an empty list means the outputs are correct. This module runs in the
checker process, which never imports photonam: the reference values come from
scipy.special, scipy.optimize, numpy Gauss-Legendre rules and numpy.linalg, or
from exact values the physics fixes.
Each tolerance is the accuracy photonam documents or requests for that
output, not a fit to today's numbers; README.md lists the agreement seen.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn

from clichecks import SHELL_TOL, check_decay_csv, check_profile_csv

# --- radial -----------------------------------------------------------------

#: normalize_mode documents a relative error below 1e-10.
F_REL_TOL = 1e-10
#: A golden-section search compares function values, so near a smooth maximum
#: it locates the argument only to about sqrt(machine epsilon) relative, a few
#: 1e-8 here; the bound leaves room for rounding in f_oam itself.
PEAK_TOL = 1e-6

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gauss_legendre(func, lo: float, hi: float, width: float) -> float:
    """Composite 24-point Gauss-Legendre rule on panels of at most `width`."""
    panels = max(1, math.ceil((hi - lo) / width))
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return float(np.sum(half * (func(x) @ _GL_WEIGHTS)))


def shell_integral(ell: int, x_max: float) -> float:
    """int_0^x_max j_ell(x)^2 x^2 dx from scipy's spherical_jn."""
    return _gauss_legendre(lambda x: spherical_jn(ell, x) ** 2 * x * x, 0.0, x_max, 1.0)


def densities(x: np.ndarray, kR: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_spin, f_oam, magnitude scale) at k = 1 and hbar = 1.

    With c_ell^2 = V / I_ell the prefactor hbar c_ell^2 / (3V) is 1 / (3 I_ell).
    """
    w0 = 1.0 / (3.0 * shell_integral(0, kR))
    w2 = 1.0 / (3.0 * shell_integral(2, kR))
    j0sq = spherical_jn(0, x) ** 2
    j2sq = spherical_jn(2, x) ** 2
    return 2.0 * w0 * j0sq - 0.5 * w2 * j2sq, 1.5 * w2 * j2sq, 2.0 * w0 * j0sq + 0.5 * w2 * j2sq


@functools.cache
def oam_peak() -> float:
    """First maximum of j2, where d/dx j2 has its first positive root."""
    return brentq(lambda x: spherical_jn(2, x, derivative=True), 2.5, 4.5, xtol=1e-15)


def check_radial(inp: dict, out: dict) -> list[str]:
    failures = []
    want_spin, want_oam, scale = densities(inp["points"], inp["kR"])
    for name, want in (("f_spin", want_spin), ("f_oam", want_oam)):
        err = float(np.max(np.abs(out[name] - want) / scale))
        if not err <= F_REL_TOL:
            failures.append(f"{name} differs from the spherical_jn oracle by {err:.3g} relative")
    for name, end in zip(("cum_spin", "cum_oam"), out["cum_ends"]):
        if not abs(end - 0.5) <= SHELL_TOL:
            failures.append(f"{name}[-1] = {end!r}, not 1/2")
    peak_err = abs(out["oam_peak_kr"] - oam_peak())
    if not peak_err <= PEAK_TOL:
        failures.append(f"OAM peak is {peak_err:.3g} from the first root of j2'")
    failures += check_profile_csv(out["csv"], inp["kR"], out["n_samples"])
    return failures


# --- decay ------------------------------------------------------------------

#: sz_expectation and excited_pop are closed forms; their identity holds to
#: rounding.
CLOSED_FORM_TOL = 1e-15
#: photonam asks quad for 1e-10 relative on the base weight and 1e-12 relative
#: (1e-13 absolute) on the oscillatory one; both enter the residual with a
#: factor of at most 2.
RESIDUAL_TOL = 2e-10
#: conservation_check documents |residual| well below 0.02 by t ~ 1/gamma for
#: omega0/gamma >= 1e3; the CLI's decay report uses the same bound.
RESIDUAL_BOUND = 0.02
WINDOW = 40.0


def window_residual(ratio: float, tau: float) -> float:
    """|C|^2 + photon weight - 1 at gamma t = tau from numpy Gauss-Legendre integrals.

    The weight is int (1 + eps u)^3 / (1 + u^2) (1 - 2 e^-tau cos(u tau) + e^-2tau)
    over the +-40 gamma window, divided by its t -> infinity value.
    """
    eps = 1.0 / ratio
    lorentz = lambda u: (1.0 + eps * u) ** 3 / (1.0 + u * u)
    base = _gauss_legendre(lorentz, -WINDOW, WINDOW, 0.25)
    osc = _gauss_legendre(lambda u: lorentz(u) * np.cos(u * tau), -WINDOW, WINDOW, 0.25)
    decay = math.exp(-tau)
    return decay * decay + ((1.0 + decay * decay) * base - 2.0 * decay * osc) / base - 1.0


def check_decay(inp: dict, out: dict) -> list[str]:
    failures = []
    t, residual = out["t"], out["norm_residual"]
    closed = float(np.max(np.abs(out["sz_expect"] + out["excited_pop"] / 2.0 - 0.5)))
    if not closed <= CLOSED_FORM_TOL:
        failures.append(f"sz_expect + excited_pop/2 misses 1/2 by {closed:.3g}")
    if t[0] != 0.0 or residual[0] != 0.0:
        failures.append(f"norm_residual at t = 0 is {residual[0]!r}, not 0")
    for i in inp["check_indices"]:
        want = window_residual(inp["ratio"], float(t[i]))
        if not abs(residual[i] - want) <= RESIDUAL_TOL:
            failures.append(
                f"norm_residual at t = {t[i]} is {residual[i]!r}, "
                f"the window integrals give {want!r}"
            )
    end = out["residual_end"]
    want_end = window_residual(inp["ratio"], 10.0)
    if not (abs(end - want_end) <= RESIDUAL_TOL and abs(end) < RESIDUAL_BOUND):
        failures.append(f"conservation_check at t = 10/gamma is {end!r}, expected {want_end!r}")
    failures += check_decay_csv(out["csv"], len(t))
    return failures


# --- operators --------------------------------------------------------------

#: Sector eigenvalues reach l(l+1) = 72 at cutoff 8 on blocks of dim <= 45;
#: eigvalsh is backward stable to about dim * eps * ||J^2|| ~ 1e-12.
SPECTRUM_TOL = 1e-11
ALGEBRA_TOL = 1e-12
#: selection_rule_check's own tolerances.
COUPLING_TOL = 1e-12
OVERLAP_TOL = 1e-10
#: The CLI's verify-all bounds on the entanglement optimum.
OPTIMUM_C1_TOL = 1e-8
OPTIMUM_MU_TOL = 1e-10
VARIANCES = {0: (1.0, 1.0, 0.0), 1: (0.5, 0.5, 0.0), -1: (0.5, 0.5, 0.0)}


def sector_spectrum(n: int) -> list[float]:
    """J^2 on n photons of three spin-1 modes: l = n, n-2, ..., each (2l+1)-fold."""
    return sorted(l * (l + 1.0) for l in range(n % 2, n + 1, 2) for _ in range(2 * l + 1))


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix)))


def check_operators(inp: dict, out: dict) -> list[str]:
    failures = []
    jx, jy, jz = out["j"]

    j_squared = jx @ jx + jy @ jy + jz @ jz
    numbers = out["photon_numbers"]
    for n in range(int(numbers.max()) + 1):
        sector = np.flatnonzero(numbers == n)
        got = np.linalg.eigvalsh(j_squared[np.ix_(sector, sector)])
        err = float(np.max(np.abs(got - sector_spectrum(n))))
        if not err <= SPECTRUM_TOL:
            failures.append(f"J^2 spectrum in the {n}-photon sector is off by {err:.3g}")

    closure = max(
        _max_abs(a @ b - b @ a - 1j * c) for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy))
    )
    passed, residual = out["su2"]
    if not (closure < ALGEBRA_TOL and passed and residual < ALGEBRA_TOL):
        failures.append(f"SU(2) closure residual {closure:.3g}, photonam reports {residual:.3g}")

    dependence = _max_abs(sum(out["diagonal_raw"]))
    if not (dependence < ALGEBRA_TOL and out["n_generators"] == 8):
        failures.append(f"SU(3) diagonal generators sum to {dependence:.3g}, not 0")

    for identity, passed, residual, degenerate in out["densities"]:
        if not (passed and residual < ALGEBRA_TOL) or degenerate:
            failures.append(f"{identity}: residual {residual:.3g}, degenerate {degenerate}")

    for m, want in VARIANCES.items():
        got = out["variances"][m]
        if not max(abs(g - w) for g, w in zip(got, want)) < ALGEBRA_TOL:
            failures.append(f"variances for m = {m} are {got}, expected {want}")

    failures += _check_selection_rule(inp, out)

    c1, mu, local_max = out["optimum"]
    if not (
        abs(c1 - 1.0 / math.sqrt(3.0)) < OPTIMUM_C1_TOL
        and abs(mu - 2.0 / (3.0 * math.sqrt(3.0))) < OPTIMUM_MU_TOL
        and local_max < OPTIMUM_C1_TOL
    ):
        failures.append(f"entanglement optimum c1 = {c1!r}, mu = {mu!r}")
    return failures


def _check_selection_rule(inp: dict, out: dict) -> list[str]:
    """The odd pair state stays dark under eigh-based evolution from |e; vac>."""
    h = out["hamiltonian"]
    pairs = out["pair_indices"]
    odd = np.zeros(len(h), dtype=complex)
    odd[pairs[1]] = 1.0 / math.sqrt(2.0)  # (|+1, -1> - |-1, +1>) / sqrt(2)
    odd[pairs[-1]] = -1.0 / math.sqrt(2.0)
    excited = np.zeros(len(h), dtype=complex)
    excited[out["excited_index"]] = 1.0
    # H |e; vac> = omega0 |e; vac> + g sum_m |g; 1_m fwd, 1_-m bwd>: the atom
    # emits only pairs with m1 + m2 = 0, each with amplitude g.
    g = inp["coupling"]
    emitted = inp["omega0"] * excited
    emitted[list(pairs.values())] += g
    emission_err = _max_abs(h @ excited - emitted)

    energies, vectors = np.linalg.eigh(h)
    start = vectors.conj().T @ excited
    rule = out["rule"]
    overlaps = [
        abs(np.vdot(odd, vectors @ (np.exp(-1j * energies * t) * start))) for t in rule["times"]
    ]
    failures = []
    if not emission_err < COUPLING_TOL:
        failures.append(f"H |e; vac> misses the m1 + m2 = 0 pair emission by {emission_err:.3g}")
    if not max(overlaps) < OVERLAP_TOL:
        failures.append(f"the odd pair state grows to overlap {max(overlaps):.3g}")
    if not (
        rule["passed"]
        and rule["coupling_to_odd"] < COUPLING_TOL
        and rule["eigen_residual"] < COUPLING_TOL
        and max(rule["overlaps"]) < OVERLAP_TOL
        and len(rule["times"]) == 3
        and abs(rule["times"][1] * g - 1.0) < 1e-12
    ):
        failures.append(f"selection_rule_check reports {rule}")
    return failures


CHECKS = {
    "radial-sweep": check_radial,
    "decay-sweep": check_decay,
    "operator-sweep": check_operators,
}
