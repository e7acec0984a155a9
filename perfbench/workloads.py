"""The three library sweeps: seeded inputs, one-off set-up, and the operation.

Each sweep draws every input from `numpy.random.default_rng(seed)`, so a seed
fixes the whole input sequence; operation i always gets input i, however many
operations a run completes. Every operation does the same work on new inputs:
the input bands below were chosen so that photonam's adaptive machinery does
the same amount of work for every draw (see README.md). Only photonam and
numpy are imported here, because the set-up time of a sweep is measured up to
the end of `__init__`.
"""

from __future__ import annotations

import numpy as np

from photonam import angular, decay, radial, twins

#: radial-sweep: kR is drawn from KR_CENTER * (1 +- KR_BAND). Over this band
#: the adaptive normalization makes 10689-10731 integrand calls per ell.
KR_CENTER = 1000.0
KR_BAND = 0.02
RADIAL_SAMPLES = 2000
RADIAL_POINTS = 5

#: decay-sweep: omega0/gamma is log-uniform in [1e3, 1e4] with gamma = 1.
DECAY_LOG10_RATIO = (3.0, 4.0)
DECAY_CHECK_TIMES = 4

#: operator-sweep: the three-mode algebra at ALGEBRA_CUTOFF (dim 165) and the
#: twins check at TWINS_CUTOFF (dim 168). The coupling band keeps the scaling
#: exponent of every matrix exponential in selection_rule_check fixed.
ALGEBRA_CUTOFF = 8
TWINS_CUTOFF = 3
OPERATOR_CAVITY_KR = 100.0
DENSITY_RADII = 3
DENSITY_RADIUS_RANGE = (0.5, 90.0)
DENSITY_PAIRS = (("spin", "spin"), ("oam", "oam"), ("oam", "spin"))
COUPLING_RANGE = (0.048, 0.056)
TWINS_OMEGA = 1.0
TWINS_OMEGA0 = 2.0


class RadialSweep:
    """A new cavity per operation: profile, zone report and CSV at kR ~ 1e3."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.run(self.next_input())

    def next_input(self) -> dict:
        # a continuous draw never repeats, so the normalization cache always misses
        kR = KR_CENTER * (1.0 + KR_BAND * self.rng.uniform(-1.0, 1.0))
        return {"kR": kR, "points": self.rng.uniform(0.5, kR, RADIAL_POINTS)}

    def run(self, inp: dict) -> dict:
        cavity = radial.CavityConfig(k=1.0, R=inp["kR"])
        profile = radial.radial_profile(cavity, RADIAL_SAMPLES)
        return {
            "cavity": cavity,
            "profile": profile,
            "zone": radial.zone_report(cavity, RADIAL_SAMPLES),
            "csv": radial.profile_csv_lines(profile),
            "f_spin": radial.f_spin(inp["points"], cavity),
            "f_oam": radial.f_oam(inp["points"], cavity),
        }

    @staticmethod
    def outputs(out: dict) -> dict:
        profile = out["profile"]
        return {
            "f_spin": out["f_spin"],
            "f_oam": out["f_oam"],
            "cum_ends": (float(profile.cum_spin[-1]), float(profile.cum_oam[-1])),
            "n_samples": profile.n_samples,
            "oam_peak_kr": out["zone"].oam_peak_r * out["cavity"].k,
            "csv": out["csv"],
        }


class DecaySweep:
    """A new omega0/gamma per operation: the 201-point curve, its CSV, one check."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.run(self.next_input())

    def next_input(self) -> dict:
        ratio = 10.0 ** self.rng.uniform(*DECAY_LOG10_RATIO)
        times = self.rng.choice(np.arange(1, 201), DECAY_CHECK_TIMES, replace=False)
        return {"ratio": ratio, "check_indices": np.sort(times)}

    def run(self, inp: dict) -> dict:
        params = decay.DecayParams(omega0=inp["ratio"], gamma=1.0)
        curve = decay.sz_curve(params)
        return {
            "curve": curve,
            "csv": decay.decay_csv_lines(curve),
            "residual_end": decay.conservation_check(params, 10.0),
        }

    @staticmethod
    def outputs(out: dict) -> dict:
        curve = out["curve"]
        return {
            "t": curve.t,
            "sz_expect": curve.sz_expect,
            "excited_pop": curve.excited_pop,
            "norm_residual": curve.norm_residual,
            "residual_end": out["residual_end"],
            "csv": out["csv"],
        }


class OperatorSweep:
    """The cutoff-8 three-mode algebra and the cutoff-3 twins selection rule."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.cavity = radial.CavityConfig(k=1.0, R=OPERATOR_CAVITY_KR)
        self.run(self.next_input())

    def next_input(self) -> dict:
        return {
            "radii": self.rng.uniform(*DENSITY_RADIUS_RANGE, DENSITY_RADII),
            "coupling": self.rng.uniform(*COUPLING_RANGE),
            "omega": TWINS_OMEGA,
            "omega0": TWINS_OMEGA0,
        }

    def run(self, inp: dict) -> dict:
        space = angular.three_mode_space(ALGEBRA_CUTOFF)
        triple = angular.j_operators(space)
        generators = angular.su3_generators(space)
        su2 = angular.verify_su2(triple)
        densities = [
            angular.density_commutator_check(
                kind_a, kind_b, float(kr), 1e-12, config=self.cavity, triple=triple
            )
            for kr in inp["radii"]
            for kind_a, kind_b in DENSITY_PAIRS
        ]
        variances = {m: angular.am_variances(m, ALGEBRA_CUTOFF) for m in (1, 0, -1)}
        pair_space = twins.atom_field_space(TWINS_CUTOFF)
        omega, g = inp["omega"], inp["coupling"]
        hamiltonian = twins.interaction_hamiltonian(pair_space, omega, inp["omega0"], g)
        rule = twins.selection_rule_check(hamiltonian, pair_space, omega, g)
        return {
            "space": space,
            "triple": triple,
            "generators": generators,
            "su2": su2,
            "densities": densities,
            "variances": variances,
            "pair_space": pair_space,
            "hamiltonian": hamiltonian,
            "rule": rule,
            "optimum": twins.maximize_entanglement(),
        }

    @staticmethod
    def outputs(out: dict) -> dict:
        """Plain values; basis indices are looked up here, by mode label."""
        pair_space = out["pair_space"]
        field = pair_space.field_space

        def pair_index(m: int) -> int:
            """|g; 1_m forward, 1_-m backward>."""
            occ = [0] * len(field.modes)
            occ[field.mode_position(twins.FORWARD_MODES[twins.M_VALUES.index(m)])] = 1
            occ[field.mode_position(twins.BACKWARD_MODES[twins.M_VALUES.index(-m)])] = 1
            return pair_space.atom_index("g") * field.dim + field.index_of(tuple(occ))

        su2, rule, optimum = out["su2"], out["rule"], out["optimum"]
        return {
            "photon_numbers": np.array([sum(occ) for occ in out["space"].basis]),
            "j": [op.matrix for op in out["triple"].components()],
            "su2": (su2.passed, su2.max_residual),
            "diagonal_raw": [op.matrix for op in out["generators"].diagonal_raw],
            "n_generators": len(out["generators"].all_generators()),
            "densities": [
                (r.identity, r.passed, r.max_residual, r.degenerate) for r in out["densities"]
            ],
            "variances": out["variances"],
            "hamiltonian": out["hamiltonian"].matrix,
            "pair_indices": {m: pair_index(m) for m in twins.M_VALUES},
            "excited_index": pair_space.atom_index("e") * field.dim + field.index_of(
                (0,) * len(field.modes)
            ),
            "rule": {
                "passed": rule.passed,
                "coupling_to_odd": rule.coupling_to_odd,
                "eigen_residual": rule.eigen_residual,
                "times": rule.times,
                "overlaps": rule.evolution_overlaps,
            },
            "optimum": (optimum.c1_abs, optimum.mu_max, optimum.local_expectation_max_abs),
        }


#: Sweep name -> (class, the photonam modules its operations stress).
SWEEPS = {
    "radial-sweep": (RadialSweep, ("radial",)),
    "decay-sweep": (DecaySweep, ("decay",)),
    "operator-sweep": (OperatorSweep, ("fock", "angular", "twins")),
}
