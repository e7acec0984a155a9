"""In-memory spans and counters around calls into photonam's public functions.

Tracing is installed from outside the program: each public function named in
LAYERS is replaced, wherever a photonam module binds it, by a wrapper that
records a span (name, start_ns, end_ns, parent). COUNTED functions get a
wrapper that only counts calls, because they run tens of thousands of times
per operation and a span each would swamp what it measures. Spans stay in
memory; the caller writes them out when the run ends.

This module imports only the standard library, so the orchestrator can use the
aggregation helpers without importing numpy, scipy or photonam.
"""

from __future__ import annotations

import functools
import statistics
import time

#: Per-layer time metric -> (photonam module, public function).
LAYERS = {
    "radial.normalize_mode_ms": ("radial", "normalize_mode"),
    "radial.radial_profile_ms": ("radial", "radial_profile"),
    "radial.zone_report_ms": ("radial", "zone_report"),
    "radial.profile_csv_ms": ("radial", "profile_csv_lines"),
    "decay.sz_curve_ms": ("decay", "sz_curve"),
    "decay.conservation_check_ms": ("decay", "conservation_check"),
    "decay.decay_csv_ms": ("decay", "decay_csv_lines"),
    "fock.build_space_ms": ("fock", "build_space"),
    "fock.annihilation_ms": ("fock", "annihilation"),
    "angular.j_operators_ms": ("angular", "j_operators"),
    "angular.su3_generators_ms": ("angular", "su3_generators"),
    "angular.verify_su2_ms": ("angular", "verify_su2"),
    "angular.density_commutator_check_ms": ("angular", "density_commutator_check"),
    "angular.am_variances_ms": ("angular", "am_variances"),
    "twins.interaction_hamiltonian_ms": ("twins", "interaction_hamiltonian"),
    "twins.selection_rule_check_ms": ("twins", "selection_rule_check"),
    "twins.maximize_entanglement_ms": ("twins", "maximize_entanglement"),
}

#: Per-layer count metric -> (photonam module, function whose calls are counted).
#: `decay.quad_calls` counts scipy.integrate.quad calls made through decay's
#: own `integrate` binding, so radial's quadratures are not included.
COUNTED = {
    "radial.spherical_bessel_calls": ("radial", "spherical_bessel"),
    "decay.quad_calls": ("decay", "integrate.quad"),
}

#: photonam modules whose bindings of the traced functions are replaced.
MODULES = ("radial", "decay", "fock", "angular", "twins")


def layer_module(metric: str) -> str:
    return metric.split(".", 1)[0]


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index] plus named call counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTED}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def _span_wrapper(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _count_wrapper(self, name: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every binding of the traced functions in photonam's modules."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for metric, (module_name, func_name) in LAYERS.items():
            target = getattr(getattr(package, module_name), func_name)
            self._rebind(modules, target, self._span_wrapper(metric, target))
        bessel = package.radial.spherical_bessel
        self._rebind(
            modules, bessel, self._count_wrapper("radial.spherical_bessel_calls", bessel)
        )
        real_integrate = package.decay.integrate
        self._patch(
            package.decay,
            "integrate",
            _CountingIntegrate(
                real_integrate, self._count_wrapper("decay.quad_calls", real_integrate.quad)
            ),
        )

    def _rebind(self, modules, target, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _CountingIntegrate:
    """Stands in for `scipy.integrate` inside photonam.decay, counting `quad`."""

    def __init__(self, module, counting_quad) -> None:
        self._module = module
        self.quad = counting_quad

    def __getattr__(self, name):
        return getattr(self._module, name)


def layer_times_ms(spans: list[list], root: int) -> dict[str, float]:
    """Milliseconds spent in each layer under span `root`.

    A span nested inside a span of the same name is not added again, so a
    recursive or re-entrant call is counted once.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    totals = {name: 0.0 for name in LAYERS}
    pending = [(child, frozenset()) for child in children.get(root, [])]
    while pending:
        index, open_names = pending.pop()
        name, start, end, _ = spans[index]
        if name in totals and name not in open_names:
            totals[name] += (end - start) / 1e6
        inner = open_names | {name}
        pending.extend((child, inner) for child in children.get(index, []))
    return totals


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def merge(spans: list[list], child_spans: list[list], parent: int) -> None:
    """Append a child's spans under `parent`, re-indexing their parent links."""
    offset = len(spans)
    for name, start, end, up in child_spans:
        spans.append([name, start, end, parent if up < 0 else up + offset])
