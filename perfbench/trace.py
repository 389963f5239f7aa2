"""Per-layer tracing from outside the package.

The layers are the package's modules.  Tracer wraps every public function of
each layer module at every module-level reference the package holds (including
`from .x import f` copies), so a call records a span whichever module makes
it.  Spans are kept in memory; the harness aggregates them once per pass over
the workload and keeps the first pass's spans for the output file.

A span's self time is its duration minus the time covered by child spans of
other layers.  Calls between functions of one layer are counted, but their
time stays with the caller's layer, so the self times of the outermost span
of each layer visit add up to at most the traced wall time.

A name that a later change removes from its module is reported as absent; the
metrics that depend on it read 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "dicke_metrology"
# layer name -> module under PACKAGE
LAYERS = {
    "dicke": "dicke",
    "gaussian": "gaussian",
    "estimation": "estimation",
    "measurements": "measurements",
    "kernels": "_kernels",
    "cli": "cli",
}
# result -> number of photon-number terms, for the spans that produce them
SIZERS = {
    "kernels.pn_series": len,
    "measurements.photon_distribution": lambda dist: len(dist.probs),
}
SERIES = "kernels.pn_series"
DISTRIBUTION = "measurements.photon_distribution"
# fi_photon_counting is a thin wrapper of fi_photon_counting_detail, which the
# CLI calls directly; a direct call counts towards the wrapper's self time
SELF_TIME_ALIASES = {"measurements.fi_photon_counting_detail": "measurements.fi_photon_counting"}


class Tracer:
    def __init__(self, layers: dict[str, str] = LAYERS):
        self.layer_names = list(layers)
        self.names: list[str] = []  # fid -> "layer.function"
        self.absent_modules: list[str] = []
        self.spans: list[tuple] = []  # (id, parent id, fid, t0 ns, t1 ns, self ns, size)
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper, "layer.function")
        for layer_idx, (layer, module_name) in enumerate(layers.items()):
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                self.absent_modules.append(layer)
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                qualname = f"{layer}.{name}"
                wrapper = self._wrap(len(self.names), layer_idx, obj, SIZERS.get(qualname))
                self.names.append(qualname)
                self._wrappers[id(obj)] = (obj, wrapper, qualname)
        self.layer_of = [self.layer_names.index(n.split(".", 1)[0]) for n in self.names]
        self._sites = self._find_sites()

    def _find_sites(self) -> list[tuple]:
        sites = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    sites.append((module, attr, *hit))
        return sites

    def install(self, only: set[str] | None = None) -> None:
        """Replace the originals by wrappers; with `only`, just those names."""
        for module, attr, _original, wrapper, qualname in self._sites:
            if only is None or qualname in only:
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper, _qualname in self._sites:
            setattr(module, attr, original)

    def take_spans(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fid: int, layer_idx: int, fn, sizer):
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), layer_idx, 0]  # span id, layer, ns covered by other-layer children
            stack.append(frame)
            size = -1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[2] += frame[2] if parent[1] == layer_idx else duration
                tracer.spans.append(
                    (frame[0], parent[0] if parent else -1, fid, t0, t1, duration - frame[2], size)
                )

        return traced


@dataclass
class SpanStats:
    """Sums over spans; add() folds in one pass's spans."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    size_sum: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    size_max: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    layer_self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    series_in_distribution: int = 0
    terms_in_distribution: int = 0

    def add(self, spans: list[tuple], tracer: Tracer) -> None:
        by_id = {s[0]: s for s in spans}
        names, layer_of = tracer.names, tracer.layer_of
        for span_id, parent_id, fid, _t0, _t1, self_ns, size in spans:
            name = names[fid]
            self.calls[name] += 1
            self.self_ns[name] += self_ns
            if size >= 0:
                self.size_sum[name] += size
                self.size_max[name] = max(self.size_max[name], size)
            parent = by_id.get(parent_id)
            alias = SELF_TIME_ALIASES.get(name)
            if alias and (parent is None or names[parent[2]] != alias):
                self.self_ns[alias] += self_ns
            if parent is None or layer_of[parent[2]] != layer_of[fid]:
                self.layer_self_ns[tracer.layer_names[layer_of[fid]]] += self_ns
            if name == SERIES:
                while parent is not None and names[parent[2]] != DISTRIBUTION:
                    parent = by_id.get(parent[1])
                if parent is not None:
                    self.series_in_distribution += 1
                    self.terms_in_distribution += size


# (metric, unit, names it needs, value from (stats, passes, couplings per pass))
PER_LAYER = (
    ("dicke.ground_state.calls", "count", ("dicke.ground_state",), lambda s, p, c: s.calls["dicke.ground_state"] / p),
    ("dicke.ground_state.self_ms", "ms", ("dicke.ground_state",), lambda s, p, c: s.self_ns["dicke.ground_state"] / p / 1e6),
    ("dicke.derive.calls", "count", ("dicke.derive",), lambda s, p, c: s.calls["dicke.derive"] / p),
    ("gaussian.symplectic_spectrum.calls", "count", ("gaussian.symplectic_spectrum",),
     lambda s, p, c: s.calls["gaussian.symplectic_spectrum"] / p),
    ("gaussian.self_ms", "ms", ("gaussian",), lambda s, p, c: s.layer_self_ns["gaussian"] / p / 1e6),
    ("estimation.qfi.calls", "count", ("estimation.qfi",), lambda s, p, c: s.calls["estimation.qfi"] / p),
    ("estimation.state_derivative.calls", "count", ("estimation.state_derivative",),
     lambda s, p, c: s.calls["estimation.state_derivative"] / p),
    ("estimation.self_ms", "ms", ("estimation",), lambda s, p, c: s.layer_self_ns["estimation"] / p / 1e6),
    ("estimation.derivative_reuse", "ratio", ("estimation.state_derivative",),
     lambda s, p, c: _ratio(c * p, s.calls["estimation.state_derivative"])),
    ("measurements.fi_homodyne.self_ms", "ms", ("measurements.fi_homodyne",),
     lambda s, p, c: s.self_ns["measurements.fi_homodyne"] / p / 1e6),
    ("measurements.fi_photon_counting.self_ms", "ms", ("measurements.fi_photon_counting",),
     lambda s, p, c: s.self_ns["measurements.fi_photon_counting"] / p / 1e6),
    ("measurements.photon_distribution.calls", "count", (DISTRIBUTION,), lambda s, p, c: s.calls[DISTRIBUTION] / p),
    ("measurements.photon_distribution.self_ms", "ms", (DISTRIBUTION,), lambda s, p, c: s.self_ns[DISTRIBUTION] / p / 1e6),
    ("measurements.series_per_distribution", "ratio", (DISTRIBUTION, SERIES),
     lambda s, p, c: _ratio(s.series_in_distribution, s.calls[DISTRIBUTION])),
    ("measurements.series_useful_ratio", "ratio", (DISTRIBUTION, SERIES),
     lambda s, p, c: _ratio(s.size_sum[DISTRIBUTION], s.terms_in_distribution)),
    ("kernels.pn_series.calls", "count", (SERIES,), lambda s, p, c: s.calls[SERIES] / p),
    ("kernels.pn_series.terms", "count", (SERIES,), lambda s, p, c: s.size_sum[SERIES] / p),
    ("kernels.pn_series.max_n", "count", (SERIES,), lambda s, p, c: max(s.size_max[SERIES] - 1, 0)),
    ("kernels.pn_series.self_ms", "ms", (SERIES,), lambda s, p, c: s.self_ns[SERIES] / p / 1e6),
    ("kernels.pn_series.ns_per_term", "ns", (SERIES,), lambda s, p, c: _ratio(s.self_ns[SERIES], s.size_sum[SERIES])),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer: Tracer, stats: SpanStats, passes: int, couplings: float):
    """Per-pass span metrics and the sorted list of absent names."""
    present = set(tracer.names) | {layer for layer in tracer.layer_names if layer not in tracer.absent_modules}
    metrics, absent = {}, set()
    for name, unit, needs, value in PER_LAYER:
        missing = [n for n in needs if n not in present]
        absent.update(missing)
        metrics[name] = (0.0 if missing else float(value(stats, passes, couplings)), unit)
    return metrics, sorted(absent)
