"""Per-layer tracing for the benchmark's traced run.

The layers are turlab's modules. While a ``Tracer`` is installed, each listed
public function is replaced, in every turlab module that binds it, by a wrapper
that records a span (name, start, end, parent, item) or, for the small linalg
helpers, only a call count. Spans are recorded only below ``cli.main``, so the
benchmark's own calls into turlab (instance generation, reference values) do
not count. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import numpy as np

ROOT_SPAN = "cli.main"

TIMED = {
    "harness": ("generate_trial", "evaluate_trial", "summarize", "estimate_main_circuit",
                "estimate_nested_circuit", "run_experiment"),
    "protocol": ("correlator_bound", "separable_tur_protocol_check", "protocol_state",
                 "nested_premeasure_state", "sample_shots", "exact_correlator", "protocol_correlator"),
    "tur": ("check_general_tur", "purify", "survival_activity", "qfi", "sld",
            "survival_activity_series", "survival_activity_protocol_sim"),
    "channels": ("kraus_from_unitary", "perturbed_kraus", "dv0_dtheta", "heisenberg"),
    "serialize": ("trials_csv_text", "trials_json_text", "summary_json_text", "manifest_text",
                  "dumps_json", "decode_matrix", "channel_from_spec"),
    "verify": ("suite_qfi", "suite_scaling", "suite_protocol", "suite_saturation", "suite_series",
               "run_suites"),
    "cli": ("main",),
}
# Too small to time through a wrapper: counted only.
COUNTED = {"linalg": ("require_hermitian", "require_density", "hermitian_inverse",
                      "embed_operator", "partial_trace")}
# Entry points report their self time as a share of request wall time.
ENTRY_POINTS = ("cli.main", "harness.run_experiment", "verify.run_suites")
BYTES_OUT = ("serialize.trials_csv_text", "serialize.trials_json_text", "serialize.summary_json_text",
             "serialize.manifest_text", "serialize.dumps_json")
BOUND_VARIANTS = ("exact", "neumann1")


def _labels(layer: str, function: str) -> tuple[str, ...]:
    if (layer, function) == ("protocol", "correlator_bound"):
        return tuple(f"protocol.correlator_bound-{v}" for v in BOUND_VARIANTS)
    return (f"{layer}.{function}",)


def _label_of(layer: str, function: str):
    if (layer, function) == ("protocol", "correlator_bound"):
        def label(args, kwargs):
            variant = kwargs.get("variant", args[4] if len(args) > 4 else "exact")
            return f"protocol.correlator_bound-{variant}"
        return label
    name = f"{layer}.{function}"
    return lambda args, kwargs: name


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, functions in TIMED.items():
        for function in functions:
            for label in _labels(layer, function):
                if label in ENTRY_POINTS:
                    specs.append((f"{label}.self_share", "ratio", "lower"))
                    continue
                specs.append((f"{label}.calls_per_item", "calls/item", "lower"))
                specs.append((f"{label}.us_p50", "us", "lower"))
                if label in BYTES_OUT:
                    specs.append((f"{label}.bytes_per_item", "B/item", "lower"))
    for layer, functions in COUNTED.items():
        specs += [(f"{layer}.{f}.calls_per_item", "calls/item", "lower") for f in functions]
    specs.append(("protocol.sample_shots.outcomes_nonzero", "count", "lower"))
    specs.append(("harness.sampled.useful_ratio", "ratio", "higher"))
    specs.append(("trace.overhead_ratio", "ratio", "higher"))
    return specs


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int
    self_s: float


def _nonzero_outcomes(shot_result) -> int:
    counts = shot_result.counts
    values = counts.values() if isinstance(counts, dict) else np.ravel(counts)
    return sum(1 for n in values if n)


class Tracer:
    """Wraps turlab's listed functions while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.bytes_out: Counter = Counter()
        self.outcomes: list[int] = []
        self.item = 0                 # id of the current request, set by the caller
        self._stack: list[list] = []  # [span index, seconds covered by child spans]
        self._saved: list[tuple] = []

    def _timed(self, label_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs)
            if not self._stack and label != ROOT_SPAN:
                return fn(*args, **kwargs)
            self.counts[label] += 1
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else None
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[index] = Span(label, start, end, parent, self.item, end - start - frame[1])
            if label in BYTES_OUT:
                self.bytes_out[label] += len(result.encode())
            elif label == "protocol.sample_shots":
                self.outcomes.append(_nonzero_outcomes(result))
            return result
        return wrapper

    def _counted(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        layers = {**TIMED, **COUNTED}
        for layer in layers:
            importlib.import_module(f"turlab.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "turlab" or n.startswith("turlab.")]
        for layer, functions in layers.items():
            module = sys.modules[f"turlab.{layer}"]
            for function in functions:
                original = getattr(module, function)
                if layer in TIMED:
                    wrapper = self._timed(_label_of(layer, function), original)
                else:
                    wrapper = self._counted(f"{layer}.{function}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s.end - s.start)
        return out


def layer_metrics(run: Tracer, probe: Tracer, items: int, wall_s: float,
                  useful_ratio: float, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of a traced run over ``items`` items and ``wall_s`` request seconds.

    ``us_p50`` is taken from the run's own calls; for a function the workload
    never calls, it comes from ``probe``, a traced pass over every code path.
    """
    durations, probe_durations = run.durations(), probe.durations()
    self_time = Counter()
    for s in run.spans:
        self_time[s.name] += s.self_s
    values = {}
    for name, _, _ in metric_specs():
        label, stat = name.rsplit(".", 1)
        if stat == "self_share":
            values[name] = self_time[label] / wall_s
        elif stat == "calls_per_item":
            values[name] = run.counts[label] / items
        elif stat == "us_p50":
            samples = durations.get(label) or probe_durations.get(label)
            values[name] = median(samples) * 1e6 if samples else 0.0
        elif stat == "bytes_per_item":
            values[name] = run.bytes_out[label] / items
    values["protocol.sample_shots.outcomes_nonzero"] = mean(run.outcomes) if run.outcomes else 0.0
    values["harness.sampled.useful_ratio"] = useful_ratio
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def write_spans(path: Path, phases: dict[str, Tracer]) -> None:
    """Write every span as one JSON line, times relative to the first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    starts = [t.spans[0].start for t in phases.values() if t.spans]
    origin = min(starts, default=0.0)
    with path.open("w") as f:
        for phase, tracer in phases.items():
            for s in tracer.spans:
                row = asdict(s)
                row["start"] -= origin
                row["end"] -= origin
                f.write(json.dumps({"phase": phase, **row}) + "\n")
