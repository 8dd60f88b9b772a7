"""In-memory span recorder that wraps vibroprint's public functions from outside.

A traced function is replaced by a wrapper at every binding inside the
``vibroprint`` package: the module attribute (``vibroprint.signals.spectrum``)
and each name a caller bound at import time (``vibroprint.cli.spectrum``,
``vibroprint.spectrum``).  Each call records one span: name, start, end,
parent span, thread and pass.  A span opened on a worker thread with no
open span of its own is parented to the outermost span open on the main
thread, so the analyze pools' work is attributed to the ``cli.run`` that
started it.  Counters (cells scanned, bytes written, samples transformed)
are taken after the span has ended, so they do not inflate its duration.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

from workloads import grid_cells

SETUP = -1  # pass index of spans recorded while synthesizing inputs


def _size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.isfile(path) else 0


def _feasible_region_counts(a, result):
    return {
        "design.cells_scanned": grid_cells(a["constraints"], a["grid_step"]),
        "design.cells_kept": len(result.grid),
    }


def _bundle_written(a, result):
    return {"dataset.write_recording_bundle.bytes": _size(a["wav_path"]) + _size(result)}


def _bundle_read(a, result):
    wav = os.fspath(a["wav_path"])
    return {"dataset.bytes_read": _size(wav) + _size(os.path.splitext(wav)[0] + ".json")}


# (module, function, counter hook).  The span name is "<module>.<function>".
TARGETS = (
    ("cli", "run", None),
    ("design", "feasible_region", _feasible_region_counts),
    ("design", "segment_layouts", None),
    ("design", "write_feasible_csv", lambda a, r: {"design.write_feasible_csv.bytes": _size(a["path"])}),
    ("beams", "frequency_bounds", None),
    ("simulate", "slide_signal", None),
    ("dataset", "write_recording_bundle", _bundle_written),
    ("dataset", "read_recording_bundle", _bundle_read),
    ("dataset", "read_wav", None),
    ("signals", "spectrum", lambda a, r: {"signals.spectrum.samples": a["rec"].samples.size}),
    ("signals", "band_auc", None),
    ("signals", "normalize_against_baseline", None),
    ("signals", "report_to_json_dict", None),
    ("signals", "write_auc_csv", None),
    ("signals", "mean_spectrum", None),
    ("signals", "write_spectrum_csv", lambda a, r: {"signals.write_spectrum_csv.bytes": _size(a["path"])}),
)

# Per-layer metrics of a traced run: name -> unit.  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "design.feasible_region.calls": "count",
    "design.feasible_region.busy_s": "s",
    "design.segment_layouts.busy_s": "s",
    "design.cells_scanned": "count",
    "design.feasible_fraction": "ratio",
    "design.write_feasible_csv.busy_s": "s",
    "design.write_feasible_csv.bytes": "B",
    "beams.frequency_bounds.calls": "count",
    "beams.frequency_bounds.busy_s": "s",
    "simulate.slide_signal.calls": "count",
    "simulate.slide_signal.busy_s": "s",
    "dataset.write_recording_bundle.busy_s": "s",
    "dataset.write_recording_bundle.bytes": "B",
    "dataset.read_recording_bundle.calls": "count",
    "dataset.read_recording_bundle.busy_s": "s",
    "dataset.read_wav.busy_s": "s",
    "dataset.bytes_read": "B",
    "signals.spectrum.calls": "count",
    "signals.spectrum.busy_s": "s",
    "signals.spectrum.samples": "count",
    "signals.spectrum.calls_per_recording": "calls/recording",
    "signals.band_auc.busy_s": "s",
    "signals.normalize_against_baseline.busy_s": "s",
    "signals.report_to_json_dict.busy_s": "s",
    "signals.write_auc_csv.busy_s": "s",
    "signals.mean_spectrum.busy_s": "s",
    "signals.write_spectrum_csv.calls": "count",
    "signals.write_spectrum_csv.busy_s": "s",
    "signals.write_spectrum_csv.bytes": "B",
    "cli.run.busy_s": "s",
    "cli.run.self_s": "s",
    "cli.pool.parallelism": "s/s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans in parallel typed arrays; one lock guards id allocation and counters."""

    def __init__(self):
        self.names = [f"{module}.{attr}" for module, attr, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.thread = array("Q")
        self.pass_index = array("i")
        self.counters: dict[tuple[str, int], float] = defaultdict(float)
        self.current_pass = SETUP
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._root = -1
        self._wrappers: list[tuple[object, object]] | None = None
        self._installed: list[tuple[object, str, object]] = []

    def _begin(self, name_id: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        tid = threading.get_ident()
        on_main = tid == self._main
        parent = stack[-1] if stack else (-1 if on_main else self._root)
        with self._lock:
            sid = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(name_id)
            self.parent.append(parent)
            self.thread.append(tid)
            self.pass_index.append(self.current_pass)
        if on_main and not stack:
            self._root = sid
        stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if not stack and threading.get_ident() == self._main:
            self._root = -1

    def _wrap(self, fn, name_id: int, hook):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(sid)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                increments = hook(bound.arguments, result)
                with self._lock:
                    for key, value in increments.items():
                        self.counters[(key, self.current_pass)] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target inside the vibroprint package."""
        if self._wrappers is None:
            self._wrappers = []
            for name_id, (module, attr, hook) in enumerate(TARGETS):
                fn = getattr(sys.modules[f"vibroprint.{module}"], attr)
                self._wrappers.append((fn, self._wrap(fn, name_id, hook)))
        modules = [m for n, m in list(sys.modules.items()) if n == "vibroprint" or n.startswith("vibroprint.")]
        for fn, traced in self._wrappers:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)
                        self._installed.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._installed):
            setattr(module, key, fn)
        self._installed.clear()

    def write_csv(self, path) -> None:
        """One row per span: id, name, start_s, end_s, parent, thread, pass (-1 = setup)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "thread", "pass"])
            for sid in range(len(self.start)):
                writer.writerow(
                    [sid, self.names[self.name[sid]], repr(self.start[sid]), repr(self.end[sid]),
                     self.parent[sid], self.thread[sid], self.pass_index[sid]]
                )


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, traced_passes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, each per unit of work.

    Spans and counters recorded while synthesizing inputs count once (one
    setup); those recorded in passes are averaged over the traced passes.
    """
    # Totals keyed by (name, recorded in set-up?): set-up counts once, passes are averaged.
    calls: dict[tuple[str, bool], int] = defaultdict(int)
    busy: dict[tuple[str, bool], float] = defaultdict(float)
    counters: dict[tuple[str, bool], float] = defaultdict(float)

    def per_unit(totals, name: str) -> float:
        return totals[(name, True)] + totals[(name, False)] / traced_passes

    run_id = tracer.names.index("cli.run")
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid in range(len(tracer.start)):
        key = (tracer.names[tracer.name[sid]], tracer.pass_index[sid] == SETUP)
        s, e = tracer.start[sid], tracer.end[sid]
        calls[key] += 1
        busy[key] += e - s
        parent = tracer.parent[sid]
        if parent >= 0 and tracer.name[parent] == run_id:
            children[parent].append((s, e))
    for (name, p), value in tracer.counters.items():
        counters[(name, p == SETUP)] += value

    self_s = child_busy = child_cover = 0.0
    for sid in range(len(tracer.start)):
        if tracer.name[sid] != run_id:
            continue
        s, e = tracer.start[sid], tracer.end[sid]
        clipped = [(max(lo, s), min(hi, e)) for lo, hi in children[sid]]
        cover = _union_length(clipped)
        self_s += (e - s - cover) / traced_passes
        child_busy += sum(hi - lo for lo, hi in clipped)
        child_cover += cover

    values = {}
    for metric in LAYER_METRICS:
        head, _, tail = metric.rpartition(".")
        totals = calls if tail == "calls" else busy if tail == "busy_s" else counters
        values[metric] = per_unit(totals, head if totals is not counters else metric)
    scanned = per_unit(counters, "design.cells_scanned")
    values["design.feasible_fraction"] = per_unit(counters, "design.cells_kept") / scanned if scanned else 0.0
    recordings = per_unit(calls, "dataset.read_recording_bundle")
    values["signals.spectrum.calls_per_recording"] = per_unit(calls, "signals.spectrum") / recordings if recordings else 0.0
    values["cli.run.self_s"] = self_s
    values["cli.pool.parallelism"] = child_busy / child_cover if child_cover else 0.0
    values["trace.overhead_s"] = overhead_s
    return {metric: values[metric] for metric in LAYER_METRICS}
