"""Outside-in tracer for the traced benchmark run.

The tracer wraps named public functions of `latchcheck` from outside the
program.  Its modules import each other with `from .x import f`, so a
function has one alias per importing module; the tracer rebinds every
module-level alias of the original object across `latchcheck.*`, which
also catches calls made through the defining module's own globals.

Each wrapped call records a span (name, start, end, parent span) in flat
arrays kept in memory and written out by `write_spans` at the end.  Self
time is a span's duration minus the durations of its child spans.  Work
the tracer does for itself (hashing inputs to count distinct ones) runs on
a paused clock, so it is charged to no span.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

# Functions traced per module, as named by their defining module.  A name a
# later version of the program no longer defines is skipped, and its
# metrics are then absent from the report.
LAYERS = {
    "pointed": ("compose", "wedge", "coequalizer", "quotient_by_pairs", "pushout",
                "pullback", "smash_map", "mono_witness"),
    "simplicial": ("smash_ssets", "smash_sset_maps", "compose_sset_maps", "wedge_ssets",
                   "coequalizer_ssets", "pushout_ssets", "validate_sset"),
    "spectra": ("day_tensor", "smash_over_s", "unit_oracle", "spectral_latching",
                "latching_map_of_spectrum_map", "latching_corner", "wedge_spectra",
                "smash_spectrum_sset", "validate_spectrum"),
    "reedy": ("simplicial_latching", "reedy_corner", "is_good", "reedy_cofibrant_report",
              "is_reedy_cofibration", "realize", "realize_map", "pointwise_cofiber",
              "bisimplicial_reedy_report", "wedge_simplicial_spectra"),
    "generators": ("gen_sset", "gen_bisimplicial", "gen_good_simplicial_spectrum"),
    "builtins_corpus": ("builtin",),
    "documents": ("load_path", "to_document", "canonical_json"),
}

# Harness phases of one theorem-suite case: (metric, module, function).
PHASES = (
    ("suites.generate_s", "generators", "gen_thm_hypothesis_instance"),
    ("suites.gate_s", "suites", "theorem_hypotheses_report"),
    ("suites.conclude_s", "suites", "theorem_conclusion_report"),
)

# Per-layer metrics besides `<module>.<function>.calls` and `.self_s`.
EXTRA_METRICS = (
    ("pointed.maps_built", "count", "lower"),
    ("spectra.spectral_latching.computed", "count", "lower"),
    ("spectra.spectral_latching.distinct", "count", "lower"),
    ("spectra.latching_reuse", "ratio", "higher"),
    ("suites.generate_s", "s", "lower"),
    ("suites.gate_s", "s", "lower"),
    ("suites.conclude_s", "s", "lower"),
    ("suites.case_p50_s", "s", "lower"),
    ("suites.discards", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, names in LAYERS.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_s", "s", "lower"))
    return out + list(EXTRA_METRICS)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.case_s: list[float] = []
        self._case_start: float | None = None
        self._paused = 0.0
        self._latching_keys: set[int] = set()
        self._open_latching: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _pause(self, t0: float) -> None:
        self._paused += time.perf_counter() - t0

    # -- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_id.get(name)
        if idx is None:
            idx = self._name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.incl_s[name] = 0.0
        return idx

    def wrap(self, name: str, fn, on_enter=None, on_exit=None):
        name_id = self._intern(name)
        stack = self._stack
        names = self.names
        now = self.now

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            frame = [len(self.span_start), name_id, now(), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(frame[2])
            self.span_end.append(0.0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = now()
                stack.pop()
                duration = end - frame[2]
                self.span_end[frame[0]] = end
                key = names[name_id]
                self.calls[key] += 1
                self.self_s[key] += duration - frame[3]
                self.incl_s[key] += duration
                if stack:
                    stack[-1][3] += duration
                if on_exit is not None:
                    on_exit(frame, ok and result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        count = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "latchcheck" or modname.startswith("latchcheck.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    count += 1
        return count

    def install(self) -> list[str]:
        """Wrap every listed function; returns the names found missing."""
        import importlib

        missing = []
        hooks = {
            "spectra.spectral_latching": (self._latching_enter, self._latching_exit),
            "spectra.day_tensor": (self._tensor_enter, None),
        }
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"latchcheck.{module}")
            for fn_name in names:
                original = getattr(mod, fn_name, None)
                if original is None:
                    missing.append(f"{module}.{fn_name}")
                    continue
                enter, leave = hooks.get(f"{module}.{fn_name}", (None, None))
                self._rebind(original, self.wrap(f"{module}.{fn_name}", original, enter, leave))
        phase_hooks = {
            "suites.generate_s": (self._case_begin, None),
            "suites.gate_s": (self._gate_enter, self._gate_exit),
            "suites.conclude_s": (None, self._case_end),
        }
        for metric, module, fn_name in PHASES:
            original = getattr(importlib.import_module(f"latchcheck.{module}"), fn_name, None)
            if original is None:
                missing.append(metric)
                continue
            enter, leave = phase_hooks[metric]
            self._rebind(original, self.wrap(metric, original, enter, leave))
        pointed = importlib.import_module("latchcheck.pointed")
        post_init = getattr(pointed.PointedMap, "__post_init__", None)
        if post_init is not None:
            counters = self.counters
            counters["pointed.maps_built"] = 0

            def counted(obj):
                counters["pointed.maps_built"] += 1
                return post_init(obj)

            pointed.PointedMap.__post_init__ = counted
            self._undo.append((pointed.PointedMap, "__post_init__", post_init))
        else:
            missing.append("pointed.maps_built")
        self.missing = missing
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- hooks ---------------------------------------------------------------

    def _latching_enter(self, args, kwargs) -> None:
        t0 = time.perf_counter()
        x = args[0] if args else kwargs.get("x")
        n = args[1] if len(args) > 1 else kwargs.get("n")
        try:
            self._latching_keys.add(hash((x, n)))
        except TypeError:
            pass
        self._open_latching.append([False])
        self._pause(t0)

    def _latching_exit(self, frame, result) -> None:
        computed = self._open_latching.pop()[0]
        if computed:
            self.counters["spectra.spectral_latching.computed"] = (
                self.counters.get("spectra.spectral_latching.computed", 0) + 1)

    def _tensor_enter(self, args, kwargs) -> None:
        for flag in self._open_latching:
            flag[0] = True

    def _case_begin(self, args, kwargs) -> None:
        self._case_start = self.now()

    def _gate_enter(self, args, kwargs) -> None:
        # adversarial cases are built without the public generator
        if self._case_start is None:
            self._case_start = self.now()

    def _gate_exit(self, frame, report) -> None:
        # a discarded case is not a case of the suite
        if report is not False and not getattr(report, "passed", True):
            self._case_start = None

    def _case_end(self, frame, result) -> None:
        if self._case_start is not None:
            self.case_s.append(self.now() - self._case_start)
        self._case_start = None

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out: dict[str, float] = {}
        for module, names in LAYERS.items():
            for fn_name in names:
                key = f"{module}.{fn_name}"
                if key in self.calls:
                    out[f"{key}.calls"] = self.calls[key]
                    out[f"{key}.self_s"] = self.self_s[key]
        for metric, _module, _fn in PHASES:
            if metric in self.incl_s:
                out[metric] = self.incl_s[metric]
        if "pointed.maps_built" in self.counters:
            out["pointed.maps_built"] = self.counters["pointed.maps_built"]
        if "spectra.spectral_latching" in self.calls:
            computed = self.counters.get("spectra.spectral_latching.computed", 0)
            distinct = len(self._latching_keys)
            out["spectra.spectral_latching.computed"] = computed
            out["spectra.spectral_latching.distinct"] = distinct
            # no latching computed at all wastes nothing
            out["spectra.latching_reuse"] = distinct / computed if computed else 1.0
        if "suites.gate_s" in self.incl_s:
            out["suites.case_p50_s"] = statistics.median(self.case_s) if self.case_s else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines: a header naming the span names, then one
        `[name id, parent span, start, end]` row per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_start)}) + "\n")
            for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write("[%d,%d,%.7f,%.7f]\n" % row)


def merge(parts: list[dict[str, float]], case_lists: list[list[float]] | None = None
          ) -> dict[str, float]:
    """Sum per-layer metrics of several traced processes.  Ratios and
    medians are recomputed from their parts."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key in ("spectra.latching_reuse", "suites.case_p50_s"):
                continue
            out[key] = out.get(key, 0) + value
    if "spectra.spectral_latching.computed" in out:
        computed = out["spectra.spectral_latching.computed"]
        # distinct inputs are counted per process; content seen in two
        # processes is counted twice, as it is computed twice
        out["spectra.latching_reuse"] = (out["spectra.spectral_latching.distinct"] / computed
                                         if computed else 1.0)
    if case_lists is not None and any(case_lists):
        out["suites.case_p50_s"] = statistics.median(c for cases in case_lists for c in cases)
    elif "suites.gate_s" in out:
        out["suites.case_p50_s"] = 0.0
    return out
