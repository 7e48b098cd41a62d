"""In-memory spans around the public entry points of each vesselwrap layer.

The tracer lives in the benchmark, not in the program. ``Tracer.install``
replaces every entry point named in TARGETS with a timing wrapper wherever a
vesselwrap module binds that function object, so names bound at import
(``from .involvement import scan_involvement`` in ``cli`` and
``uncertainty``) are traced where their callers look them up.
``Tracer.uninstall`` puts every original object back.

A span records its name, start, end, parent span and facts taken from the
call's arguments and return value, never from program internals. Self time
is a span's duration minus the durations of its direct children (one thread,
so children nest inside their parent).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


def _read_facts(args, result):
    return {"calls": 1, "bytes": int(result.data.nbytes)}


def _write_facts(args, result):
    return {"bytes": int(args[0].data.nbytes)}


def _scan_facts(args, result):
    return {
        "calls": 1,
        "slices": len(result.slices),
        "contact_slices": sum(1 for s in result.slices if s.present),
        "components": sum(len(s.component_spans_deg) for s in result.slices),
    }


def _calls(args, result):
    return {"calls": 1}


def _elements(args, result):
    return {"calls": 1, "elements": int(np.size(args[1] if isinstance(args[0], str) else args[0]))}


def _image_facts(args, result):
    return {"images": 1, "bytes": int(np.asarray(args[1]).nbytes)}


# (span name, module, function, facts(args, result) or None, opaque)
# An opaque span traces no nested calls: gradcheck evaluates its loss
# thousands of times, and those evaluations belong to its own self time.
TARGETS = (
    ("cli", "cli", "main", None, False),
    ("volume.read", "volume", "read_volume", _read_facts, False),
    ("volume.write", "volume", "write_volume", _write_facts, False),
    ("volume.decode", "volume", "decode_layered", None, False),
    ("involvement.scan", "involvement", "scan_involvement", _scan_facts, False),
    ("involvement.filter", "involvement", "filter_critical_volume", None, False),
    ("uncertainty.field", "uncertainty", "fold_mean_std", None, False),
    ("uncertainty.mask", "uncertainty", "sigma_level_mask", _calls, False),
    ("uncertainty.sweep", "uncertainty", "uncertainty_sweep", None, False),
    ("evaluation.scan", "evaluation", "evaluate_scan", _calls, False),
    ("evaluation.report", "evaluation", "build_metrics_report", None, False),
    ("loss.values", "loss", "bce", _elements, False),
    ("loss.values", "loss", "soft_dice_loss", _elements, False),
    ("loss.values", "loss", "overlap_loss", _elements, False),
    ("loss.values", "loss", "combined_loss", _elements, False),
    ("loss.gradcheck", "loss", "gradcheck_loss", _elements, True),
    ("overlay", "overlay", "contact_overlay", None, False),
    ("overlay", "overlay", "heatmap_overlay", None, False),
    ("overlay", "overlay", "write_ppm", _image_facts, False),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "facts")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.facts = None


class Tracer:
    """Installs span wrappers into the vesselwrap modules and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.patched: list[tuple[object, str, object]] = []  # (module, attribute, original)
        self._stack: list[int] = []
        self._opaque = 0

    def _wrap(self, name, fn, facts, opaque):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._opaque -= opaque
                self._stack.pop()
            if facts is not None:
                span.facts = facts(args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vesselwrap" or name.startswith("vesselwrap."))
        ]
        try:
            for name, module_name, attr, facts, opaque in TARGETS:
                original = getattr(importlib.import_module(f"vesselwrap.{module_name}"), attr)
                wrapper = self._wrap(name, original, facts, opaque)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self.patched.append((module, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.patched:
            module, key, original = self.patched.pop()
            setattr(module, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take(self) -> dict[str, dict[str, float]]:
        """Self time, span count and summed facts per span name; clears the spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            agg = out.setdefault(span.name, {"self_s": 0.0, "spans": 0})
            agg["self_s"] += (span.end - span.start) - children
            agg["spans"] += 1
            for key, value in (span.facts or {}).items():
                agg[key] = agg.get(key, 0) + value
        self.spans.clear()
        return out


def leftover_wrappers() -> list[str]:
    """Names of vesselwrap module attributes that are still span wrappers."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "vesselwrap" or name.startswith("vesselwrap.")):
            continue
        for key, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}.{key}")
    return found
