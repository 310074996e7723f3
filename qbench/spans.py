"""Spans recorded from outside qlayout, around the public names it calls.

``Tracer.install`` replaces module attributes such as
``qlayout.search.encode_base`` with wrappers that record one span per call:
name, start, end, the span that was open when the call began, and the
operation it belongs to.  Spans stay in memory until ``dump``.
``uninstall`` puts the original functions back.  The workloads call qlayout
from one thread, so one stack of open spans suffices.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (qlayout module, attribute, span name); the attribute is looked up on the
# module at call time by the code that calls it, so patching it is enough.
TRACED = (
    ("qlayout.search", "solve_optimal", "search.solve_optimal"),
    ("qlayout.search", "build_context", "encode.context"),
    ("qlayout.search", "encode_base", "encode.base"),
    ("qlayout.search", "encode_depth_bound", "encode.bound"),
    ("qlayout.search", "encode_swap_bound", "encode.bound"),
    ("qlayout.search", "emit_script", "encode.emit"),
    ("qlayout.backend", "check", "backend.check"),
    ("qlayout.backend", "decode_solution", "backend.decode"),
    ("qlayout.backend", "validate_solution", "backend.validate"),
    ("qlayout.augment", "build_corpus", "augment.build_corpus"),
    ("qlayout.augment", "label_sample", "augment.label"),
    ("qlayout.augment", "gate_allocation", "augment.chunk"),
    ("qlayout.augment", "extract_features", "features.extract"),
    ("qlayout.augment", "emit_qasm", "augment.write"),
    ("qlayout.augment", "save_dataset", "augment.write"),
    ("qlayout.augment", "allknn_refine", "augment.refine"),
    ("qlayout.regressor", "fit", "regressor.fit"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, parent, name, start, end, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._open: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, self.op]
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(self, result)
            return result

        return traced

    # ---- patching --------------------------------------------------------

    def install(self, modules: dict, after: dict | None = None) -> None:
        """Wrap every ``TRACED`` name; ``after`` maps span names to hooks
        called with (tracer, result)."""
        after = after or {}
        for module_name, attr, span_name in TRACED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name, after.get(span_name)))
        cls = modules["qlayout.regressor"].RegressionTree
        self._patched.append((cls, "predict", cls.predict))
        cls.predict = self.wrap(cls.predict, "regressor.predict")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            start, end = span[3], span[4]
            out[span[2]] += (end - start) - covered(
                [(max(c[3], start), min(c[4], end)) for c in children.get(span[0], ())]
            )
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[2]] += span[4] - span[3]
        return dict(out)

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[2]] += 1
        return dict(out)

    def covered_time(self) -> float:
        """Wall time inside at least one span."""
        return covered([(s[3], s[4]) for s in self.spans])

    def dump(self, path) -> None:
        doc = {
            "fields": ["id", "parent", "name", "start", "end", "op"],
            "spans": self.spans,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
