"""In-memory stage spans for the traced benchmark pass.

Each stage function is replaced, for the duration of the traced run, by
a wrapper that records a span. The wrapper is installed under the name
the caller uses to look the function up: ``pseudolabel.pipeline`` for
the per-segment stages, and the ``pseudolabel.level_align`` module for
the filter-stage helpers. The module is fetched with
``importlib.import_module`` because the package attribute
``pseudolabel.level_align`` is the function of that name, not the module.

A name the program no longer defines is reported as missing rather than
wrapped, so a later refactor does not crash the benchmark.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# (module that looks the name up, attribute, span name), in pipeline order.
STAGES = (
    ("pseudolabel.pipeline", "read_wav", "audio_io.read_wav"),
    ("pseudolabel.pipeline", "cut_segment", "audio_io.cut_segment"),
    ("pseudolabel.pipeline", "gcc_phat", "time_align.gcc_phat"),
    ("pseudolabel.pipeline", "apply_shift", "time_align.apply_shift"),
    ("pseudolabel.pipeline", "level_align", "level_align.level_align"),
    ("pseudolabel.level_align", "stft", "dsp.stft"),
    ("pseudolabel.level_align", "fcp_weights", "level_align.fcp_weights"),
    ("pseudolabel.level_align", "stack_frames", "level_align.stack_frames"),
    ("pseudolabel.level_align", "solve_mflf", "level_align.solve_mflf"),
    ("pseudolabel.level_align", "apply_mflf", "level_align.apply_mflf"),
    ("pseudolabel.level_align", "istft", "dsp.istft"),
    ("pseudolabel.pipeline", "estimate_snr", "snr_filter.estimate_snr"),
    ("pseudolabel.pipeline", "write_wav", "audio_io.write_wav"),
)
SPAN_NAMES = tuple(span for _, _, span in STAGES)


def _count_read_bytes(counts, args, kwargs, result) -> None:
    path = args[0] if args else kwargs.get("path")
    counts["audio_io.read_wav.bytes"] += os.path.getsize(path)


def _count_flagged_bins(counts, args, kwargs, result) -> None:
    counts["level_align.flagged_bins"] += int(result.flags.sum())
    counts["level_align.bins"] += int(result.flags.size)


_OBSERVERS = {
    "audio_io.read_wav": _count_read_bytes,
    "level_align.solve_mflf": _count_flagged_bins,
}


class Tracer:
    """Collects ``(name, start, end, depth)`` spans and stage counters.

    Depth 0 marks a span called directly by ``run_tls``; deeper spans
    sit inside another stage (``level_align``'s helpers). The traced run
    is serial, so one depth counter suffices.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._depth = 0

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth
            self._depth = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth = depth
                self.spans.append((name, start, end, depth))
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every stage for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, span in STAGES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(span)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-stage call durations in ms, the depth-0 total, and counters."""
        stages: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        top_ms = 0.0
        for name, start, end, depth in self.spans:
            ms = (end - start) * 1e3
            stages[name].append(ms)
            if depth == 0:
                top_ms += ms
        return {"stages": stages, "top_ms": top_ms, "counts": dict(self.counts),
                "missing": list(self.missing)}
