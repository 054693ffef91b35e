"""In-memory spans around the benchmark's own calls into levyint.

A span records its name, start, end, parent span and repetition id.  The
layer of a span is the first dotted component of its name, which is the
levyint module the call goes into (``drivers.simulate_paths.brownian`` is in
layer ``drivers``).

Some library calls happen inside another call and cannot be seen from
outside (``ito_isometry_check`` calls ``riemann_sum``).  The traced run times
such an inner call *separately*, on the same inputs, right after the outer
call, and records it as a child of the outer span with ``separate=True``.
Separate spans are subtracted from their logical parent's self time and from
the repetition's wall time, because the untraced repetition never makes them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Span recorder for one repetition; a disabled tracer records nothing."""

    def __init__(self, rep_id: int, enabled: bool) -> None:
        self.rep_id = rep_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, parent: int | None = None, separate: bool = False):
        """Context manager yielding the span's index (None when disabled).

        ``parent`` defaults to the innermost open span; separate spans name
        the span whose hidden inner work they stand for, or None for
        reference measurements that belong to no call of the repetition.
        """
        if not self.enabled:
            return nullcontext()
        if parent is None and not separate and self._open:
            parent = self._open[-1]
        return self._record(name, parent, separate)

    @contextmanager
    def _record(self, name: str, parent: int | None, separate: bool):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "rep": self.rep_id,
            "separate": separate,
        }
        self.spans.append(rec)
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield index
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans: list[dict], prefix: str) -> float:
    """Summed duration of the spans whose name is ``prefix`` or starts with ``prefix.``."""
    return sum(
        duration(s) for s in spans if s["name"] == prefix or s["name"].startswith(prefix + ".")
    )


def traced_wall(spans: list[dict]) -> float:
    """Duration of the root span (index 0) minus all separately timed calls."""
    return duration(spans[0]) - sum(duration(s) for s in spans if s["separate"])


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's.

    The root span's self time is the benchmark's own glue (layer ``bench``);
    separate spans without a parent are reference measurements and belong to
    no layer's self time.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        if i == 0:
            out["bench"] = traced_wall(spans) - covered[0]
            continue
        if s["separate"] and s["parent"] is None:
            continue
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + duration(s) - covered[i]
    return out
