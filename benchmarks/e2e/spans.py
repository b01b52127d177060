"""Sums over the spans a :class:`repro.obs.trace.Tracer` recorded.

The traced runs wrap calls into each layer's public functions in
``tracer.span(name, parent=root)`` and count work at the same
boundaries in a plain dict.  A layer's *self time* is its spans'
duration minus the part covered by their child spans.  The spans are
saved with ``Tracer.save``, so ``repro.obs.trace.read_spans`` and
``chrome_trace`` read them.

:data:`NULL` is the untraced stand-in for a tracer: the same replay code
runs with it to measure what tracing costs.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Sequence

#: Retained-span cap for a traced run, far above what one run records;
#: a run that drops spans is rejected rather than under-counted.
MAX_SPANS = 10_000_000


def self_seconds(spans: Sequence) -> Dict[str, float]:
    """Self time summed per span name."""
    names = {span.span_id: span.name for span in spans}
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        if span.parent_id is not None:
            owner = names[span.parent_id]
            totals[owner] = totals.get(owner, 0.0) - span.duration
    return totals


def coverage(spans: Sequence) -> float:
    """Share of the root spans' time covered by their children."""
    roots = {span.span_id for span in spans if span.parent_id is None}
    wall = wall_seconds(spans)
    covered = sum(span.duration for span in spans if span.parent_id in roots)
    return covered / wall if wall > 0 else 0.0


def wall_seconds(spans: Sequence) -> float:
    return sum(span.duration for span in spans if span.parent_id is None)


class _NullTracer:
    """Records nothing; the untraced twin of ``Tracer``."""

    _context = nullcontext()

    def span(self, name: str, parent=None, **attrs):
        return self._context


NULL = _NullTracer()
