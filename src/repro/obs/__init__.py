"""Observability: event traces, metrics, profiling, and run manifests.

The detector core and the experiment harness are instrumented with
structured, machine-readable signals — the same per-step visibility the
paper's own evaluation needed (when a transition was declared, how the
adaptive TW resized, what similarity the model reported), but available
to every run:

- :mod:`repro.obs.events` — the per-step detector event taxonomy and
  its documented schema, plus :func:`replay_phases` which reconstructs
  the exact phase sequence a run produced from its event trace;
- :mod:`repro.obs.bus` — the event bus and sinks (``NullSink``,
  ``MemorySink``, ``JsonlSink``) plus the torn-write-tolerant
  :func:`read_events` loader;
- :mod:`repro.obs.metrics` — counters, gauges, timing summaries and
  log-scale latency histograms in a :class:`MetricsRegistry` whose
  snapshots merge across processes;
- :mod:`repro.obs.timeseries` — the :class:`FlightRecorder`: interval
  snapshots of a registry with per-interval rates, ring-buffered and
  spooled to a versioned JSONL flight record;
- :mod:`repro.obs.trace` — explicit-context span tracing with a
  Chrome trace-event exporter;
- :mod:`repro.obs.profiling` — opt-in wall-time + ``tracemalloc``
  sampling for sweep chunks;
- :mod:`repro.obs.manifest` — the run manifest written next to every
  sweep cache (config fingerprints, environment, per-worker metrics);
- :mod:`repro.obs.logsetup` — ``logging`` configuration for the CLI's
  ``--verbose``/``--quiet`` flags.

Design rule: the *disabled* path must be free.  ``repro.core`` takes
one thing from this package, :func:`~repro.obs.events.observes` (the
package imports nothing from ``repro.core`` at import time).  The
detector entry points take ``observer=None``; an engine asks
``observes`` once, when an observer is attached, whether it wants the
per-step event types, so a run without a sink — or with a sink that
declared only phase-level ``kinds`` — costs one predictable branch per
step.  See ``docs/observability.md`` for the full taxonomy, the metrics
catalog, and the overhead guarantees.
"""

from repro.obs.bus import EventBus, JsonlSink, MemorySink, NullSink, read_events
from repro.obs.events import (
    EVENT_TYPES,
    EventSchemaError,
    observes,
    replay_phases,
    validate_event,
)
from repro.obs.manifest import (
    diff_manifests,
    load_manifest,
    manifest_path_for,
    summarize_manifest,
    write_manifest,
)
from repro.obs.metrics import GLOBAL_METRICS, Histogram, MetricsRegistry
from repro.obs.profiling import ChunkProfile, ChunkProfiler
from repro.obs.timeseries import FlightRecorder, read_flight_record
from repro.obs.trace import Tracer, chrome_trace, read_spans
from repro.obs.logsetup import setup_logging

__all__ = [
    "EVENT_TYPES",
    "EventBus",
    "EventSchemaError",
    "ChunkProfile",
    "ChunkProfiler",
    "FlightRecorder",
    "GLOBAL_METRICS",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "Tracer",
    "chrome_trace",
    "diff_manifests",
    "load_manifest",
    "manifest_path_for",
    "observes",
    "read_events",
    "read_flight_record",
    "read_spans",
    "replay_phases",
    "setup_logging",
    "summarize_manifest",
    "validate_event",
    "write_manifest",
]
