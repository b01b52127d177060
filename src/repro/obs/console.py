"""Terminal renderings of live serve telemetry.

Pure functions from protocol payloads (the ``stats`` / ``healthz``
replies of :mod:`repro.serve.protocol`) to text, shared by the
``repro serve-stats`` one-shot command and the polling ``repro obs top``
view — and testable without a socket for the same reason.

All latency figures come from :class:`~repro.obs.metrics.Histogram`
snapshots, so p50/p95/p99 are derivable from any single ``stats`` reply;
rates (events/s, evictions/s) come from the flight-recorder ring tail
embedded in the reply (per-interval counter deltas, see
:mod:`repro.obs.timeseries`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import Histogram
from repro.obs.timeseries import FlightRecorder

__all__ = ["render_healthz", "render_stats", "top_frame"]


def _fmt_seconds(value: float) -> str:
    """A latency in the most readable unit (µs / ms / s)."""
    if value < 1e-3:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _fmt_rate(value: float) -> str:
    if value >= 10_000:
        return f"{value / 1000:.1f}k/s"
    return f"{value:.1f}/s"


def _histogram_line(name: str, summary: Dict[str, object]) -> str:
    histogram = Histogram.from_dict(summary)
    p = histogram.percentiles()
    return (
        f"    {name}: n={histogram.count} "
        f"p50={_fmt_seconds(p['p50'])} p95={_fmt_seconds(p['p95'])} "
        f"p99={_fmt_seconds(p['p99'])} max={_fmt_seconds(histogram.maximum)}"
    )


def _latest_rates(flight: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-second rates from the newest flight sample with activity."""
    for sample in reversed(flight):
        rates = FlightRecorder.rates(sample)
        if rates:
            return rates
    return {}


def render_stats(stats: Dict[str, object]) -> str:
    """The ``repro serve-stats`` rendering of one ``stats`` reply."""
    lines: List[str] = []
    sessions: Dict[str, object] = stats.get("sessions", {})  # type: ignore[assignment]
    lines.append(
        f"serve stats (protocol {stats.get('protocol')}, "
        f"uptime {float(stats.get('uptime', 0.0)):.1f}s)"
    )
    lines.append(
        f"  sessions: {sessions.get('open', 0)} open, "
        f"{sessions.get('resident', 0)} resident, "
        f"{sessions.get('parked', 0)} parked"
    )
    metrics: Dict[str, Dict[str, object]] = stats.get("metrics", {})  # type: ignore[assignment]
    counters = metrics.get("counters", {})
    if counters:
        lines.append("  counters:")
        for name, value in counters.items():
            lines.append(f"    {name} = {value}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("  latency histograms:")
        for name, summary in histograms.items():
            lines.append(_histogram_line(name, summary))  # type: ignore[arg-type]
    flight: List[Dict[str, object]] = stats.get("flight", [])  # type: ignore[assignment]
    if flight:
        rates = _latest_rates(flight)
        lines.append(
            f"  flight: {len(flight)} ring samples "
            f"(latest seq {flight[-1].get('seq')})"
        )
        for name, rate in sorted(rates.items()):
            lines.append(f"    {name}: {_fmt_rate(rate)}")
    return "\n".join(lines)


def render_healthz(healthz: Dict[str, object]) -> str:
    """The one-line ``healthz`` rendering."""
    return (
        f"health: {healthz.get('status')} "
        f"(sessions={healthz.get('sessions')}, "
        f"resident={healthz.get('resident')}, "
        f"parked={healthz.get('parked')}, "
        f"uptime {float(healthz.get('uptime', 0.0)):.1f}s)"
    )


def top_frame(stats: Dict[str, object]) -> str:
    """One frame of ``repro obs top``: the four load-bearing numbers.

    Sessions, events/s (from the newest flight-recorder delta), p99
    feed latency (from the ``serve.feed_seconds`` histogram snapshot),
    and evictions (parks) — plus a per-counter rate table when the
    flight recorder shows activity.
    """
    sessions: Dict[str, object] = stats.get("sessions", {})  # type: ignore[assignment]
    metrics: Dict[str, Dict[str, object]] = stats.get("metrics", {})  # type: ignore[assignment]
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    flight: List[Dict[str, object]] = stats.get("flight", [])  # type: ignore[assignment]
    rates = _latest_rates(flight)

    feed = histograms.get("serve.feed_seconds")
    p99 = "-"
    if feed is not None:
        p99 = _fmt_seconds(Histogram.from_dict(feed).quantile(0.99))  # type: ignore[arg-type]
    events_rate = rates.get("serve.events_in")
    lines = [
        f"uptime {float(stats.get('uptime', 0.0)):>7.1f}s | "
        f"sessions {sessions.get('open', 0)} "
        f"({sessions.get('resident', 0)} resident, "
        f"{sessions.get('parked', 0)} parked) | "
        f"events {_fmt_rate(events_rate) if events_rate is not None else '-'} | "
        f"feed p99 {p99} | "
        f"evictions {counters.get('serve.sessions_parked', 0)}"
    ]
    if rates:
        lines.append("  rates (last interval):")
        for name, rate in sorted(rates.items()):
            lines.append(f"    {name:<28} {_fmt_rate(rate)}")
    for name in ("serve.feed_seconds", "serve.park_seconds",
                 "serve.rehydrate_seconds"):
        summary = histograms.get(name)
        if summary is not None:
            lines.append(_histogram_line(name, summary))  # type: ignore[arg-type]
    return "\n".join(lines)
