"""The detector event taxonomy and its schema.

Every instrumented component (the optimized engine, the reference
detector, the window bookkeeping) emits plain dict events.  An event
always carries:

- ``ev``   — the event type, one of :data:`EVENT_TYPES`;
- ``step`` — the number of profile elements consumed when it fired.

plus the type's payload fields.  The full taxonomy (and the meaning of
each field) is documented in ``docs/observability.md``; the
machine-checkable version lives in :data:`EVENT_TYPES` and is enforced
by :func:`validate_event`.

Events are deliberately *flat JSON-safe dicts* rather than dataclasses:
the hot path builds at most two small dicts per detector step when an
attached sink asked for the per-step types and nothing at all when it
did not (see :func:`observes`), and the JSONL sink can serialize them
without any conversion layer.

:func:`replay_phases` rebuilds the exact
:class:`~repro.core.detector.DetectedPhase` sequence of a run from its
event stream — the property the acceptance test for this subsystem
checks: an event trace is a faithful record of what the scorer saw.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "EVENT_TYPES",
    "EventSchemaError",
    "SCHEMA_VERSION",
    "observes",
    "replay_phases",
    "validate_event",
]

#: Version of the event schema (bump on any incompatible field change).
SCHEMA_VERSION = 1

#: Fields every event carries, whatever its type.
BASE_FIELDS: Dict[str, tuple] = {
    "ev": (str,),
    "step": (int,),
}

#: type name -> {payload field -> acceptable python types}.
#:
#: ``float`` fields accept ints too (JSON round-trips 1.0 as 1 when the
#: value is integral is *not* true for json.dumps, but detector
#: similarities can be exactly integral floats).
EVENT_TYPES: Dict[str, Dict[str, tuple]] = {
    # A detector run started.  trace: trace name; elements: trace
    # length; config: DetectorConfig.describe().
    "run_begin": {"trace": (str,), "elements": (int,), "config": (str,)},
    # The model produced a similarity value (emitted once per step once
    # the windows are full).  cw/tw: current window lengths.
    "similarity": {"value": (float, int), "cw": (int,), "tw": (int,)},
    # The analyzer mapped that value to a state.  state: "P" or "T";
    # bar: the effective threshold in force for this decision.
    "decision": {"state": (str,), "value": (float, int), "bar": (float, int)},
    # A phase was entered (T -> P edge).
    "phase_enter": {
        "detected_start": (int,),
        "corrected_start": (int,),
        "anchor": (int,),
    },
    # The Adaptive TW anchored and resized at phase entry.  anchor: the
    # in-TW anchor index; dropped: elements discarded from the TW's
    # left; moved: elements slid CW -> TW (Slide policy only).
    "tw_resize": {
        "anchor": (int,),
        "dropped": (int,),
        "moved": (int,),
        "policy": (str,),
    },
    # A phase ended (P -> T edge, or end of trace).  Carries the full
    # phase record so a trace replays without cross-event state.
    "phase_exit": {
        "detected_start": (int,),
        "corrected_start": (int,),
        "end": (int,),
        "mean_similarity": (float, int),
    },
    # Both windows were flushed and the CW reseeded (phase end).
    "window_flush": {"seeded": (int,)},
    # The run finished.
    "run_end": {"phases": (int,), "elements": (int,)},
}


class EventSchemaError(ValueError):
    """Raised when an event does not conform to :data:`EVENT_TYPES`."""


def observes(observer, kind: str) -> bool:
    """True when ``observer`` is to be handed events of type ``kind``.

    The one rule every emission site follows: ``None`` observes
    nothing; an observer whose ``kinds`` attribute is missing or
    ``None`` observes every type; otherwise only the types in
    ``kinds``.  Engines read it once, when an observer is attached, for
    the per-step types (``similarity``, ``decision``), so a loop whose
    observer declined them builds no per-step event at all; the rare
    phase-level emission sites read it per event.
    """
    if observer is None:
        return False
    kinds = getattr(observer, "kinds", None)
    return kinds is None or kind in kinds


def validate_event(event: Mapping[str, object]) -> None:
    """Check one event against the schema; raise :class:`EventSchemaError`.

    Unknown extra fields are rejected too — the schema is the contract
    consumers parse against, so anything outside it is a bug.
    """
    for field, types in BASE_FIELDS.items():
        if field not in event:
            raise EventSchemaError(f"event missing required field {field!r}: {event!r}")
        if not isinstance(event[field], types) or isinstance(event[field], bool):
            raise EventSchemaError(
                f"event field {field!r} has type {type(event[field]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}: {event!r}"
            )
    kind = event["ev"]
    payload_schema = EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if payload_schema is None:
        raise EventSchemaError(f"unknown event type {kind!r}: {event!r}")
    for field, types in payload_schema.items():
        if field not in event:
            raise EventSchemaError(f"{kind} event missing field {field!r}: {event!r}")
        value = event[field]
        if not isinstance(value, types) or isinstance(value, bool):
            raise EventSchemaError(
                f"{kind} event field {field!r} has type {type(value).__name__}: {event!r}"
            )
    allowed = set(BASE_FIELDS) | set(payload_schema)
    extra = set(event) - allowed
    if extra:
        raise EventSchemaError(f"{kind} event has undocumented fields {sorted(extra)}")


def replay_phases(events: Iterable[Mapping[str, object]]):
    """Reconstruct the run's detected phases from its event stream.

    Returns the same :class:`~repro.core.detector.DetectedPhase` list
    the run itself produced — ``phase_exit`` events carry the complete
    phase record, so replay needs no cross-event bookkeeping and
    tolerates a trace whose tail was torn after the last ``phase_exit``.
    """
    from repro.core.detector import DetectedPhase

    phases: List[DetectedPhase] = []
    for event in events:
        if event.get("ev") == "phase_exit":
            phases.append(
                DetectedPhase(
                    detected_start=int(event["detected_start"]),   # type: ignore[arg-type]
                    corrected_start=int(event["corrected_start"]), # type: ignore[arg-type]
                    end=int(event["end"]),                         # type: ignore[arg-type]
                    mean_similarity=float(event["mean_similarity"]),  # type: ignore[arg-type]
                )
            )
    return phases


def replay_transitions(
    events: Iterable[Mapping[str, object]]
) -> List[Tuple[int, str]]:
    """The (step, edge) sequence of phase transitions, in order.

    ``edge`` is ``"enter"`` or ``"exit"`` — the compact form of the
    state machine's observable behavior, useful for diffing two runs.
    """
    edges: List[Tuple[int, str]] = []
    for event in events:
        kind = event.get("ev")
        if kind == "phase_enter":
            edges.append((int(event["step"]), "enter"))  # type: ignore[arg-type]
        elif kind == "phase_exit":
            edges.append((int(event["step"]), "exit"))   # type: ignore[arg-type]
    return edges
