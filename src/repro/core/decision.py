"""The detector-agnostic decision layer.

The paper frames phase detection as ``Model x Analyzer x WindowPolicy``,
but nothing about *phase bookkeeping* is windowed: any online detector —
a CUSUM statistic, an EWMA distance, a correlation test — reduces each
step to the same decision: enter a phase, stay where it is, or exit.
This module owns that reduction:

- :class:`PhaseDecision` — what one step decided (enter / exit /
  continue) plus the statistic the decision actually used.  The
  windowed runtime's :class:`~repro.core.runtime.StepOutcome` is an
  alias of this protocol; similarity is just its statistic.
- :class:`DecisionEngine` — the abstract engine every detector family
  implements: ``step()`` consumes one ``skipFactor`` group and returns
  a decision; the base class supplies the chunked ``advance()`` driver,
  the one whole-trace ``run()`` driver (reference loop, vectorized
  kernels, or one ``_advance_elements`` pass), the one result builder
  (:meth:`~DecisionEngine.result`), phase statistics, and the one
  checkpoint schema, so a new family only writes its statistic update
  and its serializable state.
- :class:`PerWindowEngine` — the base of the families that decide once
  per ``cw_size``-element window (Das Pearson, Lu DYNAMO): it owns the
  window buffer and its checkpoint checks, and adds the retroactive
  :meth:`~PerWindowEngine.window_states` view.
- :class:`PhaseTracker` — the single home of phase bookkeeping.  It
  consumes the engines' decisions (open on enter, close on exit) and
  emits the ``phase_enter``/``phase_exit`` observability events; no
  engine duplicates this logic.
- :func:`build_engine` / :func:`restore_engine` — the one code path
  from a :class:`~repro.core.config.DetectorConfig` (its ``family``
  field) or a serialized checkpoint to a live engine, dispatching
  through the :mod:`repro.comparators` registry.

A detector's output is its phase list (Section 2): every route records
phases in the tracker and nothing else, and a
:class:`DetectionResult`'s per-element P/T states are a view of it.

Every family, the windowed grid included, writes one checkpoint schema
(version 3, see ``docs/formats.md``): a shared envelope (position,
state, phase statistics, open and closed phases) plus a ``family`` tag
and an ``engine`` payload each family serializes for itself.  Restore
rejects every document whose state ``step()`` could never reach.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels as kernels_mod
from repro.core.analyzers import PhaseStats
from repro.core.config import DetectorConfig
from repro.core.state import PhaseState
from repro.obs.events import observes
from repro.profiles.trace import BranchTrace
from repro.scoring.states import Interval, states_from_phases

#: ``format`` field of a serialized checkpoint.
CHECKPOINT_FORMAT = "repro-detector-checkpoint"
#: The checkpoint schema version (see ``docs/formats.md``).
CHECKPOINT_VERSION = 3

#: The windowed grid's family name (the :class:`DetectorConfig` default).
WINDOWED_FAMILY = "windowed"


@dataclass(frozen=True)
class DetectedPhase:
    """One detected phase with both raw and anchor-corrected starts.

    ``mean_similarity`` is the running average of the phase's decision
    statistic — the windowed families' similarity, the changepoint
    families' stability statistic — the optional confidence signal
    Section 2 mentions a client may want.
    """

    detected_start: int
    corrected_start: int
    end: int
    mean_similarity: float = 0.0

    @property
    def length(self) -> int:
        return self.end - self.detected_start

    @property
    def confidence(self) -> float:
        """Alias: how stable the phase's similarity was, in [0, 1]."""
        return self.mean_similarity


@dataclass
class DetectionResult:
    """The output of a detector over one stream: its phases.

    ``detected_phases`` holds every phase, the one still open at the
    end of the stream closed there; ``num_elements`` is the stream's
    length and ``config`` the engine's (a family builder may normalize
    the caller's).  The per-element states are a view of the phases.
    """

    detected_phases: List[DetectedPhase]
    num_elements: int
    config: DetectorConfig

    @property
    def states(self) -> np.ndarray:
        """Bool array, True = P, one per element: the union of the
        phases' ``[detected_start, end)`` intervals."""
        return states_from_phases(self.phases(), self.num_elements)

    def phases(self) -> List[Interval]:
        """Detected phase intervals as reported online (detection-time starts)."""
        return [(p.detected_start, p.end) for p in self.detected_phases]

    def corrected_phases(self) -> List[Interval]:
        """Phase intervals with anchor-corrected starts (Figure 8)."""
        return [(p.corrected_start, p.end) for p in self.detected_phases]

    def corrected_states(self) -> np.ndarray:
        """State array rebuilt from the anchor-corrected intervals."""
        return states_from_phases(self.corrected_phases(), self.num_elements)


@dataclass(frozen=True)
class PhaseDecision:
    """What one :meth:`DecisionEngine.step` call decided.

    The protocol is enter / exit / continue plus the optional statistic
    the decision actually used: ``similarity`` carries the windowed
    families' similarity value or a changepoint family's stability
    statistic — ``None`` while the engine is still warming up (windows
    filling, baseline estimating).  Callers that record the statistic
    must use this field instead of re-querying the engine: the decision
    may have mutated the engine (window resize, candidate reset), so a
    recomputed value would differ from the one the decision saw.
    """

    state: PhaseState
    similarity: Optional[float]
    entered: bool = False
    closed: Optional[DetectedPhase] = None

    @property
    def statistic(self) -> Optional[float]:
        """Family-neutral alias for :attr:`similarity`."""
        return self.similarity

    @property
    def kind(self) -> str:
        """``"enter"``, ``"exit"``, or ``"continue"``."""
        if self.entered:
            return "enter"
        if self.closed is not None:
            return "exit"
        return "continue"


class StepOutcome(PhaseDecision):
    """The windowed runtime's decision (its similarity is the statistic).

    Kept as a distinct name for the reference-path callers
    (:class:`~repro.core.detector.PhaseDetector` and the equivalence
    tests); structurally identical to :class:`PhaseDecision`.
    """


class CheckpointError(ValueError):
    """Raised for malformed, unsupported, or impossible checkpoints."""


class PhaseTracker:
    """The single home of per-phase bookkeeping and boundary events.

    Consumes the engines' decisions: an *enter* decision opens a phase
    (detection-time and anchor-corrected starts), an *exit* decision
    closes it into a :class:`DetectedPhase` record, and both emit the
    ``phase_enter``/``phase_exit`` observability events.  Every
    :class:`DecisionEngine` — and nothing outside this module — drives
    it.
    """

    __slots__ = ("observer", "phases", "open_detected", "open_corrected")

    def __init__(self, observer=None) -> None:
        self.observer = observer
        self.phases: List[DetectedPhase] = []
        self.open_detected = -1
        self.open_corrected = -1

    @property
    def open(self) -> bool:
        """True while a phase is open (entered but not yet closed)."""
        return self.open_detected >= 0

    def enter(self, step: int, detected_start: int, anchor_abs: int) -> None:
        """Open a phase detected at ``detected_start`` (anchor at ``anchor_abs``)."""
        corrected = anchor_abs if anchor_abs < detected_start else detected_start
        self.open_detected = detected_start
        self.open_corrected = corrected
        if observes(self.observer, "phase_enter"):
            self.observer.emit(
                {
                    "ev": "phase_enter",
                    "step": step,
                    "detected_start": detected_start,
                    "corrected_start": corrected,
                    "anchor": anchor_abs,
                }
            )

    def exit(self, step: int, end: int, mean_similarity: float) -> DetectedPhase:
        """Close the open phase at ``end``; record and return it."""
        phase = self.closed_at(step, end, mean_similarity)
        self.phases.append(phase)
        self.open_detected = -1
        self.open_corrected = -1
        return phase

    def closed_at(self, step: int, end: int, mean_similarity: float) -> DetectedPhase:
        """The open phase as it would close at ``end``, announced with a
        ``phase_exit`` event; the tracker keeps it open."""
        phase = DetectedPhase(
            self.open_detected, self.open_corrected, end, mean_similarity
        )
        if observes(self.observer, "phase_exit"):
            self.observer.emit(
                {
                    "ev": "phase_exit",
                    "step": step,
                    "detected_start": phase.detected_start,
                    "corrected_start": phase.corrected_start,
                    "end": end,
                    "mean_similarity": mean_similarity,
                }
            )
        return phase


class DecisionEngine:
    """Abstract online phase detector: a stream of decisions over groups.

    A family implements :meth:`step` (consume one ``skipFactor`` group,
    return a :class:`PhaseDecision`) on top of the shared machinery the
    base class provides:

    - ``tracker`` — the :class:`PhaseTracker` to call on enter/exit;
    - ``stats`` — the open phase's :class:`~repro.core.analyzers.PhaseStats`,
      whose mean becomes the closed phase's ``mean_similarity``;
    - the decision tail — :meth:`_emit_decision` emits a judged
      statistic's ``similarity``/``decision`` events (those the
      observer asked for; see :attr:`observer`) and
      :meth:`_settle` turns a step's verdict into enter / continue /
      exit, so a family's :meth:`step` ends in one call;
    - :meth:`advance` — the one chunked driver (a flat element list,
      grouped by ``skipFactor``) the streaming front uses, with the
      per-chunk ``runtime.advance_seconds`` metrics histogram;
    - :meth:`run` — the one whole-trace driver, with ``run_begin`` /
      ``run_end`` observability events;
    - :meth:`result` — the one builder of a :class:`DetectionResult`,
      which every front returns;
    - :meth:`checkpoint` / :meth:`restore` — the one checkpoint
      schema; a family only implements :meth:`_engine_state` and
      :meth:`_restore_engine_state` for its own serializable state.

    The windowed :class:`~repro.core.runtime.DetectorRuntime` overrides
    the ``_advance_elements`` hook with its fused loop; it inherits
    :meth:`run`, :meth:`checkpoint` and :meth:`restore`.
    """

    #: Registry name of this engine's family (see :mod:`repro.comparators`).
    family: ClassVar[str] = ""

    def __init__(self, config: DetectorConfig, observer=None, metrics=None) -> None:
        self.config = config
        self.state = PhaseState.TRANSITION
        self.tracker = PhaseTracker()
        self.metrics = metrics
        self._consumed = 0
        self.stats = PhaseStats()
        self.observer = observer

    # -- observer plumbing -----------------------------------------------------

    @property
    def observer(self):
        """The attached observability sink, or ``None``.

        Its ``kinds`` (see :func:`repro.obs.events.observes`) are read
        here, once: the per-step ``similarity`` / ``decision`` events
        are built only when the observer asked for them, so a
        phase-only observer costs the loops what no observer costs.
        """
        return self._observer

    @observer.setter
    def observer(self, value) -> None:
        self._observer = value
        self.tracker.observer = value
        self._similarity_events = observes(value, "similarity")
        self._decision_events = observes(value, "decision")

    # -- derived views ---------------------------------------------------------

    @property
    def consumed(self) -> int:
        """Total profile elements consumed since the start of the stream."""
        return self._consumed

    @property
    def phases(self) -> List[DetectedPhase]:
        """Phases closed so far (the open phase, if any, is not included)."""
        return self.tracker.phases

    def fused_capable(self) -> bool:
        """True when :meth:`advance` has an optimized inline path.

        Only the windowed runtime has one; the kernel eligibility
        checks in :mod:`repro.core.kernels` gate on this first, so
        engines without window models are never probed further.
        """
        return False

    def kernel_path(self, kernels: Optional[bool] = None) -> str:
        """Which whole-trace route drives this engine.

        ``"vectorized"`` or ``"legacy"`` — the single dispatch rule
        (:func:`repro.core.kernels.kernel_path`) shared by every
        engine's solo :meth:`run` and the bank's member partition, so
        the two fronts can never disagree on routing.  Of the
        non-window families fresh, unobserved NEWMA, FOCuS, Das Pearson
        and Lu DYNAMO engines report ``"vectorized"``; observed,
        restored and partly advanced ones report ``"legacy"``, and
        ``kernels=False`` forces ``"legacy"``.
        """
        return kernels_mod.kernel_path(self, kernels)

    # -- the per-step contract -------------------------------------------------

    def step(self, elements: Sequence[int]) -> PhaseDecision:
        """Consume one ``skipFactor`` group; decide enter/exit/continue."""
        raise NotImplementedError

    def _close(self, end: int) -> DetectedPhase:
        return self.tracker.exit(self.consumed, end, self.stats.mean)

    def finish(self, total_elements: int) -> List[DetectedPhase]:
        """All phases, the open one (if any) closed at ``total_elements``.

        That phase's ``phase_exit`` event is emitted, but the engine is
        left as it was: the stream may go on, and a checkpoint taken now
        is one ``step()`` reaches.
        """
        tracker = self.tracker
        phases = list(tracker.phases)
        if tracker.open:
            phases.append(
                tracker.closed_at(self.consumed, total_elements, self.stats.mean)
            )
        return phases

    def result(self) -> DetectionResult:
        """The result over every element consumed since the start of the
        stream (a restored engine's included), with this engine's
        config; see :meth:`finish`."""
        consumed = self.consumed
        return DetectionResult(self.finish(consumed), consumed, self.config)

    # -- the shared decision tail ----------------------------------------------

    def _emit_decision(self, value: float, in_phase: bool, bar: float) -> None:
        """Emit one judged statistic as ``similarity`` and ``decision``
        events, each only when the observer asked for it."""
        step = self._consumed
        if self._similarity_events:
            self._observer.emit(
                {"ev": "similarity", "step": step, "value": value, "cw": 0, "tw": 0}
            )
        if self._decision_events:
            self._observer.emit(
                {
                    "ev": "decision",
                    "step": step,
                    "state": "P" if in_phase else "T",
                    "value": value,
                    "bar": bar,
                }
            )

    def _settle(
        self, in_phase: bool, statistic: Optional[float], group_len: int
    ) -> PhaseDecision:
        """Apply one step's verdict: open, extend or close the phase.

        A phase opens or closes at the first element of the step's
        group; ``statistic`` (when the step produced one) feeds the
        phase's mean.
        """
        entered = False
        closed = None
        if in_phase:
            if not self.state.is_phase():
                start = self._consumed - group_len
                self.tracker.enter(self._consumed, start, start)
                self.stats.start(0.0 if statistic is None else statistic)
                entered = True
            elif statistic is not None:
                self.stats.add(statistic)
            self.state = PhaseState.PHASE
        else:
            if self.state.is_phase():
                closed = self._close(self._consumed - group_len)
                self.stats.reset()
            self.state = PhaseState.TRANSITION
        return PhaseDecision(self.state, statistic, entered, closed)

    # -- chunked driving (the streaming entry point) ---------------------------

    def advance(self, elements: Sequence[int]) -> None:
        """Advance over a flat chunk of profile elements.

        The chunk is cut into ``skipFactor`` groups from its first
        element, one :meth:`step` (or fused-loop iteration) each.  A
        chunk must therefore start on a group boundary, and only the
        stream's last chunk may end on a partial group; then the result
        does not depend on where the stream is cut.  Phases land in
        :attr:`tracker`; :meth:`result` reads them.

        When a ``metrics`` registry is attached the chunk's wall time
        lands in the ``runtime.advance_seconds`` histogram — one
        observation per chunk, nothing per element.
        """
        metrics = self.metrics
        started = time.perf_counter() if metrics is not None else 0.0
        self._advance_elements(elements)
        if metrics is not None:
            metrics.histogram("runtime.advance_seconds").observe(
                time.perf_counter() - started
            )

    def _advance_elements(self, elements: Sequence[int]) -> None:
        """The reference loop: one :meth:`step` per group."""
        step = self.step
        skip = self.config.skip_factor
        if skip == 1:
            # One-element tuples: slicing every group costs 15-20% here.
            for element in elements:
                step((element,))
            return
        for start in range(0, len(elements), skip):
            step(elements[start : start + skip])

    # -- whole-trace driving ---------------------------------------------------

    def run(
        self,
        trace: BranchTrace,
        fused: Optional[bool] = None,
        kernels: bool = True,
    ) -> DetectionResult:
        """Run this engine over a whole trace from its current state and
        return its :meth:`result`.

        - ``fused=False`` runs the reference :meth:`step` loop, the
          oracle every fast path is tested against;
        - an engine :meth:`kernel_path` routes to ``"vectorized"`` runs
          through :func:`~repro.core.kernels.run_bank_batched` as a
          bank of one (see ``docs/performance.md``);
        - everything else (and ``kernels=False``) hands the whole
          decoded trace to one :meth:`_advance_elements` call: the
          windowed runtime's fused loop at skip 1 with standard
          components, :meth:`step` otherwise.
        """
        data = trace.array
        total = int(data.size)
        observer = self._observer
        if observes(observer, "run_begin"):
            observer.emit(
                {
                    "ev": "run_begin",
                    "step": 0,
                    "trace": trace.name,
                    "elements": total,
                    "config": self.config.describe(),
                }
            )
        if fused is False:
            DecisionEngine._advance_elements(self, data.tolist())
        elif self.kernel_path(kernels) == "vectorized":
            kernels_mod.run_bank_batched([self], trace)
        else:
            self._advance_elements(data.tolist())
        result = self.result()
        if observes(observer, "run_end"):
            observer.emit(
                {
                    "ev": "run_end",
                    "step": total,
                    "phases": len(result.detected_phases),
                    "elements": total,
                }
            )
        return result

    # -- checkpointing -----------------------------------------------------------

    def _engine_state(self) -> Dict[str, object]:
        """This family's serializable state (JSON-safe, exact floats)."""
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Rebuild this family's state from :meth:`_engine_state` output.

        Runs once the envelope's position, state and phases are set, so
        a family can check its own state against them.
        """
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def checkpoint(self) -> Dict[str, object]:
        """Serialize the full engine state as a JSON-safe dict.

        JSON round-trips Python floats exactly (``repr`` shortest-form),
        so :meth:`restore` resumes with bit-identical continuation —
        same phases, same event stream as an uninterrupted run.
        """
        tracker = self.tracker
        stats = self.stats
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "family": self.family,
            "config": self.config.to_dict(),
            "consumed": self.consumed,
            "state": self.state.value,
            "engine": self._engine_state(),
            "stats": {"count": stats.count, "total": stats.total},
            "open_phase": (
                [tracker.open_detected, tracker.open_corrected]
                if tracker.open
                else None
            ),
            "phases": [
                [p.detected_start, p.corrected_start, p.end, p.mean_similarity]
                for p in tracker.phases
            ],
        }

    @classmethod
    def restore(
        cls, data: Dict[str, object], observer=None, metrics=None
    ) -> "DecisionEngine":
        """Rebuild an engine from a :meth:`checkpoint` dict.

        Raises :class:`CheckpointError` for any document whose state
        ``step()`` could never reach — the envelope is checked here, the
        family's payload by :meth:`_restore_engine_state` — and for a
        missing field or a value of the wrong type.
        """
        validate_checkpoint(data)
        family = data["family"]
        if family != cls.family:
            raise CheckpointError(
                f"checkpoint family {family!r} does not match {cls.family!r}"
            )
        try:
            config = DetectorConfig.from_dict(data["config"])  # type: ignore[arg-type]
            if config.family != family:
                raise CheckpointError(
                    f"checkpoint config family {config.family!r} does not "
                    f"match its tag {family!r}"
                )
            engine = cls(config, observer=observer, metrics=metrics)
            # Position, state and phases first: the payload is checked
            # against them.
            consumed = checkpoint_int(data["consumed"], "checkpoint consumed")
            if consumed < 0:
                raise CheckpointError(f"checkpoint consumed={consumed} is negative")
            state = PhaseState(data["state"])
            engine._consumed = consumed
            engine.state = state
            tracker = engine.tracker
            open_phase = checkpoint_open_phase(data.get("open_phase"), state, consumed)
            if open_phase is not None:
                tracker.open_detected, tracker.open_corrected = open_phase
            tracker.phases = [
                checkpoint_phase(phase, consumed)
                for phase in data["phases"]  # type: ignore[union-attr]
            ]
            engine._restore_engine_state(data["engine"])  # type: ignore[arg-type]
            stats: Dict[str, object] = data["stats"]  # type: ignore[assignment]
            count = checkpoint_int(stats["count"], "checkpoint stats.count")
            # A phase opens with its first statistic.
            least = 1 if state.is_phase() else 0
            if count < least:
                raise CheckpointError(
                    f"checkpoint stats.count={count} is below {least} "
                    f"in state {state.value!r}"
                )
            engine.stats.count = count
            engine.stats.total = checkpoint_float(stats["total"], "checkpoint stats.total")
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"malformed {family} checkpoint: {error!r}") from error
        return engine


def checkpoint_int(value: object, what: str) -> int:
    """``value`` if it is an int (not a bool); else :class:`CheckpointError`."""
    if type(value) is not int:
        raise CheckpointError(f"{what}={value!r} is not an int")
    return value


def checkpoint_float(value: object, what: str) -> float:
    """``value`` as a float if it is a finite number; else :class:`CheckpointError`."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise CheckpointError(f"{what}={value!r} is not a finite number")
    return float(value)


def checkpoint_bool(value: object, what: str) -> bool:
    """``value`` if it is a bool; else :class:`CheckpointError`."""
    if type(value) is not bool:
        raise CheckpointError(f"{what}={value!r} is not a bool")
    return value


def checkpoint_open_phase(
    value: object, state: PhaseState, consumed: int
) -> Optional[Tuple[int, int]]:
    """A checkpoint's ``open_phase`` as ``(detected, corrected)``, or
    ``None``; :class:`CheckpointError` unless it agrees with ``state``.

    Every engine holds an open phase exactly while its state is P, and
    the phase opened at an element already consumed, its anchor no
    later: ``0 <= corrected <= detected < consumed``.
    """
    if value is None:
        if state.is_phase():
            raise CheckpointError("checkpoint state 'P' has no open phase")
        return None
    if not state.is_phase():
        raise CheckpointError(
            f"checkpoint state 'T' has an open phase {value!r:.80}"
        )
    if not isinstance(value, list) or len(value) != 2:
        raise CheckpointError(
            f"checkpoint open_phase={value!r:.80} is not a "
            "[detected, corrected] pair"
        )
    detected = checkpoint_int(value[0], "checkpoint open_phase detected start")
    corrected = checkpoint_int(value[1], "checkpoint open_phase corrected start")
    if not 0 <= corrected <= detected < consumed:
        raise CheckpointError(
            f"checkpoint open_phase=[{detected}, {corrected}] is not "
            f"0 <= corrected <= detected < consumed {consumed}"
        )
    return detected, corrected


def checkpoint_phase(value: object, consumed: int) -> DetectedPhase:
    """One ``phases`` entry of a checkpoint; :class:`CheckpointError`
    unless it is a phase some run could have closed:
    ``0 <= corrected <= detected < end <= consumed``, finite mean."""
    if not isinstance(value, list) or len(value) != 4:
        raise CheckpointError(
            f"checkpoint phase {value!r:.80} is not a "
            "[detected, corrected, end, mean] list"
        )
    detected = checkpoint_int(value[0], "checkpoint phase detected start")
    corrected = checkpoint_int(value[1], "checkpoint phase corrected start")
    end = checkpoint_int(value[2], "checkpoint phase end")
    mean = checkpoint_float(value[3], "checkpoint phase mean")
    if not 0 <= corrected <= detected < end <= consumed:
        raise CheckpointError(
            f"checkpoint phase [{detected}, {corrected}, {end}] is not "
            f"0 <= corrected <= detected < end <= consumed {consumed}"
        )
    return DetectedPhase(detected, corrected, end, mean)


class PerWindowEngine(DecisionEngine):
    """An engine that decides once per ``cw_size``-element window.

    Elements buffer until a window fills; each full window is judged by
    the family's :meth:`_judge`, whose verdict sets the in-phase flag
    that colours elements going forward.  A family supplies
    :meth:`_judge`, its ``stat_threshold`` (the events' bar), its own
    state, :meth:`_engine_state` and :meth:`_restore_window_state`; the
    base owns the buffer, the flag, the window loop and the checks
    every checkpoint's buffer and flag must pass.  A fresh, unobserved
    engine's whole-trace run skips the per-group loop:
    :func:`repro.core.kernels._walk_per_window` feeds the same
    :meth:`_judge` and :meth:`_settle` only at the steps that complete
    a window.
    """

    #: The decision bar the ``decision`` events report.
    stat_threshold: float

    def __init__(self, config: DetectorConfig, observer=None, metrics=None) -> None:
        super().__init__(config, observer=observer, metrics=metrics)
        self._window = config.cw_size
        self._buffer: List[int] = []
        self._in_phase = False

    def _judge(self, window: List[int]) -> Tuple[Optional[float], bool]:
        """Judge one window: its statistic (``None`` while the family
        warms up) and whether it is in phase."""
        raise NotImplementedError

    def step(self, elements: Sequence[int]) -> PhaseDecision:
        group_len = len(elements)
        self._consumed += group_len
        buffer = self._buffer
        buffer.extend(elements)
        window = self._window
        if len(buffer) < window:
            # No window completed, so the flag and the state stand.
            return PhaseDecision(self.state, None)
        statistic: Optional[float] = None
        while len(buffer) >= window:
            chunk = buffer[:window]
            del buffer[:window]
            value, self._in_phase = self._judge(chunk)
            if value is not None:
                statistic = value
                self._emit_decision(value, self._in_phase, self.stat_threshold)
        return self._settle(self._in_phase, statistic, group_len)

    def window_states(self, trace: BranchTrace) -> Tuple[np.ndarray, np.ndarray]:
        """The retroactive per-window view of this configuration.

        A fresh engine judges every window of ``trace``, the last,
        partial one included, and each window is coloured by its own
        verdict.  Returns the per-element states and one statistic per
        window (NaN while the family warms up).  :meth:`step` colours
        elements only after their window is judged, so its states lag
        these by one window and never reflect the partial tail.
        """
        judge = type(self)(self.config)._judge
        data = trace.array.tolist()
        total = len(data)
        window = self._window
        states = np.zeros(total, dtype=bool)
        statistics = np.full(-(-total // window), np.nan)
        for index, start in enumerate(range(0, total, window)):
            statistic, in_phase = judge(data[start : start + window])
            if statistic is not None:
                statistics[index] = statistic
            if in_phase:
                states[start : start + window] = True
        return states, statistics

    def _restore_window_state(self, payload: Dict[str, object]) -> None:
        """Restore the family's own state (buffer and flag already set)."""
        raise NotImplementedError

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Restore, rejecting any state ``step()`` could never reach."""
        family = self.family
        value = payload["buffer"]
        expected = self.consumed % self._window
        if not isinstance(value, list) or len(value) != expected:
            raise CheckpointError(
                f"{family} checkpoint buffer must hold {expected} elements "
                f"(consumed {self.consumed} % cw_size {self._window}), "
                f"got {value!r:.80}"
            )
        buffer = [
            checkpoint_int(element, f"{family} checkpoint buffer element")
            for element in value
        ]
        in_phase = checkpoint_bool(payload["in_phase"], f"{family} checkpoint in_phase")
        if in_phase != self.state.is_phase():
            raise CheckpointError(
                f"{family} checkpoint in_phase={in_phase} contradicts "
                f"state {self.state.value!r}"
            )
        # Only a judged window sets the flag.
        if in_phase and self.consumed < self._window:
            raise CheckpointError(
                f"{family} checkpoint is in phase before its first window "
                f"(consumed {self.consumed} < cw_size {self._window})"
            )
        self._buffer = buffer
        self._in_phase = in_phase
        self._restore_window_state(payload)


def validate_checkpoint(data: Dict[str, object]) -> None:
    """Check a checkpoint dict's envelope; raise :class:`CheckpointError`.

    Other versions are rejected outright: an older or newer schema may
    encode state this code cannot faithfully resume.
    """
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint must be a dict, got {type(data).__name__}")
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a detector checkpoint (format={data.get('format')!r})"
        )
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    if not isinstance(data.get("family"), str) or not data["family"]:
        raise CheckpointError("checkpoint missing its family tag")
    required = ("config", "consumed", "state", "engine", "stats", "phases")
    missing = [field for field in required if field not in data]
    if missing:
        raise CheckpointError(f"checkpoint missing fields {missing}")


def build_engine(
    config: DetectorConfig,
    observer=None,
    metrics=None,
    model=None,
    analyzer=None,
) -> DecisionEngine:
    """Build the engine ``config.family`` names, via the family registry.

    The windowed family (the default) builds a
    :class:`~repro.core.runtime.DetectorRuntime` directly — including
    the optional custom ``model``/``analyzer`` components, which only
    the windowed framework defines.  Every other family dispatches
    through :func:`repro.comparators.engine_family`.
    """
    family = getattr(config, "family", WINDOWED_FAMILY)
    if family == WINDOWED_FAMILY:
        from repro.core.runtime import DetectorRuntime

        return DetectorRuntime(
            config,
            observer=observer,
            model=model,
            analyzer=analyzer,
            metrics=metrics,
        )
    if model is not None or analyzer is not None:
        raise ValueError(
            "custom model/analyzer components require the windowed family, "
            f"got family={family!r}"
        )
    from repro.comparators import engine_family

    return engine_family(family).build(config, observer=observer, metrics=metrics)


def restore_engine(
    data: Dict[str, object], observer=None, metrics=None
) -> DecisionEngine:
    """Rebuild an engine from a checkpoint, whatever its ``family`` tag
    (resolved through the :mod:`repro.comparators` registry)."""
    validate_checkpoint(data)
    from repro.comparators import engine_family

    try:
        spec = engine_family(data["family"])  # type: ignore[arg-type]
    except ValueError as error:
        raise CheckpointError(str(error)) from None
    return spec.restore(data, observer=observer, metrics=metrics)
