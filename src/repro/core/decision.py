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
  kernels, or one ``_advance_elements`` pass), phase statistics,
  and the versioned family checkpoint schema (v2), so a new family only
  writes its statistic update and its serializable state.
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

Checkpoint schema versions (see ``docs/formats.md``):

- **v1** — the windowed grid's schema, emitted by
  :class:`~repro.core.runtime.DetectorRuntime` unchanged (byte-for-byte
  stable across the decision-layer refactor).
- **v2** — the family schema: a ``family`` tag plus an opaque
  ``engine`` payload each family serializes for itself.  v1 remains
  readable; :func:`restore_engine` accepts both.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels as kernels_mod
from repro.core.config import DetectorConfig
from repro.core.state import PhaseState
from repro.profiles.trace import BranchTrace
from repro.scoring.states import Interval, states_from_phases

#: ``format`` field of a serialized checkpoint.
CHECKPOINT_FORMAT = "repro-detector-checkpoint"
#: The windowed grid's checkpoint schema version (see ``docs/formats.md``).
CHECKPOINT_VERSION = 1
#: The family checkpoint schema version (``family`` tag + engine payload).
CHECKPOINT_VERSION_FAMILY = 2

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
    """The full output of a detector run over one trace."""

    states: np.ndarray               # bool, True = P, one per element
    detected_phases: List[DetectedPhase]
    config: DetectorConfig
    similarity_values: Optional[np.ndarray] = None

    @property
    def num_elements(self) -> int:
        return int(self.states.size)

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
        if self.observer is not None:
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
        phase = DetectedPhase(
            self.open_detected, self.open_corrected, end, mean_similarity
        )
        self.phases.append(phase)
        self.open_detected = -1
        self.open_corrected = -1
        if self.observer is not None:
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
    - phase statistics — :meth:`_phase_stats_reset` on enter and
      :meth:`_phase_stats_update` per in-phase step feed the closed
      phase's ``mean_similarity``;
    - the decision tail — :meth:`_emit_decision` emits a judged
      statistic's ``similarity``/``decision`` events and
      :meth:`_settle` turns a step's verdict into enter / continue /
      exit, so a family's :meth:`step` ends in one call;
    - :meth:`advance` — the one chunked driver (a flat element list,
      grouped by ``skipFactor``) the streaming front uses, with the
      per-chunk ``runtime.advance_seconds`` metrics histogram;
    - :meth:`run` — the one whole-trace driver, with ``run_begin`` /
      ``run_end`` observability events;
    - :meth:`checkpoint` / :meth:`restore` — the versioned family
      schema (v2); a family only implements :meth:`_engine_state` and
      :meth:`_restore_engine_state` for its own serializable state.

    The windowed :class:`~repro.core.runtime.DetectorRuntime` overrides
    the ``_advance_elements`` hook with its fused loop and keeps its v1
    checkpoint schema; it inherits :meth:`run`.
    """

    #: Registry name of this engine's family (see :mod:`repro.comparators`).
    family: ClassVar[str] = ""

    def __init__(self, config: DetectorConfig, observer=None, metrics=None) -> None:
        self.config = config
        self.state = PhaseState.TRANSITION
        self.tracker = PhaseTracker(observer)
        self._observer = observer
        self.metrics = metrics
        self._consumed = 0
        self._phase_total = 0.0
        self._phase_count = 0

    # -- observer plumbing -----------------------------------------------------

    @property
    def observer(self):
        return self._observer

    @observer.setter
    def observer(self, value) -> None:
        self._observer = value
        self.tracker.observer = value

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
        non-window families only fresh, unobserved NEWMA and FOCuS
        engines report ``"vectorized"``; ``kernels=False`` forces
        ``"legacy"``.
        """
        return kernels_mod.kernel_path(self, kernels)

    # -- the per-step contract -------------------------------------------------

    def step(self, elements: Sequence[int]) -> PhaseDecision:
        """Consume one ``skipFactor`` group; decide enter/exit/continue."""
        raise NotImplementedError

    # -- phase statistics (feed the closed phase's mean_similarity) ------------

    def _phase_stats_reset(self, value: float) -> None:
        self._phase_total = value
        self._phase_count = 1

    def _phase_stats_update(self, value: float) -> None:
        self._phase_total += value
        self._phase_count += 1

    def _phase_stats_clear(self) -> None:
        self._phase_total = 0.0
        self._phase_count = 0

    def _close(self, end: int) -> DetectedPhase:
        mean = (
            self._phase_total / self._phase_count if self._phase_count else 0.0
        )
        return self.tracker.exit(self.consumed, end, mean)

    def finish(self, total_elements: int) -> List[DetectedPhase]:
        """Close any phase still open at end of stream; return all phases."""
        if self.state.is_phase():
            self._close(total_elements)
            self.state = PhaseState.TRANSITION
        return list(self.tracker.phases)

    # -- the shared decision tail ----------------------------------------------

    def _emit_decision(self, value: float, in_phase: bool, bar: float) -> None:
        """Emit one judged statistic as ``similarity`` and ``decision`` events."""
        observer = self._observer
        if observer is None:
            return
        step = self._consumed
        observer.emit(
            {"ev": "similarity", "step": step, "value": value, "cw": 0, "tw": 0}
        )
        observer.emit(
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
                self._phase_stats_reset(0.0 if statistic is None else statistic)
                entered = True
            elif statistic is not None:
                self._phase_stats_update(statistic)
            self.state = PhaseState.PHASE
        else:
            if self.state.is_phase():
                closed = self._close(self._consumed - group_len)
                self._phase_stats_clear()
            self.state = PhaseState.TRANSITION
        return PhaseDecision(self.state, statistic, entered, closed)

    # -- chunked driving (the streaming entry point) ---------------------------

    def advance(
        self, elements: Sequence[int], states: bytearray, base: int
    ) -> None:
        """Advance over a flat chunk of profile elements.

        The chunk is cut into ``skipFactor`` groups from its first
        element, one :meth:`step` (or fused-loop iteration) each.  A
        chunk must therefore start on a group boundary, and only the
        stream's last chunk may end on a partial group; then the result
        does not depend on where the stream is cut.

        ``states`` must already hold zero bytes for every element from
        offset ``base``; in-phase groups are marked with ``\\x01``.

        When a ``metrics`` registry is attached the chunk's wall time
        lands in the ``runtime.advance_seconds`` histogram — one
        observation per chunk, nothing per element.
        """
        metrics = self.metrics
        started = time.perf_counter() if metrics is not None else 0.0
        self._advance_elements(elements, states, base)
        if metrics is not None:
            metrics.histogram("runtime.advance_seconds").observe(
                time.perf_counter() - started
            )

    def _advance_elements(
        self, elements: Sequence[int], states: bytearray, base: int
    ) -> None:
        step = self.step
        skip = self.config.skip_factor
        if skip == 1:
            # One-element tuples: slicing every group costs 15-20% here.
            offset = base
            for element in elements:
                if step((element,)).state.is_phase():
                    states[offset] = 1
                offset += 1
            return
        for start in range(0, len(elements), skip):
            group = elements[start : start + skip]
            if step(group).state.is_phase():
                group_len = len(group)
                offset = base + start
                states[offset : offset + group_len] = b"\x01" * group_len

    # -- whole-trace driving ---------------------------------------------------

    def run(
        self,
        trace: BranchTrace,
        record_similarity: bool = False,
        fused: Optional[bool] = None,
        kernels: bool = True,
    ) -> DetectionResult:
        """Run this engine over a whole trace from its current state.

        - ``record_similarity=True`` (collects the per-step decision
          statistic) or ``fused=False`` runs the reference :meth:`step`
          loop, the oracle every fast path is tested against;
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
        skip = self.config.skip_factor
        observer = self._observer
        if observer is not None:
            observer.emit(
                {
                    "ev": "run_begin",
                    "step": 0,
                    "trace": trace.name,
                    "elements": total,
                    "config": self.config.describe(),
                }
            )
        similarities = np.full(total, np.nan) if record_similarity else None
        if record_similarity or fused is False:
            states = np.zeros(total, dtype=bool)
            elements = data.tolist()
            for start in range(0, total, skip):
                group = elements[start : start + skip]
                decision = self.step(group)
                group_len = len(group)
                if decision.state.is_phase():
                    states[start : start + group_len] = True
                if similarities is not None and decision.similarity is not None:
                    similarities[start : start + group_len] = decision.similarity
        elif self.kernel_path(kernels) == "vectorized":
            states = kernels_mod.run_bank_batched([self], trace)[0]
        else:
            buffer = bytearray(total)
            self._advance_elements(data.tolist(), buffer, 0)
            states = np.frombuffer(bytes(buffer), dtype=np.uint8).astype(bool)
        # For a fresh engine consumed == total; a restored one closes its
        # final phase at the absolute stream position instead.
        phases = self.finish(self.consumed)
        if observer is not None:
            observer.emit(
                {
                    "ev": "run_end",
                    "step": total,
                    "phases": len(phases),
                    "elements": total,
                }
            )
        return DetectionResult(
            states=states,
            detected_phases=phases,
            config=self.config,
            similarity_values=similarities,
        )

    # -- checkpointing (family schema, v2) -------------------------------------

    def _engine_state(self) -> Dict[str, object]:
        """This family's serializable state (JSON-safe, exact floats)."""
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Rebuild this family's state from :meth:`_engine_state` output."""
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def checkpoint(self) -> Dict[str, object]:
        """Serialize the full engine state as a JSON-safe dict (schema v2).

        JSON round-trips Python floats exactly (``repr`` shortest-form),
        so :meth:`restore` resumes with bit-identical continuation —
        same states, same phases, same event stream as an uninterrupted
        run.
        """
        tracker = self.tracker
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION_FAMILY,
            "family": self.family,
            "config": self.config.to_dict(),
            "consumed": self.consumed,
            "state": self.state.value,
            "engine": self._engine_state(),
            "stats": {
                "count": self._phase_count,
                "total": self._phase_total,
            },
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
        """Rebuild an engine from a :meth:`checkpoint` dict (schema v2)."""
        validate_checkpoint(data)
        if data.get("version") != CHECKPOINT_VERSION_FAMILY:
            raise CheckpointError(
                f"{cls.__name__} reads family checkpoints "
                f"(version {CHECKPOINT_VERSION_FAMILY}), "
                f"got version {data.get('version')!r}"
            )
        family = data.get("family")
        if family != cls.family:
            raise CheckpointError(
                f"checkpoint family {family!r} does not match {cls.family!r}"
            )
        config = DetectorConfig.from_dict(data["config"])  # type: ignore[arg-type]
        engine = cls(config, observer=observer, metrics=metrics)
        # Position and state first: a family's validation may check its
        # own state against them.
        engine._consumed = int(data["consumed"])  # type: ignore[arg-type]
        engine.state = PhaseState(data["state"])
        engine._restore_engine_state(data["engine"])  # type: ignore[arg-type]
        stats: Dict[str, object] = data["stats"]  # type: ignore[assignment]
        engine._phase_count = int(stats["count"])  # type: ignore[arg-type]
        engine._phase_total = float(stats["total"])  # type: ignore[arg-type]
        tracker = engine.tracker
        open_phase = data.get("open_phase")
        if open_phase is not None:
            tracker.open_detected = int(open_phase[0])  # type: ignore[index]
            tracker.open_corrected = int(open_phase[1])  # type: ignore[index]
        tracker.phases = [
            DetectedPhase(int(p[0]), int(p[1]), int(p[2]), float(p[3]))
            for p in data["phases"]  # type: ignore[union-attr]
        ]
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


class PerWindowEngine(DecisionEngine):
    """An engine that decides once per ``cw_size``-element window.

    Elements buffer until a window fills; each full window is judged by
    the family's :meth:`_judge`, whose verdict sets the in-phase flag
    that colours elements going forward.  A family supplies
    :meth:`_judge`, its ``stat_threshold`` (the events' bar), its own
    state, :meth:`_engine_state` and :meth:`_restore_window_state`; the
    base owns the buffer, the flag, the window loop and the checks
    every checkpoint's buffer and flag must pass.
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
        self._buffer = buffer
        self._in_phase = in_phase
        self._restore_window_state(payload)


def validate_checkpoint(data: Dict[str, object]) -> None:
    """Check a checkpoint dict's envelope; raise :class:`CheckpointError`.

    Accepts the windowed schema (v1) and the family schema (v2, which
    adds the ``family`` tag and the opaque ``engine`` payload).
    Unknown versions are rejected outright — a newer schema may encode
    state this code cannot faithfully resume.
    """
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint must be a dict, got {type(data).__name__}")
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a detector checkpoint (format={data.get('format')!r})"
        )
    version = data.get("version")
    if version == CHECKPOINT_VERSION:
        required = ("config", "consumed", "state", "filled", "growing",
                    "cw", "tw", "stats", "phases")
    elif version == CHECKPOINT_VERSION_FAMILY:
        if not isinstance(data.get("family"), str) or not data["family"]:
            raise CheckpointError(
                "version-2 checkpoint missing its family tag"
            )
        required = ("config", "consumed", "state", "engine", "stats", "phases")
    else:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads versions {CHECKPOINT_VERSION} "
            f"and {CHECKPOINT_VERSION_FAMILY})"
        )
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
    """Rebuild an engine from any supported checkpoint schema.

    v1 checkpoints are the windowed grid's schema; v2 checkpoints carry
    a ``family`` tag resolved through the registry.
    """
    validate_checkpoint(data)
    if data.get("version") == CHECKPOINT_VERSION:
        from repro.core.runtime import DetectorRuntime

        return DetectorRuntime.restore(data, observer=observer, metrics=metrics)
    family = str(data["family"])
    from repro.comparators import engine_family

    return engine_family(family).restore(data, observer=observer, metrics=metrics)
