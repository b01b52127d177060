"""The unified incremental windowed-detector runtime.

Every way this codebase runs a windowed detector — the readable
reference :class:`~repro.core.detector.PhaseDetector`, the optimized
:func:`~repro.core.engine.run_detector`, the chunk-buffering
:class:`~repro.core.stream.StreamingDetector`, and the multi-config
:class:`~repro.core.bank.DetectorBank` — is a thin front over one
:class:`DetectorRuntime`.  The runtime owns the full detector state
(windows, counts, analyzer statistics, the open-phase record) and
advances it ``skipFactor`` elements at a time, which is exactly the
online contract of the paper's Figure 3 loop: the VM hands the detector
one profile group per step.

:class:`DetectorRuntime` is the windowed-grid implementation of the
generic :class:`~repro.core.decision.DecisionEngine` — phase
bookkeeping, decision records, and the chunked drivers live in
:mod:`repro.core.decision` and are shared with the non-windowed
families in :mod:`repro.comparators`.  Two equivalent execution paths
share the runtime's state:

- :meth:`DetectorRuntime.step` — the reference path, structured like
  the paper's pseudo-code on top of the pluggable
  :class:`~repro.core.models.SimilarityModel` /
  :class:`~repro.core.analyzers.Analyzer` components.  This is the path
  custom components (extensions, metered models) go through, and it
  returns a :class:`StepOutcome` carrying the similarity value the
  decision actually used.
- :meth:`DetectorRuntime.advance` — the optimized path for
  ``skipFactor == 1``: the former engine loop, inlining the
  per-element window/count bookkeeping with everything hot in local
  variables.  It operates directly on the standard model's deques and
  count dicts and syncs all scalar state back on exit, so the two paths
  interleave freely and a checkpoint taken after either is identical.
  The weighted model's similarity numerator is an exact integer there,
  updated per element by integer comparisons alone, with no builtin
  ``min()`` call (see ``docs/performance.md`` for what that saves).
  Rare events (phase entry anchoring, window flushes) are delegated to
  the same :class:`~repro.core.windows.WindowPair` methods the
  reference path uses.  At ``skipFactor > 1`` (and with custom
  components) :meth:`~repro.core.decision.DecisionEngine.advance` loops
  :meth:`DetectorRuntime.step` instead (see ``docs/performance.md``
  for what that costs).

The runtime has no whole-trace driver of its own: it inherits
:meth:`~repro.core.decision.DecisionEngine.run`, which loops
:meth:`DetectorRuntime.step` for ``fused=False``, sends fresh,
unobserved standard-component runtimes (either analyzer) through the
vectorized kernels of :mod:`repro.core.kernels` (as a bank of one —
bit-identical phases and checkpoints at a fraction of the cost), and
hands everything else to the same ``_advance_elements`` hook
:meth:`advance` uses, in one call.  Every path records phases in the
tracker and nothing per element.

The runtime's state is serializable through the one checkpoint schema
every family shares (see ``docs/formats.md``): it supplies only the
``engine`` payload — the two windows and their ``filled`` / ``growing``
flags — and inherits :meth:`~repro.core.decision.DecisionEngine.checkpoint`
and :meth:`~repro.core.decision.DecisionEngine.restore`, which resume
with bit-identical continuation — same phases, same event stream as an
uninterrupted run.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence

from repro.core.analyzers import (
    Analyzer,
    AverageAnalyzer,
    ThresholdAnalyzer,
    build_analyzer,
)
from repro.core.config import DetectorConfig, TrailingPolicy
from repro.core.decision import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    WINDOWED_FAMILY,
    CheckpointError,
    DecisionEngine,
    DetectedPhase,
    DetectionResult,
    PhaseDecision,
    PhaseTracker,
    StepOutcome,
    checkpoint_bool,
    validate_checkpoint,
)
from repro.core.models import (
    SimilarityModel,
    UnweightedSetModel,
    WeightedSetModel,
    build_model,
)
from repro.core.state import PhaseState

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "DecisionEngine",
    "DetectedPhase",
    "DetectionResult",
    "DetectorRuntime",
    "PhaseDecision",
    "PhaseTracker",
    "StepOutcome",
    "validate_checkpoint",
]


class DetectorRuntime(DecisionEngine):
    """One windowed detector's full incremental state plus the two ways
    to advance it.

    Args:
        config: the detector configuration.
        observer: optional observability sink (anything with an
            ``emit(event: dict)`` method — see :mod:`repro.obs`).  Both
            paths build the per-step ``similarity`` / ``decision``
            events only when it asked for them (its optional ``kinds``,
            read once when it is attached), so the default ``None`` and
            a phase-only observer both keep the loops free of per-step
            event construction.
        model: optional replacement similarity model (extensions); any
            non-standard component routes :meth:`advance` through the
            reference :meth:`step` path.
        analyzer: optional replacement analyzer, same rules.
        metrics: optional metrics registry (anything with a
            ``histogram(name)`` accessor whose result has
            ``observe(seconds)`` — see :mod:`repro.obs.metrics`); when
            set, every :meth:`advance` chunk records its wall time in
            the ``runtime.advance_seconds`` histogram.  The default
            ``None`` costs one branch per chunk, never per element.
    """

    family = WINDOWED_FAMILY

    def __init__(
        self,
        config: DetectorConfig,
        observer=None,
        model: Optional[SimilarityModel] = None,
        analyzer: Optional[Analyzer] = None,
        metrics=None,
    ) -> None:
        self.model: SimilarityModel = model if model is not None else build_model(config)
        self.analyzer: Analyzer = analyzer if analyzer is not None else build_analyzer(config)
        super().__init__(config, observer=observer, metrics=metrics)
        # One phase-statistics record: the analyzer's bar reads it.
        self.stats = self.analyzer.stats
        self._adaptive = config.trailing is TrailingPolicy.ADAPTIVE

    # -- observer plumbing -----------------------------------------------------

    @DecisionEngine.observer.setter
    def observer(self, value) -> None:
        DecisionEngine.observer.fset(self, value)
        self.model.observer = value  # windows emit tw_resize/window_flush

    # -- derived views ---------------------------------------------------------

    @property
    def consumed(self) -> int:
        """Total profile elements consumed since the start of the stream."""
        return self.model.consumed

    def fused_capable(self) -> bool:
        """True when the runtime has the exact standard components.

        The optimized inline loop (at ``skipFactor == 1``),
        checkpointing and the vectorized kernels all require them:
        subclasses and wrappers (metered models, extension analyzers)
        carry their own state none of those can maintain, so they take
        the reference path.
        """
        return type(self.model) in (UnweightedSetModel, WeightedSetModel) and type(
            self.analyzer
        ) in (ThresholdAnalyzer, AverageAnalyzer)

    # -- the reference path ----------------------------------------------------

    def step(self, elements: Sequence[int]) -> StepOutcome:
        """Consume one ``skipFactor`` group via the pluggable components.

        This is the framework's ``processProfile`` entry point,
        structured exactly like the paper's pseudo-code.  The returned
        state applies to every element passed in.
        """
        elements = list(elements)
        model = self.model
        analyzer = self.analyzer
        model.push(elements)

        if not model.filled:
            new_state = PhaseState.TRANSITION
            similarity: Optional[float] = None
        else:
            similarity = model.similarity()
            if self._similarity_events:
                self._observer.emit(
                    {
                        "ev": "similarity",
                        "step": model.consumed,
                        "value": similarity,
                        "cw": model.cw_length,
                        "tw": model.tw_length,
                    }
                )
            if self._decision_events:
                bar = analyzer.effective_bar(self.state)
            new_state = analyzer.process_value(similarity, self.state)
            if self._decision_events:
                self._observer.emit(
                    {
                        "ev": "decision",
                        "step": model.consumed,
                        "state": "P" if new_state.is_phase() else "T",
                        "value": similarity,
                        "bar": bar,
                    }
                )

        entered = False
        closed: Optional[DetectedPhase] = None
        if self.state.is_transition() and new_state.is_phase():
            # Start phase: anchor the TW and reset analyzer statistics.
            anchor_abs = model.anchor_and_resize(
                self.config.anchor, self.config.resize, self._adaptive
            )
            analyzer.reset_stats(similarity if similarity is not None else 0.0)
            detected_start = model.consumed - len(elements)
            self.tracker.enter(model.consumed, detected_start, anchor_abs)
            entered = True
        elif self.state.is_phase() and new_state.is_transition():
            # End phase: record it (while the stats are live), then
            # flush the windows and reseed the CW.
            closed = self._close(model.consumed - len(elements))
            model.clear_and_seed(elements)
            analyzer.clear()
        elif self.state.is_phase():
            # In phase: track statistics.
            if similarity is not None:
                analyzer.update_stats(similarity)

        self.state = new_state
        return StepOutcome(new_state, similarity, entered, closed)

    # -- the optimized path ----------------------------------------------------

    def _advance_elements(self, elements: Sequence[int]) -> None:
        """With the standard components at skip 1 this runs the
        optimized inline loop; otherwise it loops :meth:`step`."""
        if self.config.skip_factor == 1 and self.fused_capable():
            self._advance_fused(elements)
        else:
            super()._advance_elements(elements)

    def _advance_fused(self, elements: Sequence[int]) -> None:
        """The optimized skip-1 loop (see module docstring).

        Bit-identical to looping :meth:`step` over one-element groups
        (the chunk-invariance tests pin this).  Key techniques:

        - similarity aggregates are maintained incrementally: the
          unweighted model's distinct/shared counters always; the
          weighted model's scaled numerator
          ``S = sum_e min(cw_e * T, tw_e * C)`` (``C`` / ``T`` the CW /
          TW capacities) whenever both window lengths are at their
          steady-state capacities (count deltas are then exact with
          fixed lengths).  When lengths move — initial fill, post-anchor
          refill, Adaptive TW growth — the numerator is recomputed over
          the CW's distinct elements, which in-phase is small because
          the content is repetitive;
        - ``S`` is a pure integer sum, so no arithmetic on it is rounded,
          and none of it calls ``min()``.  One count change moves one
          term: with ``a = cw_e * T`` and ``b = tw_e * C`` after the
          change, a CW push adds ``min(a, b) - min(a - T, b)``, which is
          ``T`` when ``a <= b``, ``b - a + T`` when only ``a - T < b``,
          and ``0`` otherwise; a CW pop subtracts the same shape, and
          the TW side is its mirror with ``C``.  At a tie both arms give
          the same value;
        - the window lengths are local counters, not ``len()`` calls;
        - everything hot is a local variable, synced back to the model
          and analyzer objects on exit (and around the rare transition
          calls into :class:`~repro.core.windows.WindowPair`).
        """
        config = self.config
        model = self.model
        analyzer = self.analyzer
        tracker = self.tracker
        similarity_events = self._similarity_events
        decision_events = self._decision_events
        # One per-element test when the observer declined both per-step
        # event types (or there is none): no dict is built, no call made.
        emit = (
            self._observer.emit if similarity_events or decision_events else None
        )

        cw_cap = model.cw_capacity
        tw_cap = model.tw_capacity
        adaptive = self._adaptive
        weighted = type(model) is WeightedSetModel
        threshold_analyzer = type(analyzer) is ThresholdAnalyzer
        threshold = analyzer.threshold if threshold_analyzer else 0.0
        delta = 0.0 if threshold_analyzer else analyzer.delta
        enter_threshold = 0.0 if threshold_analyzer else analyzer.enter_threshold
        anchor_policy = config.anchor
        resize_policy = config.resize

        cw = model._cw
        tw = model._tw
        cw_counts = model.cw_counts
        tw_counts = model.tw_counts
        consumed = model.consumed
        filled = model.filled
        growing = model.growing
        in_phase = self.state is PhaseState.PHASE

        stats = self.stats
        stat_total = stats.total
        stat_count = stats.count

        distinct_cw = len(cw_counts)
        shared = 0
        for element in cw_counts:
            if element in tw_counts:
                shared += 1
        s_num = 0
        s_dirty = True
        cw_len = len(cw)
        tw_len = len(tw)

        cw_append = cw.append
        cw_popleft = cw.popleft
        tw_append = tw.append
        tw_popleft = tw.popleft
        cw_counts_get = cw_counts.get
        tw_counts_get = tw_counts.get

        for element in elements:
            # The incremental weighted numerator is exact only while both
            # windows sit at their steady-state lengths.
            steady_w = (
                weighted
                and not s_dirty
                and filled
                and not growing
                and cw_len == cw_cap
                and tw_len == tw_cap
            )
            if weighted and not steady_w:
                s_dirty = True

            # ---- push the element through the windows ------------------------
            consumed += 1
            cw_append(element)
            cw_len += 1
            count = cw_counts_get(element, 0) + 1
            cw_counts[element] = count
            if count == 1:
                distinct_cw += 1
                if element in tw_counts:
                    shared += 1
            if steady_w:
                tw_count = tw_counts_get(element, 0)
                if tw_count:
                    # min(a, b) - min(a - T, b): the CW term grew by T.
                    a = count * tw_cap
                    b = tw_count * cw_cap
                    if a <= b:
                        s_num += tw_cap
                    elif a - tw_cap < b:
                        s_num += b - a + tw_cap
            if cw_len > cw_cap:
                old = cw_popleft()
                cw_len -= 1
                old_count = cw_counts[old] - 1
                if old_count:
                    cw_counts[old] = old_count
                else:
                    del cw_counts[old]
                    distinct_cw -= 1
                    if old in tw_counts:
                        shared -= 1
                old_tw = tw_counts_get(old, 0)
                if steady_w and old_tw:
                    # The CW term shrank by T: min(a, b) - min(a + T, b).
                    a = old_count * tw_cap
                    b = old_tw * cw_cap
                    if a + tw_cap <= b:
                        s_num -= tw_cap
                    elif a < b:
                        s_num += a - b
                    # Then the TW term grows by C: min(a, b + C) - min(a, b).
                    if old_count:
                        if b + cw_cap <= a:
                            s_num += cw_cap
                        elif b < a:
                            s_num += a - b
                tw_append(old)
                tw_len += 1
                tw_counts[old] = old_tw + 1
                if old_tw == 0 and old_count:
                    shared += 1
                    if steady_w:
                        # A term appears: min(old_count * T, C).
                        a = old_count * tw_cap
                        s_num += a if a <= cw_cap else cw_cap
                if not growing and tw_len > tw_cap:
                    dead = tw_popleft()
                    tw_len -= 1
                    dead_count = tw_counts[dead] - 1
                    if dead_count:
                        tw_counts[dead] = dead_count
                    else:
                        del tw_counts[dead]
                        if dead in cw_counts:
                            shared -= 1
                    if steady_w:
                        dead_cw = cw_counts_get(dead, 0)
                        if dead_cw:
                            # The TW term shrank by C: min(a, b) - min(a, b + C).
                            a = dead_cw * tw_cap
                            b = dead_count * cw_cap
                            if b + cw_cap <= a:
                                s_num -= cw_cap
                            elif b < a:
                                s_num += b - a

            if not filled and tw_len >= tw_cap and cw_len >= cw_cap:
                filled = True

            # ---- similarity + analyzer ---------------------------------------
            if not filled:
                new_in_phase = False
                similarity = 0.0
            else:
                if weighted:
                    if s_dirty:
                        s_num = 0
                        for cw_element, count in cw_counts.items():
                            tw_count = tw_counts_get(cw_element)
                            if tw_count is not None:
                                a = count * tw_len
                                b = tw_count * cw_len
                                s_num += a if a <= b else b
                        if cw_len == cw_cap and tw_len == tw_cap:
                            s_dirty = False
                    similarity = s_num / (cw_len * tw_len) if cw_len and tw_len else 0.0
                else:
                    similarity = shared / distinct_cw if distinct_cw else 0.0
                if threshold_analyzer:
                    new_in_phase = similarity >= threshold
                elif in_phase and stat_count:
                    new_in_phase = similarity >= (stat_total / stat_count) - delta
                else:
                    new_in_phase = similarity >= enter_threshold
                if emit is not None:
                    if similarity_events:
                        emit(
                            {
                                "ev": "similarity",
                                "step": consumed,
                                "value": similarity,
                                "cw": cw_len,
                                "tw": tw_len,
                            }
                        )
                    if decision_events:
                        if threshold_analyzer:
                            bar = threshold
                        elif in_phase and stat_count:
                            bar = (stat_total / stat_count) - delta
                        else:
                            bar = enter_threshold
                        emit(
                            {
                                "ev": "decision",
                                "step": consumed,
                                "state": "P" if new_in_phase else "T",
                                "value": similarity,
                                "bar": bar,
                            }
                        )

            # ---- state transitions (Figure 3) --------------------------------
            if not in_phase and new_in_phase:
                model.consumed = consumed
                model.filled = filled
                model.growing = growing
                if not weighted:
                    model._distinct_cw = distinct_cw
                    model._shared = shared
                anchor_abs = model.anchor_and_resize(
                    anchor_policy, resize_policy, adaptive
                )
                growing = model.growing
                cw_len = len(cw)
                tw_len = len(tw)
                distinct_cw = len(cw_counts)
                shared = 0
                for cw_element in cw_counts:
                    if cw_element in tw_counts:
                        shared += 1
                s_dirty = True
                analyzer.reset_stats(similarity)
                stat_total = stats.total
                stat_count = stats.count
                tracker.enter(consumed, consumed - 1, anchor_abs)
            elif in_phase and not new_in_phase:
                phase_mean = stat_total / stat_count if stat_count else 0.0
                tracker.exit(consumed, consumed - 1, phase_mean)
                model.consumed = consumed
                if not weighted:
                    model._distinct_cw = distinct_cw
                    model._shared = shared
                model.clear_and_seed([element])
                analyzer.clear()
                filled = False
                growing = False
                cw_len = len(cw)
                tw_len = len(tw)
                distinct_cw = len(cw_counts)
                shared = 0
                s_num = 0
                s_dirty = True
                stat_total = stats.total
                stat_count = stats.count
            elif in_phase:
                stat_total += similarity
                stat_count += 1

            in_phase = new_in_phase

        # ---- sync everything back so the paths interleave freely -------------
        model.consumed = consumed
        model.filled = filled
        model.growing = growing
        if not weighted:
            model._distinct_cw = distinct_cw
            model._shared = shared
        stats.total = stat_total
        stats.count = stat_count
        self.state = PhaseState.PHASE if in_phase else PhaseState.TRANSITION

    # -- checkpointing ---------------------------------------------------------

    def _engine_state(self) -> Dict[str, object]:
        """The windows and their flags (the envelope holds the rest).

        Only the standard model/analyzer components are serializable —
        custom components raise :class:`CheckpointError`.
        """
        if not self.fused_capable():
            raise CheckpointError(
                "checkpointing requires the standard model/analyzer components, "
                f"got {type(self.model).__name__}/{type(self.analyzer).__name__}"
            )
        model = self.model
        return {
            "filled": model.filled,
            "growing": model.growing,
            "cw": list(map(int, model._cw)),
            "tw": list(map(int, model._tw)),
        }

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Restore the windows, rejecting any state ``step()`` could
        never reach (see ``docs/formats.md``)."""
        model = self.model
        consumed = self._consumed
        in_phase = self.state.is_phase()
        filled = checkpoint_bool(payload["filled"], "windowed checkpoint filled")
        growing = checkpoint_bool(payload["growing"], "windowed checkpoint growing")
        cw: List[int] = payload["cw"]  # type: ignore[assignment]
        tw: List[int] = payload["tw"]  # type: ignore[assignment]
        cw_cap = model.cw_capacity
        tw_cap = model.tw_capacity
        if len(cw) > cw_cap:
            raise CheckpointError(
                f"windowed checkpoint cw holds {len(cw)} elements, "
                f"more than cw_size {cw_cap}"
            )
        if len(cw) + len(tw) > consumed:
            raise CheckpointError(
                f"windowed checkpoint windows hold {len(cw) + len(tw)} "
                f"elements, more than consumed {consumed}"
            )
        # Only the Adaptive TW grows: from phase entry to phase exit.
        if growing != (self._adaptive and in_phase):
            raise CheckpointError(
                f"windowed checkpoint growing={growing} contradicts the "
                f"{self.config.trailing.value} TW in state {self.state.value!r}"
            )
        if len(tw) > tw_cap and not growing:
            raise CheckpointError(
                f"windowed checkpoint tw holds {len(tw)} elements, "
                f"more than its size {tw_cap}, while not growing"
            )
        # Full windows set the flag and only a phase exit clears it;
        # only phase entry (Adaptive TW) shrinks the windows again.
        full = len(cw) == cw_cap and len(tw) >= tw_cap
        if (filled != full and not growing) or (in_phase and not filled):
            raise CheckpointError(
                f"windowed checkpoint filled={filled} contradicts windows "
                f"of {len(cw)}/{len(tw)} elements in state {self.state.value!r}"
            )
        if not set(map(type, chain(tw, cw))) <= {int}:
            element = next(e for e in chain(tw, cw) if type(e) is not int)
            raise CheckpointError(
                f"windowed checkpoint element {element!r:.80} is not an int"
            )
        model._load(tw, cw)
        model.consumed = consumed
        model.filled = filled
        model.growing = growing
