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
  Rare events (phase entry anchoring, window flushes) are delegated to
  the same :class:`~repro.core.windows.WindowPair` methods the
  reference path uses.  At ``skipFactor > 1`` (and with custom
  components) :meth:`~repro.core.decision.DecisionEngine.advance` loops
  :meth:`DetectorRuntime.step` instead (see ``docs/performance.md``
  for what that costs).

The runtime has no whole-trace driver of its own: it inherits
:meth:`~repro.core.decision.DecisionEngine.run`, which loops
:meth:`DetectorRuntime.step` for ``fused=False`` and
``record_similarity=True``, sends fresh, unobserved standard-component
runtimes (either analyzer) through the vectorized kernels of
:mod:`repro.core.kernels`
(as a bank of one — bit-identical states, phases and checkpoints at a
fraction of the cost), and hands everything else to the same
``_advance_elements`` hook :meth:`advance` uses, in one call.

The runtime's state is serializable: :meth:`DetectorRuntime.checkpoint`
returns a JSON-safe dict (the versioned **v1** windowed schema, see
``docs/formats.md``) from which :meth:`DetectorRuntime.restore` resumes
with bit-identical continuation — same states, same phases, same event
stream as an uninterrupted run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

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
    CHECKPOINT_VERSION_FAMILY,
    WINDOWED_FAMILY,
    CheckpointError,
    DecisionEngine,
    DetectedPhase,
    DetectionResult,
    PhaseDecision,
    PhaseTracker,
    StepOutcome,
    checkpoint_open_phase,
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
    "CHECKPOINT_VERSION_FAMILY",
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
            ``emit(event: dict)`` method — see :mod:`repro.obs`); the
            default ``None`` keeps both paths free of event
            construction.
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
        super().__init__(config, observer=observer, metrics=metrics)
        self.model: SimilarityModel = model if model is not None else build_model(config)
        self.analyzer: Analyzer = analyzer if analyzer is not None else build_analyzer(config)
        self._adaptive = config.trailing is TrailingPolicy.ADAPTIVE
        self.model.observer = observer  # windows emit tw_resize/window_flush

    # -- observer plumbing -----------------------------------------------------

    @property
    def observer(self):
        return self._observer

    @observer.setter
    def observer(self, value) -> None:
        self._observer = value
        self.model.observer = value
        self.tracker.observer = value

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

        observer = self._observer
        if not model.filled:
            new_state = PhaseState.TRANSITION
            similarity: Optional[float] = None
        else:
            similarity = model.similarity()
            if observer is not None:
                step = model.consumed
                observer.emit(
                    {
                        "ev": "similarity",
                        "step": step,
                        "value": similarity,
                        "cw": model.cw_length,
                        "tw": model.tw_length,
                    }
                )
                bar = analyzer.effective_bar(self.state)
            new_state = analyzer.process_value(similarity, self.state)
            if observer is not None:
                observer.emit(
                    {
                        "ev": "decision",
                        "step": step,
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

    def _close(self, end: int) -> DetectedPhase:
        stats = self.analyzer.stats
        mean = stats.total / stats.count if stats.count else 0.0
        return self.tracker.exit(self.model.consumed, end, mean)

    # -- the optimized path ----------------------------------------------------

    def _advance_elements(
        self, elements: Sequence[int], states: bytearray, base: int
    ) -> None:
        """With the standard components at skip 1 this runs the
        optimized inline loop; otherwise it loops :meth:`step`."""
        if self.config.skip_factor == 1 and self.fused_capable():
            self._advance_fused(elements, states, base)
        else:
            super()._advance_elements(elements, states, base)

    def _advance_fused(
        self, elements: Sequence[int], states: bytearray, base: int
    ) -> None:
        """The optimized skip-1 loop (see module docstring).

        Bit-identical to looping :meth:`step` over one-element groups
        (the chunk-invariance tests pin this).  Key techniques:

        - similarity aggregates are maintained incrementally: the
          unweighted model's distinct/shared counters always; the
          weighted model's scaled numerator
          ``S = sum_e min(cw_e * |TW|, tw_e * |CW|)`` whenever both
          window lengths are at their steady-state capacities (count
          deltas are then exact with fixed lengths).  When lengths move
          — initial fill, post-anchor refill, Adaptive TW growth — the
          numerator is recomputed over the CW's distinct elements,
          which in-phase is small because the content is repetitive;
        - everything hot is a local variable, synced back to the model
          and analyzer objects on exit (and around the rare transition
          calls into :class:`~repro.core.windows.WindowPair`).
        """
        config = self.config
        model = self.model
        analyzer = self.analyzer
        tracker = self.tracker
        observer = self._observer
        emit = observer.emit if observer is not None else None

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

        stats = analyzer.stats
        stat_total = stats.total
        stat_count = stats.count
        stat_min = stats.minimum
        stat_max = stats.maximum

        distinct_cw = len(cw_counts)
        shared = 0
        for element in cw_counts:
            if element in tw_counts:
                shared += 1
        s_num = 0
        s_dirty = True

        cw_append = cw.append
        cw_popleft = cw.popleft
        tw_append = tw.append
        tw_popleft = tw.popleft
        cw_counts_get = cw_counts.get
        tw_counts_get = tw_counts.get

        offset = base
        for element in elements:
            # The incremental weighted numerator is exact only while both
            # windows sit at their steady-state lengths.
            steady_w = (
                weighted
                and not s_dirty
                and filled
                and not growing
                and len(cw) == cw_cap
                and len(tw) == tw_cap
            )
            if weighted and not steady_w:
                s_dirty = True

            # ---- push the element through the windows ------------------------
            consumed += 1
            cw_append(element)
            count = cw_counts_get(element, 0) + 1
            cw_counts[element] = count
            if count == 1:
                distinct_cw += 1
                if element in tw_counts:
                    shared += 1
            if steady_w:
                tw_count = tw_counts_get(element, 0)
                if tw_count:
                    s_num += min(count * tw_cap, tw_count * cw_cap) - min(
                        (count - 1) * tw_cap, tw_count * cw_cap
                    )
            if len(cw) > cw_cap:
                old = cw_popleft()
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
                    s_num += min(old_count * tw_cap, old_tw * cw_cap) - min(
                        (old_count + 1) * tw_cap, old_tw * cw_cap
                    )
                tw_append(old)
                tw_counts[old] = old_tw + 1
                if old_tw == 0 and old_count:
                    shared += 1
                if steady_w and old_count:
                    s_num += min(old_count * tw_cap, (old_tw + 1) * cw_cap) - min(
                        old_count * tw_cap, old_tw * cw_cap
                    )
                if not growing and len(tw) > tw_cap:
                    dead = tw_popleft()
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
                            s_num += min(
                                dead_cw * tw_cap, dead_count * cw_cap
                            ) - min(dead_cw * tw_cap, (dead_count + 1) * cw_cap)

            if not filled and len(tw) >= tw_cap and len(cw) >= cw_cap:
                filled = True

            # ---- similarity + analyzer ---------------------------------------
            if not filled:
                new_in_phase = False
                similarity = 0.0
            else:
                if weighted:
                    cw_len = len(cw)
                    tw_len = len(tw)
                    if s_dirty:
                        s_num = 0
                        for cw_element, count in cw_counts.items():
                            tw_count = tw_counts_get(cw_element)
                            if tw_count is not None:
                                s_num += min(count * tw_len, tw_count * cw_len)
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
                    emit(
                        {
                            "ev": "similarity",
                            "step": consumed,
                            "value": similarity,
                            "cw": len(cw),
                            "tw": len(tw),
                        }
                    )
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
                distinct_cw = len(cw_counts)
                shared = 0
                for cw_element in cw_counts:
                    if cw_element in tw_counts:
                        shared += 1
                s_dirty = True
                analyzer.reset_stats(similarity)
                stat_total = stats.total
                stat_count = stats.count
                stat_min = stats.minimum
                stat_max = stats.maximum
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
                distinct_cw = len(cw_counts)
                shared = 0
                s_num = 0
                s_dirty = True
                stat_total = stats.total
                stat_count = stats.count
                stat_min = stats.minimum
                stat_max = stats.maximum
            elif in_phase:
                stat_total += similarity
                stat_count += 1
                if similarity < stat_min:
                    stat_min = similarity
                if similarity > stat_max:
                    stat_max = similarity

            if new_in_phase:
                states[offset] = 1

            in_phase = new_in_phase
            offset += 1

        # ---- sync everything back so the paths interleave freely -------------
        model.consumed = consumed
        model.filled = filled
        model.growing = growing
        if not weighted:
            model._distinct_cw = distinct_cw
            model._shared = shared
        stats.total = stat_total
        stats.count = stat_count
        stats.minimum = stat_min
        stats.maximum = stat_max
        self.state = PhaseState.PHASE if in_phase else PhaseState.TRANSITION

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Serialize the full detector state as a JSON-safe dict.

        The windowed grid keeps its original **v1** schema (``version``
        = :data:`CHECKPOINT_VERSION`, documented in ``docs/formats.md``)
        — byte-for-byte what it wrote before the decision-layer split —
        so existing checkpoints and their consumers are untouched.
        :meth:`restore` resumes with bit-identical continuation.  Only
        the standard model/analyzer components are serializable —
        custom components raise :class:`CheckpointError`.
        """
        if not self.fused_capable():
            raise CheckpointError(
                "checkpointing requires the standard model/analyzer components, "
                f"got {type(self.model).__name__}/{type(self.analyzer).__name__}"
            )
        model = self.model
        stats = self.analyzer.stats
        tracker = self.tracker
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "consumed": model.consumed,
            "state": self.state.value,
            "filled": model.filled,
            "growing": model.growing,
            "cw": [int(element) for element in model._cw],
            "tw": [int(element) for element in model._tw],
            "stats": {
                "count": stats.count,
                "total": stats.total,
                "minimum": stats.minimum,
                "maximum": stats.maximum,
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
    ) -> "DetectorRuntime":
        """Rebuild a runtime from a :meth:`checkpoint` dict (schema v1).

        Family (v2) checkpoints belong to their engines — route them
        through :func:`repro.core.decision.restore_engine` instead.
        """
        validate_checkpoint(data)
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{cls.__name__} reads windowed checkpoints "
                f"(version {CHECKPOINT_VERSION}), got version "
                f"{data.get('version')!r} — use "
                "repro.core.decision.restore_engine for family checkpoints"
            )
        config = DetectorConfig.from_dict(data["config"])  # type: ignore[arg-type]
        runtime = cls(config, observer=observer, metrics=metrics)
        model = runtime.model
        # Replay the windows through the add hooks so the model's
        # incremental aggregates are rebuilt exactly (TW first: the
        # shared count is attributed on the CW side).
        for element in data["tw"]:  # type: ignore[union-attr]
            model._tw_add(int(element))
        for element in data["cw"]:  # type: ignore[union-attr]
            model._cw_add(int(element))
        model.consumed = int(data["consumed"])  # type: ignore[arg-type]
        model.filled = bool(data["filled"])
        model.growing = bool(data["growing"])
        stats_data: Dict[str, object] = data["stats"]  # type: ignore[assignment]
        stats = runtime.analyzer.stats
        stats.count = int(stats_data["count"])  # type: ignore[arg-type]
        stats.total = float(stats_data["total"])  # type: ignore[arg-type]
        stats.minimum = float(stats_data["minimum"])  # type: ignore[arg-type]
        stats.maximum = float(stats_data["maximum"])  # type: ignore[arg-type]
        runtime.state = PhaseState(data["state"])
        tracker = runtime.tracker
        open_phase = checkpoint_open_phase(
            data.get("open_phase"), runtime.state, model.consumed
        )
        if open_phase is not None:
            tracker.open_detected, tracker.open_corrected = open_phase
        tracker.phases = [
            DetectedPhase(int(p[0]), int(p[1]), int(p[2]), float(p[3]))
            for p in data["phases"]  # type: ignore[union-attr]
        ]
        return runtime
