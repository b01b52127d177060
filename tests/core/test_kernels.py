"""Array-native kernel routing: the selection machinery (eligibility
predicate, the ``kernels`` flag, bank partitioning) routes every
configuration — windowed, NEWMA, FOCuS, Das Pearson or Lu DYNAMO — to
its path, and bank lanes share their series; the weighted Adaptive
exit scan's scalar head yields what its blocks would, the unweighted
Adaptive head and blocks equal the set definition of the similarity,
and the entry anchor is ``WindowPair.anchor_index``.  That every route
is bit-identical to the reference ``step()`` loop is checked in
``tests/properties/test_oracle_harness.py``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    TrailingPolicy,
)
from repro.core import kernels as kernels_mod
from repro.core.analyzers import ThresholdAnalyzer
from repro.core.bank import DetectorBank
from repro.core.decision import build_engine, restore_engine
from repro.core.kernels import run_bank_batched, vectorized_eligible
from repro.core.runtime import DetectorRuntime
from repro.core.windows import WindowPair
from repro.obs.bus import MemorySink
from repro.obs.trace import Tracer
from repro.profiles.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def trace():
    builder = SyntheticTraceBuilder(seed=71)
    builder.add_transition(150)
    builder.add_phase(1_100, body_size=9, noise_rate=0.03)
    builder.add_transition(120)
    builder.add_phase(900, body_size=21)
    builder.add_transition(80)
    builder.add_phase(600, body_size=5, noise_rate=0.01)
    return builder.build()[0]


class TestEligibility:
    def test_vectorized_covers_threshold_constant(self):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        assert vectorized_eligible(runtime)
        assert runtime.kernel_path() == "vectorized"

    def test_fresh_average_analyzer_is_vectorized(self, trace):
        """A fresh, unobserved Average runtime takes the vectorized
        route; observed and restored ones stay on the legacy route."""
        config = DetectorConfig(
            cw_size=20, skip_factor=5, analyzer=AnalyzerKind.AVERAGE
        )
        runtime = DetectorRuntime(config)
        assert vectorized_eligible(runtime)
        assert runtime.kernel_path() == "vectorized"
        observed = DetectorRuntime(config, observer=MemorySink())
        consumed = DetectorRuntime(config)
        consumed.advance(trace.array[:50].tolist())
        restored = DetectorRuntime.restore(consumed.checkpoint())
        for engine in (observed, restored):
            assert not vectorized_eligible(engine)
            assert engine.kernel_path() == "legacy"

    def test_adaptive_trailing_is_vectorized(self):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5, trailing=TrailingPolicy.ADAPTIVE)
        )
        assert vectorized_eligible(runtime)

    def test_weighted_vectorized_for_any_geometry(self):
        fixed = DetectorRuntime(
            DetectorConfig(cw_size=30, skip_factor=30, model=ModelKind.WEIGHTED)
        )
        assert vectorized_eligible(fixed)
        offset = DetectorRuntime(
            DetectorConfig(cw_size=30, skip_factor=7, model=ModelKind.WEIGHTED)
        )
        assert vectorized_eligible(offset)

    def test_observed_runtime_ineligible(self):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5), observer=MemorySink()
        )
        assert not vectorized_eligible(runtime)
        assert runtime.kernel_path() == "legacy"

    def test_consumed_runtime_ineligible(self, trace):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        runtime.advance(trace.array[:10].tolist())
        assert not vectorized_eligible(runtime)
        assert runtime.kernel_path() == "legacy"

    def test_kernel_entry_points_reject_ineligible(self, trace):
        runtime = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5, analyzer=AnalyzerKind.AVERAGE),
            observer=MemorySink(),
        )
        with pytest.raises(ValueError):
            run_bank_batched([runtime], trace)

        class CustomAnalyzer(ThresholdAnalyzer):
            pass

        custom = DetectorRuntime(
            DetectorConfig(cw_size=20, skip_factor=5),
            analyzer=CustomAnalyzer(0.5),
        )
        with pytest.raises(ValueError):
            run_bank_batched([custom], trace)
        consumed = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        consumed.advance(trace.array[:5].tolist())
        with pytest.raises(ValueError):
            run_bank_batched([consumed], trace)
        # A mixed batch is rejected before any lane runs.
        fresh = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        with pytest.raises(ValueError):
            run_bank_batched([fresh, runtime], trace)
        assert vectorized_eligible(fresh)

    def test_kernels_flag_forces_legacy(self):
        runtime = DetectorRuntime(DetectorConfig(cw_size=20, skip_factor=5))
        assert runtime.kernel_path(kernels=True) == "vectorized"
        assert runtime.kernel_path(kernels=False) == "legacy"


class TestBank:
    def test_mixed_bank_routes_members(self, trace, monkeypatch):
        """Fresh windowed (both analyzers, both TW policies, both
        models), NEWMA and FOCuS members run together on the vectorized
        route and observed members alone on the legacy one, by
        ``kernel_path()`` and by the ``bank.kernel`` spans' member
        counts; the four fresh NEWMA members share one distance series.
        That every member equals its reference ``step()`` run is
        checked in ``tests/properties/test_oracle_harness.py``."""
        windowed = [
            DetectorConfig(
                cw_size=40, skip_factor=8, trailing=trailing, model=model,
                analyzer=analyzer, threshold=0.5, delta=0.07,
            )
            for model in ModelKind
            for analyzer in AnalyzerKind
            for trailing in TrailingPolicy
        ]
        fresh = [
            *windowed,
            *[
                newma(cw_size=cw, stat_threshold=bar)
                for cw in (30, 120)
                for bar in (3.0, 5.0)
            ],
            DetectorConfig(family="focus", cw_size=60),
        ]
        observed = [windowed[-1], newma(cw_size=30, stat_threshold=4.0)]
        bank = DetectorBank(
            fresh + observed,
            observers=[None] * len(fresh) + [MemorySink() for _ in observed],
        )
        assert [engine.kernel_path() for engine in bank.runtimes] == (
            ["vectorized"] * len(fresh) + ["legacy"] * len(observed)
        )
        series_calls = []
        compute = kernels_mod._newma_distances

        def counting(*args, **kwargs):
            series_calls.append(args[1:])
            return compute(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "_newma_distances", counting)
        tracer = Tracer()
        bank.run(trace, tracer=tracer)
        kernel_spans = {
            span.attrs["path"]: span.attrs["members"]
            for span in tracer.spans
            if span.name == "bank.kernel"
        }
        assert kernel_spans == {"legacy": len(observed), "vectorized": len(fresh)}
        assert len(series_calls) == 1


def newma(cw_size=40, **overrides):
    return DetectorConfig(family="newma", cw_size=cw_size, **overrides)


def phase_key(phases):
    return [
        (p.detected_start, p.corrected_start, p.end, float.hex(p.mean_similarity))
        for p in phases
    ]


class TestNewmaRoute:
    def test_fresh_newma_is_vectorized(self):
        engine = build_engine(newma())
        assert vectorized_eligible(engine)
        assert engine.kernel_path() == "vectorized"

    def test_observed_restored_consumed_and_flagged_newma_are_legacy(self, trace):
        observed = build_engine(newma(), observer=MemorySink())
        consumed = build_engine(newma())
        consumed.advance(trace.array[:100].tolist())
        restored = restore_engine(consumed.checkpoint())
        for engine in (observed, consumed, restored):
            assert not vectorized_eligible(engine)
            assert engine.kernel_path() == "legacy"
            with pytest.raises(ValueError):
                run_bank_batched([engine], trace)
        assert build_engine(newma()).kernel_path(kernels=False) == "legacy"

    def test_fresh_per_window_families_are_vectorized(self, trace):
        for family in ("das_pearson", "lu_dynamo"):
            config = DetectorConfig(family=family, cw_size=40)
            fresh = build_engine(config)
            assert vectorized_eligible(fresh)
            assert fresh.kernel_path() == "vectorized"
            observed = build_engine(config, observer=MemorySink())
            consumed = build_engine(config)
            consumed.advance(trace.array[:100].tolist())
            restored = restore_engine(consumed.checkpoint())
            for engine in (observed, consumed, restored):
                assert not vectorized_eligible(engine), family
                assert engine.kernel_path() == "legacy", family
                with pytest.raises(ValueError):
                    run_bank_batched([engine], trace)
            assert build_engine(config).kernel_path(kernels=False) == "legacy"


def focus(cw_size=40, **overrides):
    return DetectorConfig(family="focus", cw_size=cw_size, **overrides)


class TestFocusRoute:
    def test_fresh_focus_is_vectorized(self):
        engine = build_engine(focus())
        assert vectorized_eligible(engine)
        assert engine.kernel_path() == "vectorized"

    def test_observed_restored_consumed_and_flagged_focus_are_legacy(self, trace):
        observed = build_engine(focus(), observer=MemorySink())
        consumed = build_engine(focus())
        consumed.advance(trace.array[:100].tolist())
        restored = restore_engine(consumed.checkpoint())
        for engine in (observed, consumed, restored):
            assert not vectorized_eligible(engine)
            assert engine.kernel_path() == "legacy"
            with pytest.raises(ValueError):
                run_bank_batched([engine], trace)
        assert build_engine(focus()).kernel_path(kernels=False) == "legacy"

    def test_bank_shares_one_sign_table(self, trace, monkeypatch):
        """FOCuS lanes at three CWs x three bars with one skip build the
        sign table once, and each lane equals its solo step loop."""
        configs = [
            focus(cw_size=cw, stat_threshold=bar)
            for cw in (20, 60, 300)
            for bar in (8.0, 16.0, 32.0)
        ]
        bank = DetectorBank(configs)
        assert {engine.kernel_path() for engine in bank.runtimes} == {"vectorized"}
        sign_calls = []
        compute = kernels_mod._focus_signs

        def counting(*args, **kwargs):
            sign_calls.append(len(args[0]))
            return compute(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "_focus_signs", counting)
        results = bank.run(trace)
        assert sign_calls == [trace.array.size]
        for config, engine, result in zip(configs, bank.runtimes, results):
            solo = build_engine(config)
            reference = solo.run(trace, kernels=False)
            assert np.array_equal(result.states, reference.states)
            assert phase_key(result.detected_phases) == phase_key(
                reference.detected_phases
            )
            assert json.dumps(engine.checkpoint(), sort_keys=True) == json.dumps(
                solo.checkpoint(), sort_keys=True
            )


@st.composite
def weighted_episodes(draw):
    """A trace of dense codes and one Adaptive episode on it: the entry
    step, and the pinned TW left edge ``A`` and CW left edge ``L`` an
    entry resize can leave (``A`` at most ``twc`` before the pre-resize
    CW, ``L`` shifted right by at most ``cwc - 1``)."""
    cwc = draw(st.integers(1, 12), label="cwc")
    skip = draw(st.integers(1, 4), label="skip")
    codes = np.array(
        draw(st.lists(st.integers(0, 5), min_size=cwc + 2, max_size=120)),
        dtype=np.int64,
    )
    total = codes.size
    step_ends = np.minimum(
        np.arange(1, -(-total // skip) + 1, dtype=np.int64) * skip, total
    )
    first_entry = int(np.searchsorted(step_ends, cwc + 1))
    entry = draw(st.integers(first_entry, step_ends.size - 1), label="entry")
    c_entry = int(step_ends[entry])
    tw_left = draw(st.integers(0, c_entry - cwc), label="tw_left")
    cw_left = c_entry - cwc + draw(st.integers(0, cwc - 1), label="moved")
    return codes, step_ends, entry, tw_left, cw_left, cwc


class TestWeightedHead:
    @settings(max_examples=200, deadline=None)
    @given(weighted_episodes())
    def test_head_equals_first_blocks(self, episode):
        """``_scan_head_weighted``'s similarities equal, by ``float.hex``,
        the values ``_scan_phase_weighted`` yields for the same steps."""
        codes, step_ends, entry, tw_left, cw_left, cwc = episode
        n_steps = int(step_ends.size)
        first = entry + 1
        stop = min(first + kernels_mod._HEAD_STEPS, n_steps)
        head = list(
            kernels_mod._scan_head_weighted(
                codes, step_ends, first, stop, tw_left, cw_left, cwc
            )
        )
        base_counts = np.zeros(int(codes.max()) + 1, dtype=np.int64)
        blocks = kernels_mod._scan_phase_weighted(
            codes, base_counts, step_ends, first,
            tw_left, cw_left, cwc, n_steps,
        )
        expected = []
        for _, blk in blocks:
            expected.extend(blk.tolist())
            if len(expected) >= len(head):
                break
        blocks.close()
        assert len(head) == stop - first
        assert [float.hex(v) for v in head] == [
            float.hex(v) for v in expected[: len(head)]
        ]
        assert not base_counts.any()


def _anchor_index(tw, cw, policy):
    """The reference anchor: ``WindowPair.anchor_index`` over windows
    loaded with ``_load``."""
    pair = WindowPair(len(cw), len(tw))
    pair._load(tw, cw)
    return pair.anchor_index(policy)


class TestEntryAnchor:
    @settings(max_examples=300, deadline=None)
    @given(
        tw=st.lists(st.integers(0, 6), min_size=1, max_size=16),
        cw=st.lists(st.integers(0, 6), min_size=1, max_size=16),
        policy=st.sampled_from(AnchorPolicy),
    )
    def test_matches_anchor_index(self, tw, cw, policy):
        rn = policy is AnchorPolicy.RN
        assert kernels_mod._entry_anchor(tw + cw, len(tw), rn) == _anchor_index(
            tw, cw, policy
        )

    @pytest.mark.parametrize(
        "tw, cw, policy, expected",
        [
            # Every TW element in the CW: RN anchors at the TW's start.
            ([1, 2, 1, 2], [2, 1], AnchorPolicy.RN, 0),
            ([1, 2, 1, 2], [2, 1], AnchorPolicy.LNN, 0),
            # None in the CW: LNN anchors at the TW's end.
            ([7, 8, 9], [1, 2, 1], AnchorPolicy.LNN, 3),
            ([7, 8, 9], [1, 2, 1], AnchorPolicy.RN, 3),
            # A one-element CW.
            ([5, 1, 6, 1, 1], [1], AnchorPolicy.RN, 3),
            ([5, 1, 6, 1, 1], [1], AnchorPolicy.LNN, 1),
            # Repeated codes on both sides of the windows' edge.
            ([4, 4, 3, 3, 4, 3], [3, 3, 3], AnchorPolicy.RN, 5),
            ([4, 4, 3, 3, 4, 3], [3, 3, 3], AnchorPolicy.LNN, 2),
        ],
        ids=[
            "all-in-cw-rn", "all-in-cw-lnn", "none-in-cw-lnn", "none-in-cw-rn",
            "cw-1-rn", "cw-1-lnn", "repeated-rn", "repeated-lnn",
        ],
    )
    def test_named_windows(self, tw, cw, policy, expected):
        rn = policy is AnchorPolicy.RN
        assert _anchor_index(tw, cw, policy) == expected
        assert kernels_mod._entry_anchor(tw + cw, len(tw), rn) == expected


@st.composite
def unweighted_episodes(draw):
    """A trace of dense codes, some of them seen once (``prev = -1``),
    and one Adaptive episode on it, as :func:`weighted_episodes` draws
    it; long traces let the blocks after the head run over several
    256-step blocks.  Also draws how many steps the head covers."""
    cwc = draw(st.integers(1, 12), label="cwc")
    skip = draw(st.integers(1, 3), label="skip")
    total = draw(
        st.one_of(st.integers(cwc + 2, 120), st.integers(800, 1_100)), label="total"
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    codes = rng.integers(0, draw(st.integers(1, 12), label="alphabet"), total)
    fresh = rng.random(total) < draw(st.sampled_from([0.0, 0.05, 0.3]), label="fresh")
    codes[fresh] = 100 + np.flatnonzero(fresh)
    step_ends = np.minimum(
        np.arange(1, -(-total // skip) + 1, dtype=np.int64) * skip, total
    )
    first_entry = int(np.searchsorted(step_ends, cwc + 1))
    entry = draw(
        st.integers(first_entry, min(first_entry + 40, step_ends.size - 1)),
        label="entry",
    )
    c_entry = int(step_ends[entry])
    tw_left = draw(st.integers(0, c_entry - cwc), label="tw_left")
    cw_left = c_entry - cwc + draw(st.integers(0, cwc - 1), label="moved")
    head = draw(st.integers(0, kernels_mod._HEAD_STEPS), label="head")
    return codes, step_ends, entry, tw_left, cw_left, cwc, head


class TestUnweightedAdaptive:
    @settings(max_examples=150, deadline=None)
    @given(unweighted_episodes())
    def test_head_and_blocks_equal_window_sets(self, episode):
        """``_scan_head_unweighted`` then ``_scan_phase_unweighted`` from
        the step after the head yield, by ``float.hex``, ``|CW ∩ TW| /
        |CW|`` over distinct codes at every step after the entry, with
        CW = ``[max(L, c - cwc), c)`` and TW = ``[A, max(L, c - cwc))``."""
        codes, step_ends, entry, tw_left, cw_left, cwc, head = episode
        total = int(codes.size)
        n_steps = int(step_ends.size)
        prev = kernels_mod._prev_occurrence(codes)
        distinct_all = kernels_mod._unweighted_window_counts(prev, cwc, 1, total)[0]
        first = entry + 1
        stop = min(first + head, n_steps)
        got = list(
            kernels_mod._scan_head_unweighted(
                prev, distinct_all, step_ends, first, stop, tw_left, cw_left, cwc
            )
        )
        for _, blk in kernels_mod._scan_phase_unweighted(
            prev, distinct_all, step_ends, stop, tw_left, cw_left, cwc, total,
            n_steps,
        ):
            got.extend(blk.tolist())
        seq = codes.tolist()
        expected = []
        tw = set()
        tw_end = tw_left
        for c in step_ends[first:].tolist():
            left = max(cw_left, c - cwc)
            tw.update(seq[tw_end:left])
            tw_end = left
            cw = set(seq[left:c])
            expected.append(len(cw & tw) / len(cw))
        assert [float.hex(v) for v in got] == [float.hex(v) for v in expected]
