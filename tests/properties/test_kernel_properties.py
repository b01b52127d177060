"""Property-based equivalence: the default whole-trace route vs the oracle.

Every configuration's default route — the vectorized walks (constant,
adaptive and weighted) for both the Threshold and the Average analyzer —
is pinned to the reference ``step()`` loop (``fused=False``) across the
full configuration space: states, phases, checkpoints, and
checkpoint-restore-then-continue interleavings, including checkpoints
taken mid-episode (inside an open phase, Adaptive TW still growing).
The Average analyzer's running bar gets its own edge cases: deltas 0
and 1, one-step phases, similarities exactly on the bar, phases open at
the trace end, and the carry-seeded blockwise ``np.cumsum`` the exit
scan relies on.  The batched bank advancer and the bank's solo legacy
members are pinned to per-lane fused runs, and banks whose lanes share
one window signature to each lane's reference run.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.bank import DetectorBank
from repro.core.runtime import DetectorRuntime
from repro.profiles.trace import BranchTrace

# Small alphabets make both repetition and collisions likely.
elements = st.integers(min_value=0, max_value=12)

# The Average analyzer's extremes (delta 0: any drop below the running
# mean exits; delta 1: nothing exits) and entry bars from "always" to
# "only identical windows".
DELTAS = [0.0, 0.01, 0.1, 0.25, 0.3, 1.0]
ENTER_THRESHOLDS = [0.0, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0]

configs = st.builds(
    DetectorConfig,
    cw_size=st.integers(min_value=1, max_value=12),
    tw_size=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    skip_factor=st.integers(min_value=1, max_value=9),
    trailing=st.sampled_from(list(TrailingPolicy)),
    anchor=st.sampled_from(list(AnchorPolicy)),
    resize=st.sampled_from(list(ResizePolicy)),
    model=st.sampled_from(list(ModelKind)),
    analyzer=st.sampled_from(list(AnalyzerKind)),
    threshold=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    delta=st.sampled_from(DELTAS),
    enter_threshold=st.sampled_from(ENTER_THRESHOLDS),
)

#: Average-analyzer-only configurations for the running-bar edge cases.
average_configs = configs.map(
    lambda config: replace(config, analyzer=AnalyzerKind.AVERAGE)
)


def run_both(trace, config):
    """(default-route result, its runtime, reference result, its runtime)."""
    kernel_rt = DetectorRuntime(config)
    kernel = kernel_rt.run(trace)
    legacy_rt = DetectorRuntime(config)
    legacy = legacy_rt.run(trace, fused=False)
    return kernel, kernel_rt, legacy, legacy_rt


def assert_identical(kernel, kernel_rt, legacy, legacy_rt):
    assert np.array_equal(kernel.states, legacy.states)
    assert kernel.detected_phases == legacy.detected_phases
    assert json.dumps(kernel_rt.checkpoint(), sort_keys=True) == (
        json.dumps(legacy_rt.checkpoint(), sort_keys=True)
    )


@settings(max_examples=150, deadline=None)
@given(trace=st.lists(elements, min_size=0, max_size=400), config=configs)
def test_kernels_match_fused_on_random_traces(trace, config):
    assert_identical(*run_both(BranchTrace(trace), config))


@settings(max_examples=60, deadline=None)
@given(
    body=st.integers(min_value=1, max_value=6),
    repeats=st.integers(min_value=10, max_value=60),
    noise=st.integers(min_value=0, max_value=40),
    config=configs,
)
def test_kernels_match_fused_on_structured_traces(body, repeats, noise, config):
    """Phased traces exercise entries, exits, growth, and anchoring."""
    phase = list(range(body)) * repeats
    transition = list(range(100, 100 + noise))
    trace = BranchTrace(transition + phase + transition + phase)
    assert_identical(*run_both(trace, config))


@settings(max_examples=60, deadline=None)
@given(
    trace=st.lists(elements, min_size=1, max_size=300),
    extra=st.lists(elements, min_size=1, max_size=120),
    config=configs,
)
def test_kernel_checkpoints_restore_and_continue(trace, extra, config):
    """Restore from a post-kernel-run checkpoint and keep streaming: the
    continuation stays in lockstep with the legacy twin, including at
    chunk boundaries that split skip groups."""
    kernel, kernel_rt, legacy, legacy_rt = run_both(BranchTrace(trace), config)
    restored_kernel = DetectorRuntime.restore(kernel_rt.checkpoint())
    restored_legacy = DetectorRuntime.restore(legacy_rt.checkpoint())
    kernel_states = bytearray(len(extra))
    legacy_states = bytearray(len(extra))
    restored_kernel.advance(extra, kernel_states, 0)
    restored_legacy.advance(extra, legacy_states, 0)
    assert bytes(kernel_states) == bytes(legacy_states)
    assert json.dumps(restored_kernel.checkpoint(), sort_keys=True) == (
        json.dumps(restored_legacy.checkpoint(), sort_keys=True)
    )


@settings(max_examples=50, deadline=None)
@given(
    body=st.integers(min_value=1, max_value=5),
    lead=st.lists(elements, min_size=0, max_size=80),
    tail_repeats=st.integers(min_value=20, max_value=80),
    extra=st.lists(elements, min_size=1, max_size=120),
    config=configs,
)
def test_restore_and_continue_mid_episode(body, lead, tail_repeats, extra, config):
    """Checkpoints taken *inside* a phase episode restore exactly.

    The trace ends mid-phase (a long pure repetition tail), so for
    configurations that detect it the checkpoint captures an open
    episode — for Adaptive trailing, a TW still in growth mode.  The
    restored runtime must continue in lockstep with its legacy twin
    through the phase's eventual exit (the random ``extra`` stream).
    """
    phase_tail = list(range(body)) * tail_repeats
    kernel, kernel_rt, legacy, legacy_rt = run_both(
        BranchTrace(lead + phase_tail), config
    )
    assert_identical(kernel, kernel_rt, legacy, legacy_rt)
    restored_kernel = DetectorRuntime.restore(kernel_rt.checkpoint())
    restored_legacy = DetectorRuntime.restore(legacy_rt.checkpoint())
    kernel_states = bytearray(len(extra))
    legacy_states = bytearray(len(extra))
    restored_kernel.advance(extra, kernel_states, 0)
    restored_legacy.advance(extra, legacy_states, 0)
    assert bytes(kernel_states) == bytes(legacy_states)
    assert json.dumps(restored_kernel.checkpoint(), sort_keys=True) == (
        json.dumps(restored_legacy.checkpoint(), sort_keys=True)
    )


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(elements, min_size=0, max_size=300),
    bank_configs=st.lists(configs, min_size=1, max_size=6),
)
def test_batched_bank_matches_sequential_legacy(trace, bank_configs):
    """The batched bank advancer (shared per-signature series) is a pure
    cache and the legacy members run solo: states, phases,
    and checkpoints of every member are identical to per-lane fused runs
    — for any mix of constant/adaptive, unweighted/weighted,
    threshold/average lanes and any geometry overlap between lanes
    (shared signatures exercise the cache)."""
    branch_trace = BranchTrace(trace)
    bank = DetectorBank(bank_configs)
    batched = bank.run(branch_trace)
    solo_runtimes = [DetectorRuntime(config) for config in bank_configs]
    for runtime, bank_runtime, result in zip(
        solo_runtimes, bank.runtimes, batched
    ):
        solo = runtime.run(branch_trace, kernels=False)
        assert np.array_equal(result.states, solo.states)
        assert result.detected_phases == solo.detected_phases
        assert json.dumps(bank_runtime.checkpoint(), sort_keys=True) == (
            json.dumps(runtime.checkpoint(), sort_keys=True)
        )


#: Many short episodes over a wide alphabet: loops of 1-6 elements drawn
#: from 500 codes, each repeated a few times and followed by noise, so
#: the dense-code table is far larger than any window and one walk
#: enters and leaves many phases.
episode_traces = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=499), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=8),
        st.lists(st.integers(min_value=0, max_value=499), max_size=4),
    ),
    min_size=4,
    max_size=40,
).map(lambda parts: [e for body, reps, noise in parts for e in body * reps + noise])

#: What may differ between the lanes of one window signature.
lane_variants = st.fixed_dictionaries(
    {
        "threshold": st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        "analyzer": st.sampled_from(list(AnalyzerKind)),
        "anchor": st.sampled_from(list(AnchorPolicy)),
        "resize": st.sampled_from(list(ResizePolicy)),
        "delta": st.sampled_from(DELTAS),
        "enter_threshold": st.sampled_from(ENTER_THRESHOLDS),
    }
)


def phase_bits(phases):
    return [
        (p.detected_start, p.corrected_start, p.end, p.mean_similarity.hex())
        for p in phases
    ]


@settings(max_examples=60, deadline=None)
@given(
    trace=episode_traces,
    signature=configs,
    variants=st.lists(lane_variants, min_size=2, max_size=8),
)
def test_shared_signature_bank_matches_oracle(trace, signature, variants):
    """Lanes sharing one window signature (``cw``, ``tw``, skip, model,
    trailing policy) but not bar, analyzer, anchor or resize share one
    bank pass; each must equal its own reference ``step()`` run in
    states, phase float bits and checkpoint JSON."""
    bank_configs = [replace(signature, **variant) for variant in variants]
    branch_trace = BranchTrace(trace)
    bank = DetectorBank(bank_configs)
    assert all(rt.kernel_path() == "vectorized" for rt in bank.runtimes)
    for config, bank_runtime, result in zip(
        bank_configs, bank.runtimes, bank.run(branch_trace)
    ):
        oracle_rt = DetectorRuntime(config)
        oracle = oracle_rt.run(branch_trace, fused=False)
        assert np.array_equal(result.states, oracle.states)
        assert phase_bits(result.detected_phases) == phase_bits(oracle.detected_phases)
        assert json.dumps(bank_runtime.checkpoint(), sort_keys=True) == (
            json.dumps(oracle_rt.checkpoint(), sort_keys=True)
        )


def continue_both(kernel_rt, legacy_rt, extra):
    """Restore both runtimes from their checkpoints, stream ``extra``
    through each and assert the continuations are identical."""
    restored_kernel = DetectorRuntime.restore(kernel_rt.checkpoint())
    restored_legacy = DetectorRuntime.restore(legacy_rt.checkpoint())
    kernel_states = bytearray(len(extra))
    legacy_states = bytearray(len(extra))
    restored_kernel.advance(extra, kernel_states, 0)
    restored_legacy.advance(extra, legacy_states, 0)
    assert bytes(kernel_states) == bytes(legacy_states)
    assert json.dumps(restored_kernel.checkpoint(), sort_keys=True) == (
        json.dumps(restored_legacy.checkpoint(), sort_keys=True)
    )


def assert_vectorized_identical(trace, config):
    """Run ``config`` on both routes, check the default one is the
    vectorized walk, and pin it to the reference loop."""
    assert DetectorRuntime(config).kernel_path() == "vectorized"
    outcome = run_both(trace, config)
    assert_identical(*outcome)
    return outcome


@settings(max_examples=80, deadline=None)
@given(
    bursts=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),  # body size
            st.integers(min_value=1, max_value=3),  # repeats: short bursts
            st.lists(elements, min_size=0, max_size=12),  # noise after
        ),
        min_size=1,
        max_size=8,
    ),
    extra=st.lists(elements, min_size=1, max_size=60),
    config=average_configs,
)
def test_average_short_bursts_and_restore(bursts, extra, config):
    """Short repetition bursts between noise make one- and few-step
    phases; the checkpoint right after the vectorized walk restores and
    continues in lockstep with the reference loop's."""
    trace = []
    for body, repeats, noise in bursts:
        trace += [20 + i for i in range(body)] * repeats + noise
    _, kernel_rt, _, legacy_rt = assert_vectorized_identical(
        BranchTrace(trace), config
    )
    continue_both(kernel_rt, legacy_rt, extra)


@settings(max_examples=80, deadline=None)
@given(
    period=st.lists(elements, min_size=1, max_size=8),
    repeats=st.integers(min_value=4, max_value=60),
    lead=st.lists(elements, min_size=0, max_size=30),
    extra=st.lists(elements, min_size=1, max_size=60),
    config=average_configs,
)
def test_average_periodic_traces_on_the_bar(period, repeats, lead, extra, config):
    """Periodic traces repeat their similarity values, so in-phase values
    land exactly on the running bar (``>=`` keeps the phase) and phases
    stay open at the trace end; restore-then-continue from there."""
    trace = BranchTrace(lead + period * repeats)
    _, kernel_rt, _, legacy_rt = assert_vectorized_identical(trace, config)
    continue_both(kernel_rt, legacy_rt, extra)


@pytest.mark.parametrize("trailing", list(TrailingPolicy))
@pytest.mark.parametrize("model", list(ModelKind))
def test_average_one_step_phase(trailing, model):
    """A single repeat of a pattern between noise peaks the similarity
    for one step; at delta 0 the next, lower value is below the running
    mean, so the phase lasts exactly one step."""
    trace = BranchTrace(
        list(range(100, 108)) + [1, 2, 3, 4] * 2 + list(range(200, 208))
    )
    config = DetectorConfig(
        cw_size=4, tw_size=4, skip_factor=1, trailing=trailing, model=model,
        analyzer=AnalyzerKind.AVERAGE, delta=0.0, enter_threshold=0.9,
    )
    kernel, _, legacy, _ = assert_vectorized_identical(trace, config)
    assert [(p.detected_start, p.end) for p in legacy.detected_phases] == [
        (15, 16)
    ]
    assert kernel.detected_phases == legacy.detected_phases


@pytest.mark.parametrize("trailing", list(TrailingPolicy))
@pytest.mark.parametrize("model", list(ModelKind))
def test_average_phase_open_at_trace_end_on_the_bar(trailing, model):
    """A pure repetition tail keeps every in-phase similarity at 1.0,
    exactly on the delta-0 bar; the phase is still open at the end, and
    the restored runtimes continue identically through its exit."""
    trace = BranchTrace(list(range(100, 109)) + [1, 2, 3] * 40)
    config = DetectorConfig(
        cw_size=6, skip_factor=3, trailing=trailing, model=model,
        analyzer=AnalyzerKind.AVERAGE, delta=0.0, enter_threshold=1.0,
    )
    _, kernel_rt, legacy, legacy_rt = assert_vectorized_identical(trace, config)
    # ``run`` closes the open phase at the trace end ...
    (phase,) = legacy.detected_phases
    assert phase.end == len(trace) and phase.mean_similarity == 1.0
    # ... but the analyzer statistics stay live in the checkpoint.
    assert kernel_rt.analyzer.stats.count == legacy_rt.analyzer.stats.count > 1
    continue_both(kernel_rt, legacy_rt, [1, 2, 3] * 5 + list(range(300, 330)))


@settings(max_examples=60, deadline=None)
@given(
    special=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40),
    size=st.integers(min_value=0, max_value=5_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    carry=st.floats(min_value=0.0, max_value=1.0),
    block=st.integers(min_value=1, max_value=512),
    delta=st.sampled_from(DELTAS),
)
def test_blockwise_cumsum_matches_sequential_sum(
    special, size, seed, carry, block, delta
):
    """The Average exit scan's arithmetic: a carry-seeded, block-split
    ``np.cumsum`` gives the same running totals, and ``total / count -
    delta`` the same bars, as Python's sequential ``+=`` bit for bit."""
    rng = np.random.default_rng(seed)
    values = np.array(special + rng.random(size).tolist(), dtype=np.float64)
    expected_totals, expected_bars = [], []
    total, count = carry, 1
    for value in values.tolist():
        expected_bars.append(total / count - delta)
        total += value
        count += 1
        expected_totals.append(total)
    totals, bars = [], []
    total, count = carry, 1
    for start in range(0, values.size, block):
        blk = values[start : start + block]
        cum = np.cumsum(np.concatenate(([total], blk)))
        bars += (cum[:-1] / np.arange(count, count + blk.size) - delta).tolist()
        totals += cum[1:].tolist()
        total = float(cum[-1])
        count += blk.size
    assert [float.hex(x) for x in totals] == [float.hex(x) for x in expected_totals]
    assert [float.hex(x) for x in bars] == [float.hex(x) for x in expected_bars]
