"""One oracle for every detector family: its reference ``step()`` loop.

The paper's detector is an online loop (Figure 3): one ``skipFactor``
group per step.  Every faster way this codebase runs a detector must
therefore equal that loop wherever the stream is cut.  For a config
drawn from every registered family (:func:`repro.comparators.family_names`)
and a generated trace, four runs must agree with the oracle:

1. the routed whole-trace ``run()``: the default route, ``kernels=False``,
   and as a member of a mixed :class:`~repro.core.bank.DetectorBank`
   (companions from any family or sharing the member's series, the
   member sometimes observed);
2. a :class:`~repro.core.stream.StreamingDetector` fed at random cut
   points and parked at some of them (``checkpoint()`` → JSON →
   ``StreamingDetector.restore``);
3. park/rehydrate at random group boundaries: the vectorized route up to
   the first park point, then ``advance`` between the others, each park
   a ``checkpoint()`` → ``json.dumps`` / ``loads`` → ``restore_engine``;
   each checkpoint parked in runs 2 and 3 must also come back unchanged
   from the serve spool record (:mod:`repro.serve.spool`);
4. the oracle itself, one ``step()`` per group, checkpointed at every
   position the other runs park at.

"Agree" means identical state bytes, identical phases down to the float
bits (``float.hex``), the engine's config in every result (a family
builder may normalize the caller's), and identical ``sort_keys``
checkpoint JSON at every park point and at the end; a parked engine's
checkpoint is also a fixed point of restore.  The oracle records its
state bytes from its own ``step()`` decisions and asserts they are the
union of its phases' intervals, so every other run's ``states`` view is
checked against a series recorded apart from the phase list.

The traces come from :func:`build_trace`: seeded segments that vary
phase length, loop nesting and recursion depth, drift and noise, plus
adversarial streams in the sense of Bender et al.'s online
event-detection problem: periodic and hovering similarities that sit on
the bar, single-element phases, and alphabet blow-up.  ``EDGE_CASES``
holds the hand-picked inputs of the suites this harness replaced.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from typing import Dict, Iterable, List, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comparators import family_names
from repro.core import (
    AnalyzerKind,
    AnchorPolicy,
    DetectorConfig,
    ModelKind,
    ResizePolicy,
    TrailingPolicy,
)
from repro.core.bank import DetectorBank
from repro.core.decision import build_engine, restore_engine
from repro.core.kernels import _BLOCK_STEPS, _HEAD_STEPS, run_bank_batched
from repro.core.stream import StreamingDetector
from repro.obs.bus import MemorySink
from repro.profiles.trace import BranchTrace
from repro.scoring.states import states_from_phases
from repro.serve.spool import decode_record, encode_record

# -- the trace generator --------------------------------------------------------

#: Small alphabet: repetition and collisions are likely.
ALPHABET = 13
#: Elements above the alphabet mark loop heads, tails and recursion
#: levels; alphabet blow-up draws fresh ones from ``FRESH`` up.
MARKERS = 100
FRESH = 1_000
MAX_TRACE = 900


def _loop_body(rng, size: int, depth: int, recursion: int) -> List[int]:
    """A loop body nested ``depth`` deep (each level runs the inner body
    2–3 times between its own head and tail), entered through
    ``recursion`` recursive calls that unwind after it."""
    body = rng.integers(0, ALPHABET, size).tolist()
    for level in range(depth):
        inner = int(rng.integers(2, 4))
        body = [MARKERS + level] + body * inner + [MARKERS + 10 + level]
    calls = [MARKERS + 20 + level for level in range(recursion)]
    returns = [MARKERS + 30 + level for level in reversed(range(recursion))]
    return calls + body + returns


def build_trace(segments: Sequence[tuple], seed: int) -> List[int]:
    """Expand segment recipes into a trace (at most ``MAX_TRACE`` long).

    - ``("loop", size, repeats, depth, recursion, noise, drift)`` — a
      phase: the body repeated, each element replaced by noise with
      probability ``noise``, one body element redrawn every ``drift``
      repetitions (0: never);
    - ``("noise", length)`` — a transition of random elements;
    - ``("hover", size, run, periods)`` — ``run`` repetitions of a body
      then one noise element, ``periods`` times: the similarity dips
      once a period and hovers around the bar;
    - ``("blips", count)`` — 1–2 element bodies repeated 1–3 times
      between short noise: phases of one or a few steps;
    - ``("blowup", length)`` — elements never seen before.
    """
    rng = np.random.default_rng(seed)
    trace: List[int] = []
    fresh = FRESH
    for kind, *args in segments:
        if kind == "loop":
            size, repeats, depth, recursion, noise, drift = args
            body = _loop_body(rng, size, depth, recursion)
            for repeat in range(repeats):
                if drift and repeat and repeat % drift == 0:
                    body[int(rng.integers(len(body)))] = int(rng.integers(ALPHABET))
                for element in body:
                    if noise and rng.random() < noise:
                        element = int(rng.integers(ALPHABET))
                    trace.append(element)
        elif kind == "noise":
            trace += rng.integers(0, ALPHABET, args[0]).tolist()
        elif kind == "hover":
            size, run, periods = args
            body = rng.integers(0, ALPHABET, size).tolist()
            for _ in range(periods):
                trace += body * run + [int(rng.integers(ALPHABET))]
        elif kind == "blips":
            for _ in range(args[0]):
                body = rng.integers(0, ALPHABET, int(rng.integers(1, 3))).tolist()
                trace += body * int(rng.integers(1, 4))
                trace += rng.integers(0, ALPHABET, int(rng.integers(1, 5))).tolist()
        else:  # blowup
            trace += range(fresh, fresh + args[0])
            fresh += args[0]
        if len(trace) >= MAX_TRACE:
            break
    return trace[:MAX_TRACE]


segments = st.one_of(
    st.tuples(
        st.just("loop"),
        st.integers(1, 8),
        st.integers(1, 150),
        st.integers(0, 2),
        st.integers(0, 3),
        st.sampled_from([0.0, 0.0, 0.02, 0.1, 0.3]),
        st.sampled_from([0, 0, 3, 10]),
    ),
    st.tuples(st.just("noise"), st.integers(1, 60)),
    st.tuples(
        st.just("hover"), st.integers(1, 6), st.integers(1, 12), st.integers(1, 20)
    ),
    st.tuples(st.just("blips"), st.integers(1, 8)),
    st.tuples(st.just("blowup"), st.integers(1, 300)),
)
traces = st.builds(
    build_trace, st.lists(segments, max_size=6), st.integers(0, 2**32 - 1)
)

# -- the configs: every registered family ----------------------------------------


def windowed(model: ModelKind, trailing: TrailingPolicy):
    """Every anchor x resize, both analyzers (Average deltas 0 to 1,
    entry bars 0 to 1), skip 1 (the fused loop) and skip > 1 (also
    past ``cw``), ``cw == tw`` (``tw_size=None``) and ``cw != tw``."""
    return st.builds(
        DetectorConfig,
        cw_size=st.integers(1, 12),
        tw_size=st.one_of(st.none(), st.integers(1, 16)),
        skip_factor=st.one_of(st.just(1), st.integers(2, 9)),
        trailing=st.just(trailing),
        anchor=st.sampled_from(AnchorPolicy),
        resize=st.sampled_from(ResizePolicy),
        model=st.just(model),
        analyzer=st.sampled_from(AnalyzerKind),
        threshold=st.sampled_from([0.3, 0.5, 0.6, 0.7, 0.75, 0.9]),
        delta=st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25, 1.0]),
        enter_threshold=st.sampled_from([0.0, 0.25, 0.4, 0.6, 0.75, 1.0]),
    )


#: Warm-ups from 1 step to longer than any generated trace.
warmups = st.one_of(st.integers(1, 60), st.integers(61, MAX_TRACE + 100))


def per_window(family: str):
    """Skip factors up to ``3 * cw + 1``: one step may complete several
    windows, or none."""
    return st.integers(1, 24).flatmap(
        lambda cw: st.builds(
            DetectorConfig,
            family=st.just(family),
            cw_size=st.just(cw),
            skip_factor=st.integers(1, 3 * cw + 1),
            stat_threshold=st.one_of(
                st.none(), st.sampled_from([0.3, 0.8, 0.99, 1.0, 1.5, 3.0])
            ),
        )
    )


FAMILY_CONFIGS = {
    "windowed": st.one_of(
        *(
            windowed(model, trailing)
            for model in ModelKind
            for trailing in TrailingPolicy
        )
    ),
    # Normalized to Fixed Interval (skip = TW = CW) by its builder.
    "dhodapkar_smith": st.builds(
        DetectorConfig, family=st.just("dhodapkar_smith"), cw_size=st.integers(1, 40)
    ),
    "newma": st.builds(
        DetectorConfig,
        family=st.just("newma"),
        cw_size=warmups,
        skip_factor=st.integers(1, 4),
        stat_threshold=st.one_of(
            st.none(), st.sampled_from([0.1, 0.5, 1.0, 3.0, 4.0, 5.0])
        ),
        newma_fast=st.sampled_from([0.2, 0.3, 0.5]),
        newma_slow=st.sampled_from([0.01, 0.05, 0.1]),
        sketch_dim=st.sampled_from([1, 8, 64]),
    ),
    "focus": st.builds(
        DetectorConfig,
        family=st.just("focus"),
        cw_size=warmups,
        skip_factor=st.integers(1, 4),
        # 1e-9 resets on any nonzero statistic: right after each warm-up.
        stat_threshold=st.one_of(
            st.none(), st.sampled_from([1e-9, 0.5, 2.0, 8.0, 16.0, 32.0])
        ),
    ),
    "das_pearson": per_window("das_pearson"),
    "lu_dynamo": per_window("lu_dynamo"),
}

#: What may differ between bank lanes that share one series: the bar,
#: the warm-up, the analyzer, anchor and resize (not the window
#: signature, sketch or skip).
SIBLING_FIELDS = {
    "windowed": dict(
        threshold=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        analyzer=st.sampled_from(AnalyzerKind),
        anchor=st.sampled_from(AnchorPolicy),
        resize=st.sampled_from(ResizePolicy),
        delta=st.sampled_from([0.0, 0.1, 1.0]),
        enter_threshold=st.sampled_from([0.0, 0.5, 1.0]),
    ),
    # Its builder fixes every field but cw: siblings are twins.
    "dhodapkar_smith": dict(),
    "newma": dict(cw_size=warmups, stat_threshold=st.sampled_from([0.5, 3.0])),
    "focus": dict(cw_size=warmups, stat_threshold=st.sampled_from([2.0, 16.0])),
    "das_pearson": dict(stat_threshold=st.sampled_from([0.3, 0.99])),
    "lu_dynamo": dict(stat_threshold=st.sampled_from([0.8, 3.0])),
}


def siblings(config: DetectorConfig):
    return st.fixed_dictionaries(SIBLING_FIELDS[config.family]).map(
        lambda fields: replace(config, **fields)
    )


any_config = st.one_of(*FAMILY_CONFIGS.values())

#: Windowed strata are drawn separately, so each model x TW policy gets
#: its own example budget.
STRATA = {
    **{
        f"windowed-{model.value}-{trailing.value}": windowed(model, trailing)
        for model in ModelKind
        for trailing in TrailingPolicy
    },
    **{name: FAMILY_CONFIGS[name] for name in FAMILY_CONFIGS if name != "windowed"},
}


def test_every_registered_family_is_drawn():
    """A family registered without a strategy here fails tier-1."""
    assert sorted(FAMILY_CONFIGS) == sorted(family_names())
    assert sorted(SIBLING_FIELDS) == sorted(family_names())
    drawn = {name.split("-")[0] for name in STRATA}
    assert drawn == set(family_names())


# -- the oracle and the runs it judges ----------------------------------------------


def dumps(engine) -> str:
    return json.dumps(engine.checkpoint(), sort_keys=True)


def phase_bits(phases) -> List[tuple]:
    return [
        (p.detected_start, p.corrected_start, p.end, float.hex(p.mean_similarity))
        for p in phases
    ]


def state_bytes(states) -> bytes:
    return np.asarray(states, dtype=bool).astype(np.uint8).tobytes()


class Outcome(NamedTuple):
    states: bytes
    phases: List[tuple]
    checkpoints: Dict[int, str]  # at the requested group boundaries
    final: str  # at the end of the stream (finish() changes nothing)
    config: DetectorConfig  # the engine's, as built from the caller's


def oracle(
    config: DetectorConfig, trace: List[int], marks: Iterable[int] = ()
) -> Outcome:
    """The reference: one ``step()`` per ``skipFactor`` group, a
    checkpoint at each position in ``marks``, ``finish()`` at the end."""
    engine = build_engine(config)
    skip = engine.config.skip_factor
    marks = set(marks)
    states = bytearray(len(trace))
    checkpoints = {0: dumps(engine)} if 0 in marks else {}
    for start in range(0, len(trace), skip):
        group = trace[start : start + skip]
        if engine.step(group).state.is_phase():
            states[start : start + len(group)] = b"\x01" * len(group)
        if start + len(group) in marks:
            checkpoints[start + len(group)] = dumps(engine)
    phases = engine.finish(len(trace))
    # The per-element states are a rendering of the phase list: the
    # union of the ``[detected_start, end)`` intervals.
    intervals = [(phase.detected_start, phase.end) for phase in phases]
    assert bytes(states) == state_bytes(states_from_phases(intervals, len(trace)))
    return Outcome(
        bytes(states), phase_bits(phases), checkpoints, dumps(engine), engine.config
    )


def assert_agrees(label, states, phases, final, config, expected: Outcome) -> None:
    assert states == expected.states, label
    assert phase_bits(phases) == expected.phases, label
    assert final == expected.final, label
    assert config == expected.config, label


def check_routed(config, trace, expected: Outcome) -> None:
    branch_trace = BranchTrace(trace)
    for kernels in (True, False):
        engine = build_engine(config)
        result = engine.run(branch_trace, kernels=kernels)
        blob = dumps(engine)
        assert_agrees(
            f"run(kernels={kernels})", state_bytes(result.states),
            result.detected_phases, blob, result.config, expected,
        )
        # What a run leaves behind restores as a fixed point.
        assert dumps(restore_engine(json.loads(blob))) == blob


def check_bank(configs, observed: bool, trace, expected: List[Outcome]) -> None:
    """Every member of a mixed bank equals its own oracle; an observed
    member (legacy route) also emits the reference run's events."""
    sink = MemorySink() if observed else None
    bank = DetectorBank(configs, observers=[sink] + [None] * (len(configs) - 1))
    branch_trace = BranchTrace(trace)
    results = bank.run(branch_trace)
    for index, (engine, result, outcome) in enumerate(
        zip(bank.runtimes, results, expected)
    ):
        assert_agrees(
            f"bank member {index}", state_bytes(result.states),
            result.detected_phases, dumps(engine), result.config, outcome,
        )
    if observed:
        reference = MemorySink()
        build_engine(configs[0], observer=reference).run(branch_trace, fused=False)
        assert sink.events == reference.events


def check_streaming(config, trace, cuts, stream_parks, expected: Outcome) -> None:
    """Feed at ``cuts`` (any element, not only group boundaries); park
    the stream after the cuts indexed by ``stream_parks``.  The
    ``on_boundary`` calls, across every park, are one "start" at each
    oracle phase's detected start and one "end" at its end: a stream
    parked inside an open phase does not announce it again."""
    calls: List[tuple] = []

    def record(kind: str, position: int) -> None:
        calls.append((kind, position))

    streaming = StreamingDetector(config, on_boundary=record)
    skip = streaming.runtime.config.skip_factor
    start = 0
    for index, cut in enumerate(cuts):
        streaming.feed(trace[start:cut])
        start = cut
        if index in stream_parks:
            blob = json.dumps(streaming.checkpoint())
            assert_record_round_trip(streaming.checkpoint(), cut)
            streaming = StreamingDetector.restore(json.loads(blob), on_boundary=record)
            data = json.loads(blob)
            del data["stream"]
            # The engine stops at the cut's group boundary; the rest of
            # the group waits in the stream's buffer.
            assert json.dumps(data, sort_keys=True) == (
                expected.checkpoints[cut // skip * skip]
            ), f"stream parked at {cut}"
    streaming.feed(trace[start:])
    result = streaming.finish()
    assert_agrees(
        "stream", state_bytes(result.states), result.detected_phases,
        dumps(streaming.runtime), result.config, expected,
    )
    assert calls == [
        call
        for start, _, end, _ in expected.phases
        for call in (("start", start), ("end", end))
    ], "stream boundaries"


def assert_record_round_trip(checkpoint, position) -> None:
    """The serve spool record carries ``checkpoint`` exactly: decoded,
    it equals the checkpoint's JSON round trip."""
    decoded = decode_record(encode_record(checkpoint))
    assert decoded == json.loads(json.dumps(checkpoint)), f"record at {position}"


def check_parked(config, trace, parks, expected: Outcome) -> None:
    """Run to the first park point on the routed path (the vectorized
    walk when the engine is eligible), then ``advance`` from park to
    park, rehydrating the engine from its JSON at each one; each parked
    checkpoint also crosses the serve spool record."""
    engine = build_engine(config)
    base = 0
    for park in parks:
        if base == 0 and park and engine.kernel_path() == "vectorized":
            run_bank_batched([engine], BranchTrace(trace[:park]))
        else:
            engine.advance(trace[base:park])
        base = park
        blob = dumps(engine)
        assert blob == expected.checkpoints[park], f"parked at {park}"
        assert_record_round_trip(engine.checkpoint(), park)
        engine = restore_engine(json.loads(blob))
        assert dumps(engine) == blob, f"restore at {park} is not a fixed point"
    engine.advance(trace[base:])
    phases = engine.finish(len(trace))
    intervals = [(phase.detected_start, phase.end) for phase in phases]
    assert_agrees(
        "parked", state_bytes(states_from_phases(intervals, len(trace))), phases,
        dumps(engine), engine.config, expected,
    )


def check_agreement(
    config: DetectorConfig,
    trace: List[int],
    cuts: Sequence[int] = (),
    stream_parks: Sequence[int] = (),
    parks: Sequence[int] = (),
    companions: Sequence[DetectorConfig] = (),
    observed: bool = False,
) -> Outcome:
    """All four runs of ``config`` over ``trace`` agree with the oracle.

    ``cuts`` are stream feed points (any element), ``stream_parks``
    indexes the cuts the stream parks after, ``parks`` are element
    positions rounded down to group boundaries; positions past the
    trace wrap around.  Returns the oracle's outcome.
    """
    skip = build_engine(config).config.skip_factor
    total = len(trace)
    cuts = sorted(cut % (total + 1) for cut in cuts)
    parks = sorted({park % (total + 1) // skip * skip for park in parks})
    stream_parks = set(stream_parks)
    marks = set(parks) | {
        cut // skip * skip for index, cut in enumerate(cuts) if index in stream_parks
    }
    expected = oracle(config, trace, marks)
    check_routed(config, trace, expected)
    companions = list(companions)
    check_bank(
        [config, *companions], observed, trace,
        [expected, *(oracle(companion, trace) for companion in companions)],
    )
    check_streaming(config, trace, cuts, stream_parks, expected)
    check_parked(config, trace, parks, expected)
    return expected


# -- the harness -------------------------------------------------------------------

positions = st.lists(st.integers(0, MAX_TRACE), max_size=5)


@pytest.mark.parametrize("stratum", sorted(STRATA))
@settings(max_examples=40, deadline=None)
@given(trace=traces, cuts=positions, parks=positions, data=st.data())
def test_every_run_agrees_with_the_step_loop(stratum, trace, cuts, parks, data):
    config = data.draw(STRATA[stratum], label="config")
    assert config.family == stratum.split("-")[0]
    companions = data.draw(
        st.lists(st.one_of(any_config, siblings(config)), max_size=2),
        label="companions",
    )
    check_agreement(
        config,
        trace,
        cuts=cuts,
        stream_parks=data.draw(st.sets(st.integers(0, 4)), label="stream_parks"),
        parks=parks,
        companions=companions,
        observed=data.draw(st.booleans(), label="observed"),
    )


# -- hand-picked inputs ----------------------------------------------------------------


def _average(trailing, model, **fields):
    return DetectorConfig(
        trailing=trailing, model=model, analyzer=AnalyzerKind.AVERAGE, **fields
    )


MODELS_X_TW = [(trailing, model) for trailing in TrailingPolicy for model in ModelKind]


def _tag(trailing, model):
    return f"{model.value}-{trailing.value}"


#: One repeat of a pattern between noise peaks the similarity for one
#: step; at delta 0 the next, lower value is below the running mean.
ONE_STEP = list(range(100, 108)) + [1, 2, 3, 4] * 2 + list(range(200, 208))
#: A pure repetition tail: every in-phase similarity is 1.0, exactly on
#: the delta-0 bar, and the phase is open at the end of ``OPEN_HEAD``.
OPEN_HEAD = list(range(100, 109)) + [1, 2, 3] * 40
OPEN_TAIL = [1, 2, 3] * 5 + list(range(300, 330))
#: A repetition tail parked mid-episode (an Adaptive TW still growing),
#: then left through noise.
GROWING = [9, 8, 7, 6, 5] + [1, 2, 3] * 30 + list(range(20, 40))
#: A noisy loop whose Average phases last past one 256-step exit-scan
#: block: the running bar is carried from block to block.
LONG_NOISY = build_trace([("noise", 10), ("loop", 3, 200, 0, 0, 0.05, 0)], seed=6)
#: A lead, then a period repeated: in-phase values repeat exactly, so
#: they land on the running bar.
PERIODIC = [11, 12, 0, 5, 9] + [1, 2, 3, 4, 5] * 40
#: Two phases between noise: with skip > cw an exit step is longer than
#: the CW, and the refill starts ``cw`` (not the whole step) before it.
TWO_PHASES = (
    list(range(100, 110)) + [1, 2] * 20 + list(range(200, 215)) + [1, 2] * 20
    + list(range(300, 307))
)
#: Streams ending in a partial window, which the engine keeps pending.
PARTIAL_TAILS = [
    ("das_pearson", 8, [0, 0, 0, 0, 1, 1, 2, 3] * 4 + [7, 8, 9]),
    ("lu_dynamo", 4, [2, 2, 2, 2] * 7 + [2, 2, 2]),
]

# The scalar head of the windowed exit scan, which every model with
# either trailing policy walks before the exit blocks: its edges sit at
# offsets from ``_HEAD_STEPS``, so each trace below is the first
# candidate whose oracle run has the wanted shape, not a hand-counted
# one.


def _fresh(start: int, length: int) -> List[int]:
    return list(range(start, start + length))


def _steps(phase) -> int:
    """Steps from a phase's entry step to its exit step, at skip 1."""
    return phase[2] - phase[0]


def _shaped(config, candidates, accept) -> List[int]:
    """The first candidate trace whose oracle phases ``accept`` takes."""
    for trace in candidates:
        if accept(oracle(config, trace).phases, trace):
            return trace
    raise AssertionError(f"no candidate trace has the wanted shape for {config}")


def _exit_after(config, steps: int) -> List[int]:
    """A phase that exits ``steps`` steps after its entry step: on a
    constant body, each repeat delays only the exit."""
    return _shaped(
        config,
        (
            _fresh(100, 12) + [1] * run + _fresh(200, 12)
            for run in range(1, 4 * _HEAD_STEPS)
        ),
        lambda phases, _: bool(phases) and _steps(phases[0]) == steps,
    )


def _carried_into_blocks(config) -> List[int]:
    """A noisy loop whose Average phase outlasts the head, so the
    ``(total, count)`` carry enters the first block, on in-phase values
    that are not all equal."""
    return _shaped(
        config,
        (
            build_trace(
                [("noise", 10), ("loop", 3, repeats, 0, 0, 0.05, 0), ("noise", 30)],
                seed,
            )
            for seed in range(20)
            for repeats in (_HEAD_STEPS, 2 * _HEAD_STEPS, 4 * _HEAD_STEPS)
        ),
        lambda phases, _: any(
            _HEAD_STEPS < _steps(phase) < _HEAD_STEPS + 256
            and float.fromhex(phase[3]) != 1.0
            for phase in phases
        ),
    )


def _window_after(config, trace, position: int, window: str) -> int:
    """The oracle's ``"cw"`` or ``"tw"`` length after ``position`` elements."""
    blob = oracle(config, trace, {position}).checkpoints[position]
    return len(json.loads(blob)["engine"][window])


def _refill_then_slide(config) -> List[int]:
    """An Adaptive SLIDE phase whose entry resize shortens the CW, which
    refills and then slides, all before the phase exits inside the
    head."""
    cwc = config.cw_size

    def accept(phases, trace):
        if not phases or _steps(phases[0]) > _HEAD_STEPS:
            return False
        refill = cwc - _window_after(config, trace, phases[0][0] + 1, "cw")
        return 0 < refill < _steps(phases[0]) - 1

    return _shaped(
        config,
        (
            _fresh(100, lead) + [1, 2, 3] * run + _fresh(200, 12)
            for lead in (12, 13, 14)
            for run in range(2, _HEAD_STEPS)
        ),
        accept,
    )


def _emptied_tw(config) -> List[int]:
    """An Adaptive phase whose entry resize empties the TW (the RN anchor
    lands at its right end: the TW's last element is not in the CW), so
    its first in-phase step compares the CW with a one-element TW."""
    rng = random.Random(0)

    def accept(phases, trace):
        return (
            bool(phases)
            and _steps(phases[0]) > 2
            and _window_after(config, trace, phases[0][0] + 1, "tw") == 0
        )

    return _shaped(
        config,
        (_fresh(100, 12) + rng.choices(range(3), k=20) for _ in range(100)),
        accept,
    )


def _ragged_after_exit(config) -> List[int]:
    """A Fixed lane (skip = CW = TW) whose last exit leaves one full step
    and then a ragged one: the refill point lies past the trace end,
    although rounding it up to a step names the ragged last step, whose
    windows are similar enough to enter on."""
    cwc = config.cw_size

    def accept(phases, trace):
        if not phases or not 2 * cwc > len(trace) - phases[-1][2] > cwc:
            return False
        cw, tw = set(trace[-cwc:]), set(trace[-2 * cwc : -cwc])
        return len(cw & tw) / len(cw) >= config.threshold

    return _shaped(
        config,
        (
            [1, 2] * body + _fresh(100, noise) + [1, 2] * tail
            for body in range(2 * cwc, 6 * cwc)
            for noise in (1, 2, 3)
            for tail in range(1, 2 * cwc)
        ),
        accept,
    )


def _open_in_head(config) -> List[int]:
    """A phase still open at the trace end a few steps into its head."""
    return _shaped(
        config,
        (_fresh(100, 9) + [1, 2, 3] * run for run in range(2, _HEAD_STEPS)),
        lambda phases, trace: bool(phases)
        and phases[-1][2] == len(trace)
        and 1 < _steps(phases[-1]) < _HEAD_STEPS,
    )


#: Fresh elements dotted through a long phase; above every other
#: element the hand-picked traces use.
DOTS = 2_000


def _dotted_loop(length: int, start: int, gap: int, offset: int) -> List[int]:
    """``[1, 2, 3]`` repeated, with a fresh element at every body index
    ``i >= start`` where ``i % gap == offset``: a fresh element in the
    CW is distinct and not in the TW, so the in-phase similarities vary
    while the phase lasts."""
    return [
        DOTS + i if i >= start and i % gap == offset else (1, 2, 3)[i % 3]
        for i in range(length)
    ]


def _refill_into_blocks(config) -> List[int]:
    """An Adaptive SLIDE phase that outlasts the head by at least three
    exit-scan blocks, whose entry resize shortens the CW so much that it
    refills past the head and starts to slide inside the first block.

    The dots start after the entry's windows, so they do not move the
    anchor; ``cw_size - 1`` is a multiple of the gap, so when the first
    element of the window the CW slides from, ``[L, L + cw)``, is a dot,
    so is its last: shifting or shortening that window by one element
    changes how many of its elements the TW has not seen."""
    cwc, skip, gap = config.cw_size, config.skip_factor, 40
    assert (cwc - 1) % gap == 0
    length = (_HEAD_STEPS + 3 * _BLOCK_STEPS + 8) * skip + 2 * cwc

    def accept(phases, trace):
        if not phases or _steps(phases[0]) // skip < _HEAD_STEPS + 3 * _BLOCK_STEPS:
            return False
        c_entry = phases[0][0] + skip
        refill = cwc - _window_after(config, trace, c_entry, "cw")
        left = c_entry - cwc + refill
        return (
            _HEAD_STEPS + 1 < refill // skip + 1 <= _HEAD_STEPS + _BLOCK_STEPS
            and trace[left] >= DOTS
            and trace[left + cwc - 1] >= DOTS
        )

    return _shaped(
        config,
        (
            _fresh(100, 2 * cwc) + _dotted_loop(length, cwc, gap, offset)
            + _fresh(300, 2 * cwc)
            for offset in range(gap)
        ),
        accept,
    )


def _lane(trailing, model, analyzer, **fields):
    return DetectorConfig(
        trailing=trailing, model=model, analyzer=analyzer, threshold=0.6,
        delta=0.1, enter_threshold=0.6, **fields,
    )


HEAD_CASES = [
    *(
        pytest.param(
            config, _exit_after(config, _HEAD_STEPS + offset), {}, None,
            id=f"exit-at-head-end-plus-{offset}-{_tag(t, m)}-{a.value}",
        )
        for t, m in MODELS_X_TW
        for a in AnalyzerKind
        for offset in (0, 1)
        for config in [_lane(t, m, a, cw_size=4)]
    ),
    *(
        pytest.param(
            config, _carried_into_blocks(config), {}, None,
            id=f"average-carry-head-into-block-{_tag(t, m)}",
        )
        for t, m in MODELS_X_TW
        for config in [_average(t, m, cw_size=8, delta=0.2, enter_threshold=0.5)]
    ),
    *(
        pytest.param(
            config, _refill_then_slide(config), {}, None,
            id="adaptive-refill-to-slide-in-head-"
            + ("weighted-" if m is ModelKind.WEIGHTED else "")
            + anchor.value,
        )
        for m in ModelKind
        for anchor in AnchorPolicy
        for config in [
            DetectorConfig(
                cw_size=6, trailing=TrailingPolicy.ADAPTIVE, anchor=anchor,
                resize=ResizePolicy.SLIDE, model=m, threshold=0.5,
            )
        ]
    ),
    *(
        pytest.param(
            config, _refill_into_blocks(config), {}, None,
            id=f"adaptive-refill-to-slide-in-first-block-{m.value}-skip-{skip}",
        )
        for m, threshold in [(ModelKind.UNWEIGHTED, 0.5), (ModelKind.WEIGHTED, 0.3)]
        for skip in (1, 3)
        for config in [
            DetectorConfig(
                cw_size=81, skip_factor=skip, trailing=TrailingPolicy.ADAPTIVE,
                resize=ResizePolicy.SLIDE, model=m, threshold=threshold,
            )
        ]
    ),
    *(
        pytest.param(
            config, _emptied_tw(config), {}, None,
            id=f"adaptive-entry-empties-tw-{m.value}-{resize.value}",
        )
        for m in ModelKind
        for resize, cwc, twc in [(ResizePolicy.MOVE, 4, 8), (ResizePolicy.SLIDE, 1, 4)]
        for config in [
            DetectorConfig(
                cw_size=cwc, tw_size=twc, trailing=TrailingPolicy.ADAPTIVE,
                model=m, resize=resize, threshold=0.5,
            )
        ]
    ),
    *(
        pytest.param(
            config, _ragged_after_exit(config), {}, None,
            id=f"fixed-ragged-last-step-unfilled-{m.value}",
        )
        for m in ModelKind
        for config in [
            DetectorConfig(cw_size=5, tw_size=5, skip_factor=5, model=m, threshold=0.5)
        ]
    ),
    *(
        pytest.param(
            config, prefix + [1, 2, 3] * 5 + _fresh(300, 30),
            dict(parks=[len(prefix)], cuts=[len(prefix)], stream_parks=[0]), None,
            id=f"open-in-head-then-parked-{_tag(t, m)}-{a.value}",
        )
        for t, m in MODELS_X_TW
        for a in AnalyzerKind
        for config in [_lane(t, m, a, cw_size=4)]
        for prefix in [_open_in_head(config)]
    ),
]

EDGE_CASES = [
    *HEAD_CASES,
    *(
        pytest.param(
            _average(t, m, cw_size=4, tw_size=4, delta=0.0, enter_threshold=0.9),
            ONE_STEP, {}, [(15, 16)], id=f"average-one-step-phase-{_tag(t, m)}",
        )
        for t, m in MODELS_X_TW
    ),
    *(
        pytest.param(
            _average(t, m, cw_size=6, skip_factor=3, delta=0.0, enter_threshold=1.0),
            OPEN_HEAD, {}, [(15 if m is ModelKind.UNWEIGHTED else 18, len(OPEN_HEAD))],
            id=f"average-open-at-end-on-the-bar-{_tag(t, m)}",
        )
        for t, m in MODELS_X_TW
    ),
    *(
        pytest.param(
            _average(t, m, cw_size=6, skip_factor=3, delta=0.0, enter_threshold=1.0),
            OPEN_HEAD + OPEN_TAIL, dict(parks=[len(OPEN_HEAD)]), None,
            id=f"average-restore-open-on-the-bar-{_tag(t, m)}",
        )
        for t, m in MODELS_X_TW
    ),
    *(
        pytest.param(
            _average(t, m, cw_size=5, delta=delta, enter_threshold=0.6),
            PERIODIC, dict(parks=[60, 150]), None,
            id=f"average-periodic-delta-{delta}-{_tag(t, m)}",
        )
        for t, m in MODELS_X_TW
        for delta in (0.0, 1.0)
    ),
    *(
        pytest.param(
            _average(t, m, cw_size=8, delta=0.2, enter_threshold=0.5),
            LONG_NOISY, {}, None, id=f"average-carry-across-exit-blocks-{_tag(t, m)}",
        )
        for t, m in MODELS_X_TW
    ),
    *(
        pytest.param(
            DetectorConfig(
                cw_size=4, trailing=TrailingPolicy.ADAPTIVE, model=m, analyzer=a,
                threshold=0.6, delta=0.1, enter_threshold=0.6,
            ),
            GROWING, dict(parks=[50, 95], cuts=[47, 95], stream_parks=[0, 1]), None,
            id=f"adaptive-growing-mid-episode-{m.value}-{a.value}",
        )
        for m in ModelKind
        for a in AnalyzerKind
    ),
    *(
        pytest.param(
            DetectorConfig(cw_size=3, skip_factor=skip, trailing=t, threshold=0.5),
            TWO_PHASES, dict(parks=[70]), None,
            id=f"refill-after-exit-skip-{skip}-{t.value}",
        )
        for t in TrailingPolicy
        for skip in (5, 7)
    ),
    *(
        pytest.param(
            DetectorConfig(family=family, cw_size=window, skip_factor=skip),
            trace, dict(parks=[window]), None,
            id=f"{family}-partial-tail-skip-{skip}",
        )
        for family, window, trace in PARTIAL_TAILS
        for skip in (1, window - 1, 3 * window + 1)
    ),
    pytest.param(
        DetectorConfig(
            family="newma", cw_size=600, newma_fast=0.5, newma_slow=0.1, sketch_dim=8
        ),
        [3] * 800 + list(range(40)) + [5] * 800, dict(parks=[700]), None,
        id="newma-distances-on-the-bar",
    ),
    *(
        pytest.param(
            DetectorConfig(family="focus", cw_size=60, skip_factor=skip),
            [3] * 200 + list(range(40)) * 5 + [3] * 200, dict(parks=[120]), None,
            id=f"focus-constant-warmup-skip-{skip}",
        )
        for skip in (1, 3)
    ),
    *(
        pytest.param(
            DetectorConfig(family=family, cw_size=1, skip_factor=skip),
            trace, dict(parks=[0, 1], cuts=[0]), None,
            id=f"{family}-skip-{skip}-{len(trace)}-elements",
        )
        for family in sorted(family_names())
        # dhodapkar_smith normalizes skip to cw.
        for skip in ((1,) if family == "dhodapkar_smith" else (1, 2, 3, 4))
        for trace in ([], [7])
    ),
]


@pytest.mark.parametrize("config, trace, runs, expected", EDGE_CASES)
def test_edge_case(config, trace, runs, expected):
    """Each input agrees in all four runs; ``expected``, when given, is
    the ``(detected_start, end)`` of every phase the oracle finds."""
    outcome = check_agreement(config, trace, **runs)
    if expected is not None:
        assert [(start, end) for start, _, end, _ in outcome.phases] == expected
