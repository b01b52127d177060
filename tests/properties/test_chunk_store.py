"""Compaction round-trip fuzz: any schedule folds to serial bytes.

For an arbitrary spec subset, its one-bank chunk plan and an arbitrary
completion interleaving (which order workers finish and write chunk
files in), the compacted JSONL cache must be byte-identical to the
plan's rows appended in plan order — including when a prefix of the
plan was already cached before the run (a resume).
Records are synthetic: serialization, planning and compaction never look
inside the scores, so no detector needs to run.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import AnalyzerKind, AnchorPolicy, ModelKind, ResizePolicy
from repro.experiments.config_space import ConfigSpec
from repro.experiments.runner import SweepRecord
from repro.experiments.store import (
    ChunkStore,
    cache_line,
    compact_chunks,
    plan_chunks,
)

MPLS = (1_000, 10_000)
FINGERPRINTS = {"db": "fp-db", "jess": "fp-jess"}

# A diverse pool of grid points (distinct identities on several axes),
# larger than one bank so a subset can plan several chunks.
SPEC_POOL = [
    ConfigSpec(family, cw, model, analyzer, value, anchor, resize)
    for family, cw in (
        ("constant", 500), ("adaptive", 5_000), ("fixed", 1_000),
        ("constant", 2_000), ("adaptive", 800), ("fixed", 300),
    )
    for model in (ModelKind.UNWEIGHTED, ModelKind.WEIGHTED)
    for analyzer, value in ((AnalyzerKind.THRESHOLD, 0.6), (AnalyzerKind.AVERAGE, 0.05))
    for anchor in (AnchorPolicy.RN,)
    for resize in (ResizePolicy.SLIDE,)
]


def _synthetic_record(benchmark, spec, mpl, salt):
    return SweepRecord(
        benchmark=benchmark,
        family=spec.family,
        cw_nominal=spec.cw_nominal,
        model=spec.model.value,
        analyzer=spec.analyzer_label(),
        anchor=spec.anchor.value,
        resize=spec.resize.value,
        mpl_nominal=mpl,
        score=round(salt / 97.0, 6),
        correlation=round(salt / 194.0, 6),
        sensitivity=round(salt / 97.0, 6),
        false_positives=float(salt % 7),
        corrected_score=round(salt / 130.0, 6),
        num_detected_phases=salt % 11,
        num_baseline_phases=7,
    )


def _chunk_lines(chunk):
    fingerprint = FINGERPRINTS[chunk.benchmark]
    return [
        cache_line(
            _synthetic_record(
                chunk.benchmark, spec, mpl,
                (chunk.index * 1_009 + position * 17 + mpl) % 97,
            ),
            fingerprint,
        )
        for position, spec in enumerate(chunk.specs)
        for mpl in chunk.mpl_nominals
    ]


@st.composite
def schedules(draw):
    """(chunk plan of a spec subset, interleaving, cached prefix)."""
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(SPEC_POOL) - 1),
            min_size=1, max_size=len(SPEC_POOL), unique=True,
        )
    )
    specs = [SPEC_POOL[i] for i in indices]
    benchmarks = draw(
        st.sampled_from([["db"], ["jess"], ["db", "jess"]])
    )
    work = [(name, specs) for name in benchmarks]
    planned = plan_chunks(work, FINGERPRINTS, "prop", MPLS)
    order = draw(st.permutations(range(len(planned))))
    cached_prefix = draw(st.integers(min_value=0, max_value=len(planned)))
    return planned, order, cached_prefix


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_any_interleaving_compacts_to_serial_bytes(tmp_path_factory, schedule):
    planned, order, cached_prefix = schedule
    tmp_path = tmp_path_factory.mktemp("chunkprop")
    serial = "".join(
        "".join(_chunk_lines(chunk)) for chunk in planned
    ).encode("utf-8")

    store = ChunkStore(tmp_path, "prop")
    cache = tmp_path / "sweep-prop.jsonl"
    # A resumed run: the first `cached_prefix` chunks were already folded
    # (their rows are cached, their files gc'd) before this run started.
    cache.write_bytes(
        "".join(
            "".join(_chunk_lines(chunk)) for chunk in planned[:cached_prefix]
        ).encode("utf-8")
    )
    for index in order:
        chunk = planned[index]
        if index < cached_prefix:
            continue  # already folded by the previous run
        store.write(
            chunk.key,
            benchmark=chunk.benchmark,
            fingerprint=chunk.fingerprint,
            configs=len(chunk.specs),
            lines=_chunk_lines(chunk),
        )

    summary = compact_chunks(store, planned, cache)
    assert summary["folded"] == len(planned) - cached_prefix
    assert summary["skipped"] == cached_prefix
    assert cache.read_bytes() == serial
