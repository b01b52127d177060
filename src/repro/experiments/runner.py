"""Run detectors over traces and score them against baselines.

One detector run produces a list of phases; scoring it against each
MPL's baseline phases yields one :class:`SweepRecord` per (benchmark,
config, MPL).  Records carry both the ordinary score and the
anchor-corrected score used by Figure 8.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.baseline.oracle import BaselineSolution, solve_baseline
from repro.core.bank import DetectorBank
from repro.core.detector import DetectionResult
from repro.experiments.config_space import ConfigSpec, SuiteProfile
from repro.profiles.callloop import CallLoopTrace
from repro.profiles.trace import BranchTrace
from repro.scoring.metric import score_intervals
from repro.scoring.states import Interval, union_phases

#: Grid points evaluated per single-pass :class:`DetectorBank`.  Bounds
#: the bank's per-member window and series state while still amortizing
#: the trace decode/chunking across many members.
DEFAULT_BANK_SIZE = 16


@dataclass(frozen=True)
class SweepRecord:
    """Scores of one (benchmark, config, MPL) evaluation."""

    benchmark: str
    family: str
    cw_nominal: int
    model: str
    analyzer: str
    anchor: str
    resize: str
    mpl_nominal: int
    score: float
    correlation: float
    sensitivity: float
    false_positives: float
    corrected_score: float
    num_detected_phases: int
    num_baseline_phases: int

    def to_row(self) -> Dict[str, object]:
        """Flat dict form (JSONL cache serialization)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_row(row: Dict[str, object]) -> "SweepRecord":
        return SweepRecord(**row)


class _LazySolutions(Mapping):
    """Dict-like view over a :class:`BaselineSet`'s memoized solutions.

    Indexing solves the baseline on first access; iteration and length
    reflect the declared nominal MPLs without solving anything.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "BaselineSet") -> None:
        self._owner = owner

    def __getitem__(self, nominal: int) -> BaselineSolution:
        return self._owner.solution(nominal)

    def __iter__(self) -> Iterator[int]:
        return iter(self._owner.mpl_nominals)

    def __len__(self) -> int:
        return len(self._owner.mpl_nominals)


class BaselineSet:
    """Solved baselines for one benchmark across a set of nominal MPLs.

    Each nominal's baseline is solved **lazily**, memoized on first use
    (:meth:`solution` / :meth:`states` / :meth:`phases`), so a caller
    that only ever scores a subset of the declared MPLs — e.g. a
    parallel worker whose chunk covers one MPL — never pays for the
    rest.  Construction itself does no solving and is deterministic and
    self-contained (no module-level state, no RNG), so it is safe to
    build inside a forked or spawned worker process;
    :meth:`for_benchmark` builds one straight from the suite's on-disk
    trace cache, which is how the parallel sweep executor avoids
    shipping traces over the worker pipe.
    """

    def __init__(
        self,
        call_loop: CallLoopTrace,
        profile: SuiteProfile,
        mpl_nominals: Sequence[int],
        name: str = "",
    ) -> None:
        self.name = name or call_loop.name
        self.profile = profile
        self._call_loop = call_loop
        self._mpl_nominals = [int(nominal) for nominal in mpl_nominals]
        self._solutions: Dict[int, BaselineSolution] = {}
        self._states_cache: Dict[int, np.ndarray] = {}
        self._phases_cache: Dict[int, List[Interval]] = {}

    def solution(self, mpl_nominal: int) -> BaselineSolution:
        """The solved baseline for a nominal MPL (solved on first access)."""
        if mpl_nominal not in self._solutions:
            if mpl_nominal not in self._mpl_nominals:
                raise KeyError(mpl_nominal)
            self._solutions[mpl_nominal] = solve_baseline(
                self._call_loop,
                self.profile.actual(mpl_nominal),
                name=self.name,
            )
        return self._solutions[mpl_nominal]

    @property
    def solutions(self) -> Mapping:
        """Mapping view ``{nominal MPL: BaselineSolution}`` (lazy)."""
        return _LazySolutions(self)

    @classmethod
    def for_benchmark(
        cls,
        benchmark: str,
        profile: SuiteProfile,
        mpl_nominals: Sequence[int],
        cache_dir=None,
    ) -> "BaselineSet":
        """Build the set for a named workload from the on-disk trace cache.

        Loads (or, on a cold cache, regenerates) the workload's call-loop
        trace via :func:`repro.workloads.suite.load_traces` and solves
        every baseline locally in the calling process.
        """
        from repro.workloads.suite import load_traces

        _, call_loop = load_traces(
            benchmark, scale=profile.workload_scale, cache_dir=cache_dir
        )
        return cls(call_loop, profile, mpl_nominals, name=benchmark)

    def states(self, mpl_nominal: int) -> np.ndarray:
        """The oracle's state array for a nominal MPL (memoized): a
        per-element view; scoring reads :meth:`phases`."""
        if mpl_nominal not in self._states_cache:
            self._states_cache[mpl_nominal] = self.solution(mpl_nominal).states()
        return self._states_cache[mpl_nominal]

    def phases(self, mpl_nominal: int) -> List[Interval]:
        """The oracle's phase intervals for a nominal MPL (memoized).

        The maximal runs of the union of the solution's phases (touching
        oracle phases merge): the P-runs of :meth:`states`, merged from
        the intervals without building the array.
        """
        if mpl_nominal not in self._phases_cache:
            self._phases_cache[mpl_nominal] = union_phases(
                self.solution(mpl_nominal).intervals()
            )
        return self._phases_cache[mpl_nominal]

    @property
    def mpl_nominals(self) -> List[int]:
        return list(self._mpl_nominals)


def _make_record(
    baselines: BaselineSet, spec: ConfigSpec, nominal: int, plain, corrected
) -> SweepRecord:
    return SweepRecord(
        benchmark=baselines.name,
        family=spec.family,
        cw_nominal=spec.cw_nominal,
        model=spec.model.value,
        analyzer=spec.analyzer_label(),
        anchor=spec.anchor.value,
        resize=spec.resize.value,
        mpl_nominal=nominal,
        score=plain.score,
        correlation=plain.correlation,
        sensitivity=plain.sensitivity,
        false_positives=plain.false_positives,
        corrected_score=corrected.score,
        num_detected_phases=plain.num_detected_phases,
        num_baseline_phases=plain.num_baseline_phases,
    )


def _score_results(
    results: Sequence[DetectionResult],
    baselines: BaselineSet,
    specs: Sequence[ConfigSpec],
) -> List[SweepRecord]:
    """Score a batch of detector results at every MPL in one pass.

    One :func:`~repro.scoring.metric.score_intervals` call over ``2L``
    lanes — lanes ``0..L-1`` each result's phases with touching ones
    merged (its P-runs), lanes ``L..2L-1`` its anchor-corrected phases
    as reported — so each MPL baseline is indexed once for the whole
    bank, and no per-element array is built.  Records come out
    lane-major, MPL-minor.
    """
    if not results:
        return []
    nominals = baselines.mpl_nominals
    grid = score_intervals(
        [union_phases(result.phases()) for result in results]
        + [result.corrected_phases() for result in results],
        [baselines.phases(nominal) for nominal in nominals],
        results[0].num_elements,
    )
    num_lanes = len(results)
    records: List[SweepRecord] = []
    for lane, spec in enumerate(specs):
        for column, nominal in enumerate(nominals):
            plain = grid[lane][column]
            corrected = grid[num_lanes + lane][column]
            records.append(_make_record(baselines, spec, nominal, plain, corrected))
    return records


def evaluate_bank(
    trace: BranchTrace,
    baselines: BaselineSet,
    specs: Sequence[ConfigSpec],
    profile: SuiteProfile,
    bank_size: int = DEFAULT_BANK_SIZE,
    kernels: bool = True,
    tracer=None,
    trace_parent=None,
    metrics=None,
) -> List[SweepRecord]:
    """Run many grid points over one trace; score each at every MPL.

    The specs are evaluated in single-pass
    :class:`~repro.core.bank.DetectorBank` batches of ``bank_size``, so
    the trace is decoded and chunked once per batch instead of once per
    grid point, and each batch is scored in one
    :func:`~repro.scoring.metric.score_intervals` pass.  Records are
    bit-identical to a solo :func:`~repro.core.engine.run_detector` run
    per spec scored with :func:`~repro.scoring.metric.score_phases`, in
    spec order (the tests pin this).

    ``kernels=False`` runs every member on the fused loop instead of
    the vectorized route (see :mod:`repro.core.kernels`); records are
    byte-identical either way (the kernel-equivalence CI job pins this).

    ``tracer``/``trace_parent``/``metrics`` ride through to
    :meth:`DetectorBank.run` untouched (``bank.run`` / ``bank.kernel``
    spans and the ``bank.advance_seconds`` histogram); all three default
    to ``None`` and cost nothing when off.
    """
    records: List[SweepRecord] = []
    specs = list(specs)
    for start in range(0, len(specs), bank_size):
        batch_specs = specs[start : start + bank_size]
        results = DetectorBank([spec.to_config(profile) for spec in batch_specs]).run(
            trace,
            kernels=kernels,
            tracer=tracer,
            trace_parent=trace_parent,
            metrics=metrics,
        )
        records.extend(_score_results(results, baselines, batch_specs))
    return records
