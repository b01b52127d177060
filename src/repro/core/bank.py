"""DetectorBank: many detector configurations, one trace pass.

A sweep evaluates a grid of configurations over the same benchmark
trace.  Running :func:`~repro.core.engine.run_detector` per grid point
re-decodes the trace (ndarray → list) and re-slices it into
``skipFactor`` groups once per configuration, even though that work is
identical for every member with the same skip factor.  The bank
amortizes it, and splits its members between the two whole-trace
routes of :func:`repro.core.kernels.kernel_path`:

- **vectorized** members (fresh and unobserved: windowed runtimes with
  standard components and the Threshold analyzer, NEWMA engines and
  FOCuS engines) run through
  :func:`~repro.core.kernels.run_bank_batched`, which shares the
  trace's dense remap, every per-signature similarity or NEWMA
  distance series, and the FOCuS sign table and per-skip group values;
- every other member (the Average analyzer, observed or custom
  members, Das Pearson and Lu DYNAMO, or all of them with
  ``kernels=False``)
  runs on the **lockstep lanes**: the trace is decoded exactly once,
  members are grouped into lanes by skip factor, and each lane's group
  chunking is built once per :data:`~repro.core.decision.SEGMENT_ELEMENTS`
  segment and shared by all of its members, advanced on the fused loop
  (custom components and non-window families take their ``step()``
  loop through the same ``advance``).  A solo
  :meth:`~repro.core.decision.DecisionEngine.run` is the one-member
  case of the same two routes.

Every member is an independent engine (built by
:func:`~repro.core.decision.build_engine`), so results (states, phases,
similarity statistics, observability events) are bit-identical to
running each configuration alone — pinned by the equivalence tests and
by the sweep cache byte-equality test.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.decision import SEGMENT_ELEMENTS, DetectionResult, build_engine
from repro.core.kernels import run_bank_batched
from repro.profiles.trace import BranchTrace

__all__ = ["DetectorBank"]


def _maybe_span(tracer, name, parent, **attrs):
    """A tracer span when tracing is on; a free ``nullcontext`` when off.

    Keeps :mod:`repro.core` decoupled from :mod:`repro.obs.trace`: the
    tracer is duck-typed (anything with ``span(name, parent=, **attrs)``)
    and the off path costs exactly one ``is None`` branch.
    """
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, parent=parent, **attrs)


class DetectorBank:
    """N detector configurations advanced in lockstep over one trace.

    ``observers`` optionally gives one observability sink per member
    (positionally matched to ``configs``); each member's event stream is
    identical to a solo run of that configuration.
    """

    def __init__(
        self,
        configs: Sequence[DetectorConfig],
        observers: Optional[Sequence[object]] = None,
    ) -> None:
        configs = list(configs)
        if not configs:
            raise ValueError("DetectorBank needs at least one configuration")
        if observers is None:
            observers = [None] * len(configs)
        elif len(observers) != len(configs):
            raise ValueError(
                f"got {len(observers)} observers for {len(configs)} configs"
            )
        self.runtimes = [
            build_engine(config, observer=observer)
            for config, observer in zip(configs, observers)
        ]

    def __len__(self) -> int:
        return len(self.runtimes)

    @property
    def configs(self) -> List[DetectorConfig]:
        return [runtime.config for runtime in self.runtimes]

    def run(
        self,
        trace: BranchTrace,
        kernels: bool = True,
        tracer=None,
        trace_parent=None,
        metrics=None,
    ) -> List[DetectionResult]:
        """Run every member over ``trace``; results in member order.

        Members on the ``"vectorized"`` route (see
        :func:`repro.core.kernels.kernel_path`) run through the batched
        advancer (:func:`repro.core.kernels.run_bank_batched`): one
        :class:`~repro.core.kernels.SharedTraceKernels` cache funnels
        every lane, so lanes sharing a window or NEWMA signature (or a
        FOCuS skip) share the full series computation.  All other members advance in
        lockstep lanes over one shared decode.
        ``kernels=False`` sends every member to the lanes.

        Telemetry (both optional, zero-cost when ``None``):

        - ``tracer``/``trace_parent`` — a duck-typed span tracer (see
          :mod:`repro.obs.trace`); the run becomes a ``bank.run`` span
          under ``trace_parent`` with one ``bank.kernel`` child per
          route actually taken (``path="vectorized"`` / ``"lanes"``,
          with its ``members`` count).
        - ``metrics`` — a registry whose ``bank.advance_seconds``
          histogram receives one observation per vectorized member and
          per lane segment.
        """
        total = int(trace.array.size)
        with _maybe_span(
            tracer,
            "bank.run",
            trace_parent,
            trace=trace.name,
            members=len(self.runtimes),
            elements=total,
        ) as bank_span:
            return self._run(trace, kernels, total, tracer, bank_span, metrics)

    def _run(self, trace, kernels, total, tracer, bank_span, metrics):
        data = trace.array
        runtimes = self.runtimes
        histogram = (
            metrics.histogram("bank.advance_seconds") if metrics is not None else None
        )

        for runtime in runtimes:
            observer = runtime.observer
            if observer is not None:
                observer.emit(
                    {
                        "ev": "run_begin",
                        "step": 0,
                        "trace": trace.name,
                        "elements": total,
                        "config": runtime.config.describe(),
                    }
                )

        states_by_member: List[Optional[np.ndarray]] = [None] * len(runtimes)
        vector_members: List[int] = []
        legacy_members: List[int] = []
        for index, runtime in enumerate(runtimes):
            if runtime.kernel_path(kernels) == "vectorized":
                vector_members.append(index)
            else:
                legacy_members.append(index)

        if vector_members:
            with _maybe_span(
                tracer, "bank.kernel", bank_span,
                path="vectorized", members=len(vector_members),
            ):
                member_states = run_bank_batched(
                    [runtimes[index] for index in vector_members],
                    trace,
                    histogram=histogram,
                )
                for index, states in zip(vector_members, member_states):
                    states_by_member[index] = states

        if legacy_members:
            with _maybe_span(
                tracer, "bank.kernel", bank_span,
                path="lanes", members=len(legacy_members),
            ):
                elements = data.tolist()  # the one decode the lanes share
                buffers = {index: bytearray(total) for index in legacy_members}
                lanes: Dict[int, List[int]] = {}
                for index in legacy_members:
                    lanes.setdefault(
                        runtimes[index].config.skip_factor, []
                    ).append(index)
                for skip, members in lanes.items():
                    segment = skip * max(1, SEGMENT_ELEMENTS // skip)
                    base = 0
                    while base < total:
                        stop = min(base + segment, total)
                        if skip == 1:
                            # Skip-1 lanes share the flat element slice
                            # directly — no per-element group lists.
                            chunk = elements[base:stop]
                            started = (
                                time.perf_counter() if histogram is not None else 0.0
                            )
                            for index in members:
                                runtimes[index].advance_flat(
                                    chunk, buffers[index], base
                                )
                        else:
                            groups = [
                                elements[start : start + skip]
                                for start in range(base, stop, skip)
                            ]
                            started = (
                                time.perf_counter() if histogram is not None else 0.0
                            )
                            for index in members:
                                runtimes[index].advance(groups, buffers[index], base)
                        if histogram is not None:
                            histogram.observe(time.perf_counter() - started)
                        base = stop
                for index in legacy_members:
                    states_by_member[index] = np.frombuffer(
                        bytes(buffers[index]), dtype=np.uint8
                    ).astype(bool)

        results: List[DetectionResult] = []
        for index, runtime in enumerate(runtimes):
            phases = runtime.finish(total)
            observer = runtime.observer
            if observer is not None:
                observer.emit(
                    {
                        "ev": "run_end",
                        "step": total,
                        "phases": len(phases),
                        "elements": total,
                    }
                )
            results.append(
                DetectionResult(
                    states=states_by_member[index],
                    detected_phases=phases,
                    config=runtime.config,
                )
            )
        return results
