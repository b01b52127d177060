"""DetectorBank: many detector configurations, one trace pass.

A sweep evaluates a grid of configurations over the same benchmark
trace.  The bank splits its members between the two whole-trace routes
of :func:`repro.core.kernels.kernel_path`:

- **vectorized** members (fresh and unobserved: windowed runtimes with
  standard components and either analyzer, NEWMA, FOCuS, Das Pearson
  and Lu DYNAMO engines) run together through
  :func:`~repro.core.kernels.run_bank_batched`, which shares the
  trace's dense remap, every per-signature similarity or NEWMA
  distance series, the FOCuS sign table and per-skip group values, and
  the decoded element list the per-window families slice;
- every other member (observed, restored, partly advanced or custom
  members, or all of them with ``kernels=False``) runs alone through :meth:`~repro.core.decision.DecisionEngine.run`, which
  emits its own ``run_begin``/``run_end`` events.

A solo :meth:`~repro.core.decision.DecisionEngine.run` is the
one-member case of the same two routes.  Every member is an
independent engine (built by :func:`~repro.core.decision.build_engine`),
so results (phases, similarity statistics, observability events) are
bit-identical to running each configuration alone — pinned
by the equivalence tests and by the sweep cache byte-equality test.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.core.config import DetectorConfig
from repro.core.decision import DetectionResult, build_engine
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
    """N detector configurations run over one trace.

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
        FOCuS skip) share the full series computation.  Every other
        member runs its own :meth:`~repro.core.decision.DecisionEngine.run`.
        ``kernels=False`` sends every member down that second route.

        Telemetry (both optional, zero-cost when ``None``):

        - ``tracer``/``trace_parent`` — a duck-typed span tracer (see
          :mod:`repro.obs.trace`); the run becomes a ``bank.run`` span
          under ``trace_parent`` with one ``bank.kernel`` child per
          route actually taken (``path="vectorized"`` / ``"legacy"``,
          with its ``members`` count).
        - ``metrics`` — a registry whose ``bank.advance_seconds``
          histogram receives one observation per member.
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
            return self._run(trace, kernels, tracer, bank_span, metrics)

    def _run(self, trace, kernels, tracer, bank_span, metrics):
        runtimes = self.runtimes
        histogram = (
            metrics.histogram("bank.advance_seconds") if metrics is not None else None
        )
        results: List[Optional[DetectionResult]] = [None] * len(runtimes)
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
                run_bank_batched(
                    [runtimes[index] for index in vector_members],
                    trace,
                    histogram=histogram,
                )
            for index in vector_members:
                results[index] = runtimes[index].result()

        if legacy_members:
            with _maybe_span(
                tracer, "bank.kernel", bank_span,
                path="legacy", members=len(legacy_members),
            ):
                for index in legacy_members:
                    started = time.perf_counter() if histogram is not None else 0.0
                    results[index] = runtimes[index].run(trace, kernels=kernels)
                    if histogram is not None:
                        histogram.observe(time.perf_counter() - started)
        return results
