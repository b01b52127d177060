"""The baseline solution: MPL-driven phase identification (Section 3.1).

Given the CRI forest of a run and a client-specified minimum phase
length (MPL), the oracle selects the flat set of phases:

1. CRIs are merged by adjacency (done in :mod:`repro.baseline.cri`).
2. Nest selection is innermost-first: if any descendant of a CRI
   qualifies as a phase, the descendants win and the CRI itself is not
   a phase ("smaller phases represented by executions of one or more
   nested loops"); otherwise the CRI is a phase iff it is repetitive
   and at least MPL profile elements long.
3. Everything not inside a selected phase is transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baseline.cri import CRIKind, RepetitiveInstance, extract_cris
from repro.baseline.tree import StaticId, build_repetition_tree
from repro.profiles.callloop import CallLoopTrace
from repro.scoring.states import states_from_phases


@dataclass(frozen=True)
class PhaseInterval:
    """One oracle phase: profile elements ``start .. end - 1`` are in phase."""

    start: int
    end: int
    static_id: StaticId
    kind: CRIKind

    @property
    def length(self) -> int:
        """Number of profile elements in the phase."""
        return self.end - self.start


class BaselineSolution:
    """The oracle's answer for one (run, MPL) pair."""

    def __init__(
        self,
        phases: Sequence[PhaseInterval],
        num_elements: int,
        mpl: int,
        name: str = "",
    ) -> None:
        self.phases: List[PhaseInterval] = sorted(phases, key=lambda p: p.start)
        self.num_elements = num_elements
        self.mpl = mpl
        self.name = name
        self._check_disjoint()

    def _check_disjoint(self) -> None:
        previous_end = 0
        for phase in self.phases:
            if phase.start < previous_end:
                raise ValueError(f"overlapping oracle phases at {phase}")
            if phase.end > self.num_elements or phase.start < 0:
                raise ValueError(f"phase {phase} outside trace of {self.num_elements}")
            previous_end = phase.end

    @property
    def num_phases(self) -> int:
        """Number of oracle phases."""
        return len(self.phases)

    @property
    def elements_in_phase(self) -> int:
        """Total number of profile elements inside some phase."""
        return sum(phase.length for phase in self.phases)

    @property
    def percent_in_phase(self) -> float:
        """Percentage of profile elements that are in phase (0-100)."""
        if self.num_elements == 0:
            return 0.0
        return 100.0 * self.elements_in_phase / self.num_elements

    def intervals(self) -> List[Tuple[int, int]]:
        """The phases as ``(start, end)`` pairs, in start order."""
        return [(phase.start, phase.end) for phase in self.phases]

    def states(self) -> np.ndarray:
        """Per-element states: boolean array, True = in phase (P)."""
        return states_from_phases(self.intervals(), self.num_elements)

    def __repr__(self) -> str:
        return (
            f"BaselineSolution({self.name!r}, mpl={self.mpl}, "
            f"phases={self.num_phases}, in_phase={self.percent_in_phase:.1f}%)"
        )


def solve_baseline(
    call_loop: CallLoopTrace,
    mpl: int,
    num_elements: Optional[int] = None,
    name: str = "",
) -> BaselineSolution:
    """Run the oracle for ``call_loop`` with minimum phase length ``mpl``.

    Args:
        call_loop: the run's call-loop trace.
        mpl: minimum phase length in profile elements (must be positive).
        num_elements: branch-trace length; defaults to the trace's
            recorded branch count.
        name: label carried through to the solution.

    Returns:
        The :class:`BaselineSolution` with the flat phase set.
    """
    if mpl <= 0:
        raise ValueError(f"mpl must be positive, got {mpl}")
    total = call_loop.num_branches if num_elements is None else num_elements
    forest = build_repetition_tree(call_loop)
    cris = extract_cris(forest)
    phases: List[PhaseInterval] = []
    for cri in cris:
        phases.extend(_select(cri, mpl))
    return BaselineSolution(
        phases, num_elements=total, mpl=mpl, name=name or call_loop.name
    )


def solve_outermost_loops(
    call_loop: CallLoopTrace,
    num_elements: Optional[int] = None,
    name: str = "",
) -> BaselineSolution:
    """The alternative §3.1 validated against: outermost loops as phases.

    Selects every outermost repetitive CRI (no MPL, no nest descent).
    The paper reports that this yields a very small number of large,
    coarse-grained phases that cannot be subdivided — the ablation bench
    compares it with the MPL-driven selection.
    """
    total = call_loop.num_branches if num_elements is None else num_elements
    forest = build_repetition_tree(call_loop)
    phases: List[PhaseInterval] = []

    def outermost(cri: RepetitiveInstance) -> None:
        if cri.is_repetitive():
            phases.append(
                PhaseInterval(
                    start=cri.start, end=cri.end, static_id=cri.static_id, kind=cri.kind
                )
            )
            return
        for child in cri.children:
            outermost(child)

    for cri in extract_cris(forest):
        outermost(cri)
    return BaselineSolution(phases, num_elements=total, mpl=1, name=name or call_loop.name)


def _select(cri: RepetitiveInstance, mpl: int) -> List[PhaseInterval]:
    """Innermost-first phase selection for one CRI subtree."""
    inner: List[PhaseInterval] = []
    for child in cri.children:
        inner.extend(_select(child, mpl))
    if inner:
        return inner
    if cri.is_repetitive() and cri.length >= mpl:
        return [
            PhaseInterval(start=cri.start, end=cri.end, static_id=cri.static_id, kind=cri.kind)
        ]
    return []
