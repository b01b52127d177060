"""Array-native detector kernels: the vectorized whole-trace path.

The sweep machinery runs >10,000 detector instantiations over
million-element traces, and the per-element Python bookkeeping in
:meth:`~repro.core.runtime.DetectorRuntime._advance_fused` — dict
lookups keyed by packed int64 profile elements, deque rotation — is the
dominant cost of every sweep.  This module replaces that loop, for the
configurations whose decision sequence can be replayed from precomputed
similarity series, with sliding-window array operations over *densely
remapped* element IDs.

Whole-trace detection has exactly two routes (:func:`kernel_path`):

- ``"vectorized"`` — fresh, unobserved, standard-component runtimes
  (Threshold or Average analyzer), and fresh, unobserved NEWMA, FOCuS,
  Das Pearson and Lu DYNAMO engines, run through
  :func:`run_bank_batched` (a solo ``run`` is a bank of one);
- ``"legacy"`` — everything else (observed, restored or partly
  advanced engines, custom components, ``kernels=False``) runs its own
  :meth:`~repro.core.decision.DecisionEngine.run` (also as a
  :class:`~repro.core.bank.DetectorBank` member), one
  ``_advance_elements`` pass over the decoded trace: the fused loop
  for standard-component windowed runtimes at skip 1, the ``step()``
  loop for everything else.

**Dense remapping** — :meth:`BranchTrace.dense_codes` maps the trace's
packed int64 elements to contiguous small ints (``codes``) once per
trace via one cached ``np.unique`` pass.  Every lane of a
:class:`~repro.core.bank.DetectorBank` pass shares the same remap.

**Vectorized whole-trace fast path** — :func:`run_bank_batched` computes
similarity series with sliding-window array operations and derives
the phases in one pass.  It covers every standard-component
configuration: Threshold *and* Average analyzers, Constant *and*
Adaptive trailing windows, unweighted *and* weighted models, any window
geometry.  The key observations:

- With a Constant TW, at any *filled* step the windows are pure
  functions of stream position (CW = the last ``cwSize`` elements,
  TW = the ``twSize`` before them), regardless of earlier phase
  entries/exits.  Entries do not move Constant windows, and the
  post-exit flush only shifts the *refill origin* — which affects when
  steps are filled, never the similarity value of a filled step.
- The unweighted similarity series reduces to two interval-stabbing
  counts over per-element previous-occurrence links: an element
  occurrence ``i`` is a distinct CW member for window starts
  ``l ∈ (max(prev[i], i-cwSize), i]``, and an adjacent occurrence pair
  ``(prev[i], i)`` puts its element in both windows for
  ``l ∈ (max(prev[i], i-cwSize), min(i, prev[i]+twSize)]``.  Both are
  O(n) with difference arrays.
- The weighted similarity is a pure integer sum
  ``Σ_e min(cw_e·|TW|, tw_e·|CW|)`` — order-independent, so it
  vectorizes for *any* geometry: one scan (:func:`_scan_weighted`)
  carries per-code CW and TW counts from block to block and applies
  each block's window-edge crossings with one ``bincount``, so a block
  costs the same whatever the window.  The Constant series (every
  skip, the Fixed-Interval geometry skip = CW = TW included) and the
  Adaptive in-phase blocks are the same scan.
- The Adaptive TW *does* have analyzer→window feedback (the entry
  resize pins the TW to the anchor; in-phase the TW grows), but the
  feedback is episode-local: between phases the windows follow Constant
  geometry from the last flush origin, and within a phase the pinned
  TW boundary and refill/slide regimes are pure functions of the entry
  step.  One episode walk (:func:`_walk_windowed`) therefore serves
  both trailing policies: a constant-series scan finds each entry, and
  the anchor comes from the entry step's windows as Python ints
  (:func:`_entry_anchor`: a set of the CW's codes and a scan of the TW
  that stops at the first element that decides); the in-phase
  similarities come from the same series for a Constant TW, and from a
  segment-local scan for an Adaptive one.
- Most episodes last a few steps, so each walks a scalar head of up to
  ``_HEAD_STEPS`` in-phase steps before any blockwise NumPy scan
  starts: a ``tolist()`` slice of the constant series, or, for an
  Adaptive TW, window counts updated per element
  (``_scan_head_unweighted``: O(1) counts over one decoded slice of
  previous-occurrence links; ``_scan_head_weighted``: per-code count
  tables, summed over the CW's distinct codes at each step).  The
  blocks (``_scan_phase_constant``, ``_scan_phase_unweighted``,
  ``_scan_weighted``) run only for the steps after it.  The
  unweighted Adaptive blocks carry the count of CW occurrences the TW
  has not seen from block to block, so a block costs O(block), not
  O(block + CW).
- Neither analyzer feeds back into the windows, so only the decisions
  differ between them.  Entries test the constant series against a
  fixed bar (``threshold``, or the Average analyzer's
  ``enter_threshold``); one exit scan (:func:`_scan_exit`, head then
  blocks) tests the in-phase similarities against ``threshold`` or
  against the Average analyzer's running in-phase mean minus
  ``delta``, carried through the head and from block to block with the
  incremental loops' addition order.

**Batched bank advancement** — :class:`SharedTraceKernels` caches
prev-occurrence links, skip-group boundaries, and whole similarity
series per window *signature* ``(weighted, cw, tw, skip)``, so a
:class:`~repro.core.bank.DetectorBank` whose members differ only by
threshold or anchor/resize policy computes each series once.
:func:`run_bank_batched` drives every vectorized member through one
shared cache.

The walks reconstruct phases, anchor-corrected starts, per-phase mean
similarity and the final runtime state (windows, analyzer statistics),
so checkpoints taken after a vectorized run are bit-identical to the
incremental paths' — ``tests/properties/test_oracle_harness.py`` pins
the phases and checkpoints of every route, of streaming at
random cuts and of park/rehydrate at random points against each
family's reference :meth:`step` loop, and the ``kernel-equivalence``
and ``family-equivalence`` CI jobs byte-compare sweep caches produced
with kernels on vs. off.

**NEWMA** — the fast and slow EWMAs and their distance depend only on
the trace and ``(sketch_dim, newma_fast, newma_slow, skip)``, not on
the bar (``stat_threshold``) or the warm-up (``cw_size``).
:meth:`SharedTraceKernels.newma_series` computes that distance series
once per signature with exactly the float operations of
:meth:`NewmaEngine.step <repro.comparators.newma.NewmaEngine.step>`,
and :func:`_walk_newma` replays each lane's scalar bar walk over it.

**FOCuS** — the per-step group values (mean ±1 hash of each
``skip_factor`` group) depend only on the trace and the skip, not on
the warm-up (``cw_size``) or the bar (``stat_threshold``).
:meth:`SharedTraceKernels.focus_values` builds them once per skip from
one per-distinct-element sign table, and :func:`_walk_focus` replays
each lane's scalar FOCuS0 recursion over them: the Welford warm-up,
the statistic over the two pruned candidate hulls (the same amortized
pruning as :meth:`FocusEngine.step
<repro.comparators.focus.FocusEngine.step>`, not a scan of every
candidate — collinear cusum points make that differ by an ulp), and
the reset on each changepoint.

**Per-window families** — Das Pearson and Lu DYNAMO decide once per
``cw_size``-element window, yet their ``step()`` loop runs once per
``skip_factor`` group.  :func:`_walk_per_window` visits only the steps
that complete a window: it slices each full window from the trace's
element list (decoded once per bank pass,
:meth:`SharedTraceKernels.elements`), hands it to the engine's own
``_judge`` (the family arithmetic exists once) and the step's verdict
to the engine's own ``_settle``.  There is no per-window series: after
the walk ``_judge`` is most of what is left, and a precomputed Lu mean
would be a second copy of its arithmetic.

Kernels are on by default wherever they apply; pass ``kernels=False``
through :func:`~repro.core.engine.run_detector` / the sweep stack
(``repro sweep --no-kernels``) to force the fused and ``step()``
loops everywhere.  See ``docs/performance.md`` for the eligibility
matrix and measured speedups.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import List, Optional, Tuple

import numpy as np

from repro.core.analyzers import ThresholdAnalyzer
from repro.core.config import AnchorPolicy, ResizePolicy, TrailingPolicy
from repro.core.models import WeightedSetModel
from repro.core.state import PhaseState

__all__ = [
    "kernel_path",
    "vectorized_eligible",
    "SharedTraceKernels",
    "run_bank_batched",
]


def vectorized_eligible(engine) -> bool:
    """True when :func:`run_bank_batched` may run ``engine`` over a trace.

    Four kinds of engine qualify, all only when unobserved (the
    vectorized walks emit no events; observed runs take the fused or
    ``step()`` loop, which emits the canonical event stream) and fresh
    (the walks assume stream position == trace position, which only
    holds from a cold start):

    - a windowed runtime with the exact standard components (same rule
      as :meth:`~repro.core.runtime.DetectorRuntime.fused_capable`).
      Every such configuration qualifies: Threshold *and* Average
      analyzers, Constant *and* Adaptive trailing windows, unweighted
      *and* weighted models, any window geometry;
    - a :class:`~repro.comparators.newma.NewmaEngine`: its distance
      series depends only on the trace and the sketch/EWMA signature
      (:meth:`SharedTraceKernels.newma_series`);
    - a :class:`~repro.comparators.focus.FocusEngine`: its group values
      depend only on the trace and the skip
      (:meth:`SharedTraceKernels.focus_values`);
    - a :class:`~repro.comparators.das_pearson.DasPearsonEngine` or a
      :class:`~repro.comparators.lu_dynamo.LuDynamoEngine`: each full
      ``cw_size`` window goes to the engine's own ``_judge`` once
      (:func:`_walk_per_window`).
    """
    if engine.observer is not None:
        return False
    if not engine.fused_capable():
        return (
            _newma_fresh(engine)
            or _focus_fresh(engine)
            or _per_window_fresh(engine)
        )
    model = engine.model
    return (
        model.consumed == 0
        and not model._cw
        and not model._tw
        and engine.state is PhaseState.TRANSITION
        and not engine.tracker.open
        and not engine.tracker.phases
    )


def _newma_fresh(engine) -> bool:
    """True for a NEWMA engine that has consumed nothing."""
    from repro.comparators.newma import NewmaEngine

    return (
        type(engine) is NewmaEngine
        and engine.consumed == 0
        and not engine._stat_seen
        and not engine._fast.any()
        and not engine._slow.any()
        and engine.state is PhaseState.TRANSITION
        and not engine.tracker.open
        and not engine.tracker.phases
    )


def _focus_fresh(engine) -> bool:
    """True for a FOCuS engine that has consumed nothing."""
    from repro.comparators.focus import FocusEngine

    return (
        type(engine) is FocusEngine
        and engine.consumed == 0
        and engine._warmup_left == engine._warmup_steps
        and engine._base_n == 0
        and engine.state is PhaseState.TRANSITION
        and not engine.tracker.open
        and not engine.tracker.phases
    )


def _per_window_fresh(engine) -> bool:
    """True for a Das Pearson or Lu DYNAMO engine that has consumed
    nothing."""
    from repro.comparators.das_pearson import DasPearsonEngine
    from repro.comparators.lu_dynamo import LuDynamoEngine

    kind = type(engine)
    if kind is DasPearsonEngine:
        cold = engine._target is None
    elif kind is LuDynamoEngine:
        cold = not engine._averages and engine._outside_streak == 0
    else:
        return False
    return (
        cold
        and engine.consumed == 0
        and not engine._buffer
        and not engine._in_phase
        and engine.state is PhaseState.TRANSITION
        and not engine.tracker.open
        and not engine.tracker.phases
    )


def kernel_path(engine, kernels: Optional[bool] = None) -> str:
    """Which route drives ``engine`` over a whole trace.

    Returns ``"vectorized"`` (:func:`run_bank_batched`: fresh,
    unobserved windowed runtimes of either analyzer, NEWMA, FOCuS, Das
    Pearson and Lu DYNAMO) or ``"legacy"`` (one ``_advance_elements``
    pass per engine: the fused loop for observed or restored
    standard-component windowed runtimes at skip 1, the ``step()`` loop
    for the rest) — the single dispatch rule shared by every engine's
    solo ``run`` and the bank's member partition.  ``kernels=False``
    forces ``"legacy"``; ``None`` and ``True`` both mean the default
    (kernels on).  See :func:`vectorized_eligible` for which engines
    qualify.
    """
    if kernels is not False and vectorized_eligible(engine):
        return "vectorized"
    return "legacy"

# ---------------------------------------------------------------------------
# The vectorized whole-trace fast path
# ---------------------------------------------------------------------------


def _prev_occurrence(codes: np.ndarray) -> np.ndarray:
    """``prev[i]`` = index of the previous occurrence of ``codes[i]``
    (or -1).  One stable argsort; equal codes stay in index order."""
    order = np.argsort(codes, kind="stable").astype(np.int64)
    prev = np.full(codes.size, -1, dtype=np.int64)
    if codes.size > 1:
        same = codes[order[1:]] == codes[order[:-1]]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def _unweighted_window_counts(
    prev: np.ndarray, cwc: int, twc: int, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, shared)`` per window start via interval stabbing.

    For a window start ``l`` (CW = ``codes[l : l+cwc]``, TW =
    ``codes[l-twc : l]``), an occurrence ``i`` is a *distinct CW member*
    exactly for ``l`` in ``(max(prev[i], i-cwc), i]`` — it lies in the
    CW and no earlier occurrence does.  It is additionally *shared with
    the TW* when its predecessor lies in the TW: ``l <= prev[i]+twc``.
    Both per-``l`` counts accumulate in O(n) with difference arrays.
    Valid ``l`` range: ``0 .. total-cwc`` (``distinct`` is exact over
    the whole range; ``shared`` assumes the Constant twc-deep TW).
    """
    window_starts = total - cwc + 1  # valid l: 0 .. total-cwc
    idx = np.arange(total, dtype=np.int64)
    lo = np.maximum(prev, idx - cwc) + 1
    hi = np.minimum(idx, total - cwc)
    ok = lo <= hi
    add = np.bincount(lo[ok], minlength=window_starts + 1)
    rem = np.bincount(hi[ok] + 1, minlength=window_starts + 1)
    distinct = np.cumsum(add[:window_starts] - rem[:window_starts])
    has_prev = prev >= 0
    lo2 = lo[has_prev]
    hi2 = np.minimum(hi[has_prev], prev[has_prev] + twc)
    ok2 = lo2 <= hi2
    add2 = np.bincount(lo2[ok2], minlength=window_starts + 1)
    rem2 = np.bincount(hi2[ok2] + 1, minlength=window_starts + 1)
    shared = np.cumsum(add2[:window_starts] - rem2[:window_starts])
    return distinct, shared


def _unweighted_sims(
    cwc: int,
    twc: int,
    step_ends: np.ndarray,
    total: int,
    counts: Optional[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Per-step unweighted similarity values via interval stabbing.

    Entries for geometrically unfilled steps are left at 0.0 (callers
    never consult them — the episode walk gates on the filled mask).
    ``counts`` is :func:`_unweighted_window_counts`'s per-window-start
    pair; it is only read when the trace can fill both windows.
    """
    n_steps = step_ends.size
    sims = np.zeros(n_steps, dtype=np.float64)
    if total < cwc + twc:
        return sims
    distinct, shared = counts
    starts = step_ends - cwc
    valid = starts >= twc
    lv = starts[valid]
    # int64/int64 true division == Python int/int (both correctly rounded)
    sims[valid] = shared[lv] / distinct[lv]
    return sims


#: Step granularity of the blockwise scans (the weighted similarity
#: blocks and the in-phase exit scan).
_BLOCK_STEPS = 256

#: Bound on the elements one weighted block moves across each window
#: edge: a block holds at most ``_BLOCK_ELEMENTS // skip`` steps (at
#: least one), so a Fixed lane's block of CW-long steps stays O(this).
_BLOCK_ELEMENTS = 1 << 16

#: In-phase steps each episode walks as scalar Python (the head: a
#: slice of the constant series, :func:`_scan_head_unweighted` or
#: :func:`_scan_head_weighted`) before the blockwise exit scan starts:
#: most episodes end inside it, without one NumPy call for their exit.
_HEAD_STEPS = 16


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct ``values`` in ascending order, by one sort (NumPy
    2's ``np.unique`` costs 2-8x more on dense-code slices)."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _scan_weighted(
    codes: np.ndarray,
    step_ends: np.ndarray,
    skip: int,
    first: int,
    tw_left: int,
    cw_left: int,
    cwc: int,
    twc: int,
):
    """Weighted similarities of the steps from ``first`` on, by block.

    At step end ``c`` the CW is ``[m, c)`` with ``m = max(cw_left, c -
    cwc)`` and the TW is ``[max(tw_left, m - twc), m)``.  The Constant
    series passes ``cw_left = tw_left = 0``; an Adaptive episode passes
    its pinned ``L`` and ``A`` and a ``twc`` past the trace end.

    All three edges only move right, so per-code CW and TW counts are
    carried from block to block.  An element at ``p`` enters the CW at
    step ``p // skip``, passes to the TW at ``(p + cwc) // skip`` and
    leaves it at ``(p + cwc + twc) // skip``, so one ``bincount`` over
    (edge, step, code) cells and a cumulative sum along the steps give
    every step's counts.  The codes are a sorted universe of those
    either window holds, rebuilt when a new code enters.  A block of
    ``_BLOCK_STEPS`` steps (fewer when they would move more than
    ``_BLOCK_ELEMENTS`` elements) costs O(moved elements + steps ×
    universe), whatever the window.

    The numerator ``sum_e min(cw_e * T, tw_e * C)`` is an exact integer,
    so the one true division per step equals the fused loop's.  Yields
    ``(first_step, sims)``.  The caller guarantees that neither window
    is empty at any step from ``first`` on.
    """
    n_steps = int(step_ends.size)
    take = max(1, min(_BLOCK_STEPS, _BLOCK_ELEMENTS // skip))
    c0 = int(step_ends[first - 1]) if first else 0
    m0 = max(cw_left, c0 - cwc)
    t0 = max(tw_left, m0 - twc)
    uniq = _sorted_unique(codes[t0:c0])
    # carry[0] / carry[1]: each code's count in the CW / the TW.
    carry = np.stack([
        np.bincount(uniq.searchsorted(codes[lo:hi]), minlength=uniq.size)
        for lo, hi in ((m0, c0), (t0, m0))
    ])
    for s in range(first, n_steps, take):
        ends = step_ends[s : s + take]
        steps = int(ends.size)
        c1 = int(ends[-1])
        m1 = max(cw_left, c1 - cwc)
        t1 = max(tw_left, m1 - twc)
        entering = codes[c0:c1]
        moved = np.concatenate((entering, codes[m0:m1], codes[t0:t1]))
        cols = uniq.searchsorted(moved)
        if not uniq.size or (
            uniq.take(cols[: entering.size], mode="clip") != entering
        ).any():
            held = carry.any(axis=0)
            kept = uniq[held]
            uniq = _sorted_unique(np.concatenate((kept, entering)))
            carry, held_n = np.zeros((2, uniq.size), dtype=np.int64), carry
            carry[:, uniq.searchsorted(kept)] = held_n[:, held]
            cols = uniq.searchsorted(moved)
        # Cell (edge, step, code) of each crossing.
        cells = np.concatenate((
            np.arange(c0, c1),
            np.arange(m0 + cwc, m1 + cwc),
            np.arange(t0 + cwc + twc, t1 + cwc + twc),
        ))
        if skip > 1:
            cells //= skip
        cells -= s
        cells *= uniq.size
        cells += cols
        width = steps * uniq.size
        cells[c1 - c0 :] += width
        cells[c1 - c0 + m1 - m0 :] += width
        crossed = np.bincount(cells, minlength=3 * width).reshape(3, steps, -1)
        # In place: a fresh block-sized array costs more than the sum.
        crossed[0] -= crossed[1]
        crossed[1] -= crossed[2]
        counts = crossed[:2]
        counts[:, 0] += carry
        np.add.accumulate(counts, axis=1, out=counts)
        carry = counts[:, -1].copy()
        m = np.maximum(ends - cwc, cw_left)
        cw_len = ends - m
        tw_len = m - np.maximum(m - twc, tw_left)
        # Both lengths only grow along the steps; a scalar factor costs
        # half a broadcast column.
        cw, tw = counts
        cw *= tw_len[0] if tw_len[0] == tw_len[-1] else tw_len[:, None]
        tw *= cw_len[0] if cw_len[0] == cw_len[-1] else cw_len[:, None]
        np.minimum(cw, tw, out=cw)
        yield s, cw.sum(axis=1) / (cw_len * tw_len)
        c0, m0, t0 = c1, m1, t1


#: Elements per block of the NEWMA series pass: bounds the per-block
#: gathered sketch rows (block x 2 x sketch_dim float64 cells).
_NEWMA_BLOCK_ELEMENTS = 4096


def _newma_distances(
    codes: np.ndarray,
    table: np.ndarray,
    fast_factor: float,
    slow_factor: float,
    skip: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(distances, fast, slow)``: NEWMA's per-step distance series.

    Replays :meth:`NewmaEngine.step <repro.comparators.newma.NewmaEngine.step>`'s
    float operations exactly, once per step: the group feature is the
    ±1 sketch sum (exact small integers, in any order) divided by the
    group length; the fast and slow EWMAs (one 2-row array) take the
    same elementwise ``ewma * (1 - factor) + feature * factor`` update;
    the distance is ``sqrt(dot(diff, diff))`` on the same contiguous
    difference vector.  Features are gathered from the per-element
    sketch ``table`` one block of steps at a time, never as a whole
    ``(steps, dim)`` matrix.  ``fast``/``slow`` are the final EWMAs.
    """
    total = int(codes.size)
    dim = int(table.shape[1])
    n_steps = (total + skip - 1) // skip
    decay = np.array([[1.0 - fast_factor], [1.0 - slow_factor]])
    weights = np.array([[fast_factor], [slow_factor]])
    ewma = np.zeros((2, dim), dtype=np.float64)
    diff = np.empty(dim, dtype=np.float64)
    dots = np.empty(n_steps, dtype=np.float64)
    block = skip * max(1, _NEWMA_BLOCK_ELEMENTS // skip)
    multiply, add, subtract, dot = np.multiply, np.add, np.subtract, np.dot
    for base in range(0, total, block):
        rows = table[codes[base : base + block]]
        if skip > 1:
            full = rows.shape[0] // skip
            features = rows[: full * skip].reshape(full, skip, dim).sum(axis=1)
            features /= skip
            if rows.shape[0] > full * skip:  # the trace's ragged last group
                tail = rows[full * skip :]
                features = np.vstack(
                    [features, tail.sum(axis=0) / tail.shape[0]]
                )
            rows = features
        increments = rows[:, None, :] * weights
        out = dots[base // skip : base // skip + rows.shape[0]]
        for index, increment in enumerate(increments):
            multiply(ewma, decay, out=ewma)
            add(ewma, increment, out=ewma)
            subtract(ewma[0], ewma[1], out=diff)
            out[index] = dot(diff, diff)
    return np.sqrt(dots), ewma[0].copy(), ewma[1].copy()


def _focus_signs(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-element FOCuS ±1 hash signs: one ``hash_sign`` per distinct
    element, gathered through the dense ``codes``."""
    from repro.comparators.focus import hash_sign

    table = np.array(
        [hash_sign(value) for value in values.tolist()], dtype=np.float64
    )
    return table[codes]


class SharedTraceKernels:
    """Per-trace cache of the arrays the vectorized walks consume.

    One instance per ``(trace, bank pass)``: dense codes, previous-
    occurrence links, per-skip step boundaries and — keyed by
    ``(weighted, cw, tw, skip)`` — the full constant-geometry similarity
    series plus its per-window-start count arrays; for NEWMA lanes,
    keyed by ``(sketch_dim, fast, slow, skip)``, the distance series
    (:meth:`newma_series`); for FOCuS lanes, keyed by skip, the group
    values over one shared sign table (:meth:`focus_values`); for Das
    Pearson and Lu DYNAMO lanes, the decoded element list
    (:meth:`elements`).  The batched bank advancer
    (:func:`run_bank_batched`) funnels every lane through one instance,
    so lanes that share a signature share the expensive series
    computation and differ only in their cheap episode or bar walks.
    """

    def __init__(self, trace) -> None:
        self.trace = trace
        self.data = trace.array
        self.total = int(self.data.size)
        self._codes: Optional[Tuple[np.ndarray, int]] = None
        self._step_ends: dict = {}
        self._series: dict = {}
        self._newma: dict = {}
        self._signs: Optional[np.ndarray] = None
        self._focus: dict = {}
        self._elements: Optional[List[int]] = None

    def codes(self) -> Tuple[np.ndarray, int]:
        """``(codes, n_codes)`` from the trace's cached dense remap."""
        if self._codes is None:
            codes, values = self.trace.dense_codes()
            self._codes = (codes, int(values.size))
        return self._codes

    def prev(self) -> np.ndarray:
        """Previous-occurrence links (cached on the trace itself)."""
        return self.trace.prev_links()

    def elements(self) -> List[int]:
        """The trace as one list of Python ints, decoded once per pass
        and only sliced, never mutated, by the per-window walks."""
        if self._elements is None:
            self._elements = self.data.tolist()
        return self._elements

    def step_ends(self, skip: int) -> np.ndarray:
        """Element offsets at which each skip-group step ends."""
        cached = self._step_ends.get(skip)
        if cached is None:
            n_steps = (self.total + skip - 1) // skip
            cached = np.minimum(
                np.arange(1, n_steps + 1, dtype=np.int64) * skip, self.total
            )
            self._step_ends[skip] = cached
        return cached

    def series(
        self, weighted: bool, cwc: int, twc: int, skip: int
    ) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
        """``(sims, counts)`` for a constant-geometry window signature.

        ``sims`` is the per-step similarity series at geometrically
        filled steps (zeros elsewhere); ``counts`` is the unweighted
        paths' ``(distinct, shared)`` per-window-start pair (``None``
        for weighted signatures or traces too short to fill).  Cached —
        every lane with the same signature, including adaptive lanes
        (whose transition regimes are constant-geometry), reuses it.
        """
        key = (weighted, cwc, twc, skip)
        cached = self._series.get(key)
        if cached is None:
            codes, _ = self.codes()
            ends = self.step_ends(skip)
            if weighted:
                sims = np.zeros(ends.size)
                filled = int(np.searchsorted(ends, cwc + twc))
                for at, block in _scan_weighted(
                    codes, ends, skip, filled, 0, 0, cwc, twc
                ):
                    sims[at : at + block.size] = block
                counts = None
            else:
                counts = (
                    _unweighted_window_counts(self.prev(), cwc, twc, self.total)
                    if self.total >= cwc + twc
                    else None
                )
                sims = _unweighted_sims(cwc, twc, ends, self.total, counts)
            cached = (sims, counts)
            self._series[key] = cached
        return cached

    def newma_series(
        self, dim: int, fast_factor: float, slow_factor: float, skip: int
    ) -> Tuple[List[float], np.ndarray, np.ndarray]:
        """``(distances, fast, slow)`` for a NEWMA signature.

        ``distances`` holds every step's fast/slow EWMA distance
        (warm-up steps included, so lanes with any warm-up length share
        it) as Python floats for the per-lane bar walks; ``fast`` and
        ``slow`` are the EWMAs after the last step.  The statistic bar
        and the warm-up length (``stat_threshold``, ``cw_size``) do not
        enter the series, so every lane with the same signature reuses
        it.  Cached.
        """
        key = (dim, fast_factor, slow_factor, skip)
        cached = self._newma.get(key)
        if cached is None:
            from repro.comparators.newma import element_sketch

            codes, values = self.trace.dense_codes()
            table = np.array(
                [element_sketch(value, dim) for value in values.tolist()],
                dtype=np.float64,
            ).reshape(-1, dim)
            distances, fast, slow = _newma_distances(
                codes, table, fast_factor, slow_factor, skip
            )
            cached = (distances.tolist(), fast, slow)
            self._newma[key] = cached
        return cached

    def focus_values(self, skip: int) -> List[float]:
        """FOCuS's per-step group values for ``skip``, as Python floats.

        Each value is the group's ±1 sign sum divided by its length —
        exact small integers, so ``np.add.reduceat`` reproduces
        :meth:`FocusEngine.step <repro.comparators.focus.FocusEngine.step>`'s
        ``total / group_len`` bit for bit, ragged last group included.
        The sign table is built once per bank pass and shared by every
        skip; neither the warm-up nor the bar enters the values, so
        every lane with the same skip reuses them.  Cached.
        """
        cached = self._focus.get(skip)
        if cached is None:
            if self._signs is None:
                self._signs = _focus_signs(*self.trace.dense_codes())
            signs = self._signs
            if skip > 1 and self.total:
                starts = np.arange(0, self.total, skip, dtype=np.int64)
                lengths = self.step_ends(skip) - starts
                signs = np.add.reduceat(signs, starts) / lengths
            cached = signs.tolist()
            self._focus[skip] = cached
        return cached


def _entry_anchor(window: List[int], twc: int, rn: bool) -> int:
    """The anchor inside an entry step's pre-resize TW, ``window[:twc]``,
    against its CW, ``window[twc:]``: the rule of
    :meth:`~repro.core.windows.WindowPair.anchor_index`.

    A TW element is noisy when its code is not in the CW.  RN anchors
    one right of the rightmost noisy element, so the scan walks left
    from the TW's end while the elements are in the CW (0 when all
    are); LNN anchors at the leftmost element in the CW, so the scan
    walks right from the TW's start while they are not (``twc`` when
    none is).  Both stop at the first element that decides.
    """
    cw = set(window[twc:])
    if rn:
        index = twc
        while index and window[index - 1] in cw:
            index -= 1
        return index
    index = 0
    while index < twc and window[index] not in cw:
        index += 1
    return index


def _walk_windowed(runtime, shared: SharedTraceKernels) -> None:
    """Episode walk for a windowed runtime (either analyzer, either TW
    policy).

    Every episode starts the same way: the entry is the first step of
    the cached constant series at or above the entry bar (``threshold``
    or the Average analyzer's ``enter_threshold``) at or after the first
    filled step since the last flush, and the anchor (RN or LNN) is
    computed over that step's pre-resize windows, as the reference path
    does, by :func:`_entry_anchor` on one ``tolist()`` of the step's
    ``cwc + twc`` dense codes.  The trailing policy picks the in-phase
    similarities, which :func:`_scan_exit` tests against the analyzer's
    bar, first as a scalar *head* of up to ``_HEAD_STEPS`` Python floats
    and then, only for an episode the head does not end, block by block:

    - *Constant*: entries do not move the windows, so they are the same
      series: the head is one ``tolist()`` slice of it, the blocks are
      :func:`_scan_phase_constant`;
    - *Adaptive*: the entry resize pins the TW's left edge at
      ``A = anchor_abs`` and starts the CW's at ``L = c_entry - cwc +
      moved`` (``moved = min(anchor, cwc-1)`` for SLIDE, 0 for MOVE),
      so at a later step end ``c`` CW = ``[max(L, c - cwc), c)`` and
      TW = ``[A, max(L, c - cwc))``.  Unweighted, the head is
      :func:`_scan_head_unweighted` (O(1) per element) and the blocks
      :func:`_scan_phase_unweighted`; weighted, the head is
      :func:`_scan_head_weighted` (per-code count tables) and the
      blocks :func:`_scan_weighted`.  Neither window is ever empty at
      an in-phase step ``c > c_entry``: the anchor is at most ``twc``
      into the pre-resize TW, so ``A <= c_entry - cwc`` and ``|TW| =
      max(L, c - cwc) - A >= c - c_entry >= 1``, and the entry resize
      shifts ``L`` by at most ``cwc - 1``, so ``L < c_entry < c`` and
      ``|CW| >= 1``, under MOVE and SLIDE alike.

    The carry ``(total, count)`` that leaves the scan is the phase mean's
    numerator and denominator, and the open phase's analyzer statistics.
    Step boundaries are arithmetic (step ``k`` covers ``[k*skip,
    min((k+1)*skip, total))``), never a search.

    Phases land in ``runtime.tracker`` and the final model/analyzer
    state is rebuilt bit-identically, both windows in one
    :meth:`~repro.core.windows.WindowPair._load` (an Adaptive phase open
    at the trace end keeps its pinned, growing windows); the caller
    reads the phases with ``runtime.result()``.
    """
    from repro.core.runtime import DetectedPhase

    config = runtime.config
    skip = config.skip_factor
    cwc = config.cw_size
    twc = config.effective_tw_size
    fill_span = cwc + twc
    analyzer = runtime.analyzer
    if type(analyzer) is ThresholdAnalyzer:
        enter_bar = analyzer.threshold
    else:
        enter_bar = analyzer.enter_threshold
    data = shared.data
    total = shared.total
    if total == 0:
        return
    codes, _ = shared.codes()
    step_ends = shared.step_ends(skip)
    n_steps = int(step_ends.size)
    weighted = type(runtime.model) is WeightedSetModel
    sims, counts = shared.series(weighted, cwc, twc, skip)
    phase_steps = np.flatnonzero(sims >= enter_bar)
    adaptive = config.trailing is TrailingPolicy.ADAPTIVE
    if adaptive:
        slide = config.resize is ResizePolicy.SLIDE
        prev = None if weighted else shared.prev()
        distinct_all = counts[0] if counts is not None else None

    tracker = runtime.tracker
    rn_anchor = config.anchor is AnchorPolicy.RN
    origin = 0
    cursor = 0
    phase_open = False
    while True:
        # The first step ending at or after the refill point: step k
        # ends at min((k+1)*skip, total), so it is ceil(x / skip) - 1
        # unless x is past the trace, where even a ragged last step
        # cannot fill.
        fill_end = origin + fill_span
        if fill_end > total:
            break
        first_filled = -(-fill_end // skip) - 1
        if first_filled < cursor:
            first_filled = cursor
        hit = int(np.searchsorted(phase_steps, first_filled))
        if hit >= phase_steps.size:
            break
        entry = int(phase_steps[hit])
        detected_start = entry * skip
        c_entry = min(detected_start + skip, total)
        anchor = _entry_anchor(
            codes[c_entry - fill_span : c_entry].tolist(), twc, rn_anchor
        )
        anchor_abs = (c_entry - fill_span) + anchor
        corrected = anchor_abs if anchor_abs < detected_start else detected_start
        # The head: up to _HEAD_STEPS in-phase similarities as Python
        # floats; the blocks pick up after it and run only if it ends
        # without an exit.
        head_stop = min(entry + 1 + _HEAD_STEPS, n_steps)
        if not adaptive:
            entry_sim, *head = sims[entry:head_stop].tolist()
            blocks = _scan_phase_constant(sims, head_stop, n_steps)
        else:
            entry_sim = float(sims[entry])
            tw_left = anchor_abs
            cw_left = c_entry - cwc + (min(anchor, cwc - 1) if slide else 0)
            if weighted:
                head = _scan_head_weighted(
                    codes, step_ends, entry + 1, head_stop,
                    tw_left, cw_left, cwc,
                )
                blocks = _scan_weighted(
                    codes, step_ends, skip, head_stop,
                    tw_left, cw_left, cwc, total,
                )
            else:
                head = _scan_head_unweighted(
                    prev, distinct_all, step_ends, entry + 1, head_stop,
                    tw_left, cw_left, cwc,
                )
                blocks = _scan_phase_unweighted(
                    prev, distinct_all, step_ends, head_stop,
                    tw_left, cw_left, cwc, total, n_steps,
                )
        exit_step, phase_total, phase_count = _scan_exit(
            head, blocks, entry + 1, entry_sim, analyzer
        )
        if exit_step < 0:
            phase_open = True
            tracker.open_detected = detected_start
            tracker.open_corrected = corrected
            break
        end = exit_step * skip
        c_exit = min(end + skip, total)
        mean = phase_total / phase_count
        tracker.phases.append(DetectedPhase(detected_start, corrected, end, mean))
        origin = c_exit - min(c_exit - end, cwc)
        cursor = exit_step + 1

    # ---- reconstruct the final incremental state -------------------------
    model = runtime.model
    if phase_open and adaptive:
        tw_start = tw_left
        cw_start = max(cw_left, total - cwc)
        model.filled = True
        model.growing = True
    else:
        since_origin = total - origin
        cw_len = since_origin if since_origin < cwc else cwc
        tw_len = min(max(since_origin - cwc, 0), twc)
        cw_start = total - cw_len
        tw_start = cw_start - tw_len
        model.filled = since_origin >= fill_span
        model.growing = False
    model._load(data[tw_start:cw_start].tolist(), data[cw_start:total].tolist())
    model.consumed = total
    if phase_open:
        stats = runtime.stats
        stats.count = phase_count
        stats.total = phase_total
        runtime.state = PhaseState.PHASE
    else:
        runtime.state = PhaseState.TRANSITION


def _walk_newma(engine, shared: SharedTraceKernels) -> None:
    """Bar walk for one NEWMA lane over its signature's distance series.

    Replays :meth:`NewmaEngine.step
    <repro.comparators.newma.NewmaEngine.step>` after the warm-up with
    the same scalar float operations: the EWMA moments of the distance,
    the adaptive ``mean + stat_threshold * std`` bar (judged before the
    current distance is folded in), enter/exit through ``tracker``, and
    the sequential in-phase distance sums behind each phase's mean.
    The engine is left in the exact state the ``step()`` loop leaves it
    in (EWMAs, moments, warm-up counter, consumed count, state and open
    phase statistics), so checkpoints match bit for bit; the caller
    reads the phases with ``engine.result()``.
    """
    config = engine.config
    skip = config.skip_factor
    total = shared.total
    n_steps = (total + skip - 1) // skip
    warmup = engine._warmup_left
    engine._consumed = total
    if n_steps == 0:
        return
    distances, fast, slow = shared.newma_series(
        config.sketch_dim, config.newma_fast, config.newma_slow, skip
    )
    engine._fast = fast.copy()
    engine._slow = slow.copy()
    if n_steps <= warmup:
        engine._warmup_left = warmup - n_steps
        return
    engine._warmup_left = 0

    threshold = engine.stat_threshold
    alpha = config.newma_slow
    keep = 1.0 - alpha
    tracker = engine.tracker
    # The first measurable distance seeds the moments and passes its
    # own bar, so every lane enters a phase at its first post-warm-up
    # step.
    mean = distances[warmup]
    var = 0.0
    start = warmup * skip
    tracker.enter(min(start + skip, total), start, start)
    phase_total = mean
    phase_count = 1
    in_phase = True
    for step in range(warmup + 1, n_steps):
        distance = distances[step]
        bar = mean + threshold * (var ** 0.5)
        delta = distance - mean
        mean += alpha * delta
        var = keep * (var + alpha * delta * delta)
        if distance <= bar:
            if in_phase:
                phase_total += distance
                phase_count += 1
            else:
                start = step * skip
                tracker.enter(min(start + skip, total), start, start)
                phase_total = distance
                phase_count = 1
                in_phase = True
        elif in_phase:
            end = step * skip
            tracker.exit(min(end + skip, total), end, phase_total / phase_count)
            in_phase = False

    engine._stat_mean = mean
    engine._stat_var = var
    engine._stat_seen = True
    if in_phase:
        engine.stats.count = phase_count
        engine.stats.total = phase_total
        engine.state = PhaseState.PHASE
    else:
        engine.stats.reset()
        engine.state = PhaseState.TRANSITION


def _walk_focus(engine, shared: SharedTraceKernels) -> None:
    """FOCuS0 walk for one FOCuS lane over its skip's group values.

    Replays :meth:`FocusEngine.step
    <repro.comparators.focus.FocusEngine.step>` with the same scalar
    float operations in one local-variable loop: the Welford warm-up
    (sigma falls back to 1.0 on a constant warm-up), the standardized
    ``z`` and cusum, the max over the ``pos``/``neg`` candidate hulls,
    the cross-multiplied hull pushes, and on a changepoint the phase
    exit, the reset, and the value's observation as the new warm-up's
    first.  In-phase statistics are summed sequentially behind each
    phase's mean.  The engine is left in the exact state the ``step()``
    loop leaves it in (warm-up counter, baseline, mu/sigma, t, cusum,
    both hulls, consumed count, state and open phase statistics), so
    checkpoints match bit for bit; the caller reads the phases with
    ``engine.result()``.
    """
    skip = engine.config.skip_factor
    total = shared.total
    engine._consumed = total
    values = shared.focus_values(skip)
    warmup_steps = engine._warmup_steps
    threshold = engine.stat_threshold
    tracker = engine.tracker

    warm_left = warmup_steps
    n = 0
    mean = 0.0
    m2 = 0.0
    mu = sigma = 1.0  # set when the first warm-up ends
    t = 0
    cum = 0.0
    pos = [(0, 0.0)]
    neg = [(0, 0.0)]
    in_phase = False
    phase_total = 0.0
    phase_count = 0
    start = 0
    for step, value in enumerate(values):
        if not warm_left:
            t_new = t + 1
            cum_new = cum + (value - mu) / sigma
            best = 0.0
            for t_i, cum_i in pos:  # upward mean shifts
                gain = cum_new - cum_i
                if gain > 0.0:
                    stat = gain * gain / (2.0 * (t_new - t_i))
                    if stat > best:
                        best = stat
            for t_i, cum_i in neg:  # downward mean shifts
                gain = cum_new - cum_i
                if gain < 0.0:
                    stat = gain * gain / (2.0 * (t_new - t_i))
                    if stat > best:
                        best = stat
            if best < threshold:
                t = t_new
                cum = cum_new
                while len(pos) >= 2:  # lower hull
                    t1, c1 = pos[-2]
                    t2, c2 = pos[-1]
                    if (c2 - c1) * (t_new - t2) >= (cum_new - c2) * (t2 - t1):
                        pos.pop()
                    else:
                        break
                pos.append((t_new, cum_new))
                while len(neg) >= 2:  # upper hull
                    t1, c1 = neg[-2]
                    t2, c2 = neg[-1]
                    if (c2 - c1) * (t_new - t2) <= (cum_new - c2) * (t2 - t1):
                        neg.pop()
                    else:
                        break
                neg.append((t_new, cum_new))
                if in_phase:
                    phase_total += best
                    phase_count += 1
                else:
                    start = step * skip
                    tracker.enter(min(start + skip, total), start, start)
                    phase_total = best
                    phase_count = 1
                    in_phase = True
                continue
            # Changepoint: close the open phase at the step boundary and
            # restart the warm-up with this value as its first.
            if in_phase:
                end = step * skip
                tracker.exit(min(end + skip, total), end, phase_total / phase_count)
                in_phase = False
            warm_left = warmup_steps
            n = 0
            mean = 0.0
            m2 = 0.0
            t = 0
            cum = 0.0
            pos = [(0, 0.0)]
            neg = [(0, 0.0)]
        n += 1
        delta = value - mean
        mean += delta / n
        m2 += delta * (value - mean)
        warm_left -= 1
        if not warm_left:
            mu = mean
            sigma = (m2 / (n - 1)) ** 0.5
            if not sigma > 0.0:
                sigma = 1.0

    engine._warmup_left = warm_left
    engine._base_n = n
    engine._base_mean = mean
    engine._base_m2 = m2
    engine._mu = None if warm_left else mu
    engine._sigma = None if warm_left else sigma
    engine._t = t
    engine._cum = cum
    engine._pos = pos
    engine._neg = neg
    if in_phase:
        engine.stats.count = phase_count
        engine.stats.total = phase_total
        engine.state = PhaseState.PHASE
    else:
        engine.stats.reset()
        engine.state = PhaseState.TRANSITION


def _walk_per_window(engine, shared: SharedTraceKernels) -> None:
    """Window walk for one Das Pearson or Lu DYNAMO lane.

    Replays :meth:`PerWindowEngine.step
    <repro.core.decision.PerWindowEngine.step>` at the granularity of
    the steps that complete a window, ``n // cw_size`` judgements in
    all instead of one ``step()`` call per group.  Window ``w``
    completes at step ``((w + 1) * cw_size - 1) // skip``; every window
    that step completes goes, in order, to the engine's own ``_judge``
    (the family arithmetic exists once), and the step's verdict (its
    last window's) and statistic (its last non-``None`` one) go to the
    engine's own ``_settle`` at the stream position the step leaves.
    So a phase opens or closes at the step's first element and the
    phase statistics are summed exactly as the ``step()`` loop sums
    them.  A step that completes no window changes nothing.  The engine
    is left in the exact state the ``step()`` loop leaves it in
    (trailing partial window in the buffer, in-phase flag, consumed
    count, state, open phase statistics; ``_judge`` has already
    updated the family's own state), so checkpoints match bit for bit;
    the caller reads the phases with ``engine.result()``.
    """
    skip = engine.config.skip_factor
    window = engine._window
    total = shared.total
    elements = shared.elements()
    judge = engine._judge
    settle = engine._settle
    judged = 0  # elements in the windows judged so far
    tail = total - total % window
    in_phase = False
    while judged < tail:
        first = (judged + window - 1) // skip * skip
        consumed = min(first + skip, total)
        done = consumed - consumed % window
        statistic = None
        for offset in range(judged, done, window):
            value, in_phase = judge(elements[offset : offset + window])
            if value is not None:
                statistic = value
        judged = done
        engine._consumed = consumed
        settle(in_phase, statistic, consumed - first)

    engine._consumed = total
    engine._buffer = elements[tail:]
    engine._in_phase = in_phase


def _scan_exit(
    head, blocks, first: int, entry_sim: float, analyzer
) -> Tuple[int, float, int]:
    """The in-phase exit scan shared by every trailing policy and model.

    ``head`` yields the similarities of the in-phase candidate steps
    ``first, first + 1, ...`` after the entry as Python floats (a slice
    of the constant series, :func:`_scan_head_unweighted` or
    :func:`_scan_head_weighted`);
    ``blocks`` yields ``(first_step, sims)`` blocks of the steps after
    the head (:func:`_scan_phase_constant`,
    :func:`_scan_phase_unweighted`, :func:`_scan_weighted`) and is
    only started when the head ends without an exit.  A step exits the
    phase when its similarity is below its bar:

    - Threshold: the fixed ``threshold``;
    - Average: the running in-phase mean minus ``delta``, where the mean
      is over the entry similarity (the ``reset_stats`` seed) and every
      in-phase similarity before the step.

    The ``(total, count)`` carry starts at ``(entry_sim, 1)``, runs
    through the head as ``total += sim`` and on through the blocks as
    ``np.cumsum`` (``np.add.accumulate``) seeded with it: per block for
    Average, once over the episode's blocks for Threshold.  Both add
    left to right in the same order as the incremental loops' running
    total, and ``total / count - delta`` is the same float division and
    subtraction, so every bar and every phase mean is bit-identical.

    Returns ``(exit_step, total, count)``: the first failing step (or -1
    when the phase stays open to the trace end) and the carry over the
    in-phase similarities from the entry up to (excluding) it, whose
    quotient is the phase mean.  ``blocks`` is closed before returning.
    """
    average = type(analyzer) is not ThresholdAnalyzer
    delta = analyzer.delta if average else None
    bar = None if average else analyzer.threshold
    total = entry_sim
    count = 1
    for sim in head:
        if average:
            bar = total / count - delta
        if sim < bar:
            blocks.close()
            return first + count - 1, total, count
        total += sim
        count += 1
    # An Average block needs its running total for every bar; Threshold
    # blocks defer theirs to one cumsum over all the episode's blocks.
    parts = [np.array([total])]
    exit_step = -1
    for s, blk in blocks:
        if average:
            cum = np.cumsum(np.concatenate(([total], blk)))
            bar = cum[:-1] / np.arange(count, count + blk.size) - delta
        bad = np.flatnonzero(blk < bar)
        cut = int(bad[0]) if bad.size else blk.size
        count += cut
        if average:
            total = float(cum[cut])
        else:
            parts.append(blk[:cut])
        if bad.size:
            blocks.close()
            exit_step = s + cut
            break
    if len(parts) > 1:
        total = float(np.cumsum(np.concatenate(parts))[-1])
    return exit_step, total, count


def _scan_phase_constant(sims: np.ndarray, first: int, n_steps: int):
    """In-phase similarity blocks for a Constant TW from step ``first``
    on: entries do not move the windows, so they are the cached constant
    series itself."""
    for s in range(first, n_steps, _BLOCK_STEPS):
        yield s, sims[s : s + _BLOCK_STEPS]


def _scan_head_unweighted(
    prev: np.ndarray,
    distinct_all: np.ndarray,
    step_ends: np.ndarray,
    first: int,
    stop: int,
    tw_left: int,
    cw_left: int,
    cwc: int,
):
    """Scalar in-phase unweighted similarities of one Adaptive episode's
    steps ``first .. stop-1``: the head of :func:`_scan_exit`.

    Same geometry as :func:`_scan_phase_unweighted`: at step end ``c``
    the CW is ``[left, c)`` with ``left = max(L, c - cwc)`` and the TW
    ends at ``left`` from ``A = tw_left <= L = cw_left``.  An occurrence
    ``i`` in the CW is a distinct member iff ``prev[i] < left``, and a
    member shared with the TW iff also ``prev[i] >= A``; so the members
    *not* shared are exactly the occurrences with ``prev[i] < A``, a
    count that slides in O(1) per element: ``+1`` for an entering
    element whose ``prev`` is below ``A``, ``-1`` for a leaving one.
    While the CW refills (``left == L``) the distinct count grows by the
    entering elements with ``prev < L``; once it slides it is the shared
    per-window-start ``distinct_all[c - cwc]``.  The similarity is
    ``(distinct - unshared) / distinct``, the same ``int / int`` as the
    blockwise scan's.  ``prev`` is decoded once, from ``L`` to the last
    head step's end: the window ``[L, c_entry)`` left by the entry's
    resize enters with the first step's elements, and the entering and
    leaving elements are all slices of that one list.
    """
    if first >= stop:
        return
    ends = step_ends[first:stop].tolist()
    seq = prev[cw_left : ends[-1]].tolist()
    last_left = ends[-1] - cwc
    if last_left > cw_left:
        slid = distinct_all[cw_left + 1 : last_left + 1].tolist()
    distinct = 0
    unshared = 0
    right = cw_left
    left = cw_left
    for c in ends:
        for p in seq[right - cw_left : c - cw_left]:
            if p < tw_left:
                unshared += 1
                distinct += 1
            elif p < cw_left:
                distinct += 1
        right = c
        if c - cwc > cw_left:
            for p in seq[left - cw_left : c - cwc - cw_left]:
                if p < tw_left:
                    unshared -= 1
            left = c - cwc
            distinct = slid[left - cw_left - 1]
        yield (distinct - unshared) / distinct


def _scan_head_weighted(
    codes: np.ndarray,
    step_ends: np.ndarray,
    first: int,
    stop: int,
    tw_left: int,
    cw_left: int,
    cwc: int,
):
    """Scalar in-phase weighted similarities of one Adaptive episode's
    steps ``first .. stop-1``: the weighted twin of
    :func:`_scan_head_unweighted`.

    Same geometry as :func:`_scan_weighted`: at step end ``c`` the
    CW is ``[left, c)`` with ``left = max(L, c - cwc)`` and the TW is
    ``[A, left)``.  Two per-code count tables, seeded once from
    ``codes[A:c_entry]``, follow the windows: an entering element adds
    to the CW's count, a leaving one moves from the CW's count to the
    TW's (the TW only grows in phase).  Each step's numerator
    ``sum_e min(cw_e * T, tw_e * C)`` runs over the CW's distinct codes
    (a code absent from the CW adds nothing), an exact integer, so the
    one ``int / int`` equals the blocks' true division.  Neither window
    is empty at an in-phase step (the argument is in
    :func:`_walk_windowed`), so the quotient needs no guard.
    """
    if first >= stop:
        return
    c_entry = int(step_ends[first - 1])
    ends = step_ends[first:stop].tolist()
    seq = codes[tw_left : ends[-1]].tolist()
    tw = Counter(seq[: cw_left - tw_left])
    cw = Counter(seq[cw_left - tw_left : c_entry - tw_left])
    tw_get = tw.get
    cw_get = cw.get
    right = c_entry
    left = cw_left
    for c in ends:
        for e in seq[right - tw_left : c - tw_left]:
            cw[e] = cw_get(e, 0) + 1
        right = c
        if c - cwc > left:
            for e in seq[left - tw_left : c - cwc - tw_left]:
                n = cw[e] - 1
                if n:
                    cw[e] = n
                else:
                    del cw[e]
                tw[e] = tw_get(e, 0) + 1
            left = c - cwc
        cw_len = c - left
        tw_len = left - tw_left
        snum = 0
        for e, n in cw.items():
            a = n * tw_len
            b = tw_get(e, 0) * cw_len
            snum += a if a < b else b
        yield snum / (cw_len * tw_len)


def _scan_phase_unweighted(
    prev: np.ndarray,
    distinct_all: np.ndarray,
    step_ends: np.ndarray,
    first: int,
    tw_left: int,
    cw_left: int,
    cwc: int,
    total: int,
    n_steps: int,
):
    """Blockwise in-phase unweighted similarities for one Adaptive episode.

    Geometry per step end ``c``: CW = ``[max(L, c-cwc), c)``, TW =
    ``[A, max(L, c-cwc))`` with ``A = tw_left``, ``L = cw_left``.  Two
    regimes:

    - *refill* (``c <= L + cwc``): the CW is still refilling from
      ``L``.  An occurrence ``i`` in ``[L, c)`` is a distinct CW member
      iff ``prev[i] < L`` (its element's first CW occurrence), and
      shared with the TW iff additionally ``prev[i] >= A`` — its latest
      earlier occurrence is the TW's membership witness.  Both counts
      are prefix sums over ``prev[L : L+cwc]``, computed once per
      episode and only if a block holds a refill step.
    - *slide* (``c > L + cwc``): the CW is the plain trailing window at
      start ``l = c - cwc``, so ``distinct(l)`` is the globally shared
      per-window-start array.  Its members not shared with the TW are
      the occurrences with ``prev[i] < A`` (as in
      :func:`_scan_head_unweighted`), so ``shared = distinct(l) -
      unshared``.  ``unshared`` is counted once, over the CW ending at
      ``e0 = max(L + cwc, c_head)`` (``c_head`` the head's last step
      end), and carried from element ``e0`` to each block's last step
      end ``e1`` as ``cumsum((prev[e0:e1] < A) - (prev[e0-cwc:e1-cwc] <
      A))``, so a block costs O(block), whatever the CW.

    Every similarity is the same ``int / int`` of exact counts.  Yields
    ``(first_step, sims)`` per block of steps from ``first`` on (the
    steps after the episode's head); :func:`_scan_exit` starts it only
    when the head ends without an exit, and stops it at the exit.
    """
    refill_end = cw_left + cwc
    d_cum = s_cum = None
    e0 = max(refill_end, int(step_ends[first - 1]))
    unshared = None
    for s in range(first, n_steps, _BLOCK_STEPS):
        ends_blk = step_ends[s : s + _BLOCK_STEPS]
        n_refill = 0
        if ends_blk[0] <= refill_end:
            n_refill = int(np.searchsorted(ends_blk, refill_end, side="right"))
            if d_cum is None:
                seg_prev = prev[cw_left : min(refill_end, total)]
                rep = seg_prev < cw_left
                d_cum = np.concatenate(([0], np.cumsum(rep)))
                shared = rep & (seg_prev >= tw_left)
                s_cum = np.concatenate(([0], np.cumsum(shared)))
        if n_refill == ends_blk.size:
            r = ends_blk - cw_left
            # d_cum[r] >= 1 always: the CW's first element (offset
            # cw_left) trivially has prev < cw_left.
            yield s, s_cum[r] / d_cum[r]
            continue
        if unshared is None:
            unshared = int(np.count_nonzero(prev[e0 - cwc : e0] < tw_left))
        ends_sl = ends_blk[n_refill:]
        e1 = int(ends_sl[-1])
        below = (prev[e0:e1] < tw_left).view(np.int8)
        gone = (prev[e0 - cwc : e1 - cwc] < tw_left).view(np.int8)
        carried = np.cumsum(below - gone, dtype=np.int64)
        carried += unshared
        distinct = distinct_all[ends_sl - cwc]
        sims = (distinct - carried[ends_sl - (e0 + 1)]) / distinct
        unshared = int(carried[-1])
        e0 = e1
        if n_refill:
            r = ends_blk[:n_refill] - cw_left
            sims = np.concatenate((s_cum[r] / d_cum[r], sims))
        yield s, sims


#: The walk :func:`run_bank_batched` runs per engine ``family``.
_WALKS = {
    "windowed": _walk_windowed,
    "newma": _walk_newma,
    "focus": _walk_focus,
    "das_pearson": _walk_per_window,
    "lu_dynamo": _walk_per_window,
}


def run_bank_batched(runtimes, trace, histogram=None) -> None:
    """Advance all vectorized-eligible bank ``runtimes`` over ``trace``.

    One :class:`SharedTraceKernels` instance funnels every lane's series
    computation: the dense-code decode, previous-occurrence links, step
    boundaries, each distinct ``(weighted, cw, tw, skip)`` similarity
    series, each distinct NEWMA ``(sketch_dim, fast, slow, skip)``
    distance series, the FOCuS sign table and per-skip group values and
    the per-window families' element list are computed once and shared,
    so N lanes cost one series pass per
    signature plus N cheap walks — instead of N full passes.  Lane
    order, per-lane results and checkpoints are exactly those of
    one-lane calls (the sharing is a pure cache).
    ``histogram`` optionally receives one per-lane duration observation,
    matching the bank's per-member timing.

    Each windowed lane walks its episodes with :func:`_walk_windowed`,
    each NEWMA lane its bar with :func:`_walk_newma`, each FOCuS lane
    its recursion with :func:`_walk_focus`, each Das Pearson and Lu
    DYNAMO lane its windows with :func:`_walk_per_window` (picked by the
    engine's ``family``); all leave the engine in the exact state its
    incremental loop would, phases in its tracker, and the caller reads
    each lane's phases with the engine's ``result()``.  Raises
    :class:`ValueError`, before touching any lane, when one is not
    :func:`vectorized_eligible`.
    """
    if not all(vectorized_eligible(runtime) for runtime in runtimes):
        raise ValueError("runtime is not eligible for the vectorized kernel")
    shared = SharedTraceKernels(trace)
    for runtime in runtimes:
        started = time.perf_counter() if histogram is not None else 0.0
        _WALKS[runtime.family](runtime, shared)
        if histogram is not None:
            histogram.observe(time.perf_counter() - started)
