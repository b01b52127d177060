"""Window bookkeeping shared by the similarity models.

The model keeps two adjacent windows over the element stream: the
current window (CW) holds the most recently consumed elements and the
trailing window (TW) the elements before them.  Elements flow
stream → CW → TW → discard; with the Adaptive TW policy in phase, the
TW stops discarding and grows to hold the whole phase.

The windows are always contiguous and end at the read position, so the
absolute trace offset of the TW's left edge is derivable — that is what
the anchor-corrected phase starts of Figure 8 use.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Iterable, List

from repro.core.config import AnchorPolicy, ResizePolicy
from repro.obs.events import observes


class WindowPair:
    """The CW/TW buffers plus multiset counts, with change hooks.

    Subclasses (the similarity models) override the ``_on_*`` hooks to
    maintain their aggregates incrementally.
    """

    def __init__(self, cw_capacity: int, tw_capacity: int) -> None:
        if cw_capacity <= 0 or tw_capacity <= 0:
            raise ValueError("window capacities must be positive")
        self.cw_capacity = cw_capacity
        self.tw_capacity = tw_capacity
        self._cw: Deque[int] = deque()
        self._tw: Deque[int] = deque()
        self.cw_counts: Dict[int, int] = {}
        self.tw_counts: Dict[int, int] = {}
        #: Total elements consumed since the start of the trace.
        self.consumed = 0
        #: True once both windows have filled (cleared by :meth:`clear_and_seed`).
        self.filled = False
        #: True while the Adaptive TW is growing (in phase).
        self.growing = False
        #: Optional observability sink (anything with ``emit(event)``,
        #: optionally ``kinds``); None — the default — costs nothing
        #: beyond this attribute.
        self.observer = None

    # -- hooks ---------------------------------------------------------------

    def _on_cw_add(self, element: int, new_count: int) -> None:
        """Called after ``element``'s CW count becomes ``new_count``."""

    def _on_cw_remove(self, element: int, new_count: int) -> None:
        """Called after ``element``'s CW count becomes ``new_count``."""

    def _on_tw_add(self, element: int, new_count: int) -> None:
        """Called after ``element``'s TW count becomes ``new_count``."""

    def _on_tw_remove(self, element: int, new_count: int) -> None:
        """Called after ``element``'s TW count becomes ``new_count``."""

    # -- primitive moves -------------------------------------------------------

    def _cw_add(self, element: int) -> None:
        self._cw.append(element)
        count = self.cw_counts.get(element, 0) + 1
        self.cw_counts[element] = count
        self._on_cw_add(element, count)

    def _cw_pop_left(self) -> int:
        element = self._cw.popleft()
        count = self.cw_counts[element] - 1
        if count:
            self.cw_counts[element] = count
        else:
            del self.cw_counts[element]
        self._on_cw_remove(element, count)
        return element

    def _tw_add(self, element: int) -> None:
        self._tw.append(element)
        count = self.tw_counts.get(element, 0) + 1
        self.tw_counts[element] = count
        self._on_tw_add(element, count)

    def _tw_pop_left(self) -> int:
        element = self._tw.popleft()
        count = self.tw_counts[element] - 1
        if count:
            self.tw_counts[element] = count
        else:
            del self.tw_counts[element]
        self._on_tw_remove(element, count)
        return element

    # -- streaming ---------------------------------------------------------------

    def push(self, elements: Iterable[int]) -> None:
        """Consume ``elements``: fill/slide the windows one element at a time."""
        for element in elements:
            self.consumed += 1
            self._cw_add(element)
            if len(self._cw) > self.cw_capacity:
                self._tw_add(self._cw_pop_left())
                if not self.growing and len(self._tw) > self.tw_capacity:
                    self._tw_pop_left()
        if (
            not self.filled
            and len(self._tw) >= self.tw_capacity
            and len(self._cw) >= self.cw_capacity
        ):
            self.filled = True

    def clear_and_seed(self, seed_elements: List[int]) -> None:
        """Flush both windows and restart the CW with ``seed_elements``.

        Called at phase end (Figure 3's ``clearWindows``): the CW is
        re-initialized with the last ``skipFactor`` profile elements.
        ``consumed`` is not altered — the seed elements were already
        counted when they streamed in.
        """
        self._cw.clear()
        self._tw.clear()
        self.cw_counts.clear()
        self.tw_counts.clear()
        self.filled = False
        self.growing = False
        self._reset_aggregates()
        for element in seed_elements[-self.cw_capacity :]:
            self._cw_add(element)
        if observes(self.observer, "window_flush"):
            self.observer.emit(
                {
                    "ev": "window_flush",
                    "step": self.consumed,
                    "seeded": min(len(seed_elements), self.cw_capacity),
                }
            )

    def _reset_aggregates(self) -> None:
        """Reset model aggregates after a flush (hook for subclasses)."""

    def _load(self, tw: List[int], cw: List[int]) -> None:
        """Fill both empty windows at once: the state ``_tw_add`` over
        ``tw`` then ``_cw_add`` over ``cw`` would leave, counts in the
        same insertion order.  The vectorized walks' final state and
        checkpoint restore load windows this way."""
        self._tw.extend(tw)
        self._cw.extend(cw)
        self.tw_counts.update(Counter(tw))
        self.cw_counts.update(Counter(cw))
        self._rebuild_aggregates()

    def _rebuild_aggregates(self) -> None:
        """Recompute model aggregates from the counts after :meth:`_load`
        (hook for subclasses)."""

    # -- geometry ---------------------------------------------------------------

    @property
    def cw_length(self) -> int:
        return len(self._cw)

    @property
    def tw_length(self) -> int:
        return len(self._tw)

    @property
    def tw_start_abs(self) -> int:
        """Absolute trace offset of the TW's leftmost element."""
        return self.consumed - len(self._cw) - len(self._tw)

    # -- anchoring (Section 5) ------------------------------------------------------

    def anchor_index(self, policy: AnchorPolicy) -> int:
        """Find the anchor point inside the TW.

        Noisy elements are those in the TW but not in the CW.  RN
        anchors one element right of the rightmost noisy element; LNN
        anchors at the leftmost non-noisy element.  With no noisy
        elements both anchor at 0; with only noisy elements both anchor
        at the TW's end (an empty phase prefix).
        """
        cw_counts = self.cw_counts
        if policy is AnchorPolicy.RN:
            anchor = 0
            for index, element in enumerate(self._tw):
                if element not in cw_counts:
                    anchor = index + 1
            return anchor
        for index, element in enumerate(self._tw):
            if element in cw_counts:
                return index
        return len(self._tw)

    def anchor_and_resize(
        self, anchor_policy: AnchorPolicy, resize_policy: ResizePolicy, adaptive: bool
    ) -> int:
        """Anchor the TW at phase start; return the anchor's absolute offset.

        For the Adaptive TW the windows are resized per ``resize_policy``
        and the TW switches to growth mode.  For the Constant TW this
        only computes the anchor position (used for corrected
        boundaries); the windows are untouched.
        """
        anchor = self.anchor_index(anchor_policy)
        anchor_abs = self.tw_start_abs + anchor
        if not adaptive:
            return anchor_abs
        moved = 0
        if resize_policy is ResizePolicy.SLIDE:
            # Drop TW[:anchor]; refill the TW from the CW's left so its
            # left boundary lands on the anchor point.  The CW shrinks
            # and refills as the stream continues.
            for _ in range(anchor):
                self._tw_pop_left()
            moved = max(0, min(anchor, len(self._cw) - 1))
            for _ in range(moved):
                self._tw_add(self._cw_pop_left())
        else:  # MOVE: shrink the TW from the left; CW unaffected.
            for _ in range(anchor):
                self._tw_pop_left()
        self.growing = True
        if observes(self.observer, "tw_resize"):
            self.observer.emit(
                {
                    "ev": "tw_resize",
                    "step": self.consumed,
                    "anchor": anchor,
                    "dropped": anchor,
                    "moved": moved,
                    "policy": resize_policy.value,
                }
            )
        return anchor_abs
