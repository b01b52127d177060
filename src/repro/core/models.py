"""Similarity models (Section 2, "Model Policy").

Two models are provided, both built on :class:`~repro.core.windows.WindowPair`:

- :class:`UnweightedSetModel` — asymmetric working-set similarity: the
  fraction of the CW's *distinct* elements that also appear in the TW.
  Maintained incrementally in O(1) per element move.
- :class:`WeightedSetModel` — symmetric weighted similarity: for each
  element, its relative weight in each window (count / window length);
  the similarity is the sum over elements of the minimum of the two
  relative weights.

These classes are the semantic reference for the model policy.  The
fused loop of :mod:`repro.core.runtime` inlines the same bookkeeping
and the vectorized kernels of :mod:`repro.core.kernels` recompute it
with array operations over dense codes (both bit-identical, pinned by
the kernel equivalence suites); any change to similarity semantics here
must be reflected there.
"""

from __future__ import annotations


from repro.core.config import DetectorConfig, ModelKind
from repro.core.windows import WindowPair


class SimilarityModel(WindowPair):
    """Base class: a window pair that can report a similarity value."""

    def similarity(self) -> float:
        """Similarity of the two windows, in [0, 1]."""
        raise NotImplementedError


class UnweightedSetModel(SimilarityModel):
    """Asymmetric unweighted (working-set) similarity.

    ``similarity = |distinct(CW) ∩ distinct(TW)| / |distinct(CW)|``

    E.g. CW = {a, b} and TW = {a, c} gives 0.5 regardless of how often
    ``a`` occurs in either window.
    """

    def __init__(self, cw_capacity: int, tw_capacity: int) -> None:
        self._distinct_cw = 0
        self._shared = 0  # distinct elements present in both windows
        super().__init__(cw_capacity, tw_capacity)

    def _reset_aggregates(self) -> None:
        self._distinct_cw = 0
        self._shared = 0

    def _rebuild_aggregates(self) -> None:
        self._distinct_cw = len(self.cw_counts)
        self._shared = len(self.cw_counts.keys() & self.tw_counts.keys())

    def _on_cw_add(self, element: int, new_count: int) -> None:
        if new_count == 1:
            self._distinct_cw += 1
            if element in self.tw_counts:
                self._shared += 1

    def _on_cw_remove(self, element: int, new_count: int) -> None:
        if new_count == 0:
            self._distinct_cw -= 1
            if element in self.tw_counts:
                self._shared -= 1

    def _on_tw_add(self, element: int, new_count: int) -> None:
        if new_count == 1 and element in self.cw_counts:
            self._shared += 1

    def _on_tw_remove(self, element: int, new_count: int) -> None:
        if new_count == 0 and element in self.cw_counts:
            self._shared -= 1

    def similarity(self) -> float:
        if self._distinct_cw == 0:
            return 0.0
        return self._shared / self._distinct_cw


class WeightedSetModel(SimilarityModel):
    """Symmetric weighted similarity.

    For each element ``e``: ``w_cw(e) = count_cw(e) / |CW|`` and
    ``w_tw(e) = count_tw(e) / |TW|``; the similarity is
    ``sum_e min(w_cw(e), w_tw(e))``.  Only elements present in the CW
    can contribute, so the sum iterates the CW's distinct elements.
    """

    def similarity(self) -> float:
        cw_length = len(self._cw)
        tw_length = len(self._tw)
        if cw_length == 0 or tw_length == 0:
            return 0.0
        tw_counts = self.tw_counts
        total = 0.0
        for element, cw_count in self.cw_counts.items():
            tw_count = tw_counts.get(element)
            if tw_count is not None:
                total += min(cw_count * tw_length, tw_count * cw_length)
        return total / (cw_length * tw_length)


def build_model(config: DetectorConfig) -> SimilarityModel:
    """Instantiate the model named by ``config``."""
    if config.model is ModelKind.UNWEIGHTED:
        return UnweightedSetModel(config.cw_size, config.effective_tw_size)
    return WeightedSetModel(config.cw_size, config.effective_tw_size)
