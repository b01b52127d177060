"""NEWMA (arXiv 1805.08061): dual-forgetting-factor EWMA phase detection.

NEWMA (No-prior-knowledge Exponentially Weighted Moving Average) tracks
*two* exponentially weighted averages of the same feature stream — one
with a fast forgetting factor, one slow — and monitors the distance
between them.  On a stationary stream both converge to the same mean
and the distance is small; after a change the fast average moves first
and the distance spikes.  Unlike CUSUM-style tests it needs no
pre-change model at all (both averages are learned online), and unlike
window methods it stores no samples — just the two running vectors.

The feature map matters: comparing raw element means would collapse the
branch stream to one dimension.  Following the paper's random-features
construction we embed each profile element as a deterministic ±1 sketch
(``sketch_dim`` splitmix64-derived signs), so the EWMAs live in a space
where distinct working sets are nearly orthogonal and the L2 distance
between the averages estimates how much the recent element mixture has
drifted from the longer-term mixture.

Decision mapping: the steady-state distance depends on the stream's
working-set diversity, so — as the paper prescribes — the bar adapts:
the engine tracks EWMA moments of the distance itself and flags drift
when the distance exceeds ``mean + stat_threshold · std`` (the
windowed grid's Average analyzer uses the same adapt-to-your-own-
statistic idea).  Distance at/below the bar → the fast and slow views
agree → **phase**; above → drift → transition.  No explicit reset is
needed on exit — the forgetting factors decay the old behavior out of
both averages, which is the family's natural hysteresis (re-entry
happens once the averages reconverge and the moments re-adapt).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.decision import (
    CheckpointError,
    DecisionEngine,
    PhaseDecision,
    checkpoint_bool,
    checkpoint_float,
    checkpoint_int,
)

__all__ = ["NewmaEngine", "NEWMA_STAT_THRESHOLD", "element_sketch"]

#: Default decision bar, in standard deviations of the distance's own
#: running (EWMA) distribution: drift is flagged when the distance
#: exceeds ``mean + NEWMA_STAT_THRESHOLD * std``.  Scale-free — the
#: steady-state distance level depends on the stream's working-set
#: diversity, which the running moments absorb.
NEWMA_STAT_THRESHOLD = 4.0

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_ADD = 0xD1B54A32D192ED03


def element_sketch(element: int, dim: int) -> np.ndarray:
    """Deterministic ±1 sketch of one profile element.

    A splitmix64 stream seeded by the element supplies 64 sign bits per
    draw — deterministic across processes (no Python ``hash()`` salt),
    so checkpoints restore to bit-identical continuations anywhere.
    """
    out = np.empty(dim, dtype=np.float64)
    state = (element * _GOLDEN + _SEED_ADD) & _MASK64
    bits = 0
    have = 0
    for index in range(dim):
        if have == 0:
            state = (state + _GOLDEN) & _MASK64
            word = state
            word = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            word = ((word ^ (word >> 27)) * 0x94D049BB133111EB) & _MASK64
            word ^= word >> 31
            bits = word
            have = 64
        out[index] = 1.0 if bits & 1 else -1.0
        bits >>= 1
        have -= 1
    return out


class NewmaEngine(DecisionEngine):
    """Dual-EWMA distance over hashed element sketches.

    Configuration mapping (see :class:`~repro.core.config.DetectorConfig`):
    ``cw_size`` sets the warm-up length in elements (both averages must
    see some stream before their distance means anything),
    ``skip_factor`` the elements per step, ``newma_fast``/``newma_slow``
    the two forgetting factors (fast > slow; ``newma_slow`` also drives
    the bar's moment tracking), ``sketch_dim`` the sketch
    dimensionality, and ``stat_threshold`` the bar in std units
    (default :data:`NEWMA_STAT_THRESHOLD`).  Window-policy fields are
    ignored; the whole engine state is the two ``sketch_dim``-vectors
    plus the two moment scalars.
    """

    family = "newma"

    def __init__(self, config: DetectorConfig, observer=None, metrics=None) -> None:
        super().__init__(config, observer=observer, metrics=metrics)
        self.stat_threshold = (
            config.stat_threshold
            if config.stat_threshold is not None
            else NEWMA_STAT_THRESHOLD
        )
        self._warmup_steps = max(2, config.cw_size // config.skip_factor)
        self._warmup_left = self._warmup_steps
        dim = config.sketch_dim
        self._fast = np.zeros(dim, dtype=np.float64)
        self._slow = np.zeros(dim, dtype=np.float64)
        # EWMA moments of the distance statistic (the adaptive bar).
        self._stat_mean = 0.0
        self._stat_var = 0.0
        self._stat_seen = False
        # Sketches are pure functions of the element — cached here but
        # deliberately NOT checkpointed (recomputed on demand).
        self._sketch_cache: Dict[int, np.ndarray] = {}

    def _group_feature(self, elements: Sequence[int]) -> np.ndarray:
        cache = self._sketch_cache
        dim = self.config.sketch_dim
        if len(elements) == 1:
            element = elements[0]
            sketch = cache.get(element)
            if sketch is None:
                sketch = element_sketch(element, dim)
                cache[element] = sketch
            return sketch  # read-only below; never mutated in place
        total = np.zeros(dim, dtype=np.float64)
        for element in elements:
            sketch = cache.get(element)
            if sketch is None:
                sketch = element_sketch(element, dim)
                cache[element] = sketch
            total += sketch
        total /= len(elements)
        return total

    # -- the per-step contract -------------------------------------------------

    def step(self, elements: Sequence[int]) -> PhaseDecision:
        group_len = len(elements)
        self._consumed += group_len
        feature = self._group_feature(elements)
        fast_factor = self.config.newma_fast
        slow_factor = self.config.newma_slow
        self._fast = self._fast * (1.0 - fast_factor) + feature * fast_factor
        self._slow = self._slow * (1.0 - slow_factor) + feature * slow_factor

        if self._warmup_left > 0:
            self._warmup_left -= 1
            # Both averages still carry their zero initialization; the
            # distance is initialization artifact, not signal.
            return PhaseDecision(self.state, None)

        diff = self._fast - self._slow
        distance = float(np.sqrt(np.dot(diff, diff)))

        # Adaptive bar from the statistic's own EWMA moments — computed
        # *before* folding the current distance in, so a spike is judged
        # against the pre-spike distribution.
        if self._stat_seen:
            bar = self._stat_mean + self.stat_threshold * (self._stat_var ** 0.5)
        else:
            # First measurable distance seeds the moments; nothing to
            # compare against yet, so it trivially passes.
            bar = distance
        in_phase = distance <= bar
        alpha = self.config.newma_slow
        if self._stat_seen:
            delta = distance - self._stat_mean
            self._stat_mean += alpha * delta
            self._stat_var = (1.0 - alpha) * (self._stat_var + alpha * delta * delta)
        else:
            self._stat_mean = distance
            self._stat_var = 0.0
            self._stat_seen = True

        self._emit_decision(distance, in_phase, bar)
        return self._settle(in_phase, distance, group_len)

    # -- checkpointing ---------------------------------------------------------

    def _engine_state(self) -> Dict[str, object]:
        # float64 -> Python float -> JSON repr round-trips exactly, so
        # the restored vectors are bit-identical.
        return {
            "warmup_left": self._warmup_left,
            "fast": [float(value) for value in self._fast],
            "slow": [float(value) for value in self._slow],
            "stat_mean": self._stat_mean,
            "stat_var": self._stat_var,
            "stat_seen": self._stat_seen,
        }

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Restore, rejecting any state ``step()`` could never reach."""
        warmup_left = checkpoint_int(
            payload["warmup_left"], "newma checkpoint warmup_left"
        )
        if not 0 <= warmup_left <= self._warmup_steps:
            raise CheckpointError(
                f"newma checkpoint warmup_left={warmup_left} outside "
                f"[0, {self._warmup_steps}]"
            )
        dim = self.config.sketch_dim
        sketches = []
        for name in ("fast", "slow"):
            values = payload[name]
            if not isinstance(values, list) or len(values) != dim:
                raise CheckpointError(
                    f"newma checkpoint {name} sketch {values!r:.80} is not "
                    f"a list of sketch_dim={dim} numbers"
                )
            sketches.append(
                np.array(
                    [
                        checkpoint_float(value, f"newma checkpoint {name} entry")
                        for value in values
                    ],
                    dtype=np.float64,
                )
            )
        stat_mean = checkpoint_float(payload["stat_mean"], "newma checkpoint stat_mean")
        stat_var = checkpoint_float(payload["stat_var"], "newma checkpoint stat_var")
        if stat_var < 0.0:
            raise CheckpointError(f"newma checkpoint stat_var={stat_var} is negative")
        self._warmup_left = warmup_left
        self._fast, self._slow = sketches
        self._stat_mean = stat_mean
        self._stat_var = stat_var
        self._stat_seen = checkpoint_bool(
            payload["stat_seen"], "newma checkpoint stat_seen"
        )
