"""FOCuS (arXiv 2110.08205): functional-pruning CUSUM phase detection.

The classic CUSUM changepoint test needs the post-change mean to be
known; running one CUSUM per candidate change magnitude is exact but
costs O(n) statistics per step.  FOCuS (Functional Online CUSUM) shows
the maximization over *all* magnitudes simultaneously reduces to a
maximization over candidate change *times*, and that the candidates
that can ever attain the maximum are exactly the vertices of the convex
hull of the cumulative-sum path — so each new observation prunes the
candidate set with an amortized O(1) hull update (O(log n) expected
hull size for the statistic scan), while remaining exactly equivalent
to the infinite bank of CUSUMs.

We apply it to the branch-profile stream: each ``skipFactor`` group is
reduced to the mean of a deterministic ±1 hash of its elements (a
1-dimensional random projection of the branch-frequency vector), the
pre-change mean/scale are estimated over a warm-up prefix, and the
two-sided FOCuS statistic over the standardized stream drives the
phase decisions:

- statistic below ``stat_threshold`` → the recent stream matches the
  baseline → **phase** (the paper's P state);
- statistic at/above the bar → a changepoint — the phase (if open)
  ends, the baseline and candidate set reset, and a fresh warm-up
  re-estimates the new behavior (the windowed grid's ``clear_and_seed``
  analog).

This is the FOCuS0 (known pre-change parameters) variant, with the
pre-change parameters re-estimated after every detection; see
``docs/detectors.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DetectorConfig
from repro.core.decision import (
    CheckpointError,
    DecisionEngine,
    PhaseDecision,
    checkpoint_float,
    checkpoint_int,
)
from repro.core.state import PhaseState

__all__ = ["FocusEngine", "FOCUS_STAT_THRESHOLD", "hash_sign"]

#: Default decision bar for the FOCuS statistic.  Under the null the
#: statistic behaves like half a chi-squared(1) of the best candidate;
#: 16.0 ≈ a one-sided 5.7-sigma peak — high enough that hash noise on a
#: stable stream stays below it, low enough that real mixture shifts in
#: the branch stream cross it within a few hundred steps.
FOCUS_STAT_THRESHOLD = 16.0

_MASK64 = (1 << 64) - 1
#: splitmix64 / Fibonacci-hashing constants — deterministic across
#: processes and runs, unlike Python's salted ``hash()``.
_MIX_MULT = 0x9E3779B97F4A7C15
_MIX_ADD = 0xD1B54A32D192ED03


def hash_sign(element: int) -> float:
    """Deterministic ±1 hash of a profile element (its top mixed bit)."""
    mixed = (element * _MIX_MULT + _MIX_ADD) & _MASK64
    return 1.0 if mixed >> 63 else -1.0


class FocusEngine(DecisionEngine):
    """Two-sided FOCuS0 over the hashed branch-frequency stream.

    Configuration mapping (see :class:`~repro.core.config.DetectorConfig`):
    ``cw_size`` is the warm-up length in elements (the baseline
    estimation prefix, re-run after every detection), ``skip_factor``
    the elements per step, and ``stat_threshold`` the decision bar
    (default :data:`FOCUS_STAT_THRESHOLD`).  Window-policy fields are
    ignored — there is no window buffer at all; per-step state is the
    cumulative sum and the two pruned candidate hulls.
    """

    family = "focus"

    def __init__(self, config: DetectorConfig, observer=None, metrics=None) -> None:
        super().__init__(config, observer=observer, metrics=metrics)
        self.stat_threshold = (
            config.stat_threshold
            if config.stat_threshold is not None
            else FOCUS_STAT_THRESHOLD
        )
        #: Warm-up steps per baseline estimate (>= 2 so variance exists).
        self._warmup_steps = max(2, config.cw_size // config.skip_factor)
        self._sign_cache: Dict[int, float] = {}
        self._reset_baseline()

    # -- baseline estimation ---------------------------------------------------

    def _reset_baseline(self) -> None:
        """Forget everything: new warm-up, empty candidate hulls."""
        self._warmup_left = self._warmup_steps
        # Welford accumulator over the warm-up step values.
        self._base_n = 0
        self._base_mean = 0.0
        self._base_m2 = 0.0
        # Standardized pre-change parameters (set when warm-up ends).
        self._mu: Optional[float] = None
        self._sigma: Optional[float] = None
        # Cumulative-sum path and the two candidate hulls.  Each hull
        # entry is a (t, T) vertex of the cusum path; (0, 0.0) is the
        # "change immediately after the baseline" candidate.
        self._t = 0
        self._cum = 0.0
        self._pos: List[Tuple[int, float]] = [(0, 0.0)]
        self._neg: List[Tuple[int, float]] = [(0, 0.0)]

    def _warmup_observe(self, value: float) -> None:
        self._base_n += 1
        delta = value - self._base_mean
        self._base_mean += delta / self._base_n
        self._base_m2 += delta * (value - self._base_mean)
        self._warmup_left -= 1
        if self._warmup_left == 0:
            self._mu = self._base_mean
            variance = self._base_m2 / (self._base_n - 1)
            sigma = variance ** 0.5
            # A perfectly constant warm-up (e.g. a single repeated
            # element) gives sigma 0; unit scale keeps z finite and
            # makes any later deviation register at full strength.
            self._sigma = sigma if sigma > 0.0 else 1.0

    # -- the FOCuS statistic ---------------------------------------------------

    def _statistic(self, t_new: int, cum_new: float) -> float:
        """Max CUSUM statistic over the pruned candidate change times."""
        best = 0.0
        for t_i, cum_i in self._pos:  # upward mean shifts
            gain = cum_new - cum_i
            if gain > 0.0:
                value = gain * gain / (2.0 * (t_new - t_i))
                if value > best:
                    best = value
        for t_i, cum_i in self._neg:  # downward mean shifts
            gain = cum_new - cum_i
            if gain < 0.0:
                value = gain * gain / (2.0 * (t_new - t_i))
                if value > best:
                    best = value
        return best

    @staticmethod
    def _push_hull(hull: List[Tuple[int, float]], t: int, cum: float, lower: bool) -> None:
        """Append (t, cum), pruning dominated candidates (FOCuS lemma 1).

        ``lower`` keeps the lower convex hull of the cusum path (the
        up-shift candidates); ``False`` keeps the upper hull (the
        down-shift candidates).  A vertex inside the hull can never
        maximize the statistic for any future observation, so popping
        it is exact pruning, not an approximation.
        """
        while len(hull) >= 2:
            t1, c1 = hull[-2]
            t2, c2 = hull[-1]
            # slope(p1→p2) vs slope(p2→new), cross-multiplied (exact in
            # floats up to the shared scale; both denominators > 0).
            lhs = (c2 - c1) * (t - t2)
            rhs = (cum - c2) * (t2 - t1)
            if (lhs >= rhs) if lower else (lhs <= rhs):
                hull.pop()
            else:
                break
        hull.append((t, cum))

    # -- the per-step contract -------------------------------------------------

    def step(self, elements: Sequence[int]) -> PhaseDecision:
        group_len = len(elements)
        self._consumed += group_len
        cache = self._sign_cache
        total = 0.0
        for element in elements:
            sign = cache.get(element)
            if sign is None:
                sign = hash_sign(element)
                cache[element] = sign
            total += sign
        value = total / group_len

        if self._warmup_left > 0:
            self._warmup_observe(value)
            # Warming up: no statistic yet, stream stays in transition
            # (mirrors the windowed grid's unfilled-window prefix).
            return PhaseDecision(self.state, None)

        z = (value - self._mu) / self._sigma
        t_new = self._t + 1
        cum_new = self._cum + z
        statistic = self._statistic(t_new, cum_new)

        observer = self._observer
        if observer is not None:
            step = self._consumed
            observer.emit(
                {
                    "ev": "similarity",
                    "step": step,
                    "value": statistic,
                    "cw": 0,
                    "tw": 0,
                }
            )
            observer.emit(
                {
                    "ev": "decision",
                    "step": step,
                    "state": "P" if statistic < self.stat_threshold else "T",
                    "value": statistic,
                    "bar": self.stat_threshold,
                }
            )

        entered = False
        closed = None
        if statistic >= self.stat_threshold:
            # Changepoint: close the phase at the step boundary, drop
            # the old baseline, and re-estimate from here on — the
            # current group is the new baseline's first observation.
            if self.state.is_phase():
                closed = self._close(self._consumed - group_len)
                self._phase_stats_clear()
            self.state = PhaseState.TRANSITION
            self._reset_baseline()
            self._warmup_observe(value)
        else:
            self._t = t_new
            self._cum = cum_new
            self._push_hull(self._pos, t_new, cum_new, lower=True)
            self._push_hull(self._neg, t_new, cum_new, lower=False)
            if not self.state.is_phase():
                start = self._consumed - group_len
                self.tracker.enter(self._consumed, start, start)
                self._phase_stats_reset(statistic)
                entered = True
            else:
                self._phase_stats_update(statistic)
            self.state = PhaseState.PHASE
        return PhaseDecision(self.state, statistic, entered, closed)

    # -- checkpointing ---------------------------------------------------------

    def _engine_state(self) -> Dict[str, object]:
        return {
            "warmup_left": self._warmup_left,
            "baseline": {
                "n": self._base_n,
                "mean": self._base_mean,
                "m2": self._base_m2,
            },
            "mu": self._mu,
            "sigma": self._sigma,
            "t": self._t,
            "cum": self._cum,
            "pos": [[t, cum] for t, cum in self._pos],
            "neg": [[t, cum] for t, cum in self._neg],
        }

    def _restore_engine_state(self, payload: Dict[str, object]) -> None:
        """Restore, rejecting any state ``step()`` could never reach.

        Every invariant checked here holds after each step, so a
        malformed checkpoint fails now with :class:`CheckpointError`
        instead of mid-stream with an untyped error.
        """
        warmup_left = checkpoint_int(
            payload["warmup_left"], "focus checkpoint warmup_left"
        )
        if not 0 <= warmup_left <= self._warmup_steps:
            raise CheckpointError(
                f"focus checkpoint warmup_left={warmup_left} outside "
                f"[0, {self._warmup_steps}]"
            )
        baseline: Dict[str, object] = payload["baseline"]  # type: ignore[assignment]
        base_n = checkpoint_int(baseline["n"], "focus checkpoint baseline.n")
        if base_n != self._warmup_steps - warmup_left:
            raise CheckpointError(
                f"focus checkpoint baseline.n={base_n} does not match "
                f"{self._warmup_steps - warmup_left} warm-up steps taken"
            )
        base_mean = checkpoint_float(
            baseline["mean"], "focus checkpoint baseline.mean"
        )
        base_m2 = checkpoint_float(baseline["m2"], "focus checkpoint baseline.m2")
        if base_n == 0 and (base_mean != 0.0 or base_m2 != 0.0):
            raise CheckpointError(
                "focus checkpoint has baseline moments before any observation"
            )
        mu = payload["mu"]
        sigma = payload["sigma"]
        t = checkpoint_int(payload["t"], "focus checkpoint t")
        cum = checkpoint_float(payload["cum"], "focus checkpoint cum")
        if warmup_left:
            if mu is not None or sigma is not None:
                raise CheckpointError(
                    "focus checkpoint has mu/sigma while still warming up"
                )
            if t != 0 or cum != 0.0:
                raise CheckpointError(
                    f"focus checkpoint has t={t}, cum={cum} while warming up"
                )
        else:
            mu = checkpoint_float(mu, "focus checkpoint mu")
            sigma = checkpoint_float(sigma, "focus checkpoint sigma")
            if not sigma > 0.0:
                raise CheckpointError(f"focus checkpoint sigma={sigma} is not > 0")
        self._warmup_left = warmup_left
        self._base_n = base_n
        self._base_mean = base_mean
        self._base_m2 = base_m2
        self._mu = mu
        self._sigma = sigma
        self._t = t
        self._cum = cum
        self._pos = _hull(payload["pos"], "pos", t, cum)
        self._neg = _hull(payload["neg"], "neg", t, cum)


def _hull(
    vertices: object, name: str, t: int, cum: float
) -> List[Tuple[int, float]]:
    """A candidate hull: ``[t_i, cum_i]`` pairs from ``[0, 0.0]`` to
    ``[t, cum]`` with ``t_i`` strictly increasing."""
    if not isinstance(vertices, list) or not vertices:
        raise CheckpointError(
            f"focus checkpoint {name} hull is not a non-empty list"
        )
    hull: List[Tuple[int, float]] = []
    for vertex in vertices:
        if not isinstance(vertex, list) or len(vertex) != 2:
            raise CheckpointError(
                f"focus checkpoint {name} vertex {vertex!r} is not a [t, cum] pair"
            )
        t_i = checkpoint_int(vertex[0], f"focus checkpoint {name} vertex t")
        cum_i = checkpoint_float(
            vertex[1], f"focus checkpoint {name} vertex cum"
        )
        if hull and t_i <= hull[-1][0]:
            raise CheckpointError(
                f"focus checkpoint {name} hull times are not strictly increasing"
            )
        hull.append((t_i, cum_i))
    if hull[0] != (0, 0.0) or hull[-1] != (t, cum):
        raise CheckpointError(
            f"focus checkpoint {name} hull must run from [0, 0.0] to [{t}, {cum}]"
        )
    return hull
