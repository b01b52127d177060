"""Streaming detection: run a detector over a trace that never fully
materializes in memory.

The online setting the paper targets has no stored trace at all — the
VM hands the detector ``skipFactor`` elements at a time.  This module
provides the two glue layers a deployment needs:

- :class:`StreamingDetector` — buffers an arbitrary-chunk element feed
  and drives a :class:`~repro.core.decision.DecisionEngine` (whatever
  family the config names; the windowed
  :class:`~repro.core.runtime.DetectorRuntime` by default) exactly
  ``skipFactor`` elements per step (notifying an optional callback at
  every phase boundary the engine's tracker records);
- :func:`detect_stream` — detection over a binary trace file via
  :func:`repro.profiles.io.stream_trace`, with memory bounded by the
  chunk size plus the window state.

Both produce output identical to an in-memory ``run()`` (tested): the
phase list, of which the per-element states are a view.  The stream
keeps no per-element history.  It can be suspended and resumed:
:meth:`StreamingDetector.checkpoint` wraps the runtime's versioned
checkpoint with the stream's own state (its position and pending
sub-step buffer) for bit-identical continuation — see
``docs/formats.md``.

Streaming always uses the incremental runtime paths: the array-native
kernels of :mod:`repro.core.kernels` need the whole trace up front for
the per-trace dense remap, which a stream by definition does not have.
Because the kernels are bit-identical, a checkpoint taken after a
kernel ``run()`` restores into a stream (and vice versa) seamlessly.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.decision import (
    CheckpointError,
    DecisionEngine,
    DetectionResult,
    build_engine,
    checkpoint_int,
    restore_engine,
)

#: Callback signature: (event, position) with event "start" or "end".
BoundaryCallback = Callable[[str, int], None]


class StreamingDetector:
    """Chunk-buffering front end for the unified detector runtime.

    Feed chunks of any size with :meth:`feed`; call :meth:`finish` at
    end of stream.  Boundary events follow the engine's tracker: after
    each chunk, a "start" at every newly opened phase's detected start
    and an "end" at every newly closed phase's end (a "start" fires on
    the step that enters P — necessarily after the true start, as the
    paper discusses).
    """

    def __init__(
        self,
        config: DetectorConfig,
        on_boundary: Optional[BoundaryCallback] = None,
        runtime: Optional[DecisionEngine] = None,
        observer=None,
        metrics=None,
    ) -> None:
        self.config = config
        self.runtime = (
            runtime
            if runtime is not None
            else build_engine(config, observer=observer, metrics=metrics)
        )
        self._buffer: List[int] = []
        self._on_boundary = on_boundary
        # The tracker as last announced: its closed phases, and the
        # open phase's detected start (-1: none).  A restored engine's
        # phases were announced before the park.
        tracker = self.runtime.tracker
        self._closed_seen = len(tracker.phases)
        self._open_seen = tracker.open_detected

    @property
    def position(self) -> int:
        """Number of elements consumed so far."""
        return self.runtime.consumed

    @property
    def elements_fed(self) -> int:
        """Elements handed to :meth:`feed` so far (consumed + pending buffer)."""
        return self.runtime.consumed + len(self._buffer)

    def feed(self, chunk: Union[Sequence[int], np.ndarray]) -> None:
        """Consume one chunk of profile elements (any length)."""
        if isinstance(chunk, np.ndarray):
            chunk = chunk.tolist()
        self._buffer.extend(chunk)
        # The engine's skip: a family builder may normalize the config's.
        skip = self.runtime.config.skip_factor
        whole = (len(self._buffer) // skip) * skip
        if whole:
            head = self._buffer[:whole]
            del self._buffer[:whole]
            self._advance(head)

    def _advance(self, elements: List[int]) -> None:
        runtime = self.runtime
        runtime.advance(elements)
        announce = self._on_boundary
        if announce is None:
            return
        tracker = runtime.tracker
        open_seen = self._open_seen
        for phase in tracker.phases[self._closed_seen :]:
            if phase.detected_start != open_seen:
                announce("start", phase.detected_start)
            announce("end", phase.end)
            open_seen = -1
        if tracker.open_detected != open_seen:
            announce("start", tracker.open_detected)
        self._closed_seen = len(tracker.phases)
        self._open_seen = tracker.open_detected

    def finish(self) -> DetectionResult:
        """Flush any partial step and return the result over the whole
        stream (:meth:`~repro.core.decision.DecisionEngine.result`).

        A phase still open closes at the end of the stream in the result
        and announces its "end"; the engine itself is left as it was.
        """
        if self._buffer:
            tail = self._buffer
            self._buffer = []
            self._advance(tail)
        result = self.runtime.result()
        if self._on_boundary is not None and self.runtime.tracker.open:
            self._on_boundary("end", self.runtime.consumed)
        return result

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Serialize detector + stream state (see ``docs/formats.md``).

        The returned dict is the runtime's versioned checkpoint plus a
        ``stream`` section holding the stream position and the pending
        sub-step buffer: its size does not grow with the stream.
        """
        data = self.runtime.checkpoint()
        data["stream"] = {
            "position": self.runtime.consumed,
            "buffer": [int(element) for element in self._buffer],
        }
        return data

    @classmethod
    def restore(
        cls,
        data: Dict[str, object],
        on_boundary: Optional[BoundaryCallback] = None,
        observer=None,
        metrics=None,
    ) -> "StreamingDetector":
        """Rebuild a streaming detector from a :meth:`checkpoint` dict.

        The engine restores through
        :func:`repro.core.decision.restore_engine` (dispatching on the
        ``family`` tag); the ``stream`` section must agree with it, or
        :class:`CheckpointError` is raised.
        """
        runtime = restore_engine(data, observer=observer, metrics=metrics)
        stream_data = data.get("stream")
        if not isinstance(stream_data, dict):
            raise CheckpointError("checkpoint has no stream section")
        # Version 2's per-element ``states`` and ``in_phase`` are gone.
        unknown = sorted(set(stream_data) - {"position", "buffer"})
        if unknown:
            raise CheckpointError(f"stream section has unknown fields {unknown}")
        position = checkpoint_int(stream_data.get("position"), "stream position")
        if position != runtime.consumed:
            raise CheckpointError(
                f"stream position {position} is not the engine's "
                f"consumed {runtime.consumed}"
            )
        buffer = stream_data.get("buffer")
        skip = runtime.config.skip_factor
        # A whole group in the buffer would already have been stepped.
        if not isinstance(buffer, list) or len(buffer) >= skip:
            raise CheckpointError(
                f"stream buffer {buffer!r:.80} must be a list of fewer "
                f"than skip_factor {skip} elements"
            )
        buffer = [checkpoint_int(element, "stream buffer element") for element in buffer]
        streaming = cls(runtime.config, on_boundary=on_boundary, runtime=runtime)
        streaming._buffer = buffer
        return streaming


def detect_stream(
    source: Union[str, os.PathLike, Iterable[np.ndarray]],
    config: DetectorConfig,
    chunk_size: int = 1 << 14,
    on_boundary: Optional[BoundaryCallback] = None,
) -> DetectionResult:
    """Detect phases over a streamed trace.

    ``source`` is either a path to a binary trace file — ``str`` or any
    :class:`os.PathLike` — streamed via
    :func:`repro.profiles.io.stream_trace`, or any iterable of element
    arrays/lists.
    """
    if isinstance(source, (str, os.PathLike)):
        from repro.profiles.io import stream_trace

        chunks: Iterable = stream_trace(os.fspath(source), chunk_size=chunk_size)
    else:
        chunks = source
    streaming = StreamingDetector(config, on_boundary=on_boundary)
    for chunk in chunks:
        streaming.feed(chunk)
    return streaming.finish()
