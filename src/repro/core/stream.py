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
  every phase boundary);
- :func:`detect_stream` — detection over a binary trace file via
  :func:`repro.profiles.io.stream_trace`, with memory bounded by the
  chunk size plus the window state.

Both produce output identical to an in-memory ``run()`` (tested).  A
stream can also be suspended and resumed: :meth:`StreamingDetector.checkpoint`
wraps the runtime's versioned checkpoint with the stream's own state
(pending buffer, per-element states so far) for bit-identical
continuation — see ``docs/formats.md``.

Streaming always uses the incremental runtime paths: the array-native
kernels of :mod:`repro.core.kernels` need the whole trace up front for
the per-trace dense remap, which a stream by definition does not have.
Because the kernels are bit-identical, a checkpoint taken after a
kernel ``run()`` restores into a stream (and vice versa) seamlessly.
"""

from __future__ import annotations

import base64
import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.decision import (
    CheckpointError,
    DecisionEngine,
    DetectedPhase,
    DetectionResult,
    build_engine,
    checkpoint_bool,
    checkpoint_int,
    restore_engine,
)

#: Callback signature: (event, position) with event "start" or "end".
BoundaryCallback = Callable[[str, int], None]


class StreamingDetector:
    """Chunk-buffering front end for the unified detector runtime.

    Feed chunks of any size with :meth:`feed`; call :meth:`finish` at
    end of stream.  States are accumulated per element; boundary events
    fire as soon as the detector commits them (a "start" fires on the
    step that enters P — necessarily after the true start, as the paper
    discusses).
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
        self._states = bytearray()
        self._position = 0
        self._in_phase = False
        self._on_boundary = on_boundary

    @property
    def position(self) -> int:
        """Number of elements consumed so far."""
        return self._position

    @property
    def elements_fed(self) -> int:
        """Elements handed to :meth:`feed` so far (consumed + pending buffer)."""
        return self._position + len(self._buffer)

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
        base = self._position
        length = len(elements)
        self._states.extend(bytes(length))
        self.runtime.advance(elements, self._states, base)
        self._position += length
        if self._on_boundary is not None:
            # Every element of a group shares its step's state, so the
            # byte transitions in the freshly written region are exactly
            # the boundary positions (position *before* the group).
            states = self._states
            in_phase = self._in_phase
            for start in range(base, self._position, self.runtime.config.skip_factor):
                group_in_phase = states[start] != 0
                if group_in_phase and not in_phase:
                    self._on_boundary("start", start)
                elif in_phase and not group_in_phase:
                    self._on_boundary("end", start)
                in_phase = group_in_phase
            self._in_phase = in_phase
        else:
            self._in_phase = self._states[-1] != 0

    def finish(self) -> DetectionResult:
        """Flush any partial step and return the full result."""
        if self._buffer:
            tail = self._buffer
            self._buffer = []
            self._advance(tail)
        phases: List[DetectedPhase] = self.runtime.finish(self._position)
        if self._in_phase and self._on_boundary is not None:
            self._on_boundary("end", self._position)
            self._in_phase = False
        states = np.frombuffer(bytes(self._states), dtype=np.uint8).astype(bool)
        # The engine's config, as run() reports it: a family builder may
        # have normalized the caller's (dhodapkar_smith: skip = CW = TW).
        return DetectionResult(
            states=states, detected_phases=phases, config=self.runtime.config
        )

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Serialize detector + stream state (see ``docs/formats.md``).

        The returned dict is the runtime's versioned checkpoint plus a
        ``stream`` section holding the pending sub-step buffer and the
        per-element states emitted so far (bit-packed, base64).
        """
        data = self.runtime.checkpoint()
        bits = np.frombuffer(bytes(self._states), dtype=np.uint8)
        data["stream"] = {
            "position": self._position,
            "in_phase": self._in_phase,
            "buffer": [int(element) for element in self._buffer],
            "states": base64.b64encode(np.packbits(bits).tobytes()).decode("ascii"),
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
        in_phase = checkpoint_bool(stream_data.get("in_phase"), "stream in_phase")
        try:
            packed = base64.b64decode(stream_data.get("states"), validate=True)
        except (TypeError, ValueError) as error:  # binascii.Error is a ValueError
            raise CheckpointError(f"stream states are not base64: {error}") from None
        expected = -(-position // 8)
        if len(packed) != expected:
            raise CheckpointError(
                f"stream states hold {len(packed)} bytes, not the "
                f"{expected} that {position} states pack into"
            )
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[:position]
        if in_phase != (position > 0 and bool(bits[-1])):
            raise CheckpointError(
                f"stream in_phase={in_phase} contradicts its last state"
            )
        streaming = cls(runtime.config, on_boundary=on_boundary, runtime=runtime)
        streaming._position = position
        streaming._in_phase = in_phase
        streaming._buffer = buffer
        streaming._states = bytearray(bits.tobytes())
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
