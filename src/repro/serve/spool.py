"""The spool record: one parked session's checkpoint, packed for the disk.

:meth:`repro.serve.session.Session.park` writes a session's
:meth:`~repro.core.stream.StreamingDetector.checkpoint` as one record,
and :meth:`~repro.serve.session.Session.rehydrate` reads it back.  The
record is the checkpoint dict itself, with its element lists moved out
of the JSON into packed little-endian int64 (see ``docs/formats.md``,
"Serve spool record")::

    offset    size      field
    0         8         magic  b"RPSPOOL1"
    8         4         header length H   (uint32)
    12        8         payload length P  (uint64; header + body)
    20        4         CRC-32 of the payload (zlib.crc32)
    24        H         header: the checkpoint as compact UTF-8 JSON, each
                        packed list replaced by its length
    24 + H    P - H     body: the packed lists' elements as int64, in
                        ``PACKED`` order

A park overwrites the previous record in place and then truncates the
file to the new length, so a crash can leave the new record's head on
the old one's tail, or a torn prefix.  :func:`decode_record` rejects
both before the checkpoint reaches restore: the length must match the
prefix, the CRC the payload, and the header's counts the body.  It
hands back a dict equal to the checkpoint that was packed; the one
validating :meth:`~repro.core.stream.StreamingDetector.restore` checks
the rest.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from typing import Dict, List

from repro.core.decision import CheckpointError

__all__ = ["MAGIC", "PACKED", "PREFIX", "decode_record", "encode_record"]

#: The record's first eight bytes.
MAGIC = b"RPSPOOL1"

#: The packed lists, per checkpoint section, in body order: the windowed
#: family's windows, the per-window families' buffer, the stream's
#: sub-step buffer.  A list a checkpoint lacks takes no slot.
PACKED: Dict[str, tuple] = {"engine": ("cw", "tw", "buffer"), "stream": ("buffer",)}

#: The fixed prefix: magic, header length, payload length, payload CRC-32.
PREFIX = struct.Struct("<8sIQI")
_BIG_ENDIAN = sys.byteorder == "big"


def encode_record(checkpoint: Dict[str, object]) -> bytes:
    """``checkpoint`` as one spool record (the dict is not modified).

    Every packed list must hold ints in ``[-2**63, 2**63)``, as profile
    elements do; ``struct.error`` otherwise.
    """
    header = dict(checkpoint)
    packed: List[int] = []
    for name, keys in PACKED.items():
        section = header.get(name)
        if not isinstance(section, dict):
            continue
        header[name] = section = dict(section)
        for key in keys:
            if key in section:
                values = section[key]
                section[key] = len(values)
                packed += values
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = head + struct.pack(f"<{len(packed)}q", *packed)
    return PREFIX.pack(MAGIC, len(head), len(payload), zlib.crc32(payload)) + payload


def decode_record(data: bytes) -> Dict[str, object]:
    """The checkpoint dict a record holds; :class:`CheckpointError` for
    a bad magic, a length or CRC mismatch, a header that is not a JSON
    object, or packed-list counts that disagree with the body."""
    if len(data) < PREFIX.size:
        raise CheckpointError(
            f"record of {len(data)} bytes is shorter than its "
            f"{PREFIX.size}-byte prefix"
        )
    magic, head_size, payload_size, crc = PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError(f"record magic {magic!r} is not {MAGIC!r}")
    if len(data) - PREFIX.size != payload_size:
        raise CheckpointError(
            f"record holds {len(data) - PREFIX.size} payload bytes, "
            f"its prefix says {payload_size}"
        )
    payload = memoryview(data)[PREFIX.size:]
    if zlib.crc32(payload) != crc:
        raise CheckpointError("record payload does not match its CRC-32")
    body_size = payload_size - head_size
    if body_size < 0 or body_size % 8:
        raise CheckpointError(
            f"record body of {body_size} bytes is not a whole number of int64s"
        )
    try:
        header = json.loads(str(payload[:head_size], "utf-8"))
    except ValueError as error:  # not UTF-8, not JSON, an over-long int
        raise CheckpointError(f"record header is not JSON: {error}") from None
    if not isinstance(header, dict):
        raise CheckpointError("record header is not a JSON object")
    slots = []
    for name, keys in PACKED.items():
        section = header.get(name)
        if not isinstance(section, dict):
            continue
        for key in keys:
            if key in section:
                count = section[key]
                if type(count) is not int or count < 0:
                    raise CheckpointError(
                        f"record header count {name}.{key}={count!r:.80} "
                        "is not a length"
                    )
                slots.append((section, key, count))
    total = sum(count for _, _, count in slots)
    if total * 8 != body_size:
        raise CheckpointError(
            f"record header counts {total} packed elements, its body "
            f"holds {body_size // 8}"
        )
    values = array("q")
    values.frombytes(payload[head_size:])
    if _BIG_ENDIAN:
        values.byteswap()
    start = 0
    for section, key, count in slots:
        section[key] = values[start : start + count].tolist()
        start += count
    return header
