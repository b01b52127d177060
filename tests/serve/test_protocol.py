"""Wire protocol: framing, validation, and the sid security boundary."""

from __future__ import annotations

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_ELEMENTS_PER_MESSAGE,
    ProtocolError,
    decode_message,
    encode_message,
    validate_client_message,
    validate_sid,
)


class TestSidValidation:
    @pytest.mark.parametrize(
        "sid", ["s1", "a", "A-b_c.9", "x" * 64, "9lives"]
    )
    def test_accepts_safe_ids(self, sid):
        assert validate_sid(sid) == sid

    @pytest.mark.parametrize(
        "sid",
        [
            "",                    # empty
            ".hidden",             # leading dot
            "../escape",           # path traversal
            "a/b",                 # separator
            "a b",                 # whitespace
            "x" * 65,              # too long
            "café",           # non-ASCII
            42,                    # not a string
            None,
        ],
    )
    def test_rejects_unsafe_ids(self, sid):
        with pytest.raises(ProtocolError):
            validate_sid(sid)

    def test_sid_never_escapes_spool_dir(self, tmp_path):
        # The property the regex exists for: a validated sid joined to
        # the spool dir stays inside the spool dir.
        sid = validate_sid("ok-1.ckpt")
        assert (tmp_path / sid).resolve().parent == tmp_path.resolve()


class TestFraming:
    def test_round_trip(self):
        message = {"op": "events", "sid": "s", "elements": [1, 2, 3]}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert b" " not in line  # compact separators
        assert decode_message(line) == message

    def test_decode_accepts_str(self):
        assert decode_message('{"op":"ping"}') == {"op": "ping"}

    @pytest.mark.parametrize(
        "line", [b"not json\n", b'"a string"\n', b"[1,2]\n", b"\xff\xfe\n"]
    )
    def test_decode_rejects_garbage(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_decode_rejects_an_int_past_the_digit_limit(self):
        # json.loads raises a plain ValueError past 4,300 digits.
        line = b'{"op":"events","sid":"s","elements":[' + b"7" * 5_000 + b"]}\n"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message(line)

    def test_decode_rejects_oversized_line(self):
        line = b'{"op":"ping","pad":"' + b"x" * protocol.MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError):
            decode_message(line)


class TestClientMessageValidation:
    def test_each_op_validates(self):
        assert validate_client_message(
            {"op": "open", "sid": "s", "config": {"cw_size": 100}}
        ) == "open"
        assert validate_client_message(
            {"op": "events", "sid": "s", "elements": [1]}
        ) == "events"
        assert validate_client_message({"op": "close", "sid": "s"}) == "close"
        assert validate_client_message({"op": "ping"}) == "ping"

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "nope"},
            {"op": "open", "sid": "s"},                      # missing config
            {"op": "open", "sid": "s", "config": []},        # non-dict config
            {"op": "events", "sid": "s"},                    # missing elements
            {"op": "events", "sid": "s", "elements": "abc"},
            {"op": "events", "sid": "s", "elements": [1.5]},
            {"op": "events", "sid": "s", "elements": [True]},
            {"op": "events", "sid": "../x", "elements": [1]},
            {"op": "close"},
        ],
    )
    def test_rejects_malformed(self, message):
        with pytest.raises(ProtocolError):
            validate_client_message(message)

    @pytest.mark.parametrize("line", [b"true", b"1.5", b'"7"', b"null"])
    def test_rejects_decoded_non_int_element(self, line):
        message = decode_message(
            b'{"op":"events","sid":"s","elements":[1,' + line + b',2]}\n'
        )
        bad = message["elements"][1]
        with pytest.raises(ProtocolError) as error:
            validate_client_message(message)
        assert str(error.value) == (
            f"events message element {bad!r} is not an integer"
        )

    @pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1, 1 << 70])
    def test_rejects_elements_outside_int64(self, value):
        message = {"op": "events", "sid": "s", "elements": [1, value, 2]}
        with pytest.raises(ProtocolError, match="signed 64-bit"):
            validate_client_message(message)

    def test_accepts_the_int64_bounds(self):
        message = {"op": "events", "sid": "s",
                   "elements": [protocol.ELEMENT_MIN, 0, protocol.ELEMENT_MAX]}
        assert validate_client_message(message) == "events"
        assert validate_client_message(
            {"op": "events", "sid": "s", "elements": []}) == "events"

    def test_rejects_oversized_batch(self):
        message = {
            "op": "events",
            "sid": "s",
            "elements": [0] * (MAX_ELEMENTS_PER_MESSAGE + 1),
        }
        with pytest.raises(ProtocolError):
            validate_client_message(message)

    def test_server_builders_round_trip(self):
        for built in (
            protocol.opened_message("s"),
            protocol.event_message("s", {"ev": "phase_enter", "step": 1}),
            protocol.closed_message("s", 10, 2),
            protocol.error_message(None, "boom"),
        ):
            assert decode_message(encode_message(built)) == built
