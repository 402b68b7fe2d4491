"""The JSON-lines wire protocol: framing, validation, error shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"op": "access", "sids": [3, 1, 2]}
        assert protocol.decode_line(protocol.encode(message)) == message

    def test_encode_is_one_line(self):
        blob = protocol.encode({"op": "ping", "note": "a\nb"})
        assert blob.endswith(b"\n")
        assert blob.count(b"\n") == 1

    def test_oversized_line_rejected(self):
        line = b'{"op": "access", "sids": [' \
            + b",".join(b"1" for _ in range(protocol.MAX_LINE_BYTES // 2)) \
            + b"]}"
        with pytest.raises(protocol.ProtocolError, match="line limit"):
            protocol.decode_line(line)

    def test_non_json_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.decode_line(b"GET / HTTP/1.1\n")

    def test_non_object_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.decode_line(b"[1, 2, 3]\n")


class TestAccessPrefix:
    @settings(max_examples=200, deadline=None)
    @given(sids=st.lists(st.integers(min_value=0, max_value=2**40),
                         min_size=1, max_size=64),
           seq=st.none() | st.integers(min_value=1, max_value=2**40),
           sync=st.none() | st.booleans())
    def test_every_encoded_access_starts_with_the_prefix(self, sids, seq,
                                                         sync):
        """The router relays a line with this prefix undecoded, so
        every access request the codec writes must carry it."""
        message = {"op": "access", "sids": sids}
        if seq is not None:
            message["seq"] = seq
        if sync is not None:
            message["sync"] = sync
        line = protocol.encode(message)
        assert line.startswith(protocol.ACCESS_PREFIX)
        assert protocol.validate_request(protocol.decode_line(line)) \
            == "access"


class TestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.validate_request({"op": "evict-the-world"})

    def test_missing_op_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.validate_request({"sids": [1]})

    def test_hello_needs_tenant(self):
        with pytest.raises(protocol.ProtocolError, match="tenant"):
            protocol.validate_request({"op": "hello", "benchmark": "gzip"})

    def test_hello_needs_population(self):
        with pytest.raises(protocol.ProtocolError, match="block_sizes"):
            protocol.validate_request({"op": "hello", "tenant": "t"})

    def test_hello_with_benchmark_accepted(self):
        op = protocol.validate_request(
            {"op": "hello", "tenant": "t", "benchmark": "gzip"}
        )
        assert op == "hello"

    def test_hello_with_sizes_accepted(self):
        protocol.validate_request(
            {"op": "hello", "tenant": "t", "block_sizes": [64, 128]}
        )

    @pytest.mark.parametrize("sizes", ([], [0], [64, -1], ["64"], "64"))
    def test_bad_block_sizes_rejected(self, sizes):
        with pytest.raises(protocol.ProtocolError, match="block_sizes"):
            protocol.validate_request(
                {"op": "hello", "tenant": "t", "block_sizes": sizes}
            )

    @pytest.mark.parametrize("field", ("scale", "quota_bytes", "weight"))
    def test_non_positive_numbers_rejected(self, field):
        message = {"op": "hello", "tenant": "t", "benchmark": "gzip",
                   field: 0}
        with pytest.raises(protocol.ProtocolError, match=field):
            protocol.validate_request(message)

    @pytest.mark.parametrize("sids", (None, [], [1.5], [-1], "1"))
    def test_bad_access_batches_rejected(self, sids):
        with pytest.raises(protocol.ProtocolError, match="sids"):
            protocol.validate_request({"op": "access", "sids": sids})

    def test_access_accepted(self):
        assert protocol.validate_request(
            {"op": "access", "sids": [0, 5, 2]}
        ) == "access"

    def test_sequenced_sync_access_accepted(self):
        assert protocol.validate_request(
            {"op": "access", "sids": [0, 1], "seq": 7, "sync": True}
        ) == "access"

    @pytest.mark.parametrize("seq", (0, -3, 1.5, "1"))
    def test_bad_seq_rejected(self, seq):
        with pytest.raises(protocol.ProtocolError, match="seq"):
            protocol.validate_request(
                {"op": "access", "sids": [0], "seq": seq}
            )

    def test_bad_sync_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="sync"):
            protocol.validate_request(
                {"op": "access", "sids": [0], "sync": "yes"}
            )

    @pytest.mark.parametrize("op, field, value", (
        ("access", "sids", [True, False]),
        ("access", "seq", True),
        ("hello", "block_sizes", [True]),
        ("hello", "quota_bytes", True),
        ("hello", "scale", True),
        ("hello", "weight", True),
    ))
    def test_json_booleans_rejected(self, op, field, value):
        # JSON true/false decode to bool, which subclasses int.
        base = ({"op": "access", "sids": [0]} if op == "access" else
                {"op": "hello", "tenant": "t", "block_sizes": [64]})
        line = protocol.encode({**base, field: value})
        with pytest.raises(protocol.ProtocolError, match=field):
            protocol.validate_request(protocol.decode_line(line))

    def test_hello_resume_flag(self):
        assert protocol.validate_request(
            {"op": "hello", "tenant": "t", "block_sizes": [64],
             "resume": True}
        ) == "hello"
        with pytest.raises(protocol.ProtocolError, match="resume"):
            protocol.validate_request(
                {"op": "hello", "tenant": "t", "block_sizes": [64],
                 "resume": 1}
            )


class TestResponses:
    def test_ok_shape(self):
        response = protocol.ok("stats", tenant={"misses": 3})
        assert response["ok"] is True
        assert response["op"] == "stats"
        assert response["tenant"] == {"misses": 3}

    def test_error_shape(self):
        response = protocol.error("access", protocol.ERR_BACKPRESSURE,
                                  "queue full", retry_after=0.25)
        assert response["ok"] is False
        assert response["error"] == "backpressure"
        assert response["retry_after"] == 0.25

    def test_error_omits_retry_after_when_not_retryable(self):
        response = protocol.error("hello", protocol.ERR_BAD_REQUEST, "no")
        assert "retry_after" not in response
