"""Socket framing: the message layer under the cluster executor.

The wire format is one :mod:`repro.state.format` frame per message with
a pickled ``(kind, body)`` payload, so the contracts under test are:
bit-exact round-trips of numpy arrays (the engine's determinism depends
on it), preserved container types (int dict keys — rank-keyed replies),
honest byte counters, and the corruption taxonomy — a torn stream is
:class:`TornFrameError`, complete-but-wrong bytes are
:class:`CorruptFrameError`, and a deliberate close between messages is
the :data:`CLOSED` sentinel, never an exception.
"""

import os
import socket
import struct
import threading

import numpy as np
import pytest

from repro.parallel.transport import (
    CLOSED,
    CorruptFrameError,
    FramedConnection,
    TornFrameError,
    TransportError,
    decode_message,
    encode_message,
    parse_address,
    run_worker,
)
from repro.state.format import _HEADER


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    ca, cb = FramedConnection(a), FramedConnection(b)
    yield ca, cb
    ca.close()
    cb.close()


class TestEncodeDecode:
    def test_roundtrip_inverse(self):
        obj = ("step", {"x": {0: np.arange(6.0).reshape(2, 3)}})
        out = decode_message(encode_message(obj))
        assert out[0] == "step"
        assert np.array_equal(out[1]["x"][0], obj[1]["x"][0])

    def test_empty_buffer_is_torn(self):
        with pytest.raises(TornFrameError):
            decode_message(b"")


class TestRoundTrip:
    def test_nested_arrays_bitwise(self, pair):
        ca, cb = pair
        # NaN payload bits and denormals must survive exactly: the frame
        # codec and pickle both work on raw buffers
        arr = np.array([[1.0, -0.0, 5e-324], [np.nan, np.inf, 1.0 / 3.0]])
        ca.send(("step", {"x": {3: arr, 7: arr * 2}, "note": "hi"}))
        kind, body = cb.recv()
        assert kind == "step"
        assert set(body["x"]) == {3, 7}  # int keys, not strings
        assert body["x"][3].tobytes() == arr.tobytes()
        assert body["x"][7].tobytes() == (arr * 2).tobytes()

    def test_multiple_messages_fifo(self, pair):
        ca, cb = pair
        for i in range(4):
            ca.send(("n", i))
        assert [cb.recv()[1] for _ in range(4)] == [0, 1, 2, 3]

    def test_byte_counters_match_wire(self, pair):
        ca, cb = pair
        msg = ("blob", b"\x01" * 1000)
        n = ca.send(msg)
        assert n == len(encode_message(msg))
        assert ca.bytes_sent == n
        cb.recv()
        assert cb.bytes_received == n

    def test_clean_close_is_closed_sentinel(self, pair):
        ca, cb = pair
        ca.send(("bye", None))
        ca.close()
        assert cb.recv() == ("bye", None)
        assert cb.recv() is CLOSED


class TestCorruptionTaxonomy:
    def _recv_raw(self, raw: bytes):
        """Feed raw bytes to a FramedConnection and receive once."""
        a, b = socket.socketpair()
        try:
            a.sendall(raw)
            a.close()
            return FramedConnection(b).recv()
        finally:
            b.close()

    def test_torn_header(self):
        whole = encode_message(("x", 1))
        with pytest.raises(TornFrameError):
            self._recv_raw(whole[: _HEADER.size - 2])

    def test_torn_payload(self):
        whole = encode_message(("x", list(range(100))))
        with pytest.raises(TornFrameError):
            self._recv_raw(whole[:-5])

    def test_bad_magic(self):
        whole = bytearray(encode_message(("x", 1)))
        whole[:4] = b"JUNK"
        with pytest.raises(CorruptFrameError):
            self._recv_raw(bytes(whole))

    def test_crc_mismatch(self):
        whole = bytearray(encode_message(("x", 1)))
        whole[-1] ^= 0xFF  # flip payload bits; CRC no longer matches
        with pytest.raises(CorruptFrameError):
            self._recv_raw(bytes(whole))

    def test_valid_frame_garbage_pickle(self):
        # a frame whose CRC is fine but whose payload is not a pickle:
        # complete-but-wrong bytes, so Corrupt (not Torn)
        import io
        import zlib

        payload = b"this is not a pickle"
        buf = io.BytesIO()
        buf.write(_HEADER.pack(b"RSF1", 0, len(payload), zlib.crc32(payload)))
        buf.write(payload)
        with pytest.raises(CorruptFrameError):
            self._recv_raw(buf.getvalue())

    def test_peer_reset_mid_frame_is_torn(self):
        a, b = socket.socketpair()
        conn = FramedConnection(b)
        whole = encode_message(("x", np.zeros(1000)))
        result = {}

        def reader():
            try:
                conn.recv()
            except TransportErrorBase as exc:
                result["exc"] = exc

        from repro.parallel.transport import TransportError as TransportErrorBase

        t = threading.Thread(target=reader)
        t.start()
        a.sendall(whole[: len(whole) // 2])
        a.close()  # stream dies mid-frame
        t.join(timeout=5.0)
        b.close()
        assert isinstance(result.get("exc"), TornFrameError)

    def test_send_to_dead_peer_is_torn(self, pair):
        ca, cb = pair
        cb.close()  # peer gone; a big sendall overruns the buffer -> EPIPE
        with pytest.raises(TornFrameError):
            for _ in range(8):
                ca.send(("x", b"\x00" * (1 << 20)))


class TestFrameHeaderAssumption:
    def test_header_struct_matches_state_format(self):
        # the torn/corrupt byte surgery above assumes the RSF1 layout;
        # if state.format ever changes it, fail loudly here
        assert _HEADER.size == struct.calcsize("<4sBII")


class TestAddresses:
    def test_tcp_and_unix(self):
        assert parse_address("node7:5810") == (socket.AF_INET, ("node7", 5810))
        assert parse_address(":0") == (socket.AF_INET, ("127.0.0.1", 0))
        assert parse_address("/tmp/w0.sock") == (socket.AF_UNIX, "/tmp/w0.sock")

    @pytest.mark.parametrize("spec", ["127.0.0.1:abc", "h:-1", "h:65536", "h:", ""])
    def test_malformed_is_typed_and_named(self, spec):
        with pytest.raises(TransportError) as ei:
            parse_address(spec)
        assert repr(spec) in str(ei.value)

    def test_failed_bind_closes_the_listener(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("")
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(TransportError, match="taken"):
            run_worker(unix=str(path), once=True)
        assert len(os.listdir("/proc/self/fd")) == fds
        assert path.exists()  # someone else's file is never unlinked
