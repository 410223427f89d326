"""Transport framing under adversity: partial reads, oversized frames,
interleaved replies, scheduled severs and passed connections — with seeded
fault schedules.

The framing layer's whole contract is that a caller sees Python objects or
a typed :class:`TransportError`, never a torn frame: these tests attack the
byte stream directly (dribbled writes, truncated closes, lying length
headers) and drive the clean paths through :class:`FaultyTransport` so the
same seeds reproduce any failure.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from faults import FaultSchedule, FaultyTransport

from repro.service.transport import (
    ConnectionClosedError,
    FramedConnection,
    FrameTooLargeError,
    TransportError,
    framed_pair,
    recv_connection,
    send_connection,
)

#: The distinct seeded schedules the acceptance criteria require (>= 3).
SEEDS = (7, 21, 42)


def _raw_pair() -> tuple[socket.socket, FramedConnection]:
    """One raw socket end (for hand-crafted bytes) and one framed end."""
    raw, framed_side = socket.socketpair()
    return raw, FramedConnection(framed_side)


def _frame(payload_bytes: bytes) -> bytes:
    return struct.pack(">I", len(payload_bytes)) + payload_bytes


# --------------------------------------------------------------------------- #
# Partial reads
# --------------------------------------------------------------------------- #
class TestPartialReads:
    def test_frame_dribbled_one_byte_at_a_time_reassembles(self):
        raw, conn = _raw_pair()
        blob = _frame(b'{"answer": 42, "pad": "' + b"x" * 300 + b'"}')

        def dribble() -> None:
            for i in range(len(blob)):
                raw.sendall(blob[i : i + 1])

        writer = threading.Thread(target=dribble)
        writer.start()
        payload = conn.recv()
        writer.join()
        assert payload["answer"] == 42
        assert payload["pad"] == "x" * 300
        raw.close()
        conn.close()

    def test_two_frames_in_one_burst_read_separately(self):
        raw, conn = _raw_pair()
        raw.sendall(_frame(b'{"seq": 1}') + _frame(b'{"seq": 2}'))
        assert conn.recv() == {"seq": 1}
        assert conn.recv() == {"seq": 2}
        raw.close()
        conn.close()

    def test_eof_at_frame_boundary_is_clean_close(self):
        raw, conn = _raw_pair()
        raw.close()
        with pytest.raises(ConnectionClosedError, match="frame boundary"):
            conn.recv()
        conn.close()

    def test_eof_mid_header_names_the_torn_position(self):
        raw, conn = _raw_pair()
        raw.sendall(b"\x00\x00")  # half a length header
        raw.close()
        with pytest.raises(ConnectionClosedError, match="after 2 of 4 bytes"):
            conn.recv()
        conn.close()

    def test_eof_mid_body_raises_connection_closed(self):
        raw, conn = _raw_pair()
        blob = _frame(b'{"seq": 1}')
        raw.sendall(blob[:-3])  # header + truncated body
        raw.close()
        with pytest.raises(ConnectionClosedError, match="frame body"):
            conn.recv()
        conn.close()


# --------------------------------------------------------------------------- #
# Oversized and malformed frames
# --------------------------------------------------------------------------- #
class TestFrameLimits:
    def test_oversized_outgoing_frame_rejected_before_sending(self):
        left, right = framed_pair(max_frame_bytes=64)
        with pytest.raises(FrameTooLargeError, match="64-byte limit"):
            left.send({"pad": "y" * 200})
        # The connection survives a refused send: nothing left the process.
        left.send({"ok": True})
        assert right.recv() == {"ok": True}
        left.close()
        right.close()

    def test_oversized_incoming_header_rejected_and_connection_dropped(self):
        raw, framed_side = socket.socketpair()
        conn = FramedConnection(framed_side, max_frame_bytes=1024)
        raw.sendall(struct.pack(">I", 50_000_000))  # a lying length header
        with pytest.raises(FrameTooLargeError, match="1024-byte limit"):
            conn.recv()
        # The stream position is unknowable now; the connection is closed.
        with pytest.raises(TransportError):
            conn.recv()
        raw.close()

    def test_non_json_body_raises_typed_error(self):
        raw, conn = _raw_pair()
        raw.sendall(_frame(b"\xff\xfe not json"))
        with pytest.raises(TransportError, match="not valid JSON"):
            conn.recv()
        raw.close()
        conn.close()

    def test_non_json_payload_raises_typed_error_on_send(self):
        left, right = framed_pair()
        with pytest.raises(TransportError, match="not JSON-representable"):
            left.send({"bad": object()})
        left.close()
        right.close()


# --------------------------------------------------------------------------- #
# Interleaved replies on one connection
# --------------------------------------------------------------------------- #
def _echo_loop(conn: FramedConnection) -> None:
    """Reply ``{"echo": request}`` until the peer goes away."""
    try:
        while True:
            request = conn.recv()
            conn.send({"echo": request})
    except TransportError:
        pass
    finally:
        conn.close()


class TestInterleavedReplies:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pipelined_requests_keep_order_under_seeded_delays(self, seed):
        client_end, server_end = framed_pair()
        server = threading.Thread(target=_echo_loop, args=(server_end,))
        server.start()
        # Delay-only schedule: every op may jitter, none may sever.
        seeded = FaultSchedule.seeded(seed, length=40)
        delays = {
            op: seeded.fault_for(op)
            for op in range(40)
            if seeded.fault_for(op) is not None and seeded.fault_for(op)[0] == "delay"
        }
        client = FaultyTransport(client_end, FaultSchedule(delays))
        for seq in range(5):  # five requests queued before any reply is read
            client.send({"seq": seq})
        replies = [client.recv() for _ in range(5)]
        assert replies == [{"echo": {"seq": seq}} for seq in range(5)]
        client.close()
        server.join()


# --------------------------------------------------------------------------- #
# Scheduled sever
# --------------------------------------------------------------------------- #
class TestScheduledSever:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trips_intact_until_the_scheduled_sever(self, seed):
        client_end, server_end = framed_pair()
        server = threading.Thread(target=_echo_loop, args=(server_end,))
        server.start()
        schedule = FaultSchedule.seeded(seed, length=24)
        sever_at = schedule.sever_points()[0]
        client = FaultyTransport(client_end, schedule)
        completed = 0
        with pytest.raises(ConnectionClosedError, match="severed"):
            while True:
                client.send({"seq": completed})
                assert client.recv() == {"echo": {"seq": completed}}
                completed += 1
        # Everything before the scheduled sever round-tripped intact.
        assert completed == sever_at // 2
        assert client.severed
        # The peer sees EOF and its loop ends: the sever is a real close.
        server.join(timeout=5)
        assert not server.is_alive()


# --------------------------------------------------------------------------- #
# Passing a connection over a connection
# --------------------------------------------------------------------------- #
class TestConnectionPassing:
    def test_passed_connection_serves_after_the_sender_closes_its_copy(self):
        sender, receiver = framed_pair()
        near, far = framed_pair()
        try:
            send_connection(sender, far)
            far.close()  # the sender's copy; the passed descriptor lives on
            passed = recv_connection(receiver, max_frame_bytes=128)
            with passed:
                assert passed.fileno() != far.fileno()
                assert passed.max_frame_bytes == 128
                near.send({"to": "passed"})
                assert passed.recv() == {"to": "passed"}
                passed.send({"to": "near"})
                assert near.recv() == {"to": "near"}
            # Closing the passed end is the last close: the near end sees EOF.
            with pytest.raises(ConnectionClosedError, match="frame boundary"):
                near.recv()
        finally:
            for conn in (sender, receiver, near):
                conn.close()

    def test_descriptor_between_frames_keeps_both_frames_intact(self):
        sender, receiver = framed_pair()
        near, far = framed_pair()
        try:
            sender.send({"cmd": "fork", "pad": "z" * 5000})
            send_connection(sender, far)
            sender.send({"cmd": "after"})
            far.close()
            assert receiver.recv() == {"cmd": "fork", "pad": "z" * 5000}
            with recv_connection(receiver) as passed:
                near.send({"ok": True})
                assert passed.recv() == {"ok": True}
            assert receiver.recv() == {"cmd": "after"}
        finally:
            for conn in (sender, receiver, near):
                conn.close()

    def test_byte_without_a_descriptor_is_a_typed_error(self):
        raw, conn = _raw_pair()
        raw.sendall(b"\0")
        with pytest.raises(TransportError, match="expected one passed descriptor, got 0"):
            recv_connection(conn)
        raw.close()
        conn.close()

    def test_eof_before_a_descriptor_is_a_clean_close(self):
        raw, conn = _raw_pair()
        raw.close()
        with pytest.raises(ConnectionClosedError, match="before a connection was passed"):
            recv_connection(conn)
        conn.close()

    def test_passing_to_a_closed_peer_is_a_typed_error(self):
        sender, receiver = framed_pair()
        near, far = framed_pair()
        receiver.close()
        try:
            with pytest.raises(ConnectionClosedError, match="passing a connection"):
                send_connection(sender, far)
        finally:
            for conn in (sender, near, far):
                conn.close()
