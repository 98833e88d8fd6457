"""Framed channel behavior: byte accounting, round stamps, transcripts,
socket parity, and failure modes."""

import random
import socket
import time

import pytest

from rootshare.errors import TransportError, UsageError
from rootshare.transport import (CommStats, open_inproc, open_socket_pair,
                                 run_pair)


def test_fresh_endpoint_counters_start_at_zero():
    a, b = open_inproc()
    st = a.stats()
    assert (st.bytes_sent, st.payload_bytes, st.frames, st.rounds) == (0, 0, 0, 0)


def test_frame_counter_includes_length_header():
    a, b = open_inproc()
    a.send_frame(b"hello")
    assert b.recv_frame() == b"hello"
    st = a.stats()
    assert st.bytes_sent == 4 + 5
    assert st.payload_bytes == 5
    assert st.frames == 1


def test_zero_length_frame_costs_header_only():
    a, b = open_inproc()
    a.send_frame(b"")
    assert b.recv_frame() == b""
    st = a.stats()
    assert (st.bytes_sent, st.payload_bytes, st.frames) == (4, 0, 1)


def test_stats_subtraction():
    delta = CommStats(30, 20, 3, 2) - CommStats(10, 6, 1, 1)
    assert (delta.bytes_sent, delta.payload_bytes, delta.frames,
            delta.rounds) == (20, 14, 2, 1)


def test_payload_must_be_bytes():
    a, _ = open_inproc()
    with pytest.raises(UsageError):
        a.send_frame("text")


def test_lockstep_round_stamps():
    # client->server->client->server->client: each turnaround opens a round
    def client_fn(ep):
        ep.send_frame(b"1")
        ep.recv_frame()
        ep.send_frame(b"3")
        ep.recv_frame()
        return ep.stats().rounds

    def server_fn(ep):
        ep.recv_frame()
        ep.send_frame(b"2")
        ep.recv_frame()
        ep.send_frame(b"4")
        return ep.stats().rounds

    rc, rs = run_pair(client_fn, server_fn)
    assert rc == 4
    assert rs == 4


def test_consecutive_sends_share_one_round():
    def client_fn(ep):
        for k in range(3):
            ep.send_frame(bytes([k]))
        ep.recv_frame()
        return ep.stats()

    def server_fn(ep):
        for _ in range(3):
            ep.recv_frame()
        ep.send_frame(b"ack")
        return ep.stats()

    st_c, st_s = run_pair(client_fn, server_fn)
    assert st_c.frames == 3
    assert st_c.rounds == 2      # burst was round 1, the reply round 2
    assert st_s.rounds == 2


def test_many_frames_arrive_in_order():
    def payloads():
        rng = random.Random(99)
        for i in range(2000):
            size = 1 + i % 37
            yield rng.getrandbits(8 * size).to_bytes(size, "little")

    def client_fn(ep):
        for p in payloads():
            ep.send_frame(p)
        return ep.stats().frames

    def server_fn(ep):
        for p in payloads():
            assert ep.recv_frame() == p
        return True

    frames, ok = run_pair(client_fn, server_fn)
    assert frames == 2000
    assert ok


def test_transcript_records_exact_wire_bytes():
    a, b = open_inproc()
    a.start_transcript()
    a.send_frame(b"hello")
    b.recv_frame()
    assert a.transcript() == b"\x05\x00\x00\x00hello"
    a.send_frame(b"")
    b.recv_frame()
    assert a.transcript() == b"\x05\x00\x00\x00hello\x00\x00\x00\x00"


def test_transcript_identical_across_transports():
    def client_fn(ep):
        ep.start_transcript()
        ep.send_frame(b"\x01\x02")
        ep.recv_frame()
        ep.send_frame(b"abc")
        return ep.transcript()

    def server_fn(ep):
        ep.start_transcript()
        data = ep.recv_frame()
        ep.send_frame(data[::-1])
        ep.recv_frame()
        return ep.transcript()

    got_inproc = run_pair(client_fn, server_fn, transport="inproc")
    got_socket = run_pair(client_fn, server_fn, transport="socket")
    assert got_inproc == got_socket
    assert got_inproc[0] == b"\x02\x00\x00\x00\x01\x02\x03\x00\x00\x00abc"


def test_socket_echo_roundtrip():
    def client_fn(ep):
        ep.send_frame(b"ping")
        return ep.recv_frame()

    def server_fn(ep):
        ep.send_frame(ep.recv_frame())
        return True

    echoed, _ = run_pair(client_fn, server_fn, transport="socket")
    assert echoed == b"ping"


def test_socket_abrupt_close_raises_not_hangs():
    a, b = open_socket_pair()
    try:
        b.close()
        with pytest.raises(TransportError):
            a.recv_frame()
    finally:
        a.close()


@pytest.mark.parametrize("step", ["connect", "accept"])
def test_socket_pair_set_up_failure_raises_and_closes(monkeypatch, step):
    # a socket left open here fails the leak-checking run of the suite
    def fail(*args):
        raise OSError(f"{step} refused")

    monkeypatch.setattr(socket.socket, step, fail)
    with pytest.raises(TransportError, match=step):
        open_socket_pair()


def test_socket_endpoints_set_nodelay():
    a, b = open_socket_pair()
    try:
        for ep in (a, b):
            assert ep._sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0
    finally:
        a.close()
        b.close()


def test_socket_write_write_read_does_not_stall():
    # the reshare's pattern: two small writes, then a read. With Nagle on,
    # the second write waits for the peer's delayed ACK in every round.
    rounds = 10

    def client_fn(ep):
        for _ in range(rounds):
            ep.recv_frame()
            ep.recv_frame()
            ep.send_frame(b"r" * 64)
        return True

    def server_fn(ep):
        start = time.perf_counter()
        for _ in range(rounds):
            ep.send_frame(b"a" * 64)
            ep.send_frame(b"b" * 64)
            ep.recv_frame()
        return time.perf_counter() - start

    _, elapsed = run_pair(client_fn, server_fn, transport="socket")
    assert elapsed < 0.150


def test_inproc_peer_close_raises():
    a, b = open_inproc()
    b.close()
    with pytest.raises(TransportError):
        a.recv_frame()
    with pytest.raises(TransportError):
        a.send_frame(b"x")


def test_inproc_receive_timeout():
    a, _ = open_inproc(timeout=0.05)
    with pytest.raises(TransportError):
        a.recv_frame()


def test_send_after_own_close_raises():
    a, b = open_inproc()
    a.close()
    with pytest.raises(TransportError):
        a.send_frame(b"x")


def test_run_pair_propagates_party_exception():
    def bad(ep):
        raise ValueError("boom")

    def ok(ep):
        return 1

    with pytest.raises(ValueError, match="boom"):
        run_pair(bad, ok)


@pytest.mark.parametrize("transport", ["inproc", "socket"])
@pytest.mark.parametrize("failing", ["client", "server"])
def test_run_pair_fails_fast_with_the_first_exception(transport, failing):
    # the healthy party waits on a frame that never comes; the failing
    # party's exception must come back well before the 30 s timeout
    def bad(ep):
        ep.send_frame(b"hello")
        ep.recv_frame()
        raise ValueError(f"{failing} broke")

    def waiting(ep):
        ep.recv_frame()
        ep.send_frame(b"ack")
        ep.recv_frame()
        return 1

    fns = (bad, waiting) if failing == "client" else (waiting, bad)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"{failing} broke"):
        run_pair(*fns, transport=transport, timeout=30)
    assert time.perf_counter() - start < 5


def test_run_pair_rejects_unknown_transport():
    with pytest.raises(UsageError):
        run_pair(lambda ep: 0, lambda ep: 0, transport="carrier-pigeon")
