"""Two-party framed channels with exact byte and round accounting.

Wire format: each frame is a 4-byte little-endian payload length followed
by the payload. In-process and socket endpoints share the format, so one
protocol run produces byte-identical transcripts on either transport.

Round rule: a new round starts when an endpoint sends after having
received (or sends for the first time); consecutive sends with no receive
in between belong to one round. In-process frames carry the sender's round
stamp, so in-process pairs count rounds exactly. Socket endpoints cannot
see peer stamps and keep a local approximation; tests that assert round
counts use the in-process transport.

Socket endpoints run with Nagle's algorithm off (TCP_NODELAY). A reshare
has the server write two frames and then read. With Nagle on, the kernel
holds the second small write until the peer's delayed ACK arrives, up to
40 ms later on Linux, and every reshare stalled on it. The option changes
no byte on the wire, only how long a frame waits in the kernel.
"""

import queue
import socket as socketlib
import struct
import threading
from dataclasses import dataclass

from .errors import TransportError, UsageError

FRAME_HEADER_BYTES = 4
MAX_FRAME_BYTES = 1 << 24


@dataclass(frozen=True)
class CommStats:
    """Send-side counters for one endpoint.

    bytes_sent includes the 4-byte frame headers; payload_bytes does not.
    rounds is the highest round this endpoint has seen (own or peer's).
    """

    bytes_sent: int = 0
    payload_bytes: int = 0
    frames: int = 0
    rounds: int = 0

    def __sub__(self, other: "CommStats") -> "CommStats":
        return CommStats(
            self.bytes_sent - other.bytes_sent,
            self.payload_bytes - other.payload_bytes,
            self.frames - other.frames,
            self.rounds - other.rounds,
        )


class Endpoint:
    """One side of a duplex, ordered, lossless two-party channel."""

    def __init__(self, party: str = ""):
        self.party = party
        self._lock = threading.Lock()
        self._bytes_sent = 0
        self._payload_bytes = 0
        self._frames = 0
        self._round = 0
        self._peer_high = 0
        self._recv_since_send = True
        self._closed = False
        self._recording = False
        self._transcript: list[bytes] = []

    # subclasses implement the actual byte movement
    def _transmit(self, stamp: int, payload: bytes) -> None:
        raise NotImplementedError

    def _receive(self):
        raise NotImplementedError

    def send_frame(self, payload: bytes) -> None:
        if not isinstance(payload, (bytes, bytearray)):
            raise UsageError("frame payload must be bytes")
        if len(payload) > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES} limit")
        with self._lock:
            if self._closed:
                raise TransportError("endpoint is closed")
            if self._recv_since_send:
                self._round = max(self._round, self._peer_high) + 1
                self._recv_since_send = False
            stamp = self._round
            self._bytes_sent += FRAME_HEADER_BYTES + len(payload)
            self._payload_bytes += len(payload)
            self._frames += 1
            if self._recording:
                self._transcript.append(
                    struct.pack("<I", len(payload)) + bytes(payload))
        self._transmit(stamp, bytes(payload))

    def recv_frame(self) -> bytes:
        stamp, payload = self._receive()
        with self._lock:
            if stamp is None:
                # no peer stamp on the wire: assume the peer is at least as
                # far along as this endpoint (socket approximation)
                stamp = self._round
            self._peer_high = max(self._peer_high, stamp)
            self._recv_since_send = True
        return payload

    def stats(self) -> CommStats:
        with self._lock:
            return CommStats(self._bytes_sent, self._payload_bytes,
                             self._frames, max(self._round, self._peer_high))

    def start_transcript(self) -> None:
        with self._lock:
            self._recording = True
            self._transcript = []

    def transcript(self) -> bytes:
        """Concatenated wire bytes sent since start_transcript()."""
        with self._lock:
            return b"".join(self._transcript)

    def close(self) -> None:
        with self._lock:
            self._closed = True


class _InprocState:
    """Queues and liveness flags shared by an in-process endpoint pair."""

    def __init__(self):
        self.to_server: queue.Queue = queue.Queue()
        self.to_client: queue.Queue = queue.Queue()
        self.client_closed = False
        self.server_closed = False


class InprocEndpoint(Endpoint):
    def __init__(self, party: str, state: _InprocState, timeout: float):
        super().__init__(party)
        self._state = state
        self._timeout = timeout
        if party == "client":
            self._outbox, self._inbox = state.to_server, state.to_client
        else:
            self._outbox, self._inbox = state.to_client, state.to_server

    def _peer_closed(self) -> bool:
        if self.party == "client":
            return self._state.server_closed
        return self._state.client_closed

    def _transmit(self, stamp, payload):
        if self._peer_closed():
            raise TransportError("peer endpoint is closed")
        self._outbox.put((stamp, payload))

    def _receive(self):
        with self._lock:
            if self._closed:
                raise TransportError("endpoint is closed")
        try:
            item = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise TransportError("receive timed out") from None
        if item is None:
            raise TransportError("peer closed the channel")
        return item

    def close(self):
        super().close()
        if self.party == "client":
            self._state.client_closed = True
        else:
            self._state.server_closed = True
        self._outbox.put(None)


def open_inproc(timeout: float = 30.0):
    """A lossless ordered duplex pair; first endpoint is labeled client."""
    state = _InprocState()
    return (InprocEndpoint("client", state, timeout),
            InprocEndpoint("server", state, timeout))


class SocketEndpoint(Endpoint):
    def __init__(self, sock: socketlib.socket, party: str, timeout: float):
        super().__init__(party)
        sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
        sock.settimeout(timeout)
        self._sock = sock

    def _transmit(self, stamp, payload):
        try:
            self._sock.sendall(struct.pack("<I", len(payload)) + payload)
        except OSError as exc:
            raise TransportError(f"socket send failed: {exc}") from exc

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError as exc:
                raise TransportError(f"socket receive failed: {exc}") from exc
            if not chunk:
                raise TransportError("peer closed the connection mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _receive(self):
        with self._lock:
            if self._closed:
                raise TransportError("endpoint is closed")
        header = self._read_exact(FRAME_HEADER_BYTES)
        (length,) = struct.unpack("<I", header)
        if length > MAX_FRAME_BYTES:
            raise TransportError(f"incoming frame of {length} bytes exceeds limit")
        return None, self._read_exact(length)

    def close(self):
        super().close()
        try:
            self._sock.shutdown(socketlib.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def open_socket_pair(host: str = "127.0.0.1", timeout: float = 30.0):
    """Loopback (client, server) endpoints on an OS-chosen port. The connect
    completes into the listen backlog, so no thread waits in accept."""
    with socketlib.create_server((host, 0)) as acceptor:
        acceptor.settimeout(timeout)
        port = acceptor.getsockname()[1]
        sock = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect((host, port))
        except OSError as exc:
            sock.close()
            raise TransportError(f"connect failed to {host}:{port}: {exc}") \
                from exc
        try:
            peer, _ = acceptor.accept()
        except OSError as exc:
            sock.close()
            raise TransportError(
                f"loopback accept did not complete: {exc}") from exc
    return (SocketEndpoint(sock, "client", timeout),
            SocketEndpoint(peer, "server", timeout))


def run_pair(client_fn, server_fn, transport: str = "inproc",
             timeout: float = 120.0):
    """Run two party functions against a fresh channel pair.

    Each function receives its endpoint and runs on its own thread, so
    protocols written as straight-line send/recv sequences work on both
    transports. Returns (client_result, server_result). A party that
    raises closes its endpoint at once, so its peer fails fast instead of
    waiting out the timeout; the exception raised first is re-raised here.
    """
    if transport == "inproc":
        ep_client, ep_server = open_inproc(timeout=timeout)
    elif transport == "socket":
        ep_client, ep_server = open_socket_pair(timeout=timeout)
    else:
        raise UsageError(f"unknown transport {transport!r}")

    results = {}
    errors = []  # in the order raised

    def _run(name, fn, endpoint):
        try:
            results[name] = fn(endpoint)
        except BaseException as exc:  # propagated after join
            errors.append(exc)
            endpoint.close()

    threads = [
        threading.Thread(target=_run, args=("client", client_fn, ep_client),
                         daemon=True),
        threading.Thread(target=_run, args=("server", server_fn, ep_server),
                         daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    try:
        if errors:
            raise errors[0]
        if len(results) != 2:
            raise TransportError("a party did not finish within the timeout")
    finally:
        ep_client.close()
        ep_server.close()
    return results["client"], results["server"]
