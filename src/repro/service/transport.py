"""Length-prefixed JSON framing over sockets: the cluster's wire transport.

The multi-process cluster (:mod:`repro.service.cluster`) drives its workers
over this module instead of :mod:`multiprocessing` pipes.  Every worker
link is one end of an AF_UNIX socketpair (:func:`framed_pair`): a thread
worker in the supervisor's process keeps its end in place, and a forked
process worker is handed its end as a descriptor (:func:`send_connection`
/ :func:`recv_connection`).  Everything that crosses a connection is one
*frame*:

* a 4-byte big-endian unsigned length header, then
* exactly that many bytes of UTF-8 JSON.

Framing keeps message boundaries explicit on a byte stream — a reader never
has to guess where one JSON document ends — and the length header lets both
sides reject oversized frames *before* buffering them
(:class:`FrameTooLargeError`), which bounds memory per connection.

The surface is deliberately tiny and blocking:

* :class:`FramedConnection` — ``send(obj)`` / ``recv() -> obj`` over any
  connected socket, with partial reads and writes handled internally;
* :func:`framed_pair` — a connected pair of framed connections;
* :func:`send_connection` / :func:`recv_connection` — move one connection
  to another process over a framed AF_UNIX connection (``SCM_RIGHTS``).

All failures surface as :class:`TransportError` subtypes, never raw
``OSError``/``EOFError`` — this module is the **only** place in the library
that touches sockets (machine-checked by analyzer rule RPR008), so callers
can treat "the transport broke" as one typed condition and run recovery.

Thread-safety: a :class:`FramedConnection` may be shared by threads only if
the caller serialises whole ``send``/``recv`` exchanges (the cluster holds a
per-worker lock around each round trip); interleaved partial frames from two
writers would corrupt the stream.
"""

from __future__ import annotations

import json
import os
import socket
import struct

from ..exceptions import ReproError

#: Frames above this many body bytes are refused on both send and receive.
#: Generous (a table broadcast carries whole row sets) but finite, so a
#: corrupt or hostile length header cannot make a peer buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The 4-byte big-endian unsigned length header.
_HEADER = struct.Struct(">I")


class TransportError(ReproError):
    """A cluster transport failure: the connection broke, timed out, or
    carried a frame the framing rules reject."""


class ConnectionClosedError(TransportError):
    """The peer closed the connection (cleanly at a frame boundary, or not)."""


class FrameTooLargeError(TransportError):
    """A frame exceeded the connection's ``max_frame_bytes`` limit.

    Raised on *send* before any byte leaves the process, and on *receive*
    from the length header alone, before the body is buffered.  After an
    oversized incoming header the stream position is unrecoverable, so the
    connection is closed.
    """


class FramedConnection:
    """One blocking, framed JSON channel over a connected socket.

    Owns the socket: :meth:`close` (or garbage collection) closes it.
    ``send`` and ``recv`` move whole frames — partial reads/writes, message
    boundaries, and UTF-8/JSON codec errors are handled here so callers see
    Python objects or a :class:`TransportError`, nothing in between.
    """

    __slots__ = ("_sock", "_max_frame_bytes")

    def __init__(self, sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError(f"max_frame_bytes must be positive, got {max_frame_bytes!r}")
        self._sock = sock
        self._max_frame_bytes = max_frame_bytes

    @property
    def max_frame_bytes(self) -> int:
        """The per-frame body size limit, in bytes."""
        return self._max_frame_bytes

    def send(self, payload: object) -> None:
        """Encode ``payload`` as one JSON frame and write it completely.

        Raises :class:`FrameTooLargeError` before any byte is written when
        the encoded body exceeds the limit, :class:`TransportError` when the
        payload is not JSON-representable, and
        :class:`ConnectionClosedError` when the peer is gone mid-write.
        """
        try:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise TransportError(f"payload is not JSON-representable: {exc}") from exc
        if len(body) > self._max_frame_bytes:
            raise FrameTooLargeError(
                f"outgoing frame of {len(body)} bytes exceeds the "
                f"{self._max_frame_bytes}-byte limit"
            )
        try:
            self._sock.sendall(_HEADER.pack(len(body)) + body)
        except OSError as exc:
            raise ConnectionClosedError(
                f"connection closed while sending a frame ({type(exc).__name__}: {exc})"
            ) from exc

    def recv(self) -> object:
        """Read exactly one frame and decode it.

        Blocks until a whole frame arrives (reassembling partial reads).
        Raises :class:`ConnectionClosedError` on EOF — at a frame boundary
        or mid-frame — and :class:`FrameTooLargeError` when the length
        header announces a body over the limit (the connection is closed:
        the stream position past an unread oversized body is unknowable).
        """
        header = self._recv_exact(_HEADER.size, context="frame header")
        (length,) = _HEADER.unpack(header)
        if length > self._max_frame_bytes:
            self.close()
            raise FrameTooLargeError(
                f"incoming frame announces {length} bytes, over the "
                f"{self._max_frame_bytes}-byte limit; connection dropped"
            )
        body = self._recv_exact(length, context="frame body")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"frame body is not valid JSON: {exc}") from exc

    def _recv_exact(self, count: int, context: str) -> bytes:
        """Exactly ``count`` bytes from the socket, however many reads it takes."""
        chunks: list[bytes] = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except TimeoutError as exc:
                raise TransportError(f"timed out reading a {context}") from exc
            except OSError as exc:
                raise ConnectionClosedError(
                    f"connection closed reading a {context} ({type(exc).__name__}: {exc})"
                ) from exc
            if not chunk:
                got = count - remaining
                detail = f"after {got} of {count} bytes" if got else "at a frame boundary"
                raise ConnectionClosedError(f"connection closed reading a {context} {detail}")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def settimeout(self, timeout: float | None) -> None:
        """Bound every subsequent socket operation (``None`` blocks forever)."""
        try:
            self._sock.settimeout(timeout)
        except OSError as exc:
            raise ConnectionClosedError(
                f"connection closed while setting a timeout ({type(exc).__name__})"
            ) from exc

    def fileno(self) -> int:
        """The underlying socket's file descriptor (for selectors/diagnostics)."""
        return self._sock.fileno()

    def close(self) -> None:
        """Close the underlying socket.  Idempotent; never raises."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close failures are unreportable
            pass

    def __enter__(self) -> FramedConnection:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def framed_pair(
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> tuple[FramedConnection, FramedConnection]:
    """A connected pair of framed connections over an AF_UNIX socketpair.

    Every cluster worker link is one: a thread worker serves on its end in
    place, and a process worker's end is passed to it with
    :func:`send_connection`.
    """
    parent_sock, worker_sock = socket.socketpair()
    return (
        FramedConnection(parent_sock, max_frame_bytes),
        FramedConnection(worker_sock, max_frame_bytes),
    )


def send_connection(channel: FramedConnection, conn: FramedConnection) -> None:
    """Pass ``conn``'s descriptor to the process at the other end of ``channel``.

    ``channel`` must be an AF_UNIX connection.  The descriptor rides on one
    byte sent right after the last frame; the peer must take it with
    :func:`recv_connection` before reading the next frame, since a plain read
    of that byte would drop it.  The caller keeps its own ``conn`` and
    closes it once the peer has answered.  Raises
    :class:`ConnectionClosedError` when the peer is gone.
    """
    try:
        socket.send_fds(channel._sock, [b"\0"], [conn.fileno()])
    except TimeoutError as exc:
        raise TransportError("timed out passing a connection") from exc
    except OSError as exc:
        raise ConnectionClosedError(
            f"connection closed while passing a connection ({type(exc).__name__}: {exc})"
        ) from exc


def recv_connection(
    channel: FramedConnection, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> FramedConnection:
    """Take the connection a peer passed with :func:`send_connection`.

    The caller owns the result.  Raises :class:`ConnectionClosedError` on
    EOF and :class:`TransportError` when the byte carried no descriptor.
    """
    try:
        data, fds, _flags, _address = socket.recv_fds(channel._sock, 1, 1)
    except TimeoutError as exc:
        raise TransportError("timed out receiving a connection") from exc
    except OSError as exc:
        raise ConnectionClosedError(
            f"connection closed receiving a connection ({type(exc).__name__}: {exc})"
        ) from exc
    if not data:
        for fd in fds:
            os.close(fd)
        raise ConnectionClosedError("connection closed before a connection was passed")
    if len(fds) != 1:
        for fd in fds:
            os.close(fd)
        raise TransportError(f"expected one passed descriptor, got {len(fds)}")
    return FramedConnection(socket.socket(fileno=fds[0]), max_frame_bytes)
