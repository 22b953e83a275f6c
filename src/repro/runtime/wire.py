"""Line-delimited-JSON wire framing shared across the networked layers.

One frame is one JSON object on one ``\\n``-terminated line — the format
``repro.service.transport`` introduced for the TCP service and the
distributed execution backend (:mod:`repro.runtime.distributed`) reuses
for its coordinator↔worker protocol.  Keeping the framing in the runtime
package (the lowest networked layer) lets both import it without a
dependency cycle: the service already builds on ``repro.runtime``.

Helpers come in three groups:

- *frames*: :func:`encode_frame` / :func:`decode_frame` /
  :func:`read_frame` / :class:`JSONLineConnection` move whole
  JSON-object frames with a hard size limit; violations raise
  :class:`FrameError` (the service's request pipeline renders it with
  :func:`frame_error`, peers treat it as a protocol breach).
  :func:`decode_frame` is the one JSON decoder of inbound frames: the
  service's stdio, TCP and HTTP front ends and :func:`read_frame` all
  go through it.
- *payloads*: :func:`pickle_to_text` / :func:`text_to_pickle` embed
  binary pickles (tasks, results) in JSON frames via base64.  Only
  exchange pickles with peers that have proven themselves: unpickling
  hostile bytes is code execution.  :mod:`repro.security` supplies the
  proof — a mutual HMAC handshake gates the distributed protocol before
  any payload is decoded, and optional TLS wraps the socket *beneath*
  this framing, so nothing in this module changes when a link is
  secured.
- *addresses*: :func:`parse_address` / :func:`format_address` for the
  ``host:port`` strings the CLI and environment variables use.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import threading

__all__ = [
    "DEFAULT_MAX_FRAME",
    "FrameError",
    "frame_error",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "JSONLineConnection",
    "pickle_to_text",
    "text_to_pickle",
    "parse_address",
    "format_address",
]

#: Upper bound on one service-request frame (bytes) before rejection.
DEFAULT_MAX_FRAME = 1_000_000

#: Upper bound on one coordinator↔worker frame.  Task frames carry
#: base64-pickled data states, so they dwarf service requests.
DEFAULT_MAX_TASK_FRAME = 256_000_000


class FrameError(ValueError):
    """A frame violated the protocol (too big, truncated, not JSON)."""


def frame_error(message: str) -> dict:
    """The structured error response servers send for a bad frame."""
    return {
        "ok": False,
        "error": {"type": "FrameError", "message": message, "code": "bad_frame"},
    }


def encode_frame(obj: dict) -> bytes:
    """Serialize one frame: compact JSON plus the terminating newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(data: bytes | str) -> dict:
    """Decode one frame's JSON, which must be an object.

    Raises :class:`FrameError` for invalid JSON and non-object frames.
    Bytes are read as UTF-8, with undecodable bytes replaced.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        frame = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FrameError(f"invalid JSON frame: {exc}") from None
    if not isinstance(frame, dict):
        raise FrameError("frame must be a JSON object")
    return frame


def read_frame(rfile, limit: int = DEFAULT_MAX_FRAME) -> dict | None:
    """Read one frame from a buffered binary reader.

    Returns ``None`` on clean EOF between frames.  Raises
    :class:`FrameError` for oversized or truncated lines, invalid JSON,
    and non-object frames — the caller decides whether that ends the
    connection (peer protocol) or becomes an error response (server
    protocol, whose TCP front end keeps its own loop that drains
    oversized lines in ``repro.service.transport``).
    """
    line = rfile.readline(limit + 1)
    if not line:
        return None
    if len(line) > limit:
        raise FrameError(f"frame exceeds {limit} bytes")
    if not line.endswith(b"\n"):
        raise FrameError("truncated frame (EOF before newline)")
    return decode_frame(line)


class JSONLineConnection:
    """One socket speaking JSON-object lines in both directions.

    Sends are serialized by a lock so frames from different threads
    (e.g. a worker's heartbeat thread racing its result writes) never
    interleave; reads are expected from a single owning thread.
    """

    def __init__(self, sock: socket.socket, max_frame: int = DEFAULT_MAX_TASK_FRAME):
        self.sock = sock
        self.max_frame = max_frame
        self._rfile = sock.makefile("rb")
        self._send_lock = threading.Lock()

    def send(self, obj: dict) -> None:
        """Write one frame (thread-safe; raises ``OSError`` when broken)."""
        payload = encode_frame(obj)
        if len(payload) > self.max_frame:
            raise FrameError(
                f"outgoing frame of {len(payload)} bytes exceeds {self.max_frame}"
            )
        with self._send_lock:
            self.sock.sendall(payload)

    def recv(self) -> dict | None:
        """Read one frame (``None`` on clean EOF; ``FrameError`` on abuse)."""
        return read_frame(self._rfile, self.max_frame)

    def close(self) -> None:
        """Tear the connection down (idempotent, swallows socket errors)."""
        for closer in (self._rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass

    @property
    def peer(self) -> str:
        """``host:port`` of the remote end (best-effort, for logs)."""
        try:
            return format_address(self.sock.getpeername()[:2])
        except OSError:
            return "?"


# ---------------------------------------------------------------------- #
# binary payloads inside JSON frames
# ---------------------------------------------------------------------- #
def pickle_to_text(obj) -> str:
    """Base64 text of ``obj``'s pickle, embeddable in a JSON frame."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def text_to_pickle(text: str):
    """Rehydrate a :func:`pickle_to_text` payload (trusted peers only)."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


# ---------------------------------------------------------------------- #
# addresses
# ---------------------------------------------------------------------- #
def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (host defaults to loopback when omitted)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected host:port, got {text!r}")
    return host or "127.0.0.1", int(port)


def format_address(address: tuple[str, int]) -> str:
    """Format ``(host, port)`` back into the ``host:port`` string."""
    return f"{address[0]}:{address[1]}"
