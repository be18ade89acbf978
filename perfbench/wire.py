"""A blocking RBP1 client with one request in flight.

The load generator is a closed loop, so it needs nothing more than
send-then-wait on one socket: no reader thread, no id matching beyond
a check. Frames are built with the program's own codec
(``repro.server.aio.framing``), exactly as any binary client would.
"""

from __future__ import annotations

import socket
import time

from repro.server.aio import framing


class ReplyError(Exception):
    """The server answered with an error frame."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class WireClient:
    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.sendall(framing.MAGIC)
        self._next_id = 1

    def call(self, op: str, **fields):
        """Send one request; return its result or raise
        :class:`ReplyError` / ``OSError``."""
        request_id = self._next_id
        self._next_id += 1
        request = {"id": request_id, "op": op}
        request.update(fields)
        self._sock.sendall(framing.encode_request(request))
        (length,) = framing.LENGTH.unpack(self._recv(4))
        frame = framing.decode_response(self._recv(length))
        if frame.get("id") != request_id:
            raise ConnectionError(
                f"reply id {frame.get('id')} for request {request_id}"
            )
        if not frame.get("ok"):
            error = frame.get("error") or {}
            raise ReplyError(
                str(error.get("code")), str(error.get("message"))
            )
        return frame.get("result")

    def _recv(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def wait_for_ping(host: str, port: int, deadline: float) -> None:
    """Connect and ping until the server answers or ``deadline``
    (``time.monotonic``) passes."""
    while True:
        try:
            client = WireClient(host, port, timeout=5.0)
            try:
                if client.call("ping") == "pong":
                    return
            finally:
                client.close()
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise TimeoutError(f"no ping answer from {host}:{port}")
        time.sleep(0.005)
