"""Closed-loop TCP load for ``repro serve``.

One thread drives every connection through a ``selectors`` loop.  Each
connection sends its next request the moment its previous answer lands,
as an advise caller that waits for its reply would: with two persistent
connections the server always has exactly two requests in flight.  The
server reads one line per connection at a time, so the loop never
pipelines.

Every answer is compared raw-byte with the line expected for its
request.  A wrong, missing or truncated answer counts as failed.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Iterator

CONNECTIONS = 2
#: Seconds without any answer after which every request in flight is
#: counted as lost.
TIMEOUT_S = 30.0


@dataclass
class LoadResult:
    #: Latency of each correct answer whose request was sent inside the
    #: measured window and answered before it closed, in completion
    #: order (seconds).
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


@dataclass(eq=False)
class _Conn:
    sock: socket.socket
    buf: bytes = b""
    expected: bytes | None = None
    sent_at: float = 0.0


class ClosedLoop:
    """Persistent connections driven in closed loop, one burst at a time.

    Between :meth:`run` calls every connection is idle, so a caller can
    measure something else without the load running.
    """

    def __init__(self, address: tuple[str, int],
                 requests: Iterator[tuple[bytes, bytes]]) -> None:
        self.requests = requests
        self.selector = selectors.DefaultSelector()
        self.conns: list[_Conn] = []
        try:
            for _ in range(CONNECTIONS):
                sock = socket.create_connection(address, timeout=TIMEOUT_S)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.conns.append(_Conn(sock))
                self.selector.register(sock, selectors.EVENT_READ,
                                       self.conns[-1])
        except OSError:
            self.close()
            raise

    def _drop(self, conn: _Conn) -> None:
        self.selector.unregister(conn.sock)
        conn.sock.close()
        self.conns.remove(conn)

    def run(self, warmup_s: float, measure_s: float) -> LoadResult:
        """``warmup_s`` untimed seconds, then ``measure_s`` timed ones;
        returns once every request sent has been answered (or lost)."""
        result = LoadResult()
        clock = time.perf_counter
        start = clock() + warmup_s
        end = start + measure_s

        def send(conn: _Conn) -> None:
            line, conn.expected = next(self.requests)
            result.attempted += 1
            conn.sent_at = clock()
            conn.sock.sendall(line)

        busy = set()
        for conn in list(self.conns):
            try:
                send(conn)
                busy.add(conn)
            except OSError:
                result.failed += 1
                self._drop(conn)
        while busy:
            events = self.selector.select(TIMEOUT_S)
            if not events:
                # Nothing answered within the timeout: every request
                # still in flight is lost.
                result.failed += len(busy)
                for conn in busy:
                    self._drop(conn)
                break
            for key, _ in events:
                conn = key.data
                try:
                    chunk = conn.sock.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    result.failed += 1
                    busy.discard(conn)
                    self._drop(conn)
                    continue
                conn.buf += chunk
                if b"\n" not in conn.buf:
                    continue
                line, _, conn.buf = conn.buf.partition(b"\n")
                now = clock()
                if line + b"\n" != conn.expected or conn.buf:
                    result.failed += 1
                elif conn.sent_at >= start and now <= end:
                    result.latencies.append(now - conn.sent_at)
                if now >= end:
                    busy.discard(conn)
                    continue
                try:
                    send(conn)
                except OSError:
                    result.failed += 1
                    busy.discard(conn)
                    self._drop(conn)
        return result

    def close(self) -> None:
        for conn in list(self.conns):
            self._drop(conn)
        self.selector.close()

    def __enter__(self) -> "ClosedLoop":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
