"""The TCP front for :class:`~repro.serve.loop.AdvisorService`.

Newline-delimited JSON over a plain socket: each connection sends any
number of request lines and receives one response line per request, in
order (see :mod:`repro.serve.protocol`).  Connections are handled on
daemon threads; the actual inference concurrency is bounded by the
service's dispatch loop, not by the connection count.

Lifecycle (:func:`run_server`, what ``repro serve`` runs):

1. bind (``port=0`` picks an ephemeral port) and announce
   ``serving on HOST:PORT`` on stdout — supervisors and the smoke test
   parse this line;
2. serve until **SIGTERM or SIGINT**, polling the suite artifact for
   hot reload every ``poll_interval`` seconds;
3. on signal: stop accepting, drain in-flight requests within
   ``RunOptions.drain_seconds``, export the telemetry artifact (when
   requested), and exit — code 0 when the drain completed, 1 when the
   budget expired with work still running.
"""

from __future__ import annotations

import signal
import socket
import socketserver
import threading
from pathlib import Path

import repro.obs as obs
from repro.serve.loop import AdvisorService
from repro.serve.protocol import (
    STATUS_ERROR,
    ProtocolError,
    ServeResponse,
    decode_line,
    encode,
)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via e2e
        service: AdvisorService = self.server.service  # type: ignore
        while True:
            try:
                line = self.rfile.readline()
            except OSError:
                return
            if not line:
                return
            if not line.strip():
                continue
            try:
                payload = decode_line(line)
            except ProtocolError as exc:
                response = ServeResponse(status=STATUS_ERROR,
                                         error=str(exc)).to_payload()
            else:
                response = service.handle_payload(payload)
            try:
                self.wfile.write(encode(response))
                self.wfile.flush()
            except OSError:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class AdvisorServer:
    """A bound, running server; the embeddable piece under ``repro serve``.

    With ``reuse_port=True`` the listening socket is bound with
    ``SO_REUSEPORT`` so several shared-nothing worker processes can
    listen on the very same address and let the kernel balance
    connections between them (see :mod:`repro.serve.fleet`).
    """

    def __init__(self, service: AdvisorService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 reuse_port: bool = False) -> None:
        self.service = service
        self._tcp = _TCPServer((host, port), _Handler,
                               bind_and_activate=not reuse_port)
        if reuse_port:
            try:
                self._tcp.socket.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                self._tcp.server_bind()
                self._tcp.server_activate()
            except BaseException:
                self._tcp.server_close()
                raise
        self._tcp.service = service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def start(self) -> "AdvisorServer":
        """Accept connections on a background thread."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept", daemon=True,
        )
        self._thread.start()
        return self

    def stop_accepting(self) -> None:
        self._tcp.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._tcp.server_close()

    def close(self) -> None:
        self.stop_accepting()


def request_once(host: str, port: int, payload: dict,
                 timeout: float = 10.0) -> dict:
    """One request/response round trip (client helper for tests/smoke)."""
    import json

    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(encode(payload))
        reader = conn.makefile("rb")
        line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection mid-request")
    return json.loads(line)


def run_server(service: AdvisorService,
               host: str = "127.0.0.1", port: int = 0, *,
               telemetry: str | Path | None = None,
               poll_interval: float = 1.0,
               install_signal_handlers: bool = True,
               reuse_port: bool = False,
               announce=print) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    Returns the process exit code: 0 after a clean drain, 1 when the
    drain budget expired with requests still in flight.  The telemetry
    artifact (when requested) is exported in both cases — a forced
    shutdown still leaves the metrics describing it.
    """
    stop = threading.Event()

    def _on_signal(signum, frame):  # pragma: no cover - signal path
        stop.set()

    previous_handlers = {}
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[signum] = signal.signal(signum,
                                                          _on_signal)
            except (ValueError, OSError):  # non-main thread
                pass

    server = AdvisorServer(service, host=host, port=port,
                           reuse_port=reuse_port).start()
    bound_host, bound_port = server.address
    announce(f"serving on {bound_host}:{bound_port}", flush=True)
    try:
        with obs.use_collector(service.collector):
            last_reload_error: str | None = None
            while not stop.wait(poll_interval):
                # A reconciliation failure (corrupt registry, racing
                # pipeline, transient I/O) must never take the serving
                # process down — keep answering from last-known-good
                # and retry on the next poll.
                try:
                    service.reload_now()
                    last_reload_error = None
                except Exception as exc:
                    message = f"{type(exc).__name__}: {exc}"
                    if message != last_reload_error:
                        announce(
                            "reload failed (serving last-known-good): "
                            + message,
                            flush=True,
                        )
                        last_reload_error = message
            # Signal received: stop accepting, then drain in-flight
            # work within the budget.
            server.stop_accepting()
            service.begin_drain()
            drained = service.drain()
            service.close()
            if telemetry is not None:
                service.export_telemetry(
                    telemetry,
                    meta={"drained": drained,
                          "host": bound_host, "port": bound_port},
                )
            announce(
                "drained cleanly" if drained
                else "drain budget expired with requests in flight",
                flush=True,
            )
            return 0 if drained else 1
    finally:
        try:
            server.close()
        except Exception:  # pragma: no cover - already closed
            pass
        if install_signal_handlers:
            for signum, handler in previous_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
