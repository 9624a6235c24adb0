"""``repro serve`` with its request stages wrapped in spans.

Usage: ``python traced_server.py SPANS_PATH serve ARGS...``.  Installs
span wrappers on the names the server resolves per request — the wire
decoder and encoder, :meth:`AdvisorService.handle_payload` and the
advisor's inference — then runs the ordinary CLI.  The spans are
written to ``SPANS_PATH`` when the server exits.
"""

from __future__ import annotations

import sys

from spans import Tracer


def install(tracer: Tracer) -> None:
    import repro.serve.server as server_mod
    from repro.core.advisor import BrainyAdvisor
    from repro.models.brainy import BrainySuite
    from repro.serve.loop import AdvisorService

    tracer.patch(server_mod, "decode_line", "serve.decode")
    tracer.patch(server_mod, "encode", "serve.encode")
    tracer.patch(AdvisorService, "handle_payload", "serve.handle")
    tracer.patch(BrainyAdvisor, "advise_trace", "core.infer")
    tracer.patch(BrainyAdvisor, "advise_traces", "core.infer")
    tracer.patch(BrainySuite, "load", "models.suite_load")


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    spans_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(serve_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
