"""The service daemon with the benchmark's spans recorded inside it.

    python3 perfbench/traced_daemon.py SPANS.json [repro.service flags]

Runs ``python -m repro.service`` with the wrappers of ``tracing.py``
installed. Recording starts at a ``ping`` whose ``id`` is
``"trace-on"`` and stops at one whose ``id`` is ``"trace-off"``, so
warm-up ops stay out of the spans; they are written to ``SPANS.json``
when the daemon shuts down.
"""

import sys

from tracing import SERVICE_TARGETS, TARGETS, Tracer


def main(argv) -> int:
    from repro.service.__main__ import main as serve_main
    from repro.service.core import ServiceCore

    path, flags = argv[0], argv[1:]
    tracer = Tracer()
    tracer.enabled = False
    tracer.install(TARGETS + SERVICE_TARGETS)
    handle = ServiceCore.handle

    def switched(self, request):
        if request.get("op") == "ping" and request.get("id") in (
            "trace-on", "trace-off"
        ):
            tracer.enabled = request["id"] == "trace-on"
        return handle(self, request)

    ServiceCore.handle = switched
    status = serve_main(flags)
    tracer.dump(path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
