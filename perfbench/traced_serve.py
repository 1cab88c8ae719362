"""Run ``repro serve`` with the layer tracer installed.

Usage: ``python perfbench/traced_serve.py DUMP_PATH <repro serve args>``.

Spans are timed with each thread's CPU clock (see
:mod:`perfbench.tracing`), so the daemon's span self times add up to at
most its CPU time.  ``SIGUSR1`` writes the merged tables to
``DUMP_PATH``; the benchmark sends it when its traced stream has ended.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))


def main() -> int:
    from perfbench.tracing import Tracer
    from repro.serve.http import main as serve_main

    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()

    def dump(signum: int, frame: object) -> None:
        snapshot = tracer.snapshot()
        snapshot["unmeasured"] = sorted(tracer.unmeasured)
        with open(dump_path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        os.replace(dump_path + ".tmp", dump_path)

    signal.signal(signal.SIGUSR1, dump)
    return serve_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
