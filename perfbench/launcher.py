#!/usr/bin/env python3
"""Start ``repro serve`` in this process, traced or not.

    python3 perfbench/launcher.py [--spans FILE] -- --segments DIR --port 0

Everything after ``--`` goes to ``repro serve``.  With ``--spans`` the
benchmark's layer wrappers are installed before the server starts, and on
SIGTERM the server stops and the recorded spans and counters are written
to FILE as JSON.  Without it the server runs exactly as the CLI starts it.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    common.import_repro()
    from repro import cli

    signal.signal(signal.SIGTERM, _interrupt)
    if spans_path is None:
        return cli.main(["serve", *argv])

    from perfbench.layers import install_serving
    from perfbench.tracer import Tracer

    tracer = Tracer()
    install_serving(tracer)
    try:
        return cli.main(["serve", *argv])
    finally:
        tracer.uninstall()
        spans, counters = tracer.take()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [span.to_row() for span in spans],
                       "counters": counters}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
