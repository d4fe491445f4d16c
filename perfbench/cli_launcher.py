"""Traced stand-in for ``python -m repro``: same argv, same exit code.

Times the interpreter start (from the ``PERFBENCH_LAUNCH`` monotonic stamp
the spawning process took) and the import of ``repro.cli``, wraps the
layers with :class:`tracer.Tracer`, runs :func:`repro.cli.main`, and
writes the span summary, the ``STATS`` delta and its own end stamp as JSON
to ``$PERFBENCH_TRACE_OUT`` (the spawner derives interpreter finalization
from the end stamp).
"""

import os
import sys
import time

LAUNCH = float(os.environ["PERFBENCH_LAUNCH"])
START_S = time.monotonic() - LAUNCH
_began = time.monotonic()
from repro import cli  # noqa: E402  (timed: what ``python -m repro`` imports)

IMPORT_S = time.monotonic() - _began

import json  # noqa: E402

from repro.core.stats import STATS  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer().install()
    before = STATS.snapshot()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["import.s"] = IMPORT_S
    summary["process.start_s"] = START_S
    record = {"summary": summary, "counters": STATS.delta_since(before)}
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as out:
        record["end_s"] = time.monotonic() - LAUNCH
        json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
