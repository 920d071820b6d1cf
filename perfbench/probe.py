"""One benchmark step in a fresh interpreter: a ``shiftbench`` CLI call or an input generator.

    python3 probe.py RESULT.json cli ARGS...          # shiftbench ARGS, untraced
    python3 probe.py RESULT.json cli-trace DIR ARGS...  # the same, with layer spans
    python3 probe.py RESULT.json gen-reviews OUT N SEED

``shiftbench`` is imported first in every mode, and the result file holds
monotonic-clock timestamps for the start, the end of the import and both
ends of the timed phase, so the caller can time the interpreter start plus
the import on their own.  It also holds the exit code, the timed phase's CPU
time (this process and its reaped children, such as pool workers), peak
resident memory and, when traced, the spans.  Nothing after the timed phase
is part of any figure.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

STARTED = perf_counter()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    result_path, mode, args = argv[0], argv[1], argv[2:]
    import shiftbench.cli

    imported = perf_counter()
    tracer = None
    if mode == "cli-trace":
        from trace_layers import Tracer

        tracer = Tracer(args[0])
        tracer.install()
        args = args[1:]
    cpu_before = _cpu_s()
    entered = perf_counter()
    if mode == "gen-reviews":
        from gen_inputs import write_reviews

        write_reviews(args[0], int(args[1]), int(args[2]))
        code = 0
    elif tracer is not None:
        code = tracer.wrap("cli.main", shiftbench.cli.main)(args)
    else:
        code = shiftbench.cli.main(args)
    left = perf_counter()
    cpu = _cpu_s() - cpu_before
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "code": code,
        "package": shiftbench.__file__,
        "started": STARTED,
        "imported": imported,
        "entered": entered,
        "left": left,
        "cpu_s": cpu,
        "peak_rss_mb": max(own, kids) / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counts": tracer.counts,
            "workers": tracer.worker_dumps(),
            "missing": tracer.missing,
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
