"""Run the schurtrails command line from the source tree, optionally traced.

    python3 bench/cli_entry.py verify general --lambda 2,1 --format json

The package has no __main__ module and the benchmark does not install it, so
the cli_sweep workload starts every CLI call through this file, which puts
the checkout's src/ on the import path and calls schurtrails.cli.main.  With
BENCH_TRACE=1 in the environment the call runs under the tracer and, when main
exits, one line starting with TRACE_PREFIX and holding the counters and spans
as JSON is written to stderr.  With BENCH_REF=1 the process then times the
reference loop (bench/refspeed.py) and writes its report line to stderr, so
that the call's time can be scaled to the reference speed.
"""

import json
import os
import sys

from refspeed import child_report

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_PREFIX = "bench-trace "


def _run():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from schurtrails.cli import main

    if os.environ.get("BENCH_TRACE") != "1":
        main()
        return
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        main()
    finally:
        tracer.count_schur_cache()
        payload = {"snapshot": tracer.snapshot(), "spans": tracer.spans}
        sys.stderr.write(TRACE_PREFIX + json.dumps(payload) + "\n")


if __name__ == "__main__":
    try:
        _run()
    finally:
        if os.environ.get("BENCH_REF") == "1":
            sys.stderr.write(child_report() + "\n")
