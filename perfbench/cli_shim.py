"""Run one heegnerlab CLI invocation with the span tracer installed.

    python3 perfbench/cli_shim.py TRACE_PREFIX ARGS...

behaves like `python -m heegnerlab ARGS...` (same stdout, stderr and exit
code; heegnerlab must be importable, as for `-m`).  It also writes the
tracer's summary to TRACE_PREFIX.json and its spans to TRACE_PREFIX.npz.
The summary carries `main_start`, the perf_counter reading at which
`cli.main` was entered, and `install_s`, the time the tracer took to install,
so the caller can tell interpreter start and import from the command's work.
"""

import json
import sys
import time

import heegnerlab
import heegnerlab.cli
from tracer import Tracer


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.install(heegnerlab)
    main_start = time.perf_counter()
    try:
        return heegnerlab.cli.main(argv)
    finally:
        doc = tracer.summary()
        doc.update(main_start=main_start, install_s=main_start - t0)
        with open(f"{prefix}.json", "w") as fh:
            json.dump(doc, fh)
        tracer.write_spans(f"{prefix}.npz")


if __name__ == "__main__":
    sys.exit(main())
