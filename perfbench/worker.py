"""One measured process: import heegnerlab, warm up, run rounds, check outputs.

run.py starts this script in a fresh interpreter for every measurement.  It
prints READY once the workload's lazy set-up is warmed (run.py times the
set-up up to that line), then REF and the reference time, and writes its
result document to --out.

Times are calibrated.  The machines this runs on are shared, and their speed
drifts by 20-50 % over seconds, for every CPU-bound process alike.  So the
worker times a fixed pure-Python reference loop before an operation once
REF_EVERY_S has passed since the last one, and again right after any
operation that took longer than that, and scales each operation's time by
REF_NOMINAL_S over the median of the last three reference times.  Both
programs under comparison run the same loop, so their ratio is unchanged,
while the drift common to both cancels.  The raw times are kept alongside.

heegnerlab is imported from the src/ directory of the checkout that holds
this script; a traced worker writes its spans to perfbench/out/spans-NAME.npz.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --rounds R | --setup-only) [--trace] --out PATH
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _numpy_facts() -> dict:
    import numpy as np

    facts = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
        facts["blas_config"] = blas.get("openblas configuration", "")
    except (KeyError, TypeError) as exc:
        facts["blas"] = f"unknown ({exc})"
    return facts


REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.1


def reference() -> float:
    """Seconds taken by a fixed loop of integer and Fraction arithmetic, the
    two kinds of work heegnerlab does most; about 5 ms on a quiet core."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, 16001):
        acc = (acc * 31 + i * i) % 1_000_003
    for i in range(1, 801):
        acc += (Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, 3)).numerator % 97
    return time.perf_counter() - t0


class SpeedGauge:
    """Current machine speed, from the median of the last three reference
    times; a new reference time is taken once REF_EVERY_S has passed."""

    def __init__(self):
        self.samples: deque = deque(maxlen=3)
        self.taken = 0
        self.last = float("-inf")

    def factor(self) -> float:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.samples.append(reference())
            self.taken += 1
            self.last = time.perf_counter()
        return REF_NOMINAL_S / statistics.median(self.samples)


def run_round(workload, H, specs, ctx: dict, tracer: Tracer | None, gauge: SpeedGauge) -> dict:
    """Run and check every operation of one round.

    Only the call into the library is timed.  An operation fails if it
    raises or its output fails the check; a failed operation still counts as
    attempted and its time still counts.
    """
    op_s, raw_s, digests, errors = [], [], [], []
    for i, spec in enumerate(specs):
        result, error = None, None
        factor = gauge.factor()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(H, spec, ctx)
            else:
                tracer.active = True
                try:
                    result = tracer.op(workload.name, workload.run, H, spec, ctx)
                finally:
                    tracer.active = False
        except Exception as exc:  # the operation failed; record it, go on
            error = f"raised {type(exc).__name__}: {exc}"
        raw_s.append(time.perf_counter() - t0)
        if raw_s[-1] >= REF_EVERY_S:
            factor = gauge.factor()
        op_s.append(raw_s[-1] * factor)
        if error is None:
            try:
                digests.append(hashlib.sha256(workload.check(spec, result)).hexdigest())
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # malformed output can break a check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            digests.append("failed")
            errors.append({"op": i, "spec": _brief(spec), "error": error[:500]})
    return {
        "op_s": op_s,
        "raw_s": raw_s,
        "digest": hashlib.sha256(" ".join(digests).encode()).hexdigest(),
        "errors": errors,
    }


def _brief(spec: dict) -> dict:
    return {k: v for k, v in spec.items() if k not in ("gram", "stdin")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import heegnerlab as H
    import heegnerlab.cli  # noqa: F401  (binds H.cli)

    workload = WORKLOADS[args.workload]()
    workload.warm(H)
    print("READY", flush=True)
    print("REF", statistics.median(reference() for _ in range(3)), flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(H)
        tracer.active = False
    workload.prepare(H)
    # CLI invocations (cli_batch) run `python -m heegnerlab` from the root.
    ctx = {
        "root": str(ROOT),
        "env": {**os.environ, "PYTHONPATH": str(SRC)},
        "python": sys.executable,
        "tracer": tracer,
        "scratch": str(OUT),
    }

    rounds = []
    gauge = SpeedGauge()
    inputs = workload.rounds(args.seed)
    began = time.perf_counter()
    while True:
        specs = next(inputs)
        record = run_round(workload, H, specs, dict(ctx), tracer, gauge)
        record["inputs"] = specs
        rounds.append(record)
        elapsed = time.perf_counter() - began
        if args.rounds is not None:
            if len(rounds) >= args.rounds:
                break
        elif elapsed + elapsed / len(rounds) > args.seconds:
            break

    doc = {
        "rounds": rounds,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "reference_samples": gauge.taken,
        "env": {"python": platform.python_version(), **_numpy_facts()},
    }
    if tracer is not None:
        doc["trace"] = tracer.summary()
        tracer.write_spans(OUT / f"spans-{args.workload}.npz")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
