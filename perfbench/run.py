"""heegnerlab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ (Python needs no build step).  Workloads: genus_sweep,
weil_atlas, shell_enum, cli_batch (see workloads.py and BENCHMARK.json).

The load is a batch tool's: a closed loop, one client, one operation at a
time, in a fresh worker process per measurement.

--trace 0 starts SETUP_PROBES set-up-only workers and then one measuring
worker, and reports the end-to-end metrics.  --trace 1 runs a traced worker
for half of --seconds, then an untraced worker over the same rounds, checks
that both produced the same payload digests, and reports the per-layer
metrics (each per round, except ratios and maxima) with the tracing overhead.

Times are calibrated against a reference loop (see worker.py); the printed
lines give each time's uncalibrated wall-clock value too, and each percentile
its sample count.  Every output is checked; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The full
record (environment, input manifest, per-operation times, uncalibrated
times, errors) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from worker import OUT, REF_NOMINAL_S, ROOT, SRC  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
# Every worker is killed once this much time has passed since the start.
DEADLINE = time.monotonic() + 170

# OpenBLAS's default on this class of machine is one thread per core.  The
# Weil verify multiplies dense complex matrices of dimension up to 400, where
# two threads are slower than one (0.24 s against 0.003 s at dimension 80 on
# 2 vCPUs) and their spin-waiting makes the timing depend on whatever else
# the machine runs.  Pinning one thread keeps weil_atlas steady; the number
# and the reason are recorded with every result.
BLAS_THREADS = "1"
BLAS_REASON = (
    "pinned to 1: with the 2-thread default the dense Weil verify is slower "
    "(0.24 s vs 0.003 s at dim 80) and its run-to-run spread exceeds the bounds"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

COUNTS = {
    "enumeration.vectors_out": ("counter", "enumeration.vectors_out"),
    "enumeration.lex_yielded": ("counter", "enumeration.lex_yielded"),
    "discriminant.b_calls": ("calls", "discriminant.DiscriminantGroup.b"),
    "discriminant.q_calls": ("calls", "discriminant.DiscriminantGroup.q"),
    "discriminant.order_sum": ("counter", "discriminant.order_sum"),
    "weil.build_s": ("incl", "weil.build_weil_rep"),
    "weil.verify_s": ("incl", "weil.verify_sl2_relations"),
    "weil.dim_sum": ("counter", "weil.dim_sum"),
    "weil.entries": ("counter", "weil.entries"),
    "intlinalg.snf_calls": ("calls", "intlinalg.smith_normal_form"),
    "intlinalg.snf_cells": ("counter", "intlinalg.snf_cells"),
    "intlinalg.hnf_calls": ("calls", "intlinalg.hermite_row_basis"),
    "lattices.pairing_calls": ("calls", "lattices.IntegerLattice.pairing"),
    "lattices.complement_calls": ("calls", "lattices.orthogonal_complement"),
    "cycles.embed_calls": ("calls", "cycles.embed_k3_lattice"),
    "cycles.moment_s": ("incl", "cycles.moment_matrix"),
    "cycles.moment_cells": ("counter", "cycles.moment_cells"),
    "bounds.certs": ("calls", "bounds.irr_bound_certificate"),
    "bounds.sieve_len": ("counter", "bounds.sieve_len"),
    "arith.factorize_calls": ("calls", "arith.factorize"),
    "arith.sieve_len": ("counter", "arith.sieve_len"),
    "cli.invocations": ("counter", "cli.invocations"),
    "cli.stdout_bytes": ("counter", "cli.stdout_bytes"),
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in output order."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    for name in COUNTS:
        units[name] = "s" if name.endswith("_s") else ("bytes" if name.endswith("bytes") else "count")
    units.update(
        {
            "enumeration.first_hit_ratio": "ratio",
            "weil.max_dev": "abs",
            "cli.startup_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def spawn(workload: str, seed: int, *, seconds=None, rounds=None, setup_only=False, trace=False):
    """Run one worker process; returns (calibrated seconds to READY, raw
    seconds to READY, result document)."""
    tag = f"{workload}-{'trace' if trace else 'plain'}-{os.getpid()}"
    out, log = OUT / f"{tag}.worker.json", OUT / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    elif rounds is not None:
        cmd += ["--rounds", str(rounds)]
    else:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    with open(log, "w") as log_fh:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log_fh, cwd=ROOT, env=worker_env()) as proc:
            killer = threading.Timer(max(DEADLINE - time.monotonic(), 1), proc.kill)
            killer.start()
            try:
                ready = proc.stdout.readline()
                ready_s = time.perf_counter() - t0
                rest = proc.stdout.read().split()
                proc.wait()
            finally:
                killer.cancel()
    if ready.strip() != b"READY" or rest[:1] != [b"REF"] or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}:\n{log.read_text()[-2000:]}")
    calibrated_s = ready_s * REF_NOMINAL_S / float(rest[1])
    log.unlink()
    if setup_only:
        return calibrated_s, ready_s, None
    doc = json.loads(out.read_text())
    out.unlink()
    return calibrated_s, ready_s, doc


def pooled_percentiles(doc: dict, key: str = "op_s") -> tuple[float, float, int]:
    ms = [t * 1e3 for r in doc["rounds"] for t in r[key]]
    if len(ms) == 1:
        return ms[0], ms[0], 1
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8], len(ms)


def round_walls(doc: dict, key: str = "op_s") -> list[float]:
    return [sum(r[key]) for r in doc["rounds"]]


def count_ops(*docs) -> tuple[int, int, list]:
    attempted = sum(len(r["op_s"]) for d in docs for r in d["rounds"])
    errors = [e for d in docs for r in d["rounds"] for e in r["errors"]]
    return attempted, len(errors), errors


def expected_digest(workload: str) -> str | None:
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline["default_seed_round0_digest"].get(workload)


def layer_metrics(summary: dict, rounds: int, speed: float) -> dict[str, float]:
    """Per-layer metrics per round; times are scaled by `speed`, the traced
    run's ratio of calibrated to raw operation time."""
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = summary["layer_calls"].get(layer, 0) / rounds
        m[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0) * speed / rounds
        m[f"{layer}.errors"] = summary["layer_errors"].get(layer, 0) / rounds
    source = {"calls": summary["calls"], "incl": summary["incl_s"], "counter": summary["counters"]}
    for name, (kind, key) in COUNTS.items():
        m[name] = source[kind].get(key, 0) * (speed if kind == "incl" else 1) / rounds
    counters = summary["counters"]
    first = counters.get("enumeration.lex_yielded_first", 0)
    m["enumeration.first_hit_ratio"] = counters.get("enumeration.first_hits", 0) / first if first else 0.0
    m["weil.max_dev"] = summary["max_dev"]
    calls = counters.get("cli.invocations", 0)
    m["cli.startup_s"] = counters.get("cli.startup_s", 0.0) * speed / calls if calls else 0.0
    return m


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, worker_doc: dict) -> dict:
    return {
        **worker_doc["env"],
        "python_harness": platform.python_version(),
        "OPENBLAS_NUM_THREADS": {"inherited": os.environ.get("OPENBLAS_NUM_THREADS"), "worker": BLAS_THREADS},
        "OMP_NUM_THREADS": {"inherited": os.environ.get("OMP_NUM_THREADS"), "worker": BLAS_THREADS},
        "blas_threads_reason": BLAS_REASON,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    probes = [spawn(workload, seed, setup_only=True)[:2] for _ in range(SETUP_PROBES)]
    ready_s, ready_raw_s, doc = spawn(workload, seed, seconds=seconds)
    probes.append((ready_s, ready_raw_s))
    setups = [s for s, _ in probes]
    p50, p90, samples = pooled_percentiles(doc)
    raw_p50, raw_p90, _ = pooled_percentiles(doc, "raw_s")
    rss_kb = doc["rss_children_kb"] if workload == "cli_batch" else doc["rss_self_kb"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(round_walls(doc)),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mb": rss_kb / 1024,
    }
    uncalibrated = {
        "setup_s": statistics.median(raw for _, raw in probes),
        "wall_s": statistics.median(round_walls(doc, "raw_s")),
        "op_ms_p50": raw_p50,
        "op_ms_p90": raw_p90,
    }
    attempted, failed, errors = count_ops(doc)
    notes = {
        "setup_samples_s": setups,
        "op_samples": samples,
        "round_wall_s": round_walls(doc),
        "uncalibrated": uncalibrated,
    }
    return report(workload, seed, 0, [doc], metrics, END_TO_END, attempted, failed, errors, [], notes)


def trace(workload: str, seed: int, seconds: float) -> dict:
    traced = spawn(workload, seed, seconds=seconds / 2, trace=True)[2]
    rounds = len(traced["rounds"])
    plain = spawn(workload, seed, rounds=rounds)[2]
    problems = [
        f"round {i}: traced digest differs from untraced"
        for i, (a, b) in enumerate(zip(traced["rounds"], plain["rounds"]))
        if a["digest"] != b["digest"]
    ]
    speed = sum(map(sum, (r["op_s"] for r in traced["rounds"]))) / sum(map(sum, (r["raw_s"] for r in traced["rounds"])))
    metrics = layer_metrics(traced["trace"], rounds, speed)
    metrics["trace.overhead_ratio"] = statistics.median(round_walls(traced)) / statistics.median(round_walls(plain))
    attempted, failed, errors = count_ops(traced, plain)
    notes = {
        "rounds": rounds,
        "spans_kept": traced["trace"]["spans_kept"],
        "spans_dropped": traced["trace"]["spans_dropped"],
        "round_wall_s": {"traced": round_walls(traced), "untraced": round_walls(plain)},
    }
    return report(workload, seed, 1, [traced, plain], metrics, per_layer_units(), attempted, failed, errors, problems, notes)


def report(workload, seed, traced, docs, metrics, units, attempted, failed, errors, problems, notes) -> dict:
    if seed == DEFAULT_SEED:
        want = expected_digest(workload)
        for doc in docs:
            got = doc["rounds"][0]["digest"]
            if want is not None and got != want:
                problems.append(f"round 0 digest {got} differs from the recorded default-seed digest {want}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": traced,
        "environment": environment(seed, docs[0]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "errors": errors[:50],
        "round0_digest": docs[0]["rounds"][0]["digest"],
        **notes,
        "manifest": [r["inputs"] for r in docs[0]["rounds"]],
        "op_s": [r["op_s"] for r in docs[0]["rounds"]],
    }
    (OUT / f"{workload}-seed{seed}-trace{traced}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heegnerlab" / "__init__.py").is_file():
        print(f"error: no heegnerlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        run = trace if args.trace else measure
        record = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = record.get("uncalibrated", {})
    for name, metric in record["metrics"].items():
        line = f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}"
        if name in raw:
            line += f" (uncalibrated {raw[name]:.6g} {metric['unit']})"
        if name.startswith("op_ms_p"):
            line += f" over {record['op_samples']} operations"
        print(line)
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} ({record['failed']}/{record['attempted']} operations)")
    for line in record["problems"] + [e["error"] for e in record["errors"][:5]]:
        print(f"{args.workload} problem: {line}")
    result = {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
