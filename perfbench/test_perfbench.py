"""Tests of the benchmark itself: failure accounting, seeding, tracing, and
agreement between BENCHMARK.json and the metrics run.py prints.

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import heegnerlab  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import SpeedGauge, run_round  # noqa: E402
from workloads import DEFAULT_SEED, E8, HELD_OUT_SEED, CliBatch, GenusSweep, ShellEnum, WeilAtlas  # noqa: E402

E8_SHELL = {"kind": "e8", "gram": [list(r) for r in E8], "norm": 2}


def library_with(**overrides):
    """The heegnerlab namespace with some functions replaced."""
    return types.SimpleNamespace(**{**vars(heegnerlab), **overrides})


def test_correct_output_passes():
    record = run_round(ShellEnum(), heegnerlab, [E8_SHELL], {}, None, SpeedGauge())
    assert record["errors"] == []


def test_corrupted_output_counts_as_failed_operation():
    def drop_one(*args, **kwargs):
        return heegnerlab.enumerate_by_norm(*args, **kwargs)[1:]

    def flip_one(*args, **kwargs):
        out = heegnerlab.enumerate_by_norm(*args, **kwargs)
        out[0] = -out[0]
        return out

    good = run_round(ShellEnum(), heegnerlab, [E8_SHELL], {}, None, SpeedGauge())
    for corrupt in (drop_one, flip_one):
        record = run_round(ShellEnum(), library_with(enumerate_by_norm=corrupt), [E8_SHELL], {}, None, SpeedGauge())
        assert len(record["errors"]) == 1 and len(record["op_s"]) == 1
        assert record["digest"] != good["digest"]


def test_raising_operation_counts_as_failed():
    def broken(*args, **kwargs):
        raise ArithmeticError("boom")

    record = run_round(ShellEnum(), library_with(enumerate_by_norm=broken), [E8_SHELL], {}, None, SpeedGauge())
    assert [e["error"] for e in record["errors"]] == ["raised ArithmeticError: boom"]


class CannedCli(CliBatch):
    def __init__(self, returncode, stdout):
        self.proc = subprocess.CompletedProcess([], returncode, stdout, "")

    def run(self, H, spec, ctx):
        return self.proc


def test_cli_exit_code_and_strict_json_are_checked():
    spec = {"argv": ["growth", "estimate"], "stdin": "[[1, 1]]", "slope": 2}
    for returncode, stdout in ((0, '{"count": 1, "slope": NaN}\n'), (1, '{"count": 1, "slope": 2.0}\n'), (0, "{")):
        record = run_round(CannedCli(returncode, stdout), None, [spec], {}, None, SpeedGauge())
        assert len(record["errors"]) == 1, stdout
    record = run_round(CannedCli(0, '{"count": 1, "slope": 2.0}\n'), None, [spec], {}, None, SpeedGauge())
    assert record["errors"] == []


def test_inputs_follow_the_seed_and_never_repeat():
    for workload in (GenusSweep(), WeilAtlas(), ShellEnum(), CliBatch()):
        first = [next(workload.rounds(7))]
        again = [next(workload.rounds(7))]
        other = [next(workload.rounds(8))]
        assert first == again and first != other, workload.name
    genera = [spec["g"] for _, batch in zip(range(5), GenusSweep().rounds(3)) for spec in batch]
    assert len(set(genera)) == len(genera)
    grams = [json.dumps(s["gram"]) for _, batch in zip(range(3), WeilAtlas().rounds(3)) for s in batch]
    assert len(set(grams)) == len(grams)
    argvs = [tuple(s["argv"]) + (s.get("stdin"),) for _, b in zip(range(5), CliBatch().rounds(3)) for s in b]
    assert len(set(argvs)) == len(argvs)


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("intlinalg.inner", "intlinalg", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.wrap("cycles.outer", "cycles", outer_body)()
    inner_s, outer_s = tracer.incl_s["intlinalg.inner"], tracer.incl_s["cycles.outer"]
    assert inner_s >= 0.02 and outer_s >= inner_s + 0.01
    assert tracer.layer_self_s["intlinalg"] == inner_s
    assert abs(tracer.layer_self_s["cycles"] - (outer_s - inner_s)) < 1e-12
    names = [tracer.names[n] for n in tracer.name_of]
    assert names == ["cycles.outer", "intlinalg.inner"] and list(tracer.parent_of) == [-1, 0]


def test_child_spans_merge_under_the_calling_span(tmp_path):
    child = Tracer()
    leaf = child.wrap("arith.leaf", "arith", lambda: None)
    child.wrap("cli.main", "cli", lambda: leaf())()
    child.write_spans(tmp_path / "spans.npz")

    parent = Tracer()

    def op():
        with np.load(tmp_path / "spans.npz") as spans:
            parent.merge(child.summary(), spans, parent.current_span())

    parent.wrap("bench.op", "bench", op)()
    assert [parent.names[n] for n in parent.name_of] == ["bench.op", "cli.main", "arith.leaf"]
    assert list(parent.parent_of) == [-1, 0, 1]
    assert parent.layer_calls["arith"] == parent.layer_calls["cli"] == 1


def test_cli_round_keeps_p90_inside_the_sandwich_invocations():
    for _, batch in zip(range(20), CliBatch().rounds(5)):
        kinds = [" ".join(s["argv"][:2]) for s in batch]
        assert kinds.count("growth sandwich") / len(kinds) > 0.15
        for s in batch:
            if s["argv"][:2] == ["weil", "check"]:
                n, delta = int(s["argv"][5]), s["argv"][7]
                assert (4 * n if delta == "1" else n) <= 48


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_baseline_names_the_seeds_and_every_digest():
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert (baseline["default_seed"], baseline["held_out_seed"]) == (DEFAULT_SEED, HELD_OUT_SEED)
    assert set(baseline["default_seed_round0_digest"]) == set(run.WORKLOADS)
