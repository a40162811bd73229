import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from heegnerlab import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, stdin: str | None = None, env_extra: dict | None = None, timeout: float | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "heegnerlab", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=timeout,
    )


def test_lattice_info_cubic_family():
    result = run_cli("lattice", "info", "--name", "Lambda_C")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["det"] == 3
    assert doc["disc_group"]["divisors"] == [3]
    assert doc["disc_group"]["q"] == {"0": "0", "1": "1/3", "2": "1/3"}
    assert doc["level"] == 3


def test_lattice_info_trivial_group():
    doc = json.loads(run_cli("lattice", "info", "--name", "Lambda_sharp").stdout)
    assert doc["disc_group"]["divisors"] == []
    assert doc["level"] == 1


def test_lattice_info_past_the_full_table_cap():
    result = run_cli("lattice", "info", "--name", "Lambda_d", "--d", str(10**30), timeout=60)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["det"] == 10**30
    assert doc["disc_group"]["mode"] == "generators-only"
    big = run_cli("weil", "check", "--name", "Lambda_HK_prim", "--n", str(10**30), "--delta", "1")
    assert_usage_error(big, "exceeds the dimension cap 2000")


def test_lattice_info_bad_params_exit_2():
    result = run_cli("lattice", "info", "--name", "Lambda_HK_prim", "--n", "2", "--delta", "2")
    assert result.returncode == 2
    assert "3 (mod 4)" in result.stderr
    result = run_cli("lattice", "info", "--name", "Lambda_d")
    assert result.returncode == 2
    assert "--d" in result.stderr


def test_weil_check_pass_and_precondition():
    result = run_cli("weil", "check", "--name", "Lambda_GM", "--tol", "1e-9")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["pass"] and doc["weight"] == 11 and doc["level"] == 4
    trivial = run_cli("weil", "check", "--name", "Lambda_sharp")
    assert trivial.returncode == 0
    odd = run_cli("weil", "check", "--name", "Lambda_d", "--d", "8")
    assert odd.returncode == 2
    hk = run_cli("weil", "check", "--name", "Lambda_HK")
    assert hk.returncode == 2


def test_weil_check_tight_tolerance_reports_deviation():
    result = run_cli("weil", "check", "--name", "Lambda_C", "--tol", "1e-17")
    assert result.returncode in (0, 1)
    doc = json.loads(result.stdout)
    assert all("max_deviation" in c for c in doc["relations"])
    if result.returncode == 1:
        assert not doc["pass"]


def test_heegner_cubic():
    doc = json.loads(run_cli("heegner", "cubic", "--d", "14").stdout)
    assert doc["index"] == {"n": "7/3", "gamma": "gamma1", "lattice": "Lambda_C"}
    assert run_cli("heegner", "cubic", "--d", "7").returncode == 2


def test_heegner_gm():
    doc = json.loads(run_cli("heegner", "gm", "--d", "10").stdout)
    assert [i["gamma"] for i in doc["indices"]] == ["e*", "f*"]
    assert [i["n"] for i in doc["indices"]] == ["5/4", "5/4"]
    assert len(doc["labellings"]) == 2
    assert doc["labellings"][0]["checks"]["half_norm"] == "5/4"


def test_heegner_hk():
    doc = json.loads(run_cli("heegner", "hk", "--n", "3", "--delta", "2", "--d", "6").stdout)
    assert doc["n"] == "1" and doc["gamma"] == "all"
    assert run_cli("heegner", "hk", "--n", "2", "--delta", "2", "--d", "6").returncode == 2


def test_embed():
    result = run_cli("embed", "--d", "14")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["det_check"] == {"lhs": "7/64", "rhs": "7/64", "pass": True}
    assert run_cli("embed", "--d", "3").returncode == 2


def test_admissible_json_and_csv():
    doc = json.loads(run_cli("admissible", "--d", "26").stdout)
    assert doc["case_a"]["pass"] and doc["case_b"]["pass"]
    csv_out = run_cli("admissible", "--d", "26", "--format", "csv").stdout
    lines = csv_out.strip().splitlines()
    assert lines[0] == "input,clause,pass"
    assert lines[1] == "26,case_a,True"
    ranged = run_cli("admissible", "--g-range", "2:6", "--format", "csv").stdout
    assert len(ranged.strip().splitlines()) == 1 + 3 * 5
    assert run_cli("admissible").returncode == 2


def test_bound_single_and_range():
    doc = json.loads(run_cli("bound", "--g", "8", "--n-max", "10").stdout)
    assert [r["route"] for r in doc["routes"]] == ["A", "C(7)", "C(6)", "C(3)", "uniform"]
    assert doc["routes"][-1]["multiplier"] == 2
    ranged = run_cli("bound", "--g-range", "2:6")
    lines = ranged.stdout.strip().splitlines()
    assert len(lines) == 5
    assert [json.loads(l)["g"] for l in lines] == [2, 3, 4, 5, 6]
    assert run_cli("bound", "--format", "csv", "--g", "8").returncode == 2
    assert_usage_error(run_cli("bound", "--g-range", "5:3"), "empty range")


def test_growth_sandwich_and_estimate():
    result = run_cli("growth", "sandwich", "--k", "11", "--m-max", "500")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["pass"]
    csv_out = run_cli("growth", "sandwich", "--k", "4", "--m-max", "100", "--format", "csv").stdout
    assert csv_out.splitlines()[0] == "input,clause,pass"
    assert run_cli("growth", "sandwich", "--k", "2", "--m-max", "10").returncode == 2
    series = json.dumps([[n, n**10] for n in range(1, 20)])
    est = run_cli("growth", "estimate", stdin=series)
    assert est.returncode == 0
    assert abs(json.loads(est.stdout)["slope"] - 10.0) < 1e-9


def test_out_flag_and_meta(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("heegner", "cubic", "--d", "14", "--out", str(out))
    assert result.returncode == 0 and result.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["index"]["n"] == "7/3"
    meta = json.loads(run_cli("heegner", "cubic", "--d", "14", "--meta").stdout)
    assert meta["payload"] == doc
    assert meta["meta"]["tool"] == "heegnerlab"
    plain = run_cli("bound", "--g-range", "2:4").stdout.splitlines()
    listed = json.loads(run_cli("bound", "--g-range", "2:4", "--meta").stdout)
    assert listed["payload"] == [json.loads(line) for line in plain]
    assert len(plain) == 3
    # the envelope wraps JSON only: with CSV it is refused before any record is made
    for selector in (("--d", "26"), ("--g-range", "2:4")):
        csv_out = tmp_path / "report.csv"
        result = run_cli("admissible", *selector, "--format", "csv", "--meta", "--out", str(csv_out))
        assert_usage_error(result, "--meta wraps JSON output only")
        assert not csv_out.exists()


def test_output_flags_before_the_subcommand_are_rejected(tmp_path):
    out = tmp_path / "report.json"
    for flags in (("--out", str(out)), ("--format", "csv"), ("--format=csv",), ("--meta",)):
        result = run_cli(*flags, "heegner", "cubic", "--d", "14")
        assert result.returncode == 2, flags
        assert result.stdout == "" and "usage" in result.stderr
        flag = flags[0].split("=")[0]
        assert f"{flag} must follow the subcommand" in result.stderr
        assert "invalid choice" not in result.stderr
    assert not out.exists()


def test_payload_determinism():
    commands = [
        ("lattice", "info", "--name", "Lambda_GM"),
        ("heegner", "gm", "--d", "26"),
        ("embed", "--d", "8"),
        ("bound", "--g", "8"),
        ("admissible", "--g-range", "2:10", "--format", "csv"),
        ("weil", "check", "--name", "Lambda_C"),
    ]
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first.stdout == second.stdout, cmd
        assert first.returncode == second.returncode


def test_growth_estimate_from_file(tmp_path):
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps([[n, n**3] for n in range(1, 15)]))
    result = run_cli("growth", "estimate", "--series-file", str(series_path))
    assert result.returncode == 0
    assert abs(json.loads(result.stdout)["slope"] - 3.0) < 1e-9


def assert_usage_error(result, *fragments):
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "Traceback" not in result.stderr
    for fragment in fragments:
        assert fragment in result.stderr


def test_growth_estimate_rejects_nonpositive_index():
    for bad in (0, -3):
        series = json.dumps([[bad, 1.0]] + [[n, float(n) ** 2] for n in range(1, 12)])
        assert_usage_error(run_cli("growth", "estimate", stdin=series), "positive finite index")


def test_growth_estimate_rejects_malformed_rows():
    assert_usage_error(run_cli("growth", "estimate", stdin='{"a": 1}'), "list of [index, value] pairs")
    rows = json.dumps([[n, n**2] for n in range(1, 12)] + [[5]])
    assert_usage_error(run_cli("growth", "estimate", stdin=rows), "(index, value) pair")
    assert_usage_error(run_cli("growth", "estimate", stdin="[" * 100000), "nested too deeply")
    rows = json.dumps([[True, 1]] + [[n, n**2] for n in range(2, 9)])
    assert_usage_error(run_cli("growth", "estimate", stdin=rows), "series row [True, 1] is not a pair of numbers")


def test_render_refuses_nonfinite_floats(monkeypatch, capsys):
    # JSON has no NaN or infinity: a single document, its envelope and a range line all refuse one
    for value in (float("nan"), float("inf")):
        monkeypatch.setattr(cli, "run_growth", lambda args: [({"slope": value}, 0)])
        monkeypatch.setattr(cli, "run_bound", lambda args: iter([({"g": 2, "slope": value}, 0)]))
        for argv in (["growth", "estimate"], ["growth", "estimate", "--meta"], ["bound", "--g-range", "2:2"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: Out of range float values")


def test_out_into_missing_directory_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "report.json"
    result = run_cli("heegner", "cubic", "--d", "14", "--out", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and "Traceback" not in result.stderr
    assert not target.exists()


def test_weil_check_nan_tolerance_is_usage_error():
    assert_usage_error(run_cli("weil", "check", "--name", "Lambda_C", "--tol", "nan"), "tolerance")


def test_series_file_is_closed(tmp_path):
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps([[n, n**3] for n in range(1, 15)]))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-m", "heegnerlab",
         "growth", "estimate", "--series-file", str(series_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "ResourceWarning" not in result.stderr


def test_admissible_rejects_d_below_two():
    for d in ("0", "-4"):
        assert_usage_error(run_cli("admissible", "--d", d), "at least 2")
    # a genus selector names the genus, as `bound` does
    assert_usage_error(run_cli("admissible", "--g", "1"), "g must be at least 2, got 1")
    assert_usage_error(run_cli("admissible", "--g-range", "0:3"), "g must be at least 2, got 0")


def test_range_selectors_are_mutually_exclusive():
    for args, flags in (
        (("admissible", "--d", "10", "--g", "5"), ("--d", "--g")),
        (("admissible", "--g", "5", "--g-range", "2:3"), ("--g", "--g-range")),
        (("bound", "--g", "8", "--g-range", "2:3"), ("--g", "--g-range")),
    ):
        result = run_cli(*args)
        assert result.returncode == 2 and result.stdout == ""
        assert "not allowed with argument" in result.stderr and "Traceback" not in result.stderr
        assert all(flag in result.stderr.splitlines()[-1] for flag in flags)
    for command in ("admissible", "bound"):
        result = run_cli(command)
        assert result.returncode == 2 and "is required" in result.stderr


def test_parameters_rejected_where_the_lattice_takes_none():
    assert_usage_error(run_cli("lattice", "info", "--name", "Lambda_C", "--d", "5"), "Lambda_C takes no --d")
    assert_usage_error(run_cli("weil", "check", "--name", "Lambda_GM", "--delta", "1"), "--delta")
    assert_usage_error(run_cli("lattice", "info", "--name", "rank1", "--d", "4", "--n", "3"), "--n")


def test_failed_internal_check_exits_1_without_traceback(monkeypatch, capsys):
    def failing(args):
        raise AssertionError("complement rank 6 != 7 for d=14")

    monkeypatch.setattr(cli, "run_embed", failing)
    assert cli.main(["embed", "--d", "14"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: complement rank 6 != 7 for d=14\n"


def test_bound_exits_1_when_a_det_check_fails(monkeypatch, capsys):
    from dataclasses import replace

    from heegnerlab import bounds

    real = bounds.embed_k3_lattice

    def failing(d):
        witness = real(d)
        return replace(witness, det_lhs=witness.det_rhs + 1) if d == 14 else witness

    assert cli.main(["bound", "--g", "7"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(bounds, "embed_k3_lattice", failing)
    assert cli.main(["bound", "--g", "8"]) == 1
    uniform = json.loads(capsys.readouterr().out)["routes"][-1]
    assert uniform["route"] == "uniform" and uniform["det_check_pass"] is False
    assert cli.main(["bound", "--g-range", "6:10"]) == 1
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [doc["routes"][-1]["det_check_pass"] for doc in docs] == [True, True, False, True, True]
    assert cli.main(["bound", "--g-range", "2:7"]) == 0


def test_range_output_streams_in_flat_memory(tmp_path):
    out = str(tmp_path / "certs.jsonl")
    # an untraced sweep first fills the bounded caches and the interpreter's
    # free lists, which would otherwise read as growth of the longer sweep
    assert cli.main(["bound", "--g-range", "2:3000", "--out", out]) == 0
    peaks = {}
    for text in ("2:300", "2:3000"):
        tracemalloc.start()
        try:
            assert cli.main(["bound", "--g-range", text, "--out", out]) == 0
            peaks[text] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["2:3000"] <= 1.5 * peaks["2:300"], peaks
    with open(out) as fh:
        assert sum(1 for _ in fh) == 2999


def test_range_past_a_bound_fails_before_any_output(tmp_path):
    out = tmp_path / "certs.jsonl"
    top = str(10**30)
    for args in (("--g-range", f"2:{top}"), ("--g-range", f"2:{top}", "--out", str(out))):
        result = run_cli("bound", *args, timeout=60)
        assert_usage_error(result, "trial-division bound")
    assert not out.exists()


def test_closed_pipe_ends_quietly(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "heegnerlab", "bound", "--g-range", "2:3000"],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        err.seek(0)
        stderr = err.read()
    assert "error:" not in stderr and "Traceback" not in stderr


def test_range_failing_between_its_ends_keeps_the_lines_written(monkeypatch, capsys):
    from heegnerlab import bounds

    real = cli.irr_bound_certificate

    def failing(g, n_max):
        if g == 5:
            raise AssertionError("complement rank 6 != 7 for d=8")
        return real(g, n_max)

    monkeypatch.setattr(cli, "irr_bound_certificate", failing)
    assert cli.main(["bound", "--g-range", "2:8"]) == 1
    captured = capsys.readouterr()
    assert [json.loads(line)["g"] for line in captured.out.splitlines()] == [2, 3, 4]
    assert captured.err == "error: internal check failed: complement rank 6 != 7 for d=8\n"
    # the case C cap is not monotone in g: both ends pass it, g = 10^8 + 2 does not
    assert bounds.CASE_C_WITNESS_CAP == 10**4
    argv = ["admissible", "--g-range", f"{10**8}:{10**11}", "--n-max", str(4 * 10**8), "--format", "csv"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "input,clause,pass" and len(lines) == 1 + 3 * 2
    assert [line.split(",")[0] for line in lines[1::3]] == [str(2 * 10**8 - 2), str(2 * 10**8)]
    assert captured.err.startswith("error: n_max = 400000000 is too large for d = 200000002")


NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
from heegnerlab.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["lattice", "info", "--name", "Lambda_GM"],
        ["heegner", "gm", "--d", "26"],
        ["embed", "--d", "14"],
        ["bound", "--g", "8"],
        ["growth", "sandwich", "--k", "6", "--m-max", "2000"],
    ):
        assert main(argv) == 0, argv
    assert "numpy" not in sys.modules
    assert main(["weil", "check", "--name", "Lambda_C"]) == 0
    assert main(["growth", "estimate", "--series-file", sys.argv[1]]) == 0
print("ok")
"""


def test_numpy_stays_off_the_import_path(tmp_path):
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps([[n, n**3] for n in range(1, 15)]))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, str(series_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
