"""Pinned SHA-256 digests: embedding witnesses, range CLI, `lattice info`, lattice shells, CLI battery.

The digests were computed before the Kudla complement moved into the spare
E8 block, the admissibility ones before range output was streamed, the
`lattice info` ones before the discriminant group was read directly off one
augmented Smith elimination, and the large-d witnesses (where the kernel
entries are no longer small) before the one-row kernel took its closed form.
The shell digest (E8 at norms 2..12 and every coset shell up to norm 12 of
A2, <6>, A2+A1 and D4) was computed before central shells were enumerated
from half the Fincke-Pohst tree and the last two coordinates were fused.
The CLI battery digest (argv, stdin, exit code, stdout, stderr and any
`--out` file of every subcommand, single and range, in each output shape,
with the refusals and usage errors) was computed before the CLI wrote all
of its output through one writer.
Later rewrites of the complement, the rank, the enumerator or the output
path must keep every byte, so a changed digest is a changed result.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from heegnerlab import cli
from heegnerlab.cycles import embed_k3_lattice
from heegnerlab.discriminant import discriminant_group
from heegnerlab.enumeration import enumerate_by_norm
from heegnerlab.lattices import build_named_lattice, direct_sum, make_lattice

SRC = str(Path(__file__).resolve().parent.parent / "src")

WITNESSES_D_2_TO_600 = "5af4fe26affce34a9797504d1dc70f05c6db10cadc870f0c80908846e092e05a"
WITNESSES_D_1000000_TO_1000598 = "5dff5080dcec3f46c37a67c13adfc43a53d6b702da0f597476887635b903d2bf"
BOUND_G_RANGE_2_TO_200 = "7001914ed39924d03016f5450c1cdb5f1ceb49478dcb5bef0d5e0bed431068da"
ADMISSIBLE_G_RANGE_2_TO_2000 = "10e8f5df24d94e1806df866bbd01c3c6173411afc618112c982e14e454718f00"
ADMISSIBLE_G_RANGE_2_TO_2000_CSV = "d4ef76b88f0e09d234669d4d563fd81e0d4c7df3f5fdfb4e69d0fb178314affa"
CLI_BATTERY = "fe58ab0df3632815f8791745a96669bf6cdad45f008f715049a0897b960523b7"
SHELLS_UP_TO_NORM_12 = "74e8895a5650982768d382536ccccee7684cb8a661a66ae14fb12cdaeca224e4"
LATTICE_INFO = {
    ("Lambda_HK_prim", "--n", "163", "--delta", "2"): "aea76cf52ebdb3407bb0f613734cf9fbe0274e36603b52eedc533dc7ffcf3805",
    ("Lambda_HK_prim", "--n", "100", "--delta", "1"): "71ac43759e9102eef32ee048a709a29cc050bb745771366804fdc62f0ee38384",
    ("rank1", "--d", "2000002"): "40dd29b7b5adf7248a6531bfca1d42ca2e54a0169355e9d56696cca0cd8ebd72",
    ("Lambda_sharp",): "f49b74b7f419e7fd19ed67f044dfe78b8ee647016179d4b0355a728dcba2c74b",
}


def _witness_digest(ds):
    digest = hashlib.sha256()
    for d in ds:
        wit = embed_k3_lattice(d)
        doc = [wit.to_jsonable(), [list(b) for b in wit.complement_basis]]
        digest.update(json.dumps(doc).encode())
    return digest.hexdigest()


def test_embedding_witnesses_are_pinned():
    assert _witness_digest(range(2, 601, 2)) == WITNESSES_D_2_TO_600
    assert _witness_digest(range(1_000_000, 1_000_599, 2)) == WITNESSES_D_1000000_TO_1000598


def _shell_digest():
    digest = hashlib.sha256()

    def update(vecs):
        digest.update(json.dumps([[list(v.num), v.den] for v in vecs]).encode())

    e8 = build_named_lattice("E8")
    for norm in range(2, 13):
        update(enumerate_by_norm(e8, norm))
    a2 = build_named_lattice("A2")
    d4 = make_lattice([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]])
    for lattice in (a2, build_named_lattice("rank1", 6), direct_sum(a2, build_named_lattice("A1")), d4):
        group = discriminant_group(lattice)
        for elem in group.elements():
            coset = group.lift(elem) if any(elem) else None
            norm = 2 * group.q(elem)
            while norm <= 12:
                update(enumerate_by_norm(lattice, norm, coset=coset))
                norm += 2
    return digest.hexdigest()


def test_shells_are_pinned():
    assert _shell_digest() == SHELLS_UP_TO_NORM_12


def _stdout_digest(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-m", "heegnerlab", *args], capture_output=True, env=env)
    assert result.returncode == 0
    return hashlib.sha256(result.stdout).hexdigest()


def test_bound_range_stdout_is_pinned():
    assert _stdout_digest("bound", "--g-range", "2:200") == BOUND_G_RANGE_2_TO_200


def test_admissible_range_stdout_is_pinned():
    assert _stdout_digest("admissible", "--g-range", "2:2000") == ADMISSIBLE_G_RANGE_2_TO_2000
    csv_digest = _stdout_digest("admissible", "--g-range", "2:2000", "--format", "csv")
    assert csv_digest == ADMISSIBLE_G_RANGE_2_TO_2000_CSV


def test_lattice_info_stdout_is_pinned():
    """Full q-tables of orders 163 and 400, a generators-only table, and a trivial group."""
    for (name, *params), expected in LATTICE_INFO.items():
        assert _stdout_digest("lattice", "info", "--name", name, *params) == expected


SERIES = json.dumps([[n, n**3 + n] for n in range(1, 15)])
BATTERY = [
    # (argv, stdin); an --out file is written under the test's working directory
    (["lattice", "info", "--name", "Lambda_C"], None),
    (["lattice", "info", "--name", "Lambda_C", "--meta"], None),
    (["lattice", "info", "--name", "Lambda_C", "--format", "csv", "--out", "refused.csv"], None),
    (["lattice", "info", "--name", "Lambda_d"], None),
    (["weil", "check", "--name", "Lambda_C"], None),
    (["weil", "check", "--name", "Lambda_d", "--d", "8"], None),
    (["heegner", "cubic", "--d", "14"], None),
    (["heegner", "cubic", "--d", "14", "--meta", "--out", "cubic.json"], None),
    (["heegner", "cubic", "--d", "7"], None),
    (["heegner", "gm", "--d", "10"], None),
    (["heegner", "hk", "--n", "3", "--delta", "2", "--d", "6"], None),
    (["embed", "--d", "14"], None),
    (["embed", "--d", "14", "--format", "csv"], None),
    (["embed", "--d", "3"], None),
    (["admissible", "--d", "26"], None),
    (["admissible", "--d", "26", "--format", "csv"], None),
    (["admissible", "--d", "26", "--meta"], None),
    (["admissible", "--d", "26", "--format", "csv", "--meta", "--out", "refused.csv"], None),
    (["admissible", "--g", "8"], None),
    (["admissible", "--g", "8", "--format", "csv"], None),
    (["admissible", "--g", "8", "--meta"], None),
    (["admissible", "--g-range", "2:6"], None),
    (["admissible", "--g-range", "2:6", "--format", "csv", "--out", "range.csv"], None),
    (["admissible", "--g-range", "2:6", "--meta"], None),
    (["admissible", "--g-range", "2:6", "--format", "csv", "--meta"], None),
    (["admissible", "--g", "1"], None),
    (["admissible", "--g-range", "0:3"], None),
    (["bound", "--g", "8"], None),
    (["bound", "--g", "8", "--meta"], None),
    (["bound", "--g", "8", "--format", "csv"], None),
    (["bound", "--g-range", "2:6", "--out", "range.jsonl"], None),
    (["bound", "--g-range", "2:6", "--meta"], None),
    (["bound", "--g-range", "2:6", "--format", "csv", "--out", "refused.csv"], None),
    (["bound", "--g-range", "5:3"], None),
    (["bound", "--g-range", "2:x"], None),
    (["bound", "--g-range", f"2:{10**30}"], None),
    (["growth", "sandwich", "--k", "4", "--m-max", "100"], None),
    (["growth", "sandwich", "--k", "4", "--m-max", "100", "--format", "csv"], None),
    (["growth", "sandwich", "--k", "4", "--m-max", "100", "--meta"], None),
    (["growth", "sandwich", "--k", "2", "--m-max", "10"], None),
    (["growth", "estimate"], SERIES),
    (["growth", "estimate", "--meta"], SERIES),
    (["growth", "estimate", "--format", "csv"], SERIES),
    (["growth", "estimate"], '{"a": 1}'),
    (["growth", "estimate"], "[1, 2"),
    (["admissible"], None),
    (["bound", "--g", "8", "--g-range", "2:3"], None),
    (["--meta", "heegner", "cubic", "--d", "14"], None),
]
# generated_at changes per run; max_deviation and slope are float sums whose
# last bits depend on the BLAS and numpy builds
VOLATILE = re.compile(r'("(?:generated_at|max_deviation|slope)": )[^,\n}]+')


def _battery_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv, stdin in BATTERY:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
                stderr = err.getvalue()
            except SystemExit as exc:
                # argparse's usage lines vary across Python versions; its error line is kept
                code, stderr = exc.code, err.getvalue().splitlines()[-1]
        files = {}
        for path in sorted(tmp_path.iterdir()):
            files[path.name] = VOLATILE.sub(r"\1*", path.read_text())
            path.unlink()
        record = [argv, stdin, code, VOLATILE.sub(r"\1*", out.getvalue()), stderr, files]
        digest.update(json.dumps(record).encode())
    return digest.hexdigest()


def test_cli_battery_is_pinned(tmp_path, monkeypatch):
    """Every subcommand, single and range, as JSON, CSV and --meta, with the refusals and usage errors."""
    assert _battery_digest(tmp_path, monkeypatch) == CLI_BATTERY
