"""Pinned SHA-256 digests of the embedding witnesses, the range CLI and `lattice info`.

The digests were computed before the Kudla complement moved into the spare
E8 block, the admissibility ones before range output was streamed, the
`lattice info` ones before the discriminant group was read directly off one
augmented Smith elimination, and the large-d witnesses (where the kernel
entries are no longer small) before the one-row kernel took its closed form.
Later rewrites of the complement, the rank, the enumerator or the output
path must keep every byte, so a changed digest is a changed result.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from heegnerlab.cycles import embed_k3_lattice

SRC = str(Path(__file__).resolve().parent.parent / "src")

WITNESSES_D_2_TO_600 = "5af4fe26affce34a9797504d1dc70f05c6db10cadc870f0c80908846e092e05a"
WITNESSES_D_1000000_TO_1000598 = "5dff5080dcec3f46c37a67c13adfc43a53d6b702da0f597476887635b903d2bf"
BOUND_G_RANGE_2_TO_200 = "7001914ed39924d03016f5450c1cdb5f1ceb49478dcb5bef0d5e0bed431068da"
ADMISSIBLE_G_RANGE_2_TO_2000 = "10e8f5df24d94e1806df866bbd01c3c6173411afc618112c982e14e454718f00"
ADMISSIBLE_G_RANGE_2_TO_2000_CSV = "d4ef76b88f0e09d234669d4d563fd81e0d4c7df3f5fdfb4e69d0fb178314affa"
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
