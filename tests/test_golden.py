"""Pinned SHA-256 digests of the embedding witnesses and the bound CLI.

The digests were computed before the Kudla complement moved into the spare
E8 block.  Later rewrites of the complement, the rank or the enumerator must
keep every byte, so a changed digest is a changed result.
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
BOUND_G_RANGE_2_TO_200 = "7001914ed39924d03016f5450c1cdb5f1ceb49478dcb5bef0d5e0bed431068da"


def test_embedding_witnesses_are_pinned():
    digest = hashlib.sha256()
    for d in range(2, 601, 2):
        wit = embed_k3_lattice(d)
        doc = [wit.to_jsonable(), [list(b) for b in wit.complement_basis]]
        digest.update(json.dumps(doc).encode())
    assert digest.hexdigest() == WITNESSES_D_2_TO_600


def test_bound_range_stdout_is_pinned():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-m", "heegnerlab", "bound", "--g-range", "2:200"],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == BOUND_G_RANGE_2_TO_200
