"""Each narrative script under demos/, and README's library example, runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout


def test_demos_found():
    assert DEMOS


def test_readme_library_example_prints_its_routes(capsys):
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    routes = "['A', 'C(7)', 'C(6)', 'C(3)', 'uniform']"
    assert f"# {routes}" in block
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == routes + "\n"
