import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = ROOT / "tests" / "goldens" / "demos"


def run_demo(demo, hash_seed=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_output_matches_golden(demo, hash_seed):
    result = run_demo(demo, hash_seed)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDENS / f"{demo.stem}.txt").read_text(encoding="utf-8")
