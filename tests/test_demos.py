"""Smoke test: every narrative script in demos/, and the README's Quick
start block, runs to completion; the README lists exactly those scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    # TMPDIR keeps the artifacts of cli_artifacts.py inside the test's directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_demo_list_matches_scripts():
    """The bullets under README "## Demos" name every script, and the
    count written above them is the number of scripts."""
    section = (ROOT / "README.md").read_text().split("## Demos", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("- `")]
    assert sorted(listed) == [path.name for path in DEMOS]
    words = ["one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]
    assert f" {words[len(DEMOS) - 1]} narrative scripts" in section
