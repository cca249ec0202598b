import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_headline_script_runs_from_a_plain_checkout(tmp_path):
    # no install and no PYTHONPATH: the script finds the package itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_headline_cases.py"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "--out-dir" in res.stdout


def test_frontier_script_runs_from_a_plain_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "frontier_cases.py"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "--only" in res.stdout and "gf8-n3" in res.stdout
    assert "--workers" in res.stdout
