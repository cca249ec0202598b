import json
import os
import runpy
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# the benchmark's headline labels, read as tests/test_codes.py reads its cases
HEADLINE = runpy.run_path(str(SCRIPTS.parent / "perfbench" / "workloads.py"))[
    "WORKLOADS"]["headline"].labels


def test_headline_script_runs_from_a_plain_checkout(tmp_path):
    # no install and no PYTHONPATH: the script finds the package itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_headline_cases.py"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "--out-dir" in res.stdout
    # the headline rows write one report per case, each equal to its
    # label's pinned answers
    out = tmp_path / "reports"
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_headline_cases.py"),
         "--out-dir", str(out), "--only", *HEADLINE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    answers = json.loads((SCRIPTS.parent / "perfbench" / "answers.json")
                         .read_text())
    reports = sorted(out.glob("*.json"))
    assert len(reports) == 8
    keys = ("nu", "kappa", "delta", "status", "witness",
            "min_weight_support_count")
    for path in reports:
        report, pinned = json.loads(path.read_text()), answers[path.stem]
        assert {k: report[k] for k in keys} == {k: pinned[k] for k in keys}, \
            path.stem


def test_frontier_script_runs_from_a_plain_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_headline_cases.py"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "--only" in res.stdout and "gf8-n3" in res.stdout
    assert "--workers" in res.stdout
    # two rows stop below their cyclic bound, and gf8-n4's first scanned
    # level ends on a hit: no conclusion needs the symmetries, so no
    # report holds symmetry seconds
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_headline_cases.py"), "--only",
         "gf8-n3", "gf27-n3", "gf8-n4"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    heads = [line for line in res.stdout.splitlines()
             if not line.startswith(" ")]
    assert [h.split(":")[0] for h in heads] == ["gf27-n3", "gf8-n3", "gf8-n4"]
    assert "bound=7 k=None" in heads[0] and "bound=9 k=None" in heads[1]
    assert "bound=9 k=None delta=9" in heads[2]
    assert all("symmetry -," in h for h in heads)


def test_a_row_hash_does_not_depend_on_the_worker_count(tmp_path):
    # gf256-hit's level 7 has C(254, 4) subsets, enough to start workers;
    # each printed hash is the canonical_hash of the report written
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    hashes = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        res = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_headline_cases.py"),
             "--only", "gf256-hit", "--workers", workers,
             "--out-dir", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert res.returncode == 0, res.stderr
        (head,) = [line for line in res.stdout.splitlines()
                   if not line.startswith(" ")]
        printed = head.split(" hash ")[1].split(",")[0]
        report = json.loads((out / "gf256-hit.json").read_text())
        assert printed == report["canonical_hash"]
        hashes.append(printed)
    assert hashes[0] == hashes[1]


def test_sweep_flags_no_row_on_a_tiny_grid(tmp_path):
    # the 52 rows with nu <= 30 are all exact at the default budget, every
    # point table passes the scroll check, and no cyclic bound exceeds
    # its delta
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "sweep.json"
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "sweep.py"), "--max-nu", "30",
         "--json", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "52 rows: 52 exact, 0 capped, 0 timeout; 0 flagged" in res.stdout
    assert "FLAG" not in res.stdout
    data = json.loads(out.read_text())
    rows = data["rows"]
    assert len(rows) == 52 and max(r["nu"] for r in rows) <= 30
    # one projective space is built for each distinct (p, m, n)
    spaces = len({(r["p"], r["m"], r["n"]) for r in rows})
    assert data["spaces_built"] == spaces
    assert f"; {spaces} spaces built;" in res.stdout.splitlines()[-1]
    assert all(2 <= r["bound"] <= r["delta"] for r in rows)
    assert all(r["scroll"] is True for r in rows)
    # set-up is part of each row's seconds (both rounded), and the totals
    # line sums it
    assert all(0 <= r["setup_s"] <= r["seconds"] + 5e-4 for r in rows)
    total = sum(r["setup_s"] for r in rows)
    assert f"set-up {total:.2f} s," in res.stdout.splitlines()[-1]
    # so are the certificate's seconds, where a conclusion needed the
    # symmetries, and the totals line sums them too
    proved = [(r["symmetry_s"], r["seconds"]) for r in rows
              if r["symmetry_s"] is not None]
    assert proved and all(0 <= s <= seconds for s, seconds in proved)
    assert (f"symmetries {sum(s for s, _ in proved):.2f} s in "
            f"{len(proved)} rows," in res.stdout.splitlines()[-1])


def test_scripts_refuse_an_output_path_before_the_first_row(tmp_path):
    # a --json in a missing directory, an --out-dir that is a file, or a
    # worker count below 1 ends the run with one usage error and no row
    # printed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv in ([str(SCRIPTS / "sweep.py"), "--max-nu", "10", "--json",
                  str(tmp_path / "missing" / "x.json")],
                 [str(SCRIPTS / "run_headline_cases.py"), "--only",
                  "conic-5", "--out-dir", str(afile)],
                 [str(SCRIPTS / "run_headline_cases.py"), "--only",
                  "conic-5", "--workers", "0"]):
        res = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.splitlines()[-1].startswith(
            f"{Path(argv[0]).name}: error: ")


def test_sweep_flags_a_row_whose_scroll_check_fails(monkeypatch, capsys):
    # a check that fails every point of GF(4)'s tables flags those 3 rows
    # and only those, and the sweep exits 1
    import numpy as np
    import twistver

    def check(variety):
        return np.full(variety.num_points, variety.field.order != 4)

    monkeypatch.setattr(twistver, "scroll_plucker_check", check)
    monkeypatch.setattr(sys, "argv", ["sweep.py", "--max-nu", "7"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    sweep = runpy.run_path(str(SCRIPTS / "sweep.py"))
    handler = signal.getsignal(signal.SIGALRM)
    try:
        assert sweep["main"]() == 1
    finally:
        signal.signal(signal.SIGALRM, handler)
    out = capsys.readouterr().out
    flagged = [line.split()[:2] for line in out.splitlines()
               if line.endswith("  FLAG scroll")]
    assert flagged == [["2", "2"]] * 3
    assert "6 rows: 6 exact, 0 capped, 0 timeout; 3 flagged" in out


def test_sweep_keeps_the_old_json_when_the_write_fails(tmp_path, monkeypatch):
    # the report goes to a temporary file that replaces --json whole: a
    # failed replace leaves the old file as it was and no temporary file
    out = tmp_path / "sweep.json"
    out.write_text("old\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(sys, "argv", ["sweep.py", "--max-nu", "7",
                                      "--json", str(out)])
    monkeypatch.setattr(sys, "path", list(sys.path))
    sweep = runpy.run_path(str(SCRIPTS / "sweep.py"))
    monkeypatch.setattr(os, "replace", fail)
    handler = signal.getsignal(signal.SIGALRM)
    try:
        with pytest.raises(OSError, match="replace failed"):
            sweep["main"]()
    finally:
        signal.signal(signal.SIGALRM, handler)
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]
