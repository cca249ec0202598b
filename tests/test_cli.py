import json
import os

import numpy as np
import pytest

from twistver import Field, Twist, build_variety, enum_points
from twistver.cli import main


def run_cli(argv):
    return main(argv)


# -- field ---------------------------------------------------------------------

def test_field_command(capsys):
    assert run_cli(["field", "--p", "3", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "x^3 + 2x + 1" in out
    assert "[3, 27]" in out


def test_field_command_json(capsys):
    assert run_cli(["field", "--p", "2", "--m", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["modulus"] == [1, 1, 1]
    assert data["subfield_orders"] == [2, 4]


def test_field_command_rejects_composite(capsys):
    assert run_cli(["field", "--p", "4", "--m", "2"]) == 1
    assert "not prime" in capsys.readouterr().err


# -- build ---------------------------------------------------------------------

def test_build_writes_variety(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run_cli(["build", "--p", "3", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,2", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["points"]) == 28
    assert data["effective_N"] == 6
    v = build_variety(Field(3, 3), 2, Twist(3, 3, (0, 0, 2)))
    assert data["points"] == [list(p) for p in enum_points(v.field, 2)]
    assert data["coords"] == v.coords.tolist()


def test_build_collapse_warning(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run_cli(["build", "--p", "2", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,1", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "collapse: 5 of 6 monomials distinct" in err


def test_build_rejects_norm_violation(tmp_path, capsys):
    code = run_cli(["build", "--p", "2", "--e", "1", "--t", "2", "--n", "2",
                    "--sigma", "0,0,0,0", "-o", str(tmp_path / "v.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "norm" in err and "q^t" in err


def test_build_csv_export(tmp_path):
    out = tmp_path / "v.json"
    csv_path = tmp_path / "h.csv"
    assert run_cli(["build", "--p", "5", "--e", "1", "--t", "1", "--n", "2",
                    "--sigma", "0,0", "-o", str(out),
                    "--csv", str(csv_path)]) == 0
    raw = csv_path.read_bytes()
    # every row ends in \r\n, the csv module's line terminator
    assert raw.count(b"\r\n") == raw.count(b"\n") == 3
    rows = [r for r in csv_path.read_text().splitlines() if r]
    assert len(rows) == 3  # effective_N rows
    assert all(len(r.split(",")) == 6 for r in rows)
    v = build_variety(Field(5, 1), 2, Twist(5, 1, (0, 0)))
    entries = np.array([[int(x) for x in r.split(",")] for r in rows])
    assert (entries == v.coords.T).all()


@pytest.mark.parametrize("command,flag,name", [
    (["code", "--workers", "1"], "-o", "report.json"),
    (["build"], "--csv", "h.csv"),
])
def test_failed_write_keeps_the_old_file(tmp_path, capsys, monkeypatch,
                                         command, flag, name):
    # a write goes to a temporary file that replaces the target whole; if
    # the replace fails, the old file stays and no temporary file is left
    target = tmp_path / name
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    code = run_cli(command + ["--p", "5", "--e", "1", "--t", "1", "--n", "2",
                              "--sigma", "0,0", flag, str(target)])
    assert code == 1
    assert "replace failed" in capsys.readouterr().err
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


# -- code -----------------------------------------------------------------------

def test_code_command_exact(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "3", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,2", "--workers", "1", "-o", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert (rep["nu"], rep["kappa"], rep["delta"]) == (28, 22, 6)
    assert rep["status"] == "almost-MDS"
    assert rep["delta_exact"] is True
    assert "canonical_hash" in rep


def test_code_command_stdout_is_pure_json(capsys):
    code = run_cli(["code", "--p", "5", "--e", "1", "--t", "1", "--n", "2",
                    "--sigma", "0,0", "--workers", "1"])
    assert code == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)  # would fail if progress leaked to stdout
    assert rep["delta"] == 4
    assert "searching" in captured.err


def test_code_command_budget_exit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "3", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,2", "--budget", "100", "--workers", "1",
                    "-o", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["delta_exact"] is False


def test_code_command_w_max_is_not_a_budget_exit(tmp_path, capsys):
    # levels 2-4 run in full and hold no dependent set: delta >= 5 is all
    # that was asked for, and no level was capped
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "3", "--t", "3", "--sigma", "0,0,2",
                    "--w-max", "4", "--workers", "1", "-o", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["delta"] is None and rep["delta_lower_bound"] == 5
    err = capsys.readouterr().err
    assert "no dependent set of at most 4 columns" in err
    assert "budget exhausted" not in err


def test_code_command_keeps_exact_result_when_classification_does_not_fit(
        tmp_path, capsys):
    # GF(16) plane, twist (0,2): a budget of 1000 settles the search
    # (levels of 1 and 271 checks, then a hit at the 6th subset), and
    # delta = 4 = d + 2 is exact, but the counted classification would
    # need C(271, 2) = 36585 checks
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "2", "--t", "4", "--n", "3",
                    "--sigma", "0,2", "--budget", "1000", "--workers", "1",
                    "-o", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert (rep["delta"], rep["delta_exact"]) == (4, True)
    assert rep["min_weight_support_count"] is None
    err = capsys.readouterr().err
    assert "[classify] skipped: C(271, 2) = 36585 subsets" in err


def test_code_command_runs_the_symmetry_step_once(tmp_path, capsys,
                                                 monkeypatch):
    # the skip note reads the prefix that the search stored in the report
    import twistver.codes as codes_mod
    calls = []
    real = codes_mod.column_orbit_prefix

    def counted(code):
        calls.append(code.nu)
        return real(code)

    monkeypatch.setattr(codes_mod, "column_orbit_prefix", counted)
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "2", "--t", "4", "--n", "3",
                    "--sigma", "0,2", "--budget", "1000", "--workers", "1",
                    "-o", str(out)])
    assert code == 0
    assert "[classify] skipped" in capsys.readouterr().err
    assert calls == [273]
    assert json.loads(out.read_text())["orbit_prefix"] == 2


def test_code_command_counts_supports_at_the_default_budget(tmp_path, capsys):
    # the same code: C(273, 4) exceeds the default budget, the counted
    # scan of C(271, 2) supersets of columns {0, 1} does not
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "2", "--t", "4", "--n", "3",
                    "--sigma", "0,2", "--workers", "1", "-o", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["min_weight_support_count"] == 92_820
    assert rep["violations"] == [] and len(rep["supports"]) == 15
    assert "[classify] skipped" not in capsys.readouterr().err


def test_code_command_rejects_budget_below_one(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "5", "--t", "1", "--sigma", "0,0",
                    "--workers", "1", "--budget", "-3", "-o", str(out)])
    assert code == 1
    assert "budget must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_code_command_rejects_workers_below_one(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "5", "--t", "1", "--sigma", "0,0",
                    "--workers", "0", "-o", str(out)])
    assert code == 1
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_code_command_rejects_w_max_below_two(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["code", "--p", "3", "--t", "2", "--sigma", "0,1",
                    "--workers", "1", "--w-max", "-3", "-o", str(out)])
    assert code == 1
    assert "w_max must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_code_command_sigma_q(tmp_path):
    # q = 4, t = 2: power-of-q exponent 1 equals power-of-p exponent 2
    out = tmp_path / "report.json"
    assert run_cli(["code", "--p", "2", "--e", "2", "--t", "2", "--n", "2",
                    "--sigma-q", "0,1", "--workers", "1", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["sigma_exponents"] == [0, 2]
    assert (rep["nu"], rep["kappa"], rep["delta"]) == (17, 13, 4)


def test_code_reports_reproducible(tmp_path):
    args = ["code", "--p", "2", "--e", "1", "--t", "4", "--n", "2",
            "--sigma", "0,2", "--workers", "1"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(args + ["-o", str(out1)]) == 0
    assert run_cli(args + ["-o", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["canonical_hash"] == r2["canonical_hash"]
    for volatile in ("timings", "generated_at"):
        r1.pop(volatile), r2.pop(volatile)
    for stage in r1["stage_log"] + r2["stage_log"]:
        stage.pop("seconds")  # each level's timing
    assert r1 == r2


def test_sigma_flags_are_exclusive(capsys):
    assert run_cli(["code", "--p", "3", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,2", "--sigma-q", "0,0,2"]) == 1
    assert "exactly one" in capsys.readouterr().err


CODE_ARGS = ["code", "--p", "3", "--t", "3", "--sigma", "0,0,2"]


@pytest.mark.parametrize("argv", [
    CODE_ARGS + ["--variety", "v.json"],
    CODE_ARGS + ["--budget", "abc"],
    ["verify", "no-such-property", "--p", "3", "--t", "3", "--sigma", "0,0,2"],
    # verify fixes its own search depth (a --w-max below delta read as a
    # FAIL), and build runs no search
    ["verify", "oracle-equivalence", "--p", "2", "--t", "4", "--n", "2",
     "--sigma", "0,2", "--workers", "1", "--w-max", "3"],
    ["build", "--p", "3", "--t", "3", "--sigma", "0,0,2", "--workers", "2"],
], ids=["unknown-flag", "non-integer-budget", "unknown-verify-property",
        "verify-w-max", "build-workers"])
def test_usage_errors_exit_invalid(capsys, argv):
    # argparse's own status, 2, would read as "budget exhausted"
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


# -- verify --------------------------------------------------------------------------

def test_verify_general_position(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = run_cli(["verify", "general-position", "--k", "4",
                    "--p", "3", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,2", "--workers", "1", "-o", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["pass"] is True and res["checked"] == 25  # C(25, 1)
    assert res["bound"] == 4  # level 4 is scanned


def test_verify_general_position_below_the_bound(capsys):
    # nrc-27 has cyclic bound 7: k = 4 is proved without a scan, and the
    # result says which bound proved it
    code = run_cli(["verify", "general-position", "--k", "4",
                    "--p", "3", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,1", "--workers", "1"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)
    assert (res["pass"], res["checked"], res["bound"]) == (True, 0, 7)


def test_verify_general_position_failure(capsys):
    code = run_cli(["verify", "general-position", "--k", "4",
                    "--p", "5", "--e", "1", "--t", "1", "--n", "2",
                    "--sigma", "0,0", "--workers", "1"])
    assert code == 1
    res = json.loads(capsys.readouterr().out)
    assert res["witness"] == [0, 1, 2, 3]


def test_verify_dep_classification(tmp_path):
    out = tmp_path / "res.json"
    code = run_cli(["verify", "dep-classification",
                    "--p", "2", "--e", "1", "--t", "4", "--n", "2",
                    "--sigma", "0,2", "--workers", "1", "-o", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["supports"] == 340 and res["pass"] is True


def test_verify_scroll_plucker(tmp_path):
    out = tmp_path / "res.json"
    code = run_cli(["verify", "scroll-plucker",
                    "--p", "3", "--e", "1", "--t", "3", "--n", "2",
                    "--sigma", "0,0,2", "-o", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["points"] == 28


def test_verify_scroll_plucker_on_585_points(tmp_path):
    # GF(8), n = 4, d = 3: C(12, 3) minors a point by determinants, here
    # 64 products over the whole point column
    out = tmp_path / "res.json"
    code = run_cli(["verify", "scroll-plucker", "--p", "2", "--t", "3",
                    "--n", "4", "--sigma", "0,1,2", "-o", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["points"] == 585
    assert res["failures"] == [] and res["pass"] is True


def test_verify_oracle_equivalence(tmp_path):
    out = tmp_path / "res.json"
    code = run_cli(["verify", "oracle-equivalence",
                    "--p", "2", "--e", "1", "--t", "2", "--n", "2",
                    "--sigma", "0,1", "--workers", "1", "-o", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["staged_delta"] == res["oracle_delta"] == 5


def test_verify_dep_classification_budget_exit(capsys):
    # level 4 settles at its first hit, but the counted classification
    # needs C(14, 1) = 14 > 5 checks
    code = run_cli(["verify", "dep-classification", "--p", "2", "--t", "4",
                    "--sigma", "0,2", "--budget", "5", "--workers", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err


def test_verify_oracle_equivalence_budget_exit(capsys, no_bound):
    # GF(7), the normal rational curve of degree 6: level 6 needs
    # C(5, 3) = 10 > 6 checks and holds no dependent set
    code = run_cli(["verify", "oracle-equivalence", "--p", "7", "--t", "1",
                    "--sigma", "0,0,0,0,0,0", "--budget", "6",
                    "--workers", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err
