"""Checks of the benchmark itself: wrappers, answer gate, clean exit.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import os
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import twistver as tv  # noqa: E402

import run  # noqa: E402
from hostspeed import PROBE_REF_S, Sampler, probe, speed  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, check, load_answers  # noqa: E402

# conic-5 and subline-9 reach every wrapped function except pg.all_lines,
# which needs n >= 3; veronese-surface-4 is the cheapest case that has it
SMOKE = Workload("smoke", ("conic-5", "subline-9", "veronese-surface-4"),
                 lambda: 1)


def _bindings():
    """Every value bound in a twistver module, and every class attribute."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "twistver" or name.startswith("twistver."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, v in vars(value).items():
                        out[(name, key, attr)] = v
    return out


def test_smoke_pass_runs_in_seconds():
    wl = Workload("smoke", ("conic-5", "subline-9"), lambda: 1)
    t0 = time.perf_counter()
    results = run.run_pass(tv, wl, 0, 0, 1, load_answers())
    assert time.perf_counter() - t0 < 10.0
    assert [r.error for r in results] == [None, None]


def test_wrappers_count_traced_answers_match_and_restore():
    answers = load_answers()
    before = _bindings()
    untraced = run.run_pass(tv, SMOKE, 0, 0, 1, answers)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass(tv, SMOKE, 0, 0, 1, answers, tracer)
    after = _bindings()

    table = tracer.by_name()
    for _, _, name in TARGETS:
        assert table[name]["calls"] > 0, name
    assert [(r.label, r.answers, r.canonical_hash) for r in traced] == \
        [(r.label, r.answers, r.canonical_hash) for r in untraced]
    assert all(r.error is None for r in traced + untraced)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_declared_per_layer_metrics_are_produced_with_their_units():
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass(tv, SMOKE, 0, 1, 1, load_answers(), tracer)
    made = run.layer_metrics(tracer, traced, 1.0, 1.0)
    made.update({"pool.workers": (1, "count"), "pool.speedup": (1.0, "x"),
                 "pool.efficiency": (1.0, "ratio"), "classify_s": (0.0, "s")})
    for name, unit in run.declared_metrics(1).items():
        assert made[name][1] == unit, name
    assert set(run.declared_metrics(0)) == set(run.END_TO_END_UNITS)


def test_every_binding_is_wrapped_while_installed():
    import twistver.codes as codes
    import twistver.linalg as linalg
    import twistver.pg as pg
    import twistver.veronese as veronese

    held = [(tv, "rank"), (pg, "rank"), (veronese, "rank"),
            (codes, "kernel_basis"), (codes, "all_lines"),
            (codes, "sublines_of_line"), (codes, "is_collinear"),
            (codes, "on_common_subline"), (linalg, "IncrementalElim")]
    with Tracer().installed():
        for mod, name in held[:-1]:
            assert hasattr(getattr(mod, name), "__wrapped__"), (mod, name)
        assert hasattr(linalg.IncrementalElim.push, "__wrapped__")
    for mod, name in held:
        assert not hasattr(getattr(mod, name), "__wrapped__"), (mod, name)
    assert not hasattr(linalg.IncrementalElim.push, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("case", "outer"):
        with tracer.span("child"):
            time.sleep(0.02)
    table = tracer.by_name()
    assert table["case"]["s"] >= table["child"]["s"] >= 0.02
    assert table["case"]["self_s"] < 0.01
    assert tracer.self_by_phase("case")["child"] >= 0.02


def test_a_pause_is_left_out_of_the_open_spans():
    tracer = Tracer()
    with tracer.span("case", "outer"):
        with tracer.span("child"):
            time.sleep(0.03)
            tracer.pause(0.02)
    table = tracer.by_name()
    assert 0.01 <= table["child"]["s"] < 0.03
    assert 0.01 <= table["case"]["s"] < 0.03
    assert table["case"]["self_s"] < 0.01


def test_answer_gate_flags_a_changed_answer():
    answers = load_answers()
    [res] = run.run_pass(tv, Workload("one", ("conic-5",), lambda: 1),
                         0, 0, 1, answers)
    assert check(res, answers) is None
    wrong = {**answers, "conic-5": {**answers["conic-5"], "delta": 5}}
    assert "delta" in check(res, wrong)


def test_parallel_shares_headline_rows_and_respects_affinity():
    par, head = WORKLOADS["parallel"], WORKLOADS["headline"]
    assert set(par.labels) <= set(head.labels)
    assert 1 <= par.workers() <= len(os.sched_getaffinity(0))


def test_exits_nonzero_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "headline", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_sampler_probes_during_a_case_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with Sampler(interval=0.05) as sampler:
        while time.perf_counter() - t0 < 0.4:
            sum(range(1000))
    t1 = time.perf_counter()
    assert len(sampler.probes()) >= 2
    assert 0 < sampler.spent(t0, t1) < t1 - t0
    assert sampler.spent(t1, t1 + 1) == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_pool_probe_reaps_its_children():
    assert probe(2) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert speed([PROBE_REF_S, PROBE_REF_S]) == pytest.approx(1.0)


def test_probe_time_is_not_charged_to_the_case():
    [res] = run.run_pass(tv, Workload("one", ("subline-9",), lambda: 1),
                         0, 0, 1, load_answers())
    t0, t1, t2, t3 = res.stamps
    assert res.error is None
    assert 0 < res.search_s <= t2 - t1
    assert 0 < res.solve_s <= t3 - t0
