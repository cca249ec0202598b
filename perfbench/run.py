#!/usr/bin/env python3
"""Benchmark of the twistver exact search, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 32 \
        --trace 0

Each workload is a closed loop with one client: this process solves the
workload's cases one after another, pass after pass, until --seconds have
elapsed (at least one pass).  Every case's answers are checked against
perfbench/answers.json.  --trace 0 reports the end-to-end metrics;
--trace 1 adds one pass with the layer wrappers installed and reports the
per-layer metrics.  The last line of stdout is the result as one JSON
object; the full record (machine, per-case times, hashes, spans) is
written under .bench_build/perfbench/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no caches in the checkout

from hostspeed import Sampler, probe, speed  # noqa: E402
from workloads import (WORKLOADS, CaseResult, affinity,  # noqa: E402
                       case_order, check, load_answers, setup, solve)

OUT_DIR = Path(".bench_build") / "perfbench"
# share of the run spent in set-up-only rounds, a slice after every pass;
# setup_s is the median round
SETUP_SHARE = 0.05

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "search_s": "s",
                    "peak_rss_mb": "MB"}


def declared_metrics(trace: int) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' if none."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_record(root: Path, args, workers: int) -> dict:
    import numpy as np

    return {"affinity": affinity(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "git_commit": git_commit(root), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": workers}


def run_case(tv, case, workers, answers, tracer=None) -> CaseResult:
    """Solve one case and check it against its pinned answers."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = solve(tv, case, workers)
        else:
            with tracer.span("case", case.label):
                res = solve(tv, case, workers)
    except Exception:  # a failed case is counted, never fatal
        res = CaseResult(case.label, 0.0, 0.0, time.perf_counter() - t0,
                         None, None, None,
                         error=traceback.format_exc(limit=3))
    res.error = check(res, answers)
    return res


def probed_case(tv, case, workers, answers, before, tracer=None):
    """run_case with the host speed probed after it and, for a one-worker
    case, while it runs; returns (result, probe after).  A parent probing
    while its pool works would measure its own workers."""
    if workers == 1:
        on_probe = tracer.pause if tracer is not None else None
        with Sampler(on_probe=on_probe) as sampler:
            res = run_case(tv, case, workers, answers, tracer)
        if res.stamps:  # the probes' own time is not the case's
            t0, t1, t2, t3 = res.stamps
            res.solve_s -= sampler.spent(t0, t3)
            res.search_s -= sampler.spent(t1, t2)
            res.classify_s -= sampler.spent(t2, t3)
        during = sampler.probes()
    else:
        res = run_case(tv, case, workers, answers, tracer)
        during = []
    after = probe(workers)
    res.speed = speed([before, *during, after])
    return res, after


def run_pass(tv, workload, seed, index, workers, answers, tracer=None):
    """Solve every case once, in the seed's order, with the host speed
    probed between and during cases; returns [CaseResult]."""
    results = []
    p = probe(workers)
    for case in case_order(workload, seed, index, tracer is not None):
        res, p = probed_case(tv, case, workers, answers, p, tracer)
        results.append(res)
    return results


def setup_slice(tv, workload, seed, rounds, seconds):
    """Append to rounds (wall seconds, speed) of set-up-only rounds
    (Field .. build_code, every case) until their wall seconds add up to
    seconds; at least one."""
    before = probe()
    walls = []
    while True:
        t0 = time.perf_counter()
        for case in case_order(workload, seed, -1 - len(rounds) - len(walls)):
            setup(tv, case)
        walls.append(time.perf_counter() - t0)
        if sum(walls) >= seconds:
            break
    factor = speed([before, probe()])
    rounds += [(w, factor) for w in walls]


def speedup_pass(tv, workload, seed, index, workers, answers):
    """Each case at workers and then at one worker, back to back, so both
    sides of the ratio see the same host speed; returns (results,
    summed one-worker search_s / summed workers search_s), in wall
    seconds: the two sides would be corrected by different probes."""
    results, par, ser = [], 0.0, 0.0
    for case in case_order(workload, seed, index):
        a = run_case(tv, case, workers, answers)
        b = run_case(tv, case, 1, answers)
        results += [a, b]
        par += a.search_s
        ser += b.search_s
    return results, (ser / par if par > 0 else 0.0)


def case_medians(passes, attr, corrected=True):
    """Sum over cases of each case's median over passes, in corrected
    seconds (wall seconds if not corrected)."""
    by_label: dict[str, list[float]] = {}
    for results in passes:
        for res in results:
            by_label.setdefault(res.label, []).append(
                getattr(res, attr) * (res.speed if corrected else 1.0))
    return sum(statistics.median(v) for v in by_label.values())


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest pool child (forked children
    share pages with the parent, so the two are not added)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


LEVELS = ("general_position", "minimal_dependent", "lex_search", "classify")


def level_metrics(results) -> dict:
    """codes.level.* from one pass's stage logs, summed over its cases."""
    sums = {k: {"s": 0.0, "checked": 0, "dependent_found": 0} for k in LEVELS}
    for res in results:
        for st in res.stage_log or []:
            acc = sums[st["label"].replace("-", "_")]
            for field in acc:
                acc[field] += st["seconds" if field == "s" else field]
    out = {}
    for key, acc in sums.items():
        s, checked = acc["s"], acc["checked"]
        out[f"codes.level.{key}.s"] = (s, "s")
        out[f"codes.level.{key}.checked"] = (checked, "count")
        out[f"codes.level.{key}.checks_per_s"] = (
            checked / s if s > 0 else 0.0, "1/s")
    found = sums["minimal_dependent"]["dependent_found"]
    checked = sums["minimal_dependent"]["checked"]
    out["codes.level.minimal_dependent.hit_ratio"] = (
        found / checked if checked else 0.0, "ratio")
    return out


def layer_metrics(tracer, traced, traced_solve_s, untraced_solve_s) -> dict:
    """Per-layer metrics from the spans and reports of one traced pass."""
    out = level_metrics(traced)
    table = tracer.by_name()

    def total(name):
        return table.get(name, {"s": 0.0})["s"]

    def calls(name):
        return table.get(name, {"calls": 0})["calls"]

    out.update({
        "ff.Field_s": (total("ff.Field"), "s"),
        "ff.Field_calls": (calls("ff.Field"), "count"),
        "veronese.monomial_basis_s": (total("veronese.monomial_basis"), "s"),
        "veronese.build_variety_s": (total("veronese.build_variety"), "s"),
        "codes.build_code_s": (total("codes.build_code"), "s"),
        "codes.min_distance_s": (total("codes.min_distance"), "s"),
        "codes.classify_min_words_s": (
            total("codes.classify_min_words"), "s"),
        "codes.classify_min_words.calls": (
            calls("codes.classify_min_words"), "count"),
        # support checks after the classify level's exhaustive scan
        "codes.classify_supports_s": (
            total("codes.classify_min_words")
            - out["codes.level.classify.s"][0], "s"),
        "linalg.push.refused": (tracer.push_refused, "count"),
        "linalg.reset.calls": (calls("linalg.reset"), "count"),
    })
    for fn in ("push", "pair_groups", "split_extensions", "rank",
               "kernel_basis"):
        out[f"linalg.{fn}.s"] = (total(f"linalg.{fn}"), "s")
        out[f"linalg.{fn}.calls"] = (calls(f"linalg.{fn}"), "count")
    for fn in ("enum_points", "all_lines", "sublines_of_line",
               "subline_through", "is_collinear", "on_common_subline"):
        out[f"pg.{fn}.s"] = (total(f"pg.{fn}"), "s")
        out[f"pg.{fn}.calls"] = (calls(f"pg.{fn}"), "count")
    # self time per layer (module), over the whole traced pass
    for layer in ("ff", "veronese", "pg", "linalg", "codes"):
        own = sum(v["self_s"] for k, v in table.items()
                  if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (own, "s")
    # where min_distance's time went: self time of spans inside it
    search = tracer.self_by_phase("codes.min_distance")
    search_s = total("codes.min_distance")
    if search_s > 0:
        hot = search.get("linalg.pair_groups", 0.0) + search.get(
            "linalg.push", 0.0)
        pg = sum(v for k, v in search.items() if k.startswith("pg."))
        out["search.pair_groups_push_share"] = (hot / search_s, "ratio")
        out["search.pg_share"] = (pg / search_s, "ratio")
    out["trace.overhead_frac"] = (
        traced_solve_s / untraced_solve_s - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "twistver" / "__init__.py").is_file():
        print(f"error: no twistver sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import twistver as tv

    workload = WORKLOADS[args.workload]
    workers = workload.workers()
    if not 1 <= workers <= affinity():
        print(f"error: {workers} workers exceed the affinity "
              f"{affinity()}", file=sys.stderr)
        return 2
    answers = load_answers()
    record = machine_record(root, args, workers)

    # set-up rounds in a slice after every pass, so that their median
    # spans the whole run
    setups: list[tuple[float, float]] = []
    passes = []
    t_start = time.perf_counter()
    elapsed = 0.0
    # stop when one more pass would overrun --seconds by more than half a
    # pass, so a run lasts --seconds give or take half a pass
    while not passes or elapsed + 0.5 * elapsed / len(passes) < args.seconds:
        t_pass = time.perf_counter()
        passes.append(run_pass(tv, workload, args.seed, len(passes),
                               workers, answers))
        setup_slice(tv, workload, args.seed, setups,
                    SETUP_SHARE * (time.perf_counter() - t_pass))
        elapsed = time.perf_counter() - t_start
    all_results = [r for p in passes for r in p]

    e2e = {
        "solve_s": case_medians(passes, "solve_s"),
        "setup_s": statistics.median(w * f for w, f in setups),
        "search_s": case_medians(passes, "search_s"),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "passes": len(passes),
        "pass_solve_s": [sum(r.solve_s for r in p) for p in passes],
        "setup_rounds": setups,
        "case_speed": {label: [r.speed for p in passes for r in p
                               if r.label == label]
                       for label in workload.labels},
        "case_solve_s": {label: [r.solve_s for p in passes for r in p
                                 if r.label == label]
                         for label in workload.labels},
        "case_search_s": {label: [r.search_s for p in passes for r in p
                                  if r.label == label]
                          for label in workload.labels},
        "canonical_hash": {r.label: r.canonical_hash for r in passes[0]},
        "canonical_hash_matches_pin": {
            r.label: r.canonical_hash == answers[r.label]["canonical_hash"]
            for r in passes[0]},
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    # 0 on parallel, which never classifies, so it is per-layer: an
    # end-to-end metric carries a bound relative to a median that is not 0
    metrics["classify_s"] = (case_medians(passes, "classify_s"), "s")
    # the same medians in wall seconds, before the host speed correction
    metrics["wall.solve_s"] = (case_medians(passes, "solve_s", False), "s")
    metrics["wall.search_s"] = (case_medians(passes, "search_s", False), "s")
    metrics["wall.setup_s"] = (statistics.median(w for w, _ in setups), "s")
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(tv, workload, args.seed, len(passes), workers,
                              answers, tracer)
        all_results += traced
        untraced = {u.label: u for u in passes[0]}
        for r in traced:  # tracing must not change a single answer
            u = untraced.get(r.label)
            if r.error is None and u is not None and (
                    r.answers != u.answers
                    or r.canonical_hash != u.canonical_hash):
                r.error = "traced report differs from the untraced one"
        traced_solve_s = sum(r.solve_s * r.speed for r in traced
                             if r.label in untraced)
        metrics.update(layer_metrics(tracer, traced, traced_solve_s,
                                     e2e["solve_s"]))
        for r in traced:
            if r.label in workload.profiled and r.stage_log:
                # a profiled case is timed once; for plane-16, which is
                # search only, the dependent count is the only trace a run
                # leaves of its support total
                info[f"{r.label}.solve_s"] = r.solve_s
                info[f"{r.label}.minimal_dependent.dependent_found"] = sum(
                    s["dependent_found"] for s in r.stage_log
                    if s["label"] == "minimal-dependent")
        if workers > 1:
            paired, speedup = speedup_pass(tv, workload, args.seed,
                                           len(passes) + 1, workers, answers)
            all_results += paired
        else:
            speedup = 1.0  # one worker: no pool, by definition
        metrics["pool.workers"] = (workers, "count")
        metrics["pool.speedup"] = (speedup, "x")
        metrics["pool.efficiency"] = (speedup / workers, "ratio")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        info["spans"] = len(tracer.name_id)
        info["layers"] = tracer.by_name()

    failures = {r.label: r.error for r in all_results if r.error}
    failed = sum(1 for r in all_results if r.error)
    reported = {}
    for name, unit in declared_metrics(args.trace).items():
        value, have = metrics[name]
        if have != unit:
            raise ValueError(
                f"{name} is in {have}, BENCHMARK.json says {unit}")
        reported[name] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": len(all_results),
              "failed": failed, "metrics": reported}
    full = {"machine": record, "metrics": metrics,
            "fail_frac": failed / len(all_results), "failures": failures,
            "info": info, "result": result}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")

    for k, (v, u) in sorted(metrics.items()):
        print(f"{k:48s} {v:18.6f} {u}")
    print(json.dumps({"machine": record, "fail_frac": full["fail_frac"],
                      "failures": failures}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
