"""Benchmark cases, workloads and the pinned answer table.

A case runs the public pipeline Field -> Twist -> build_variety ->
build_code -> min_distance, then classify_min_words when the distance is
d + 2 and the classification fits the default budget, exactly as
scripts/run_headline_cases.py does.  Every call goes through the
``twistver`` package namespace at call time, so the wrappers installed by
``spans.Tracer`` see it.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

ANSWERS_PATH = Path(__file__).with_name("answers.json")

# Fields gated against the pinned table.  canonical_hash and the stage log
# are recorded for information only: symmetry reduction and the removal of
# the subline generator change the stage log on purpose.
GATED_FIELDS = ("nu", "kappa", "delta", "delta_exact", "status", "witness",
                "min_weight_support_count", "violations")


@dataclass(frozen=True)
class Case:
    label: str
    p: int
    e: int
    t: int
    n: int
    sigma: tuple[int, ...]  # Frobenius exponents, powers of p


CASES = {c.label: c for c in [
    # the eight configurations of scripts/run_headline_cases.py
    Case("track-27", 3, 1, 3, 2, (0, 0, 2)),
    Case("track-81", 3, 1, 4, 2, (0, 0, 3)),
    Case("nrc-27", 3, 1, 3, 2, (0, 0, 1)),
    Case("arc-32", 2, 1, 5, 2, (0, 2)),
    Case("subline-16", 2, 1, 4, 2, (0, 2)),
    Case("conic-5", 5, 1, 1, 2, (0, 0)),
    Case("veronese-surface-4", 2, 2, 1, 3, (0, 0)),
    Case("subline-9", 3, 1, 2, 2, (0, 1)),
    # the n = 3 stress cases: collinear level, subline level + classify,
    # subline level whose classification exceeds the default budget
    Case("plane-8", 2, 1, 3, 3, (0, 1)),
    Case("plane-9", 3, 1, 2, 3, (0, 1)),
    Case("plane-16", 2, 1, 4, 3, (0, 2)),
]}


def affinity() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    labels: tuple[str, ...]   # timed in every pass
    workers: Callable[[], int]
    # solved, gated and profiled only in the traced pass: a single call
    # too long to time steadily on a host whose speed drifts
    profiled: tuple[str, ...] = ()


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    # exhaustive IncrementalElim levels dominate (track-81 w=5); pg is idle
    Workload("headline", tuple(CASES)[:8], lambda: 1),
    # scalar pg line/subline construction and short push/reset sequences
    Workload("plane", ("plane-8", "plane-9"), lambda: 1,
             profiled=("plane-16",)),
    # the same search levels, split across the fork pool
    Workload("parallel", ("track-81", "nrc-27"), lambda: min(2, affinity())),
]}


def case_order(workload: Workload, seed: int, pass_index: int,
               traced: bool = False) -> list[Case]:
    """The seed fixes only the order of cases within each pass."""
    labels = list(workload.labels)
    if traced:
        labels += workload.profiled
    random.Random(seed * 1_000_003 + pass_index).shuffle(labels)
    return [CASES[label] for label in labels]


@dataclass
class CaseResult:
    label: str
    search_s: float
    classify_s: float
    solve_s: float
    answers: Optional[dict]
    canonical_hash: Optional[str]
    stage_log: Optional[list]
    error: Optional[str] = None
    speed: float = 1.0  # host speed correction, see hostspeed.py
    # perf_counter at the start, after set-up, after search and at the end
    stamps: tuple[float, ...] = ()


def setup(tv, case: Case):
    """Field -> Twist -> build_variety -> build_code; returns (code, twist)."""
    field = tv.Field(case.p, case.e * case.t, e=case.e)
    twist = tv.Twist(field.p, field.m, case.sigma)
    variety = tv.build_variety(field, case.n, twist)
    return tv.build_code(variety), twist


def solve(tv, case: Case, workers: int) -> CaseResult:
    """Run one case to its final report and time its three phases."""
    from twistver.codes import DEFAULT_BUDGET

    plan = tv.SearchPlan(budget=DEFAULT_BUDGET, workers=workers)
    t0 = time.perf_counter()
    code, twist = setup(tv, case)
    t1 = time.perf_counter()
    report = tv.min_distance(code, plan)
    t2 = time.perf_counter()
    w = twist.d + 2
    if (report.delta_exact and report.delta == w
            and comb(code.nu, w) <= DEFAULT_BUDGET):
        report = tv.classify_min_words(code, report, plan)
    t3 = time.perf_counter()
    return CaseResult(
        label=case.label, search_s=t2 - t1,
        classify_s=t3 - t2, solve_s=t3 - t0,
        answers={k: getattr(report, k) for k in GATED_FIELDS},
        canonical_hash=report.canonical_hash(),
        stage_log=[{**s.payload(), "seconds": s.seconds}
                   for s in report.stage_log],
        stamps=(t0, t1, t2, t3))


def load_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text())


def check(result: CaseResult, answers: dict) -> Optional[str]:
    """None if the case matches its pinned row, else what differs."""
    if result.error is not None:
        return result.error
    want = answers[result.label]
    got = json.loads(json.dumps(result.answers))  # tuples -> lists
    bad = [k for k in GATED_FIELDS if got[k] != want[k]]
    if got["violations"]:
        bad.append("violations")
    if bad:
        return "answer mismatch: " + ", ".join(sorted(set(bad)))
    return None
