#!/usr/bin/env python3
"""Reproduce the headline code constructions at desk scale.

Builds each configuration, runs the exact staged minimum-distance search
(plus support classification when the distance is d+2 and the
classification fits the budget), prints a summary table, and writes one
JSON report per configuration.

Usage:
    python scripts/run_headline_cases.py [--out-dir out] [--workers N]
"""

import argparse
import json
import sys
import time
from pathlib import Path

# run from a plain checkout: import the package from its src directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistver import Field, SearchPlan, Twist, build_code, build_variety  # noqa: E402
from twistver.codes import DEFAULT_BUDGET, analyze  # noqa: E402

CASES = [
    # label, p, e, t, n, sigma exponents (powers of p)
    ("track-27", 3, 1, 3, 2, (0, 0, 2)),
    ("track-81", 3, 1, 4, 2, (0, 0, 3)),
    ("nrc-27", 3, 1, 3, 2, (0, 0, 1)),
    ("arc-32", 2, 1, 5, 2, (0, 2)),
    ("subline-16", 2, 1, 4, 2, (0, 2)),
    ("conic-5", 5, 1, 1, 2, (0, 0)),
    ("veronese-surface-4", 2, 2, 1, 3, (0, 0)),
    ("subline-9", 3, 1, 2, 2, (0, 1)),
]


def run_case(label, p, e, t, n, exps, plan, out_dir):
    field = Field(p, e * t, e=e)
    twist = Twist(p, field.m, exps)
    t0 = time.perf_counter()
    variety = build_variety(field, n, twist)
    code = build_code(variety)
    report = analyze(code, plan)
    elapsed = time.perf_counter() - t0

    payload = report.to_json()
    path = out_dir / f"{label}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    supports = report.min_weight_support_count
    return {
        "label": label,
        "field": f"GF({field.order})",
        "sigma": ",".join(map(str, exps)),
        "params": f"[{report.nu},{report.kappa},{report.delta}]",
        "singleton": report.singleton_bound,
        "status": report.status,
        "q_fixed": report.q_fixed,
        "supports": "-" if supports is None else supports,
        "seconds": f"{elapsed:.2f}",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = SearchPlan(budget=args.budget, workers=args.workers)

    rows = []
    for case in CASES:
        print(f"running {case[0]} ...", file=sys.stderr, flush=True)
        rows.append(run_case(*case, plan, out_dir))

    cols = ["label", "field", "sigma", "params", "singleton", "status",
            "q_fixed", "supports", "seconds"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    print("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    print(f"\nreports written to {out_dir}/", file=sys.stderr)


if __name__ == "__main__":
    main()
