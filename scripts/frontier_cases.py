#!/usr/bin/env python3
"""Time the frontier cases level by level.

Runs the frontier rows with --workers workers (default 1), each at its
own w_max (the rows without one run the whole analyze pipeline) and its
own budget (the default where it names none), and prints the report's
cyclic bound and symmetry seconds ("-" when no level was scanned), the
set-up seconds (Field through build_code, the one reduction of the point
table among them), the report's canonical_hash and the process's peak
RSS so far, then one line per level: the subsets checked, the seconds (the level's stage_log
record, the same timing the reports carry) and the checks per second.
The hash must not depend on the worker count.  Each row stresses one
layer of the search:

  gf27-n3     GF(27), n=3, sigma=(0,0,1), w_max 5: bound 7, no scan
  gf8-n3      GF(8), n=3, sigma=(0,1,2), w_max 6: bound 9, no scan
  gf512-n2    GF(2^9), n=2, sigma=(0,1,2), w_max 6: bound 9, no scan
  gf8-n4      GF(8), n=4, sigma=(0,1,2), analyze: bound 9, the symmetry
              step at N = 64, then level 9 hits after 577 checks
  gf128-line  GF(2^7), n=2, sigma=(0,0,0), analyze: the classification
  gf256-hit   GF(2^8), n=2, sigma=(0,1,6), analyze: delta = 7, whose
              level ends on a hit in task 4 of its 51, a worker's task
              when the level runs on workers
  gf4096-line GF(2^12), n=2, sigma=(0,0,0), analyze: a classification
              whose C(4094, 2) supports are one pair_groups run
  gf256-quartic
              GF(2^8), n=2, sigma=(0,0,0,0), analyze: a classification
              of C(254, 3) supports in the runs of the leaves
  gf1024-n2   GF(2^10), n=2, sigma=(0,1,3), analyze, budget 1e9: bound
              5 and delta 7, so the empty levels 5 and 6 are scanned,
              177,388,540 subsets at level 6
  gf32-n3     GF(32), n=3, sigma=(0,0,2), analyze, budget 1e9: bound 5
              and delta 6, with 195,150,735 subsets at the empty level 5

Usage:
    python scripts/frontier_cases.py [--only LABEL ...] [--workers N]
"""

import argparse
import resource
import sys
import time
from pathlib import Path

# run from a plain checkout: import the package from its src directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistver import Field, SearchPlan, Twist, build_code, build_variety  # noqa: E402
from twistver.codes import DEFAULT_BUDGET, analyze, min_distance  # noqa: E402

ROWS = [
    # label, p, m, n, sigma exponents (powers of p), w_max (None:
    # analyze), budget (None: the default)
    ("gf27-n3", 3, 3, 3, (0, 0, 1), 5, None),
    ("gf8-n3", 2, 3, 3, (0, 1, 2), 6, None),
    ("gf512-n2", 2, 9, 2, (0, 1, 2), 6, None),
    ("gf8-n4", 2, 3, 4, (0, 1, 2), None, None),
    ("gf128-line", 2, 7, 2, (0, 0, 0), None, None),
    ("gf256-hit", 2, 8, 2, (0, 1, 6), None, None),
    ("gf4096-line", 2, 12, 2, (0, 0, 0), None, None),
    ("gf256-quartic", 2, 8, 2, (0, 0, 0, 0), None, None),
    ("gf1024-n2", 2, 10, 2, (0, 1, 3), None, 10 ** 9),
    ("gf32-n3", 2, 5, 3, (0, 0, 2), None, 10 ** 9),
]


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB: ru_maxrss is
    in KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def run_row(label, p, m, n, exps, w_max, budget, workers):
    t0 = time.perf_counter()
    field = Field(p, m)
    twist = Twist(p, m, exps)
    code = build_code(build_variety(field, n, twist))
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan = SearchPlan(w_max=w_max, budget=budget or DEFAULT_BUDGET,
                      workers=workers)
    report = (analyze if w_max is None else min_distance)(code, plan)
    total = time.perf_counter() - t0
    symmetry = report.timings.get("symmetry")
    print(f"{label}: nu={report.nu} N={report.effective_N} "
          f"bound={report.cyclic_bound} k={report.orbit_prefix} "
          f"delta={report.delta} set-up {setup:.4f} s, symmetry "
          + ("-" if symmetry is None else f"{symmetry:.3f} s")
          + f", total {total:.3f} s, "
          f"hash {report.canonical_hash()}, "
          f"peak RSS {peak_rss_mb():.0f} MB")
    for s in report.stage_log:
        rate = f"{s.checked / s.seconds:.3g}" if s.seconds > 0 else "-"
        print(f"  w={s.w:<2} {s.label:<17} {s.restriction:<8} "
              f"checked {s.checked:>12,}  {s.seconds:9.4f} s  "
              f"{rate:>9} checks/s"
              + ("  capped" if s.capped else "")
              + (f"  hits {s.dependent_found}" if s.dependent_found else ""))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", nargs="+", metavar="LABEL",
                    choices=[r[0] for r in ROWS],
                    help="run only these rows")
    ap.add_argument("--workers", type=int, default=1, metavar="N",
                    help="search workers (default 1); the hashes must not "
                         "depend on it")
    args = ap.parse_args()
    for row in ROWS:
        if args.only is None or row[0] in args.only:
            run_row(*row, args.workers)


if __name__ == "__main__":
    main()
