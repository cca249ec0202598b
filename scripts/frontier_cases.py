#!/usr/bin/env python3
"""Time the frontier cases level by level.

Runs the five frontier rows of ROADMAP item 1 with one worker, each at
its own w_max (the last row runs the whole analyze pipeline), and prints
the set-up seconds (Field through build_code, the one reduction of the
point table among them), then one line per level: the subsets checked,
the seconds (the level's stage_log record, the same timing the reports
carry) and the checks per second.  Each row stresses one layer of the
search:

  gf27-n3     GF(27), n=3, sigma=(0,0,1), w_max 5: a wide-tail level
  gf8-n3      GF(8), n=3, sigma=(0,1,2), w_max 6: narrow tails, N = 27
  gf512-n2    GF(2^9), n=2, sigma=(0,1,2), w_max 6: pair_groups leaves
  gf8-n4      GF(8), n=4, sigma=(0,1,2), w_max 5: the symmetry step at
              N = 64, then level 5
  gf128-line  GF(2^7), n=2, sigma=(0,0,0), analyze: the classification

Usage:
    python scripts/frontier_cases.py [--only LABEL ...]
"""

import argparse
import sys
import time
from pathlib import Path

# run from a plain checkout: import the package from its src directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistver import Field, SearchPlan, Twist, build_code, build_variety  # noqa: E402
from twistver.codes import analyze, min_distance  # noqa: E402

ROWS = [
    # label, p, m, n, sigma exponents (powers of p), w_max (None: analyze)
    ("gf27-n3", 3, 3, 3, (0, 0, 1), 5),
    ("gf8-n3", 2, 3, 3, (0, 1, 2), 6),
    ("gf512-n2", 2, 9, 2, (0, 1, 2), 6),
    ("gf8-n4", 2, 3, 4, (0, 1, 2), 5),
    ("gf128-line", 2, 7, 2, (0, 0, 0), None),
]


def run_row(label, p, m, n, exps, w_max):
    t0 = time.perf_counter()
    field = Field(p, m)
    code = build_code(build_variety(field, n, Twist(p, m, exps)))
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    if w_max is None:
        report = analyze(code, SearchPlan(workers=1))
    else:
        report = min_distance(code, SearchPlan(w_max=w_max, workers=1))
    total = time.perf_counter() - t0
    print(f"{label}: nu={report.nu} N={report.effective_N} "
          f"k={report.orbit_prefix} set-up {setup:.4f} s, symmetry "
          f"{report.timings['symmetry']:.3f} s, total {total:.3f} s")
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
    args = ap.parse_args()
    for row in ROWS:
        if args.only is None or row[0] in args.only:
            run_row(*row)


if __name__ == "__main__":
    main()
