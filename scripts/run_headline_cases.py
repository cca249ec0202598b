#!/usr/bin/env python3
"""Reproduce the headline codes and time the frontier cases level by level.

Each row builds its code (Field through build_code, the one reduction of
the point table among them) and runs analyze with --workers workers
(default 1), up to the row's w_max where it names one, at the row's
budget (the default where it names none).  It prints one head
line: the field, sigma, [nu,kappa,delta], the status, the number of
minimum-weight supports ("-" when they were not classified), the check
rank N, the report's cyclic bound and orbit prefix k, delta, the set-up
seconds, the symmetry seconds ("-" when no conclusion needed the
symmetries), the total seconds, the report's canonical_hash and the
process's peak RSS so far.  Then one line per level: the subsets
checked, the seconds (the level's stage_log record, the same timing the
reports carry) and the checks per second.  The hash must not depend on
the worker count.  --out-dir writes each row's JSON report there as
<label>.json, through twistver.cli.write.  A --workers below 1, or an
--out-dir where a report cannot be written, is a usage error before the
first row.

The first rows are the headline configurations the benchmark pins
(WORKLOADS["headline"] in perfbench/workloads.py, read from there).  The
frontier rows that follow each stress one layer of the search:

  gf27-n3     GF(27), n=3, sigma=(0,0,1), w_max 5: bound 7, no scan
  gf8-n3      GF(8), n=3, sigma=(0,1,2), w_max 6: bound 9, no scan
  gf512-n2    GF(2^9), n=2, sigma=(0,1,2), w_max 6: bound 9, no scan
  gf8-n4      GF(8), n=4, sigma=(0,1,2), analyze: bound 9, and level 9
              hits after 577 checks, with no symmetry step (N = 64)
  gf16-n4     GF(16), n=4, sigma=(0,1,2), analyze: bound 9, and level 9
              of the nu = 4369 columns hits after 4,361 checks, with no
              symmetry step
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
    python scripts/run_headline_cases.py [--only LABEL ...] [--workers N]
        [--out-dir DIR]
"""

import argparse
import json
import resource
import runpy
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# run from a plain checkout: import the package from its src directory
sys.path.insert(0, str(ROOT / "src"))

from twistver import Field, SearchPlan, Twist, build_code, build_variety  # noqa: E402
from twistver.cli import check_writable, write  # noqa: E402
from twistver.codes import DEFAULT_BUDGET, analyze  # noqa: E402

BENCH = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))

# label, p, m, n, sigma exponents (powers of p), w_max (None: no cap),
# budget (None: the default), e (the subfield degree of Field, default 1)
ROWS = [(c.label, c.p, c.e * c.t, c.n, c.sigma, None, None, c.e)
        for c in map(BENCH["CASES"].get, BENCH["WORKLOADS"]["headline"].labels)]
ROWS += [
    ("gf27-n3", 3, 3, 3, (0, 0, 1), 5, None),
    ("gf8-n3", 2, 3, 3, (0, 1, 2), 6, None),
    ("gf512-n2", 2, 9, 2, (0, 1, 2), 6, None),
    ("gf8-n4", 2, 3, 4, (0, 1, 2), None, None),
    ("gf16-n4", 2, 4, 4, (0, 1, 2), None, None),
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


def run_row(label, p, m, n, exps, w_max, budget, e=1, *, workers, out_dir):
    t0 = time.perf_counter()
    field = Field(p, m, e=e)
    twist = Twist(p, m, exps)
    code = build_code(build_variety(field, n, twist))
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan = SearchPlan(w_max=w_max, budget=budget or DEFAULT_BUDGET,
                      workers=workers)
    report = analyze(code, plan)
    total = time.perf_counter() - t0
    if out_dir is not None:
        text = json.dumps(report.to_json(), indent=2, sort_keys=True)
        write(out_dir / f"{label}.json", lambda fh: fh.write(text + "\n"))
    symmetry = report.timings.get("symmetry")
    supports = report.min_weight_support_count
    print(f"{label}: GF({field.order}) sigma=({','.join(map(str, exps))}) "
          f"[{report.nu},{report.kappa},{report.delta}] {report.status} "
          f"supports={'-' if supports is None else supports} "
          f"N={report.effective_N} bound={report.cyclic_bound} "
          f"k={report.orbit_prefix} delta={report.delta} "
          f"set-up {setup:.4f} s, symmetry "
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
    ap.add_argument("--out-dir", type=Path, metavar="DIR",
                    help="write each row's JSON report here")
    args = ap.parse_args()
    # checked before the first row, so that a bad value costs no work
    if args.workers < 1:
        ap.error(f"--workers must be at least 1, got {args.workers}")
    rows = [row for row in ROWS if args.only is None or row[0] in args.only]
    if args.out_dir is not None:
        try:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            for row in rows:
                check_writable(args.out_dir / f"{row[0]}.json")
        except OSError as err:
            ap.error(f"--out-dir: {err}")
    for row in rows:
        run_row(*row, workers=args.workers, out_dir=args.out_dir)


if __name__ == "__main__":
    main()
