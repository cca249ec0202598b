#!/usr/bin/env python3
"""Run the reproduction grid through analyze and tally the outcomes.

The grid: p in {2, 3, 5, 7}, n in {2, 3, 4}, d in {2, 3}, every sorted
sigma = (0, s_1, ..., s_{d-1}) with s_i < m and norm < p^m, and every m
with nu = (p^(mn) - 1)/(p^m - 1) at most --max-nu (default 5,000: 751
rows).  Each row runs codes.analyze with one worker and the default
budget, under an alarm of ROW_SECONDS, and prints p, m, n, sigma, nu, N
(effective_N), delta (the lower bound, after ">=", when the row is not
exact), whether delta is exact, the status (or "capped" or "timeout"),
the report's cyclic_bound ("-" for a timed-out row, which has no
report), the set-up seconds (Field through build_code and the scroll
check; `setup_s`) and the seconds of set-up and analyze together (the
bound's own seconds, timings["bound"] of the report, go to the totals
line and --json).  Before analyze, each row checks the paper's scroll
claim on its point table (veronese.scroll_plucker_check) and stores the
verdict as `scroll`, and it stores `symmetry_s`, the seconds of the
column-symmetry certificate (timings["symmetry"] of the report), null
when no conclusion of the row needed the symmetries.  A row is flagged
when its scroll check fails ("FLAG scroll") or its bound exceeds its
exact delta ("FLAG bound > delta": the bound is then wrong).  The
totals of exact, capped and timed-out rows and of flagged rows come
last, with the number of projective spaces built (pg.space's cache misses: one per distinct
(p, m, n), since the rows of one space are consecutive), the summed
seconds, the summed set-up seconds and the summed certificate seconds
with the number of rows that paid them, and the exit status is 1 when a
row is flagged.  --json writes {"rows": [...], "spaces_built": N}
through twistver.cli.write, so a failed write leaves any old file whole.

Usage:
    python scripts/sweep.py [--max-nu NU] [--json FILE]
"""

import argparse
import itertools
import json
import signal
import sys
import time
from pathlib import Path

# run from a plain checkout: import the package from its src directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistver import (Field, SearchPlan, Twist, build_code,  # noqa: E402
                      build_variety, scroll_plucker_check)
from twistver.cli import check_writable, write  # noqa: E402
from twistver.codes import analyze  # noqa: E402
from twistver.pg import space  # noqa: E402


ROW_SECONDS = 15


class RowTimeout(Exception):
    pass


def grid(max_nu):
    """(p, m, n, sigma) of every grid row with nu <= max_nu."""
    for p, n in itertools.product((2, 3, 5, 7), (2, 3, 4)):
        for m in itertools.count(1):
            big = p ** m
            nu = (big ** n - 1) // (big - 1)
            if nu > max_nu:
                break
            for d in (2, 3):
                for rest in itertools.combinations_with_replacement(
                        range(m), d - 1):
                    sigma = (0, *rest)
                    if sum(p ** s for s in sigma) < big:
                        yield p, m, n, sigma


def run_row(p, m, n, sigma):
    """The row's outcome as a dict; a row past its alarm is a timeout."""
    row = {"p": p, "m": m, "n": n, "sigma": list(sigma), "bound": None,
           "bound_s": None, "scroll": None, "setup_s": None,
           "symmetry_s": None}
    start = time.perf_counter()
    signal.alarm(ROW_SECONDS)
    try:
        variety = build_variety(Field(p, m), n, Twist(p, m, sigma))
        code = build_code(variety)
        row.update(nu=code.nu, N=code.effective_N,
                   scroll=bool(scroll_plucker_check(variety).all()),
                   setup_s=round(time.perf_counter() - start, 4))
        report = analyze(code, SearchPlan(workers=1))
    except RowTimeout:
        row.update(outcome="timeout", delta=None, exact=False)
    else:
        # without a w_max, a row that is not exact was stopped by the budget
        row.update(
            outcome="exact" if report.delta_exact else "capped",
            delta=report.delta if report.delta_exact
            else report.delta_lower_bound,
            exact=report.delta_exact, status=report.status,
            bound=report.cyclic_bound, bound_s=report.timings["bound"],
            symmetry_s=report.timings.get("symmetry"),
            witness=report.witness,
            count=report.min_weight_support_count)
    finally:
        signal.alarm(0)
    row["seconds"] = round(time.perf_counter() - start, 3)
    row["flags"] = ((["scroll"] if row["scroll"] is False else [])
                    + (["bound > delta"] if row["exact"]
                       and row["bound"] > row["delta"] else []))
    return row


def show(row):
    delta = ("-" if row["delta"] is None else
             f"{'' if row['exact'] else '>='}{row['delta']}")
    status = row["status"] if row["exact"] else row["outcome"]
    sigma = ",".join(map(str, row["sigma"]))
    bound = "-" if row["bound"] is None else row["bound"]
    setup = "-" if row["setup_s"] is None else f"{row['setup_s']:.4f}"
    return (f"{row['p']:>2} {row['m']:>2} {row['n']} {sigma:<8} "
            f"{row.get('nu', '-'):>5} {row.get('N', '-'):>3} {delta:>5} "
            f"{str(row['exact']):<5} {status:<10} {bound:>5} {setup:>7} "
            f"{row['seconds']:8.3f}"
            + "".join(f"  FLAG {flag}" for flag in row["flags"]))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-nu", type=int, default=5_000, metavar="NU",
                    help="largest code length in the grid (default %(default)s)")
    ap.add_argument("--json", metavar="FILE",
                    help="also write every row, witness and count included")
    args = ap.parse_args()
    # checked before the first row, so that a bad path costs no work
    if args.json is not None:
        try:
            check_writable(args.json)
        except OSError as err:
            ap.error(f"--json: {err}")

    def overrun(signum, frame):
        raise RowTimeout

    signal.signal(signal.SIGALRM, overrun)
    print(" p  m n sigma       nu   N delta exact status     bound   setup"
          "  seconds")
    rows, built = [], space.cache_info().misses
    for p, m, n, sigma in grid(args.max_nu):
        rows.append(run_row(p, m, n, sigma))
        print(show(rows[-1]), flush=True)
    totals = {k: sum(r["outcome"] == k for r in rows)
              for k in ("exact", "capped", "timeout")}
    flagged = sum(bool(r["flags"]) for r in rows)
    bound_s = max((r["bound_s"] for r in rows if r["bound_s"] is not None),
                  default=0.0)
    setup_s = sum(r["setup_s"] for r in rows if r["setup_s"] is not None)
    proved = [r["symmetry_s"] for r in rows if r["symmetry_s"] is not None]
    spaces = space.cache_info().misses - built
    print(f"{len(rows)} rows: {totals['exact']} exact, {totals['capped']} "
          f"capped, {totals['timeout']} timeout; {flagged} flagged; "
          f"{spaces} spaces built; "
          f"{sum(r['seconds'] for r in rows):.1f} s, set-up {setup_s:.2f} s, "
          f"symmetries {sum(proved):.2f} s in {len(proved)} rows, "
          f"the bound at most {bound_s:.4f} s a row")
    if args.json:
        text = json.dumps({"rows": rows, "spaces_built": spaces}, indent=1)
        write(args.json, lambda fh: fh.write(text + "\n"))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
