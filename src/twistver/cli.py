"""Command-line front end.

Subcommands: field, build, code, verify.  Long-running commands print
stage progress to stderr; the machine-readable result goes to the output
file (or stdout when no -o is given), never mixed with progress text.

Exit codes: 0 success (an exact result, or no dependent set up to
--w-max), 2 budget exhausted (a capped level: a lower bound only),
1 invalid input or a verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import suppress
from typing import Optional

from .codes import (DEFAULT_BUDGET, BudgetExceeded, SearchPlan, analyze,
                    build_code, classification_scan, usable_cpus,
                    verify_dep_classification, verify_general_position,
                    verify_oracle_equivalence)
from .ff import Field
from .linalg import rank
from .veronese import Twist, build_variety, scroll_plucker_check

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write(path: str, write) -> None:
    """write(fh) to a file beside path, then replace path with it whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)
    _progress(f"wrote {path}")


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        _write(output, lambda fh: fh.write(text + "\n"))
    else:
        print(text)


def _parse_exponents(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ValueError(f"cannot parse exponent list {raw!r}; "
                         "expected comma-separated integers")


def _resolve_twist(args, field: Field) -> Twist:
    if (args.sigma is None) == (args.sigma_q is None):
        raise ValueError("exactly one of --sigma (powers of p) or "
                         "--sigma-q (powers of q) is required")
    if args.sigma is not None:
        return Twist(field.p, field.m, _parse_exponents(args.sigma))
    return Twist.from_q_powers(field, _parse_exponents(args.sigma_q))


def _resolve_plan(args, w_max: Optional[int] = None) -> SearchPlan:
    return SearchPlan(w_max=w_max, budget=args.budget, workers=args.workers)


def _build_with_warnings(args):
    field = Field(args.p, args.e * args.t, e=args.e)
    twist = _resolve_twist(args, field)
    variety = build_variety(field, args.n, twist)
    basis = variety.basis
    if basis.collapsed:
        _progress(f"warning: collapse: {basis.effective_N} of "
                  f"{basis.expected_N} monomials distinct (repeated twisted "
                  "degrees merge coordinates)")
    return field, twist, variety


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_field(args) -> int:
    field = Field(args.p, args.m)
    payload = {
        "p": field.p, "m": field.m, "order": field.order,
        "modulus": list(field.modulus),
        "modulus_str": field.modulus_str(),
        "subfield_orders": field.subfield_orders(),
        "generator": field.generator,
    }
    if args.json:
        _emit(payload, args.output)
    else:
        print(f"GF({field.order}) = GF({field.p}^{field.m})")
        print(f"modulus: {field.modulus_str()}  coefficients {list(field.modulus)}")
        print(f"subfield orders: {payload['subfield_orders']}")
        print(f"primitive element: {field.generator}")
    return EXIT_OK


def cmd_build(args) -> int:
    field, twist, variety = _build_with_warnings(args)
    _progress(f"built {variety.num_points} x {variety.basis.effective_N} "
              f"point table over GF({field.order}), "
              f"rank {rank(field, variety.coords)}")
    _emit(variety.to_json(), args.output)
    if args.csv:
        # the point table transposed, H before its reduction, entries the
        # canonical integer encodings sum(c_i * p^i)
        _write(args.csv, lambda fh: csv.writer(fh).writerows(
            variety.coords.T.tolist()))
    return EXIT_OK


def cmd_code(args) -> int:
    plan = _resolve_plan(args, args.w_max)
    _, _, variety = _build_with_warnings(args)
    code = build_code(variety)
    _progress(f"code length {code.nu}, dimension {code.kappa}, "
              f"check rank {code.effective_N}; searching (budget {plan.budget}, "
              f"workers {plan.workers})")
    report = analyze(code, plan)
    for s in report.stage_log:
        _progress(f"  [{s.label}] w={s.w} restriction={s.restriction} "
                  f"checked={s.checked} dependent={s.dependent_found} "
                  f"({s.seconds:.2f}s)")
    if (report.delta_exact and report.delta == code.twist.d + 2
            and report.min_weight_support_count is None):
        k, cost = classification_scan(code, report)
        _progress(f"  [classify] skipped: C({code.nu - k}, {report.delta - k})"
                  f" = {cost} subsets exceed the budget {plan.budget}; "
                  "min_weight_support_count is null")
    payload = report.to_json()
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _emit(payload, args.output)
    if report.capped:
        _progress(f"budget exhausted: only delta >= "
                  f"{report.delta_lower_bound} proven")
        return EXIT_BUDGET
    if not report.delta_exact:
        _progress(f"no dependent set of at most {plan.w_max} columns: "
                  f"delta >= {report.delta_lower_bound}")
    if report.violations:
        _progress("support classification violations detected")
        return EXIT_INVALID
    return EXIT_OK


def cmd_verify(args) -> int:
    plan = _resolve_plan(args)
    _, twist, variety = _build_with_warnings(args)
    prop = args.property
    result: dict = {"property": prop}
    ok = False

    if prop == "general-position":
        k = args.k if args.k is not None else twist.d + 1
        code = build_code(variety)
        res = verify_general_position(code, k, plan)
        ok = res.ok
        result.update(k=k, checked=res.checked, bound=res.bound,
                      witness=list(res.witness) if res.witness else None)
    elif prop == "dep-classification":
        code = build_code(variety)
        ok, report, why = verify_dep_classification(code, plan)
        result.update(delta=report.delta,
                      supports=report.min_weight_support_count,
                      violations=report.violations, reason=why)
    elif prop == "scroll-plucker":
        failures = variety.point_array[~scroll_plucker_check(variety)].tolist()
        ok = not failures
        result.update(points=variety.num_points, failures=failures)
    elif prop == "oracle-equivalence":
        code = build_code(variety)
        ok, staged, oracle = verify_oracle_equivalence(code, plan)
        result.update(staged_delta=staged, oracle_delta=oracle)
    else:  # unreachable through argparse choices
        raise ValueError(f"unknown property {prop}")

    result["pass"] = ok
    _progress(f"verify {prop}: {'pass' if ok else 'FAIL'}")
    _emit(result, args.output)
    return EXIT_OK if ok else EXIT_INVALID


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INVALID: argparse's own status, 2, is
    EXIT_BUDGET here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_experiment_flags(sp) -> None:
    """The field and twist flags, and -o."""
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    sp.add_argument("--e", type=int, default=1,
                    help="base-field exponent, q = p^e (default %(default)s)")
    sp.add_argument("--t", type=int, required=True, help="extension degree over F_q")
    sp.add_argument("--n", type=int, default=2, help="ambient variables, "
                    "points of PG(n-1) (default %(default)s)")
    sp.add_argument("--sigma", help="comma-separated Frobenius exponents (powers of p), e.g. 0,0,2")
    sp.add_argument("--sigma-q", dest="sigma_q", help="comma-separated exponents as powers of q")
    sp.add_argument("-o", "--output", help="write the JSON result here instead of stdout")


def _add_search_flags(sp) -> None:
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="max subsets checked per search level (default %(default)s)")
    sp.add_argument("--workers", type=int, default=usable_cpus(),
                    help="parallel workers (default: the CPUs this process "
                    "may use, here %(default)s)")


def main(argv=None) -> int:
    parser = _Parser(
        prog="twistver",
        description="Twisted Veronese point sets over finite fields and "
                    "the linear codes they define")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="print field parameters")
    p_field.add_argument("--p", type=int, required=True)
    p_field.add_argument("--m", type=int, required=True)
    p_field.add_argument("--json", action="store_true")
    p_field.add_argument("-o", "--output")

    p_build = sub.add_parser("build", help="build and export the point table")
    _add_experiment_flags(p_build)
    p_build.add_argument("--csv", help="also write the check matrix as CSV")

    p_code = sub.add_parser("code", help="build the code and search the minimum distance")
    _add_experiment_flags(p_code)
    _add_search_flags(p_code)
    p_code.add_argument("--w-max", dest="w_max", type=int,
                        help="largest subset size to search")

    p_verify = sub.add_parser(
        "verify", help="run an exhaustive verification (general-position "
        "levels below the code's cyclic bound are proved by the BCH bound, "
        "not scanned)")
    p_verify.add_argument("property", choices=[
        "general-position", "dep-classification", "scroll-plucker",
        "oracle-equivalence"])
    _add_experiment_flags(p_verify)
    # no --w-max: each property fixes how far its search goes
    _add_search_flags(p_verify)
    p_verify.add_argument("--k", type=int, help="subset size for general-position")

    args = parser.parse_args(argv)
    try:
        return {"field": cmd_field, "build": cmd_build, "code": cmd_code,
                "verify": cmd_verify}[args.command](args)
    except BudgetExceeded as exc:
        _progress(f"error: {exc}")
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        _progress(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
