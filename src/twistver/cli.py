"""Command-line front end.

Subcommands: field, build, code, verify.  Long-running commands print
stage progress to stderr; the machine-readable result goes to the output
file (or stdout when no -o is given), never mixed with progress text.

Option precedence is flags > config file > defaults; the JSON config file
uses the same keys as the long flags.  The search budget can also be set
through the TWISTVER_BUDGET environment variable (lowest precedence among
explicit settings).

Exit codes: 0 success (an exact result, or no dependent set up to
--w-max), 2 budget exhausted (a capped level: a lower bound only),
1 invalid input or a verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional

from .codes import (DEFAULT_BUDGET, BudgetExceeded, SearchPlan, analyze,
                    build_code, verify_dep_classification,
                    verify_general_position, verify_oracle_equivalence)
from .ff import Field, build_field
from .veronese import (ScrollFrame, Twist, build_variety, load_variety,
                       monomial_basis, scroll_plucker_check)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2


@dataclass
class ExperimentConfig:
    p: Optional[int] = None
    e: int = 1
    t: Optional[int] = None
    n: int = 2
    sigma: Optional[str] = None      # comma-separated powers of p
    sigma_q: Optional[str] = None    # comma-separated powers of q
    budget: Optional[int] = None
    w_max: Optional[int] = None
    workers: Optional[int] = None
    allow_collapse: bool = False
    output: Optional[str] = None


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _progress(f"wrote {output}")
    else:
        print(text)


def _parse_exponents(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ValueError(f"cannot parse exponent list {raw!r}; "
                         "expected comma-separated integers")


def _resolve_twist(cfg: ExperimentConfig, field: Field) -> Twist:
    if (cfg.sigma is None) == (cfg.sigma_q is None):
        raise ValueError("exactly one of --sigma (powers of p) or "
                         "--sigma-q (powers of q) is required")
    if cfg.sigma is not None:
        return Twist(field.p, field.m, _parse_exponents(cfg.sigma))
    return Twist.from_q_powers(field, _parse_exponents(cfg.sigma_q))


def _resolve_field(cfg: ExperimentConfig) -> Field:
    if cfg.p is None or cfg.t is None:
        raise ValueError("--p and --t are required")
    return Field(cfg.p, cfg.e * cfg.t, e=cfg.e)


def _resolve_plan(cfg: ExperimentConfig) -> SearchPlan:
    budget = cfg.budget
    if budget is None:
        env = os.environ.get("TWISTVER_BUDGET")
        budget = int(env) if env else DEFAULT_BUDGET
    workers = cfg.workers
    if workers is None:
        # the CPUs this process may run on, which a container can limit
        # below the machine's count
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    return SearchPlan(w_max=cfg.w_max, budget=budget, workers=workers)


def _build_with_warnings(cfg: ExperimentConfig):
    field = _resolve_field(cfg)
    twist = _resolve_twist(cfg, field)
    basis = monomial_basis(cfg.n, twist)
    if basis.collapsed and not cfg.allow_collapse:
        _progress(f"warning: collapse: {basis.effective_N} of "
                  f"{basis.expected_N} monomials distinct (repeated twisted "
                  "degrees merge coordinates); pass --allow-collapse to "
                  "silence this")
    variety = build_variety(field, cfg.n, twist)
    return field, twist, variety


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_field(args) -> int:
    field = build_field(args.p, args.m)
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


def cmd_build(args, cfg: ExperimentConfig) -> int:
    field, twist, variety = _build_with_warnings(cfg)
    _progress(f"built {variety.num_points} x {variety.basis.effective_N} "
              f"point table over GF({field.order}), rank {variety.rank_}")
    _emit(variety.to_json(), cfg.output)
    if args.csv:
        from .linalg import Matrix
        Matrix(field, variety.coords.T.copy()).write_csv(args.csv)
        _progress(f"wrote {args.csv}")
    return EXIT_OK


def cmd_code(args, cfg: ExperimentConfig) -> int:
    plan = _resolve_plan(cfg)
    if args.variety:
        variety = load_variety(args.variety)
        _progress(f"loaded point table from {args.variety}")
    else:
        _, _, variety = _build_with_warnings(cfg)
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
        _progress(f"  [classify] skipped: C({code.nu}, {report.delta}) "
                  f"subsets exceed the budget {plan.budget}; "
                  "min_weight_support_count is null")
    payload = report.to_json()
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _emit(payload, cfg.output)
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


def cmd_verify(args, cfg: ExperimentConfig) -> int:
    plan = _resolve_plan(cfg)
    _, twist, variety = _build_with_warnings(cfg)
    prop = args.property
    result: dict = {"property": prop}
    ok = False

    if prop == "general-position":
        k = args.k if args.k is not None else twist.d + 1
        code = build_code(variety)
        res = verify_general_position(code, k, plan)
        ok = res.ok
        result.update(k=k, checked=res.checked,
                      witness=list(res.witness) if res.witness else None)
    elif prop == "dep-classification":
        code = build_code(variety)
        ok, report, why = verify_dep_classification(code, plan)
        result.update(delta=report.delta,
                      supports=report.min_weight_support_count,
                      violations=report.violations, reason=why)
    elif prop == "scroll-plucker":
        frame = ScrollFrame(cfg.n, twist)
        basis = variety.basis
        failures = [list(p) for p in variety.points
                    if not scroll_plucker_check(variety.field, p, frame, basis)]
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
    _emit(result, cfg.output)
    return EXIT_OK if ok else EXIT_INVALID


# ---------------------------------------------------------------------------

def _add_experiment_flags(sp) -> None:
    sp.add_argument("--p", type=int, help="prime characteristic")
    sp.add_argument("--e", type=int, help="base-field exponent, q = p^e "
                    f"(default {ExperimentConfig.e})")
    sp.add_argument("--t", type=int, help="extension degree over F_q")
    sp.add_argument("--n", type=int, help="ambient variables, points of "
                    f"PG(n-1) (default {ExperimentConfig.n})")
    sp.add_argument("--sigma", help="comma-separated Frobenius exponents (powers of p), e.g. 0,0,2")
    sp.add_argument("--sigma-q", dest="sigma_q", help="comma-separated exponents as powers of q")
    sp.add_argument("--budget", type=int, help="max subsets checked per search level")
    sp.add_argument("--w-max", dest="w_max", type=int, help="largest subset size to search")
    sp.add_argument("--workers", type=int, help="parallel workers (default: the CPUs this process may use)")
    sp.add_argument("--allow-collapse", action="store_true", default=None,
                    help="silence the repeated-monomial collapse warning")
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("-o", "--output", help="write the JSON result here instead of stdout")


def _config_from_args(args) -> ExperimentConfig:
    """Flags override config-file values, which override defaults."""
    file_data: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_data = json.load(fh)
        unknown = set(file_data) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    values = dict(file_data)
    for f in fields(ExperimentConfig):
        flag_value = getattr(args, f.name)  # None when the flag is absent
        if flag_value is not None:
            values[f.name] = flag_value
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    p_code.add_argument("--variety", help="load a previously exported point table")

    p_verify = sub.add_parser("verify", help="run an exhaustive verification")
    p_verify.add_argument("property", choices=[
        "general-position", "dep-classification", "scroll-plucker",
        "oracle-equivalence"])
    _add_experiment_flags(p_verify)
    p_verify.add_argument("--k", type=int, help="subset size for general-position")

    args = parser.parse_args(argv)
    try:
        if args.command == "field":
            return cmd_field(args)
        cfg = _config_from_args(args)
        if args.command == "build":
            return cmd_build(args, cfg)
        if args.command == "code":
            return cmd_code(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        raise AssertionError("unhandled command")
    except BudgetExceeded as exc:
        _progress(f"error: {exc}")
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        _progress(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
