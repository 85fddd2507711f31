"""Command line front end.

Subcommands::

    linesearch optimal --lambda 1 --Lambda 10 [--eps 1e-9] [--format json|csv]
    linesearch optimal --sweep --rho-min 1 --rho-max 1e6 --points 50
    linesearch reach   --ratio 7 --lambda 1
    linesearch verify  --lambda 1 --Lambda 10 [--grid-points 100000]
    linesearch verify  --sweep --rho-min 2 --rho-max 1e4 --points 20
    linesearch mray    --m 3 --a 0 --b 1 [--horizon 200]

Results go to stdout as a single JSON document (``schema_version`` "2") or,
for sweeps and ``--format csv``, as delimited rows.  Every float is printed
with 17 significant digits so parsed values reproduce the computed doubles
bit for bit.  Diagnostics go to stderr; the level is taken from the
LINESEARCH_LOG environment variable (error, info or debug).  The exit code
is 0 only if every requested computation and self-check succeeded.

A launch imports only what its subcommand uses: ``reach``, ``mrays`` and
``simulate`` are imported inside the functions that call them, and the
package modules are always called through the module so that wrappers put
on module attributes see the calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from ._base import configure_from_env
from .optimal import SearchProblem, StrategyReport, optimize, solve_problem
from .solve import MODE_LIMIT

SCHEMA_VERSION = "2"


# JSON's names for the values '.16e' spells nan, inf and -inf.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt_float(x: float) -> str:
    text = f"{x:.16e}"
    return _NON_FINITE.get(text, text)


# What json.dumps does with a str, without its per-call set-up.
_quote = json.encoder.encode_basestring_ascii


def dumps_record(obj: object, indent: int = 0) -> str:
    """JSON text with floats at full precision (17 significant digits)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {_quote(str(k))}: '
            f'{_fmt_float(v) if type(v) is float else dumps_record(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            # Each distinct value is formatted once: the interval sups of a
            # verify record are equalized, so a few values fill the list.
            distinct = set(obj)
            if 0.0 not in distinct:  # 0.0 and -0.0 are one key but print apart
                text = {v: _fmt_float(v) for v in distinct}
                return "[" + ", ".join(map(text.__getitem__, obj)) + "]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in obj) + "]"
        items = [f"{pad}  {dumps_record(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return _quote(str(obj))


def parse_record(text: str) -> dict:
    """Inverse of :func:`dumps_record` for the structured format."""
    return json.loads(text)


def _flatten(obj: object, prefix: str = "") -> dict[str, str]:
    out: dict[str, str] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            out.update(_flatten(v, key))
    elif isinstance(obj, (list, tuple)):
        cells = [
            _fmt_float(v) if isinstance(v, float) else str(v)
            for v in obj
        ]
        out[prefix] = ";".join(cells)
    elif isinstance(obj, bool):
        out[prefix] = "true" if obj else "false"
    elif isinstance(obj, float):
        out[prefix] = _fmt_float(obj)
    else:
        out[prefix] = str(obj)
    return out


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(dumps_record(record))
    else:
        _emit_rows([record], "csv")


def _emit_rows(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(dumps_record(rows))
        return
    if not rows:
        return
    flat_rows = [_flatten(r) for r in rows]
    keys = list(flat_rows[0].keys())
    print(",".join(keys))
    for fr in flat_rows:
        print(",".join(fr.get(k, "") for k in keys))


def _report_payload(report: StrategyReport) -> tuple[dict, dict]:
    strategy = report.strategy
    results = {
        "n": report.n, "a0": report.a0, "cr": report.cr,
        "turns": strategy.turns, "terminal": strategy.terminal,
    }
    diagnostics = {
        "mode": report.mode,
        "cr_error_bound": report.cr_error_bound,
        "log2_residual": report.log2_residual,
        "bracket_width": report.bracket_width,
    }
    return results, diagnostics


def _record(command: str, inputs: dict, results: object, diagnostics: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
    }


def _cmd_optimal(args: argparse.Namespace) -> int:
    if args.sweep:
        return _sweep(args, verify=False)
    problem = _problem_from(args)
    report = optimize(problem)
    results, diagnostics = _report_payload(report)
    inputs = {"lambda": problem.lambda_, "Lambda": problem.Lambda, "eps": problem.epsilon}
    _emit(_record("optimal", inputs, results, diagnostics), args.format or "json")
    return 0


def _problem_from(args: argparse.Namespace) -> SearchProblem:
    if args.log2_rho is not None:
        if args.Lambda is not None:
            raise ValueError("give --Lambda or --log2-rho, not both")
        return SearchProblem.from_log2_rho(
            args.log2_rho, lambda_=args.lambda_, epsilon=args.eps
        )
    if args.Lambda is None:
        raise ValueError("either --Lambda or --log2-rho is required")
    return SearchProblem(lambda_=args.lambda_, Lambda=args.Lambda, epsilon=args.eps)


def _cmd_reach(args: argparse.Namespace) -> int:
    from . import reach

    result = reach.maximal_reach(reach.ReachQuery(ratio=args.ratio, lambda_=args.lambda_))
    # The strategy's terminal is the reach itself, printed once as Lambda.
    results = {"Lambda": result.Lambda, "n": result.n, "a0": result.a0,
               "turns": result.strategy.turns}
    inputs = {"ratio": args.ratio, "lambda": args.lambda_}
    _emit(_record("reach", inputs, results, {"mode": "exact_inverse"}), args.format or "json")
    return 0


def _verify_one(problem: SearchProblem, grid_points: int) -> tuple[dict, dict, bool]:
    """Optimize, then cross-examine the result with the simulator.

    In limit-approximation mode the intervals are not promised to equalize,
    so that check degrades to |simulated - reported| <= the mode's bound.
    """
    from . import simulate

    report = optimize(problem)
    strategy = report.strategy
    wcr = simulate.worst_case_ratio(strategy, problem.lambda_, problem.Lambda)
    grid = simulate.grid_sweep_ratio(strategy, problem.lambda_, problem.Lambda, grid_points)
    sups = wcr.interval_sups
    base_ratios = {}
    for name in simulate.BASELINES:
        b = simulate.baselines(name, problem.lambda_, problem.Lambda)
        base_ratios[name] = simulate.worst_case_ratio(b).sup_ratio

    rel = 1e-9 * report.cr
    if report.mode == MODE_LIMIT:
        equalized = True  # approximation mode does not promise equalized intervals
        consistent = abs(wcr.sup_ratio - report.cr) <= report.cr_error_bound + rel
    else:
        equalized = wcr.sup_ratio - min(sups) <= rel  # the sup is the largest of sups
        consistent = abs(wcr.sup_ratio - report.cr) <= rel
    # An infinite ratio satisfies both comparisons (inf - 1e-3 <= inf) yet
    # bounds nothing, so these two checks need a finite ratio to pass (a
    # grid ratio within 1e-3 of a finite one is finite too).
    finite = math.isfinite(wcr.sup_ratio)
    grid_ok = finite and wcr.sup_ratio - 1e-3 <= grid <= wcr.sup_ratio + rel
    dominant = finite and all(wcr.sup_ratio <= r + 1e-9 for r in base_ratios.values())
    passed = equalized and consistent and grid_ok and dominant

    results = {
        "n": report.n,
        "a0": report.a0,
        "cr": report.cr,
        "worst_case_ratio": wcr.sup_ratio,
        "grid_sweep_ratio": grid,
        "interval_sups": sups,
        "baseline_ratios": base_ratios,
        "checks": {
            "equalization": equalized,
            "cr_consistency": consistent,
            "grid_within_tolerance": grid_ok,
            "dominates_baselines": dominant,
        },
    }
    diagnostics = {
        "mode": report.mode,
        "cr_error_bound": report.cr_error_bound,
        "log2_residual": report.log2_residual,
    }
    return results, diagnostics, passed


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.sweep:
        return _sweep(args, verify=True)
    problem = _problem_from(args)
    results, diagnostics, passed = _verify_one(problem, args.grid_points)
    inputs = {
        "lambda": problem.lambda_,
        "Lambda": problem.Lambda,
        "eps": problem.epsilon,
        "grid_points": args.grid_points,
    }
    _emit(_record("verify", inputs, results, diagnostics), args.format or "json")
    return 0 if passed else 1


def _sweep(args: argparse.Namespace, verify: bool) -> int:
    if args.rho_min is None or args.rho_max is None:
        raise ValueError("sweep mode needs --rho-min and --rho-max")
    if args.Lambda is not None or args.log2_rho is not None:
        raise ValueError("sweep mode reads rho from --rho-min and --rho-max, "
                         "not --Lambda or --log2-rho")
    if not (1.0 <= args.rho_min <= args.rho_max):
        raise ValueError("need 1 <= rho-min <= rho-max")
    if args.points < 1:
        raise ValueError("need at least one sweep point")
    from . import simulate

    rhos = simulate.GeometricGrid(args.rho_min, args.rho_max, args.points)
    rows = []
    all_ok = True
    for rho in rhos:
        problem = SearchProblem(lambda_=args.lambda_, Lambda=rho * args.lambda_, epsilon=args.eps)
        if verify:
            results, _, passed = _verify_one(problem, args.grid_points)
            all_ok &= passed
            rows.append(
                {
                    "rho": rho,
                    "n": results["n"],
                    "a0": results["a0"],
                    "cr": results["cr"],
                    "worst_case_ratio": results["worst_case_ratio"],
                    "grid_sweep_ratio": results["grid_sweep_ratio"],
                    "passed": passed,
                }
            )
        else:
            sol = solve_problem(problem)  # the rows print no turns
            rows.append(
                {
                    "rho": rho,
                    "n": sol.n,
                    "a0": sol.a0,
                    "cr": sol.cr,
                    "mode": sol.mode,
                    "cr_error_bound": sol.cr_error_bound,
                    "log2_residual": sol.log2_residual,
                }
            )
    _emit_rows(rows, args.format or "csv")
    return 0 if all_ok else 1


def _cmd_mray(args: argparse.Namespace) -> int:
    from . import mrays

    inputs = {"m": args.m, "a": args.a, "b": args.b, "lambda": args.lambda_, "horizon": args.horizon}
    lo, hi = mrays.feasible_b_interval(args.m, args.a)
    bound_upper = 1.0 + 2.0 * mrays.optimal_cost_coefficient(args.m)
    bound_lower = 1.0 + 2.0 * (args.m - 1.0)
    try:
        params = mrays.RayFamilyParams(m=args.m, a=args.a, b=args.b, lambda_=args.lambda_)
    except mrays.InfeasibleParamsError as exc:
        results = {
            "feasible": False,
            "b_interval": list(exc.interval),
            "bound_upper": bound_upper,
            "bound_lower": bound_lower,
        }
        _emit(_record("mray", inputs, results, {"error": str(exc)}), args.format or "json")
        return 1
    ratio = mrays.mray_worst_ratio(params, args.horizon)
    results = {
        "feasible": True,
        "b_interval": [lo, hi],
        "worst_ratio": ratio,
        "bound_upper": bound_upper,
        "bound_lower": bound_lower,
        "gap_to_bound": bound_upper - ratio,
        "first_turns": params.turns(min(8, args.horizon)),
    }
    _emit(_record("mray", inputs, results, {}), args.format or "json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linesearch",
        description="Optimal strategies and exact competitive ratios for bounded line search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lambda", dest="lambda_", type=float, default=1.0,
                       help="lower bound on the target distance (default 1)")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    def add_problem(p: argparse.ArgumentParser, points: int) -> None:
        p.add_argument("--Lambda", type=float, default=None,
                       help="upper bound on the target distance")
        p.add_argument("--log2-rho", dest="log2_rho", type=float, default=None,
                       help="give rho = Lambda/lambda as its base-2 logarithm")
        p.add_argument("--eps", type=float, default=1e-9,
                       help="competitive-ratio tolerance (default 1e-9)")
        p.add_argument("--sweep", action="store_true", help="log-spaced batch over rho")
        p.add_argument("--rho-min", type=float, default=None)
        p.add_argument("--rho-max", type=float, default=None)
        p.add_argument("--points", type=int, default=points)

    p_opt = sub.add_parser("optimal", help="compute the optimal strategy and its ratio")
    add_common(p_opt)
    add_problem(p_opt, points=50)
    p_opt.set_defaults(func=_cmd_optimal)

    p_reach = sub.add_parser("reach", help="largest Lambda searchable within a ratio budget")
    add_common(p_reach)
    p_reach.add_argument("--ratio", type=float, required=True,
                         help="competitive ratio budget R, 3 <= R < 9")
    p_reach.set_defaults(func=_cmd_reach)

    p_ver = sub.add_parser("verify", help="cross-check the optimizer against the simulator")
    add_common(p_ver)
    add_problem(p_ver, points=20)
    p_ver.add_argument("--grid-points", dest="grid_points", type=int, default=100_000)
    p_ver.set_defaults(func=_cmd_verify)

    p_mray = sub.add_parser("mray", help="feasibility and worst ratio of an m-ray family member")
    add_common(p_mray)
    p_mray.add_argument("--m", type=int, required=True, help="number of rays, m >= 2")
    p_mray.add_argument("--a", type=float, required=True, help="slope of the family member")
    p_mray.add_argument("--b", type=float, required=True, help="offset of the family member")
    p_mray.add_argument("--horizon", type=int, default=200,
                        help="breakpoint horizon for the ratio supremum (default 200)")
    p_mray.set_defaults(func=_cmd_mray)
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    # Built once per process: building costs about half an in-process verify.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    configure_from_env()
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
