"""Command line front end: ``linesearch optimal|reach|verify|mray [options]``.

One table, ``_COMMANDS``, declares each command's options; it reads argv
and prints ``-h``.  An option is named in full or by a unique prefix and
takes its value after "=" or as the next token, even one that starts with
"-"; a repeated option keeps its last value.  A usage error prints the
usage and one ``linesearch: error:`` line on stderr and exits 2.

Each subcommand returns its output and whether every requested computation
and self-check succeeded; :func:`main` prints the output once, on stdout,
and exits 0 only if they did.  A record prints as one JSON document
(``schema_version`` "3"), a sweep's list of rows as CSV, unless ``--format``
says otherwise.  Every float is printed with 17 significant digits so parsed
values reproduce the computed doubles bit for bit.  Diagnostics go to
stderr; the level is taken from the LINESEARCH_LOG environment variable
(error, info or debug).

A launch imports only what its subcommand uses: ``reach``, ``mrays`` and
``simulate`` are imported inside the functions that call them, and the
package modules are always called through the module so that wrappers put
on module attributes see the calls.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

from ._base import configure_from_env
from .optimal import SearchProblem, StrategyReport, optimize, solve_problem
from .solve import MODE_LIMIT

SCHEMA_VERSION = "3"


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
            return "[" + ", ".join(map(_fmt_float, obj)) + "]"
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


def _csv_cell(text: str) -> str:
    """text as one RFC 4180 field: quoted, quotes doubled, if it holds , " CR or LF."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _format(output: dict | list[dict], fmt: str) -> str:
    """A record, or a sweep's rows, as one JSON document or as CSV rows.

    The CSV header is the key paths of the first row; a sweep's rows share them.
    """
    if fmt == "json":
        return dumps_record(output)
    rows = [_flatten(r) for r in (output if isinstance(output, list) else [output])]
    lines = [rows[0], *(r.values() for r in rows)]
    return "\n".join(",".join(map(_csv_cell, cells)) for cells in lines)


def _print(text: str) -> bool:
    """Print text and flush it; False where the reader has gone (``| head -1``).

    Then the rest of the output, and the interpreter's last flush, go nowhere.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _record(command: str, inputs: dict, results: dict, diagnostics: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "inputs": inputs,
            "results": results, "diagnostics": diagnostics}


# The fields that records and sweep rows share, each formed here only.
def _problem_inputs(problem: SearchProblem) -> dict:
    return {"lambda": problem.lambda_, "Lambda": problem.Lambda, "eps": problem.epsilon}


def _solution_fields(report: StrategyReport) -> dict:
    return {"n": report.n, "a0": report.a0, "cr": report.cr}


def _solve_diagnostics(report: StrategyReport) -> dict:
    return {"mode": report.mode, "cr_error_bound": report.cr_error_bound,
            "log2_residual": report.log2_residual}


def _problem_from(args: SimpleNamespace) -> SearchProblem:
    if args.log2_rho is not None:
        if args.Lambda is not None:
            raise ValueError("give --Lambda or --log2-rho, not both")
        return SearchProblem.from_log2_rho(
            args.log2_rho, lambda_=args.lambda_, epsilon=args.eps
        )
    if args.Lambda is None:
        raise ValueError("either --Lambda or --log2-rho is required")
    return SearchProblem(lambda_=args.lambda_, Lambda=args.Lambda, epsilon=args.eps)


def _cmd_optimal(args: SimpleNamespace) -> tuple[dict | list[dict], bool]:
    if args.sweep:
        return _sweep(args, verify=False)
    problem = _problem_from(args)
    report = optimize(problem)
    strategy = report.strategy
    results = {**_solution_fields(report), "turns": strategy.turns, "terminal": strategy.terminal}
    diagnostics = {**_solve_diagnostics(report), "theta": report.theta,
                   "bracket_width": report.bracket_width}
    return _record("optimal", _problem_inputs(problem), results, diagnostics), True


def _cmd_reach(args: SimpleNamespace) -> tuple[dict, bool]:
    from . import reach

    result = reach.maximal_reach(reach.ReachQuery(ratio=args.ratio, lambda_=args.lambda_))
    # The strategy's terminal is the reach itself, printed once as Lambda.
    results = {"Lambda": result.Lambda, "n": result.n, "a0": result.a0,
               "turns": result.strategy.turns}
    inputs = {"ratio": args.ratio, "lambda": args.lambda_}
    return _record("reach", inputs, results, {"mode": "exact_inverse"}), True


def _verify_one(problem: SearchProblem, grid_points: int) -> tuple[dict, dict, bool]:
    """Optimize, then cross-examine the result with the simulator.

    In limit-approximation mode the intervals are not promised to equalize:
    ``equalization`` is set there without a check, and that of cr degrades
    to |simulated - reported| <= the mode's bound.  ``sup_spread_ulps``, the
    spread of the interval suprema in ulps of cr, is measured in every mode.
    """
    from . import simulate

    report = optimize(problem)
    strategy = report.strategy
    wcr = simulate.worst_case_ratio(strategy, problem.lambda_, problem.Lambda)
    grid = simulate.grid_sweep_ratio(strategy, problem.lambda_, problem.Lambda, grid_points)
    least = min(wcr.interval_sups)
    base_ratios = simulate.baseline_ratios(problem.lambda_, problem.Lambda)

    rel = 1e-9 * report.cr
    if report.mode == MODE_LIMIT:
        equalized = True  # approximation mode does not promise equalized intervals
        consistent = abs(wcr.sup_ratio - report.cr) <= report.cr_error_bound + rel
    else:
        equalized = wcr.sup_ratio - least <= rel  # the sup is the largest of the sups
        consistent = abs(wcr.sup_ratio - report.cr) <= rel
    # An infinite ratio satisfies both comparisons (inf - 1e-3 <= inf) yet
    # bounds nothing, so these two checks need a finite ratio to pass (a
    # grid ratio within 1e-3 of a finite one is finite too).
    finite = math.isfinite(wcr.sup_ratio)
    grid_ok = finite and wcr.sup_ratio - 1e-3 <= grid <= wcr.sup_ratio + rel
    dominant = finite and all(wcr.sup_ratio <= r + 1e-9 for r in base_ratios.values())
    passed = equalized and consistent and grid_ok and dominant

    results = {
        **_solution_fields(report),
        "worst_case_ratio": wcr.sup_ratio,
        "grid_sweep_ratio": grid,
        "argmax_interval": wcr.argmax_interval,
        "sup_spread_ulps": (wcr.sup_ratio - least) / math.ulp(report.cr),
        "baseline_ratios": base_ratios,
        "checks": {
            "equalization": equalized,
            "cr_consistency": consistent,
            "grid_within_tolerance": grid_ok,
            "dominates_baselines": dominant,
        },
    }
    return results, {**_solve_diagnostics(report), "theta": report.theta}, passed


def _cmd_verify(args: SimpleNamespace) -> tuple[dict | list[dict], bool]:
    if args.sweep:
        return _sweep(args, verify=True)
    problem = _problem_from(args)
    results, diagnostics, passed = _verify_one(problem, args.grid_points)
    inputs = {**_problem_inputs(problem), "grid_points": args.grid_points}
    return _record("verify", inputs, results, diagnostics), passed


# The fields of _verify_one's results that a verify sweep row prints.
_VERIFY_ROW = ("n", "a0", "cr", "worst_case_ratio", "grid_sweep_ratio")


def _sweep(args: SimpleNamespace, verify: bool) -> tuple[list[dict], bool]:
    """One row per rho of the grid; each row prints the rho solved, Lambda/lambda."""
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

    rows = []
    all_ok = True
    for rho in simulate.GeometricGrid(args.rho_min, args.rho_max, args.points):
        problem = SearchProblem(lambda_=args.lambda_, Lambda=rho * args.lambda_, epsilon=args.eps)
        if verify:
            results, _, passed = _verify_one(problem, args.grid_points)
            all_ok &= passed
            row = {k: results[k] for k in _VERIFY_ROW}
            rows.append({"rho": problem.rho, **row, "passed": passed})
        else:
            sol = solve_problem(problem)  # the rows print no turns
            rows.append({"rho": problem.rho, **_solution_fields(sol), **_solve_diagnostics(sol)})
    return rows, all_ok


def _cmd_mray(args: SimpleNamespace) -> tuple[dict, bool]:
    from . import mrays

    inputs = {"m": args.m, "a": args.a, "b": args.b, "lambda": args.lambda_, "horizon": args.horizon}
    b_interval = list(mrays.feasible_b_interval(args.m, args.a))
    bound_upper = 1.0 + 2.0 * mrays.optimal_cost_coefficient(args.m)
    bounds = {"bound_upper": bound_upper, "bound_lower": 1.0 + 2.0 * (args.m - 1.0)}
    try:
        params = mrays.RayFamilyParams(m=args.m, a=args.a, b=args.b, lambda_=args.lambda_)
    except mrays.InfeasibleParamsError as exc:
        results = {"feasible": False, "b_interval": b_interval, **bounds}
        return _record("mray", inputs, results, {"error": str(exc)}), False
    ratio = mrays.mray_worst_ratio(params, args.horizon)
    results = {"feasible": True, "b_interval": b_interval, "worst_ratio": ratio, **bounds,
               "gap_to_bound": bound_upper - ratio,
               "first_turns": params.turns(min(8, args.horizon))}
    return _record("mray", inputs, results, {}), True


# Each command's handler, help and options.  An option maps its name to (dest, kind, default,
# help): kind is float, int, a tuple of the values it takes or bool (a flag), default ... if required.
_COMMON = {
    "-h": ("help", bool, False, "show this help and exit"),
    "--help": ("help", bool, False, "show this help and exit"),
    "--lambda": ("lambda_", float, 1.0, "lower bound on the target distance"),
    "--format": ("format", ("json", "csv"), None, "output format (a record prints json, a sweep csv)"),
}
_PROBLEM = {**_COMMON,
    "--Lambda": ("Lambda", float, None, "upper bound on the target distance"),
    "--log2-rho": ("log2_rho", float, None, "give rho = Lambda/lambda as its base-2 logarithm"),
    "--eps": ("eps", float, 1e-9, "competitive-ratio tolerance"),
    "--sweep": ("sweep", bool, False, "log-spaced batch over rho"),
    "--rho-min": ("rho_min", float, None, "smallest rho of the sweep"),
    "--rho-max": ("rho_max", float, None, "largest rho of the sweep"),
}
_COMMANDS = {
    "optimal": (_cmd_optimal, "compute the optimal strategy and its ratio",
                {**_PROBLEM, "--points": ("points", int, 50, "number of rho in the sweep")}),
    "reach": (_cmd_reach, "largest Lambda searchable within a ratio budget",
              {**_COMMON, "--ratio": ("ratio", float, ..., "competitive ratio budget R, 3 <= R < 9")}),
    "verify": (_cmd_verify, "cross-check the optimizer against the simulator", {
        **_PROBLEM, "--points": ("points", int, 20, "number of rho in the sweep"),
        "--grid-points": ("grid_points", int, 100_000, "points of the grid sweep")}),
    "mray": (_cmd_mray, "feasibility and worst ratio of an m-ray family member", {
        **_COMMON, "--m": ("m", int, ..., "number of rays, m >= 2"),
        "--a": ("a", float, ..., "slope of the family member"),
        "--b": ("b", float, ..., "offset of the family member"),
        "--horizon": ("horizon", int, 200, "breakpoint horizon for the ratio supremum")}),
}


def _spelling(name: str, kind: object) -> str:
    value = "{" + ",".join(kind) + "}" if type(kind) is tuple else kind.__name__.upper()
    return name if kind is bool else f"{name} {value}"


def _help(commands: list[str]) -> None:
    lines = []
    for command in commands:
        rows = {_spelling(n, k) + " (required)" * (d is ...):
                t + f" (default {d})" * (d not in (None, False, ...))
                for n, (_, k, d, t) in _COMMANDS[command][2].items()}
        lines += [f"usage: linesearch {command} [options]\n\n{_COMMANDS[command][1]}\n\noptions:",
                  *(f"  {n:<24}  {t}" for n, t in rows.items()), ""]
    raise SystemExit(0 if _print("\n".join(lines)) else 1)


def _fail(command: str | None, reason: str) -> None:
    usage = f"usage: linesearch {command or '{' + ','.join(_COMMANDS) + '}'} [options]"
    print(usage, f"linesearch: error: {reason}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list[str]) -> tuple:
    """(handler, args) for argv: names in full or as a unique prefix, values after a space or "="."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command in ("-h", "--h", "--he", "--hel", "--help"):
            _help(list(_COMMANDS))
        _fail(None, f"invalid command {command!r}" if argv else "a command is required")
    func, _, options = _COMMANDS[command]
    values = {dest: default for dest, _, default, _ in options.values()}
    unknown = []
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        found = [name] if name in options else [n for n in options if n.startswith(name)]
        if len(found) > 1 and name[:2] == "--" != name:
            _fail(command, f"ambiguous option: {name} could match {', '.join(found)}")
        dest, kind, _, _ = options[found[0]] if len(found) == 1 else (None, bool, None, None)
        if len(found) != 1 or kind is bool and eq:
            unknown.append(token)
        elif dest == "help":
            _help([command])
        elif kind is bool:
            values[dest] = True
        else:
            text = text if eq else next(tokens, None)  # the next token, even one starting with "-"
            try:
                values[dest] = kind[kind.index(text)] if type(kind) is tuple else kind(text)
            except (TypeError, ValueError):
                _fail(command, f"argument {_spelling(found[0], kind)}: "
                      + ("expected one argument" if text is None else f"invalid value {text!r}"))
    missing = [name for name, (dest, _, _, _) in options.items() if values[dest] is ...]
    if missing or unknown:
        _fail(command, f"the following arguments are required: {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(unknown)}")
    return func, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    configure_from_env()
    func, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        output, ok = func(args)
    except (ValueError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = args.format or ("csv" if isinstance(output, list) else "json")
    return 0 if _print(_format(output, fmt)) and ok else 1


if __name__ == "__main__":
    sys.exit(main())
