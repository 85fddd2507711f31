import csv
import io
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from linesearch import cli
from linesearch.cli import dumps_record, main, parse_record
from linesearch.optimal import SearchProblem, Strategy, optimal_n, optimize
from linesearch.polynomials import x_of_theta
from linesearch.simulate import worst_case_ratio

from _oracles import exact_sup_ratio, p_recurrence_mp


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- serialization ------------------------------------------------------------


def test_dumps_parse_roundtrip():
    rec = {
        "schema_version": "1",
        "command": "demo",
        "inputs": {"x": 0.1, "n": 3, "flag": True, "none": None},
        "results": {"seq": [1.0, 2.5e-300, 3.0], "names": ["a", "b"]},
        "diagnostics": {},
    }
    back = parse_record(dumps_record(rec))
    assert back == rec


def test_floats_roundtrip_exactly():
    vals = [math.pi, 1.0 / 3.0, 7.059109650863786, 2.0**-1000, 1.7976931348623157e308]
    text = dumps_record({"v": vals})
    assert parse_record(text)["v"] == vals


def test_float_formatting_has_full_precision():
    text = dumps_record({"x": 2.0})
    assert "2.0000000000000000e+00" in text


def test_list_text_is_pinned():
    # All-float lists (with non-finite values, signed zeros, a subnormal and
    # repeats), a mixed int/float list, and a list with a bool, which is not
    # a number here and keeps the multi-line form.
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]
    assert dumps_record(floats) == (
        "[NaN, Infinity, -Infinity, -0.0000000000000000e+00, "
        "4.9406564584124654e-324, 1.0000000000000001e-01]"
    )
    repeats = [0.1, math.nan, 0.1, math.inf, 0.1, math.nan]
    assert dumps_record(repeats) == (
        "[1.0000000000000001e-01, NaN, 1.0000000000000001e-01, Infinity, "
        "1.0000000000000001e-01, NaN]"
    )
    assert dumps_record([0.0, -0.0, 0.0]) == (
        "[0.0000000000000000e+00, -0.0000000000000000e+00, 0.0000000000000000e+00]"
    )
    assert dumps_record([1, -2.5, 3]) == "[1, -2.5000000000000000e+00, 3]"
    # One float, alone or repeated; a list of one NaN object; ints and bools
    # among floats, where True == 1.0 and False == 0.0 would share a key.
    assert dumps_record([0.25]) == "[2.5000000000000000e-01]"
    assert dumps_record([-0.0]) == "[-0.0000000000000000e+00]"
    assert dumps_record([math.inf] * 3) == "[Infinity, Infinity, Infinity]"
    nan = math.nan
    assert dumps_record([nan, nan, -0.5]) == "[NaN, NaN, -5.0000000000000000e-01]"
    assert dumps_record([-0.0, -0.0]) == "[-0.0000000000000000e+00, -0.0000000000000000e+00]"
    assert dumps_record([1.0, 1, 0.0, 0]) == "[1.0000000000000000e+00, 1, 0.0000000000000000e+00, 0]"
    assert dumps_record([1.0, True]) == "[\n  1.0000000000000000e+00,\n  true\n]"
    assert dumps_record({"v": [1.5, True]}) == (
        '{\n  "v": [\n    1.5000000000000000e+00,\n    true\n  ]\n}'
    )


# --- record schema ---------------------------------------------------------------

# The exact results and diagnostics keys each command prints, in order; no
# key repeats another's values (reach's terminal is its Lambda).
SCHEMA = {
    ("optimal", "--Lambda", "10"): (
        ["n", "a0", "cr", "turns", "terminal"],
        ["mode", "cr_error_bound", "log2_residual", "theta", "bracket_width"],
    ),
    ("reach", "--ratio", "7"): (["Lambda", "n", "a0", "turns"], ["mode"]),
    ("verify", "--Lambda", "10", "--grid-points", "1000"): (
        ["n", "a0", "cr", "worst_case_ratio", "grid_sweep_ratio", "argmax_interval",
         "sup_spread_ulps", "baseline_ratios", "checks"],
        ["mode", "cr_error_bound", "log2_residual", "theta"],
    ),
    ("mray", "--m", "3", "--a", "0", "--b", "1"): (
        ["feasible", "b_interval", "worst_ratio", "bound_upper", "bound_lower", "gap_to_bound",
         "first_turns"],
        [],
    ),
    ("mray", "--m", "2", "--a", "0", "--b", "5"): (
        ["feasible", "b_interval", "bound_upper", "bound_lower"],
        ["error"],
    ),
}
SWEEP_HEADERS = {
    "optimal": ["rho", "n", "a0", "cr", "mode", "cr_error_bound", "log2_residual"],
    "verify": ["rho", "n", "a0", "cr", "worst_case_ratio", "grid_sweep_ratio", "passed"],
}


@pytest.mark.parametrize("argv", list(SCHEMA), ids=" ".join)
def test_record_keys_are_the_schema(capsys, argv):
    _, out, _ = run_cli(capsys, *argv)
    rec = parse_record(out)
    assert list(rec) == ["schema_version", "command", "inputs", "results", "diagnostics"]
    assert rec["schema_version"] == "3" and rec["command"] == argv[0]
    assert (list(rec["results"]), list(rec["diagnostics"])) == SCHEMA[argv]


@pytest.mark.parametrize("command", list(SWEEP_HEADERS))
def test_sweep_header_is_the_schema(capsys, command):
    code, out, _ = run_cli(capsys, command, "--sweep", "--rho-min", "2", "--rho-max", "100",
                           "--points", "2")
    assert code == 0
    assert out.splitlines()[0].split(",") == SWEEP_HEADERS[command]


def key_paths(obj: object, prefix: str = "") -> list[tuple[str, object]]:
    """(dotted key path, value) for each leaf of a parsed record, in order."""
    if not isinstance(obj, dict):
        return [(prefix, obj)]
    return [pair for k, v in obj.items() for pair in key_paths(v, f"{prefix}.{k}" if prefix else k)]


def parse_cell(text: str, like: object) -> object:
    """A CSV cell read back as the JSON value ``like`` has the type of."""
    if isinstance(like, bool):
        return {"true": True, "false": False}[text]
    if isinstance(like, list):
        return [parse_cell(t, v) for t, v in zip(text.split(";"), like, strict=True)] if like else []
    return type(like)(text)


FORMAT_ARGVS = [
    ("verify", "--Lambda", "10", "--grid-points", "1000"),
    ("reach", "--ratio", "7"),
    ("mray", "--m", "3", "--a", "0", "--b", "1"),
    ("mray", "--m", "2", "--a", "0", "--b", "5"),
    ("optimal", "--sweep", "--rho-min", "2", "--rho-max", "1e30", "--points", "4"),
    ("verify", "--sweep", "--rho-min", "2", "--rho-max", "1e30", "--points", "3",
     "--grid-points", "1000"),
]


@pytest.mark.parametrize("argv", FORMAT_ARGVS, ids=" ".join)
def test_csv_rows_are_the_json_flattened(capsys, argv):
    # A record defaults to JSON and a sweep to CSV; the other format prints
    # the same values, its header being the JSON key paths in order.
    sweep = "--sweep" in argv
    as_json = run_cli(capsys, *argv, "--format", "json")
    as_csv = run_cli(capsys, *argv, "--format", "csv")
    assert run_cli(capsys, *argv) == (as_csv if sweep else as_json)
    assert as_json[0] == as_csv[0] and as_json[2] == as_csv[2] == ""
    parsed = parse_record(as_json[1])
    rows = [key_paths(r) for r in (parsed if sweep else [parsed])]
    header, *lines = csv.reader(io.StringIO(as_csv[1]))
    assert header == [k for k, _ in rows[0]]
    assert len(lines) == len(rows)
    for line, pairs in zip(lines, rows):
        assert len(line) == len(pairs)
        assert [parse_cell(t, v) for t, (_, v) in zip(line, pairs)] == [v for _, v in pairs]


# --- optimal -------------------------------------------------------------------


def test_optimal_rho_ten(capsys):
    code, out, _ = run_cli(capsys, "optimal", "--lambda", "1", "--Lambda", "10", "--eps", "1e-9")
    assert code == 0
    rec = parse_record(out)
    assert rec["schema_version"] == "3"
    assert rec["command"] == "optimal"
    assert rec["results"]["n"] == 3
    assert rec["results"]["cr"] == pytest.approx(7.0592, abs=1e-4)
    assert rec["results"]["terminal"] == 10.0
    assert rec["results"]["turns"] == pytest.approx([3.0296, 6.149, 9.451], abs=2e-3)
    # Printed doubles reproduce the library's values exactly.
    rep = optimize(SearchProblem(1.0, 10.0, 1e-9))
    assert rec["results"]["a0"] == rep.a0
    assert rec["results"]["cr"] == rep.cr


def test_optimal_known_distance(capsys):
    code, out, _ = run_cli(capsys, "optimal", "--lambda", "1", "--Lambda", "1")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["cr"] == 3.0
    assert rec["results"]["turns"] == [] and rec["results"]["terminal"] == 1.0


def test_optimal_scaled(capsys):
    _, out1, _ = run_cli(capsys, "optimal", "--lambda", "1", "--Lambda", "10")
    _, out2, _ = run_cli(capsys, "optimal", "--lambda", "2", "--Lambda", "20")
    r1, r2 = parse_record(out1), parse_record(out2)
    assert r2["results"]["cr"] == r1["results"]["cr"]
    assert r2["results"]["turns"] == pytest.approx(
        [2.0 * t for t in r1["results"]["turns"]], rel=1e-12
    )


def test_optimal_log2_rho(capsys):
    code, out, _ = run_cli(capsys, "optimal", "--log2-rho", "1000")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["cr"] < 9.0
    assert rec["results"]["n"] == 999
    assert len(rec["results"]["turns"]) == 999


def test_optimal_in_limit_mode_at_the_top_of_double_range(capsys):
    # The limit point's top turns pass double range before the cap at Lambda.
    code, out, err = run_cli(capsys, "optimal", "--lambda", "5.239937487811896e+57",
                             "--Lambda", "1.7e308", "--eps", "1e-6")
    assert (code, err) == (0, "")
    rec = parse_record(out)
    res, diag = rec["results"], rec["diagnostics"]
    assert diag["mode"] == "limit_approx" and res["turns"][-1] == 1.7e308
    s = Strategy(turns=res["turns"], terminal=res["terminal"], lambda_=rec["inputs"]["lambda"])
    s.validate()
    sup = exact_sup_ratio(s.turns, s.terminal, s.lambda_)
    cr = res["cr"]
    assert sup <= Fraction(cr) + Fraction(diag["cr_error_bound"]) + 8 * Fraction(math.ulp(cr))


@pytest.mark.parametrize(
    "argv",
    [
        # n = 3 at rho = 9 (1 - 1e-12): a0 is 2.7e-13 below alpha_4 = 3, and
        # the uncapped last turn is 2 700 ulps above Lambda.
        ("verify", "--lambda", "1", "--Lambda", "8.999999999991"),
        ("optimal", "--lambda", "1", "--Lambda", "8.999999999991"),
        # a0 is 5e-15 below alpha_4 = 3, so p_3(a0) < p_2(a0): the reach
        # peaks at n = 2, above the 8.999999999999844 that n = 3 reaches.
        ("reach", "--ratio", repr(7.0 - 1e-14)),
    ],
)
def test_a_bracket_edge_gives_a_strategy_inside_Lambda(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    rec = parse_record(out)
    res = rec["results"]
    if argv[0] == "verify":
        assert res["n"] == 3 and all(res["checks"].values())
        return
    if argv[0] == "reach":
        Lam = res["Lambda"]
        assert (res["n"], Lam) == (2, 8.999999999999929)
    else:
        Lam = rec["inputs"]["Lambda"]
        assert res["n"] == 3 and res["turns"][-1] == Lam
    Strategy(turns=res["turns"], terminal=Lam, lambda_=1.0).validate()


@pytest.mark.parametrize(
    "argv",
    [
        # log2 Lambda - log2 lambda and log2(Lambda/lambda) fall on either
        # side of optimal_n's fuzz below the lower edge of bracket 7 (and of
        # bracket 4 at lambda = 1e-300); each input is served all the same.
        ("optimal", "--lambda", "3.7", "--Lambda", "634.0044318748342"),
        ("verify", "--lambda", "1e-300", "--Lambda", "1.8997607093837663e-299"),
    ],
)
def test_a_rho_in_the_fuzz_below_a_bracket_edge_is_served(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    rec = parse_record(out)
    rho = rec["inputs"]["Lambda"] / rec["inputs"]["lambda"]
    assert rec["results"]["n"] == optimal_n(rho)
    if argv[0] == "verify":
        assert all(rec["results"]["checks"].values())


def test_optimal_invalid_flags(capsys):
    code, _, err = run_cli(capsys, "optimal", "--lambda", "2", "--Lambda", "1")
    assert code == 1
    assert "error" in err.lower()
    code, _, err = run_cli(capsys, "optimal", "--lambda", "1")
    assert code == 1


def test_optimal_csv_format(capsys):
    code, out, _ = run_cli(capsys, "optimal", "--Lambda", "10", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["results.n"] == "3"
    assert float(cols["results.cr"]) == pytest.approx(7.0592, abs=1e-4)


def test_optimal_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "optimal", "--sweep", "--rho-min", "1", "--rho-max", "1000", "--points", "7"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["rho", "n", "a0", "cr"]
    assert len(lines) == 8
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[3]) == 3.0


@pytest.mark.parametrize("command", ["optimal", "verify"])
def test_sweep_rows_print_the_rho_solved(capsys, command):
    # At lambda = 0.1 the grid's rho = 3 asks for Lambda = 0.30000000000000004,
    # so the rho solved is Lambda/lambda = 3.0000000000000004.
    code, out, err = run_cli(capsys, command, "--sweep", "--rho-min", "3", "--rho-max", "3",
                             "--points", "1", "--lambda", "0.1")
    assert code == 0, err
    (row,) = csv.DictReader(io.StringIO(out))
    Lam = 3.0 * 0.1
    assert float(row["rho"]) == Lam / 0.1 == 3.0000000000000004
    _, out, _ = run_cli(capsys, "optimal", "--lambda", "0.1", "--Lambda", repr(Lam))
    results = parse_record(out)["results"]
    assert (int(row["n"]), float(row["a0"]), float(row["cr"])) == (
        results["n"], results["a0"], results["cr"])


def test_optimal_sweep_needs_range(capsys):
    code, _, err = run_cli(capsys, "optimal", "--sweep")
    assert code == 1 and "rho-min" in err


# --- reach ----------------------------------------------------------------------


def test_reach_five(capsys):
    code, out, _ = run_cli(capsys, "reach", "--ratio", "5", "--lambda", "1")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["Lambda"] == 2.0
    assert rec["results"]["n"] == 1


def test_reach_seven(capsys):
    code, out, _ = run_cli(capsys, "reach", "--ratio", "7", "--lambda", "1")
    rec = parse_record(out)
    assert rec["results"]["Lambda"] == pytest.approx(9.0, abs=1e-12)
    assert rec["results"]["n"] == 3


def test_reach_unbounded(capsys):
    code, out, err = run_cli(capsys, "reach", "--ratio", "9")
    assert code == 1
    assert "unbounded" in err


def test_reach_nan_ratio_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "reach", "--ratio", "nan")
    assert code == 1 and out == ""
    assert err == "error: ratio budget must be a number, got nan\n"


# --- verify ---------------------------------------------------------------------


def test_verify_rho_ten(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lambda", "1", "--Lambda", "10")
    rec = parse_record(out)
    assert code == 0
    checks = rec["results"]["checks"]
    assert all(checks.values())
    assert rec["results"]["worst_case_ratio"] == pytest.approx(rec["results"]["cr"], rel=1e-12)
    assert set(rec["results"]["baseline_ratios"]) == {
        "power_of_two", "f_infinity", "los_sqrt", "single_shot"
    }


def test_verify_small_rho(capsys):
    code, out, _ = run_cli(capsys, "verify", "--Lambda", "1.5")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["cr"] == pytest.approx(4.0, rel=1e-12)


def test_verify_large_rho_band(capsys):
    code, out, _ = run_cli(capsys, "verify", "--Lambda", str(2.0**20), "--grid-points", "20000")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["cr"] < 9.0


def test_verify_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--sweep", "--rho-min", "2", "--rho-max", "100",
        "--points", "3", "--grid-points", "5000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[-1] == "passed"
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_log2_rho_1000(capsys):
    # n = 999: a double a0 cannot carry the terminal interval there; theta can.
    code, out, _ = run_cli(capsys, "verify", "--log2-rho", "1000")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["n"] == 999
    assert rec["results"]["checks"]["equalization"] is True
    assert rec["results"]["checks"]["cr_consistency"] is True


def test_verify_sweep_to_double_range(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--sweep", "--rho-min", "2", "--rho-max", "1e300", "--points", "50",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 51
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_tight_eps_at_large_rho(capsys):
    code, out, _ = run_cli(capsys, "verify", "--Lambda", "1e200", "--eps", "1e-12")
    rec = parse_record(out)
    assert code == 0
    assert rec["diagnostics"]["mode"] == "numeric"
    assert rec["results"]["worst_case_ratio"] - rec["results"]["cr"] <= 1e-12


@pytest.mark.parametrize("Lam", ["1e300", "1.7976931348623157e308"])
def test_verify_in_limit_mode_checks_cr_against_its_bound(capsys, Lam):
    # At eps = 1e-6 these rho take the limit approximation, whose sup may
    # differ from cr by up to cr_error_bound.
    code, out, err = run_cli(capsys, "verify", "--Lambda", Lam, "--eps", "1e-6")
    assert code == 0, err
    rec = parse_record(out)
    results, diag = rec["results"], rec["diagnostics"]
    assert diag["mode"] == "limit_approx"
    checks = results["checks"]
    assert checks["cr_consistency"] and checks["grid_within_tolerance"]
    assert checks["dominates_baselines"]
    cr = results["cr"]
    assert abs(results["worst_case_ratio"] - cr) <= diag["cr_error_bound"] + 1e-9 * cr


@pytest.mark.parametrize("argv, mode", [
    (("--Lambda", "10"), "exact"),
    (("--log2-rho", "1000"), "numeric"),
    (("--Lambda", "1e300", "--eps", "1e-6"), "limit_approx"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_verify_prints_the_spread_and_argmax_the_library_measures(capsys, argv, mode):
    # Limit mode sets equalization without checking it; the spread printed
    # is the measured one in every mode.
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 0, err
    rec = parse_record(out)
    inputs, results = rec["inputs"], rec["results"]
    assert rec["diagnostics"]["mode"] == mode
    rep = optimize(SearchProblem(inputs["lambda"], inputs["Lambda"], inputs["eps"]))
    report = worst_case_ratio(rep.strategy, inputs["lambda"], inputs["Lambda"])
    sups = report.interval_sups
    spread = results["sup_spread_ulps"]
    assert math.isfinite(spread) and spread >= 0.0
    assert spread == (max(sups) - min(sups)) / math.ulp(rep.cr)
    assert results["argmax_interval"] == report.argmax_interval
    assert sups[results["argmax_interval"]] == results["worst_case_ratio"]


def test_a_verify_record_does_not_grow_with_n(capsys):
    # n = 3 and n = 999 print the same lines; no list of n values is among them.
    small, large = (run_cli(capsys, "verify", *argv)[1]
                    for argv in (("--Lambda", "10"), ("--log2-rho", "1000")))
    assert parse_record(large)["results"]["n"] == 999
    assert len(small.splitlines()) == len(large.splitlines())
    assert max(len(small.encode()), len(large.encode())) < 2048


@pytest.mark.parametrize("log2_rho", ["0", "1.5", "10", "1000"])
@pytest.mark.parametrize("eps", ["1e-9", "1e-3"])
def test_theta_is_printed_and_gives_a0(capsys, log2_rho, eps):
    modes = set()
    for command in ("optimal", "verify"):
        code, out, err = run_cli(capsys, command, "--log2-rho", log2_rho, "--eps", eps)
        assert code == 0, err
        rec = parse_record(out)
        theta, a0 = rec["diagnostics"]["theta"], rec["results"]["a0"]
        assert math.isfinite(theta)
        assert abs(x_of_theta(theta) - a0) <= 4 * math.ulp(a0)
        modes.add(rec["diagnostics"]["mode"])
    assert len(modes) == 1


@pytest.mark.parametrize("bound", [("--Lambda", "1e308"), ("--log2-rho", "1023.5")])
def test_verify_at_the_top_of_double_range_prints_a_record(capsys, bound):
    # Twice the sum of the turns overflows here; the simulator prices in
    # units of a power of two instead, so every check passes.  Only the
    # single-shot baseline stays inf: 2 rho + 1 really exceeds a double.
    code, out, err = run_cli(capsys, "verify", *bound, "--grid-points", "1000")
    assert code == 0, err
    rec = parse_record(out)
    assert rec["command"] == "verify"
    assert rec["results"]["n"] >= 1020
    ratio = rec["results"]["worst_case_ratio"]
    assert math.isfinite(ratio)
    assert abs(ratio - rec["results"]["cr"]) <= rec["diagnostics"]["cr_error_bound"]
    baselines = rec["results"]["baseline_ratios"]
    assert set(baselines) == {"power_of_two", "f_infinity", "los_sqrt", "single_shot"}
    assert baselines["single_shot"] == math.inf
    assert all(rec["results"]["checks"].values())


@pytest.mark.parametrize("lam", ["2.2250738585072014e-308", "3e-308", "1e-307"])
def test_verify_at_the_smallest_lambda_and_the_top_of_double_range(capsys, lam):
    # rho is near 2^2046 (n = 2044 at lam = 2^-1022).  Only the sums whose
    # double overflows are priced in units of a power of two, so lam and the
    # early turns stay normal and every check passes.
    code, out, err = run_cli(capsys, "verify", "--lambda", lam, "--Lambda", "1.7e308")
    assert code == 0, err
    rec = parse_record(out)
    assert rec["results"]["n"] >= 2040
    assert math.isfinite(rec["results"]["worst_case_ratio"])
    baselines = rec["results"]["baseline_ratios"]
    assert all(math.isfinite(baselines[name]) for name in ("power_of_two", "f_infinity", "los_sqrt"))
    assert baselines["single_shot"] == math.inf
    assert all(rec["results"]["checks"].values())


@pytest.mark.parametrize("log2_rho", ["1023.9", "1023.99"])
def test_log2_rho_up_to_double_range_prints_a_record(capsys, log2_rho):
    # Lambda = 2^log2_rho is finite, so both commands print a record.
    code, out, err = run_cli(capsys, "optimal", "--log2-rho", log2_rho)
    assert code == 0, err
    assert parse_record(out)["results"]["n"] == 1022
    code, out, err = run_cli(capsys, "verify", "--log2-rho", log2_rho, "--grid-points", "1000")
    assert code == 0, err
    rec = parse_record(out)
    assert rec["inputs"]["Lambda"] == 2.0 ** float(log2_rho)
    assert all(rec["results"]["checks"].values())


@pytest.mark.parametrize("command", ["optimal", "verify"])
def test_log2_rho_past_double_range_is_one_error_line(capsys, command):
    code, out, err = run_cli(capsys, command, "--log2-rho", "1024")
    assert code == 1 and out == ""
    assert err == "error: Lambda exceeds double range; turn distances cannot be materialized\n"


@pytest.mark.parametrize("command", ["optimal", "verify"])
def test_a_nan_log2_rho_is_refused_by_name(capsys, command):
    code, out, err = run_cli(capsys, command, "--log2-rho", "nan")
    assert code == 1 and out == ""
    assert err == "error: log2_rho must be non-negative, got nan\n"


def log2_residual_mp(n: int, a0: float, lam: float, Lam: float) -> mpf:
    """|log2 p_n(a0) - log2(Lambda/lambda)| in 50-digit arithmetic."""
    with mp.workdps(50):
        return abs(mp.log(p_recurrence_mp(n, a0), 2) - mp.log(mpf(Lam) / mpf(lam), 2))


def assert_log2_residual_exact(rec: dict) -> None:
    inputs, results = rec["inputs"], rec["results"]
    got = rec["diagnostics"]["log2_residual"]
    want = log2_residual_mp(results["n"], results["a0"], inputs["lambda"], inputs["Lambda"])
    assert math.isfinite(got) and abs(mpf(got) - want) <= 1e-12, (got, want)


@pytest.mark.parametrize("eps,mode", [
    ("1e-15", "numeric"), ("1e-9", "numeric"), ("1e-3", "limit_approx"),
])
def test_rho_past_double_range_has_a_finite_log2_residual_in_every_mode(capsys, eps, mode):
    # Lambda = 2^1030 lambda is finite but rho = 2^1030 is not, and neither is
    # p_n(a0) near it; their ratio is, and its log2 is what the record prints.
    for lam in ("0.01", "1e-10"):
        code, out, err = run_cli(capsys, "optimal", "--log2-rho", "1030", "--lambda", lam,
                                 "--eps", eps)
        assert code == 0, err
        rec = parse_record(out)
        assert rec["diagnostics"]["mode"] == mode
        assert_log2_residual_exact(rec)


@pytest.mark.parametrize("log2_rho", ["0", "10", "1000"])
def test_log2_residual_is_exact_at_any_scale(capsys, log2_rho):
    code, out, err = run_cli(capsys, "optimal", "--log2-rho", log2_rho)
    assert code == 0, err
    assert_log2_residual_exact(parse_record(out))


def test_optimal_sweep_log2_residual_is_exact_on_every_row(capsys):
    code, out, err = run_cli(
        capsys, "optimal", "--sweep", "--rho-min", "1", "--rho-max", "1e300", "--points", "40"
    )
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 40
    for row in rows:
        n, a0, rho = int(row["n"]), float(row["a0"]), float(row["rho"])
        got = float(row["log2_residual"])
        want = log2_residual_mp(n, a0, 1.0, rho)
        assert math.isfinite(got) and abs(mpf(got) - want) <= 1e-12, (row, want)


@pytest.mark.parametrize("command", ["optimal", "verify"])
@pytest.mark.parametrize("argv, message", [
    (("--Lambda", "10", "--log2-rho", "5"), "give --Lambda or --log2-rho, not both"),
    (("--sweep", "--rho-min", "2", "--rho-max", "10", "--Lambda", "10"),
     "sweep mode reads rho from --rho-min and --rho-max, not --Lambda or --log2-rho"),
    (("--sweep", "--rho-min", "2", "--rho-max", "10", "--log2-rho", "3"),
     "sweep mode reads rho from --rho-min and --rho-max, not --Lambda or --log2-rho"),
    (("--sweep", "--rho-min", "5", "--rho-max", "2"), "need 1 <= rho-min <= rho-max"),
    (("--sweep", "--rho-min", "2", "--rho-max", "10", "--points", "0"),
     "need at least one sweep point"),
])
def test_conflicting_problem_options_are_one_error_line(capsys, command, argv, message):
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_verify_sweep_to_the_top_of_double_range(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--sweep", "--rho-min", "1e300", "--rho-max", "1.7e308",
        "--points", "6", "--grid-points", "1000",
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.endswith("true") for line in lines[1:])


# --- mray -----------------------------------------------------------------------


def test_mray_power_of_two(capsys):
    code, out, _ = run_cli(capsys, "mray", "--m", "2", "--a", "0", "--b", "1")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["feasible"] is True
    assert rec["results"]["worst_ratio"] == pytest.approx(9.0, abs=1e-9)
    assert rec["results"]["bound_upper"] == 9.0


def test_mray_three_rays(capsys):
    code, out, _ = run_cli(capsys, "mray", "--m", "3", "--a", "0", "--b", "1")
    rec = parse_record(out)
    assert code == 0
    assert rec["results"]["bound_upper"] == pytest.approx(14.5, rel=1e-12)


@pytest.mark.parametrize("m", ["3", "4"])
def test_mray_worst_ratio_is_never_above_its_bound(capsys, m):
    code, out, _ = run_cli(capsys, "mray", "--m", m, "--a", "0", "--b", "1")
    results = parse_record(out)["results"]
    assert code == 0
    assert results["gap_to_bound"] >= 0.0
    if m == "3":
        assert results["worst_ratio"] == 14.5


def test_mray_infeasible(capsys):
    code, out, _ = run_cli(capsys, "mray", "--m", "2", "--a", "0", "--b", "5")
    rec = parse_record(out)
    assert code == 1
    assert rec["results"]["feasible"] is False
    assert rec["results"]["b_interval"] == [1.0, 4.0]


@pytest.mark.parametrize(
    "ab, message",
    [
        (("nan", "1"), "slope a must be finite, got nan"),
        (("inf", "1"), "slope a must be finite, got inf"),
        (("0", "nan"), "offset b must be finite, got nan"),
        (("0", "-inf"), "offset b must be finite, got -inf"),
    ],
)
def test_mray_non_finite_parameters_are_one_error_line(capsys, ab, message):
    code, out, err = run_cli(capsys, "mray", "--m", "2", f"--a={ab[0]}", f"--b={ab[1]}")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("m", [144, 200, 300_000])
def test_mray_many_rays_print_a_record_or_one_error_line(capsys, m):
    # M = m^m / (m-1)^(m-1) is about e m.  m = 300 000 stays within the time
    # limit only because the default horizon 200 < m is refused before any
    # pricing; pricing at that m builds powers of m (ROADMAP item 16).
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mray", "--m", str(m), "--a", "0", "--b", "1")
    assert time.perf_counter() - start < 0.5
    if m < 300_000:
        assert code == 0, err
        rec = parse_record(out)
        assert rec["results"]["feasible"] is True
        assert rec["results"]["bound_upper"] == pytest.approx(1.0 + 2.0 * math.e * (m - 0.5), rel=1e-4)
        assert rec["results"]["worst_ratio"] <= rec["results"]["bound_upper"]
    else:
        assert code == 1 and out == ""
        assert err == f"error: horizon must be at least m={m}, got 200\n"


# --- argument parsing ----------------------------------------------------------

# Each command's required options, and every dest with its default.
REQUIRED = {"optimal": [], "reach": ["--ratio", "7"], "verify": [],
            "mray": ["--m", "3", "--a", "0", "--b", "1"]}
PROBLEM_DEFAULTS = {"help": False, "lambda_": 1.0, "format": None, "Lambda": None, "log2_rho": None,
                    "eps": 1e-9, "sweep": False, "rho_min": None, "rho_max": None}
DEFAULTS = {
    "optimal": {**PROBLEM_DEFAULTS, "points": 50},
    "reach": {"help": False, "lambda_": 1.0, "format": None, "ratio": 7.0},
    "verify": {**PROBLEM_DEFAULTS, "points": 20, "grid_points": 100_000},
    "mray": {"help": False, "lambda_": 1.0, "format": None, "m": 3, "a": 0.0, "b": 1.0, "horizon": 200},
}
# Every option that takes a value: (command, name, dest, text, value).
VALUE_OPTIONS = [
    *((c, "--lambda", "lambda_", "2.5", 2.5) for c in REQUIRED),
    *((c, "--format", "format", "csv", "csv") for c in REQUIRED),
    *((c, name, dest, "3.5", 3.5) for c in ("optimal", "verify") for name, dest in (
        ("--Lambda", "Lambda"), ("--log2-rho", "log2_rho"), ("--eps", "eps"),
        ("--rho-min", "rho_min"), ("--rho-max", "rho_max"))),
    ("optimal", "--points", "points", "7", 7),
    ("verify", "--points", "points", "7", 7),
    ("verify", "--grid-points", "grid_points", "1000", 1000),
    ("reach", "--ratio", "ratio", "5", 5.0),
    ("mray", "--m", "m", "4", 4),
    ("mray", "--a", "a", "-0.5", -0.5),
    ("mray", "--b", "b", "2", 2.0),
    ("mray", "--horizon", "horizon", "30", 30),
]


def parse_values(*argv):
    _, args = cli._parse(list(argv))
    return vars(args)


@pytest.mark.parametrize("command", list(REQUIRED))
def test_each_command_parses_to_its_defaults(command):
    func, args = cli._parse([command, *REQUIRED[command]])
    assert func.__name__ == f"_cmd_{command}"
    got = vars(args)
    assert got == DEFAULTS[command] and all(type(got[k]) is type(v) for k, v in DEFAULTS[command].items())


@pytest.mark.parametrize("command, name, dest, text, value", VALUE_OPTIONS,
                         ids=[f"{c} {n}" for c, n, *_ in VALUE_OPTIONS])
def test_every_option_takes_its_value_in_both_forms(command, name, dest, text, value):
    for argv in ([*REQUIRED[command], name, text], [*REQUIRED[command], f"{name}={text}"]):
        got = parse_values(command, *argv)
        assert got == {**DEFAULTS[command], dest: value} and type(got[dest]) is type(value), argv


@pytest.mark.parametrize("argv, dest, value", [
    (("optimal", "--Lam", "10"), "Lambda", 10.0),
    (("optimal", "--lam=2"), "lambda_", 2.0),
    (("optimal", "--lo", "5"), "log2_rho", 5.0),
    (("verify", "--grid", "10"), "grid_points", 10),
    (("verify", "--rho-mi", "2"), "rho_min", 2.0),
    (("verify", "--sw"), "sweep", True),
    (("reach", "--r", "7"), "ratio", 7.0),
    (("mray", *REQUIRED["mray"], "--ho", "9"), "horizon", 9),
])
def test_a_unique_prefix_names_its_option(argv, dest, value):
    assert parse_values(*argv)[dest] == value


def test_a_repeated_option_keeps_its_last_value():
    got = parse_values("optimal", "--Lambda", "10", "--format", "json", "--Lambda=100", "--format", "csv")
    assert (got["Lambda"], got["format"]) == (100.0, "csv")


def test_a_value_may_start_with_a_dash():
    assert parse_values("mray", "--m", "3", "--a", "-0.5", "--b", "1")["a"] == -0.5
    assert parse_values("mray", "--m", "-3", "--a", "0", "--b", "1")["m"] == -3
    assert math.isinf(parse_values("optimal", "--Lambda", "-inf")["Lambda"])


def test_sweep_takes_no_value(capsys):
    assert parse_values("optimal", "--sweep", "--rho-min", "2")["sweep"] is True
    code, out, err = run_cli(capsys, "optimal", "--sweep", "--rho-min", "2", "--rho-max", "10",
                             "--points", "2")
    assert code == 0 and len(out.splitlines()) == 3
    for argv in (["optimal", "--sweep=1"], ["optimal", "--sweep", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_a_dash_value_reaches_the_problems_own_check(capsys):
    # argparse stopped "--Lambda -inf" as a usage error (exit 2); the value
    # now reaches SearchProblem, which refuses it with one error line.
    code, out, err = run_cli(capsys, "optimal", "--Lambda", "-inf")
    assert code == 1 and out == ""
    assert err == "error: Lambda must satisfy lambda <= Lambda < inf, got -inf\n"


@pytest.mark.parametrize("argv, reason", [
    ([], "a command is required"),
    (["solve"], "invalid command 'solve'"),
    (["--Lambda", "10"], "invalid command '--Lambda'"),
    (["optimal", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["optimal", "--Lambda", "10", "extra"], "unrecognized arguments: extra"),
    (["reach", "--ratio", "7", "--Lambda", "10"], "unrecognized arguments: --Lambda 10"),
    (["optimal", "--l", "2"], "ambiguous option: --l could match --lambda, --log2-rho"),
    (["verify", "--rho", "2"], "ambiguous option: --rho could match --rho-min, --rho-max"),
    (["mray", "--h", "5"], "ambiguous option: --h could match --help, --horizon"),
    (["optimal", "--Lambda"], "argument --Lambda FLOAT: expected one argument"),
    (["optimal", "--Lambda", "ten"], "argument --Lambda FLOAT: invalid value 'ten'"),
    (["optimal", "--Lambda="], "argument --Lambda FLOAT: invalid value ''"),
    (["verify", "--grid-points", "1.5"], "argument --grid-points INT: invalid value '1.5'"),
    (["mray", "--m", "3.0", "--a", "0", "--b", "1"], "argument --m INT: invalid value '3.0'"),
    (["optimal", "--format", "xml"], "argument --format {json,csv}: invalid value 'xml'"),
    (["reach"], "the following arguments are required: --ratio"),
    (["mray", "--a", "0"], "the following arguments are required: --m, --b"),
])
def test_a_usage_error_prints_the_usage_and_exits_2(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: linesearch ") and error == f"linesearch: error: {reason}"


# Every option of each command, as the help must name it.
HELP_OPTIONS = {
    "optimal": ["--lambda", "--format", "--Lambda", "--log2-rho", "--eps", "--sweep", "--rho-min",
                "--rho-max", "--points"],
    "reach": ["--lambda", "--format", "--ratio"],
    "verify": ["--lambda", "--format", "--Lambda", "--log2-rho", "--eps", "--sweep", "--rho-min",
               "--rho-max", "--points", "--grid-points"],
    "mray": ["--lambda", "--format", "--m", "--a", "--b", "--horizon"],
}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], *([c, h] for c in HELP_OPTIONS
                                                                   for h in ("-h", "--help"))],
                         ids=" ".join)
def test_help_exits_0_and_names_every_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--Lambda", "ten"])  # help is obeyed where it is read
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    commands = [argv[0]] if argv[0] in HELP_OPTIONS else list(HELP_OPTIONS)
    for command in commands:
        assert f"usage: linesearch {command} " in out
        names = {line.split()[0] for line in out.splitlines() if line.startswith("  -")}
        assert {"-h", "--help", *HELP_OPTIONS[command]} <= names
    assert ("(default 50)" in out) == ("optimal" in commands)
    assert ("(default 100000)" in out) == ("verify" in commands)


def test_a_grid_past_two_to_the_53_points_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "verify", "--Lambda", "10", "--grid-points", str(10**19))
    assert code == 1 and out == ""
    assert err == f"error: a grid has at most 2**53 points, got {10**19}\n"


# --- process-level behaviour -------------------------------------------------------


def test_module_entry_point_and_logging():
    repo_root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "linesearch", "optimal", "--Lambda", "10"],
        capture_output=True,
        text=True,
        env={
            "PATH": "",
            "LINESEARCH_LOG": "debug",
            "PYTHONPATH": str(repo_root / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        cwd=repo_root,
    )
    assert proc.returncode == 0
    rec = parse_record(proc.stdout)  # stdout stays clean JSON
    assert rec["results"]["n"] == 3
    assert "optimize" in proc.stderr  # diagnostics went to stderr


def _into_a_closed_pipe(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of ``linesearch *argv`` whose stdout reader has gone."""
    repo_root = Path(__file__).resolve().parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linesearch", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={"PATH": "", "PYTHONPATH": str(repo_root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            cwd=repo_root,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [["--log2-rho", "1000"], ["--Lambda", "10"]])
def test_a_closed_stdout_ends_quietly(argv):
    # As in `linesearch optimal ... | head -1`, with the reader gone before
    # the first write: the large record fails in print, the small one in the
    # flush.  Either way the exit is 1 with nothing on stderr.
    assert _into_a_closed_pipe(["optimal", *argv]) == (1, "")


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]], ids=" ".join)
def test_help_to_a_closed_stdout_ends_as_a_record_does(argv):
    code, err = _into_a_closed_pipe(argv)
    assert (code, err) == (_into_a_closed_pipe(["optimal", "--Lambda", "10"])[0], "")


# Each verify reads the baseline tables of its lambda; the warm-up below
# grows, shrinks past and evicts them first.
CACHE_ARGVS = [
    ["verify", "--Lambda", "1e20"],
    ["verify", "--lambda", "3.7", "--Lambda", "1e100", "--grid-points", "1000"],
    ["verify", "--lambda", "1e-300", "--Lambda", "1e308", "--grid-points", "1000"],
    ["verify", "--sweep", "--lambda", "2", "--rho-min", "2", "--rho-max", "1e50", "--points", "5"],
]


def test_verify_prints_the_same_cold_and_warm(capsys):
    from linesearch import simulate

    repo_root = Path(__file__).resolve().parent.parent
    cold = []
    for argv in CACHE_ARGVS:
        proc = subprocess.run(
            [sys.executable, "-m", "linesearch", *argv],
            capture_output=True,
            text=True,
            env={"PATH": "", "PYTHONPATH": str(repo_root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            cwd=repo_root,
        )
        cold.append((proc.returncode, proc.stdout, proc.stderr))
    for lam in (1.0, 3.7, 1e-300, 2.0):
        for Lam in (lam * 10.0, lam * 1e250, lam * 5.0):
            simulate.baseline_ratios(lam, Lam)
    for k in range(simulate._TABLE_CACHE_SIZE):
        simulate.baseline_ratios(1.0 + k / 7.0, 1e30)
    run_cli(capsys, "verify", "--Lambda", "1e300")
    pairs = list(zip(CACHE_ARGVS, cold))
    for argv, want in pairs + pairs[::-1]:
        assert run_cli(capsys, *argv) == want, argv


def test_runtime_never_imports_numpy():
    repo_root = Path(__file__).resolve().parent.parent
    script = """
import contextlib, io, sys
from linesearch.cli import main
for argv in (
    ["optimal", "--Lambda", "10"],
    ["optimal", "--sweep", "--rho-min", "1", "--rho-max", "1e300", "--points", "5"],
    ["reach", "--ratio", "7"],
    ["verify", "--Lambda", "1e6"],
    ["mray", "--m", "3", "--a", "0", "--b", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "", "PYTHONPATH": str(repo_root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def readme_cli_examples() -> list[list[str]]:
    """The ``linesearch ...`` lines of the README's CLI block, comments removed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("linesearch ")]


def test_readme_shows_every_command():
    assert {argv[0] for argv in readme_cli_examples()} == {"optimal", "reach", "verify", "mray"}


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_run(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "", err
    if out.startswith("{"):
        assert parse_record(out)["command"] == argv[0]
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)
