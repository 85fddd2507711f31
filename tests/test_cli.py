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

from linesearch.cli import dumps_record, main, parse_record
from linesearch.optimal import SearchProblem, Strategy, optimal_n, optimize

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
    assert dumps_record({"v": [1.5, True]}) == (
        '{\n  "v": [\n    1.5000000000000000e+00,\n    true\n  ]\n}'
    )


# --- record schema ---------------------------------------------------------------

# The exact results and diagnostics keys each command prints, in order; no
# key repeats another's values (reach's terminal is its Lambda).
SCHEMA = {
    ("optimal", "--Lambda", "10"): (
        ["n", "a0", "cr", "turns", "terminal"],
        ["mode", "cr_error_bound", "log2_residual", "bracket_width"],
    ),
    ("reach", "--ratio", "7"): (["Lambda", "n", "a0", "turns"], ["mode"]),
    ("verify", "--Lambda", "10", "--grid-points", "1000"): (
        ["n", "a0", "cr", "worst_case_ratio", "grid_sweep_ratio", "interval_sups",
         "baseline_ratios", "checks"],
        ["mode", "cr_error_bound", "log2_residual"],
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
    assert rec["schema_version"] == "2" and rec["command"] == argv[0]
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
    assert rec["schema_version"] == "2"
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
    # M = m^m / (m-1)^(m-1) is about e m: no power of m is formed.
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


@pytest.mark.parametrize("argv", [["--log2-rho", "1000"], ["--Lambda", "10"]])
def test_a_closed_stdout_ends_quietly(argv):
    # As in `linesearch optimal ... | head -1`, with the reader gone before
    # the first write: the large record fails in print, the small one in the
    # flush.  Either way the exit is 1 with nothing on stderr.
    repo_root = Path(__file__).resolve().parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linesearch", "optimal", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={"PATH": "", "PYTHONPATH": str(repo_root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            cwd=repo_root,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


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
