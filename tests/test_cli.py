import csv
import io
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpf

from linesearch.cli import dumps_record, main, parse_record
from linesearch.optimal import SearchProblem, optimize

from _oracles import p_recurrence_mp


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
