"""What a launch imports and how the package's records and diagnostics behave.

Each check runs in a fresh interpreter, so what it sees in ``sys.modules``
is what that command alone pulled in.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str, log: str | None = None) -> subprocess.CompletedProcess:
    env = {"PATH": "", "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if log is not None:
        env["LINESEARCH_LOG"] = log
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_after(argv: list[str]) -> set[str]:
    """The modules in ``sys.modules`` after ``cli.main(argv)`` in a fresh process."""
    script = f"""
import contextlib, io, sys
from linesearch import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print(" ".join(sorted(sys.modules)))
"""
    return set(run_python("-c", script).stdout.split())


def test_import_loads_no_submodule():
    script = "import sys, linesearch; print([m for m in sys.modules if m.startswith('linesearch.')])"
    assert run_python("-c", script).stdout.strip() == "[]"


def test_optimal_skips_unused_modules():
    for argv in (["optimal", "--Lambda", "1e6"], ["optimal", "--log2-rho", "1000"]):
        loaded = loaded_after(argv)
        assert "linesearch.optimal" in loaded
        unused = {"dataclasses", "logging", "inspect", "linesearch.mrays", "linesearch.reach",
                  "linesearch.simulate"}
        assert not unused & loaded, (argv, unused & loaded)


def test_verify_loads_simulate_only():
    loaded = loaded_after(["verify", "--Lambda", "1e6"])
    assert "linesearch.simulate" in loaded
    assert not {"linesearch.reach", "linesearch.mrays", "dataclasses", "logging"} & loaded


def test_mray_skips_simulate():
    loaded = loaded_after(["mray", "--m", "3", "--a", "0", "--b", "1"])
    assert "linesearch.mrays" in loaded
    assert not {"linesearch.simulate", "linesearch.reach"} & loaded


def test_every_public_name_resolves():
    script = """
import linesearch
missing = [n for n in linesearch.__all__ if getattr(linesearch, n, None) is None]
assert not missing, missing
assert set(linesearch.__all__) <= set(dir(linesearch))
from linesearch import *  # noqa: F403
try:
    linesearch.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown names must raise AttributeError")
assert linesearch.__all__ == sorted(linesearch.__all__)
from linesearch import cli, mrays, reach
print(len(linesearch.__all__), cli.main.__module__, mrays.__name__, reach.__name__)
"""
    assert run_python("-c", script).stdout.split() == [
        "16", "linesearch.cli", "linesearch.mrays", "linesearch.reach"
    ]


def test_names_outside_the_public_surface_import_from_their_submodules():
    import linesearch

    moved = {
        "mrays": ("ALPHA_TABLE", "breakpoint_ratios", "feasible_b_interval",
                  "mray_breakpoint_ratios", "multi_p", "verify_alpha_table"),
        "optimal": ("expand_sequence", "optimal_n"),
        "polynomials": ("PolyEval", "alpha", "eval_p"),
        "simulate": ("baselines",),
        "solve": ("BracketError", "SolveResult", "cr_error_bound_limit", "log2_residual",
                  "optimal_n", "solve_beyond_alpha", "solve_exact", "solve_limit",
                  "solve_numeric"),
    }
    for module, names in moved.items():
        submodule = getattr(linesearch, module)
        for name in names:
            assert name not in linesearch.__all__ and hasattr(submodule, name), (module, name)
    # solve defines it; optimal re-exports the same function.
    assert linesearch.optimal.optimal_n is linesearch.solve.optimal_n


def test_bench_tracing_targets_resolve():
    # bench/run.py --trace wraps these attributes by name; a rename in the
    # package would otherwise leave a traced run silently unwrapped.
    import importlib
    import importlib.util

    path = REPO_ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for _, modules, _ in tracing.TARGETS.values() for site in modules]
    for module, attr in sites:
        assert callable(getattr(importlib.import_module(f"linesearch.{module}"), attr)), (module, attr)


def test_submodules_import_on_attribute_access():
    script = """
import sys, linesearch
assert "linesearch.simulate" not in sys.modules
print(linesearch.simulate.worst_case_ratio.__module__, linesearch.cli.__name__)
assert "linesearch.reach" not in sys.modules
"""
    assert run_python("-c", script).stdout.split() == ["linesearch.simulate", "linesearch.cli"]


def test_records_are_immutable_values():
    script = """
import copy, math, pickle
from linesearch import (
    RatioReport, RayFamilyParams, ReachQuery, ReachResult, SearchProblem, Strategy,
    StrategyReport, maximal_reach, optimize, worst_case_ratio,
)
from linesearch.optimal import solve_problem
from linesearch.polynomials import PolyEval
from linesearch.solve import SolveResult
def twice(make):
    return make(), make()
report = optimize(SearchProblem(1.0, 1e6))
turnless = solve_problem(SearchProblem(1.0, 1e6))
pairs = [
    twice(lambda: PolyEval(1.5, 3)),
    twice(lambda: SolveResult(2.5, "numeric", 1e-16, 0.5)),
    twice(lambda: SearchProblem(1.0, 10.0)),
    twice(lambda: Strategy([2.0, 4.0], 10.0, 1.0)),
    (report, optimize(SearchProblem(1.0, 1e6))),
    (turnless, solve_problem(SearchProblem(1.0, 1e6))),
    twice(lambda: ReachQuery(7.0)),
    twice(lambda: maximal_reach(ReachQuery(7.0))),
    twice(lambda: RatioReport(7.0, 1, [5.0, 7.0], 1.0, [2.0], 4.0)),
    twice(lambda: worst_case_ratio(report.strategy)),
    twice(lambda: RayFamilyParams(3, 0.0, 1.0)),
]
assert {type(a).__name__ for a, _ in pairs} == {
    "PolyEval", "SolveResult", "SearchProblem", "Strategy", "StrategyReport", "ReachQuery",
    "ReachResult", "RatioReport", "RayFamilyParams"}
for a, b in pairs:
    assert a is not b and a == b and hash(a) == hash(b) and not (a != b), a
    # As for a frozen dataclass: the hash of the tuple of all fields.
    assert hash(a) == hash(tuple(getattr(a, f) for f in a.__slots__)), a
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a, a
    name = a.__slots__[0]
    for attempt in (lambda: setattr(a, name, 0), lambda: delattr(a, name),
                    lambda: setattr(a, "extra", 0)):
        try:
            attempt()
        except AttributeError:
            pass
        else:
            raise AssertionError(f"{type(a).__name__} accepted a write")
assert PolyEval(1.5, 3) != PolyEval(1.5, 4) and PolyEval(1.0, 0) != (1.0, 0)
assert SearchProblem(1.0, 10.0, 1e-6) != SearchProblem(1.0, 10.0)
assert Strategy([2.0], 3.0, 1.0).turns == (2.0,)
assert RatioReport(7.0, 1, [5.0, 7.0], 1.0, [2.0], 4.0).per_interval == (
    ((1.0, 2.0), 5.0), ((2.0, 4.0), 7.0))
assert turnless.strategy is None and turnless.theta == report.theta
assert repr(PolyEval(1.5, 3)) == "PolyEval(mantissa=1.5, exp2=3)"
assert repr(SearchProblem(1.0, 10.0)) == "SearchProblem(lambda_=1.0, Lambda=10.0, epsilon=1e-09)"
assert repr(report.strategy) in repr(report) and 0.0 < report.theta < math.pi / (report.n + 2)
bare = StrategyReport(report.strategy, 1, 2.0, 5.0, "exact", 0.0)
assert math.isnan(bare.log2_residual) and bare.bracket_width == 0.0 and math.isnan(bare.theta)
print("ok")
"""
    assert run_python("-c", script).stdout.strip() == "ok"


def test_diagnostics_lines():
    args = ("-m", "linesearch", "optimal", "--Lambda", "1e6")
    assert run_python(*args).stderr == ""
    assert run_python(*args, log="error").stderr == ""
    lines = run_python(*args, log="debug").stderr.splitlines()
    assert {line.split()[0] for line in lines} == {"DEBUG", "INFO"}
    for line in lines:
        assert re.match(r"^(DEBUG|INFO) linesearch\.\w+: ", line), line
    info = run_python(*args, log="INFO").stderr.splitlines()
    assert info and all(line.startswith("INFO linesearch.optimal: optimize ") for line in info)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from linesearch import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._main_parser.cache_clear()
    outputs = []
    for _ in range(3):
        assert cli.main(["optimal", "--Lambda", "10"]) == 0
        outputs.append(capsys.readouterr().out)
    cli._main_parser.cache_clear()
    assert len(built) == 1
    assert outputs[0] == outputs[1] == outputs[2] != ""
