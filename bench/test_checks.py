"""Tests of the benchmark itself: the reference is right and the checks bite.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

The closed-form tests run in a process that never imports ``linesearch``.
The mutation tests take real program outputs, check that they pass, then
perturb one number and check that the perturbation is flagged.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest
from mpmath import mp, mpf

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_reference_does_not_import_the_program():
    code = ("import sys, reference, workloads; "
            "sys.exit(any(m.split('.')[0] == 'linesearch' for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=HERE)
    assert subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE).returncode == 0


@pytest.mark.parametrize("rho", [1.0, 1.25, 1.999])
def test_root_n0_is_rho(rho):
    assert abs(reference.root_ref(0, rho) - rho) < mpf(10) ** -40


@pytest.mark.parametrize("rho", [2.0, 3.0, 4.2])
def test_root_n1_closed_form(rho):
    with mp.workdps(reference.DPS):
        expected = (1 + mp.sqrt(1 + 4 * mpf(rho))) / 2
        assert abs(reference.root_ref(1, rho) - expected) < mpf(10) ** -40


@pytest.mark.parametrize("n", [0, 1, 2, 5, 50, 999])
def test_p_at_alpha_closed_form(n):
    with mp.workdps(reference.DPS):
        a = reference.alpha_ref(n + 1)
        expected = a ** (mpf(n + 1) / 2)
        assert abs(reference.p_ref(n, a) / expected - 1) < mpf(10) ** -30


def test_exact_sup_of_doubling_strategy():
    # f(i) = 2^i on [1, 8]: suprema 2 (1) / 1 + 1 = 3, then 2 (1 + 2 + 4) / 2 + 1 = 8, ...
    sup = reference.exact_sup([1.0, 2.0, 4.0], 8.0, 1.0)
    assert sup == 2 * (1 + 2 + 4 + 8) / 4 + 1


def test_mray_reference_of_limit_member_approaches_bound():
    m = 3
    a = m / (m - 1.0) ** 2
    ratio = reference.mray_worst_ref(m, a, m * a)
    upper = 1 + 2 * m**m / (m - 1.0) ** (m - 1)
    assert 1 + 2 * (m - 1) <= ratio <= upper + 1e-12


# --- mutation tests on real outputs -------------------------------------------

@pytest.fixture(scope="module")
def program():
    sys.path.insert(0, SRC)
    import linesearch
    from linesearch import cli

    return linesearch, cli


def _optimize_record(program, rho, eps):
    ls, _ = program
    rep = ls.optimize(ls.SearchProblem(1.0, rho, eps))
    return {"n": rep.n, "a0": rep.a0, "cr": rep.cr, "mode": rep.mode,
            "cr_error_bound": rep.cr_error_bound, "turns": list(rep.strategy.turns),
            "terminal": rep.strategy.terminal}


@pytest.mark.parametrize("rho,eps,mode", [
    (7.5, 1e-9, "exact"), (1e20, 1e-9, "numeric"), (1e45, 1e-9, "numeric"),
    (2.0**800, 1e-6, "limit_approx"), (1e150, 1e-6, "numeric"),
])
def test_optimize_checks_bite(program, rho, eps, mode):
    rec = _optimize_record(program, rho, eps)
    assert rec["mode"] == mode
    inp = {"rho": rho, "eps": eps}
    assert reference.check_optimize(inp, rec) == []
    assert reference.check_optimize(inp, dict(rec, a0=rec["a0"] + 1e-6))
    assert reference.check_optimize(inp, dict(rec, a0=rec["a0"] - 1e-6))
    for delta in (-1, 1):
        wrong_n = rec["n"] + delta
        turns = rec["turns"][:wrong_n] if delta < 0 else rec["turns"] + [rec["terminal"]]
        assert reference.check_optimize(inp, dict(rec, n=wrong_n))
        assert reference.check_optimize(inp, dict(rec, n=wrong_n, turns=turns))
    # The limit strategy does not equalize its intervals, so it has room for
    # a small change inside its bound; only its capped last turn is tight.
    last = len(rec["turns"]) - 1
    for k in {last} if mode == "limit_approx" else {0, last // 2, last}:
        turns = list(rec["turns"])
        turns[k] *= 1 + 1e-6
        assert reference.check_optimize(inp, dict(rec, turns=turns)), k


def test_verify_checks_bite(program):
    ls, cli = program
    import contextlib
    import io

    rho = 3.0e12
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify", "--Lambda", repr(rho)]) == 0
    text = buf.getvalue()
    turns = list(ls.optimize(ls.SearchProblem(1.0, rho)).strategy.turns)
    assert reference.check_verify_record(rho, text, turns) == []
    record = json.loads(text)
    record["results"]["worst_case_ratio"] *= 1 + 1e-9
    assert reference.check_verify_record(rho, json.dumps(record), turns)
    bent = list(turns)
    bent[len(bent) // 2] *= 1 + 1e-6
    assert reference.check_verify_record(rho, text, bent)
    record = json.loads(text)
    record["results"]["a0"] += 1e-6
    assert reference.check_verify_record(rho, json.dumps(record), turns)


@pytest.mark.parametrize("ratio", [3.0, 5.5, 8.9999])
def test_reach_checks_bite(program, ratio):
    ls, _ = program
    res = ls.maximal_reach(ls.ReachQuery(ratio=ratio))
    assert reference.check_reach(ratio, res.Lambda, res.n, res.a0) == []
    assert reference.check_reach(ratio, res.Lambda * (1 + 1e-8), res.n, res.a0)
    assert reference.check_reach(ratio, res.Lambda, res.n + 1, res.a0)
    assert reference.check_reach(ratio, res.Lambda, res.n, res.a0 + 1e-6)


def test_mray_checks_bite(program):
    ls, _ = program
    m, a, b = 4, 0.2, 1.5
    ratio = ls.mray_worst_ratio(ls.RayFamilyParams(m=m, a=a, b=b))
    assert reference.check_mray(m, a, b, ratio) == []
    assert reference.check_mray(m, a, b, ratio * (1 + 1e-9))
    assert reference.check_mray(m, a, b, 2.0 * m)  # below 1 + 2(m-1)


def test_sweep_csv_check_bites(program):
    _, cli = program
    import contextlib
    import io

    inp = {"kind": "optimal_sweep", "rho_min": 3.0, "rho_max": 3e40}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(workloads.cli_argv(inp)[0:]) == 0
    text = buf.getvalue()
    points = workloads.CLI_SWEEP_POINTS
    assert reference.check_sweep_csv(inp, text, points) == []
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)  # a0 of one row
    assert reference.check_sweep_csv(inp, "\n".join(lines[:5] + [",".join(cells)] + lines[6:]), points)


# --- inputs ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_per_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


def test_fixed_verify_grid_is_in_every_seed():
    grid = set(workloads.fixed_verify_grid())
    assert len(grid) == workloads.VERIFY_FIXED_POINTS
    for seed in range(5):
        rhos = {inp["rho"] for inp in workloads.make_inputs("verify_sweep", seed)}
        assert grid <= rhos
        assert all(r <= workloads.VERIFY_SEEDED_MAX for r in rhos - grid)


def test_inputs_are_valid(program):
    ls, _ = program
    for seed in range(3):
        for inp in workloads.make_inputs("reach_mray", seed) + workloads.make_inputs("cli_oneshot", seed):
            if inp["kind"] == "mray":
                ls.RayFamilyParams(m=inp["m"], a=inp["a"], b=inp["b"])
            elif inp["kind"] == "reach":
                assert 3.0 <= inp["ratio"] < 9.0
        top = max(i["ratio"] for i in workloads.make_inputs("reach_mray", seed) if i["kind"] == "reach")
        assert ls.maximal_reach(ls.ReachQuery(ratio=top)).n >= 850
    assert math.isclose(workloads.reach_ratio(0.0), 3.0)
