"""Seeded inputs of the four benchmark workloads.

Standard library only: the worker process, the checker and the tests all
build the same inputs from the same seed.  Continuous draws are stratified
(one draw per equal-width stratum, then shuffled), so the inputs of any two
seeds cover their ranges alike and the seed moves the figures very little.

An input is a plain dict with a ``kind`` and the arguments of one
operation.  Every input stays valid for every seed; the only operations
that fail are the fixed large-rho verifies in ``verify_sweep``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("solve_sweep", "verify_sweep", "reach_mray", "cli_oneshot")

SOLVE_INPUTS = 128
# Default epsilon of SearchProblem, and a loose one under which the limit
# mode serves n >= 7 * eps^(-1/3) - 4 = 696, the top third of the range.
EPS_DEFAULT = 1e-9
EPS_LOOSE = 1e-6
LOG2_RHO_MAX = 1000.0

# Seeded verifies stay below 1e100 (n <= 331): verify exits 1 from about
# n = 515 up, on rho values that no seed can predict.  The large-rho fault
# is kept on a fixed grid that does not depend on the seed.
VERIFY_SEEDED = 44
VERIFY_SEEDED_MAX = 1e100
VERIFY_FIXED_POINTS = 20
VERIFY_FIXED_MIN, VERIFY_FIXED_MAX = 2.0, 1e300

REACH_INPUTS = 128
MRAY_INPUTS = 128
# 9 - R at n = 900: 2 (4 - alpha_{n+2}) = 8 sin^2(pi / 903).
REACH_GAP_MIN = 8.0 * math.sin(math.pi / 903.0) ** 2
REACH_GAP_MAX = 6.0
MRAY_M = tuple(range(2, 9))

CLI_INPUTS = 40
CLI_KINDS = ("optimal", "optimal_log2", "optimal_sweep", "reach", "mray", "verify")
CLI_VERIFY_MAX = 1e30
CLI_SWEEP_POINTS = 20


def _strata(rng: random.Random, count: int) -> list[float]:
    """count draws in [0, 1), one per stratum, in random order."""
    u = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(u)
    return u


def fixed_verify_grid() -> list[float]:
    """The 20-point log grid over [2, 1e300] that carries the large-rho fault."""
    lo, hi = math.log(VERIFY_FIXED_MIN), math.log(VERIFY_FIXED_MAX)
    last = VERIFY_FIXED_POINTS - 1
    return [math.exp(lo + (hi - lo) * k / last) for k in range(VERIFY_FIXED_POINTS)]


def mray_params(m: int, u: float, v: float) -> tuple[int, float, float]:
    """A feasible (m, a, b): a in [0, m/(m-1)^2], b uniform in its interval."""
    big_m = m**m / (m - 1.0) ** (m - 1)
    a = u * m / (m - 1.0) ** 2
    lo = max(1.0, m * a)
    hi = ((big_m - m * m) * a + m / (m - 1.0) * big_m) / (big_m - m)
    b = lo + v * (hi - lo)
    return m, a, min(max(b, lo), hi)


def reach_ratio(u: float) -> float:
    """A budget R in [3, 9), with 9 - R log-uniform so n spreads up to ~900."""
    gap = REACH_GAP_MAX * (REACH_GAP_MIN / REACH_GAP_MAX) ** u
    return 9.0 - gap


def _solve_inputs(rng: random.Random) -> list[dict]:
    # Each stratum's rho runs at both epsilons, so no seed favours either.
    rhos = [2.0 ** (u * LOG2_RHO_MAX) for u in _strata(rng, SOLVE_INPUTS // 2)]
    out = [{"kind": "optimize", "rho": rho, "eps": eps} for rho in rhos
           for eps in (EPS_DEFAULT, EPS_LOOSE)]
    rng.shuffle(out)
    return out


def _verify_inputs(rng: random.Random) -> list[dict]:
    hi = math.log(VERIFY_SEEDED_MAX / 2.0)
    seeded = [2.0 * math.exp(u * hi) for u in _strata(rng, VERIFY_SEEDED)]
    rhos = seeded + fixed_verify_grid()
    rng.shuffle(rhos)
    return [{"kind": "verify", "rho": rho} for rho in rhos]


def _per_kind_strata(rng: random.Random, kinds: tuple, total: int) -> list[tuple]:
    """(kind, u, v) for ``total`` inputs rotating through ``kinds``.

    Each kind draws its own strata, so every kind covers its range alike
    whatever the seed.
    """
    counts = [len(range(j, total, len(kinds))) for j in range(len(kinds))]
    draws = [list(zip(_strata(rng, c), _strata(rng, c))) for c in counts]
    return [(kinds[k % len(kinds)], *draws[k % len(kinds)][k // len(kinds)]) for k in range(total)]


def _reach_mray_inputs(rng: random.Random) -> list[dict]:
    reach = [{"kind": "reach", "ratio": reach_ratio(u)} for u in _strata(rng, REACH_INPUTS)]
    mray = []
    for m, u, v in _per_kind_strata(rng, MRAY_M, MRAY_INPUTS):
        m, a, b = mray_params(m, u, v)
        mray.append({"kind": "mray", "m": m, "a": a, "b": b})
    # Alternate the two operations so both see the same machine periods.
    return [op for pair in zip(reach, mray) for op in pair]


def cli_argv(inp: dict) -> list[str]:
    """Arguments of ``python -m linesearch`` for one cli_oneshot input."""
    kind = inp["kind"]
    if kind == "optimal":
        return ["optimal", "--Lambda", repr(inp["rho"])]
    if kind == "optimal_log2":
        return ["optimal", "--log2-rho", repr(inp["log2_rho"])]
    if kind == "optimal_sweep":
        return ["optimal", "--sweep", "--rho-min", repr(inp["rho_min"]),
                "--rho-max", repr(inp["rho_max"]), "--points", str(CLI_SWEEP_POINTS)]
    if kind == "reach":
        return ["reach", "--ratio", repr(inp["ratio"])]
    if kind == "mray":
        return ["mray", "--m", str(inp["m"]), "--a", repr(inp["a"]), "--b", repr(inp["b"])]
    if kind == "verify":
        return ["verify", "--Lambda", repr(inp["rho"])]
    raise ValueError(f"unknown cli input kind {kind!r}")


def _cli_inputs(rng: random.Random) -> list[dict]:
    out = []
    for k, (kind, u, v) in enumerate(_per_kind_strata(rng, CLI_KINDS, CLI_INPUTS)):
        if kind == "optimal":
            inp = {"rho": 10.0 ** (300.0 * u)}
        elif kind == "optimal_log2":
            inp = {"log2_rho": u * LOG2_RHO_MAX}
        elif kind == "optimal_sweep":
            lo = 10.0 ** (100.0 * u)
            inp = {"rho_min": lo, "rho_max": lo * 10.0 ** (100.0 * v + 1.0)}
        elif kind == "reach":
            inp = {"ratio": reach_ratio(u)}
        elif kind == "mray":
            m, a, b = mray_params(MRAY_M[k % len(MRAY_M)], u, v)
            inp = {"m": m, "a": a, "b": b}
        else:
            inp = {"rho": 2.0 * (CLI_VERIFY_MAX / 2.0) ** u}
        inp["kind"] = kind
        out.append(inp)
    return out


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The inputs of one round of ``workload``, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve_sweep":
        return _solve_inputs(rng)
    if workload == "verify_sweep":
        return _verify_inputs(rng)
    if workload == "reach_mray":
        return _reach_mray_inputs(rng)
    if workload == "cli_oneshot":
        return _cli_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
