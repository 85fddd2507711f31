"""Single-call reference figures for the README: best of 5 per row, in ms.

    python3 bench/figures.py

Each row times one call of a public function on a fixed input, five times
in a row, and keeps the fastest.  The figures locate where a workload's time
goes; the benchmark's metrics come from ``run.py``.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from linesearch import (  # noqa: E402
    RayFamilyParams,
    ReachQuery,
    SearchProblem,
    grid_sweep_ratio,
    maximal_reach,
    mray_worst_ratio,
    optimize,
    worst_case_ratio,
)


def best_ms(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1000.0


def main() -> None:
    def problem(n: int, eps: float = 1e-9) -> SearchProblem:
        # rho = 2^(n + 3/2) has optimal n exactly n for these n.
        return SearchProblem(1.0, 2.0 ** (n + 1.5), eps)

    strategy_9 = optimize(problem(9)).strategy
    strategy_999 = optimize(problem(999)).strategy
    rows = [
        ("optimize, n = 9", lambda: optimize(problem(9))),
        ("optimize, n = 199", lambda: optimize(problem(199))),
        ("optimize, n = 999", lambda: optimize(problem(999))),
        ("optimize, n = 999, limit mode (eps = 1e-6)", lambda: optimize(problem(999, 1e-6))),
        ("worst_case_ratio, n = 999", lambda: worst_case_ratio(strategy_999)),
        ("grid_sweep_ratio, 1e5 points, n = 9", lambda: grid_sweep_ratio(strategy_9)),
        ("grid_sweep_ratio, 1e5 points, n = 999", lambda: grid_sweep_ratio(strategy_999)),
        ("maximal_reach, n = 885", lambda: maximal_reach(ReachQuery(ratio=8.9999))),
        ("mray_worst_ratio, m = 3, horizon 200", lambda: mray_worst_ratio(RayFamilyParams(3, 0.0, 1.0))),
    ]
    assert optimize(problem(9)).n == 9 and optimize(problem(199)).n == 199
    assert optimize(problem(999)).n == 999 and optimize(problem(999, 1e-6)).mode == "limit_approx"
    assert maximal_reach(ReachQuery(ratio=8.9999)).n == 885
    for label, fn in rows:
        print(f"{label:45s} {best_ms(fn):8.3f} ms")


if __name__ == "__main__":
    main()
