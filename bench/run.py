"""Benchmark of the linesearch package and its CLI: one run of one workload.

    python3 bench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src`` beside this
directory.  A run starts ``worker.py``, a process with only the program and
the timing loop, which also times fresh set-ups between operations; then it
checks every recorded output here, against mpmath references and exact
pricing from ``reference.py``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  Run files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from functools import reduce

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150.0


def check_outputs(workload: str, inputs: list, records: list, verify_turns: dict) -> tuple[list, int]:
    """Check each recorded output; returns the problems and the failed inputs.

    An input fails when the program says so with a non-zero exit code; its
    output is not checked.
    """
    problems, failing = [], 0
    for i, (inp, rec) in enumerate(zip(inputs, records)):
        kind = inp["kind"]
        if "code" in rec and rec["code"] != 0:
            failing += 1
            continue
        try:
            if workload == "cli_oneshot":
                errs = reference.check_cli(inp, dict(rec, turns=verify_turns.get(str(i))),
                                           workloads.CLI_SWEEP_POINTS)
            elif kind == "optimize":
                errs = reference.check_optimize(inp, rec)
            elif kind == "verify":
                errs = reference.check_verify_record(inp["rho"], rec["stdout"], rec["turns"])
            elif kind == "reach":
                errs = reference.check_reach(inp["ratio"], rec["Lambda"], rec["n"], rec["a0"])
            else:
                errs = reference.check_mray(inp["m"], inp["a"], inp["b"], rec["ratio"])
        except Exception as exc:  # a malformed output is a wrong output
            errs = [f"unreadable output: {exc!r}"]
        problems += [f"{workload} input {i} {inp}: {e}" for e in errs]
    return problems, failing


def end_to_end(best_s: list[float], setups: list[float], peak_rss_kb: float) -> tuple[dict, str]:
    lat = sorted(b * 1000.0 for b in best_s)
    n = len(lat)
    tail_pct = 100.0 * (n - TAIL_BEYOND) / n
    metrics = {
        "ops_per_s": {"value": n / sum(best_s), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_tail_ms": {"value": lat[n - TAIL_BEYOND - 1], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }
    note = (f"latency_tail_ms is p{tail_pct:.1f} of {n} per-input best times "
            f"({TAIL_BEYOND} beyond it); setup_s is the median of {len(setups)} fresh set-ups "
            f"({min(setups):.4f}-{max(setups):.4f} s)")
    return metrics, note


def per_layer(workload: str, res: dict, n_inputs: int) -> dict:
    rounds = res["traced_rounds"]
    if workload != "cli_oneshot":
        values = tracing.summarize(res["totals"], rounds * n_inputs, rounds)
    else:
        children = res["child_totals"]
        cli = {
            "interpreter_ms": res["interpreter_ms"],
            "import_ms": statistics.median(c["import_ms"] for c in children),
            "import_numpy_ms": statistics.median(c["import_numpy_ms"] for c in children),
            "child_cpu_ms": statistics.median(res["child_cpu_s"]) * 1000.0,
        }
        totals = reduce(tracing.merge, (c["totals"] for c in children), tracing.empty_totals())
        values = tracing.summarize(totals, len(children), rounds, cli)
    units = {"ms": "ms", "us": "us"}
    return {k: {"value": v, "unit": units.get(k.rsplit("_", 1)[-1], "count")}
            for k, v in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark one workload of the linesearch package.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "linesearch", "__init__.py")):
        print(f"error: no linesearch package under {SRC}", file=sys.stderr)
        return 2
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out, exist_ok=True)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", out],
                   timeout=WORKER_TIMEOUT_S, check=True, cwd=ROOT)
    with open(os.path.join(out, "worker.json")) as fh:
        res = json.load(fh)

    inputs = workloads.make_inputs(args.workload, args.seed)
    with open(os.path.join(out, "outputs.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    problems, failing = check_outputs(args.workload, inputs, records, res.get("verify_turns", {}))
    if res["mismatches"]:
        problems.append(f"{res['mismatches']} repetitions gave another output than the first")
    if res["failed"] != failing * res["rounds"]:
        problems.append(f"{res['failed']} failed operations over {res['rounds']} rounds, "
                        f"but {failing} inputs fail")

    if args.trace:
        metrics = per_layer(args.workload, res, len(inputs))
        note = (f"tracing overhead {100.0 * res['overhead']:+.1f}% (traced vs untraced, "
                f"sum of per-input best times); {res['traced_rounds']} traced rounds")
    else:
        metrics, note = end_to_end(res["best_s"], res["setup_s"], res["peak_rss_kb"])
    ref = res["reference_loop_ms"]
    print(f"{args.workload} seed {args.seed}: {len(inputs)} inputs x {res['rounds']} rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed "
          f"({failing} of {len(inputs)} inputs fail every round)")
    print(note)
    print(f"reference loop (machine speed, not a metric): min {min(ref):.2f} ms, "
          f"median {statistics.median(ref):.2f} ms over {len(ref)} runs")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"checks: {len(records)} outputs, {len(problems)} problems")
    result = {"correct": not problems, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(dict(result, setups_s=res.get("setup_s"), note=note, reference_loop_ms=ref), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
