"""The benchmark's timing loop: one closed-loop client, one operation at a time.

This process holds only the program and the loop.  It imports no reference
code and checks nothing; it records each input's output once, in a warm-up
round that is not timed, and afterwards only confirms that every repetition
gives the same output.  ``run.py`` starts it and checks the recorded
outputs in its own process.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
    python3 bench/worker.py --setup --workload W --seed N

The second form is one fresh set-up: it times the import of the program and
the first call of each entry point the workload uses, and prints seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402  (the script directory is on sys.path)

REFERENCE_LOOP_EVERY_S = 1.0
SETUP_PROBES = 10
# A CLI launch is slow enough that a run holds few rounds; every input gets
# at least this many samples (the first round included), even when a slow
# spell of the machine stretches the run past --seconds.
CLI_MIN_ROUNDS = 3


def reference_loop_ms() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (time.perf_counter() - t0) * 1000.0


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """The linesearch modules, from this checkout's src only."""
    sys.path.insert(0, SRC)
    import linesearch
    from linesearch import cli, mrays, optimal, reach, simulate, solve

    if not os.path.abspath(linesearch.__file__).startswith(SRC + os.sep):
        raise ImportError(f"linesearch imported from {linesearch.__file__}, not {SRC}")
    return {"cli": cli, "mrays": mrays, "optimal": optimal, "reach": reach,
            "simulate": simulate, "solve": solve}


class InProcess:
    """Operations that call the package in this process.

    Calls go through module attributes so that the traced run's wrappers,
    installed at those attributes, see them.
    """

    def __init__(self, mods: dict):
        self.m = mods
        self.tracer = None

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.start_op()

    def run(self, inp: dict):
        kind, m = inp["kind"], self.m
        if kind == "optimize":
            return m["optimal"].optimize(m["optimal"].SearchProblem(1.0, inp["rho"], inp["eps"]))
        if kind == "verify":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = m["cli"].main(["verify", "--Lambda", repr(inp["rho"])])
            return code, buf.getvalue()
        if kind == "reach":
            return m["reach"].maximal_reach(m["reach"].ReachQuery(ratio=inp["ratio"]))
        if kind == "mray":
            return m["mrays"].mray_worst_ratio(
                m["mrays"].RayFamilyParams(m=inp["m"], a=inp["a"], b=inp["b"]))
        raise ValueError(f"unknown operation {kind!r}")

    def turns(self, rho: float) -> list:
        """The strategy ``verify`` prices for Lambda = rho; outside any timing."""
        opt = self.m["optimal"]
        return list(opt.optimize(opt.SearchProblem(1.0, rho)).strategy.turns)

    @staticmethod
    def digest(kind: str, out) -> int:
        if kind == "optimize":
            return hash((out.n, out.a0, out.cr, out.mode, out.cr_error_bound,
                         out.strategy.turns, out.strategy.terminal))
        if kind == "reach":
            return hash((out.Lambda, out.n, out.a0, out.strategy.turns))
        return hash(out)

    def record(self, inp: dict, out) -> dict:
        kind = inp["kind"]
        if kind == "optimize":
            return {"n": out.n, "a0": out.a0, "cr": out.cr, "mode": out.mode,
                    "cr_error_bound": out.cr_error_bound,
                    "turns": list(out.strategy.turns), "terminal": out.strategy.terminal}
        if kind == "verify":
            code, text = out
            return {"code": code, "stdout": text, "turns": self.turns(inp["rho"]) if code == 0 else None}
        if kind == "reach":
            return {"Lambda": out.Lambda, "n": out.n, "a0": out.a0}
        return {"ratio": out}

    @staticmethod
    def failed(inp: dict, out) -> bool:
        return inp["kind"] == "verify" and out[0] != 0

    def after_op(self) -> None:
        pass


class Launches:
    """cli_oneshot: each operation is a fresh ``python -m linesearch`` process.

    The traced run launches ``bench/clitrace.py`` instead, which wraps the
    same layers inside the child and reports them in a file.
    """

    def __init__(self, out_dir: str):
        self.env = program_env()
        self.trace = False
        self.trace_file = os.path.join(out_dir, "clitrace.json")
        self.rss_kb: list[int] = []
        self.cpu_s: list[float] = []
        self.child_totals: list[dict] = []

    def run(self, inp: dict):
        argv = workloads.cli_argv(inp)
        if self.trace:
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), self.trace_file, *argv]
        else:
            cmd = [sys.executable, "-m", "linesearch", *argv]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=self.env, cwd=ROOT)
        text = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        self.cpu_s.append(usage.ru_utime + usage.ru_stime)
        return proc.returncode, text.decode()

    def begin(self) -> None:
        pass

    def after_op(self) -> None:
        if self.trace:
            with open(self.trace_file) as fh:
                self.child_totals.append(json.load(fh))

    @staticmethod
    def digest(kind: str, out) -> int:
        return hash(out)

    def record(self, inp: dict, out) -> dict:
        return {"code": out[0], "stdout": out[1], "turns": None}

    @staticmethod
    def failed(inp: dict, out) -> bool:
        return out[0] != 0


def launch_wall_ms(cmd: list, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
                   cwd=ROOT, check=True)
    return (time.perf_counter() - t0) * 1000.0


def first_round(ops, inputs, spool: str):
    """Run every input once, writing each output to ``spool``.

    Returns the digests later rounds must repeat, each operation's time in
    seconds (recording is outside it) and the operations that failed.
    """
    digests, times, failed = [], [], 0
    clock = time.perf_counter
    with open(spool, "w") as fh:
        for inp in inputs:
            ops.begin()
            t0 = clock()
            out = ops.run(inp)
            times.append(clock() - t0)
            ops.after_op()
            digests.append(ops.digest(inp["kind"], out))
            failed += ops.failed(inp, out)
            fh.write(json.dumps(ops.record(inp, out)) + "\n")
    return digests, times, failed


class Between:
    """Work done between operations, outside their timing, on a schedule.

    A fixed reference loop runs about once a second, to show how fast the
    machine is; with ``setups`` > 0, fresh set-up probes are spread evenly
    over the run, so that one slow spell of the machine does not set them
    all.
    """

    def __init__(self, workload: str, seed: int, seconds: float, setups: int):
        self.probe = [sys.executable, os.path.abspath(__file__), "--setup",
                      "--workload", workload, "--seed", str(seed)]
        self.seconds, self.setups = seconds, setups
        self.ref_ms = [reference_loop_ms()]
        self.setup_s: list[float] = []
        self.start = self.last_ref = time.perf_counter()

    def _probe(self) -> None:
        out = subprocess.run(self.probe, stdout=subprocess.PIPE, check=True, cwd=ROOT).stdout
        self.setup_s.append(json.loads(out)["setup_s"])

    def __call__(self) -> None:
        now = time.perf_counter()
        if now - self.last_ref >= REFERENCE_LOOP_EVERY_S:
            self.ref_ms.append(reference_loop_ms())
            self.last_ref = time.perf_counter()
        due = min(self.setups, int(self.setups * (now - self.start) / self.seconds) + 1)
        while len(self.setup_s) < due:
            self._probe()

    def finish(self) -> None:
        while len(self.setup_s) < self.setups:
            self._probe()


def timed_rounds(ops, inputs, digests, seconds, best, between, pick=None, min_rounds=1):
    """Whole rounds over ``inputs`` until ``seconds`` have passed.

    Keeps each input's best time (seconds) in ``best``; ``pick(round)``,
    when given, is called before each round and returns the array for that
    round instead.  Returns rounds run, repetitions whose output differed
    from the first round's, and operations that failed.
    """
    clock = time.perf_counter
    rounds = mismatches = failed = 0
    start = clock()
    while True:
        store = best if pick is None else pick(rounds)
        for i, inp in enumerate(inputs):
            ops.begin()
            t0 = clock()
            out = ops.run(inp)
            dt = clock() - t0
            if dt < store[i]:
                store[i] = dt
            ops.after_op()
            if ops.digest(inp["kind"], out) != digests[i]:
                mismatches += 1
            failed += ops.failed(inp, out)
            between()
        rounds += 1
        if clock() - start >= seconds and rounds >= min_rounds:
            return rounds, mismatches, failed


def run(args) -> dict:
    inputs = workloads.make_inputs(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    launches = args.workload == "cli_oneshot"
    ops = Launches(args.out) if launches else InProcess(import_program())

    # The first round records the outputs.  In process it is a warm-up and
    # is not timed; a CLI launch has nothing to warm, so its first round
    # counts as timed and saves ten seconds of launches.
    t_first = time.perf_counter()
    digests, first_times, failed = first_round(ops, inputs, os.path.join(args.out, "outputs.jsonl"))
    best = array("d", first_times if launches else [math.inf] * len(inputs))
    remaining = args.seconds - (time.perf_counter() - t_first if launches else 0.0)
    between = Between(args.workload, args.seed, remaining, 0 if args.trace else SETUP_PROBES)
    result = {"inputs": len(inputs)}

    if not args.trace:
        rounds, mismatches, f = timed_rounds(ops, inputs, digests, remaining, best, between,
                                             min_rounds=CLI_MIN_ROUNDS - 1 if launches else 1)
        result["peak_rss_kb"] = (statistics.median(ops.rss_kb) if launches
                                 else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        between.finish()
        result["setup_s"] = between.setup_s
        result["best_s"] = list(best)
    else:
        # Traced and untraced rounds alternate, so a slow spell of the
        # machine falls on both; their best per-input times give the
        # tracing overhead.
        traced_best = array("d", [math.inf] * len(inputs))
        plain_cpu_s = []
        if launches:
            tracer = None
        else:
            import tracing

            tracer = ops.tracer = tracing.install(ops.m)

        traced_rounds = []

        def pick(r: int):
            # A CLI run's first round was plain, so its next round is traced.
            traced = (r + launches) % 2 == 1
            traced_rounds.append(traced)
            if launches:
                if not ops.trace:  # the round just run was a plain one
                    plain_cpu_s.extend(ops.cpu_s)
                ops.cpu_s.clear()
                ops.trace = traced
            else:
                tracer.enable(traced)
            return traced_best if traced else best

        rounds, mismatches, f = timed_rounds(ops, inputs, digests, remaining, best, between, pick,
                                             min_rounds=2 - launches)
        pick(rounds)
        result["traced_rounds"] = sum(traced_rounds[:rounds])
        result["overhead"] = sum(traced_best) / sum(best) - 1.0
        if launches:
            result["child_totals"] = ops.child_totals
            result["child_cpu_s"] = plain_cpu_s
            result["interpreter_ms"] = min(
                launch_wall_ms([sys.executable, "-c", "pass"], ops.env) for _ in range(5))
        else:
            result["totals"] = tracing.totals(tracer.spans)
            with open(os.path.join(args.out, "spans.jsonl"), "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    if launches:
        # The strategies that the CLI verifies priced, for the checker; after all timing.
        program = InProcess(import_program())
        result["verify_turns"] = {i: program.turns(inp["rho"]) for i, inp in enumerate(inputs)
                                  if inp["kind"] == "verify"}
    result.update(rounds=rounds + 1, mismatches=mismatches, failed=failed + f,
                  attempted=(rounds + 1) * len(inputs), reference_loop_ms=between.ref_ms)
    return result


def setup_once(workload: str, seed: int) -> float:
    """Import plus the first call of each entry point, in this fresh process.

    The entry points are ``optimize`` for solve_sweep, ``maximal_reach`` and
    ``mray_worst_ratio`` for reach_mray, and ``linesearch.cli.main`` for the
    two workloads that go through the CLI.
    """
    inputs = workloads.make_inputs(workload, seed)
    t0 = time.perf_counter()
    if workload == "cli_oneshot":
        sys.path.insert(0, SRC)
        from linesearch import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(workloads.cli_argv(inputs[0]))
    else:
        ops = InProcess(import_program())
        for kind in dict.fromkeys(inp["kind"] for inp in inputs):
            ops.run(next(inp for inp in inputs if inp["kind"] == kind))
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"))
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args()
    if args.setup:
        print(json.dumps({"setup_s": setup_once(args.workload, args.seed)}))
        return 0
    result = run(args)
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
