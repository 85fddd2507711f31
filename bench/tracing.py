"""Span tracing of the ``linesearch`` layers, installed from outside the program.

:func:`install` replaces the public functions of each module at the names
their callers use (``solve`` calls ``eval_p_and_derivative`` through its own
namespace, the CLI calls ``simulate.worst_case_ratio`` through the module,
and so on) with wrappers that record a span: function, start, end, parent
span, operation id and a work count.  Spans stay in memory until the run
ends.  :func:`summarize` turns them into per-layer counts and self times.
No file of the program changes.
"""

from __future__ import annotations

import time

# name -> (layer, [(module, attribute)] the callers resolve it through,
#          work count taken from (args, kwargs, result) or None)
_N_ARG = lambda a, k, r: a[0] if a else k["n"]  # noqa: E731
_LEN = lambda a, k, r: len(r)  # noqa: E731
_POINTS = lambda a, k, r: a[3] if len(a) > 3 else k.get("points", 100_000)  # noqa: E731

TARGETS = {
    "eval_p": ("polynomials", [("solve", "eval_p"), ("reach", "eval_p")], _N_ARG),
    "eval_p_and_derivative": ("polynomials", [("solve", "eval_p_and_derivative")], _N_ARG),
    "solve_exact": ("solve", [("solve", "solve_exact")], None),
    "solve_numeric": ("solve", [("solve", "solve_numeric")], None),
    "solve_limit": ("solve", [("solve", "solve_limit")], None),
    "optimize": ("optimal", [("optimal", "optimize"), ("cli", "optimize")], None),
    "optimal_n": ("optimal", [("optimal", "optimal_n")], None),
    "expand_sequence": ("optimal", [("optimal", "expand_sequence"), ("reach", "expand_sequence")], _LEN),
    "worst_case_ratio": ("simulate", [("simulate", "worst_case_ratio")], None),
    "grid_sweep_ratio": ("simulate", [("simulate", "grid_sweep_ratio")], _POINTS),
    "baselines": ("simulate", [("simulate", "baselines")], None),
    "maximal_reach": ("reach", [("reach", "maximal_reach")], None),
    "mray_worst_ratio": ("mrays", [("mrays", "mray_worst_ratio")], None),
    "mray_breakpoint_ratios": ("mrays", [("mrays", "mray_breakpoint_ratios")], None),
    "breakpoint_ratios": ("mrays", [("mrays", "breakpoint_ratios")], _LEN),
    "main": ("cli", [("cli", "main")], None),
    "dumps_record": ("cli", [("cli", "dumps_record")], None),
}
# Pricing a baseline strategy is reported apart from pricing the solution.
BASELINE_PRICING = "worst_case_ratio@baseline"

PER_LAYER = (
    "polynomials.eval_calls", "polynomials.recurrence_steps", "polynomials.self_ms",
    "solve.exact_calls", "solve.numeric_calls", "solve.limit_calls",
    "solve.p_evals_per_solve", "solve.self_ms",
    "optimal.optimal_n_us", "optimal.expand_ms", "optimal.turns", "optimal.self_ms",
    "simulate.worst_case_ms", "simulate.grid_ms", "simulate.grid_points", "simulate.baselines_ms",
    "reach.self_ms", "mrays.self_ms", "mrays.breakpoints",
    "cli.interpreter_ms", "cli.import_ms", "cli.import_numpy_ms", "cli.main_ms",
    "cli.emit_ms", "cli.child_cpu_ms",
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, op id, work count].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._baselines: list = []  # strategies built by baselines() in this op
        self._sites: list = []  # (module, attribute, original, wrapper)
        self.op = -1

    def start_op(self) -> None:
        self.op += 1
        self._baselines.clear()

    def enable(self, on: bool) -> None:
        """Put the wrappers in place, or the original functions back."""
        for mod, attr, orig, wrapped in self._sites:
            setattr(mod, attr, wrapped if on else orig)

    def wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # dumps_record recurses through its module global: one span per call tree.
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            label = name
            if name == "worst_case_ratio" and any(args and args[0] is s for s in self._baselines):
                label = BASELINE_PRICING
            rec = [label, 0.0, 0.0, parent, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            if name == "baselines":
                self._baselines.append(result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(modules: dict) -> Tracer:
    """Wrap every traced function in ``modules`` (short name -> module object)."""
    tracer = Tracer()
    for name, (_, sites, count) in TARGETS.items():
        for mod_name, attr in sites:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            tracer._sites.append((mod, attr, orig, tracer.wrap(name, orig, count)))
    tracer.enable(True)
    return tracer


def layer_of(name: str) -> str:
    return "simulate" if name == BASELINE_PRICING else TARGETS[name][0]


def totals(spans: list[list]) -> dict:
    """Sums over spans: per-name calls, time, self time, work; solve-owned evals."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out = empty_totals()
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        out["calls"][name] = out["calls"].get(name, 0) + 1
        out["time"][name] = out["time"].get(name, 0.0) + dur
        out["self"][name] = out["self"].get(name, 0.0) + dur - child[i]
        out["work"][name] = out["work"].get(name, 0) + s[5]
        if name in ("eval_p", "eval_p_and_derivative"):
            p = s[3]
            while p >= 0 and layer_of(spans[p][0]) != "solve":
                p = spans[p][3]
            out["evals_under_solve"] += p >= 0
    return out


def merge(a: dict, b: dict) -> dict:
    """Sum two :func:`totals` results."""
    out = {"evals_under_solve": a["evals_under_solve"] + b["evals_under_solve"]}
    for key in ("calls", "time", "self", "work"):
        out[key] = dict(a[key])
        for name, v in b[key].items():
            out[key][name] = out[key].get(name, 0) + v
    return out


def empty_totals() -> dict:
    return {"calls": {}, "time": {}, "self": {}, "work": {}, "evals_under_solve": 0}


def summarize(tot: dict, ops: int, rounds: int, cli: dict | None = None) -> dict:
    """Per-layer metrics: per operation, except solve.*_calls per round."""
    calls, time_, self_, work = tot["calls"], tot["time"], tot["self"], tot["work"]
    g = lambda d, *names: sum(d.get(x, 0) for x in names)  # noqa: E731
    evals = ("eval_p", "eval_p_and_derivative")
    solves = ("solve_exact", "solve_numeric", "solve_limit")
    layer_names = lambda layer: [x for x in TARGETS if TARGETS[x][0] == layer]  # noqa: E731
    ms = 1000.0 / ops
    n_solves = g(calls, *solves)
    n_optimal_n = calls.get("optimal_n", 0)
    m = {
        "polynomials.eval_calls": g(calls, *evals) / ops,
        "polynomials.recurrence_steps": g(work, *evals) / ops,
        "polynomials.self_ms": g(self_, *evals) * ms,
        "solve.exact_calls": calls.get("solve_exact", 0) / rounds,
        "solve.numeric_calls": calls.get("solve_numeric", 0) / rounds,
        "solve.limit_calls": calls.get("solve_limit", 0) / rounds,
        "solve.p_evals_per_solve": tot["evals_under_solve"] / n_solves if n_solves else 0.0,
        "solve.self_ms": g(self_, *solves) * ms,
        "optimal.optimal_n_us": time_.get("optimal_n", 0.0) / n_optimal_n * 1e6 if n_optimal_n else 0.0,
        "optimal.expand_ms": time_.get("expand_sequence", 0.0) * ms,
        "optimal.turns": work.get("expand_sequence", 0) / ops,
        "optimal.self_ms": g(self_, *layer_names("optimal")) * ms,
        "simulate.worst_case_ms": time_.get("worst_case_ratio", 0.0) * ms,
        "simulate.grid_ms": time_.get("grid_sweep_ratio", 0.0) * ms,
        "simulate.grid_points": work.get("grid_sweep_ratio", 0) / ops,
        "simulate.baselines_ms": g(time_, "baselines", BASELINE_PRICING) * ms,
        "reach.self_ms": self_.get("maximal_reach", 0.0) * ms,
        "mrays.self_ms": g(self_, *layer_names("mrays")) * ms,
        "mrays.breakpoints": work.get("breakpoint_ratios", 0) / ops,
        "cli.main_ms": time_.get("main", 0.0) * ms,
        "cli.emit_ms": time_.get("dumps_record", 0.0) * ms,
    }
    cli = cli or {}
    for key in ("interpreter_ms", "import_ms", "import_numpy_ms", "child_cpu_ms"):
        m["cli." + key] = cli.get(key, 0.0)
    return {k: m[k] for k in PER_LAYER}
