"""Optimal search on a bounded line and on m concurrent rays.

Computes the unique optimal turn-point strategy for a target known to lie
at distance D in [lambda, Lambda], its exact competitive ratio 2 a0 + 1,
the inverse (maximal reach) problem, and the m-ray generalization, with an
independent simulator to verify every claim.
"""

from importlib import import_module

# Each public name and the submodule that defines it.  Names are imported on
# first access (PEP 562), so a CLI launch loads only what its command uses.
_EXPORTS = {
    name: module
    for module, names in {
        "mrays": (
            "ALPHA_TABLE", "InfeasibleParamsError", "MultiPoint", "RayFamilyParams",
            "breakpoint_ratios", "f_infinity_fixed_point", "family_strategy",
            "feasible_b_interval", "limit_family_params", "mray_breakpoint_ratios",
            "mray_cost", "mray_worst_ratio", "multi_p", "verify_alpha_table",
        ),
        "optimal": (
            "SearchProblem", "Strategy", "StrategyReport", "eq7_certificate",
            "expand_sequence", "f_infinity", "optimal_n", "optimize",
        ),
        "polynomials": ("PolyEval", "alpha", "eval_p", "p_at_alpha", "p_at_alpha2", "roots_of_p"),
        "reach": (
            "InfeasibleRatioError", "ReachQuery", "ReachResult", "UnboundedReachError",
            "maximal_reach",
        ),
        "simulate": (
            "IncompleteStrategyError", "RatioReport", "TargetSpec", "UnreachableTargetError",
            "baselines", "cost", "grid_sweep_ratio", "walk_cost", "worst_case_ratio",
        ),
        "solve": (
            "BracketError", "SolveResult", "cr_error_bound_limit", "solve_beyond_alpha",
            "solve_exact", "solve_limit", "solve_numeric",
        ),
    }.items()
    for name in names
}
_SUBMODULES = {"cli", *_EXPORTS.values()}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # A public name is fetched from its submodule and cached; a submodule
    # name imports that submodule; any other name raises AttributeError.
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
