"""Optimal search on a bounded line and on m concurrent rays.

Computes the unique optimal turn-point strategy for a target known to lie
at distance D in [lambda, Lambda], its exact competitive ratio 2 a0 + 1,
the inverse (maximal reach) problem, and the m-ray generalization, with an
independent simulator to verify every claim.
"""

from importlib import import_module

# Each public name and the submodule that defines it: the functions a user of
# the paper's results calls, the records they take or return and the
# exceptions they raise.  Everything else (the solvers, the polynomial family,
# the m-ray recurrence) is imported from its submodule.  Names are imported
# on first access (PEP 562), so a CLI launch loads only what its command uses.
_EXPORTS = {
    name: module
    for module, names in {
        "mrays": ("InfeasibleParamsError", "RayFamilyParams", "mray_worst_ratio"),
        "optimal": ("SearchProblem", "Strategy", "StrategyReport", "optimize"),
        "reach": (
            "InfeasibleRatioError", "ReachQuery", "ReachResult", "UnboundedReachError",
            "maximal_reach",
        ),
        "simulate": (
            "IncompleteStrategyError", "RatioReport", "grid_sweep_ratio", "worst_case_ratio",
        ),
    }.items()
    for name in names
}
_SUBMODULES = {"cli", "polynomials", "solve", *_EXPORTS.values()}

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
