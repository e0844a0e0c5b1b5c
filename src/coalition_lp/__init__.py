"""Minimum coalition sizes for positional voting rules.

A positional rule scores ballots by a non-increasing weight vector.  This
package measures how many strategic voters it takes to overturn a given
outcome: an exact integer search with verified witnesses, a chain of
linear-program relaxations collapsing to a two-variable dual over a planar
polytope, the limiting distribution of coalition size over random
electorates, and a dominance order comparing rules by manipulation
resistance.

Every public name is imported from its module on first use (PEP 562), so
importing the package imports none of its modules, and only the sampling code
(``asymptotics``, ``sample_ic``, ``sample_scoreboards``) loads numpy.
"""

import importlib

_EXPORTS = {
    "election": (
        "Profile", "Scoreboard", "ScoreVector", "all_rankings", "antiplurality",
        "borda", "k_approval", "normalize", "parse_rule", "plurality", "sample_ic",
        "scoreboard", "three_candidate", "top_two",
    ),
    "lp": (
        "LinearProgram", "LpOutcome", "LpStatus", "NumericalFailure",
        "dual_gap_check", "solve",
    ),
    "exact": (
        "CoalitionPlan", "InstanceTooLarge", "ManipulationInstance", "McsOutcome",
        "NotStrictWinner", "mcs_exact", "mcs_outcome", "q1", "q2", "q3",
        "q_program2", "verify_integral_plan", "verify_stratified_plan",
    ),
    "reduction": (
        "MarginPair", "Polytope2D", "closed_form_q", "cone_optimal_vertices",
        "k_constant", "mw_polytope", "optimal_vertex_set", "q_dual",
        "q_stratified", "sigma_scaled", "witness_from_z",
    ),
    "asymptotics": (
        "DominanceReport", "GwCurve", "LimitModel", "Verdict",
        "convergence_experiment", "curve_from_csv", "curve_to_csv", "dominates",
        "gap_cdf", "gw_curve", "limit_model", "plateau_probability", "sample_vw",
        "vw_from_z",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name):
    """A public name, or one of the modules above, imported when first asked for."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
