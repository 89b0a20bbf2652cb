"""repro — Distributed primal-dual scheduling on line and tree networks.

A complete reproduction of *"Distributed Algorithms for Scheduling on
Line and Tree Networks"* (Chakaravarthy, Roy, Sabharwal; arXiv:1205.1924,
IPDPS 2013 as "... with Non-uniform Bandwidths").

Public API (see README for a walkthrough):

* problems — :class:`TreeProblem`, :class:`LineProblem`, built from
  :class:`Demand` / :class:`WindowDemand` plus :class:`TreeNetwork` /
  :class:`LineNetwork`, or sampled via :func:`random_tree_problem` /
  :func:`random_line_problem`;
* the paper's solvers — :func:`solve_tree_unit` (7+ε),
  :func:`solve_tree_arbitrary` (80+ε), :func:`solve_line_unit` (4+ε),
  :func:`solve_line_arbitrary` (23+ε);
* baselines — :func:`solve_ps_line_unit` / :func:`solve_ps_line_arbitrary`
  (Panconesi–Sozio), :func:`solve_sequential_tree` (Appendix A),
  :func:`solve_greedy`;
* exact — :func:`solve_optimal` (MILP), :func:`lp_upper_bound`,
  :func:`brute_force_optimal`;
* decompositions — :func:`ideal_decomposition` (Lemma 4.1) and friends;
* verification — :func:`verify_tree_solution`, :func:`verify_line_solution`.

The exports are lazy (PEP 562): ``import repro`` binds no public name
but ``__version__``, and the first access to a public name imports the
module that defines it.  So ``import repro`` loads neither SciPy nor the
offline solvers, and the online commands (``repro serve``, ``repro
resume``) start without them; ``from repro import solve_optimal`` pays
for ``repro.algorithms`` and SciPy at that point.  ``from repro import
*`` still binds every name in ``__all__``.
"""

from __future__ import annotations

import importlib

#: Public name -> the module that defines it.  ``__getattr__`` imports
#: the module on first access; ``__all__`` lists exactly these keys
#: plus ``__version__``.
_EXPORTS = {
    "EngineConfig": ".algorithms",
    "EngineInput": ".algorithms",
    "TwoPhaseEngine": ".algorithms",
    "brute_force_optimal": ".algorithms",
    "compile_line": ".algorithms",
    "compile_tree": ".algorithms",
    "lp_upper_bound": ".algorithms",
    "solve_greedy": ".algorithms",
    "solve_line_arbitrary": ".algorithms",
    "solve_line_narrow": ".algorithms",
    "solve_line_unit": ".algorithms",
    "solve_optimal": ".algorithms",
    "solve_ps_line_arbitrary": ".algorithms",
    "solve_ps_line_unit": ".algorithms",
    "solve_sequential_tree": ".algorithms",
    "solve_tree_arbitrary": ".algorithms",
    "solve_tree_narrow": ".algorithms",
    "solve_tree_unit": ".algorithms",
    "ConflictIndex": ".core",
    "Demand": ".core",
    "DualState": ".core",
    "FeasibilityError": ".core",
    "LineDemandInstance": ".core",
    "LineProblem": ".core",
    "Solution": ".core",
    "TreeDemandInstance": ".core",
    "TreeProblem": ".core",
    "WindowDemand": ".core",
    "verify_line_solution": ".core",
    "verify_tree_solution": ".core",
    "LayeredDecomposition": ".decomposition",
    "TreeDecomposition": ".decomposition",
    "balancing_decomposition": ".decomposition",
    "ideal_decomposition": ".decomposition",
    "line_layers": ".decomposition",
    "root_fixing_decomposition": ".decomposition",
    "tree_layers": ".decomposition",
    "lp_upper_bound_capacitated": ".capacitated",
    "normalize_uniform_capacity": ".capacitated",
    "solve_line_capacitated": ".capacitated",
    "solve_optimal_capacitated": ".capacitated",
    "solve_tree_capacitated": ".capacitated",
    "LineUnitRuntime": ".distributed",
    "ProtocolRuntime": ".distributed",
    "SyncSimulator": ".distributed",
    "TreeUnitRuntime": ".distributed",
    "load_problem": ".io",
    "load_solution": ".io",
    "load_trace": ".io",
    "save_problem": ".io",
    "save_solution": ".io",
    "save_trace": ".io",
    "LineNetwork": ".network",
    "TreeNetwork": ".network",
    "line_as_tree": ".network",
    "ARRIVAL_PROCESSES": ".online",
    "AdmissionPolicy": ".online",
    "Arrival": ".online",
    "CapacityLedger": ".online",
    "Departure": ".online",
    "EventTrace": ".online",
    "POLICY_NAMES": ".online",
    "ReplayMetrics": ".online",
    "ReplayResult": ".online",
    "Tick": ".online",
    "bursty_trace": ".online",
    "diurnal_trace": ".online",
    "generate_trace": ".online",
    "make_policy": ".online",
    "offline_optimum": ".online",
    "poisson_trace": ".online",
    "replay": ".online",
    "with_offline": ".online",
    "render_comparison": ".report",
    "render_decomposition": ".report",
    "render_gantt": ".report",
    "render_replay": ".report",
    "render_solution_summary": ".report",
    "render_sweep": ".report",
    "render_tree": ".report",
    "BatchRunner": ".runners",
    "Job": ".runners",
    "ReplayJob": ".runners",
    "ReplayRunner": ".runners",
    "RunResult": ".runners",
    "ShardPlan": ".sharding",
    "ShardPlanner": ".sharding",
    "StreamedShardedDriver": ".sharding",
    "TREE_TOPOLOGIES": ".workloads",
    "make_tree": ".workloads",
    "random_line_problem": ".workloads",
    "random_tree_problem": ".workloads",
}

#: Subpackages reachable as ``repro.<name>`` after a bare ``import repro``.
_SUBMODULES = frozenset({
    "algorithms", "analysis", "capacitated", "cli", "core", "decomposition",
    "distributed", "io", "lp", "network", "obs", "online", "report",
    "runners", "service", "session", "sharding", "workloads",
})

__version__ = "1.0.0"

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionPolicy",
    "Arrival",
    "BatchRunner",
    "CapacityLedger",
    "ConflictIndex",
    "Demand",
    "Departure",
    "DualState",
    "EventTrace",
    "POLICY_NAMES",
    "ReplayJob",
    "ReplayMetrics",
    "ReplayResult",
    "ReplayRunner",
    "Tick",
    "EngineConfig",
    "EngineInput",
    "FeasibilityError",
    "Job",
    "LayeredDecomposition",
    "LineDemandInstance",
    "LineNetwork",
    "LineProblem",
    "RunResult",
    "ShardPlan",
    "ShardPlanner",
    "StreamedShardedDriver",
    "Solution",
    "TreeDecomposition",
    "TreeDemandInstance",
    "TreeNetwork",
    "TreeProblem",
    "TREE_TOPOLOGIES",
    "TwoPhaseEngine",
    "WindowDemand",
    "LineUnitRuntime",
    "ProtocolRuntime",
    "SyncSimulator",
    "TreeUnitRuntime",
    "balancing_decomposition",
    "brute_force_optimal",
    "bursty_trace",
    "diurnal_trace",
    "generate_trace",
    "load_problem",
    "load_solution",
    "load_trace",
    "make_policy",
    "offline_optimum",
    "poisson_trace",
    "replay",
    "with_offline",
    "lp_upper_bound_capacitated",
    "normalize_uniform_capacity",
    "render_comparison",
    "render_decomposition",
    "render_gantt",
    "render_replay",
    "render_solution_summary",
    "render_sweep",
    "render_tree",
    "save_problem",
    "save_solution",
    "save_trace",
    "solve_line_capacitated",
    "solve_optimal_capacitated",
    "solve_tree_capacitated",
    "compile_line",
    "compile_tree",
    "ideal_decomposition",
    "line_as_tree",
    "line_layers",
    "lp_upper_bound",
    "make_tree",
    "random_line_problem",
    "random_tree_problem",
    "root_fixing_decomposition",
    "solve_greedy",
    "solve_line_arbitrary",
    "solve_line_narrow",
    "solve_line_unit",
    "solve_optimal",
    "solve_ps_line_arbitrary",
    "solve_ps_line_unit",
    "solve_sequential_tree",
    "solve_tree_arbitrary",
    "solve_tree_narrow",
    "solve_tree_unit",
    "tree_layers",
    "verify_line_solution",
    "verify_tree_solution",
    "__version__",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module, __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
