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
"""

from .algorithms import (
    EngineConfig,
    EngineInput,
    TwoPhaseEngine,
    brute_force_optimal,
    compile_line,
    compile_tree,
    lp_upper_bound,
    solve_greedy,
    solve_line_arbitrary,
    solve_line_narrow,
    solve_line_unit,
    solve_optimal,
    solve_ps_line_arbitrary,
    solve_ps_line_unit,
    solve_sequential_tree,
    solve_tree_arbitrary,
    solve_tree_narrow,
    solve_tree_unit,
)
from .core import (
    ConflictIndex,
    Demand,
    DualState,
    FeasibilityError,
    LineDemandInstance,
    LineProblem,
    Solution,
    TreeDemandInstance,
    TreeProblem,
    WindowDemand,
    verify_line_solution,
    verify_tree_solution,
)
from .decomposition import (
    LayeredDecomposition,
    TreeDecomposition,
    balancing_decomposition,
    ideal_decomposition,
    line_layers,
    root_fixing_decomposition,
    tree_layers,
)
from .capacitated import (
    lp_upper_bound_capacitated,
    normalize_uniform_capacity,
    solve_line_capacitated,
    solve_optimal_capacitated,
    solve_tree_capacitated,
)
from .distributed import LineUnitRuntime, ProtocolRuntime, SyncSimulator, TreeUnitRuntime
from .io import (
    load_problem,
    load_solution,
    load_trace,
    save_problem,
    save_solution,
    save_trace,
)
from .network import LineNetwork, TreeNetwork, line_as_tree
from .online import (
    ARRIVAL_PROCESSES,
    AdmissionPolicy,
    Arrival,
    CapacityLedger,
    Departure,
    EventTrace,
    POLICY_NAMES,
    ReplayMetrics,
    ReplayResult,
    Tick,
    bursty_trace,
    diurnal_trace,
    generate_trace,
    make_policy,
    offline_optimum,
    poisson_trace,
    replay,
    with_offline,
)
from .report import (
    render_comparison,
    render_decomposition,
    render_gantt,
    render_replay,
    render_solution_summary,
    render_sweep,
    render_tree,
)
from .runners import BatchRunner, Job, ReplayJob, ReplayRunner, RunResult
from .sharding import ShardPlan, ShardPlanner, StreamedShardedDriver
from .workloads import TREE_TOPOLOGIES, make_tree, random_line_problem, random_tree_problem

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
