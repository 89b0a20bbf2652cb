"""Plain-text reporting: trees, decompositions, schedules, summaries.

Everything the examples and benchmarks print is built from these
primitives, so output formatting is tested once, here, instead of being
re-invented per script.
"""

from __future__ import annotations

from typing import Sequence

from .core.instance import LineProblem
from .core.solution import Solution
from .decomposition.base import TreeDecomposition
from .network.tree import TreeNetwork

__all__ = [
    "render_tree",
    "render_decomposition",
    "render_gantt",
    "render_solution_summary",
    "render_comparison",
    "render_sweep",
    "render_replay",
    "render_sharded_replay",
]


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-justified plain-text table with a dashed header rule."""
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_tree(tree: TreeNetwork, root: int = 0) -> str:
    """ASCII tree rooted at ``root`` (children indented under parents)."""
    lines: list[str] = []
    seen = {root}

    def walk2(v: int, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(str(v))
            kid_prefix = ""
        else:
            lines.append(prefix + ("└─ " if is_last else "├─ ") + str(v))
            kid_prefix = prefix + ("   " if is_last else "│  ")
        kids = sorted(u for u in tree.adj[v] if u not in seen)
        seen.update(kids)
        for i, u in enumerate(kids):
            walk2(u, kid_prefix, i == len(kids) - 1, False)

    walk2(root, "", True, True)
    return "\n".join(lines)


def render_decomposition(td: TreeDecomposition) -> str:
    """Level-by-level view of a tree decomposition with pivot sets."""
    out = [f"{td.name}: depth={td.max_depth}, pivot θ={td.pivot_size}"]
    for depth, level in enumerate(td.levels(), start=1):
        entries = ", ".join(
            f"{v}(χ={{{','.join(map(str, td.chi(v)))}}})" for v in sorted(level)
        )
        out.append(f"  depth {depth}: {entries}")
    return "\n".join(out)


def render_gantt(problem: LineProblem, solution: Solution, network_id: int,
                 width: int | None = None) -> str:
    """Capacity-lane Gantt chart of one resource's schedule.

    Each selected instance occupies one text lane for its interval; jobs
    are labelled ``a``–``z`` by demand id (mod 26).
    """
    n = problem.n_slots if width is None else min(width, problem.n_slots)
    lanes: list[list[str]] = []
    for inst in sorted(solution.selected, key=lambda d: (d.start, d.demand_id)):
        if inst.network_id != network_id or inst.start >= n:
            continue
        tag = chr(ord("a") + inst.demand_id % 26)
        end = min(inst.end, n - 1)
        for lane in lanes:
            if all(lane[t] == "." for t in range(inst.start, end + 1)):
                break
        else:
            lane = ["."] * n
            lanes.append(lane)
        for t in range(inst.start, end + 1):
            lane[t] = tag
    if not lanes:
        return "(idle)"
    return "\n".join("".join(lane) for lane in lanes)


def render_solution_summary(solution: Solution) -> str:
    """One-paragraph summary: profit, size, and the key engine stats."""
    s = solution.stats
    lines = [
        f"algorithm : {s.get('algorithm', '?')}",
        f"profit    : {solution.profit:.4g}",
        f"selected  : {solution.size} demand instances",
    ]
    if "total_rounds" in s:
        lines.append(f"rounds    : {s['total_rounds']}")
    if "realized_lambda" in s:
        lines.append(f"λ         : {s['realized_lambda']:.4f}")
    if "opt_upper_bound" in s:
        lines.append(f"OPT ≤     : {s['opt_upper_bound']:.4g} (dual certificate)")
    if "approx_guarantee" in s:
        lines.append(f"guarantee : ≤ {s['approx_guarantee']:.3g}× off optimal")
    return "\n".join(lines)


def render_sweep(results: Sequence) -> str:
    """Tabulate :class:`~repro.runners.batch.RunResult` records.

    One row per job: problem label, solver, seed, profit, size, rounds,
    realized λ, wall-clock, cache/error status.  When any record carries
    an offline benchmark in its stats (replay sweeps through
    :class:`~repro.runners.replay.ReplayRunner`), two extra columns
    report the fraction of the offline optimum captured (``ALG/OPT``)
    and the empirical competitive ratio (``c-ratio``); when any record
    was produced by a preemptive policy, ``evict`` and ``adj profit``
    (penalty-adjusted) columns appear so preemptive and non-preemptive
    rows on the same trace compare apples to apples.
    """
    results = list(results)
    with_offline = any(
        (r.stats or {}).get("offline_profit") is not None for r in results
    )
    with_evictions = any(
        (r.stats or {}).get("evictions") or (r.stats or {}).get("penalty_paid")
        for r in results
    )
    with_dual_ub = any(
        (r.stats or {}).get("dual_upper_bound") is not None for r in results
    )
    headers = ["problem", "solver", "seed", "profit", "size", "rounds",
               "λ", "time", "status"]
    extra = []
    if with_evictions:
        extra += ["evict", "adj profit"]
    if with_dual_ub:
        extra += ["OPT≤(dual)"]
    if with_offline:
        extra += ["ALG/OPT", "c-ratio"]
    headers = headers[:5] + extra + headers[5:]
    rows: list[list[str]] = []
    for r in results:
        stats = r.stats or {}
        seed = (r.params or {}).get("seed", "-")
        rounds = stats.get("total_rounds", stats.get("rounds", "-"))
        lam = stats.get("realized_lambda")
        status = "error" if r.error else ("cached" if r.cache_hit else "ok")
        row = [
            r.label,
            r.solver,
            str(seed),
            f"{r.profit:.2f}",
            str(r.size),
        ]
        if with_evictions:
            adj = stats.get("penalty_adjusted_profit", r.profit)
            row.append(str(stats.get("evictions", 0)))
            row.append(f"{adj:.2f}")
        if with_dual_ub:
            ub = stats.get("dual_upper_bound")
            row.append("-" if ub is None else f"{ub:.2f}")
        if with_offline:
            vs = stats.get("profit_vs_offline")
            cr = stats.get("competitive_ratio")
            row.append("-" if vs is None else f"{vs:.3f}")
            row.append("-" if cr is None else f"{cr:.3f}")
        row += [
            str(rounds),
            "-" if lam is None else f"{lam:.3f}",
            f"{r.elapsed:.2f}s",
            status,
        ]
        rows.append(row)
    return _table(headers, rows)


def render_replay(metrics: Sequence) -> str:
    """Tabulate replay outcomes (one row per (trace, policy) run).

    Accepts :class:`~repro.online.metrics.ReplayMetrics` records or
    their ``to_dict`` form.  The offline columns (``offline OPT``,
    ``ALG/OPT``, ``c-ratio``) appear only when at least one record
    carries an offline benchmark; the preemption columns (``evict``,
    ``forfeit``, ``adj profit``) appear only when at least one record
    evicted something or paid a penalty, and then for *every* row, so
    preemptive and non-preemptive policies on the same trace read side
    by side.
    """
    docs = [m if isinstance(m, dict) else m.to_dict() for m in metrics]
    with_offline = any(d.get("offline_profit") is not None for d in docs)
    with_evictions = any(
        d.get("evictions") or d.get("penalty_paid") for d in docs
    )
    with_dual_ub = any(d.get("dual_upper_bound") is not None for d in docs)
    # History-mode certificates report the peak-based bound alongside
    # the tightened one, so the two columns read side by side.
    with_peak_ub = any(d.get("dual_upper_bound_peak") is not None
                       for d in docs)
    headers = ["policy", "events", "arrivals", "accepted", "acc%",
               "profit"]
    if with_evictions:
        headers += ["evict", "forfeit", "adj profit"]
    if with_dual_ub:
        headers += ["OPT≤(dual)"]
    if with_peak_ub:
        headers += ["OPT≤(peak)"]
    if with_offline:
        headers += ["offline OPT", "ALG/OPT", "c-ratio"]
    headers += ["p50 µs", "p99 µs", "events/s"]
    rows: list[list[str]] = []
    for d in docs:
        row = [
            str(d.get("policy", "?")),
            str(d.get("events", 0)),
            str(d.get("arrivals", 0)),
            str(d.get("accepted", 0)),
            f"{100.0 * d.get('acceptance_ratio', 0.0):.1f}",
            f"{d.get('realized_profit', 0.0):.2f}",
        ]
        if with_evictions:
            adj = d.get("penalty_adjusted_profit",
                        d.get("realized_profit", 0.0))
            row.append(str(d.get("evictions", 0)))
            row.append(f"{d.get('forfeited_profit', 0.0):.2f}")
            row.append(f"{adj:.2f}")
        if with_dual_ub:
            ub = d.get("dual_upper_bound")
            row.append("-" if ub is None else f"{ub:.2f}")
        if with_peak_ub:
            pk = d.get("dual_upper_bound_peak")
            row.append("-" if pk is None else f"{pk:.2f}")
        if with_offline:
            opt = d.get("offline_profit")
            vs = d.get("profit_vs_offline")
            cr = d.get("competitive_ratio")
            row.append("-" if opt is None else f"{opt:.2f}")
            row.append("-" if vs is None else f"{vs:.3f}")
            row.append("-" if cr is None else f"{cr:.3f}")
        row += [
            f"{d.get('latency_p50_us', 0.0):.1f}",
            f"{d.get('latency_p99_us', 0.0):.1f}",
            f"{d.get('events_per_sec', 0.0):.0f}",
        ]
        rows.append(row)
    return _table(headers, rows)


def render_sharded_replay(result, merged=None) -> str:
    """Plan summary plus the per-shard / boundary / merged replay table.

    ``result`` is a :class:`~repro.sharding.StreamedReplayResult`;
    ``merged`` optionally overrides the merged metrics row (e.g. after
    :func:`~repro.online.metrics.with_offline` filled in the benchmark
    columns).  Rows are labelled ``shard-N`` / ``boundary`` / ``merged``
    in the policy column; the merged row's throughput is single-host
    wall clock, with the modeled critical-path rate appended below.
    """
    plan = result.plan
    lines = [
        f"{plan['by']} plan: {plan['shards']} shards, local demands "
        f"{plan['local_demands']}, boundary {plan['boundary_demands']} "
        f"demands ({100.0 * plan['boundary_fraction']:.1f}%, "
        f"profit {plan['boundary_profit']:.2f} — first-order divergence "
        f"scale vs the single-ledger replay)"
    ]
    docs: list[dict] = []
    for s, shard in enumerate(result.shard_results):
        doc = shard.metrics.to_dict()
        doc["policy"] = f"shard-{s}"
        docs.append(doc)
    if result.boundary_result is not None:
        doc = result.boundary_result.metrics.to_dict()
        doc["policy"] = "boundary"
        docs.append(doc)
    merged_doc = (merged if merged is not None else result.merged)
    merged_doc = (merged_doc if isinstance(merged_doc, dict)
                  else merged_doc.to_dict())
    merged_doc = dict(merged_doc, policy="merged")
    docs.append(merged_doc)
    lines.append(render_replay(docs))
    lines.append(
        f"critical path: {result.critical_path_s * 1e3:.1f} ms "
        f"({result.critical_path_events_per_sec:.0f} events/s across "
        f"{plan['shards']} workers)"
    )
    return "\n".join(lines)


def render_comparison(entries: Sequence[tuple[str, Solution]],
                      opt: float | None = None) -> str:
    """Side-by-side profit table for several solutions of one problem."""
    name_w = max(len(name) for name, _ in entries) + 2
    lines = [f"{'method':<{name_w}}{'profit':>10}{'size':>7}"
             + ("" if opt is None else f"{'OPT/ALG':>10}")]
    lines.append("-" * len(lines[0]))
    for name, sol in entries:
        row = f"{name:<{name_w}}{sol.profit:>10.2f}{sol.size:>7}"
        if opt is not None:
            row += f"{opt / max(sol.profit, 1e-12):>10.3f}"
        lines.append(row)
    if opt is not None:
        lines.append(f"{'exact OPT':<{name_w}}{opt:>10.2f}")
    return "\n".join(lines)
