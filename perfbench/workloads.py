"""The benchmark's workloads: one small declarative config each.

Every workload names the trace it generates from the seed, the policy
that admits it, and the pipeline that runs it (``replay``, ``serve`` or
``sharded``; see ``harness.py`` and ``worker.py``).  Callers select by
name, so a later change can run one workload alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Tree trace in the sharding benchmark's shape: 768-vertex tree, demands
#: confined to 4 balancer-cut parts with 5% cut-crossing demands.
TREE_WORKLOAD = {"n": 768, "boundary_fraction": 0.05, "parts": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pipeline: str  # "replay" | "serve" | "sharded"
    kind: str  # "line" | "tree"
    events: int
    departure_prob: float
    policy: str
    params: dict = field(default_factory=dict)
    #: Pipeline settings (serve: wire batch, stats cadence, journal
    #: window, checkpoint cadence; sharded: shard and worker counts).
    settings: dict = field(default_factory=dict)

    def trace_kwargs(self, seed: int) -> dict:
        """Keywords for ``repro.online.generate_trace``."""
        if self.kind == "line":
            # bench_online.py's shape: the timeline grows with the stream
            # so the run keeps admitting instead of probing a full line.
            workload = {"n_slots": max(512, self.events // 8)}
        else:
            workload = dict(TREE_WORKLOAD)
        return dict(kind=self.kind, events=self.events, process="poisson",
                    seed=seed, departure_prob=self.departure_prob,
                    workload=workload)


WORKLOADS = [
    Workload(
        name="line-preempt",
        why=("decisions dominate: preempt-density has no batch kernel, so "
             "the scalar loop, preemption planning and evictions set the pace"),
        pipeline="replay", kind="line", events=24_000, departure_prob=0.35,
        policy="preempt-density", params={"factor": 1.2},
    ),
    Workload(
        name="tree-serve",
        why=("the only path through CLI start-up, the JSON wire codec, the "
             "journal write and read paths, checkpoint restore and resume"),
        pipeline="serve", kind="tree", events=16_000, departure_prob=0.3,
        policy="dual-gated",
        settings={"feed_batch": 64, "stats_every": 8, "sync_window": 64,
                  "checkpoint_every": 5_000},
    ),
    Workload(
        name="tree-sharded",
        why=("the sharding layers: plan, shared geometry and two forked "
             "shard workers through StreamedShardedDriver in two-phase mode"),
        pipeline="sharded", kind="tree", events=24_000, departure_prob=0.3,
        policy="greedy-threshold",
        settings={"shards": 2, "processes": 2, "shard_by": "subtree"},
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS}


def select(names: list[str]) -> list[Workload]:
    """The named workloads in declaration order (``all`` = every one)."""
    if names == ["all"]:
        return list(WORKLOADS)
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; "
                         f"want one of {sorted(BY_NAME)} or all")
    return [BY_NAME[n] for n in names]
