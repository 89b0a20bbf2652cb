"""Vectorization discipline for the columnar batch-decision fast path.

The batch kernels in :mod:`repro.online.fastpath` exist to amortize
per-event interpreter overhead across a whole window of events: one
load gather, a handful of segment reductions, one ``admit_many``.  A
per-event scalar call smuggled into a kernel — ``ledger.admit`` in a
loop, ``policy.on_arrival`` per demand, ``session.feed`` per event,
``ledger.preemption_plan`` per candidate, ``ledger.evict`` per victim —
silently reintroduces
exactly the overhead the fast path was built to remove, while the
byte-identity property tests keep passing (the
scalar calls *are* the reference semantics).  The regression is
invisible to correctness checks and only shows up as a benchmark
collapse, so the contract is enforced statically: inside a batch
kernel, decisions and ledger mutations go through the batched entry
points (``admit_many`` / ``release_many`` / ``evict_many``, the batch
routines they are built from, the kernel registry), never the per-event
scalar API.
"""

from __future__ import annotations

import ast

from ..base import Fixture, ParsedFile, Rule, register
from ..findings import Finding

__all__ = ["VectorizationRule"]

#: Functions the rule treats as batch kernels: the kernel halves
#: (``_kernel_*``) and any one-shot wrappers (``batch_*``) follow this
#: naming convention.
_KERNEL_PREFIXES = ("_kernel_", "batch_")

#: Per-event scalar entry points that must never appear inside a batch
#: kernel.  The batched counterparts (``admit_many``, ``release_many``,
#: ``evict_many``, ``feed_many``) are fine.
_SCALAR_CALLS = {
    "admit": "ledger.admit_many",
    "release": "ledger.release_many",
    "evict": "ledger.evict_many",
    "try_admit": "the kernel's own vectorized feasibility probe",
    "on_arrival": "the registered batch kernel",
    "on_departure": "a batched release",
    "on_tick": "nothing (ticks are no-ops in kernels)",
    "feed": "feed_many",
    "submit": "feed_many",
    "_dispatch": "the executor's scalar-fallback path, outside kernels",
    "preemption_plan": "the kernel's vectorized stage-1 planner and "
                       "closed-form eviction walk",
    "_best_plan": "the kernel's vectorized eviction walk and plan "
                  "ranking",
}


def _is_kernel(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return fn.name.startswith(_KERNEL_PREFIXES)


@register
class VectorizationRule(Rule):
    id = "VEC001"
    name = "scalar-call-in-batch-kernel"
    rationale = (
        "A batch kernel that calls the per-event scalar API — "
        "ledger.admit in a loop, policy.on_arrival per demand — "
        "reintroduces the per-event interpreter overhead the fast path "
        "exists to remove.  The byte-identity tests cannot catch it "
        "(the scalar calls are the reference semantics), so the only "
        "symptom is a silent benchmark collapse.  Kernels must mutate "
        "the ledger through the batched entry points only."
    )
    scope = "file"
    default_path = "online/fastpath.py"
    fixtures = [
        Fixture(
            bad=(
                "def _kernel_greedy(feeder, plan, i0, i1):\n"
                "    admitted = []\n"
                "    for d in plan.demands[i0:i1].tolist():\n"
                "        iid = feeder.ledger.admit(d)\n"
                "        if iid is not None:\n"
                "            admitted.append(iid)\n"
                "    return admitted\n"
            ),
            good=(
                "def _kernel_greedy(feeder, plan, i0, i1):\n"
                "    best = plan.best[i0:i1]\n"
                "    feeder.ledger.admit_many(best)\n"
                "    return best\n"
            ),
            note="the bad kernel admits one demand at a time through "
                 "the scalar ledger API inside the batch kernel",
        ),
        Fixture(
            bad=(
                "def _kernel_preempt_evaluate(feeder, plan, i0, i1):\n"
                "    ledger = feeder.ledger\n"
                "    pruned = 0\n"
                "    for iid in plan.iid[i0:i1].tolist():\n"
                "        if ledger.preemption_plan(iid, feeder.gate) is None:\n"
                "            pruned += 1\n"
                "    return pruned\n"
            ),
            good=(
                "def _kernel_preempt_evaluate(feeder, plan, i0, i1):\n"
                "    hot = plan.loads[i0:i1] + plan.heights[i0:i1] > 1.0\n"
                "    bound = np.maximum.reduceat(hot * plan.cheap, plan.rel)\n"
                "    return plan.profit <= feeder.gate * bound\n"
            ),
            note="the bad kernel plans every candidate through the "
                 "scalar preemption planner, one call per candidate",
        ),
        Fixture(
            bad=(
                "def _kernel_preempt_evict(feeder, plan, a, move):\n"
                "    iid, victims, profits = move\n"
                "    for d, p in zip(victims, profits):\n"
                "        feeder.ledger.evict(d, penalty=feeder.penalty * p)\n"
                "    feeder.ledger.admit_many([iid])\n"
            ),
            good=(
                "def _kernel_preempt_evict(feeder, plan, a, move):\n"
                "    iid, victims, profits = move\n"
                "    feeder.ledger.evict_many(\n"
                "        victims, [feeder.penalty * p for p in profits])\n"
                "    feeder.ledger.admit_many([iid])\n"
            ),
            note="the bad kernel evicts a plan's victims one at a time "
                 "through the scalar ledger API",
        ),
    ]

    def check_file(self, parsed: ParsedFile):
        for node in ast.walk(parsed.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_kernel(node):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                name = func.attr
                if name not in _SCALAR_CALLS:
                    continue
                yield Finding(
                    path=str(parsed.path), line=call.lineno,
                    col=call.col_offset, rule=self.id,
                    message=(
                        f"batch kernel {node.name!r} calls per-event "
                        f"scalar API .{name}(); use "
                        f"{_SCALAR_CALLS[name]} instead"
                    ),
                )
