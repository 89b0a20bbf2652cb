"""The fast path's closed-form eviction walk plans exactly as the scalar
planner, and ``evict_many`` evicts exactly as the ``evict`` loop.

``repro.online.fastpath`` decides a ``preempt-density`` arrival that
must evict in bulk: stage 1 of the planner for every candidate, then
the greedy eviction walk of every candidate that reaches it, in closed
form over holder ranks (``_kernel_preempt_plans``), then the ranking of
the viable plans (``_kernel_preempt_walk``).  These tests load random
ledgers over both topologies (plus tie-prone copies whose profits and
heights come from a few values) and demand, candidate by candidate, the
victims / ``None`` / ``PRUNED`` outcome ``CapacityLedger.
preemption_plan`` returns, and arrival by arrival the plan and the
``preempt_pruned`` count ``PreemptDensity`` produces.  Crafted ledgers
pin the boundaries: deficits that land exactly on ``_EPS``, a profit
exactly at the gate, density ties, a walk that runs out of holders and
a hot edge nobody holds behind a prunable one.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import Demand, TreeNetwork, TreeProblem
from repro.online import CapacityLedger, generate_trace, make_policy
from repro.online.events import Arrival, Departure
from repro.online.fastpath import (
    _kernel_preempt_evaluate,
    _kernel_preempt_plans,
    _kernel_preempt_walk,
    _prepare,
)
from repro.online.state import _EPS, PRUNED
from repro.session.kernel import AdmissionSession

PARAMS = [
    {"factor": 1.2},
    {"factor": 0.8, "penalty": 0.5},
    {"factor": 1.2, "penalty": 0.25, "threshold": 0.5},
    {"factor": 2.0, "threshold": 1.0},
]


@functools.lru_cache(maxsize=None)
def _problem(kind: str, seed: int, quantized: bool):
    """A generated trace's problem; ``quantized`` redraws every profit
    from {1, 2, 3} and every height from eighths, so densities tie and
    deficits cancel exactly."""
    problem = generate_trace(kind, events=400, seed=seed).problem
    if not quantized:
        return problem
    rng = np.random.default_rng(seed)
    cols = {f: np.array(c) for f, c in problem.columns.items()}
    m = problem.num_demands
    cols["profit"] = rng.choice([1.0, 2.0, 3.0], size=m)
    cols["height"] = rng.choice([0.125, 0.25, 0.375, 0.5, 0.625], size=m)
    return type(problem).from_columns(
        problem._span, problem._nets, cols,
        (problem._acc_indptr, problem._acc_nets))


def _loaded(problem, params: dict, seed: int):
    """A ``preempt-density`` session whose ledger holds a random
    feasible admission set, and the arrivals to plan: every demand not
    admitted, plus a few admitted ones (repeats)."""
    session = AdmissionSession(problem, make_policy("preempt-density",
                                                    **params))
    ledger = session.ledger
    rng = np.random.default_rng(seed)
    order = rng.permutation(problem.num_demands).tolist()
    for d in order[:len(order) * 2 // 3]:
        cands = ledger.candidates(d)
        ok = ledger.feasible(cands)
        if ok.any():
            ledger.admit(int(rng.choice(cands[ok])))
    rest = order[len(order) * 2 // 3:]
    return session, rest + [d for d, _ in ledger.admission_log[:3]]


def _outcome(ref):
    return "PRUNED" if ref is PRUNED else ref


def _check_walk(session, arrivals) -> dict:
    """Plan ``arrivals`` through the kernel and through the scalar
    planner against the same ledger; returns coverage counters."""
    feeder = session._fast
    ledger, policy = session.ledger, session.policy
    index = ledger.index
    demands = np.asarray(arrivals, dtype=np.int64)
    n = len(demands)
    plan = _prepare(feeder, demands, np.arange(n, dtype=np.int64))
    admits, hard, state = _kernel_preempt_evaluate(feeder, plan, 0, n)
    walked: dict = {}
    chosen: dict = {}
    if hard is not None and hard.any():
        walks, short, cut_off, v_cand, v_iid = _kernel_preempt_plans(
            feeder, plan, 0, n, state)
        for c in walks.nonzero()[0].tolist():
            walked[c] = ("PRUNED" if cut_off[c] else None if short[c]
                         else index._dem[v_iid[v_cand == c]].tolist())
        chosen = _kernel_preempt_walk(feeder, plan, 0, n, state)
    seen = {"walks": 0, "pruned": 0, "none": 0, "victims": 0, "multi": 0,
            "preempts": len(chosen)}
    for a, d in enumerate(demands.tolist()):
        cands = ledger.candidates(d).tolist()
        dense = [policy.threshold <= ledger._profit[i] / ledger.route_length(i)
                 for i in cands]
        fits = any(ok and keep for ok, keep
                   in zip(ledger.feasible(cands).tolist(), dense))
        repeat = ledger.was_admitted(d)
        assert bool(admits[a]) == (fits and not repeat), d
        if repeat or fits:
            assert hard is None or not hard[a]
            continue
        pruned = 0
        walks_here = False
        for c, iid, keep in zip(range(plan.cstart_l[a], plan.cstart_l[a + 1]),
                                cands, dense):
            if not keep:
                assert c not in walked
                continue
            ref = _outcome(ledger.preemption_plan(iid, feeder.gate))
            pruned += ref == "PRUNED"
            if c in walked:
                walks_here = True
                assert walked[c] == ref, (d, iid)
                seen["walks"] += 1
                seen["pruned" if ref == "PRUNED" else
                     "none" if ref is None else "victims"] += 1
                seen["multi"] += isinstance(ref, list) and len(ref) > 1
            else:
                assert ref in ("PRUNED", None, []), (d, iid, ref)
        assert bool(hard is not None and hard[a]) == walks_here, d
        before = policy.stats["preempt_pruned"]
        best = policy._best_plan(d)
        assert policy.stats["preempt_pruned"] - before == pruned
        assert (0 if state.pruned is None else int(state.pruned[a])) == pruned
        got = chosen.get(a)
        assert (None if got is None else (got[0], got[1])) == best, d
        if got is not None:
            assert got[2] == [ledger._profit[ledger.admitted_instance(v)]
                              for v in got[1]]
    return seen


@pytest.mark.parametrize("quantized", [False, True],
                         ids=["generated", "ties"])
@pytest.mark.parametrize("kind", ["line", "tree"])
def test_walk_matches_scalar_planner(kind, quantized):
    total: dict = {}
    for seed in range(3):
        problem = _problem(kind, seed, quantized)
        for j, params in enumerate(PARAMS):
            session, arrivals = _loaded(problem, params, 10 * seed + j)
            for key, val in _check_walk(session, arrivals).items():
                total[key] = total.get(key, 0) + val
    # Every outcome of the walk a consistent ledger allows shows up (a
    # walk that runs out of holders needs drifted loads, crafted below).
    assert total["walks"] and total["pruned"] and total["victims"], total
    assert total["multi"] and total["preempts"], total


@pytest.mark.parametrize("kind", ["line", "tree"])
def test_tie_prone_replay_is_byte_identical(kind):
    """End to end on the tie-prone problems: fast path and scalar loop
    give the same logs, counters, profits, loads and holder column."""
    problem = _problem(kind, 1, True)
    rng = np.random.default_rng(7)
    events = []
    for t, d in enumerate(rng.permutation(problem.num_demands).tolist()):
        events.append(("arrival", float(t), d))
        if rng.random() < 0.3:
            gone = int(rng.integers(problem.num_demands))
            events.append(("departure", t + 0.5, gone))
    evs = [Arrival(t, d) if k == "arrival" else Departure(t, d)
           for k, t, d in events]
    evictions = 0
    for params in PARAMS:
        sigs = []
        for fast in (True, False):
            session = AdmissionSession(
                problem, make_policy("preempt-density", **params),
                fastpath=fast)
            session.feed_many(evs)
            led = session.ledger
            sigs.append((led.admission_log, led.eviction_log,
                         led._profit_admitted.hex(),
                         led._profit_forfeited.hex(),
                         led._penalty_paid.hex(), dict(session.policy.stats),
                         led.load.tobytes(), led._cheapest.tobytes()))
            session.close(verify=True)
        assert sigs[0] == sigs[1], params
        evictions += len(sigs[0][1])
    assert evictions, "no evictions: the case exercises nothing"


# ----------------------------------------------------------------------
# Crafted boundaries on a path
# ----------------------------------------------------------------------


def _path(demands):
    """A path ``0 - 1 - 2 - 3``; demands are ``(u, v, profit, height)``."""
    net = TreeNetwork(4, [(0, 1), (1, 2), (2, 3)], network_id=0)
    return TreeProblem(n=4, networks=[net],
                       demands=[Demand(d, u, v, p, height=h)
                                for d, (u, v, p, h) in enumerate(demands)])


def _exact_eps_heights() -> tuple[float, float]:
    """Heights ``(a, h)``: with a holder of ``a`` and one of 0.5 on an
    edge, an arrival of height ``h`` has deficit ``(0.5 + a + h) - 1``,
    and evicting the ``a`` holder leaves exactly ``_EPS``."""
    for m in range(4_600_000, 12_800_000, 37_171):
        x = m * 2.0 ** -52
        a = x - _EPS
        if a <= 0 or x - a != _EPS:
            continue
        h = (1.0 + x) - (0.5 + a)
        if 0 < h <= 1 and ((0.5 + a) + h) - 1.0 - a == _EPS:
            return a, h
    raise AssertionError("no exact-_EPS heights found")


@pytest.mark.parametrize("params", PARAMS[:2], ids=["plain", "penalty"])
def test_deficit_landing_exactly_on_eps_cools_the_edge(params):
    """The first victim leaves the deficit at exactly ``_EPS``: the
    edge is cool (``<= _EPS``), so the cheaper holder alone is evicted."""
    a, h = _exact_eps_heights()
    problem = _path([(0, 1, 1.0, 0.5), (0, 1, 0.5, a), (0, 1, 9.0, h)])
    session = AdmissionSession(problem, make_policy("preempt-density",
                                                    **params))
    session.ledger.admit(0)
    session.ledger.admit(1)
    eid = int(session.ledger._edge_ids(2)[0])
    deficit = (session.ledger.load[eid] + h) - 1.0
    assert deficit > _EPS and deficit - a == _EPS
    assert session.ledger.preemption_plan(2) == [1]
    seen = _check_walk(session, [2])
    assert seen["victims"] == 1 and seen["preempts"] == 1


def _final_eps_heights() -> tuple[float, float]:
    """``(a, load)``: with holders of 0.25 and ``a`` on an edge that
    carries ``load``, an arrival of height 0.5 has deficit ``0.25 + x``;
    evicting both holders, one at a time, leaves exactly ``_EPS`` —
    while subtracting their summed heights would leave more."""
    for m in range(4_000_000, 13_000_000, 1_009):
        x = m * 2.0 ** -52
        a = x - _EPS
        load = (0.25 + x) + 0.5
        if (a > 0 and x - a == _EPS and (load + 0.5) - 1.0 == 0.25 + x
                and (0.25 + x) - 0.25 == x
                and (0.25 + x) - (0.25 + a) > _EPS):
            return a, load
    raise AssertionError("no exact-_EPS heights found")


def test_walk_ending_exactly_on_eps_completes():
    """The last holder leaves the deficit at exactly ``_EPS``: the plan
    completes with both holders, found by subtracting them one rank at
    a time.  The extra load is written directly."""
    a, load = _final_eps_heights()
    problem = _path([(0, 1, 1.0, 0.25), (0, 1, 2.0, a), (0, 1, 9.0, 0.5)])
    session = AdmissionSession(problem, make_policy("preempt-density"))
    ledger = session.ledger
    ledger.admit(0)
    ledger.admit(1)
    ledger.load[ledger._edge_ids(2)] = load
    assert ledger.preemption_plan(2) == [0, 1]
    seen = _check_walk(session, [2])
    assert seen["victims"] == 1 and seen["preempts"] == 1


def test_profit_exactly_at_the_gate_rejects():
    """A complete plan whose cost times the gate equals the arrival's
    profit is rejected, as ``profit <= gate * cost`` says."""
    problem = _path([(0, 1, 1.0, 0.5), (0, 1, 1.0, 0.5), (0, 1, 4.0, 1.0)])
    session = AdmissionSession(problem, make_policy("preempt-density",
                                                    factor=2.0))
    session.ledger.admit(0)
    session.ledger.admit(1)
    assert session.ledger.preemption_plan(2, 2.0) == [0, 1]
    assert session.policy._best_plan(2) is None
    seen = _check_walk(session, [2])
    assert seen["victims"] == 1 and seen["preempts"] == 0


@pytest.mark.parametrize("prunable", [True, False])
@pytest.mark.parametrize("holderless_first", [True, False])
def test_holderless_hot_edge(prunable, holderless_first):
    """A hot edge nobody holds ends the plan (``None``) unless the
    cheapest-holder bound of the hot edges before it already prunes.
    A consistent ledger never has one (heights are at most 1), so the
    load is written directly; both planners read the same state."""
    holder_profit = 9.0 if prunable else 1.0
    problem = _path([(0, 1, holder_profit, 0.6), (1, 2, 1.0, 0.6),
                     (0, 2, 5.0, 0.6)])
    session = AdmissionSession(problem, make_policy("preempt-density",
                                                    factor=1.2))
    ledger = session.ledger
    first, second = ledger._edge_ids(2).tolist()
    held, bare = (second, first) if holderless_first else (first, second)
    ledger.admit(0 if held == int(ledger._edge_ids(0)[0]) else 1)
    ledger.load[bare] = 0.6
    expect = "PRUNED" if prunable and not holderless_first else None
    assert _outcome(ledger.preemption_plan(2, session._fast.gate)) == expect
    _check_walk(session, [2])


@pytest.mark.parametrize("factor", [1.2, 2.5])
def test_walk_that_runs_out_of_holders(factor):
    """Evicting every holder of a hot edge still leaves it over
    capacity: the walk plans ``None``, or prunes once the victims'
    profits lift the bound.  The extra load is written directly, as
    drift would leave it."""
    problem = _path([(0, 1, 1.0, 0.3), (0, 1, 2.0, 0.2), (0, 1, 4.0, 0.6)])
    session = AdmissionSession(problem, make_policy("preempt-density",
                                                    factor=factor))
    ledger = session.ledger
    ledger.admit(0)
    ledger.admit(1)
    ledger.load[ledger._edge_ids(2)] = 1.0
    expect = "PRUNED" if factor == 2.5 else None
    assert _outcome(ledger.preemption_plan(2, session._fast.gate)) == expect
    seen = _check_walk(session, [2])
    assert seen["walks"] == 1 and seen["none" if expect is None
                                       else "pruned"] == 1


def test_density_ties_walk_in_demand_order():
    """Holders of equal density are evicted lowest demand id first,
    whatever their admission order."""
    problem = _path([(0, 1, 2.0, 0.3), (0, 1, 2.0, 0.3), (0, 1, 2.0, 0.3),
                     (0, 1, 9.0, 0.5)])
    session = AdmissionSession(problem, make_policy("preempt-density"))
    for iid in (2, 0, 1):
        session.ledger.admit(iid)
    assert session.ledger.preemption_plan(3) == [0, 1]
    seen = _check_walk(session, [3])
    assert seen["preempts"] == 1


# ----------------------------------------------------------------------
# evict_many against the evict loop
# ----------------------------------------------------------------------


def _ledger_with_overlaps(kind: str, seed: int) -> CapacityLedger:
    ledger = CapacityLedger(_problem(kind, seed, True))
    for d in range(ledger.problem.num_demands):
        cands = ledger.candidates(d)
        ok = ledger.feasible(cands)
        if ok.any():
            ledger.admit(int(cands[ok][0]))
    return ledger


def _full_state(led: CapacityLedger):
    return (led.load.tobytes(), led._cheapest.tobytes(),
            sorted(led._admitted.items()), sorted(led._evicted),
            list(led.eviction_log), list(led.admission_log),
            led._profit_forfeited.hex(), led._penalty_paid.hex(),
            led.realized_profit.hex(),
            [sorted(h) for h in led._holders_by_edge])


@pytest.mark.parametrize("kind", ["line", "tree"])
@pytest.mark.parametrize("seed", range(3))
def test_evict_many_matches_evict_loop(kind, seed):
    rng = np.random.default_rng(seed)
    loop = _ledger_with_overlaps(kind, seed)
    batch = _ledger_with_overlaps(kind, seed)
    assert _full_state(loop) == _full_state(batch)
    for _ in range(4):
        # Victims that share edges: every holder of a few loaded edges.
        edges = rng.choice(np.flatnonzero(loop.load > 0), 3,
                           replace=False).tolist()
        victims = sorted({d for e in edges for d in loop._holders_by_edge[e]},
                         key=lambda d: (rng.random(), d))
        penalties = [float(x) for x in rng.choice([0.0, 0.25, 1.5],
                                                  len(victims))]
        got = batch.evict_many(victims, penalties)
        ref = [loop.evict(d, penalty=p) for d, p in zip(victims, penalties)]
        assert got == ref
        assert _full_state(loop) == _full_state(batch)
    assert loop.num_evicted > 6
    loop.verify()
    batch.verify()


def test_evict_many_is_atomic():
    ledger = _ledger_with_overlaps("line", 0)
    held = [d for d, _ in ledger.admission_log[:3]]
    before = _full_state(ledger)
    for victims, penalties, exc in [
            (held + [10 ** 6], [0.0] * 4, KeyError),
            (held + held[:1], [0.0] * 4, ValueError),
            (held, [0.0, -1.0, 0.0], ValueError),
            (held, [0.0, 0.0], ValueError)]:
        with pytest.raises(exc):
            ledger.evict_many(victims, penalties)
        assert _full_state(ledger) == before
    assert ledger.evict_many([], []) == []
    assert _full_state(ledger) == before
