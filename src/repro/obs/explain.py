"""Decision provenance: why is demand *k* in (or out of) the system?

:func:`explain_demand` assembles, at query time, the record a live
``{"op": "explain", "demand": k}`` request returns: the demand's
current status, every candidate instance with the policy-visible
inputs (route length, profit density, feasibility *now*), the dual
prices a price-carrying policy would charge those routes, the gate
comparison the policy would apply, and — for preemptive policies — the
victims the ledger's cheapest-density preemption plan would consider.

Everything here is a **pure read**: candidate probes, route prices and
preemption plans are query functions of the ledger/policy state, so an
explain request never perturbs the replay (the determinism contract
the observability layer lives under).  The record describes the world
*as it stands*: for a rejected demand it answers "what would happen if
it arrived again right now", which separates capacity blocking from
price/threshold gating — the two rejection modes the paper's policies
distinguish.
"""

from __future__ import annotations

__all__ = ["explain_demand"]


def _policy_view(policy) -> dict:
    """The gate parameters a policy exposes (JSON-safe, best effort)."""
    view = {"name": policy.name}
    for attr in ("threshold", "eta", "mu", "factor", "penalty"):
        value = getattr(policy, attr, None)
        if isinstance(value, (int, float)):
            view[attr] = float(value)
    return view


def _status(ledger, demand_id: int, arrived, departed) -> str:
    if ledger.is_admitted(demand_id):
        return "admitted"
    if ledger.was_evicted(demand_id):
        return "evicted"
    if ledger.was_admitted(demand_id):
        return "departed"
    if demand_id in departed:
        return "rejected"  # came and went without ever being admitted
    if demand_id in arrived:
        return "rejected"
    return "not-arrived"


def explain_demand(problem, ledger, policy, demand_id: int, *,
                   arrived=frozenset(), departed=frozenset()) -> dict:
    """One demand's decision-provenance record (pure query).

    Parameters mirror what the service holds: the frozen ``problem``,
    the live ``ledger`` and bound ``policy``, plus the service's
    arrived/departed stream sets (so status distinguishes "rejected"
    from "not arrived yet").
    """
    if not (0 <= demand_id < problem.num_demands):
        raise ValueError(f"unknown demand {demand_id}")
    demand = problem.demand(demand_id)
    price_of = getattr(policy, "route_price", None)
    preemptive = callable(getattr(policy, "_execute_preemption", None))
    eta = getattr(policy, "eta", None)
    threshold = getattr(policy, "threshold", None)

    cands = ledger.candidates(demand_id)
    ok = ledger.feasible(cands)
    candidates = []
    any_feasible = False
    any_passes = False
    for iid, feas in zip(cands.tolist(), ok.tolist()):
        length = ledger.route_length(iid)
        profit = ledger._profit[iid]
        density = profit / length
        row = {
            "instance": iid,
            "feasible": bool(feas),
            "route_length": length,
            "density": density,
        }
        if callable(price_of):
            price = float(price_of(iid))
            row["price"] = price
            if eta is not None:
                row["gate"] = eta * price
                row["passes_gate"] = profit > eta * price
        if threshold is not None:
            row["passes_threshold"] = density >= threshold
        if not feas and preemptive:
            victims = ledger.preemption_plan(iid)
            row["preemption_victims"] = victims
        candidates.append(row)
        passes = row.get("passes_gate", True) and row.get(
            "passes_threshold", True)
        if feas:
            any_feasible = True
            if passes:
                any_passes = True

    status = _status(ledger, demand_id, arrived, departed)
    doc = {
        "demand": demand_id,
        "status": status,
        "profit": float(demand.profit),
        "policy": _policy_view(policy),
        "candidates": candidates,
        "instance": ledger.admitted_instance(demand_id),
    }
    if status in ("rejected", "not-arrived"):
        # The would-it-fit-now verdict: capacity blocking vs gating.
        if not any_feasible:
            doc["verdict"] = "capacity-blocked"
        elif not any_passes:
            doc["verdict"] = ("gated" if callable(price_of)
                              else "below-threshold")
        else:
            doc["verdict"] = "admittable-now"
    else:
        doc["verdict"] = status
    return doc
