"""Pluggable admission policies for the streaming driver.

Five built-in policies, selectable by name through :func:`make_policy`
(the CLI's ``replay --policy`` and the replay runner dispatch here):

* ``greedy-threshold`` — admit a demand iff some instance fits the
  residual capacity and its profit density (profit / route length)
  clears a fixed threshold.  Thresholds trade acceptance for profit.
* ``dual-gated`` — online primal-dual admission.  Every edge carries an
  exponential price in its current load (the classic online packing
  price function); a demand is admitted iff its profit beats the
  height-weighted price of some feasible route.  Prices need no extra
  state: they are evaluated from the ledger's live loads, so departures
  automatically deflate them.
* ``batch-resolve`` — buffer arrivals and periodically hand the buffer
  to any registry solver on a subproblem over the buffered demands.  By
  default the subproblem is *residual-capacity aware*: the admitted
  load rides along as dominating blocker demands, so the solver
  optimizes against what is actually still free (``residual=False``
  restores the legacy post-filtering).  Nothing already admitted is
  ever preempted.  On a departure-free trace, the ``exact`` solver with
  a single final flush reproduces the offline optimum (with departures,
  buffered demands that leave before the flush are dropped, so the
  flush optimizes only the survivors).
* ``preempt-density`` — first-fit like greedy-threshold, but a blocked
  arrival may *evict* the cheapest-density holders along the contested
  route when its profit exceeds theirs by a configurable factor (the
  classic preemption rule; evictees forfeit their profit and may be owed
  a penalty).
* ``preempt-dual-gated`` — dual-gated admission that, when no instance
  fits, evicts when the arrival's profit beats the sum of the evictees'
  profits plus the dual price of the freed route.

A policy mutates the shared :class:`~repro.online.state.CapacityLedger`
only through ``admit`` and ``evict``; the driver owns releases (natural
departures).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.demand import Demand, WindowDemand
from ..core.instance import TreeProblem, subproblem_of
from .state import PRUNED, CapacityLedger

__all__ = [
    "AdmissionPolicy",
    "GreedyThreshold",
    "DualGated",
    "BatchResolve",
    "PreemptDensity",
    "PreemptDualGated",
    "POLICY_NAMES",
    "make_policy",
]

#: Stable policy names, as accepted by :func:`make_policy` and the CLI.
POLICY_NAMES = ("greedy-threshold", "dual-gated", "batch-resolve",
                "preempt-density", "preempt-dual-gated")


class AdmissionPolicy:
    """Base class: event hooks over a bound :class:`CapacityLedger`."""

    name = "abstract"

    def bind(self, ledger: CapacityLedger) -> None:
        """Attach to a ledger; called once before the replay starts."""
        self.ledger = ledger
        self.stats: dict = {}

    def on_arrival(self, demand_id: int) -> int | None:
        """Decide on an arriving demand; return the admitted instance id
        (or ``None`` when rejected or deferred)."""
        raise NotImplementedError

    def batch_kernel(self) -> str | None:
        """Name of this policy's vectorized batch kernel, or ``None``.

        A non-``None`` name (a :data:`repro.online.fastpath.BATCH_KERNELS`
        key) advertises that the columnar fast path can evaluate
        ``on_arrival`` for a whole window of events against the
        run-entry ledger and apply every verdict up to the first
        conflicting mutation, bit-identically.  Only policies whose
        decisions read nothing but the ledger state on the arrival's
        own candidate routes (loads, holders) and its own demand
        qualify; anything with per-event buffering returns ``None``
        (the default).  A kernel may still flag single arrivals as
        *hard* — a preemption that would evict holders — which the
        executor hands to ``on_arrival`` one at a time.
        """
        return None

    def on_departure(self, demand_id: int) -> None:
        """Called after the driver released a departing demand."""

    def on_tick(self, now: float) -> None:
        """Called on :class:`~repro.online.events.Tick` events."""

    def finish(self) -> None:
        """Called once after the last event (final flush point)."""

    def export_state(self) -> dict:
        """JSON-safe snapshot of the policy's mutable state.

        Derived state that :meth:`bind` recomputes from the problem
        (price bases, instance lookups) is *not* exported; subclasses
        extend this with whatever their decisions depend on, so that
        ``bind`` + :meth:`restore_state` reproduces the live policy
        bit for bit (the checkpoint path relies on it).
        """
        return {"stats": dict(self.stats)}

    def restore_state(self, state: dict) -> None:
        """Reset to an :meth:`export_state` snapshot; call after bind.

        A counter the snapshot lacks (one added after it was written,
        such as ``preempt_pruned``) keeps the value :meth:`bind` gave it.
        """
        self.stats = {**self.stats, **state["stats"]}


class GreedyThreshold(AdmissionPolicy):
    """First-fit admission gated by a profit-density threshold.

    Parameters
    ----------
    threshold:
        Minimum profit per route edge; 0 (default) admits anything that
        fits, ``inf`` rejects everything.
    """

    name = "greedy-threshold"

    def __init__(self, threshold: float = 0.0):
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = float(threshold)

    def on_arrival(self, demand_id: int) -> int | None:
        return self.ledger.try_admit(demand_id, min_density=self.threshold)

    def batch_kernel(self) -> str | None:
        return "greedy-threshold"


class DualGated(AdmissionPolicy):
    """Online primal-dual admission with exponential edge prices.

    The price of an edge at load ``ℓ`` is ``(pmin / L) · (μ^ℓ − 1)``
    where ``L`` is the longest route and ``μ = max(2, L · pmax/pmin)``:
    an empty edge is free, a full edge prices at ≈ ``pmax``, so the gate
    ramps from "admit everything" to "only the most profitable demands"
    exactly as the network fills.  A demand is admitted through the
    feasible instance with the cheapest route price, iff its profit
    strictly beats ``eta`` times that price (height-weighted).

    Because prices are a pure function of the ledger's live loads, a
    departure instantly lowers the gate on the edges it frees.

    Parameters
    ----------
    eta:
        Gate stiffness; >1 demands a margin over the dual price, <1
        relaxes toward greedy.  Default 1.0.
    mu:
        Price base override, finite and > 1 (so every price is >= 0
        and grows with load); ``None`` derives it from the problem's
        profit spread and route lengths as above.
    history:
        Opt-in tighter certificate: record per-edge price *histories*
        (load-vector snapshots along the admission trajectory, not just
        the peaks) and certify the minimum bound over the trajectory —
        every snapshot is a valid dual by weak duality, and mid-stream
        snapshots are often tighter than the peaks on lightly loaded
        edges.  Costs one O(edges) copy per admission (geometrically
        thinned to a bounded set), so it is off by default.
    """

    name = "dual-gated"

    #: History snapshots kept before geometric thinning kicks in.
    _MAX_SNAPSHOTS = 256

    def __init__(self, eta: float = 1.0, mu: float | None = None,
                 history: bool = False):
        if eta <= 0:
            raise ValueError("eta must be positive")
        if mu is not None:
            mu = float(mu)
            # At mu = 1 every price is 0; below 1 a fuller edge is
            # cheaper; NaN/inf prices break every comparison.
            if not math.isfinite(mu) or mu <= 1.0:
                raise ValueError(f"mu must be finite and > 1, got {mu}")
        self.eta = float(eta)
        self._mu_override = mu
        self.history = bool(history)

    def bind(self, ledger: CapacityLedger) -> None:
        super().bind(ledger)
        problem = ledger.problem
        if problem.num_demands:
            pmin, pmax = problem.profit_range()
        else:
            pmin = pmax = 1.0
        L = max(ledger._route_len, default=1)
        self.mu = (float(self._mu_override) if self._mu_override is not None
                   else max(2.0, L * pmax / max(pmin, 1e-12)))
        self._scale = pmin / L
        # Peak per-edge loads over the price trajectory, seeded from the
        # loads at bind time (nonzero when the sharded coordinator
        # pre-admitted state before handing the ledger over).  Loads only
        # set new peaks immediately after an admission, so noting peaks
        # there captures the whole trajectory.
        self._peak = ledger.load.copy()
        # Price-history snapshots (opt-in): load vectors along the
        # admission trajectory, geometrically thinned so memory stays
        # bounded on long streams.
        self._snapshots: list[np.ndarray] = []
        self._snap_stride = 1
        self._snap_seen = 0
        self.stats = {"gated": 0, "capacity_blocked": 0, "max_gate": 0.0}
        # The certificate is cached until its inputs change: the peaks
        # and snapshots (``_peak_version``, bumped by every fold into
        # them) and, with history, the live loads (the ledger's
        # ``_version``).
        self._peak_version = 0
        self._cert_key: tuple | None = None
        self._cert: dict = {}

    def batch_kernel(self) -> str | None:
        # History snapshots are taken per admission along the exact
        # scalar trajectory; the batch kernel would thin differently,
        # so the opt-in history mode stays on the scalar path.
        return None if self.history else "dual-gated"

    def _price_from_loads(self, iid: int, loads: np.ndarray) -> float:
        """Height-weighted exponential price of ``iid``'s route at the
        given per-edge ``loads`` (not necessarily the current ones).

        The route sum runs through ``np.add.reduceat`` — whose per-
        segment reduction is bit-identical whether it sums one segment
        or many, independent of buffer alignment — so the batch kernel
        (:mod:`repro.online.fastpath`) reproduces these prices exactly
        with one multi-segment call.  (``np.sum``'s pairwise blocking
        has no such segment-batched equivalent.)
        """
        if len(loads) == 0:
            return 0.0
        price = self._scale * float(
            np.add.reduceat(np.power(self.mu, loads) - 1.0, [0])[0]
        )
        return self.ledger._height[iid] * price

    def route_price(self, iid: int) -> float:
        """Height-weighted exponential price of ``iid``'s route now."""
        return self._price_from_loads(iid, self.ledger.route_loads(iid))

    def on_arrival(self, demand_id: int) -> int | None:
        ledger = self.ledger
        cands = ledger.candidates(demand_id)
        ok = ledger.feasible(cands)
        if not ok.any():
            self.stats["capacity_blocked"] += 1
            return None
        return self._admit_cheapest_feasible(cands, ok)

    def _admit_cheapest_feasible(self, cands, ok) -> int | None:
        """Price-gate the feasible candidates (mask precomputed by the
        caller, so subclasses don't pay the batched probe twice)."""
        ledger = self.ledger
        best, best_price = None, math.inf
        for iid in cands[ok].tolist():
            price = self.route_price(iid)
            if price < best_price:
                best, best_price = iid, price
        self.stats["max_gate"] = max(self.stats["max_gate"], best_price)
        profit = ledger._profit[best]
        if profit <= self.eta * best_price:
            self.stats["gated"] += 1
            return None
        ledger.admit(best)
        self._note_peak(best)
        return best

    def _note_peak(self, iid: int) -> None:
        """Fold the post-admission loads of ``iid``'s route into the peaks."""
        eids = self.ledger._edge_ids(iid)
        load = self.ledger.load
        self._peak[eids] = np.maximum(self._peak[eids], load[eids])
        self._peak_version += 1
        if self.history:
            self._snap_seen += 1
            if self._snap_seen % self._snap_stride == 0:
                self._snapshots.append(load.copy())
                if len(self._snapshots) > self._MAX_SNAPSHOTS:
                    # Keep every other snapshot and double the stride:
                    # coverage stays trajectory-wide at bounded memory.
                    self._snapshots = self._snapshots[1::2]
                    self._snap_stride *= 2

    def _dual_bound_at(self, loads: np.ndarray) -> tuple[float, float]:
        """``(beta_total, z_total)`` of the dual assignment induced by
        pricing every edge at ``loads`` — valid for any ``loads >= 0``
        by weak duality (see :meth:`price_certificate`)."""
        ledger = self.ledger
        idx = ledger.index
        beta = self._scale * (np.power(self.mu, loads) - 1.0)
        if len(idx):
            route = (np.add.reduceat(beta[idx._flat_edges], idx._indptr[:-1])
                     if len(idx._flat_edges) else np.zeros(len(idx)))
            slack = idx._profits - idx._heights * route
            z = np.zeros(idx.num_demands)
            np.maximum.at(z, idx._dix, slack)
            z_total = math.fsum(z.tolist())
        else:
            z_total = 0.0
        # fsum: the totals must not depend on edge/demand interning
        # order, so a sliced shard view of a shared index certifies the
        # exact same bound as a from-scratch per-shard build.
        return math.fsum(beta.tolist()), z_total

    def price_certificate(self) -> dict:
        """LP-dual upper bound certified by the price trajectory.

        Setting edge duals ``β(e)`` to the exponential price at the
        trajectory's *peak* load and demand duals
        ``z(a) = max_i (p_i − h_i · Σ_{e∈i} β(e))⁺`` over ``a``'s
        instances satisfies every dual constraint by construction, so by
        weak duality ``Σ_e β(e) + Σ_a z(a)`` upper-bounds the offline
        LP optimum of the trace's frozen problem — the online analogue
        of the offline ``opt_upper_bound`` certificate, derived from the
        replay itself at no extra solver cost.  (Validity holds for any
        ``β ≥ 0``; the peaks only make the bound tight where the gate
        actually ramped.)

        With ``history=True`` the same dual assignment is additionally
        evaluated at every recorded trajectory snapshot (and the final
        loads) — each is an independently valid dual, so the certified
        ``upper_bound`` is the *minimum* over the whole family, with the
        peak-based bound echoed as ``peak_upper_bound`` for the
        side-by-side report column.

        The document is computed once per state of its inputs (see
        ``bind``) and handed out as a copy.
        """
        key = (self._peak_version,
               self.ledger._version if self.history else None)
        if key != self._cert_key:
            self._cert = self._certify()
            self._cert_key = key
        return dict(self._cert)

    def _certify(self) -> dict:
        """:meth:`price_certificate`, computed afresh."""
        beta_total, z_total = self._dual_bound_at(self._peak)
        peak_bound = beta_total + z_total
        doc = {
            "upper_bound": peak_bound,
            "beta_total": beta_total,
            "z_total": z_total,
            "peak_load": float(self._peak.max()) if len(self._peak) else 0.0,
            "mu": float(self.mu),
            "priced_edges": int(np.count_nonzero(self._peak)),
        }
        if self.history:
            best = peak_bound
            candidates = self._snapshots + [self.ledger.load]
            for loads in candidates:
                b, z = self._dual_bound_at(loads)
                best = min(best, b + z)
            doc["upper_bound"] = best
            doc["peak_upper_bound"] = peak_bound
            doc["history_points"] = len(candidates)
        return doc

    def export_state(self) -> dict:
        # The peaks and history snapshots are part of the certificate's
        # trajectory; stored verbatim so a restored run certifies the
        # exact same bound (mu/_scale are recomputed by bind).
        state = super().export_state()
        state["peak"] = self._peak.tolist()
        state["snapshots"] = [s.tolist() for s in self._snapshots]
        state["snap_stride"] = self._snap_stride
        state["snap_seen"] = self._snap_seen
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._peak = np.asarray(state["peak"], dtype=np.float64)
        self._snapshots = [np.asarray(s, dtype=np.float64)
                           for s in state["snapshots"]]
        self._snap_stride = int(state["snap_stride"])
        self._snap_seen = int(state["snap_seen"])
        self._peak_version += 1


class BatchResolve(AdmissionPolicy):
    """Buffer arrivals; periodically re-solve and admit the winners.

    Every ``resolve_every`` buffered arrivals (and on every tick, and
    once at the end of the trace) the buffer becomes a subproblem over
    the same networks/access sets, any registry solver optimizes it, and
    the selected instances are admitted greedily in profit order.
    Admitted demands are never preempted; buffered demands that depart
    before a flush are dropped (they left unserved).

    In **residual** mode (the default) the subproblem carries the
    admitted load: one pinned *blocker* demand per currently-admitted
    instance — same route, same height, priced to dominate every real
    candidate — so the solver optimizes the buffer against the residual
    capacity the admitted set leaves behind instead of re-filling
    occupied edges and losing the collisions to a post-filter.  Blockers
    are stripped from the selection before admission; the feasibility
    check at admission time stays as a safety net (``displaced`` counts
    the rare survivors an approximate solver lets through by dropping a
    blocker).  ``residual=False`` restores the legacy post-filtering
    behaviour.

    Parameters
    ----------
    solver:
        Registry name (``"auto"``, ``"exact"``, ``"greedy"``, ...).
    resolve_every:
        Flush the buffer whenever it reaches this many demands; ``0``
        defers everything to ticks and the final flush.
    solver_params:
        Extra keyword arguments for the solver (epsilon, seed, ...).
    residual:
        Carry admitted load into the re-solve via blocker demands
        (default) instead of post-filtering collisions.
    """

    name = "batch-resolve"

    def __init__(self, solver: str = "auto", resolve_every: int = 256,
                 solver_params: dict | None = None,
                 residual: bool = True):
        if resolve_every < 0:
            raise ValueError("resolve_every must be >= 0")
        self.solver = solver
        self.resolve_every = int(resolve_every)
        self.solver_params = dict(solver_params or {})
        self.residual = bool(residual)

    def bind(self, ledger: CapacityLedger) -> None:
        super().bind(ledger)
        self.buffer: list[int] = []
        # Companion membership set: departures must not scan the buffer
        # (it can hold every live arrival in final-flush-only mode).
        self._buffered: set[int] = set()
        self.stats = {"flushes": 0, "buffered": 0, "displaced": 0,
                      "blockers": 0}

    def on_arrival(self, demand_id: int) -> int | None:
        self.buffer.append(demand_id)
        self._buffered.add(demand_id)
        self.stats["buffered"] += 1
        if self.resolve_every and len(self.buffer) >= self.resolve_every:
            self._flush()
        return None

    def on_departure(self, demand_id: int) -> None:
        self._buffered.discard(demand_id)

    def on_tick(self, now: float) -> None:
        self._flush()

    def finish(self) -> None:
        self._flush()

    def export_state(self) -> dict:
        state = super().export_state()
        state["buffer"] = list(self.buffer)
        state["buffered"] = sorted(self._buffered)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.buffer = [int(d) for d in state["buffer"]]
        self._buffered = {int(d) for d in state["buffered"]}

    # ------------------------------------------------------------------

    def _subproblem(self, demand_ids: list[int]) -> tuple:
        """The buffered demands as a standalone problem (ids densified).

        Returns ``(problem, n_real)``: demands ``0 .. n_real-1`` are the
        buffered candidates (aligned with ``demand_ids``); anything
        beyond is a residual-capacity blocker pinned to one admitted
        instance's exact route.  A blocker's profit is
        ``(Σ real profits + 1) × route length``, so its profit *density*
        strictly dominates every real candidate — density-greedy picks
        blockers first and the exact solver always prefers them, either
        way reproducing the admitted load before any real demand is
        placed.
        """
        p = self.ledger.problem
        n_real = len(demand_ids)
        blockers: list = []
        blocker_access: list = []
        if self.residual:
            ledger = self.ledger
            index = ledger.index
            # Only admitted load that can actually constrain the buffer
            # matters: a blocker sharing no edge with any candidate
            # placement of any buffered demand cannot change the solve,
            # so pruning it is exact (and keeps flush cost proportional
            # to the *contested* load, not the whole admitted set).
            relevant: set[int] = set()
            for d in demand_ids:
                for cand in ledger.candidates(d).tolist():
                    relevant.update(index.edge_ids(cand).tolist())
            dominating = math.fsum(
                p.columns["profit"][demand_ids].tolist()) + 1.0
            tree = isinstance(p, TreeProblem)
            for _, iid in ledger.admitted_items():
                if relevant.isdisjoint(index.edge_ids(iid).tolist()):
                    continue
                inst = index.instance(iid)
                if tree:
                    length = max(len(inst.path_edges), 1)
                    blockers.append(Demand(
                        demand_id=0, u=inst.u, v=inst.v,
                        profit=dominating * length, height=inst.height,
                    ))
                else:
                    length = inst.length
                    blockers.append(WindowDemand(
                        demand_id=0, release=inst.start,
                        deadline=inst.end, proc_time=length,
                        profit=dominating * length, height=inst.height,
                    ))
                blocker_access.append({inst.network_id})
        return subproblem_of(p, demand_ids, blockers, blocker_access), n_real

    def _flush(self) -> None:
        from ..algorithms import registry

        # Departed demands were only unlinked from the membership set;
        # filter them out here, once per flush.
        demand_ids = [d for d in self.buffer if d in self._buffered]
        self.buffer.clear()
        self._buffered.clear()
        if not demand_ids:
            return
        self.stats["flushes"] += 1
        sub, n_real = self._subproblem(demand_ids)
        self.stats["blockers"] += sub.num_demands - n_real
        solution = registry.solve(self.solver, sub, **self.solver_params)
        chosen = sorted(solution.selected, key=lambda d: (-d.profit, d.demand_id))
        ledger = self.ledger
        for inst in chosen:
            if inst.demand_id >= n_real:
                continue  # a blocker: admitted load, not a candidate
            # The ledger instance the solver's pick stands for: the
            # original demand's candidate on the same network (and, on
            # lines, at the same start).
            cands = ledger.candidates(demand_ids[inst.demand_id])
            index = ledger.index
            same = index._net_arr[cands] == inst.network_id
            if index._geometry == "interval":
                same &= index._starts[cands] == inst.start
            iid = int(cands[same][0])
            if ledger.feasible([iid])[0]:
                ledger.admit(iid)
            else:
                self.stats["displaced"] += 1


class _PreemptiveAdmission(AdmissionPolicy):
    """Shared evict-and-admit epilogue for the preemptive policies.

    Subclasses provide ``self.penalty`` (compensation fraction per
    evictee) and the ``evictions`` / ``preempt_admits`` /
    ``preempt_pruned`` stats keys.  ``preempt_pruned`` counts candidates
    whose plan the ledger abandoned because the policy's gate provably
    rejects it (see :meth:`CapacityLedger.preemption_plan`).
    """

    def _execute_preemption(self, iid: int, victims: list[int]) -> int:
        ledger = self.ledger
        for v in victims:
            v_profit = ledger._profit[ledger.admitted_instance(v)]
            ledger.evict(v, penalty=self.penalty * v_profit)
        self.stats["evictions"] += len(victims)
        self.stats["preempt_admits"] += 1
        ledger.admit(iid)
        return iid


class PreemptDensity(_PreemptiveAdmission):
    """First-fit admission with cheapest-density preemption.

    An arrival that fits is admitted exactly as ``greedy-threshold``
    would.  When *no* instance fits, the policy asks the ledger for the
    cheapest-density eviction set along each candidate route
    (:meth:`~repro.online.state.CapacityLedger.preemption_plan`) and
    preempts iff the arrival's profit strictly exceeds ``(factor +
    penalty)`` times the victims' total profit — the margin must also
    cover the compensation the policy will owe, so a swap is never
    executed at a penalty-adjusted loss relative to its own gate.  Among
    viable candidates the one whose victims cost least (ties: shorter
    route, lower instance id) wins.  Each eviction forfeits the victim's
    profit and charges ``penalty × victim profit`` to the penalty
    account.

    Parameters
    ----------
    factor:
        Preemption margin; the arrival must be worth strictly more than
        ``factor`` times the victims' combined profit.  Values below 1
        allow profit-losing swaps — useful only for experiments.
    penalty:
        Fraction of each evictee's profit charged as compensation
        (0 = preemption is free, 1 = evicting refunds the full profit
        again on top of forfeiting it).
    threshold:
        Profit-density floor for ordinary (non-preemptive) admissions,
        as in ``greedy-threshold``.
    """

    name = "preempt-density"

    def __init__(self, factor: float = 1.2, penalty: float = 0.0,
                 threshold: float = 0.0):
        if factor <= 0:
            raise ValueError("factor must be positive")
        if penalty < 0:
            raise ValueError("penalty must be >= 0")
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.factor = float(factor)
        self.penalty = float(penalty)
        self.threshold = float(threshold)

    def bind(self, ledger: CapacityLedger) -> None:
        super().bind(ledger)
        self.stats = {"evictions": 0, "preempt_admits": 0,
                      "preempt_rejected": 0, "preempt_pruned": 0}

    def batch_kernel(self) -> str | None:
        # Every arrival decides in bulk: the fit, stage 1 of the
        # planner, the eviction walk (in closed form) and the plan
        # ranking of _best_plan, committed through the ledger's batched
        # eviction and admission.
        return "preempt-density"

    def _best_plan(self, demand_id: int):
        """Cheapest viable ``(iid, victims)`` across the candidates."""
        ledger = self.ledger
        best = None
        best_key = None
        # The gate covers the compensation too: an eviction that
        # cannot pay its own penalty is never worth executing.
        gate = self.factor + self.penalty
        for iid in ledger.candidates(demand_id).tolist():
            length = ledger.route_length(iid)
            if ledger._profit[iid] / length < self.threshold:
                continue  # the density floor gates evictions too
            victims = ledger.preemption_plan(iid, gate)
            if victims is PRUNED:
                self.stats["preempt_pruned"] += 1
                continue
            if not victims:
                # [] = feasible without eviction (then try_admit already
                # declined it on density); None = cannot be freed.
                continue
            cost = math.fsum(
                ledger._profit[ledger.admitted_instance(v)]
                for v in victims
            )
            if ledger._profit[iid] <= gate * cost:
                continue
            key = (cost, length, iid)
            if best_key is None or key < best_key:
                best, best_key = (iid, victims), key
        return best

    def on_arrival(self, demand_id: int) -> int | None:
        ledger = self.ledger
        if ledger.was_admitted(demand_id):
            # A repeated arrival can never be admitted again, so it must
            # not plan (let alone execute) evictions on its behalf.
            self.stats["preempt_rejected"] += 1
            return None
        iid = ledger.try_admit(demand_id, min_density=self.threshold)
        if iid is not None:
            return iid
        plan = self._best_plan(demand_id)
        if plan is None:
            self.stats["preempt_rejected"] += 1
            return None
        return self._execute_preemption(*plan)


class PreemptDualGated(DualGated, _PreemptiveAdmission):
    """Dual-gated admission with price-aware preemption.

    Behaves exactly like ``dual-gated`` while some instance fits.  When
    every candidate is capacity-blocked, the policy evaluates the
    cheapest-density eviction set per candidate route and admits through
    the candidate minimizing ``(1 + penalty) × victims' profit +
    post-eviction route price``, iff the arrival's profit strictly beats
    ``(1 + penalty) × victims' profit + eta ×
    price-of-the-freed-route`` — the victims' forfeits *and* the
    compensation owed on them, plus the dual price.  The price is the
    same exponential dual price the non-preemptive gate uses, evaluated
    at the loads the route *would* carry after the evictions — so
    preempting into a still congested route stays expensive.

    Parameters
    ----------
    eta, mu, history:
        As in :class:`DualGated`.
    penalty:
        Fraction of each evictee's profit charged as compensation.
    """

    name = "preempt-dual-gated"

    def __init__(self, eta: float = 1.0, mu: float | None = None,
                 penalty: float = 0.0, history: bool = False):
        super().__init__(eta=eta, mu=mu, history=history)
        if penalty < 0:
            raise ValueError("penalty must be >= 0")
        self.penalty = float(penalty)

    def batch_kernel(self) -> str | None:
        # The fit half would be the dual kernel, but the blocked half
        # prices each plan's freed route, which has no batch replica.
        return None

    def bind(self, ledger: CapacityLedger) -> None:
        super().bind(ledger)
        self.stats.update({"evictions": 0, "preempt_admits": 0,
                           "preempt_rejected": 0, "preempt_pruned": 0})

    def _freed_route_price(self, iid: int, victims: list[int]) -> float:
        """The dual price of ``iid``'s route after evicting ``victims``."""
        return self._price_from_loads(
            iid, self.ledger.route_loads_excluding(iid, victims)
        )

    def on_arrival(self, demand_id: int) -> int | None:
        ledger = self.ledger
        if ledger.was_admitted(demand_id):
            # As in PreemptDensity: a repeated arrival never evicts.
            self.stats["preempt_rejected"] += 1
            return None
        cands = ledger.candidates(demand_id)
        ok = ledger.feasible(cands)
        if ok.any():
            return self._admit_cheapest_feasible(cands, ok)
        best = None
        best_cost = math.inf
        # Route prices are >= 0 (mu > 1), so the gate's victim term
        # alone already rejects whatever it rejects at the cost bound.
        gate = 1.0 + self.penalty
        for iid in cands.tolist():
            victims = ledger.preemption_plan(iid, gate)
            if victims is PRUNED:
                self.stats["preempt_pruned"] += 1
                continue
            if not victims:
                continue
            v_cost = gate * math.fsum(
                ledger._profit[ledger.admitted_instance(v)]
                for v in victims
            )
            price = self._freed_route_price(iid, victims)
            if ledger._profit[iid] <= v_cost + self.eta * price:
                continue
            cost = v_cost + price
            if cost < best_cost:
                best, best_cost = (iid, victims), cost
        if best is None:
            self.stats["capacity_blocked"] += 1
            self.stats["preempt_rejected"] += 1
            return None
        iid = self._execute_preemption(*best)
        self._note_peak(iid)
        return iid


_POLICY_CLASSES = {
    "greedy-threshold": GreedyThreshold,
    "dual-gated": DualGated,
    "batch-resolve": BatchResolve,
    "preempt-density": PreemptDensity,
    "preempt-dual-gated": PreemptDualGated,
}


def make_policy(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate a policy by registry name.

    Unknown names and bad keyword arguments both raise a friendly
    :class:`ValueError` (never a raw ``TypeError`` traceback), so CLI
    and runner layers can report them uniformly.

    >>> make_policy("dual-gated", eta=1.2)
    """
    try:
        cls = _POLICY_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for policy {name!r}: {exc}"
        ) from None
