"""Tests for the pluggable admission policies."""

from __future__ import annotations

import math

import pytest

from repro.online import (
    CapacityLedger,
    make_policy,
    offline_optimum,
    poisson_trace,
    replay,
)


class TestMakePolicy:
    def test_names_resolve(self):
        assert make_policy("greedy-threshold").name == "greedy-threshold"
        assert make_policy("dual-gated", eta=1.5).name == "dual-gated"
        assert make_policy("batch-resolve", solver="greedy").name == \
            "batch-resolve"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle")

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="threshold"):
            make_policy("greedy-threshold", threshold=-1.0)
        with pytest.raises(ValueError, match="eta"):
            make_policy("dual-gated", eta=0.0)
        with pytest.raises(ValueError, match="resolve_every"):
            make_policy("batch-resolve", resolve_every=-2)

    def test_preemptive_names_resolve(self):
        assert make_policy("preempt-density").name == "preempt-density"
        assert make_policy("preempt-dual-gated", penalty=0.5).name == \
            "preempt-dual-gated"

    def test_misspelled_kwargs_are_friendly(self):
        # Never a raw TypeError: misspelled constructor keywords get the
        # same ValueError treatment as unknown policy names.
        with pytest.raises(ValueError, match="bad parameters for policy"):
            make_policy("dual-gated", etaa=1.3)
        with pytest.raises(ValueError, match="preempt-density"):
            make_policy("preempt-density", factr=2.0)


    @pytest.mark.parametrize("name", ["dual-gated", "preempt-dual-gated"])
    @pytest.mark.parametrize("mu", [0.5, -2.0, 1.0, math.nan, math.inf])
    def test_mu_must_be_finite_and_above_one(self, name, mu):
        # mu <= 1 gives zero or negative prices, so the gate never bites
        # (0.5) or prices go NaN and crash mid-replay (-2.0).
        with pytest.raises(ValueError, match="mu must be finite and > 1"):
            make_policy(name, mu=mu)

    def test_mu_above_one_still_accepted(self):
        from repro.online import bursty_trace

        trace = bursty_trace("line", events=300, seed=3)
        result = replay(trace, make_policy("preempt-dual-gated", mu=1.5))
        assert result.policy_stats["max_gate"] > 0.0

    @pytest.mark.parametrize("mu", ["0.5", "-2.0"])
    def test_cli_policy_arg_mu_is_friendly(self, mu):
        from repro.cli import main

        with pytest.raises(SystemExit, match="mu must be finite and > 1"):
            main(["replay", "--policy", "preempt-dual-gated", "--kind",
                  "line", "--events", "300", "--policy-arg", f"mu={mu}"])


class TestGreedyThreshold:
    def test_zero_threshold_admits_whatever_fits(self):
        tr = poisson_trace("line", events=100, seed=1, departure_prob=0.0)
        res = replay(tr, make_policy("greedy-threshold"))
        # Every rejection must be a genuine capacity block: replaying the
        # admitted set leaves no rejected demand that would have fit at
        # the end (spot-check through a fresh ledger).
        ledger = CapacityLedger(tr.problem)
        for _, iid in res.admission_log:
            ledger.admit(iid)
        assert res.metrics.accepted == len(res.admission_log)
        assert res.metrics.realized_profit == pytest.approx(
            sum(tr.problem.demands[d].profit for d, _ in res.admission_log)
        )

    def test_infinite_threshold_rejects_everything(self):
        tr = poisson_trace("line", events=60, seed=2)
        res = replay(tr, make_policy("greedy-threshold",
                                     threshold=math.inf))
        assert res.metrics.accepted == 0
        assert res.metrics.realized_profit == 0.0

    def test_threshold_is_density_gate(self):
        tr = poisson_trace("line", events=80, seed=3, departure_prob=0.0)
        res = replay(tr, make_policy("greedy-threshold", threshold=0.9))
        for d, iid in res.admission_log:
            inst = tr.problem.instances()[iid]
            length = inst.end - inst.start + 1
            assert inst.profit / length >= 0.9


class TestDualGated:
    def test_gates_under_pressure(self):
        # Saturated trace: the gate must fire at least once and gated
        # arrivals must be counted separately from capacity blocks.
        tr = poisson_trace("line", events=400, seed=1, departure_prob=0.3)
        policy = make_policy("dual-gated")
        res = replay(tr, policy)
        stats = res.policy_stats
        assert stats["gated"] > 0
        assert stats["capacity_blocked"] > 0
        assert stats["max_gate"] > 0.0
        assert res.metrics.accepted + res.metrics.rejected == \
            res.metrics.arrivals

    def test_empty_network_is_free(self):
        tr = poisson_trace("line", events=30, seed=4, departure_prob=0.0)
        ledger = CapacityLedger(tr.problem)
        policy = make_policy("dual-gated")
        policy.bind(ledger)
        # With nothing admitted every route prices at zero, so the very
        # first arrival is always admitted.
        assert policy.route_price(int(ledger.candidates(0)[0])) == 0.0
        assert policy.on_arrival(0) is not None

    def test_higher_eta_admits_no_more(self):
        tr = poisson_trace("line", events=300, seed=5, departure_prob=0.2)
        loose = replay(tr, make_policy("dual-gated", eta=0.5))
        stiff = replay(tr, make_policy("dual-gated", eta=4.0))
        assert stiff.policy_stats["gated"] >= loose.policy_stats["gated"]


class TestBatchResolve:
    def test_single_final_flush_matches_offline_optimum(self):
        # The PR's acceptance criterion: no departures, one flush at the
        # end, exact inner solver -> exactly the offline optimum profit.
        tr = poisson_trace("line", events=50, seed=7, departure_prob=0.0)
        res = replay(tr, make_policy("batch-resolve", solver="exact",
                                     resolve_every=0))
        assert res.metrics.realized_profit == pytest.approx(
            offline_optimum(tr, "exact")
        )

    def test_single_final_flush_matches_offline_optimum_tree(self):
        tr = poisson_trace("tree", events=40, seed=8, departure_prob=0.0,
                           workload={"n": 24})
        res = replay(tr, make_policy("batch-resolve", solver="exact",
                                     resolve_every=0))
        assert res.metrics.realized_profit == pytest.approx(
            offline_optimum(tr, "exact")
        )

    def test_never_preempts(self):
        tr = poisson_trace("line", events=200, seed=9, departure_prob=0.0)
        res = replay(tr, make_policy("batch-resolve", solver="greedy",
                                     resolve_every=32))
        # The admission log is append-only and admitted demands stay in
        # the final solution when nothing departs.
        final_ids = {d.demand_id for d in res.final_solution.selected}
        assert final_ids == {d for d, _ in res.admission_log}

    def test_departed_buffered_demands_are_dropped(self):
        tr = poisson_trace("line", events=200, seed=10, departure_prob=0.6,
                           rate=4.0)
        res = replay(tr, make_policy("batch-resolve", solver="greedy",
                                     resolve_every=0))
        # Any demand that departed before the final flush must not have
        # been admitted by it (it was dropped from the buffer).
        from repro.online import Departure

        departed = {ev.demand_id for ev in tr.events
                    if isinstance(ev, Departure)}
        admitted = {d for d, _ in res.admission_log}
        assert not (admitted & departed)

    def test_flush_cadence_counted(self):
        tr = poisson_trace("line", events=120, seed=11, departure_prob=0.0)
        policy = make_policy("batch-resolve", solver="greedy",
                             resolve_every=25)
        res = replay(tr, policy)
        assert res.policy_stats["flushes"] >= 120 // 25
        assert res.policy_stats["buffered"] == res.metrics.arrivals


class TestBatchResolveResidual:
    """Residual-capacity-aware re-solves (blocker demands)."""

    @staticmethod
    def _three_job_trace():
        """A: [0,4] profit 5 (flushed first); then B: [2,7] profit 10
        and C: [5,9] profit 3.  B conflicts with both A and C, so a
        residual-blind second flush picks B (profit order), collides
        with A, and loses C too; the residual-aware flush sees A's load
        and picks C."""
        from repro.core.demand import WindowDemand
        from repro.core.instance import LineProblem
        from repro.network.line import LineNetwork
        from repro.online import Arrival, EventTrace, Tick

        demands = [
            WindowDemand(0, 0, 4, 5, 5.0),   # A, pinned to [0, 4]
            WindowDemand(1, 2, 7, 6, 10.0),  # B, pinned to [2, 7]
            WindowDemand(2, 5, 9, 5, 3.0),   # C, pinned to [5, 9]
        ]
        problem = LineProblem(n_slots=10, resources=[LineNetwork(10)],
                              demands=demands)
        events = [Arrival(0.0, 0), Tick(1.0), Arrival(2.0, 1),
                  Arrival(3.0, 2), Tick(4.0)]
        return EventTrace(problem=problem, events=events)

    def test_residual_solver_sees_admitted_load(self):
        trace = self._three_job_trace()
        res = replay(trace, make_policy("batch-resolve", solver="exact",
                                        resolve_every=0))
        admitted = {d for d, _ in res.admission_log}
        assert admitted == {0, 2}  # A then C — B refused by the blocker
        assert res.policy_stats["displaced"] == 0
        assert res.policy_stats["blockers"] >= 1
        assert res.metrics.realized_profit == pytest.approx(8.0)

    def test_legacy_post_filtering_loses_the_collision(self):
        trace = self._three_job_trace()
        res = replay(trace, make_policy("batch-resolve", solver="exact",
                                        resolve_every=0, residual=False))
        admitted = {d for d, _ in res.admission_log}
        assert admitted == {0}  # B displaced by A; C lost to B's win
        assert res.policy_stats["displaced"] >= 1
        assert res.metrics.realized_profit == pytest.approx(5.0)

    def test_residual_never_worse_on_random_traces(self):
        for seed in (1, 2, 3):
            tr = poisson_trace("line", events=200, seed=seed,
                               departure_prob=0.3)
            on = replay(tr, make_policy("batch-resolve", solver="greedy",
                                        resolve_every=32))
            off = replay(tr, make_policy("batch-resolve", solver="greedy",
                                         resolve_every=32, residual=False))
            # Not a theorem, but on these seeds carrying the admitted
            # load must not lose profit — change-detects regressions.
            assert on.metrics.realized_profit >= \
                off.metrics.realized_profit - 1e-9

    def test_blockers_work_on_trees(self):
        from repro.online import generate_trace

        tr = generate_trace("tree", events=150, seed=4, departure_prob=0.2,
                            workload={"n": 48})
        res = replay(tr, make_policy("batch-resolve", solver="greedy",
                                     resolve_every=16))
        assert res.policy_stats["flushes"] >= 1
        # Multiple flushes against a non-empty ledger must have built
        # blockers (the first flush legitimately has none).
        if res.metrics.accepted and res.policy_stats["flushes"] > 1:
            assert res.policy_stats["blockers"] > 0


class TestDualPriceCertificate:
    """The dual-gated price trajectory as an offline upper bound."""

    def test_certificate_bounds_offline_optimum(self):
        tr = poisson_trace("line", events=160, seed=5, departure_prob=0.3)
        res = replay(tr, make_policy("dual-gated"))
        cert = res.policy_stats["dual_certificate"]
        assert res.metrics.dual_upper_bound == cert["upper_bound"]
        opt = offline_optimum(tr, "exact")
        assert cert["upper_bound"] >= opt - 1e-6
        assert cert["beta_total"] >= 0.0
        assert cert["z_total"] >= 0.0
        assert 0.0 <= cert["peak_load"] <= 1.0 + 1e-9

    def test_certificate_on_trees_and_preemptive_variant(self):
        from repro.online import generate_trace

        tr = generate_trace("tree", events=120, seed=6, departure_prob=0.3,
                            workload={"n": 48})
        opt = offline_optimum(tr, "exact")
        for policy in ("dual-gated", "preempt-dual-gated"):
            res = replay(tr, make_policy(policy))
            assert res.metrics.dual_upper_bound is not None
            assert res.metrics.dual_upper_bound >= opt - 1e-6

    def test_priceless_policies_carry_no_certificate(self):
        tr = poisson_trace("line", events=80, seed=7, departure_prob=0.0)
        res = replay(tr, make_policy("greedy-threshold"))
        assert res.metrics.dual_upper_bound is None
        assert "dual_certificate" not in res.policy_stats

    def test_peaks_survive_departures(self):
        # With heavy departures the *final* loads deflate, but the peaks
        # (and hence the certificate) must reflect the high-water mark.
        import numpy as np

        tr = poisson_trace("line", events=200, seed=8, departure_prob=0.9)
        policy = make_policy("dual-gated")
        res = replay(tr, policy)
        assert res.metrics.accepted > 0
        assert float(np.max(policy._peak)) >= \
            policy.ledger.utilization() - 1e-12


class TestHistoryCertificate:
    """Opt-in per-edge price histories tighten the dual upper bound."""

    def test_history_bound_valid_and_no_looser(self):
        tr = poisson_trace("line", events=250, seed=9, departure_prob=0.6,
                           rate=4.0)
        res = replay(tr, make_policy("dual-gated", history=True))
        cert = res.policy_stats["dual_certificate"]
        # The tightened bound is the min over a family that includes the
        # peak assignment, so it can only improve on it — and every
        # member is a valid dual, so it still caps the exact optimum.
        assert cert["upper_bound"] <= cert["peak_upper_bound"] + 1e-12
        assert cert["history_points"] >= 1
        opt = offline_optimum(tr, "exact")
        assert cert["upper_bound"] >= opt - 1e-6
        assert res.metrics.dual_upper_bound == cert["upper_bound"]
        assert res.metrics.dual_upper_bound_peak == \
            cert["peak_upper_bound"]

    def test_history_actually_tightens_under_departures(self):
        """Heavy departures leave the peak duals priced for load that is
        long gone; some mid-trajectory snapshot must beat them."""
        tr = poisson_trace("line", events=400, seed=10,
                           departure_prob=0.9, rate=8.0)
        res = replay(tr, make_policy("dual-gated", history=True))
        cert = res.policy_stats["dual_certificate"]
        assert cert["upper_bound"] < cert["peak_upper_bound"]

    def test_history_off_by_default(self):
        tr = poisson_trace("line", events=80, seed=11, departure_prob=0.3)
        res = replay(tr, make_policy("dual-gated"))
        cert = res.policy_stats["dual_certificate"]
        assert "peak_upper_bound" not in cert
        assert res.metrics.dual_upper_bound_peak is None

    def test_history_does_not_change_decisions(self):
        tr = poisson_trace("line", events=200, seed=12, departure_prob=0.4)
        plain = replay(tr, make_policy("dual-gated"))
        hist = replay(tr, make_policy("dual-gated", history=True))
        assert plain.admission_log == hist.admission_log

    def test_snapshot_thinning_bounds_memory(self):
        from repro.online.policies import DualGated

        tr = poisson_trace("line", events=3000, seed=13,
                           departure_prob=0.5, rate=8.0)
        policy = make_policy("dual-gated", history=True)
        res = replay(tr, policy)
        assert res.metrics.accepted > DualGated._MAX_SNAPSHOTS / 2
        assert len(policy._snapshots) <= DualGated._MAX_SNAPSHOTS

    def test_preemptive_variant_supports_history(self):
        tr = poisson_trace("line", events=200, seed=14,
                           departure_prob=0.3, rate=4.0)
        res = replay(tr, make_policy("preempt-dual-gated", history=True,
                                     penalty=0.1))
        cert = res.policy_stats["dual_certificate"]
        assert cert["upper_bound"] <= cert["peak_upper_bound"] + 1e-12

    def test_report_renders_both_columns(self):
        from repro.report import render_replay

        tr = poisson_trace("line", events=120, seed=15,
                           departure_prob=0.5)
        res = replay(tr, make_policy("dual-gated", history=True))
        table = render_replay([res.metrics])
        assert "OPT≤(dual)" in table and "OPT≤(peak)" in table
