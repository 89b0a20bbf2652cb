"""The admission service: request/response, kill, journaled warm restart.

A tour of the service layer on one bursty line trace:

1. stand up an :class:`~repro.service.AdmissionService` with a
   write-ahead journal and push the first half of the trace through its
   request/response API (``admit`` / ``release`` / ``tick`` requests in,
   decision documents out), peeking at ``query`` and ``stats`` along the
   way;
2. "kill" the service — drop it without any shutdown, exactly what a
   SIGKILL leaves behind: a journal whose last line may even be torn;
3. warm-restart from the journal (``AdmissionService.resume``), finish
   the trace, and diff the final metrics against an uninterrupted
   in-process replay of the same stream — they match field for field,
   timing aside, because replay decisions are deterministic and the
   journal captures exactly the applied event sequence.

The same flow works across real processes via the CLI::

    python -m repro serve  --trace trace.bin --policy dual-gated --journal j.log
    python -m repro resume --journal j.log

Run from the repo root::

    PYTHONPATH=src python examples/service_warm_restart_demo.py
"""

import os
import tempfile

from repro.online import (
    bursty_trace,
    deterministic_metrics,
    make_policy,
    replay,
)
from repro.report import render_replay
from repro.service import AdmissionService


def main() -> None:
    trace = bursty_trace("line", events=400, seed=21, departure_prob=0.4)
    half = len(trace.events) // 2
    print(f"bursty line trace: {len(trace.events)} events, "
          f"{trace.num_arrivals} arrivals, {trace.num_departures} "
          "departures\n")

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "admissions.journal")
        service = AdmissionService(trace, "dual-gated",
                                   journal_path=journal)
        sample = None
        for ev in trace.events[:half]:
            decision = service.submit_event(ev)
            if sample is None and decision.accepted:
                sample = decision
        print(f"served {half} events through the request API; first "
              f"admission: demand {sample.demand_id} via instance "
              f"{sample.admitted[0][1]}")
        print("query :", service.handle({"op": "query",
                                         "demand": sample.demand_id}))
        stats = service.stats()
        print(f"stats : {stats['accepted']} accepted, profit "
              f"{stats['realized_profit']:.2f}, utilization "
              f"{stats['utilization']:.2f}, journaled="
              f"{stats['journaled']}\n")

        # The kill: no close(), no flush call — the journal already has
        # every applied event on disk (write-ahead, flushed per record).
        del service

        resumed = AdmissionService.resume(journal)
        print(f"warm restart recovered {resumed.position} events from "
              f"{os.path.basename(journal)}")
        result = resumed.run_remaining()

        uninterrupted = replay(trace, make_policy("dual-gated"))
        match = deterministic_metrics(result.metrics) == \
            deterministic_metrics(uninterrupted.metrics)
        print(f"resumed run equals uninterrupted replay: {match}\n")
        print(render_replay([uninterrupted.metrics, result.metrics]))


if __name__ == "__main__":
    main()
