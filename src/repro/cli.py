"""Command-line interface.

```
python -m repro generate  --kind tree --n 32 --m 24 --r 2 -o problem.json
python -m repro solve     problem.json --algorithm tree-unit --epsilon 0.1
python -m repro compare   problem.json
python -m repro sweep     a.json b.json --solvers tree-unit,sequential --seeds 0,1,2
python -m repro replay    --policy dual-gated --events 10000
python -m repro replay    trace.bin --shards 4 --shard-by subtree
python -m repro serve     --trace trace.bin --policy dual-gated --journal j.log
python -m repro serve     --trace trace.bin --journal j.log \
                          --sync-window 64 --checkpoint-every 5000
python -m repro serve     --trace trace.bin --port 7777 \
                          --obs --metrics-port 9100
python -m repro resume    --journal j.log -o metrics.json
python -m repro compact   --journal j.log
python -m repro top       --port 7777
python -m repro trace     --port 7777 --last 500 -o spans.json
python -m repro sweep-preemption --factors 1.2,2.0 --penalties 0,0.25
python -m repro decompose --topology caterpillar --n 32
```

``solve`` prints the solution summary (profit, rounds, λ, the dual
certificate) and optionally writes the solution JSON; ``compare`` runs
the paper's algorithm, the relevant baseline, greedy, and the exact
optimum side by side; ``sweep`` fans (instance, solver, seed) jobs across
a process pool with result caching; ``replay`` streams an event trace
through an online admission policy (generating and optionally saving the
trace on the fly), and with ``--shards N`` fans it across the sharded
admission engine;
``serve`` runs the long-lived admission service — JSON-lines requests
on stdin (or TCP clients with ``--port``) and a write-ahead admission
journal (binary, group-committed, optionally checkpointed) —
``resume`` warm-restarts a killed service from its journal (seeking to
the last checkpoint and replaying only the tail) and finishes the
trace, and ``compact`` rewrites a journal as header + one checkpoint
(both rewrite a JSON-lines journal from an earlier writer as binary);
``sweep-preemption`` grids preemption factor × penalty over saved
traces and reports where preemption stops paying;
``decompose`` prints the Section 4 decomposition table; ``top`` is a
live optimality dashboard over a serving TCP service (polls
``{"op": "stats"}``) and ``trace`` pulls the service's flight-recorder
ring as Chrome ``trace_event`` JSON (load in Perfetto /
``about:tracing``).

Algorithm names are resolved through the solver registry
(:mod:`repro.algorithms.registry`); ``--algorithm help`` or the epilog of
``solve --help`` lists them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core.instance import TreeProblem

__all__ = ["main", "build_parser"]


def _int_arg(name: str, minimum: int | None = None):
    """An argparse ``type`` that fails with a friendly message, not a
    traceback, on non-integers and out-of-range values."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text!r}"
            )
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be >= {minimum}, got {value}"
            )
        return value

    return parse


def _float_arg(name: str, lo: float | None = None, hi: float | None = None):
    """Like :func:`_int_arg` for floats, with an optional closed range."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be a number, got {text!r}"
            )
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            span = (f"in [{lo}, {hi}]" if hi is not None else f">= {lo}")
            raise argparse.ArgumentTypeError(
                f"{name} must be {span}, got {value}"
            )
        return value

    return parse


def _float_list(name: str, lo: float | None = None):
    """Parse ``--factors 1.0,1.2`` with a friendly error on bad entries."""

    def parse(text: str) -> list[float]:
        values: list[float] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                values.append(float(part))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"{name} must be comma-separated numbers, got {part!r}"
                )
            if lo is not None and values[-1] < lo:
                raise argparse.ArgumentTypeError(
                    f"{name} entries must be >= {lo}, got {values[-1]}"
                )
        if not values:
            raise argparse.ArgumentTypeError(f"need at least one {name} value")
        return values

    return parse


def _seed_list(text: str) -> list[int]:
    """Parse ``--seeds 0,1,2`` with a friendly error on bad entries."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            seeds.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"seeds must be comma-separated integers, got {part!r}"
            )
        if seeds[-1] < 0:
            raise argparse.ArgumentTypeError(
                f"seeds must be non-negative, got {seeds[-1]}"
            )
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    return seeds


def _apply_policy_args(kwargs: dict, entries, command: str) -> dict:
    """Fold repeated ``--policy-arg KEY=VALUE`` entries into ``kwargs``
    (values parsed as JSON when possible), with friendly errors."""
    for entry in entries:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"{command}: --policy-arg wants KEY=VALUE, got {entry!r}"
            )
        try:
            kwargs[key] = json.loads(value)
        except json.JSONDecodeError:
            kwargs[key] = value
    return kwargs


def _add_obs_flags(parser) -> None:
    """The observability flags ``serve`` and ``resume`` share."""
    parser.add_argument("--obs", action="store_true",
                        help="enable the flight recorder + request-latency "
                             "histogram (off by default; the hot path then "
                             "pays only one flag check)")
    parser.add_argument("--obs-dump", default=None, metavar="PATH",
                        help="write the span ring to PATH as Chrome trace "
                             "JSON at process exit (implies --obs)")
    parser.add_argument("--metrics-port",
                        type=_int_arg("metrics-port", minimum=0),
                        default=None, metavar="N",
                        help="serve Prometheus text metrics on this HTTP "
                             "port (0 = ephemeral; implies --obs)")


def _setup_obs(args) -> None:
    """Flip the recorder on (and arm the exit dump) before the service
    is built, so warm-restart replay spans are captured too."""
    from .obs import enable, install_crash_dump

    if args.obs or args.obs_dump or args.metrics_port is not None:
        enable()
    if args.obs_dump:
        install_crash_dump(args.obs_dump)


def _start_metrics(args, service) -> None:
    from .obs import start_metrics_server

    if args.metrics_port is None:
        return
    server = start_metrics_server(service.registry, port=args.metrics_port,
                                  on_scrape=service._sync_metrics)
    host, port = server.server_address[:2]
    print(f"metrics on http://{host}:{port}/", file=sys.stderr, flush=True)


class _LazyChoices:
    """An argparse ``choices`` container that calls ``load`` only when a
    value is checked or the choices are listed, so building the parser
    imports none of the modules that define them."""

    def __init__(self, load) -> None:
        self._load = load

    def __contains__(self, value) -> bool:
        return value in self._load()

    def __iter__(self):
        return iter(self._load())


def _solver_choices() -> list[str]:
    from .algorithms import registry

    return ["auto"] + registry.names()


def _shard_strategies() -> tuple[str, ...]:
    from .sharding import SHARD_STRATEGIES

    return SHARD_STRATEGIES


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose ``epilog`` may be a callable, rendered
    only when help is formatted (the registry epilog loads every
    solver)."""

    def format_help(self) -> str:
        if callable(self.epilog):
            self.epilog = self.epilog()
        return super().format_help()


def _registry_epilog() -> str:
    from .algorithms import registry

    lines = ["registered solvers:"]
    for spec in registry.specs():
        lines.append(f"  {spec.name:<18} [{spec.family:^4}] {spec.description}")
    lines.append("  auto               picks the paper's algorithm for the "
                 "problem family/heights")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``.

    Building it imports no solver, SciPy or sharding module: the solver
    and shard-strategy choices and the registry epilog load on first
    use, so ``repro serve`` and ``repro resume`` start with only the
    online engine.
    """
    p = _Parser(
        prog="repro",
        description="Distributed scheduling on line and tree networks "
                    "(arXiv:1205.1924 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random problem as JSON")
    gen.add_argument("--kind", choices=["tree", "line"], default="tree")
    gen.add_argument("--n", type=int, default=32,
                     help="vertices (tree) / timeslots (line)")
    gen.add_argument("--m", type=int, default=24, help="demands")
    gen.add_argument("--r", type=int, default=2, help="networks/resources")
    gen.add_argument("--topology", default="random")
    gen.add_argument("--heights", default="unit",
                     choices=["unit", "narrow", "wide", "mixed", "bimodal"])
    gen.add_argument("--profit-ratio", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    sol = sub.add_parser(
        "solve",
        help="solve a problem JSON",
        epilog=_registry_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sol.add_argument("problem")
    sol.add_argument("--algorithm", default="auto",
                     choices=_LazyChoices(_solver_choices),
                     metavar="NAME",
                     help="registry solver name (see epilog), default: auto")
    sol.add_argument("--epsilon", type=float, default=0.1)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--mis", default="luby",
                     choices=["luby", "greedy", "priority"])
    sol.add_argument("--save-solution", default=None)

    cmp_ = sub.add_parser("compare", help="run algorithms side by side")
    cmp_.add_argument("problem")
    cmp_.add_argument("--epsilon", type=float, default=0.1)
    cmp_.add_argument("--seed", type=int, default=0)

    swp = sub.add_parser(
        "sweep",
        help="run a (problem × solver × seed) grid through the batch runner",
        epilog=_registry_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    swp.add_argument("problems", nargs="+", help="problem JSON files")
    swp.add_argument("--solvers", default="auto",
                     help="comma-separated registry names (default: auto)")
    swp.add_argument("--seeds", type=_seed_list, default=[0],
                     help="comma-separated seeds (default: 0)")
    swp.add_argument("--epsilon", type=float, default=0.1)
    swp.add_argument("--mis", default="luby",
                     choices=["luby", "greedy", "priority"])
    swp.add_argument("--processes", type=_int_arg("processes", minimum=0),
                     default=None,
                     help="pool size (default: CPU count; 0 or 1 = inline)")
    swp.add_argument("--cache-dir", default=None,
                     help="memoise results keyed by instance hash + config")
    swp.add_argument("-o", "--output", default=None,
                     help="write structured JSON results here")

    from .online.events import ARRIVAL_PROCESSES
    from .online.policies import POLICY_NAMES

    rep = sub.add_parser(
        "replay",
        help="stream an event trace through an online admission policy",
        epilog=_registry_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    rep.add_argument("trace", nargs="?", default=None,
                     help="trace file (from --save-trace; JSON traces "
                          "still read); omit to generate one")
    rep.add_argument("--policy", default="dual-gated", choices=POLICY_NAMES)
    rep.add_argument("--events", type=_int_arg("events", minimum=1),
                     default=10000,
                     help="event budget for generated traces "
                          "(default: 10000)")
    rep.add_argument("--process", default="poisson",
                     choices=ARRIVAL_PROCESSES)
    rep.add_argument("--kind", choices=["tree", "line"], default="line")
    rep.add_argument("--seed", type=_int_arg("seed", minimum=0),
                     default=0)
    rep.add_argument("--departures",
                     type=_float_arg("departures", lo=0.0, hi=1.0),
                     default=0.3,
                     help="per-arrival departure probability "
                          "(default: 0.3)")
    rep.add_argument("--threshold",
                     type=_float_arg("threshold", lo=0.0), default=0.0,
                     help="greedy-threshold / preempt-density: min profit "
                          "per route edge")
    rep.add_argument("--eta", type=_float_arg("eta", lo=1e-9),
                     default=1.0,
                     help="dual-gated / preempt-dual-gated: gate "
                          "stiffness (default: 1.0)")
    rep.add_argument("--preempt-factor",
                     type=_float_arg("preempt-factor", lo=1e-9),
                     default=1.2,
                     help="preempt-density: admit a blocked arrival only "
                          "when its profit exceeds this multiple of the "
                          "victims' total (default: 1.2)")
    rep.add_argument("--penalty",
                     type=_float_arg("penalty", lo=0.0), default=0.0,
                     help="preemptive policies: fraction of each "
                          "evictee's profit charged as compensation "
                          "(default: 0.0)")
    rep.add_argument("--policy-arg", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="extra policy constructor argument (repeatable; "
                          "values parsed as JSON when possible)")
    rep.add_argument("--solver", default="greedy", metavar="NAME",
                     help="batch-resolve: registry solver for re-solves "
                          "(default: greedy; see epilog)")
    rep.add_argument("--resolve-every",
                     type=_int_arg("resolve-every", minimum=0), default=512,
                     help="batch-resolve: flush cadence in buffered "
                          "arrivals (default: 512; 0 = final flush only)")
    rep.add_argument("--offline", default=None, metavar="NAME",
                     help="also compute the offline benchmark with this "
                          "registry solver (e.g. exact, greedy)")
    rep.add_argument("--shards", type=_int_arg("shards", minimum=1),
                     default=1,
                     help="fan the replay across this many shard workers "
                          "(default: 1 = the single-ledger driver)")
    rep.add_argument("--shard-by", default="subtree",
                     choices=_LazyChoices(_shard_strategies),
                     metavar="STRATEGY",
                     help="partition strategy, one of %(choices)s: "
                          "balancer subtrees or decomposition layers "
                          "(default: subtree)")
    rep.add_argument("--processes", type=_int_arg("processes", minimum=0),
                     default=None,
                     help="shard worker processes (default: min(shards, "
                          "CPU count); 0 or 1 = inline)")
    rep.add_argument("--save-trace", default=None,
                     help="write the (generated) trace here, as a binary "
                          "trace file")
    rep.add_argument("-o", "--output", default=None,
                     help="write the metrics JSON here")

    srv = sub.add_parser(
        "serve",
        help="run the long-lived admission service over a trace's "
             "demand population",
        epilog="request protocol: one JSON object per stdin line, e.g. "
               '{"op": "admit", "demand": 3, "time": 1.5} — ops: admit, '
               "release, tick, submit, feed (batched events), query, "
               "stats, snapshot, close, trace, explain; one JSON "
               "response per line on stdout",
    )
    srv.add_argument("--trace", required=True,
                     help="trace file holding the frozen demand "
                          "population (repro replay --save-trace "
                          "writes one)")
    srv.add_argument("--policy", default="greedy-threshold",
                     choices=POLICY_NAMES)
    srv.add_argument("--policy-arg", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="policy constructor argument (repeatable; "
                          "values parsed as JSON when possible)")
    srv.add_argument("--journal", default=None,
                     help="append-only admission journal (enables "
                          "warm restart via `repro resume`)")
    srv.add_argument("--port", type=_int_arg("port", minimum=0),
                     default=None,
                     help="serve TCP clients on this port (0 = "
                          "ephemeral) instead of stdin/stdout: one "
                          "event loop multiplexing concurrent clients "
                          "(per-connection backpressure, fair "
                          "round-robin dispatch, request-id echo)")
    srv.add_argument("--max-clients",
                     type=_int_arg("max-clients", minimum=1), default=128,
                     help="with --port: concurrent-connection cap "
                          "(default: 128)")
    srv.add_argument("--max-line-bytes",
                     type=_int_arg("max-line-bytes", minimum=2),
                     default=1 << 20,
                     help="request-line byte cap; longer lines get a "
                          'friendly {"ok": false} response '
                          "(default: 1 MiB)")
    srv.add_argument("--sync", action="store_true",
                     help="fsync the journal at every commit "
                          "(power-loss durability; slower)")
    srv.add_argument("--format", default="binary", choices=("binary",),
                     help="journal codec; kept for compatibility, binary "
                          "is the only one written")
    srv.add_argument("--sync-window",
                     type=_int_arg("sync-window", minimum=1), default=1,
                     help="group commit: flush/fsync the journal every N "
                          "buffered events (default: 1 = per record)")
    srv.add_argument("--sync-interval-ms",
                     type=_float_arg("sync-interval-ms", lo=1e-6),
                     default=None,
                     help="group commit: also commit once the oldest "
                          "buffered event is this many ms old")
    srv.add_argument("--checkpoint-every",
                     type=_int_arg("checkpoint-every", minimum=0),
                     default=0,
                     help="append a state checkpoint to the journal "
                          "every N events, so resume replays only the "
                          "tail (default: 0 = off)")
    _add_obs_flags(srv)

    res = sub.add_parser(
        "resume",
        help="warm-restart a killed service from its admission journal",
    )
    res.add_argument("--journal", required=True,
                     help="journal written by `repro serve --journal` "
                          "(a JSON-lines one is rewritten as binary "
                          "first)")
    res.add_argument("--serve", action="store_true",
                     help="keep serving requests on stdin after the "
                          "restart instead of finishing the trace")
    res.add_argument("--port", type=_int_arg("port", minimum=0),
                     default=None,
                     help="with --serve: serve TCP clients on this "
                          "port instead of stdin")
    res.add_argument("--max-clients",
                     type=_int_arg("max-clients", minimum=1), default=128,
                     help="with --port: concurrent-connection cap "
                          "(default: 128)")
    res.add_argument("--max-line-bytes",
                     type=_int_arg("max-line-bytes", minimum=2),
                     default=1 << 20,
                     help="request-line byte cap (default: 1 MiB)")
    res.add_argument("--sync", action="store_true",
                     help="fsync the journal at every commit")
    res.add_argument("--sync-window",
                     type=_int_arg("sync-window", minimum=1), default=1,
                     help="group-commit window for appended events "
                          "(default: 1)")
    res.add_argument("--sync-interval-ms",
                     type=_float_arg("sync-interval-ms", lo=1e-6),
                     default=None,
                     help="group-commit interval for appended events")
    res.add_argument("--checkpoint-every",
                     type=_int_arg("checkpoint-every", minimum=0),
                     default=None,
                     help="override the checkpoint cadence recorded in "
                          "the journal header")
    res.add_argument("-o", "--output", default=None,
                     help="write the final metrics JSON here")
    _add_obs_flags(res)

    top = sub.add_parser(
        "top",
        help="live optimality dashboard over a serving TCP service",
        epilog="polls {\"op\": \"stats\"} once per interval and renders "
               "event/admit/evict rates, realized profit vs the live "
               "dual upper bound (the optimality gap), commit lag and "
               "per-client server health; Ctrl-C exits",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=_int_arg("port", minimum=1),
                     required=True,
                     help="the service's TCP port (repro serve --port)")
    top.add_argument("--interval",
                     type=_float_arg("interval", lo=0.05), default=1.0,
                     help="refresh period in seconds (default: 1.0)")
    top.add_argument("--count", type=_int_arg("count", minimum=1),
                     default=None,
                     help="render this many frames then exit "
                          "(default: until Ctrl-C)")

    trc = sub.add_parser(
        "trace",
        help="dump a serving service's flight-recorder ring as Chrome "
             "trace JSON",
        epilog="the output loads in Perfetto (ui.perfetto.dev) or "
               "chrome://tracing; spans cover policy decisions, ledger "
               "admits/evicts, journal commits, shard phases and "
               "connection dispatch",
    )
    trc.add_argument("--host", default="127.0.0.1")
    trc.add_argument("--port", type=_int_arg("port", minimum=1),
                     required=True,
                     help="the service's TCP port (repro serve --port)")
    trc.add_argument("--last", type=_int_arg("last", minimum=1),
                     default=None,
                     help="only the newest N spans (default: the whole "
                          "surviving ring)")
    trc.add_argument("-o", "--output", default=None,
                     help="write the trace JSON here (default: stdout)")

    cpt = sub.add_parser(
        "compact",
        help="rewrite an admission journal as header + one checkpoint",
        epilog="resume then restores the checkpoint instead of replaying "
               "the whole history; safe on journals with torn tails",
    )
    cpt.add_argument("--journal", required=True,
                     help="journal to compact (replaced atomically; a "
                          "JSON-lines one comes out binary)")

    swp_p = sub.add_parser(
        "sweep-preemption",
        help="sweep preemption factor × penalty grids over saved traces",
        epilog="with no trace arguments the pinned tests/data corpus "
               "(relative to the working directory) is used",
    )
    swp_p.add_argument("traces", nargs="*",
                       help="trace files (default: the pinned "
                            "tests/data corpus)")
    swp_p.add_argument("--policy", default="preempt-density",
                       choices=["preempt-density", "preempt-dual-gated"])
    swp_p.add_argument("--factors", type=_float_list("factors", lo=1e-9),
                       default=[1.0, 1.2, 1.5, 2.0],
                       help="preempt-density factors (default: "
                            "1.0,1.2,1.5,2.0; ignored for "
                            "preempt-dual-gated)")
    swp_p.add_argument("--penalties", type=_float_list("penalties", lo=0.0),
                       default=[0.0, 0.1, 0.25, 0.5],
                       help="compensation fractions (default: "
                            "0.0,0.1,0.25,0.5)")
    swp_p.add_argument("--baseline", default="greedy-threshold",
                       help="non-preemptive yardstick policy "
                            "(default: greedy-threshold)")
    swp_p.add_argument("--offline", default=None, metavar="NAME",
                       help="offline benchmark solver for the ratio "
                            "columns (e.g. exact, greedy)")
    swp_p.add_argument("--processes", type=_int_arg("processes", minimum=0),
                       default=None,
                       help="pool size (default: CPU count; 0/1 = inline)")
    swp_p.add_argument("--cache-dir", default=None,
                       help="memoise replay results here")
    swp_p.add_argument("-o", "--output", default=None,
                       help="write structured JSON results here")

    dec = sub.add_parser("decompose",
                         help="Section 4 decomposition table for a topology")
    dec.add_argument("--topology", default="random")
    dec.add_argument("--n", type=int, default=32)
    dec.add_argument("--seed", type=_int_arg("seed", minimum=0),
                     default=0)

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant checker over the source tree")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: src/)")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--ignore", default=None,
                      help="comma-separated rule ids to skip")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="findings as human text or a JSON document")
    lint.add_argument("--explain", metavar="RULE", default=None,
                      help="print a rule's rationale and its bad/good "
                           "fixture examples, then exit")
    lint.add_argument("--list-rules", action="store_true",
                      help="list every registered rule and exit")
    lint.add_argument("-o", "--output", default=None,
                      help="also write the JSON findings document here")
    return p


def _generate(args) -> int:
    from .io import save_problem
    from .workloads import random_line_problem, random_tree_problem

    if args.kind == "tree":
        problem = random_tree_problem(
            n=args.n, m=args.m, r=args.r, topology=args.topology,
            seed=args.seed, profit_ratio=args.profit_ratio,
            height_regime=args.heights,
        )
    else:
        problem = random_line_problem(
            n_slots=args.n, m=args.m, r=args.r, seed=args.seed,
            profit_ratio=args.profit_ratio, height_regime=args.heights,
        )
    save_problem(problem, args.output)
    print(f"wrote {args.kind} problem ({args.m} demands, {args.r} networks) "
          f"to {args.output}")
    return 0


def _solve(args) -> int:
    from .algorithms import registry
    from .core.solution import verify_line_solution, verify_tree_solution
    from .io import load_problem, save_solution
    from .report import render_solution_summary

    problem = load_problem(args.problem)
    try:
        spec = registry.resolve(args.algorithm, problem)
    except ValueError as exc:
        raise SystemExit(str(exc))
    sol = registry.solve(
        spec.name, problem,
        epsilon=args.epsilon, seed=args.seed, mis=args.mis,
    )
    if isinstance(problem, TreeProblem):
        verify_tree_solution(problem, sol, unit_height=False)
    else:
        verify_line_solution(problem, sol, unit_height=False)
    print(render_solution_summary(sol))
    if args.save_solution:
        save_solution(sol, args.save_solution)
        print(f"solution written to {args.save_solution}")
    return 0


def _compare(args) -> int:
    from .algorithms import registry
    from .io import load_problem
    from .report import render_comparison

    problem = load_problem(args.problem)
    kw = dict(epsilon=args.epsilon, seed=args.seed)
    entries = []
    if isinstance(problem, TreeProblem):
        main_name = "tree-unit" if problem.unit_height else "tree-arbitrary"
        main_label = ("tree-unit (7+ε)" if problem.unit_height
                      else "tree-arbitrary (80+ε)")
        entries.append((main_label, registry.solve(main_name, problem, **kw)))
        entries.append(("sequential (App. A)",
                        registry.solve("sequential", problem)))
    else:
        main_name = "line-unit" if problem.unit_height else "line-arbitrary"
        main_label = ("line-unit (4+ε)" if problem.unit_height
                      else "line-arbitrary (23+ε)")
        entries.append((main_label, registry.solve(main_name, problem, **kw)))
        entries.append(("Panconesi–Sozio",
                        registry.solve("ps-baseline", problem, **kw)))
    entries.append(("greedy (density)", registry.solve("greedy", problem)))
    opt = registry.solve("exact", problem)
    print(render_comparison(entries, opt=opt.profit))
    return 0


def _sweep(args) -> int:
    from .algorithms import registry
    from .runners import BatchRunner, Job
    from .report import render_sweep

    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    seeds = args.seeds
    params = {"epsilon": args.epsilon, "mis": args.mis}

    from .io import load_problem

    jobs: list[Job] = []
    skipped: list[str] = []
    for path in args.problems:
        problem = load_problem(path)
        for name in solvers:
            try:
                # Same resolution as `solve` — auto, family gating and all.
                spec = registry.resolve(name, problem)
            except KeyError as exc:
                raise SystemExit(f"sweep: {exc.args[0]}")
            except ValueError:
                skipped.append(f"{name} on {path}")
                continue
            for seed in seeds:
                jobs.append(Job(problem=path, solver=spec.name,
                                params=dict(params), seed=seed))
    if skipped:
        print("skipped (family mismatch): " + ", ".join(skipped))
    runner = BatchRunner(processes=args.processes, cache_dir=args.cache_dir)
    results = runner.run(jobs)
    print(render_sweep(results))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2)
        print(f"results written to {args.output}")
    return 1 if any(r.error for r in results) else 0


def _replay(args) -> int:
    from .algorithms import registry
    from .io import load_trace, save_trace
    from .online import generate_trace, make_policy, replay, with_offline
    from .report import render_replay

    policy_kwargs: dict = {
        "greedy-threshold": lambda: {"threshold": args.threshold},
        "dual-gated": lambda: {"eta": args.eta},
        "batch-resolve": lambda: {
            "solver": args.solver,
            "resolve_every": args.resolve_every,
            "solver_params": {"seed": args.seed},
        },
        "preempt-density": lambda: {
            "factor": args.preempt_factor,
            "penalty": args.penalty,
            "threshold": args.threshold,
        },
        "preempt-dual-gated": lambda: {
            "eta": args.eta,
            "penalty": args.penalty,
        },
    }[args.policy]()
    _apply_policy_args(policy_kwargs, args.policy_arg, "replay")
    # Bad kwargs (e.g. a misspelled --policy-arg name) surface as the
    # same friendly errors bad solver names get, not a raw traceback —
    # and before the (possibly expensive) trace is generated or loaded.
    try:
        policy = make_policy(args.policy, **policy_kwargs)
    except ValueError as exc:
        raise SystemExit(f"replay: {exc}")

    if args.trace:
        try:
            trace = load_trace(args.trace)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"replay: {exc}")
    else:
        trace = generate_trace(
            args.kind, events=args.events, process=args.process,
            seed=args.seed, departure_prob=args.departures,
        )
        print(f"generated {args.process} {args.kind} trace: "
              f"{len(trace.events)} events, {trace.num_arrivals} arrivals, "
              f"{trace.num_departures} departures")
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"trace written to {args.save_trace}")

    # Validate solver names against the trace's problem family up front —
    # friendly errors instead of a traceback after the replay has run.
    for name in filter(None, [args.offline,
                              args.solver if args.policy == "batch-resolve"
                              else None]):
        try:
            registry.resolve(name, trace.problem)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"replay: {exc.args[0]}")

    if args.shards > 1:
        return _replay_sharded(args, trace, policy_kwargs)

    result = replay(trace, policy)
    metrics = result.metrics
    if args.offline:
        from .online import offline_optimum

        metrics = with_offline(
            metrics, offline_optimum(trace, args.offline, seed=args.seed)
        )
    print(render_replay([metrics]))
    stats = result.policy_stats
    if "preempt_pruned" in stats:
        print(f"preemption: {stats['preempt_admits']} admits, "
              f"{stats['evictions']} evictions, "
              f"{stats['preempt_rejected']} rejected; "
              f"{stats['preempt_pruned']} candidate plans pruned by the "
              f"cost bound")
    if args.output:
        doc = metrics.to_dict()
        doc["policy_stats"] = result.policy_stats
        doc["trace_meta"] = result.trace_meta
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"metrics written to {args.output}")
    return 0


def _replay_sharded(args, trace, policy_kwargs: dict) -> int:
    """The ``replay --shards N`` branch: plan, fan out, merge, render."""
    from .online import with_offline
    from .report import render_sharded_replay
    from .sharding import StreamedShardedDriver

    driver = StreamedShardedDriver(args.shards, shard_by=args.shard_by,
                                   processes=args.processes)
    result = driver.run(trace, args.policy, policy_kwargs)
    merged = result.merged
    if args.offline:
        from .online import offline_optimum

        merged = with_offline(
            merged, offline_optimum(trace, args.offline, seed=args.seed)
        )
    print(render_sharded_replay(result, merged))
    if args.output:
        doc = {
            "plan": result.plan,
            "shards": [r.metrics.to_dict() for r in result.shard_results],
            "boundary": (result.boundary_result.metrics.to_dict()
                         if result.boundary_result else None),
            "merged": merged.to_dict(),
            "policy_stats": result.policy_stats,
            "wall_s": result.wall_s,
            "critical_path_s": result.critical_path_s,
            "critical_path_events_per_sec":
                result.critical_path_events_per_sec,
            "trace_meta": dict(trace.meta),
        }
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"metrics written to {args.output}")
    return 0


def _serve(args) -> int:
    """The ``serve`` subcommand: a journaled service over stdin/socket."""
    import os

    from .io import load_trace
    from .online.policies import make_policy
    from .service import AdmissionService

    policy_kwargs = _apply_policy_args({}, args.policy_arg, "serve")
    try:
        make_policy(args.policy, **policy_kwargs)  # validate early
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    _setup_obs(args)
    try:
        trace = load_trace(args.trace)
        service = AdmissionService(
            trace, args.policy, policy_kwargs,
            journal_path=args.journal,
            sync=args.sync, sync_window=args.sync_window,
            sync_interval_ms=args.sync_interval_ms,
            checkpoint_every=args.checkpoint_every,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"serve: {exc}")
    # Banners go to stderr: stdout is the response channel.
    print(f"serving {os.path.basename(args.trace)} "
          f"({trace.num_arrivals} demands) with {args.policy}"
          + (f", journal {args.journal}" if args.journal else ""),
          file=sys.stderr)
    _start_metrics(args, service)
    _run_transport(service, args)
    return 0


def _run_transport(service, args) -> None:
    """Pick the serve transport from the parsed flags (shared by
    ``serve`` and ``resume --serve``)."""
    import sys

    if args.port is None:
        from .service.server import serve_stdio

        serve_stdio(service, max_line_bytes=args.max_line_bytes)
        return
    from .service.async_server import serve_async

    def announce(addr):
        print(f"listening on {addr[0]}:{addr[1]} "
              f"(max-clients {args.max_clients})",
              file=sys.stderr, flush=True)

    serve_async(service, port=args.port,
                max_clients=args.max_clients,
                max_line_bytes=args.max_line_bytes,
                announce=announce,
                log=lambda msg: print(f"serve: {msg}",
                                      file=sys.stderr, flush=True))


def _resume(args) -> int:
    """The ``resume`` subcommand: warm restart + finish (or keep serving)."""
    from .service import AdmissionService

    _setup_obs(args)
    try:
        service = AdmissionService.resume(
            args.journal, sync=args.sync,
            sync_window=args.sync_window,
            sync_interval_ms=args.sync_interval_ms,
            checkpoint_every=args.checkpoint_every,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"resume: {exc}")
    resumed_at = service.position
    if service.upgraded:
        print(f"upgraded {args.journal} to binary: {resumed_at} events "
              "folded into one checkpoint", file=sys.stderr)
    print(f"recovered {resumed_at} journaled events "
          f"({service.policy_name}, "
          f"{service.trace.problem.num_demands} demands)",
          file=sys.stderr)
    _start_metrics(args, service)
    if args.serve:
        _run_transport(service, args)
        return 0
    from .report import render_replay

    result = service.run_remaining()
    print(render_replay([result.metrics]))
    if args.output:
        doc = result.metrics.to_dict()
        doc["policy_stats"] = result.policy_stats
        doc["trace_meta"] = result.trace_meta
        doc["resumed_at"] = resumed_at
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"metrics written to {args.output}")
    return 0


def _top(args) -> int:
    """The ``top`` subcommand: the live optimality dashboard."""
    from .obs import run_top

    try:
        run_top(args.host, args.port, interval=args.interval,
                iterations=args.count)
    except (OSError, RuntimeError) as exc:
        raise SystemExit(f"top: {exc}")
    return 0


def _trace_cmd(args) -> int:
    """The ``trace`` subcommand: pull the span ring as Chrome trace
    JSON."""
    from .obs import request_once

    req: dict = {"op": "trace"}
    if args.last is not None:
        req["last"] = args.last
    try:
        resp = request_once(args.host, args.port, req)
    except OSError as exc:
        raise SystemExit(f"trace: {exc}")
    if not resp.get("ok"):
        raise SystemExit(f"trace: service said {resp.get('error')!r}")
    doc = resp["trace"]
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh)
        print(f"{resp['spans']} spans written to {args.output} "
              "(open in Perfetto / chrome://tracing)")
    else:
        json.dump(doc, sys.stdout)
        print()
    return 0


def _compact(args) -> int:
    """The ``compact`` subcommand: fold a journal into one checkpoint."""
    from .service import AdmissionService

    try:
        info = AdmissionService.compact(args.journal)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"compact: {exc}")
    print(f"compacted {args.journal}: {info['position']} events folded "
          f"into one checkpoint, {info['bytes_before']} -> "
          f"{info['bytes_after']} bytes")
    return 0


def _sweep_preemption(args) -> int:
    """Factor × penalty preemption sweep over saved traces.

    A thin wrapper over the :class:`~repro.runners.replay.ReplayRunner`
    grid: one baseline row per trace plus one row per (factor, penalty)
    cell, rendered through the shared sweep table, followed by a
    break-even summary of where preemption stops paying (judged on
    penalty-adjusted profit vs the baseline).
    """
    import glob
    import os

    from .report import render_sweep
    from .runners.replay import ReplayJob, ReplayRunner

    traces = list(args.traces)
    if not traces:
        traces = sorted(glob.glob(os.path.join("tests", "data",
                                               "trace_*.json")))
        if not traces:
            raise SystemExit(
                "sweep-preemption: no traces given and no pinned corpus "
                "found under tests/data/ — pass trace files "
                "(repro replay --save-trace writes them)"
            )
    factors = args.factors if args.policy == "preempt-density" else [None]
    jobs: list[ReplayJob] = []
    for path in traces:
        stem = os.path.splitext(os.path.basename(path))[0]
        jobs.append(ReplayJob(trace=path, policy=args.baseline,
                              label=f"{stem} baseline"))
        for f in factors:
            for q in args.penalties:
                params = {"penalty": q}
                tag = f"q={q:g}"
                if f is not None:
                    params["factor"] = f
                    tag = f"f={f:g} {tag}"
                jobs.append(ReplayJob(trace=path, policy=args.policy,
                                      params=params,
                                      label=f"{stem} {tag}"))
    runner = ReplayRunner(processes=args.processes,
                          cache_dir=args.cache_dir,
                          offline=args.offline)
    results = runner.run(jobs)
    print(render_sweep(results))

    def adj(r):
        return (r.stats or {}).get("penalty_adjusted_profit", r.profit)

    per_trace = len(results) // len(traces)
    print()
    for i, path in enumerate(traces):
        stem = os.path.splitext(os.path.basename(path))[0]
        block = results[i * per_trace:(i + 1) * per_trace]
        base, grid = block[0], block[1:]
        if base.error:
            # A zero-profit errored baseline would make every grid cell
            # look like a win; say what happened instead.
            print(f"{stem}: baseline {args.baseline} failed — "
                  "no break-even summary (see the error column above)")
            continue
        cells = len(args.penalties)
        for j, f in enumerate(factors):
            row = grid[j * cells:(j + 1) * cells]
            paying = [q for q, r in zip(args.penalties, row)
                      if not r.error and adj(r) > adj(base)]
            label = f"factor {f:g}" if f is not None else args.policy
            if paying:
                print(f"{stem}: {label} beats {args.baseline} up to "
                      f"penalty {max(paying):g}")
            else:
                print(f"{stem}: {label} never beats {args.baseline} — "
                      "preemption stops paying")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2)
        print(f"results written to {args.output}")
    return 1 if any(r.error for r in results) else 0


def _decompose(args) -> int:
    from .decomposition import (
        balancing_decomposition,
        ideal_decomposition,
        root_fixing_decomposition,
    )
    from .report import render_decomposition
    from .workloads import make_tree

    tree = make_tree(args.n, args.topology, seed=args.seed)
    print(f"{args.topology} tree on {args.n} vertices")
    print(f"{'construction':<14}{'depth':>7}{'pivot θ':>9}")
    print("-" * 30)
    for name, builder in [("root-fixing", root_fixing_decomposition),
                          ("balancing", balancing_decomposition),
                          ("ideal", ideal_decomposition)]:
        td = builder(tree)
        print(f"{name:<14}{td.max_depth:>7}{td.pivot_size:>9}")
    print()
    print(render_decomposition(ideal_decomposition(tree)))
    return 0


def _lint(args) -> int:
    from pathlib import Path

    from .analysis import get_rule, iter_rules, lint_paths, render_explain

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id}  {rule.name}")
        return 0
    if args.explain:
        try:
            rule = get_rule(args.explain.strip())
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
        print(render_explain(rule), end="")
        return 0

    def rule_set(spec):
        if spec is None:
            return None
        ids = {part.strip() for part in spec.split(",") if part.strip()}
        for rule_id in ids:
            get_rule(rule_id)  # raise on unknown ids up front
        return ids

    try:
        select = rule_set(args.select)
        ignore = rule_set(args.ignore)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    report = lint_paths(paths, select=select, ignore=ignore)
    if args.output:
        Path(args.output).write_text(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "resume" and args.port is not None and not args.serve:
        # Without --serve, resume appends the rest of the trace to the
        # journal, so a forgotten --serve would consume it: refuse first.
        parser.error("resume: --port requires --serve")
    handlers = {
        "generate": _generate,
        "solve": _solve,
        "compare": _compare,
        "sweep": _sweep,
        "replay": _replay,
        "serve": _serve,
        "resume": _resume,
        "compact": _compact,
        "top": _top,
        "trace": _trace_cmd,
        "sweep-preemption": _sweep_preemption,
        "decompose": _decompose,
        "lint": _lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
