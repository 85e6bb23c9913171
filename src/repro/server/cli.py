"""``python -m repro.server`` — run the multi-tenant FO query service.

Examples
--------
::

    python -m repro.server --port 8035
    python -m repro.server --port 0                      # ephemeral port
    python -m repro.server --deadline-ms 2000 --max-rows 200000
    python -m repro.server --fault-inject 3 --telemetry  # chaos + metrics

The first line on stdout is always ``serving on http://HOST:PORT``
(flushed before the accept loop starts), so scripts can scrape the bound
port even with ``--port 0``.  SIGINT/SIGTERM shut the server down
cleanly with exit status 0 — the CI server job asserts this.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.resilience.budget import Budget
from repro.resilience.faults import FaultInjector, set_injector
from repro.server.http import make_server
from repro.server.service import QueryService

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="A multi-tenant FO query service: prepared queries, "
        "shared plan cache, per-tenant budgets and fallback chains.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8035, help="bind port (0 = ephemeral, printed)"
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline for every tenant (admission "
        "control; requests may tighten, never loosen)",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        help="default per-request materialized-row budget for every tenant",
    )
    parser.add_argument(
        "--executor",
        choices=("tuple", "columnar", "auto"),
        default=None,
        help="executor tier for plan execution: the reference tuple "
        "executor, the columnar kernel tier, or cost-based auto dispatch "
        "(default: the REPRO_EXECUTOR environment variable, else auto)",
    )
    parser.add_argument(
        "--degree-bound",
        type=int,
        default=3,
        help="degree bound for the census rung of every tenant chain",
    )
    parser.add_argument(
        "--fault-inject",
        type=int,
        default=None,
        metavar="PERIOD",
        help="arm deterministic fault injection at the given period "
        "(same semantics as REPRO_FAULT_INJECT; the fallback chains "
        "absorb the faults)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable span/metrics telemetry (REPRO_TELEMETRY=1 equivalent); "
        "/metrics is richer with it on",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="fraction of requests whose spans are recorded (deterministic "
        "per trace id; ids are echoed regardless). Default: 1.0 with "
        "--telemetry, 0.0 without",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="write one structured JSON line per answer request to PATH "
        "('-' = stderr): trace_id, tenant, query hash, rows, budget "
        "spend, degradations, breaker states, status",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="flag access-log entries at or over this duration as slow "
        "(the slow-query log is the slow=true view of the access log)",
    )
    parser.add_argument(
        "--readonly",
        action="store_true",
        help="disable POST /v1/structures/<id>/updates (typed 403); for "
        "replicas that must never diverge from their upstream",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log one line per request to stderr"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        print(
            f"error: --deadline-ms must be positive, got {args.deadline_ms}",
            file=sys.stderr,
        )
        return 2
    if args.max_rows is not None and args.max_rows < 1:
        print(f"error: --max-rows must be positive, got {args.max_rows}", file=sys.stderr)
        return 2
    if args.fault_inject is not None:
        if args.fault_inject < 2:
            print(
                f"error: --fault-inject period must be >= 2, got {args.fault_inject}",
                file=sys.stderr,
            )
            return 2
        set_injector(FaultInjector(period=args.fault_inject))
    if args.telemetry:
        from repro import telemetry

        telemetry.enable()

    default_budget = None
    if args.deadline_ms is not None or args.max_rows is not None:
        default_budget = Budget(deadline_ms=args.deadline_ms, max_rows=args.max_rows)

    if args.trace_sample is not None and not 0.0 <= args.trace_sample <= 1.0:
        print(
            f"error: --trace-sample must be in [0, 1], got {args.trace_sample}",
            file=sys.stderr,
        )
        return 2

    from repro.engine.engine import Engine
    from repro.telemetry.logs import open_access_log

    service = QueryService(
        default_budget=default_budget,
        engine=Engine(executor=args.executor),
        degree_bound=args.degree_bound,
        trace_sample=args.trace_sample,
        access_log=open_access_log(args.access_log, slow_ms=args.slow_ms),
        readonly=args.readonly,
    )
    server = make_server(service, host=args.host, port=args.port, verbose=args.verbose)
    print(f"serving on {server.url}", flush=True)

    def _shutdown(signum, frame) -> None:  # noqa: ARG001 — signal API
        # shutdown() must not run on the serve_forever thread; the signal
        # handler runs on the main thread, which is exactly that thread,
        # so hand the call to a helper.
        import threading

        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    print("server stopped", file=sys.stderr)
    return 0
