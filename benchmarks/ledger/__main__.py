"""``python -m benchmarks.ledger`` — run, compare and check the layer ledger.

Run one workload (the form ``BENCHMARK.json`` names)::

    python -m benchmarks.ledger --workload served-prepared --seed 0 --seconds 15 --trace 0

Without ``--workload`` every workload runs in turn.  ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones, and
``--spans FILE`` also writes the joined client and server spans.
``--out FILE`` appends each result to FILE as one JSON line.  The last
line a run prints is ``{"correct", "attempted", "failed", "metrics"}``;
it exits 1 when an answer was wrong or an operation failed.

Compare two sets of runs, or fresh runs against the committed baseline::

    python -m benchmarks.ledger --compare PARENT.jsonl CHANGE.jsonl
    python -m benchmarks.ledger --check BENCHMARK.json --seed 0

Both print parent, change, bound and verdict for every workload and
end-to-end metric, and exit 1 on any regression.  ``--check`` runs each
workload :data:`CHECK_RUNS` times.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = ROOT / "BENCHMARK.json"
BASELINE = Path(__file__).with_name("baseline.jsonl")
#: Fresh runs per workload that ``--check`` compares with the baseline.
CHECK_RUNS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="with --trace 1, write the joined spans here")
    parser.add_argument("--out", type=Path, help="append each result as a JSON line")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--check", type=Path, metavar="BENCHMARK_JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        parent, change = (read_records(path) for path in args.compare)
        return report(parent, change, load_spec(SPEC))
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: the program's source is missing ({source})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source.parent))
    # SIGTERM unwinds like an exception, so every started server is stopped.
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return measure(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def measure(args: argparse.Namespace) -> int:
    """Run the workloads ``args`` names, or ``--check`` them."""
    from .workloads import WORKLOADS

    spec = load_spec(args.check or SPEC)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.check:
        fresh = [
            run_one(workload["name"], args.seed, seconds, False, None, None)
            for workload in spec["workloads"]
            for _ in range(CHECK_RUNS)
        ]
        regressed = report(read_records(BASELINE), fresh, spec)
        return int(regressed or not all(record["correct"] for record in fresh))
    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    records = [run_one(name, args.seed, seconds, bool(args.trace), args.spans, args.out) for name in names]
    return 0 if all(record["correct"] for record in records) else 1


def _exit_on_signal(signum: int, frame) -> None:  # noqa: ARG001 — signal API
    raise SystemExit(128 + signum)


def load_spec(path: Path) -> dict:
    return json.loads(path.read_text())


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def run_one(name: str, seed: int, seconds: float, trace: bool, spans: Path | None, out: Path | None) -> dict:
    """Run one workload, print its table and result line, return its record."""
    from .workloads import run

    result = run(name, seed, seconds, trace, spans)
    print(f"{name} seed {seed}, {seconds:g} s measured{', traced' if trace else ''}")
    notes = result.pop("notes")
    for note in notes:
        print(f"  {note}")
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in result["metrics"].items()}
    for key, metric in metrics.items():
        print(f"  {key:<32} {metric['value']:>14.6f} {metric['unit']}")
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, **result, "notes": notes}
    if out is not None:
        with out.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
    return record


def report(parent: list[dict], change: list[dict], spec: dict) -> int:
    """Print one verdict row per workload and end-to-end metric; 1 on regression."""
    from .stats import verdict

    def values(records: list[dict], workload: str, metric: str) -> list[float]:
        return [
            r["metrics"][metric]["value"]
            for r in records
            if r["workload"] == workload and not r["trace"] and metric in r["metrics"]
        ]

    print(f"{'workload':<16} {'metric':<16} {'parent':>12} {'change':>12} {'bound':>6} {'worse':>8}  verdict")
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            before, after = values(parent, workload, metric["name"]), values(change, workload, metric["name"])
            if not before or not after:
                print(f"{workload:<16} {metric['name']:<16} {'-':>12} {'-':>12} {metric['bound']:>6.2f} {'-':>8}  missing")
                continue
            outcome, worse = verdict(before, after, metric["bound"], metric["better"])
            regressed |= outcome == "regression"
            print(
                f"{workload:<16} {metric['name']:<16} {statistics.median(before):>12.4f} "
                f"{statistics.median(after):>12.4f} {metric['bound']:>6.2f} {worse:>+8.1%}  {outcome}"
            )
    return int(regressed)


if __name__ == "__main__":
    sys.exit(main())
