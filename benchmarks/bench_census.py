"""E18 — keyed census and batched bounded-degree evaluation, serially.

Measures the two algorithmic floors of the locality census:

* ``neighborhood_census`` (ball-presentation keys + fingerprint-bucketed
  registry) against ``neighborhood_census_baseline`` (the per-element
  reference loop) on a degree-bounded structure with n = 1000 — the
  floor is >= 2x wall-clock and >= 5x fewer isomorphism calls;
* ``BoundedDegreeEvaluator.evaluate_many`` (keyed census) against the
  ``census_mode="baseline"`` evaluator on a family of n = 1000
  bounded-degree structures — the floor is >= 2x.

A scaling curve for the keyed pipeline at n in {200, 1000, 4000} feeds
EXPERIMENTS.md E18.  The baseline is only timed at n <= 1000 — it is
quadratic and takes tens of seconds beyond that, which is the point of
the exercise.

Results land under the ``"census"`` key of ``BENCH_engine.json``
(read-modify-write, so the engine benchmark's rows survive).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import print_table

from repro import telemetry
from repro.locality.bounded_degree import BoundedDegreeEvaluator
from repro.locality.neighborhoods import (
    TypeRegistry,
    neighborhood_census,
    neighborhood_census_baseline,
)
from repro.logic.parser import parse
from repro.structures.builders import disjoint_cycles, grid_graph

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

CENSUS_RADIUS = 1
CENSUS_SIZES = (200, 1000, 4000)
BASELINE_SIZE_CAP = 1000

MUTUAL = parse("exists x exists y (E(x, y) & E(y, x))")


def _grid(n: int):
    """A degree-<=4 grid with exactly ``n`` elements (rows x columns)."""
    side = max(2, round(n**0.5))
    while n % side:
        side -= 1
    return grid_graph(side, n // side)


def _cycle_family():
    """Three n=1000 degree-2 structures with distinct cycle spectra."""
    return [
        disjoint_cycles([n, n + 1, n + 2, 997 - 3 * n]) for n in (3, 7, 11)
    ]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def census_rows() -> tuple[list[dict], dict]:
    """Head-to-head census comparison at the acceptance size (n=1000)."""
    structure = _grid(1000)
    fast_registry = TypeRegistry()
    fast_census, fast_seconds = _timed(
        lambda: neighborhood_census(structure, CENSUS_RADIUS, fast_registry)
    )
    base_registry = TypeRegistry()
    base_census, base_seconds = _timed(
        lambda: neighborhood_census_baseline(
            structure, CENSUS_RADIUS, base_registry
        )
    )
    assert fast_census == base_census, "fast census diverged from baseline"
    summary = {
        "structure": f"grid n={structure.size} r={CENSUS_RADIUS}",
        "baseline_seconds": round(base_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "speedup": round(base_seconds / fast_seconds, 2),
        "baseline_iso_tests": base_registry.isomorphism_tests,
        "fast_iso_tests": fast_registry.isomorphism_tests,
        "iso_call_ratio": round(
            base_registry.isomorphism_tests
            / max(fast_registry.isomorphism_tests, 1),
            2,
        ),
        "types": len(fast_registry),
    }
    rows = [
        {
            "pipeline": name,
            "n": structure.size,
            "seconds": round(seconds, 6),
            "iso_tests": registry.isomorphism_tests,
        }
        for name, seconds, registry in (
            ("baseline", base_seconds, base_registry),
            ("fast", fast_seconds, fast_registry),
        )
    ]
    return rows, summary


def scaling_rows() -> list[dict]:
    """E18 curve: keyed pipeline at every n in CENSUS_SIZES, baseline only
    where it stays affordable (n <= BASELINE_SIZE_CAP)."""
    rows: list[dict] = []
    for n in CENSUS_SIZES:
        structure = _grid(n)
        pipelines = [("fast", neighborhood_census)]
        if n <= BASELINE_SIZE_CAP:
            pipelines.insert(0, ("baseline", neighborhood_census_baseline))
        for name, census in pipelines:
            _, seconds = _timed(
                lambda: census(structure, CENSUS_RADIUS, TypeRegistry())
            )
            rows.append(
                {"pipeline": name, "n": structure.size, "seconds": round(seconds, 6)}
            )
    return rows


def evaluator_summary() -> dict:
    """Keyed-census evaluator vs the baseline-census evaluator."""
    fast = BoundedDegreeEvaluator(MUTUAL, degree_bound=2)
    fast_values, fast_seconds = _timed(
        lambda: fast.evaluate_many(_cycle_family())
    )
    baseline = BoundedDegreeEvaluator(
        MUTUAL, degree_bound=2, census_mode="baseline"
    )
    base_values, base_seconds = _timed(
        lambda: [baseline.evaluate(structure) for structure in _cycle_family()]
    )
    assert fast_values == base_values, "evaluator modes disagreed"
    return {
        "family": "disjoint_cycles n=1000 x3",
        "sentence": "exists x exists y (E(x, y) & E(y, x))",
        "baseline_seconds": round(base_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "speedup": round(base_seconds / fast_seconds, 2),
    }


def collect() -> dict:
    telemetry.enable()
    try:
        rows, census = census_rows()
        scaling = scaling_rows()
        evaluator = evaluator_summary()
        snapshot = telemetry.metrics_snapshot()
    finally:
        telemetry.disable()
    return {
        "census": census,
        "census_rows": rows,
        "scaling": scaling,
        "evaluator": evaluator,
        "telemetry": {
            "counters": {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith("locality.")
            }
        },
    }


class TestCensusSpeedup:
    def test_census_and_evaluator_speedups_and_record_json(self):
        data = collect()
        census = data["census"]
        evaluator = data["evaluator"]

        print_table(
            "E18: census scaling (keyed pipeline vs quadratic baseline)",
            ["pipeline", "n", "seconds"],
            [
                (row["pipeline"], row["n"], f"{row['seconds']:.4f}")
                for row in data["scaling"]
            ],
        )

        # Floor: >= 2x census speedup at n = 1000.
        assert census["speedup"] >= 2.0, census
        # Floor: >= 5x fewer isomorphism calls.
        assert census["baseline_iso_tests"] >= 5 * max(
            census["fast_iso_tests"], 1
        ), census
        # Floor: >= 2x evaluator speedup on the n = 1000 family.
        assert evaluator["speedup"] >= 2.0, evaluator

        existing = (
            json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
        )
        existing["census"] = data
        BENCH_PATH.write_text(json.dumps(existing, indent=2) + "\n")
        assert BENCH_PATH.exists()


if __name__ == "__main__":
    print(json.dumps(collect(), indent=2))
