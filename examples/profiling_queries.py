"""Profiling FO queries: telemetry, EXPLAIN ANALYZE, and the metrics report.

Walks through the observability layer:

1. enable telemetry (``repro.telemetry.enable()`` — or export
   ``REPRO_TELEMETRY=1`` before starting Python);
2. profile one query-zoo formula with ``Engine.profile`` and read the
   per-operator estimate-vs-actual report;
3. run a whole corpus and read the aggregated metrics: per-operator
   rows, cache hit rates, fast-path dispatches.

Run:  PYTHONPATH=src python examples/profiling_queries.py
"""

from repro import telemetry
from repro.engine import Engine
from repro.logic.parser import parse
from repro.queries.zoo import fo_graph_corpus
from repro.structures.builders import directed_cycle, random_graph


def main() -> None:
    # -- 1. Telemetry is off by default; turn it on for this process --------
    telemetry.enable()
    engine = Engine(fast_path_threshold=4)

    # -- 2. EXPLAIN ANALYZE one query ---------------------------------------
    # distance-two: pairs at distance exactly 2 — a join the planner must
    # order, a negation the executor runs as an antijoin.
    graph = random_graph(40, 0.12, seed=7)
    distance_two = parse("exists z (E(x, z) & E(z, y)) & ~E(x, y)")
    profile = engine.profile(graph, distance_two)
    print("=== EXPLAIN ANALYZE: distance-two on G(40, 0.12) ===")
    print(profile)
    print()
    # Reading the tree: est= is the planner's cardinality estimate,
    # actual= what the executor measured (durations include children).
    # "fused into Project[x, y]" marks a node the compiled pipeline
    # computed inside that step, so its cost is in that step's actuals.
    # Large est/actual gaps point at misplanning — exactly what this
    # report exists to expose.

    # -- 3. A workload's worth of metrics -----------------------------------
    for query in fo_graph_corpus():
        engine.answers(graph, query.formula, query.variables)
    # A bounded-degree family exercises the Theorem 3.11 fast path.
    mutual = parse("exists x exists y (E(x, y) & E(y, x))")
    for n in range(10, 20):
        engine.evaluate(directed_cycle(n), mutual)

    print(telemetry.metrics_report())
    print()
    print("=== per-cache summary ===")
    for cache in (engine.plan_cache, engine.answer_cache):
        print(f"  {cache!r}")
    print()
    print("engine stats:", engine.stats.as_dict())

    # -- 4. Spans: where one call spent its time ----------------------------
    spans = telemetry.drain_spans()
    if spans:
        print()
        print("=== last trace ===")
        print(spans[-1].render())


if __name__ == "__main__":
    main()
