"""fmtoolbox — the finite model theory toolbox of a database theoretician.

An executable reproduction of L. Libkin's PODS 2009 survey: databases as
finite relational structures, FO as a query language, and the survey's
proof tools — Ehrenfeucht–Fraïssé games, locality (BNDP / Gaifman /
Hanf / threshold-Hanf / Gaifman's theorem), 0–1 laws — implemented as
working, tested algorithms.

Subpackages
-----------
``repro.logic``
    FO syntax, parser, builder DSL, quantifier rank, transformations,
    Hintikka formulas (S1).
``repro.structures``
    Finite relational structures, canonical families, isomorphism,
    Gaifman geometry (S2).
``repro.eval``
    Three query evaluation back-ends: naive, relational algebra, AC⁰
    circuits (S3).
``repro.engine``
    The production query engine: normalization, catalog statistics, a
    cost-based planner over the relational algebra, hash-join/antijoin
    execution with plan + answer caches, and a bounded-degree fast path
    (Theorem 3.11) — the default way to answer queries at scale.
``repro.games``
    Exact EF and pebble game solvers, a duplicator strategy library,
    separating sentences (S4).
``repro.locality``
    BNDP, Gaifman and Hanf locality, threshold-Hanf, Gaifman's theorem,
    linear-time bounded-degree evaluation (S5).
``repro.zero_one``
    Random structures, extension axioms, exact μ(φ) ∈ {0, 1} decisions
    (S6).
``repro.fixpoint``
    Datalog (semi-naive, stratified) and LFP operators — the non-FO
    queries (S7).
``repro.descriptive``
    QBF + the PSPACE reduction, automata, MSO on words, ∃SO / Fagin
    (S8).
``repro.queries``
    The canonical query zoo and the §3.3 reduction tricks (S9).
``repro.telemetry``
    Observability: span tracing, a counter/gauge/histogram metrics
    registry, and the engine's EXPLAIN ANALYZE support. Off by default —
    enable with ``repro.telemetry.enable()`` or ``REPRO_TELEMETRY=1``
    (S14).
``repro.server``
    The multi-tenant FO query service: stable HTTP/JSON wire format,
    content-addressed structure store, prepared queries, per-tenant
    budgets + fallback chains as admission control, and a stdlib
    ``socketserver`` transport, one thread per connection —
    ``python -m repro.server`` (S18).

Quickstart
----------
>>> from repro import parse, evaluate, linear_order, ef_equivalent
>>> evaluate(linear_order(3), parse("forall x forall y (x < y | y < x | x = y)"))
True
>>> ef_equivalent(linear_order(4), linear_order(5), 2)   # Theorem 3.1
True
"""

from repro.errors import (
    BudgetExceededError,
    DatalogError,
    EvaluationError,
    FMTError,
    FormulaError,
    GameError,
    LocalityError,
    ParseError,
    SignatureError,
    StaleStreamError,
    StructureError,
)
from repro.engine import (
    Engine,
    default_engine,
    engine_answers,
    engine_evaluate,
)
from repro.eval import (
    BooleanQuery,
    Query,
    algebra_answers,
    answers,
    compile_query,
    evaluate,
    evaluate_circuit,
)
from repro.games import (
    distinguishing_sentence,
    ef_equivalent,
    linear_order_duplicator,
    play_ef_game,
    solve_ef_game,
)
from repro.locality import (
    BoundedDegreeEvaluator,
    hanf_equivalent,
    neighborhood_census,
    threshold_hanf_equivalent,
)
from repro.logic import (
    GRAPH,
    ORDER,
    SET,
    SUCCESSOR,
    Signature,
    parse,
    quantifier_rank,
)
from repro.structures import (
    Structure,
    bare_set,
    linear_order,
    neighborhood,
    random_graph,
    undirected_cycle,
)
from repro.zero_one import decide_almost_sure, mu_estimate
from repro import telemetry

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "FMTError", "SignatureError", "FormulaError", "ParseError",
    "StructureError", "EvaluationError", "GameError", "LocalityError",
    "DatalogError", "BudgetExceededError", "StaleStreamError",
    # logic
    "Signature", "GRAPH", "ORDER", "SUCCESSOR", "SET", "parse",
    "quantifier_rank",
    # structures
    "Structure", "bare_set", "linear_order", "random_graph",
    "undirected_cycle", "neighborhood",
    # eval
    "evaluate", "answers", "algebra_answers", "compile_query",
    "evaluate_circuit", "Query", "BooleanQuery",
    # engine
    "Engine", "default_engine", "engine_answers", "engine_evaluate",
    # games
    "solve_ef_game", "ef_equivalent", "play_ef_game",
    "linear_order_duplicator", "distinguishing_sentence",
    # locality
    "hanf_equivalent", "threshold_hanf_equivalent", "neighborhood_census",
    "BoundedDegreeEvaluator",
    # zero-one
    "decide_almost_sure", "mu_estimate",
    # observability
    "telemetry",
]
