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

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Each module → the convenience exports it provides.  They resolve on
#: first access (PEP 562), so importing one subpackage — the server, say
#: — loads only what that subpackage imports, not the whole toolbox.
_SOURCES = {
    "repro.errors": (
        "FMTError", "SignatureError", "FormulaError", "ParseError",
        "StructureError", "EvaluationError", "GameError", "LocalityError",
        "DatalogError", "BudgetExceededError", "StaleStreamError",
    ),
    "repro.logic": (
        "Signature", "GRAPH", "ORDER", "SUCCESSOR", "SET", "parse",
        "quantifier_rank",
    ),
    "repro.structures": (
        "Structure", "bare_set", "linear_order", "random_graph",
        "undirected_cycle", "neighborhood",
    ),
    "repro.eval": (
        "evaluate", "answers", "algebra_answers", "compile_query",
        "evaluate_circuit", "Query", "BooleanQuery",
    ),
    "repro.engine": ("Engine", "default_engine", "engine_answers", "engine_evaluate"),
    "repro.games": (
        "solve_ef_game", "ef_equivalent", "play_ef_game",
        "linear_order_duplicator", "distinguishing_sentence",
    ),
    "repro.locality": (
        "hanf_equivalent", "threshold_hanf_equivalent", "neighborhood_census",
        "BoundedDegreeEvaluator",
    ),
    "repro.zero_one": ("decide_almost_sure", "mu_estimate"),
}  # fmt: skip
_ORIGIN = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *_ORIGIN, "telemetry"]


def __getattr__(name: str):
    if name == "telemetry":  # the observability subpackage itself
        return importlib.import_module("repro.telemetry")
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
