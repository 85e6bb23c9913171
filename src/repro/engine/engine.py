"""The engine facade: normalize → stats → plan → execute, with caches.

:class:`Engine` is the default, set-at-a-time way to answer FO queries.
Per call it (1) collects catalog statistics for the structure (memoized),
(2) looks up or builds a costed relational-algebra plan (LRU plan cache,
keyed by formula × signature × statistics profile), (3) executes the plan
on the columnar executor — compiled kernel pipelines with hash joins,
semijoin filtering, and antijoin negation — and (4) keeps the answer per
(structure identity, formula, column order) in an LRU answer cache, as a
record stamped with the structure epoch it answers, which the
incremental layer brings forward after updates.

For *sentences* over low-degree structures the engine additionally owns a
locality fast path: it dispatches to
:class:`repro.locality.bounded_degree.BoundedDegreeEvaluator`, realizing
Theorem 3.11 (linear-time FO evaluation on bounded-degree classes) as a
production code path rather than a standalone demo, with one evaluator
per sentence (:meth:`Engine.census_evaluator`). Table misses inside the
fast path fall back to the engine's own algebra pipeline, never to the
naive O(n^k) evaluator.

Quantifiers and negation range over the structure's universe, so the
engine agrees with the naive evaluator on *every* formula (the
Hypothesis equivalence suite asserts this). Active-domain semantics, the
relational-calculus view, belongs to the FO→RA compiler
(:func:`repro.eval.translate.algebra_answers`).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EvaluationError
from repro.resilience.budget import Budget, CancelToken, as_token
from repro.resilience.faults import fault_point
from repro.engine.cache import LRUCache
from repro.engine.columnar.executor import ColumnarExecutor, ExecutionStats, NodeActuals
from repro.engine.normalize import normalize
from repro.engine.plan import Plan, explain_plan, fused_steps
from repro.engine.planner import Planner
from repro.engine.stats import StructureStats, collect_stats
from repro.incremental.answers import AnswerIndex, bring_forward
from repro.incremental.enumeration import AnswerStream, plan_enumeration
from repro.eval.evaluator import answers as naive_answers
from repro.locality.bounded_degree import BALL_LIMIT, DEGREE_BOUND, BoundedDegreeEvaluator
from repro.locality.hanf import hanf_locality_radius
from repro.locality.neighborhoods import max_ball_size
from repro.logic.analysis import analyze, validate
from repro.logic.syntax import Formula, Var
from repro.structures.structure import Element, Structure, canonical_order
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = ["Engine", "EngineStats", "Explanation", "ProfiledExplanation"]

#: Plans kept in the engine's LRU plan cache.
PLAN_CACHE_SIZE = 256

#: Plans whose total estimated row count stays at or under this bound
#: execute with the semijoin pre-filter switched off — for trivially
#: small plans the filter's extra hash sets cost more than they save.
SMALL_PLAN_ROWS = 2048


@dataclass
class EngineStats:
    """Counters across one engine's lifetime."""

    plans_built: int = 0
    executions: int = 0
    fast_path_dispatches: int = 0
    answers_patched: int = 0
    enumerations: int = 0
    execution: ExecutionStats = field(default_factory=ExecutionStats)

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serializable snapshot (for benchmarks and dashboards)."""
        return {
            "plans_built": self.plans_built,
            "executions": self.executions,
            "fast_path_dispatches": self.fast_path_dispatches,
            "answers_patched": self.answers_patched,
            "enumerations": self.enumerations,
            "execution": self.execution.as_dict(),
        }


@dataclass(frozen=True)
class Explanation:
    """What the engine would do for one (structure, formula) pair."""

    formula: Formula
    normalized: Formula
    plan: Plan
    statistics: StructureStats
    fast_path: bool
    fast_path_reason: str

    def __str__(self) -> str:
        dispatch = "dispatched" if self.fast_path else "not dispatched"
        return "\n".join(
            [
                f"query: {self.formula!r}",
                f"normalized: {self.normalized!r}",
                f"stats: {self.statistics!r}",
                f"bounded-degree fast path: {dispatch} ({self.fast_path_reason})",
                f"estimated plan cost: {self.plan.total_estimated_rows():.1f} rows",
                explain_plan(self.plan),
            ]
        )


@dataclass(frozen=True, eq=False)
class ProfiledExplanation(Explanation):
    """EXPLAIN ANALYZE: an :class:`Explanation` plus measured actuals.

    ``actuals`` maps ``id(plan node)`` to the columnar executor's
    :class:`~repro.engine.columnar.executor.NodeActuals` (output rows, inclusive
    seconds); ``answers`` is the executed result — identical to what
    :meth:`Engine.answers` returns for the same call; ``seconds`` is the
    end-to-end execution wall clock.

    The root always has actuals. A node without actuals was *fused* into
    another step (``Join[z]`` under ``Project[x, y]`` is one kernel);
    :meth:`to_dict` and the text rendering name the step that covers it
    (:func:`~repro.engine.plan.fused_steps`).
    """

    actuals: dict[int, NodeActuals] = field(default_factory=dict)
    answers: frozenset[tuple[Element, ...]] = frozenset()
    seconds: float = 0.0

    def node_actuals(self, node: Plan) -> NodeActuals | None:
        """Measured rows/duration for one node of :attr:`plan`, if recorded."""
        return self.actuals.get(id(node))

    def to_dict(self) -> dict:
        """A JSON-ready EXPLAIN ANALYZE: the plan tree with the
        planner's estimates next to the executor's measured actuals per
        node — what the server's wire-level ``explain`` option ships.
        Fused nodes carry ``fused_into``, the label of the step whose
        actuals cover them, in place of actuals."""
        fused = fused_steps(self.plan, self.actuals)

        def node_dict(node: Plan) -> dict:
            measured = self.actuals.get(id(node))
            cover = fused.get(id(node))
            return {
                "op": node.label(),
                "attributes": list(node.attributes),
                "estimated_rows": node.estimated_rows,
                "actual_rows": measured.rows if measured is not None else None,
                "actual_ms": measured.milliseconds if measured is not None else None,
                "fused_into": cover.label() if cover is not None else None,
                "children": [node_dict(child) for child in node.children()],
            }

        return {
            "formula": str(self.formula),
            "normalized": str(self.normalized),
            "fast_path": self.fast_path,
            "fast_path_reason": self.fast_path_reason,
            "estimated_total_rows": self.plan.total_estimated_rows(),
            "rows": len(self.answers),
            "seconds": self.seconds,
            "plan": node_dict(self.plan),
        }

    def __str__(self) -> str:
        dispatch = "dispatched" if self.fast_path else "not dispatched"
        return "\n".join(
            [
                f"query: {self.formula!r}",
                f"normalized: {self.normalized!r}",
                f"stats: {self.statistics!r}",
                f"bounded-degree fast path: {dispatch} ({self.fast_path_reason})",
                f"estimated plan cost: {self.plan.total_estimated_rows():.1f} rows",
                f"actual: {len(self.answers)} answer rows in {self.seconds * 1000.0:.3f}ms",
                explain_plan(self.plan, actuals=self.actuals),
            ]
        )


class Engine:
    """A planned, cached, locality-aware FO query engine.

    Every plan runs on :class:`~repro.engine.columnar.ColumnarExecutor`,
    for :meth:`answers`, :meth:`evaluate` and :meth:`profile` alike.

    The answer cache keys a structure by its
    :attr:`~repro.structures.structure.Structure.uid`, not its content:
    one entry per (structure, formula, column order) is the answer
    record — the rows, the epoch they answer and, for maintained
    queries, the scope and Hanf census of
    :mod:`repro.incremental.answers` — and is a hit only while the
    structure is still at that epoch.  After ``Structure.insert``/
    ``delete`` the next read (or :meth:`maintained_changed`) brings the
    record forward or replaces it, so a structure under a stream of
    writes holds one entry per query, and ``answer_cache_size`` bounds
    the maintenance records too.  Two content-equal but distinct
    structure objects do not share entries; the server maps equal
    uploads to one object, so its tenants still do.

    :meth:`answers`, :meth:`evaluate`, :meth:`profile`, :meth:`explain`,
    :meth:`maintained_changed` and the preprocessing of
    :meth:`enumerate` hold the structure's
    :attr:`~repro.structures.structure.Structure.lock`: they read and
    patch memos stored on the structure, which a concurrent
    ``insert``/``delete`` would otherwise rewrite under them.

    Parameters
    ----------
    answer_cache_size:
        LRU capacity of the answer cache, which is also the bound on
        maintained answer records. The plan cache holds
        :data:`PLAN_CACHE_SIZE` plans.
    fast_path_threshold:
        Census-count truncation m for :meth:`census_evaluator` (Theorem
        3.10). ``None`` (default) keeps exact censuses, which is
        unconditionally sound; a finite m lets structures of different
        sizes share table entries (e.g. all large cycles), trading the
        formal guarantee for the empirically validated cross-size reuse.
    """

    def __init__(
        self,
        answer_cache_size: int = 1024,
        fast_path_threshold: int | None = None,
    ) -> None:
        self.fast_path_threshold = fast_path_threshold
        self.plan_cache = LRUCache(PLAN_CACHE_SIZE, name="plan")
        self.answer_cache = LRUCache(answer_cache_size, name="answer")
        self._bounded_degree = LRUCache(64, name="bounded_degree")
        self._answer_index = AnswerIndex()
        self.stats = EngineStats()

    # -- public API ----------------------------------------------------------

    def answers(
        self,
        structure: Structure,
        formula: Formula,
        free_order: tuple[Var, ...] | None = None,
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> frozenset[tuple[Element, ...]]:
        """ans(φ(x̄), A) through the planner — same contract as the naive
        :func:`repro.eval.evaluator.answers`.

        ``budget`` (a :class:`~repro.resilience.budget.Budget`, an already
        started :class:`~repro.resilience.budget.CancelToken`, or ``None``)
        bounds execution: the executor checks the deadline per operator
        batch and charges materialized rows against the row budget,
        raising :class:`~repro.errors.BudgetExceededError` instead of
        running long. Exhausted runs cache nothing; answer-cache hits
        return without consuming budget.

        For quantifier-free formulas — and quantified formulas in the
        local-existential and Hanf-gated fragments — the engine
        additionally *maintains* answers across structure updates: a
        read whose cache record is from an earlier epoch (a miss) first
        tries to patch that record forward in place
        (:mod:`repro.incremental.answers`) before recomputing.

        The read holds the structure's
        :attr:`~repro.structures.structure.Structure.lock`, so another
        thread's write waits for it.  The epoch is still read before any
        work: if a write lands anyway (made re-entrantly by the reading
        thread) while the rows are computed or patched, they are
        returned but neither cached nor recorded, since they may predate
        it.
        """
        token = as_token(budget)
        sorted_names = analyze(formula).names
        order_names = _columns(sorted_names, free_order)
        if len(set(order_names)) != len(order_names):
            # Duplicated answer columns have bespoke naive semantics;
            # defer to the reference implementation for this corner.
            return naive_answers(structure, formula, free_order, cancel_token=token)

        with structure.lock:
            # Read the epoch before any work: rows computed while a write
            # lands are returned but never cached as that write's answers.
            epoch = structure.epoch
            key = (structure.uid, formula, order_names)
            record = self.answer_cache.get(key, valid=lambda record: record.epoch == epoch)
            if record is not None:
                return record.rows
            # A miss may still find the record of an earlier epoch: the
            # engine maintains answers in sorted column order.
            record = self.answer_cache.peek(key)
            if record is not None and order_names == sorted_names:
                patched = self._answer_index.patch(structure, formula, record, cancel_token=token)
                if patched is not None:
                    self.stats.answers_patched += 1
                    self.answer_cache.put(key, record)
                    return patched
            rows = self._compute_answers(structure, formula, sorted_names, order_names, token)
            if structure.epoch == epoch:
                self.answer_cache.put(
                    key, self._answer_index.record(structure, formula, rows, epoch, record)
                )
            return rows

    def maintained_changed(
        self,
        structure: Structure,
        formula: Formula,
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> bool | None:
        """Did φ's maintained answer set change across pending deltas?

        ``True``/``False`` when φ's answer record for the structure (in
        sorted column order) could be patched to the current epoch and
        compared; ``None`` when the engine cannot cheaply decide (no
        record, a query outside every maintained fragment, delta log
        outrun, or the patch work limits tripped) —
        callers that must not miss a change treat ``None`` as "assume
        changed".  The patch brings the record forward in place, so a
        follow-up :meth:`answers` call is an answer-cache hit, and it
        counts in ``stats.answers_patched`` like a read's patch.  This is
        what the server's updates endpoint uses to report dirtied
        prepared queries without re-running them.
        """
        key = (structure.uid, formula, analyze(formula).names)
        with structure.lock:
            record = self.answer_cache.peek(key)
            if record is None:
                return None
            before, epoch = record.rows, record.epoch
            after = self._answer_index.patch(
                structure, formula, record, cancel_token=as_token(budget)
            )
            if after is None:
                return None
            if record.epoch != epoch:
                self.stats.answers_patched += 1
            return after != before

    def enumerate(
        self,
        structure: Structure,
        formula: Formula,
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> AnswerStream:
        """ans(φ, A) as a lazy stream with measured per-answer delay.

        Same answer set as :meth:`answers` (columns in sorted-variable
        order), but produced one tuple at a time after a preprocessing
        phase — the Kazana–Segoufin contract (arXiv:1105.3583).  Single
        atoms stream straight off the relation; single-free-variable
        queries on bounded-degree, constant-free structures enumerate by
        neighborhood type (one evaluation per Gaifman class, O(1) delay);
        everything else falls back to materializing through the planned
        pipeline.  The returned :class:`~repro.incremental.enumeration.AnswerStream`
        exposes ``mode``, ``preprocessing_seconds``, and ``delays``.

        ``budget`` charges one row per *yielded* answer (plus deadline
        ticks during preprocessing), so consuming k answers costs k rows
        even when the full answer set would exceed the row budget.
        """
        token = as_token(budget)
        validate(formula, structure.signature)
        self.stats.enumerations += 1
        with structure.lock, _span("engine.enumerate") as enum_span:
            stream = plan_enumeration(self, structure, formula, token)
            enum_span.set("mode", stream.mode)
        if _telemetry_enabled():
            _counter("engine.enumerations").inc()
        return stream

    def evaluate(
        self,
        structure: Structure,
        formula: Formula,
        assignment: dict[Var, Element] | None = None,
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> bool:
        """Decide A ⊨ φ[assignment] — same contract as the naive
        :func:`repro.eval.evaluator.evaluate`."""
        token = as_token(budget)
        names = analyze(formula).names
        if names:
            env = dict(assignment or {})
            order = tuple(Var(name) for name in names)
            missing = [var.name for var in order if var not in env]
            if missing:
                raise EvaluationError(f"free variables {missing} have no binding")
            for var in order:
                if env[var] not in structure:
                    raise EvaluationError(
                        f"assignment binds {var.name!r} to {env[var]!r}, not in universe"
                    )
            values = tuple(env[var] for var in order)
            return values in self.answers(structure, formula, budget=token)

        with structure.lock:
            dispatch, _ = self.fast_path_decision(structure, formula)
            if dispatch:
                self.stats.fast_path_dispatches += 1
                if _telemetry_enabled():
                    _counter("engine.fast_path.dispatches").inc()
                evaluator = self.census_evaluator(formula)
                with _span("engine.fast_path"):
                    return evaluator.evaluate(
                        structure, cancel_token=token, fallback=self._fast_path_fallback
                    )
            return bool(self.answers(structure, formula, budget=token))

    def explain(self, structure: Structure, formula: Formula) -> Explanation:
        """The chosen plan (with cost annotations) and the dispatch decision."""
        with structure.lock:
            plan, normalized = self._plan_for(structure, formula)
            dispatch, reason = self.fast_path_decision(structure, formula)
            statistics = collect_stats(structure)
        return Explanation(
            formula=formula,
            normalized=normalized,
            plan=plan,
            statistics=statistics,
            fast_path=dispatch,
            fast_path_reason=reason,
        )

    def profile(
        self,
        structure: Structure,
        formula: Formula,
        free_order: tuple[Var, ...] | None = None,
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> ProfiledExplanation:
        """EXPLAIN ANALYZE: execute under tracing, return estimates + actuals.

        Unlike :meth:`answers` this always executes (bypassing the
        answer cache — actuals must be measured, not remembered), on the
        same columnar executor and cached pipeline, with a per-step
        recorder attached. The returned :class:`ProfiledExplanation`
        carries the executed answer set — identical to :meth:`answers`
        on the same arguments — plus actual rows and inclusive
        milliseconds per plan node next to the planner's estimates, so
        estimate-vs-actual misplanning is visible node by node; nodes the
        pipeline fused into another step are marked as such.
        """
        sorted_names = analyze(formula).names
        order_names = _columns(sorted_names, free_order)
        if len(set(order_names)) != len(order_names):
            raise EvaluationError("profile does not support duplicated free_order columns")
        recorder: dict[int, NodeActuals] = {}
        with structure.lock:
            plan, normalized = self._plan_for(structure, formula)
            dispatch, reason = self.fast_path_decision(structure, formula)
            start = time.perf_counter()
            with _span("engine.profile"):
                rows = self._execute_plan(
                    structure, formula, sorted_names, order_names, recorder,
                    cancel_token=as_token(budget),
                )
            elapsed = time.perf_counter() - start
            statistics = collect_stats(structure)
        return ProfiledExplanation(
            formula=formula,
            normalized=normalized,
            plan=plan,
            statistics=statistics,
            fast_path=dispatch,
            fast_path_reason=reason,
            actuals=recorder,
            answers=rows,
            seconds=elapsed,
        )

    def page_order(
        self,
        structure: Structure,
        formula: Formula,
        rows: frozenset[tuple[Element, ...]],
        render: Callable[[Sequence], Sequence[str]] | None = None,
    ) -> tuple[tuple[tuple[Element, ...], ...], tuple[str, ...] | None]:
        """``rows`` in the canonical page order
        (:func:`~repro.structures.structure.canonical_order`), and with
        ``render`` (rows → each row's text), each row's text at the same
        index.

        When ``rows`` is the very set φ's answer record holds — what a
        read just returned from the cache, a patch or a recompute — this
        is the order and the texts kept on the record: made by the
        record's first page read and brought forward after each patch
        (:func:`~repro.incremental.answers.bring_forward`), so a warm
        read sorts and renders nothing.  Any other rows (another rung's,
        a widened schema's, a profile's) are sorted here and come back
        without texts: their caller renders what it serves.  The record
        is read under the structure's lock without counting a lookup; a
        sort, bisection or rendering runs after this method releases the
        lock, so a served read's write never waits on it (enumeration's
        preprocessing holds the lock throughout), and the result is kept
        only if ``rows`` is still the record's then.
        """
        key = (structure.uid, formula, analyze(formula).names)
        with structure.lock:
            record = self.answer_cache.peek(key)
            if record is None or record.rows is not rows:
                record = None
            else:
                order, ordered, texts = record.order, record.ordered, record.texts
                if ordered is rows and (texts is not None or render is None):
                    return order, texts
        if record is None:
            return canonical_order(rows), None
        order, texts = bring_forward(order, ordered, rows, texts, render)
        with structure.lock:
            if record.rows is rows:
                record.order, record.ordered, record.texts = order, rows, texts
        return order, texts

    def invalidate(self, structure: Structure) -> int:
        """Drop every cached answer for ``structure``; return the count.

        The answer-cache entries keyed by the structure's
        :attr:`~repro.structures.structure.Structure.uid` are its
        maintenance records too, so the next read genuinely re-executes
        instead of being patched from a surviving record.  The count is
        one per (query, column order).  A content-equal but distinct
        structure object keeps its own entries.
        """
        uid = structure.uid
        return self.answer_cache.evict_where(lambda key: key[0] == uid)

    def clear_caches(self) -> None:
        self.plan_cache.clear()
        self.answer_cache.clear()
        self._bounded_degree.clear()

    def reset_stats(self) -> None:
        """Zero the lifetime counters (cache contents are untouched)."""
        self.stats = EngineStats()

    # -- the locality fast path (Theorem 3.11) -------------------------------

    def fast_path_decision(self, structure: Structure, formula: Formula) -> tuple[bool, str]:
        """Whether a bounded-degree census dispatch is sound *and* cheap.

        Sound: sentence, constant-free structure, Gaifman degree at most
        ``DEGREE_BOUND`` (the theorem is about bounded-degree classes).
        Cheap: the Hanf-radius ball-size bound stays under
        ``BALL_LIMIT``, so the linear-time census has a small constant.
        """
        analysis = analyze(formula)
        if analysis.names:
            return False, "not a sentence"
        if structure.constants:
            return False, "structure interprets constants"
        degree = structure.max_degree()
        if degree > DEGREE_BOUND:
            return False, f"Gaifman degree {degree} exceeds bound {DEGREE_BOUND}"
        radius = hanf_locality_radius(analysis.rank)
        ball_bound = max_ball_size(DEGREE_BOUND, radius)
        if ball_bound > BALL_LIMIT:
            return False, (
                f"ball bound {ball_bound} at Hanf radius {radius} exceeds "
                f"limit {BALL_LIMIT}"
            )
        return True, (
            f"degree {degree} ≤ {DEGREE_BOUND}, ball bound {ball_bound} ≤ {BALL_LIMIT}"
        )

    def census_evaluator(self, sentence: Formula) -> BoundedDegreeEvaluator:
        """The engine's one census evaluator for ``sentence`` (a 64-entry
        LRU), shared by the fast path and the fallback chain's census rung;
        each passes its own table-miss fallback to ``evaluate``."""
        return self._bounded_degree.get_or_compute(
            sentence,
            lambda: BoundedDegreeEvaluator(
                sentence, degree_bound=DEGREE_BOUND, threshold=self.fast_path_threshold
            ),
        )

    def _fast_path_fallback(
        self,
        structure: Structure,
        sentence: Formula,
        cancel_token: CancelToken | None = None,
    ) -> bool:
        # Census-table miss: answer through the algebra pipeline (and its
        # caches), not the naive evaluator.
        return bool(self.answers(structure, sentence, budget=cancel_token))

    # -- plan + execute ------------------------------------------------------

    def _plan_for(self, structure: Structure, formula: Formula) -> tuple[Plan, Formula]:
        with _span("engine.collect_stats"):
            stats = collect_stats(structure)
        key = (formula, structure.signature, stats.plan_key)

        def build() -> tuple[Plan, Formula]:
            with _span("engine.plan") as plan_span:
                validate(formula, structure.signature)
                with _span("engine.normalize"):
                    normalized = normalize(formula)
                planner = Planner(stats)
                self.stats.plans_built += 1
                if _telemetry_enabled():
                    _counter("engine.plans_built").inc()
                plan = planner.plan(normalized, analyze(formula).names)
                plan_span.set("estimated_rows", plan.total_estimated_rows())
                return plan, normalized

        return self.plan_cache.get_or_compute(key, build)

    def _compute_answers(
        self,
        structure: Structure,
        formula: Formula,
        sorted_names: tuple[str, ...],
        order_names: tuple[str, ...],
        cancel_token: CancelToken | None = None,
    ) -> frozenset[tuple[Element, ...]]:
        with _span("engine.answers") as answers_span:
            rows = self._execute_plan(
                structure, formula, sorted_names, order_names, None,
                cancel_token=cancel_token,
            )
            answers_span.set("rows", len(rows))
            return rows

    def _execute_plan(
        self,
        structure: Structure,
        formula: Formula,
        sorted_names: tuple[str, ...],
        order_names: tuple[str, ...],
        recorder: dict[int, NodeActuals] | None,
        cancel_token: CancelToken | None = None,
    ) -> frozenset[tuple[Element, ...]]:
        plan, _ = self._plan_for(structure, formula)
        fault_point("engine.execute")
        executor = ColumnarExecutor(
            structure,
            self.stats.execution,
            recorder=recorder,
            semijoin_filtering=plan.total_estimated_rows() > SMALL_PLAN_ROWS,
            cancel_token=cancel_token,
        )
        self.stats.executions += 1
        if _telemetry_enabled():
            _counter("engine.executions").inc()
        with _span("engine.execute"):
            relation = executor.run(plan)
        extra = tuple(name for name in order_names if name not in sorted_names)
        if extra:
            # Naive `answers` ranges extra free_order columns over the
            # full universe.
            relation = relation.extend_columns(extra, structure.universe)
        if relation.attributes != order_names:
            relation = relation.project(order_names)
        return relation.rows


def _columns(
    names: tuple[str, ...], free_order: tuple[Var, ...] | None
) -> tuple[str, ...]:
    """The answer columns of a call: ``free_order``'s names, which must
    cover every free variable, or the sorted free ``names`` without one."""
    if free_order is None:
        return names
    order_names = tuple(var.name for var in free_order)
    missing = set(names) - set(order_names)
    if missing:
        raise EvaluationError(f"free_order omits free variables {sorted(missing)}")
    return order_names
