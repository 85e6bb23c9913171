"""The engine facade: normalize → stats → plan → execute, with caches.

:class:`Engine` is the default, set-at-a-time way to answer FO queries.
Per call it (1) collects catalog statistics for the structure (memoized),
(2) looks up or builds a costed relational-algebra plan (LRU plan cache,
keyed by formula × signature × statistics profile), (3) executes the plan
with hash joins, semijoin filtering, and antijoin negation, and (4)
memoizes the answer per (structure, formula) in an LRU answer cache.

For *sentences* over low-degree structures the engine additionally owns a
locality fast path: it dispatches to
:class:`repro.locality.bounded_degree.BoundedDegreeEvaluator`, realizing
Theorem 3.11 (linear-time FO evaluation on bounded-degree classes) as a
production code path rather than a standalone demo. Table misses inside
the fast path fall back to the engine's own algebra pipeline, never to
the naive O(n^k) evaluator.

Default semantics is ``domain="universe"``, which agrees with the naive
evaluator on *every* formula (the Hypothesis equivalence suite asserts
this); ``domain="active"`` gives database-style active-domain semantics.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EvaluationError, LocalityError
from repro.resilience.budget import Budget, CancelToken, as_token
from repro.resilience.faults import fault_point
from repro.engine.cache import LRUCache
from repro.engine.columnar.executor import ColumnarExecutor
from repro.engine.executor import ExecutionStats, Executor, NodeActuals
from repro.engine.normalize import normalize
from repro.engine.plan import Plan, explain_plan
from repro.engine.planner import Planner
from repro.engine.stats import StructureStats, collect_stats
from repro.eval.algebra import Relation
from repro.incremental.answers import AnswerIndex
from repro.incremental.enumeration import AnswerStream, plan_enumeration
from repro.eval.evaluator import answers as naive_answers
from repro.locality.bounded_degree import BoundedDegreeEvaluator
from repro.locality.hanf import hanf_locality_radius
from repro.locality.neighborhoods import max_ball_size
from repro.logic.analysis import free_variables, quantifier_rank, validate
from repro.logic.syntax import Formula, Var
from repro.structures.structure import Element, Structure
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = ["Engine", "EngineStats", "Explanation", "ProfiledExplanation"]


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

    ``actuals`` maps ``id(plan node)`` to the executor's
    :class:`~repro.engine.executor.NodeActuals` (output rows, inclusive
    seconds); ``answers`` is the executed result — identical to what
    :meth:`Engine.answers` returns for the same call; ``seconds`` is the
    end-to-end execution wall clock.
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
        node — what the server's wire-level ``explain`` option ships."""

        def node_dict(node: Plan) -> dict:
            measured = self.actuals.get(id(node))
            return {
                "op": node.label(),
                "attributes": list(node.attributes),
                "estimated_rows": node.estimated_rows,
                "actual_rows": measured.rows if measured is not None else None,
                "actual_ms": measured.milliseconds if measured is not None else None,
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

    Parameters
    ----------
    domain:
        Quantification domain for negation/quantifiers: ``"universe"``
        (default; agrees with the naive evaluator everywhere) or
        ``"active"`` (active-domain semantics).
    plan_cache_size / answer_cache_size:
        LRU capacities for the two caches.
    degree_threshold:
        Maximal Gaifman degree for the bounded-degree fast path.
    fast_path_ball_limit:
        The fast path only engages when the worst-case Hanf-radius ball
        (``max_ball_size(degree, (3^qr − 1)/2)``) stays below this bound,
        keeping the linear-time census genuinely cheap.
    fast_path_threshold:
        Census-count truncation m for the fast path (Theorem 3.10).
        ``None`` (default) keeps exact censuses, which is unconditionally
        sound; a finite m lets structures of different sizes share table
        entries (e.g. all large cycles), trading the formal guarantee for
        the empirically validated cross-size reuse.
    enable_fast_path:
        Master switch for the Theorem 3.11 dispatch.
    small_plan_rows:
        Plans whose total estimated row count stays at or under this
        bound execute with the semijoin pre-filter switched off — for
        trivially small plans the filter's extra hash sets cost more
        than they save. Set to 0 to always filter.
    executor:
        Which executor tier runs plans: ``"tuple"`` (the reference
        row-at-a-time executor), ``"columnar"`` (compiled integer-key
        kernel pipelines, :mod:`repro.engine.columnar`), or ``"auto"``
        (cost-based dispatch, the default). ``None`` defers to the
        ``REPRO_EXECUTOR`` environment variable, falling back to
        ``"auto"``. :meth:`profile` always runs the tuple executor —
        per-node EXPLAIN ANALYZE actuals are defined on the fully
        materialized pipeline, which fusion deliberately destroys.
    tiny_plan_rows / columnar_min_rows:
        The ``"auto"`` dispatch bands, by total estimated rows: at most
        ``tiny_plan_rows`` → columnar (its cached compiled pipeline is
        the cheapest path for trivially small plans, where the tuple
        executor's per-node setup dominates); at least
        ``columnar_min_rows`` → columnar (integer kernels win on bulk);
        in between → the tuple executor (both are fast; the reference
        path keeps its production mileage).
    """

    def __init__(
        self,
        domain: str = "universe",
        plan_cache_size: int = 256,
        answer_cache_size: int = 1024,
        degree_threshold: int = 3,
        fast_path_ball_limit: int = 64,
        fast_path_threshold: int | None = None,
        enable_fast_path: bool = True,
        small_plan_rows: int = 2048,
        executor: str | None = None,
        tiny_plan_rows: int = 64,
        columnar_min_rows: int = 512,
    ) -> None:
        if domain not in ("universe", "active"):
            raise EvaluationError(f"domain must be 'universe' or 'active', got {domain!r}")
        if executor is None:
            executor = os.environ.get("REPRO_EXECUTOR", "auto") or "auto"
        if executor not in ("auto", "tuple", "columnar"):
            raise EvaluationError(
                f"executor must be 'auto', 'tuple', or 'columnar', got {executor!r}"
            )
        self.domain_mode = domain
        self.executor_mode = executor
        self.tiny_plan_rows = tiny_plan_rows
        self.columnar_min_rows = columnar_min_rows
        self.degree_threshold = degree_threshold
        self.fast_path_ball_limit = fast_path_ball_limit
        self.fast_path_threshold = fast_path_threshold
        self.enable_fast_path = enable_fast_path
        self.small_plan_rows = small_plan_rows
        self.plan_cache = LRUCache(plan_cache_size, name="plan")
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

        For quantifier-free formulas — and, since ISSUE 10, quantified
        formulas in the local-existential and Hanf-gated fragments —
        under universe semantics the engine additionally *maintains*
        answers across structure updates: a content-cache miss caused by
        ``Structure.insert``/``delete`` first tries to patch the answer
        set recorded at an earlier epoch
        (:mod:`repro.incremental.answers`) before recomputing.
        """
        token = as_token(budget)
        free = free_variables(formula)
        sorted_names = tuple(sorted(var.name for var in free))
        if free_order is None:
            order_names = sorted_names
        else:
            order_names = tuple(var.name for var in free_order)
            missing = {var.name for var in free} - set(order_names)
            if missing:
                raise EvaluationError(f"free_order omits free variables {sorted(missing)}")
            if len(set(order_names)) != len(order_names):
                # Duplicated answer columns have bespoke naive semantics;
                # defer to the reference implementation for this corner.
                return naive_answers(structure, formula, free_order, cancel_token=token)

        key = (structure, formula, self.domain_mode, order_names)
        maintain = self.domain_mode == "universe" and order_names == sorted_names
        cached = self.answer_cache.get(key)
        if cached is not None:
            if maintain:
                # The hit certifies the rows match the *current* content,
                # so re-stamp the maintenance record at the current epoch.
                self._answer_index.remember(structure, formula, order_names, cached)
            return cached
        if maintain:
            patched = self._answer_index.patch(
                structure, formula, order_names, cancel_token=token
            )
            if patched is not None:
                self.stats.answers_patched += 1
                self.answer_cache.put(key, patched)
                return patched
        rows = self._compute_answers(structure, formula, sorted_names, order_names, token)
        self.answer_cache.put(key, rows)
        if maintain:
            self._answer_index.remember(structure, formula, order_names, rows)
        return rows

    def maintained_changed(
        self,
        structure: Structure,
        formula: Formula,
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> bool | None:
        """Did φ's maintained answer set change across pending deltas?

        ``True``/``False`` when a maintenance record for (structure uid,
        φ) could be patched to the current epoch and compared; ``None``
        when the engine cannot cheaply decide (no record, non-universe
        semantics, delta log outrun, or the patch work limits tripped) —
        callers that must not miss a change treat ``None`` as "assume
        changed".  The patched rows stay in the maintenance record, so a
        follow-up :meth:`answers` call reuses the work.  This is what
        the server's updates endpoint uses to report dirtied prepared
        queries without re-running them.
        """
        if self.domain_mode != "universe":
            return None
        token = as_token(budget)
        order_names = tuple(sorted(var.name for var in free_variables(formula)))
        return self._answer_index.changed(
            structure, formula, order_names, cancel_token=token
        )

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
        with _span("engine.enumerate") as enum_span:
            stream = plan_enumeration(self, structure, formula, token)
            enum_span.set("mode", stream.mode)
        if _telemetry_enabled():
            _counter("engine.enumerations").inc()
        return stream

    def answers_batch(
        self,
        requests: list[tuple[Structure, Formula]],
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> list[frozenset[tuple[Element, ...]]]:
        """:meth:`answers` for many (structure, formula) pairs, in request order.

        A loop over :meth:`answers`: the plan cache plans each distinct
        (formula, signature, statistics) combination once, the answer
        cache executes duplicate requests once, and reads after a
        ``Structure.insert``/``delete`` are patched exactly as single
        reads are. ``budget`` is one token for the whole batch.
        """
        token = as_token(budget)
        with _span("engine.answers_batch") as batch_span:
            results = [
                self.answers(structure, formula, budget=token)
                for structure, formula in requests
            ]
            batch_span.set("requests", len(results))
        if _telemetry_enabled():
            _counter("engine.batch.requests").inc(len(results))
        return results

    def evaluate_batch(
        self,
        requests: list[tuple[Structure, Formula]],
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> list[bool]:
        """:meth:`evaluate` for many (structure, sentence) pairs, in request order.

        Every formula must be a sentence. ``budget`` is one token for the
        whole batch (census loops and plan execution alike).
        """
        token = as_token(budget)
        requests = list(requests)
        for _, formula in requests:
            if free_variables(formula):
                raise EvaluationError(
                    "evaluate_batch expects sentences; use answers_batch for queries"
                )
        return [
            self.evaluate(structure, formula, budget=token)
            for structure, formula in requests
        ]

    def evaluate_many(
        self,
        structures: list[Structure],
        formula: Formula,
        *,
        budget: "Budget | CancelToken | None" = None,
    ) -> list[bool]:
        """Decide one sentence on many structures."""
        return self.evaluate_batch(
            [(structure, formula) for structure in structures], budget=budget
        )

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
        free = free_variables(formula)
        if free:
            env = dict(assignment or {})
            missing = sorted(var.name for var in free if var not in env)
            if missing:
                raise EvaluationError(f"free variables {missing} have no binding")
            for var in free:
                if env[var] not in structure:
                    raise EvaluationError(
                        f"assignment binds {var.name!r} to {env[var]!r}, not in universe"
                    )
            order = tuple(sorted(free, key=lambda var: var.name))
            values = tuple(env[var] for var in order)
            return values in self.answers(structure, formula, budget=token)

        dispatch, _ = self.fast_path_decision(structure, formula)
        if dispatch:
            self.stats.fast_path_dispatches += 1
            if _telemetry_enabled():
                _counter("engine.fast_path.dispatches").inc()
            evaluator = self._bounded_degree_evaluator(formula)
            with _span("engine.fast_path"):
                try:
                    return evaluator.evaluate(structure, cancel_token=token)
                except LocalityError:  # pragma: no cover - decision guards this
                    pass
        return bool(self.answers(structure, formula, budget=token))

    def explain(self, structure: Structure, formula: Formula) -> Explanation:
        """The chosen plan (with cost annotations) and the dispatch decision."""
        plan, normalized = self._plan_for(structure, formula)
        dispatch, reason = self.fast_path_decision(structure, formula)
        return Explanation(
            formula=formula,
            normalized=normalized,
            plan=plan,
            statistics=collect_stats(structure),
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
        answer cache — actuals must be measured, not remembered), with a
        per-node recorder attached to the executor. The returned
        :class:`ProfiledExplanation` carries the executed answer set —
        identical to :meth:`answers` on the same arguments — plus actual
        rows and inclusive milliseconds per plan node next to the
        planner's estimates, so estimate-vs-actual misplanning is
        visible node by node.
        """
        free = free_variables(formula)
        sorted_names = tuple(sorted(var.name for var in free))
        if free_order is None:
            order_names = sorted_names
        else:
            order_names = tuple(var.name for var in free_order)
            missing = {var.name for var in free} - set(order_names)
            if missing:
                raise EvaluationError(f"free_order omits free variables {sorted(missing)}")
            if len(set(order_names)) != len(order_names):
                raise EvaluationError(
                    "profile does not support duplicated free_order columns"
                )
        plan, normalized = self._plan_for(structure, formula)
        dispatch, reason = self.fast_path_decision(structure, formula)
        recorder: dict[int, NodeActuals] = {}
        start = time.perf_counter()
        with _span("engine.profile"):
            rows = self._execute_plan(
                structure, formula, sorted_names, order_names, recorder,
                cancel_token=as_token(budget),
            )
        elapsed = time.perf_counter() - start
        return ProfiledExplanation(
            formula=formula,
            normalized=normalized,
            plan=plan,
            statistics=collect_stats(structure),
            fast_path=dispatch,
            fast_path_reason=reason,
            actuals=recorder,
            answers=rows,
            seconds=elapsed,
        )

    def invalidate(self, structure: Structure) -> int:
        """Drop every cached answer for ``structure``; return the count.

        Both layers go: the content-hash answer cache *and* the
        delta-maintained records (:class:`AnswerIndex`), so the next
        read genuinely re-executes instead of being answered by a
        surviving maintenance record.  The count reports cache entries
        (one per cached answer set, as before); forgotten maintenance
        records ride along uncounted.
        """
        self._answer_index.forget(structure)
        return self.answer_cache.evict_where(lambda key: key[0] == structure)

    def clear_caches(self) -> None:
        self.plan_cache.clear()
        self.answer_cache.clear()
        self._bounded_degree.clear()
        self._answer_index.clear()

    def reset_stats(self) -> None:
        """Zero the lifetime counters (cache contents are untouched)."""
        self.stats = EngineStats()

    # -- the locality fast path (Theorem 3.11) -------------------------------

    def fast_path_decision(self, structure: Structure, formula: Formula) -> tuple[bool, str]:
        """Whether a bounded-degree census dispatch is sound *and* cheap.

        Sound: sentence, constant-free structure, Gaifman degree within
        the configured class bound (the theorem is about bounded-degree
        classes). Cheap: the Hanf-radius ball-size bound stays under
        ``fast_path_ball_limit``, so the linear-time census has a small
        constant.
        """
        if not self.enable_fast_path:
            return False, "fast path disabled"
        if self.domain_mode != "universe":
            return False, "fast path requires universe semantics"
        if free_variables(formula):
            return False, "not a sentence"
        if collect_stats(structure).has_constants:
            return False, "structure interprets constants"
        degree = collect_stats(structure).max_degree
        if degree > self.degree_threshold:
            return False, f"Gaifman degree {degree} exceeds bound {self.degree_threshold}"
        radius = hanf_locality_radius(quantifier_rank(formula))
        ball_bound = max_ball_size(self.degree_threshold, radius)
        if ball_bound > self.fast_path_ball_limit:
            return False, (
                f"ball bound {ball_bound} at Hanf radius {radius} exceeds "
                f"limit {self.fast_path_ball_limit}"
            )
        return True, (
            f"degree {degree} ≤ {self.degree_threshold}, "
            f"ball bound {ball_bound} ≤ {self.fast_path_ball_limit}"
        )

    def _bounded_degree_evaluator(self, sentence: Formula) -> BoundedDegreeEvaluator:
        return self._bounded_degree.get_or_compute(
            sentence,
            lambda: BoundedDegreeEvaluator(
                sentence,
                degree_bound=self.degree_threshold,
                threshold=self.fast_path_threshold,
                fallback=self._fast_path_fallback,
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
        key = (formula, structure.signature, self.domain_mode, stats.plan_key)

        def build() -> tuple[Plan, Formula]:
            with _span("engine.plan") as plan_span:
                validate(formula, structure.signature)
                with _span("engine.normalize"):
                    normalized = normalize(formula)
                wanted = tuple(sorted(var.name for var in free_variables(formula)))
                planner = Planner(stats, len(self._domain_values(structure)))
                self.stats.plans_built += 1
                if _telemetry_enabled():
                    _counter("engine.plans_built").inc()
                plan = planner.plan(normalized, wanted)
                plan_span.set("estimated_rows", plan.total_estimated_rows())
                return plan, normalized

        return self.plan_cache.get_or_compute(key, build)

    def _use_columnar(self, plan: Plan) -> bool:
        """The executor-tier dispatch decision for one plan.

        Forced modes short-circuit; ``auto`` sends the two extremes of
        the cost range to the columnar tier — trivially small plans
        (cached pipeline beats the tuple executor's per-node setup, the
        fix for the old ``has-loop`` regression) and bulky plans
        (integer kernels beat per-row tuple hashing) — and keeps the
        middle band on the reference tuple executor.
        """
        if self.executor_mode == "tuple":
            return False
        if self.executor_mode == "columnar":
            return True
        estimate = plan.total_estimated_rows()
        return estimate <= self.tiny_plan_rows or estimate >= self.columnar_min_rows

    def _domain_values(self, structure: Structure) -> tuple[Element, ...]:
        if self.domain_mode == "universe":
            return structure.universe
        active = structure.active_domain()
        if not active:
            # Mirror the translate convention: keep quantifiers well
            # defined on structures with all-empty relations.
            return (structure.universe[0],)
        return tuple(sorted(active, key=repr))

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
        domain = self._domain_values(structure)
        fault_point("engine.execute")
        executor_class = (
            ColumnarExecutor
            if recorder is None and self._use_columnar(plan)
            else Executor
        )
        executor = executor_class(
            structure,
            domain,
            self.stats.execution,
            recorder=recorder,
            semijoin_filtering=plan.total_estimated_rows() > self.small_plan_rows,
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
            # full universe, independent of the domain mode.
            relation = relation.extend_columns(extra, structure.universe)
        if relation.attributes != order_names:
            relation = relation.project(order_names)
        return relation.rows


def relation_answers(
    engine: Engine, structure: Structure, formula: Formula
) -> Relation:
    """The answer set as a named-column :class:`Relation` (sorted columns)."""
    free = tuple(sorted(var.name for var in free_variables(formula)))
    return Relation(free, engine.answers(structure, formula))
