"""Graceful degradation: the fallback chain and its circuit breakers (S17).

Vardi's combined/data-complexity split is an argument for *tiered*
serving: the planned engine is the fast tier, the Theorem 3.11
bounded-degree census path is the cheap linear-time tier for the
sentences it covers, and the naive recursive evaluator is the
always-correct tier of last resort. All three compute the **same
function** — ans(φ, A) — which is what makes degradation safe: a rung
that fails its budget (or suffers an injected fault) is replaced by a
slower rung, never by a wrong answer.

:class:`FallbackChain` walks its rungs in order; a rung is skipped when
its applicability predicate says no or when its :class:`CircuitBreaker`
is open (too many consecutive failures — stop hammering a tier that is
over budget for this workload and go straight to the next one; after a
cooldown one probe call half-opens it again). Every degradation is
recorded in ``resilience.*`` telemetry counters.

Fault points are armed (:func:`repro.resilience.faults.arm_faults`) only
around *degradable* rungs — every rung except the last — so under
``REPRO_FAULT_INJECT`` the chain absorbs injected faults and the final
rung still answers faithfully.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BudgetExceededError
from repro.logic.syntax import Formula
from repro.resilience.budget import Budget, CancelToken, as_token
from repro.resilience.faults import arm_faults
from repro.structures.structure import Element, Structure
from repro.telemetry.context import current_trace_id
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = ["CircuitBreaker", "FallbackChain", "Rung", "default_chain", "resilient_answers"]

Answers = frozenset[tuple[Element, ...]]

AnswerFn = Callable[[Structure, Formula, CancelToken | None], Answers]
ApplicableFn = Callable[[Structure, Formula], tuple[bool, str]]


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe after cooldown.

    Closed (normal) → open after ``failure_threshold`` consecutive
    failures → half-open after ``cooldown_s`` (one probe call is let
    through; success closes, failure re-opens and restarts the cooldown).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be positive, got {failure_threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be non-negative, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.failures = 0
        self._opened_at: float | None = None

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether the next call may proceed (half-open admits one probe)."""
        return self.state != "open"

    def record_success(self) -> None:
        self.failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._opened_at = self._clock()

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state}, failures={self.failures})"


@dataclass
class Rung:
    """One tier of the degradation ladder."""

    name: str
    answers: AnswerFn
    applicable: ApplicableFn | None = None

    def is_applicable(self, structure: Structure, formula: Formula) -> tuple[bool, str]:
        if self.applicable is None:
            return True, "always applicable"
        return self.applicable(structure, formula)


@dataclass
class Degradation:
    """One recorded step down the ladder (kept for introspection/tests).

    ``trace_id`` is the request context active when the rung failed
    (``None`` outside a request scope), so a degradation observed in the
    chain joins the access-log line and span tree of the request that
    caused it.
    """

    rung: str
    error: str
    trace_id: str | None = None


class FallbackChain:
    """Try each rung in order; degrade on :class:`BudgetExceededError`.

    Parameters
    ----------
    rungs:
        The ladder, fastest first. The last rung runs with fault
        injection disarmed (it is the tier of last resort).
    failure_threshold / cooldown_s:
        Circuit-breaker tuning, one independent breaker per rung.
    name:
        Telemetry prefix (``resilience.<name>.*``).

    Only budget-shaped failures degrade: a rung raising a non-budget
    error (a genuine bug) propagates immediately — masking it behind a
    slower rung would hide the bug behind a correct but slower answer.
    """

    def __init__(
        self,
        rungs: list[Rung],
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        name: str = "chain",
    ) -> None:
        if not rungs:
            raise ValueError("a fallback chain needs at least one rung")
        self.rungs = list(rungs)
        self.name = name
        self.breakers = {
            rung.name: CircuitBreaker(failure_threshold, cooldown_s)
            for rung in self.rungs
        }
        self.degradations: list[Degradation] = []

    def answers(
        self,
        structure: Structure,
        formula: Formula,
        budget: Budget | CancelToken | None = None,
    ) -> Answers:
        """ans(φ, A) through the first rung that stays within budget.

        Raises the last rung's :class:`BudgetExceededError` when every
        applicable rung is over budget — the typed "I could not afford
        this query" outcome, never a hang and never a wrong answer.
        """
        token = as_token(budget)
        last_error: BudgetExceededError | None = None
        with _span(f"resilience.{self.name}") as chain_span:
            for index, rung in enumerate(self.rungs):
                ok, reason = rung.is_applicable(structure, formula)
                if not ok:
                    continue
                breaker = self.breakers[rung.name]
                if not breaker.allow():
                    if _telemetry_enabled():
                        _counter(f"resilience.{self.name}.circuit_skips").inc()
                    continue
                degradable = index < len(self.rungs) - 1
                try:
                    if degradable:
                        with arm_faults():
                            result = rung.answers(structure, formula, token)
                    else:
                        result = rung.answers(structure, formula, token)
                except BudgetExceededError as error:
                    breaker.record_failure()
                    last_error = error
                    self.degradations.append(
                        Degradation(rung.name, str(error), current_trace_id())
                    )
                    if _telemetry_enabled():
                        _counter(f"resilience.{self.name}.degradations").inc()
                        _counter("resilience.degradations", rung=rung.name).inc()
                        _counter(f"resilience.rung.{rung.name}.failures").inc()
                    continue
                breaker.record_success()
                chain_span.set("rung", rung.name)
                if _telemetry_enabled():
                    _counter(f"resilience.rung.{rung.name}.answers").inc()
                    if index > 0:
                        _counter(f"resilience.{self.name}.degraded_answers").inc()
                return result
        if last_error is not None:
            raise last_error
        raise BudgetExceededError(
            f"no applicable rung in fallback chain {self.name!r}"
        )


# -- the default ladder: engine → census → naive ------------------------------


def default_chain(
    engine: Any | None = None,
    degree_bound: int = 3,
    census_max_rank: int = 4,
    failure_threshold: int = 3,
    cooldown_s: float = 30.0,
) -> FallbackChain:
    """The Theorem 3.11 degradation ladder.

    1. ``engine`` — the planned/cached engine (fast path included);
    2. ``bounded-degree`` — the linear-time census evaluator, for
       constant-free sentences within the degree and rank caps, its
       table misses answered by the budget-aware naive evaluator;
    3. ``naive`` — the recursive reference evaluator, fault-free and
       budget-aware, the tier that always has an answer if the budget
       lets it finish.
    """
    # Imported here: repro.engine imports repro.resilience.budget, so the
    # chain module must not import the engine at module load time.
    from repro.engine.engine import Engine
    from repro.eval.evaluator import answers as naive_answers
    from repro.eval.evaluator import evaluate as naive_evaluate
    from repro.locality.bounded_degree import BoundedDegreeEvaluator
    from repro.logic.analysis import constants_of, free_variables, quantifier_rank

    engine = engine if engine is not None else Engine()
    evaluators: dict[Formula, BoundedDegreeEvaluator] = {}

    def engine_rung(
        structure: Structure, formula: Formula, token: CancelToken | None
    ) -> Answers:
        if free_variables(formula):
            return engine.answers(structure, formula, budget=token)
        value = engine.evaluate(structure, formula, budget=token)
        return frozenset({()}) if value else frozenset()

    def census_applicable(structure: Structure, formula: Formula) -> tuple[bool, str]:
        if free_variables(formula):
            return False, "not a sentence"
        if structure.constants or constants_of(formula):
            return False, "constants present"
        rank = quantifier_rank(formula)
        if rank > census_max_rank:
            return False, f"quantifier rank {rank} > census cap {census_max_rank}"
        degree = structure.max_degree()
        if degree > degree_bound:
            return False, f"Gaifman degree {degree} > bound {degree_bound}"
        return True, ""

    def census_fallback(
        structure: Structure, sentence: Formula, cancel_token: CancelToken | None = None
    ) -> bool:
        return naive_evaluate(structure, sentence, cancel_token=cancel_token)

    def census_rung(
        structure: Structure, formula: Formula, token: CancelToken | None
    ) -> Answers:
        evaluator = evaluators.get(formula)
        if evaluator is None:
            evaluator = BoundedDegreeEvaluator(
                formula, degree_bound=degree_bound, fallback=census_fallback
            )
            evaluators[formula] = evaluator
        value = evaluator.evaluate(structure, cancel_token=token)
        return frozenset({()}) if value else frozenset()

    def naive_rung(
        structure: Structure, formula: Formula, token: CancelToken | None
    ) -> Answers:
        return naive_answers(structure, formula, cancel_token=token)

    return FallbackChain(
        [
            Rung("engine", engine_rung),
            Rung("bounded-degree", census_rung, census_applicable),
            Rung("naive", naive_rung),
        ],
        failure_threshold=failure_threshold,
        cooldown_s=cooldown_s,
        name="default",
    )


def resilient_answers(
    structure: Structure,
    formula: Formula,
    budget: Budget | CancelToken | None = None,
    chain: FallbackChain | None = None,
) -> Answers:
    """One-shot ans(φ, A) through a (given or fresh) default chain."""
    chain = chain if chain is not None else default_chain()
    return chain.answers(structure, formula, budget=budget)
