"""Every evaluation path in the library behind one answers() interface.

The library can answer ``ans(φ, A)`` five independent ways:

====================  =====================================================
``naive``             the recursive model checker (PSPACE upper bound, §3.1)
``algebra``           the FO → relational algebra compiler (FO = RA)
``engine``            the planned/cached engine, fast path included
``engine-batch``      the engine's batch APIs (``answers_batch``,
                      ``evaluate_batch``)
``engine-columnar``   the engine with the columnar tier forced
                      (``executor="columnar"``): compiled integer-key
                      kernel pipelines instead of the tuple executor
``circuit``           the AC⁰ circuit family (FO ⊆ AC⁰ construction)
``bounded-degree``    the census evaluator (Thms 3.10/3.11), table shared
                      across structures so the Hanf memoization itself is
                      under differential test
====================  =====================================================

``resilient``         the :class:`~repro.resilience.fallback.FallbackChain`
                      (engine → census → naive), under whatever fault
                      injection and budgets the run configures

Each is wrapped as a :class:`Backend` with an *applicability predicate*
(circuits need constant-free sentences, the census evaluator needs the
degree bound, ...).  The differential runner cross-checks all applicable
backends pairwise on every generated case.

Backends that can honor a budget also carry a ``budget_fn``; the runner
hands each call a fresh :class:`~repro.resilience.budget.CancelToken`
when the run has a deadline (``--deadline-ms``), and treats a resulting
:class:`~repro.errors.BudgetExceededError` as an *allowed* outcome — a
typed refusal, never a wrong answer.

Backends hold caches on purpose (the engine's plan/answer caches, the
census truth table): a cache that leaks a wrong answer across cases is a
bug this suite exists to catch.  Call :meth:`BackendRegistry.reset` for
a cold start.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.conformance.generate import Case
from repro.errors import BudgetExceededError, FMTError
from repro.eval.circuits import compile_query, evaluate_circuit
from repro.eval.evaluator import answers as naive_answers
from repro.eval.translate import algebra_answers
from repro.engine.engine import Engine
from repro.locality.bounded_degree import BoundedDegreeEvaluator
from repro.logic.analysis import constants_of, free_variables, quantifier_rank
from repro.logic.syntax import Formula
from repro.resilience.budget import CancelToken
from repro.resilience.fallback import default_chain
from repro.structures.structure import Element, Structure

__all__ = [
    "Backend",
    "BackendRegistry",
    "default_registry",
    "remote_backend",
    "DEFAULT_BACKENDS",
]

Answers = frozenset[tuple[Element, ...]]

#: Quantifier-rank ceiling for the census evaluator: the sound Hanf
#: radius is (3^qr − 1)/2, and past this rank the census of even a tiny
#: structure degenerates to "the whole structure per ball" — legal but
#: pointless, and slow once the fuzz budget climbs.
_CENSUS_MAX_RANK = 4

TRUE_ANSWER: Answers = frozenset({()})
FALSE_ANSWER: Answers = frozenset()


@dataclass
class Backend:
    """One evaluation path: a name, an answer function, an applicability
    predicate, and a reset hook for cache-holding backends."""

    name: str
    answer_fn: Callable[[Structure, Formula], Answers]
    applicable_fn: Callable[[Structure, Formula], tuple[bool, str]] | None = None
    reset_fn: Callable[[], None] | None = None
    budget_fn: Callable[[Structure, Formula, CancelToken], Answers] | None = None

    def applicable(self, structure: Structure, formula: Formula) -> tuple[bool, str]:
        if self.applicable_fn is None:
            return True, "always applicable"
        return self.applicable_fn(structure, formula)

    def answers(
        self,
        structure: Structure,
        formula: Formula,
        budget: CancelToken | None = None,
    ) -> Answers:
        """ans(φ, A) with columns in sorted free-variable-name order.

        Sentences return ``{()}`` (true) or ``∅`` (false), matching
        :func:`repro.eval.evaluator.answers`.  When a ``budget`` token is
        supplied and this backend knows how to honor one (``budget_fn``),
        the call may raise :class:`~repro.errors.BudgetExceededError`
        instead of running long; backends without a ``budget_fn`` ignore
        the token (they simply run unbudgeted).
        """
        if budget is not None and self.budget_fn is not None:
            return self.budget_fn(structure, formula, budget)
        return self.answer_fn(structure, formula)

    def reset(self) -> None:
        if self.reset_fn is not None:
            self.reset_fn()

    def __repr__(self) -> str:
        return f"Backend({self.name})"


@dataclass
class BackendRegistry:
    """A named collection of backends with selection helpers."""

    backends: dict[str, Backend] = field(default_factory=dict)

    def register(self, backend: Backend) -> Backend:
        if backend.name in self.backends:
            raise FMTError(f"backend {backend.name!r} registered twice")
        self.backends[backend.name] = backend
        return backend

    def get(self, name: str) -> Backend:
        try:
            return self.backends[name]
        except KeyError:
            raise FMTError(
                f"unknown backend {name!r}; registered: {sorted(self.backends)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self.backends)

    def select(self, names: list[str] | None) -> list[Backend]:
        if names is None:
            return list(self.backends.values())
        return [self.get(name) for name in names]

    def applicable(self, case: Case, names: list[str] | None = None) -> list[Backend]:
        return [
            backend
            for backend in self.select(names)
            if backend.applicable(case.structure, case.formula)[0]
        ]

    def reset(self) -> None:
        for backend in self.backends.values():
            backend.reset()


# -- the default backends ----------------------------------------------------


def _sentence_answers(value: bool) -> Answers:
    return TRUE_ANSWER if value else FALSE_ANSWER


def _constant_free(structure: Structure, formula: Formula) -> tuple[bool, str]:
    if structure.constants or constants_of(formula):
        return False, "constants present"
    return True, ""


def _engine_backend(name: str, batched: bool, executor: str | None = None) -> Backend:
    engine = Engine(domain="universe", executor=executor)

    def compute(
        structure: Structure, formula: Formula, token: CancelToken | None = None
    ) -> Answers:
        if batched:
            if free_variables(formula):
                return engine.answers_batch([(structure, formula)], budget=token)[0]
            return _sentence_answers(
                engine.evaluate_batch([(structure, formula)], budget=token)[0]
            )
        if free_variables(formula):
            return engine.answers(structure, formula, budget=token)
        # evaluate() (not answers()) so the Theorem 3.11 fast-path
        # dispatch is part of the differential surface.
        return _sentence_answers(engine.evaluate(structure, formula, budget=token))

    def reset() -> None:
        engine.clear_caches()
        engine.reset_stats()

    backend = Backend(name, compute, reset_fn=reset, budget_fn=compute)
    backend.engine = engine  # type: ignore[attr-defined] — introspection for tests
    return backend


def _circuit_backend() -> Backend:
    compiled: dict[tuple, object] = {}

    def applicable(structure: Structure, formula: Formula) -> tuple[bool, str]:
        if free_variables(formula):
            return False, "not a sentence"
        if structure.signature.constants or constants_of(formula):
            return False, "constants present"
        return True, ""

    def compute(structure: Structure, formula: Formula) -> Answers:
        n = structure.size
        key = (formula, structure.signature, n)
        circuit = compiled.get(key)
        if circuit is None:
            circuit = compile_query(formula, structure.signature, n)
            compiled[key] = circuit
        # The construction fixes the universe to [n]; relabel through the
        # structure's canonical element order.
        position = {element: index for index, element in enumerate(structure.universe)}
        relabeled = structure.relabel(position)
        return _sentence_answers(evaluate_circuit(circuit, relabeled))

    return Backend("circuit", compute, applicable, reset_fn=compiled.clear)


def _bounded_degree_backend(degree_bound: int) -> Backend:
    evaluators: dict[Formula, BoundedDegreeEvaluator] = {}

    def applicable(structure: Structure, formula: Formula) -> tuple[bool, str]:
        if free_variables(formula):
            return False, "not a sentence"
        ok, reason = _constant_free(structure, formula)
        if not ok:
            return False, reason
        rank = quantifier_rank(formula)
        if rank > _CENSUS_MAX_RANK:
            return False, f"quantifier rank {rank} > census cap {_CENSUS_MAX_RANK}"
        degree = structure.max_degree()
        if degree > degree_bound:
            return False, f"Gaifman degree {degree} > bound {degree_bound}"
        return True, ""

    def compute(
        structure: Structure, formula: Formula, token: CancelToken | None = None
    ) -> Answers:
        evaluator = evaluators.get(formula)
        if evaluator is None:
            evaluator = BoundedDegreeEvaluator(formula, degree_bound=degree_bound)
            evaluators[formula] = evaluator
        return _sentence_answers(evaluator.evaluate(structure, cancel_token=token))

    return Backend(
        "bounded-degree", compute, applicable, reset_fn=evaluators.clear, budget_fn=compute
    )


def _resilient_backend(degree_bound: int) -> Backend:
    holder: dict[str, object] = {}

    def chain():
        existing = holder.get("chain")
        if existing is None:
            existing = default_chain(degree_bound=degree_bound)
            holder["chain"] = existing
        return existing

    def compute(
        structure: Structure, formula: Formula, token: CancelToken | None = None
    ) -> Answers:
        return chain().answers(structure, formula, budget=token)

    return Backend("resilient", compute, reset_fn=holder.clear, budget_fn=compute)


def remote_backend(base_url: str, tenant: str = "conformance") -> Backend:
    """A backend that answers over a live ``repro.server`` socket.

    This puts the *entire serving stack* under differential test: the
    wire encoding both ways, prepared-query session state, the server's
    shared caches, its admission control, and its fallback chain — all
    cross-checked against the in-process backends on every case.

    The backend keeps a client-side session: structures upload once
    (content-addressed server-side, so re-uploads are idempotent anyway)
    and each distinct formula is prepared once, then executed many times
    — exactly the prepare-once/execute-many flow a real client uses.
    Large answer sets stream back page by page.

    A 429/503 with ``error.refusal`` re-raises as
    :class:`~repro.errors.BudgetExceededError`, so the runner counts a
    typed server refusal exactly like a local one.  Any other non-200 is
    a conformance *failure* (kind ``error``) — the server is not allowed
    to fail requests the in-process engines can answer.

    Every call additionally sends a fresh client-minted ``trace_id`` and
    **strictly asserts the echo** — on success pages and on typed error
    bodies alike.  A missing or different id is a conformance failure:
    wire format v1 guarantees trace correlation, so an un-echoed id
    would break every client trying to join its calls against the
    server's span trees and access log.
    """
    import json
    import urllib.error
    import urllib.request

    from repro.server import wire
    from repro.telemetry.context import new_trace_id

    base = base_url.rstrip("/")
    structure_ids: dict[Structure, str] = {}
    prepared_names: dict[tuple[Formula, frozenset], str] = {}

    def call(path: str, payload: dict) -> tuple[int, dict]:
        sent_trace_id = new_trace_id()
        payload = dict(payload, trace_id=sent_trace_id)
        request = urllib.request.Request(
            base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                status, decoded = response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            body = error.read()
            try:
                decoded = json.loads(body)
            except json.JSONDecodeError:
                decoded = {"error": {"type": "HTTPError", "message": body[:200].decode("utf-8", "replace")}}
            status = error.code
        except (urllib.error.URLError, OSError) as error:
            raise FMTError(f"remote backend cannot reach {base}: {error}") from error
        echoed = decoded.get("trace_id") if isinstance(decoded, dict) else None
        if echoed != sent_trace_id:
            raise FMTError(
                f"remote {path} did not echo trace_id: sent "
                f"{sent_trace_id!r}, got {echoed!r} (status {status})"
            )
        return status, decoded

    def raise_for(status: int, body: dict) -> None:
        error = body.get("error", {}) if isinstance(body, dict) else {}
        message = f"remote {status}: {error.get('type', '?')}: {error.get('message', '')}"
        if error.get("refusal"):
            raise BudgetExceededError(
                message,
                spent=int(error.get("spent") or 0),
                budget=int(error.get("budget") or 0),
            )
        raise FMTError(message)

    def ensure_structure(structure: Structure) -> str:
        structure_id = structure_ids.get(structure)
        if structure_id is None:
            status, body = call(
                "/v1/structures",
                {"tenant": tenant, "structure": wire.structure_to_dict(structure)},
            )
            if status != 200:
                raise_for(status, body)
            structure_id = body["structure_id"]
            structure_ids[structure] = structure_id
        return structure_id

    def ensure_prepared(structure: Structure, formula: Formula, structure_id: str) -> str:
        key = (formula, structure.signature.constants)
        name = prepared_names.get(key)
        if name is None:
            status, body = call(
                "/v1/queries",
                {
                    "tenant": tenant,
                    "formula": wire.format_formula(formula),
                    "structure_id": structure_id,
                    "constants": sorted(structure.signature.constants),
                    # Pin the answer schema to *this* AST's free variables:
                    # concrete syntax can fold a free variable away (the
                    # parser simplifies ``false & P(y)`` to ``false``), and
                    # the in-process backends answer the unfolded AST.
                    "free_variables": sorted(
                        var.name for var in free_variables(formula)
                    ),
                },
            )
            if status != 200:
                raise_for(status, body)
            name = body["query"]
            prepared_names[key] = name
        return name

    def compute(
        structure: Structure, formula: Formula, token: CancelToken | None = None
    ) -> Answers:
        structure_id = ensure_structure(structure)
        name = ensure_prepared(structure, formula, structure_id)
        rows: list = []
        page = 0
        while True:
            payload: dict = {
                "tenant": tenant,
                "structure_id": structure_id,
                "query": name,
                "page": page,
            }
            if token is not None:
                # Ship the *remaining* allowance so the server's admission
                # control enforces this client's budget — deadline and row
                # cap both.
                remaining = token.remaining_seconds()
                if remaining is not None:
                    payload["deadline_ms"] = max(remaining * 1000.0, 1.0)
                if token.max_rows is not None:
                    rows_left = token.max_rows - token.rows - len(rows)
                    if rows_left < 1:
                        raise BudgetExceededError(
                            "remote paging exhausted the row budget",
                            spent=token.rows + len(rows),
                            budget=token.max_rows,
                        )
                    payload["max_rows"] = rows_left
            status, body = call("/v1/answers", payload)
            if status != 200:
                raise_for(status, body)
            rows.extend(body["rows"])
            if not body.get("has_more"):
                break
            page += 1
        return wire.answers_from_wire(rows)

    def reset() -> None:
        structure_ids.clear()
        prepared_names.clear()

    return Backend("remote", compute, reset_fn=reset, budget_fn=compute)


DEFAULT_BACKENDS = (
    "naive",
    "algebra",
    "engine",
    "engine-batch",
    "engine-columnar",
    "circuit",
    "bounded-degree",
    "resilient",
)


def default_registry(degree_bound: int = 3) -> BackendRegistry:
    """All evaluation paths the library ships, freshly instantiated."""
    registry = BackendRegistry()
    registry.register(
        Backend(
            "naive",
            naive_answers,
            budget_fn=lambda structure, formula, token: naive_answers(
                structure, formula, cancel_token=token
            ),
        )
    )
    registry.register(
        Backend("algebra", lambda structure, formula: algebra_answers(structure, formula))
    )
    registry.register(_engine_backend("engine", batched=False))
    registry.register(_engine_backend("engine-batch", batched=True))
    # The columnar tier forced on every plan — cost-based dispatch would
    # route small/large plans to it anyway, but the conformance gate
    # wants the kernels exercised on *every* case, not a cost band.
    registry.register(_engine_backend("engine-columnar", batched=False, executor="columnar"))
    registry.register(_circuit_backend())
    registry.register(_bounded_degree_backend(degree_bound))
    registry.register(_resilient_backend(degree_bound))
    return registry
