"""The multi-tenant query service (S18): sessions, prepared queries,
admission control.

:class:`QueryService` is the transport-independent core of the server —
the HTTP layer (:mod:`repro.server.http`) is a thin codec around it, and
tests/benchmarks drive it directly.  It owns exactly the state a served
FO system needs and nothing else:

* a **structure store** — content-addressed by
  :func:`repro.server.wire.structure_digest`, shared across tenants:
  equal uploads map to one structure object, and the engine's caches,
  keyed by that object's identity, are shared with it.
  Structures are mutable through exactly one door:
  ``POST /v1/structures/<id>/updates`` (:meth:`QueryService.apply_updates`)
  applies a batch of tuple deltas in place — the incremental layer
  patches the structure's indexes rather than rebuilding them — and
  re-registers the structure under its new content digest (moved
  forward per delta, not recomputed), retiring the old id (queries
  against a recently retired id get a typed 409 naming the structure's
  current id, so a client that raced an update can catch up);
* one **shared engine** — its plan and answer caches (the PR 5 locked
  LRUs) are the cross-tenant plan cache the ISSUE names: the first
  tenant to run a query pays for planning, every tenant afterwards
  reuses it;
* per-tenant **sessions** — named *prepared queries* (parsed, validated
  and analyzed once at prepare time, executed many), a per-tenant
  :class:`~repro.resilience.fallback.FallbackChain` over the shared
  engine (per-tenant circuit breakers: one tenant's pathological
  workload opens *its* breakers, not its neighbours'), and the tenant's
  account of its requests (see below);
* **admission control** — every request runs under the tightest of the
  tenant's :class:`~repro.resilience.budget.Budget` spec, the service
  default, and the request's own ``deadline_ms``/``max_rows`` overrides
  (requests may tighten their envelope, never loosen it).  Exhaustion
  surfaces as the typed :class:`~repro.errors.BudgetExceededError`,
  which the wire layer maps to 429 (refusal) or 503 (injected fault) —
  never a hang, never a wrong answer.

Prepared answers flow through the tenant's fallback chain (engine →
bounded-degree census → naive), so under ``REPRO_FAULT_INJECT`` the
service degrades instead of erroring.  Ad-hoc answers (a formula in the
request body instead of a prepared-query name) deliberately bypass the
shared answer cache: cache admission is a prepared-query privilege, so
a flood of one-off queries cannot evict the working set of every other
tenant.  That split is also what the throughput benchmark measures —
prepared vs cold is the price of skipping preparation.  A batch reads
each item exactly as a single read would, through the same resolve and
execute steps, under one token and one access-log line.  A read holds
its structure's lock while it runs, and an update holds it while it
applies its deltas and re-registers the structure, so no read sees half
a batch of deltas.

**Observability (telemetry v2, S19).**  Every answer, batch and update
request runs in one :class:`~repro.telemetry.context.trace_scope`, the
thread's tracer state for the request: the transport's when it
installed one, else one minted here from the request's ``trace_id`` and
sampled at ``trace_sample``.  The request's record holds that scope.
Its trace id is stamped on every span, every degradation the request
caused, the structured access-log line
(:class:`~repro.telemetry.logs.AccessLog`: tenant, query hash, rows,
budget spend, degradations, breaker states, status, duration), and the
wire response.  The request's span trees stay in its scope, not in the
process buffer.  The wire-level ``explain`` option returns
:meth:`Engine.profile`'s per-node actuals plus the scope's span tree.

**One record per request.**  An answer, batch or update request is one
:class:`_Request` record, settled once when it ends.  One hold of the
tenant's lock writes it into the tenant's account
(:meth:`TenantSession.settle`): the counters, which count batch items,
and this service's ``server.requests{tenant,outcome}`` counters and
``server.request_ms{tenant}`` histogram, which count requests and are
made once per session.  The access-log line is rendered from the same
record, and ``requests_served`` is the sum of the tenants' per-outcome
counts, so the three agree.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.engine.engine import Engine, ProfiledExplanation
from repro.errors import BudgetExceededError, ServerError, UnknownResourceError
from repro.eval.algebra import Relation
from repro.logic.analysis import analyze, validate
from repro.logic.syntax import Formula
from repro.resilience.budget import Budget, CancelToken
from repro.resilience.fallback import Degradation, FallbackChain, default_chain
from repro.server import wire
from repro.structures.structure import Element, Structure
from repro.telemetry.context import mint, trace_scope
from repro.telemetry.logs import AccessLog
from repro.telemetry.metrics import Counter, Gauge, Histogram, metrics_snapshot
from repro.telemetry.prometheus import render_exposition
from repro.telemetry.tracer import current_scope
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = [
    "AnswerPage",
    "PreparedQuery",
    "QueryService",
    "TenantSession",
]

#: Page-size ceiling: one answer page never carries more rows than this,
#: whatever the request asks for (wire-level flow control).
MAX_PAGE_SIZE = 4096
DEFAULT_PAGE_SIZE = 512

#: Retired structure ids remembered for a 409 naming the current id; the
#: least recently used beyond this many are forgotten and answer 404.
SUPERSEDED_LIMIT = 4096


@dataclass(frozen=True)
class PreparedQuery:
    """One query, compiled once (parsed, validated, analyzed, hashed).

    :meth:`QueryService.prepare` names it; an ad-hoc read runs an unnamed
    one (``name`` is ``None``).  ``free_names`` is the column order of
    every answer page, fixed here so clients can bind columns
    positionally; ``query_hash`` names the canonical text in the log.
    """

    name: str | None
    text: str
    formula: Formula
    free_names: tuple[str, ...]
    constants: tuple[str, ...] = ()
    query_hash: str = ""

    @property
    def is_sentence(self) -> bool:
        return not self.free_names


@dataclass(frozen=True)
class AnswerPage:
    """One page of one answer set, plus enough context to continue.

    Its wire form is text: :meth:`to_json` is the page's envelope dumped
    with sorted keys, with the page's row texts spliced in at ``rows``
    (:func:`~repro.server.wire.splice`), and :meth:`to_wire` is that text
    parsed, so the dict and the bytes cannot drift.  ``texts`` are the
    rows' JSON texts when the rows are an answer record's, kept on the
    record beside its page order; other rows render through
    ``elements``, the structure's
    :class:`~repro.server.wire.ElementTexts`, when the page is
    serialized.
    """

    rows: tuple[tuple[Element, ...], ...]
    page: int
    page_size: int
    total_rows: int
    has_more: bool
    free_names: tuple[str, ...]
    elements: wire.ElementTexts = field(repr=False, compare=False)
    query: str | None = None
    structure_id: str = ""
    explain: dict[str, Any] | None = None
    texts: tuple[str, ...] | None = field(default=None, repr=False, compare=False)

    def to_json(self, trace_id: str | None = None) -> str:
        """The page's JSON text: ``json.dumps(page, sort_keys=True)`` of
        the wire page, plus ``trace_id`` at the top level when given."""
        envelope = {
            "page": self.page,
            "page_size": self.page_size,
            "total_rows": self.total_rows,
            "has_more": self.has_more,
            "free_variables": list(self.free_names),
            "query": self.query,
            "structure_id": self.structure_id,
        }
        if self.explain is not None:
            envelope["explain"] = self.explain
        if trace_id is not None:
            envelope["trace_id"] = trace_id
        texts = self.elements.render(self.rows) if self.texts is None else self.texts
        return wire.splice(envelope, "rows", f"[{', '.join(texts)}]")

    def to_wire(self) -> dict[str, Any]:
        return json.loads(self.to_json())


@dataclass(slots=True)
class _Read:
    """One read after :meth:`QueryService._resolve`: the stored structure
    and the compiled query to run on it — the tenant's prepared one, or
    an unnamed one for an ad-hoc formula."""

    structure: Structure
    structure_id: str
    prepared: PreparedQuery


#: What a request can come to, one ``server.requests`` series each.
_OUTCOMES = ("ok", "refused", "error")


@dataclass(slots=True)
class _Request:
    """The one record of a served request.

    Its body and the tenant's chain fill it in; :meth:`QueryService._request`
    settles it once when the request ends.  The tenant's account
    (:meth:`TenantSession.settle`) and the access-log line
    (:meth:`log_entry`) both read it.  ``scope`` is the request's trace
    scope, ``items`` the batch size, and ``rows`` the rows returned, or
    the deltas applied by an update; ``noops`` and ``dirtied`` count an
    update's deltas that changed nothing and the prepared queries it
    dirtied.
    """

    scope: trace_scope
    tenant: str
    op: str
    items: int = 1
    token: CancelToken | None = None
    query: str | None = None
    query_hash: str | None = None
    rows: int = 0
    noops: int = 0
    dirtied: int = 0
    degradations: list[Degradation] = field(default_factory=list)
    status: int = 200
    outcome: str = "ok"
    duration_ms: float = 0.0

    def log_entry(self, breakers: dict[str, Any]) -> dict[str, Any]:
        token = self.token
        return {
            "trace_id": self.scope.trace_id,
            "sampled": self.scope.sampled,
            "tenant": self.tenant,
            "op": self.op,
            "query": self.query,
            "query_hash": self.query_hash,
            "rows": self.rows,
            "status": self.status,
            "outcome": self.outcome,
            "duration_ms": self.duration_ms,
            "budget_rows_spent": None if token is None else token.rows,
            "budget_nodes_spent": None if token is None else token.nodes,
            "degradations": [asdict(event) for event in self.degradations],
            "breakers": {rung: breaker.state for rung, breaker in breakers.items()},
        }


class TenantSession:
    """Everything the service keeps per tenant.

    The chain wraps the *shared* engine — rungs and caches are common,
    circuit breakers and the account are private to the tenant.  The
    account is the counters, which count batch items, and this
    service's ``server.requests{tenant,outcome}`` and
    ``server.request_ms{tenant}`` series, which count requests; all are
    made here, once, and :meth:`settle` writes them in one lock hold.
    """

    def __init__(self, name: str, budget: Budget | None, chain: FallbackChain) -> None:
        self.name = name
        self.budget = budget
        self.chain = chain
        self.prepared: dict[str, PreparedQuery] = {}
        self.counters: dict[str, int] = {
            "requests": 0,
            "answered": 0,
            "refused": 0,
            "errors": 0,
            "rows_returned": 0,
            "batch_requests": 0,
            "structures_registered": 0,
            "queries_prepared": 0,
            "updates_applied": 0,
            "update_noops": 0,
            "queries_dirtied": 0,
            "degradations": 0,
        }
        self.outcomes = {
            outcome: Counter("server.requests", {"tenant": name, "outcome": outcome})
            for outcome in _OUTCOMES
        }
        self.request_ms = Histogram("server.request_ms", {"tenant": name})
        self.series = (*self.outcomes.values(), self.request_ms)
        self.lock = threading.Lock()

    def settle(self, request: _Request) -> None:
        """Write one ended request into the account."""
        counters, items = self.counters, request.items
        with self.lock:
            counters["requests"] += items
            if request.op == "answers_batch":
                counters["batch_requests"] += 1
            if request.outcome == "refused":
                counters["refused"] += items
            elif request.outcome == "error":
                counters["errors"] += items
            elif request.op == "updates":
                counters["updates_applied"] += request.rows
                counters["update_noops"] += request.noops
                counters["queries_dirtied"] += request.dirtied
            else:
                counters["answered"] += items
                counters["rows_returned"] += request.rows
            counters["degradations"] += len(request.degradations)
            self.outcomes[request.outcome].value += 1
            self.request_ms.observe(request.duration_ms)

    def snapshot(self) -> dict[str, Any]:
        with self.lock:
            counters = dict(self.counters)
        return {
            "counters": counters,
            "prepared_queries": sorted(self.prepared),
            "budget": None
            if self.budget is None
            else {
                "deadline_ms": self.budget.deadline_ms,
                "max_rows": self.budget.max_rows,
                "max_solver_nodes": self.budget.max_solver_nodes,
            },
            "breakers": {
                rung: breaker.state for rung, breaker in self.chain.breakers.items()
            },
            "degradations": counters["degradations"],
        }


class QueryService:
    """The transport-independent multi-tenant FO query service.

    Parameters
    ----------
    default_budget:
        Admission envelope applied to tenants that register without
        their own spec (and to auto-created tenants). ``None`` means
        unbudgeted unless the request itself carries limits.
    engine:
        The shared engine; defaults to a fresh one. Its caches and census
        evaluators serve every tenant and every tenant chain.
    trace_sample:
        Fraction of requests whose spans are recorded (deterministic
        per trace id). ``None`` (default) follows the process-wide
        telemetry switch: record everything when telemetry is enabled,
        nothing otherwise. Trace ids are minted and echoed regardless —
        sampling decides *profiling*, not *identity*.
    access_log:
        Optional :class:`~repro.telemetry.logs.AccessLog` receiving one
        structured entry per answer request.
    readonly:
        When true, :meth:`apply_updates` refuses every request with a
        typed 403 — the switch for replicas that must never diverge from
        their upstream (``--readonly`` on the CLI).
    """

    def __init__(
        self,
        default_budget: Budget | None = None,
        engine: Engine | None = None,
        trace_sample: float | None = None,
        access_log: AccessLog | None = None,
        readonly: bool = False,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.default_budget = default_budget
        self.trace_sample = trace_sample
        self.access_log = access_log
        self.readonly = readonly
        self.structures: dict[str, Structure] = {}
        # Retired id → the live structure that was updated away from it.
        self._superseded: OrderedDict[str, Structure] = OrderedDict()
        self.tenants: dict[str, TenantSession] = {}
        self._lock = threading.Lock()
        self._started = time.monotonic()

    # -- tracing -------------------------------------------------------------

    def trace_rate(self) -> float:
        """The effective sampling rate for a request arriving now."""
        if self.trace_sample is not None:
            return self.trace_sample
        return 1.0 if _telemetry_enabled() else 0.0

    # -- tenants -------------------------------------------------------------

    def register_tenant(
        self, name: str, budget: Budget | None = None, exist_ok: bool = True
    ) -> TenantSession:
        """Create (or fetch) a tenant session.

        ``budget=None`` inherits the service default. Re-registering an
        existing tenant returns the live session unchanged (its breakers
        and counters survive) unless ``exist_ok`` is false.
        """
        if not name or not isinstance(name, str):
            raise ServerError("tenant name must be a non-empty string")
        with self._lock:
            session = self.tenants.get(name)
            if session is not None:
                if not exist_ok:
                    raise ServerError(f"tenant {name!r} already registered", status=409)
                return session
            session = TenantSession(
                name,
                budget if budget is not None else self.default_budget,
                default_chain(engine=self.engine),
            )
            self.tenants[name] = session
            return session

    def tenant(self, name: str) -> TenantSession:
        """The tenant's session, registered with the default budget on first use."""
        with self._lock:
            session = self.tenants.get(name)
        if session is None:
            session = self.register_tenant(name)
        return session

    # -- structures ----------------------------------------------------------

    def add_structure(
        self, structure: Structure | dict, tenant: str | None = None
    ) -> str:
        """Store a structure (wire dict or live object); return its id.

        Content-addressed and idempotent: uploading the same structure
        twice — by the same tenant or another — returns the same id.
        A malformed ``tenant`` is refused before anything is stored.
        """
        _check_fields(tenant=tenant)
        if isinstance(structure, dict):
            structure = wire.structure_from_dict(structure)
        structure_id = wire.structure_digest(structure)
        with self._lock:
            self.structures.setdefault(structure_id, structure)
        if tenant is not None:
            session = self.tenant(tenant)
            with session.lock:
                session.counters["structures_registered"] += 1
        return structure_id

    def structure(self, structure_id: str) -> Structure:
        """The stored structure under ``structure_id``.

        A retired id (one its structure was updated away from) is a 409
        naming the structure's *current* id, however many updates ago it
        was retired — until :data:`SUPERSEDED_LIMIT` more recently used
        retired ids push it out; then it is a 404 like any unknown id.
        """
        with self._lock:
            structure = self.structures.get(structure_id)
            successor = None
            if structure is None:
                successor = self._superseded.get(structure_id)
                if successor is not None:
                    self._superseded.move_to_end(structure_id)
        if structure is None:
            if successor is not None:
                raise ServerError(
                    f"structure {structure_id!r} was updated; "
                    f"its current id is {wire.structure_digest(successor)!r}",
                    status=409,
                )
            raise UnknownResourceError(f"unknown structure {structure_id!r}")
        return structure

    def apply_updates(
        self,
        tenant: str,
        structure_id: str,
        updates: list,
        deadline_ms: float | None = None,
        max_rows: int | None = None,
        trace_id: object = None,
    ) -> dict[str, Any]:
        """Apply a batch of tuple deltas to a stored structure, in place.

        ``updates`` is the wire-v1-additive delta list
        (:func:`repro.server.wire.updates_from_wire`), or already-decoded
        ``(op, relation, row)`` tuples.  The batch is **atomic at
        validation**: every delta is checked against the structure's
        signature and universe before any is applied, so a bad delta in
        the middle of the batch is a 400 with the store untouched.
        Applied deltas run through ``Structure.insert``/``delete`` — the
        incremental layer patches the Gaifman/incidence memos, and the
        locality census and cached answers are patched lazily on their
        next read.

        Admission follows the answers path: the batch charges one row
        per delta (all up front, so a 429 refusal is as atomic as a 400)
        against the tightest of the tenant budget and the request
        overrides — a tenant's write traffic is bounded by the same
        envelope as its reads.  The response echoes the structure's
        **new content digest** — the old id is retired (subsequent reads
        get a 409 naming the current id) unless the batch round-tripped
        back to the identical contents — and ``queries_dirtied``, the
        sorted names of the tenant's prepared queries whose answer sets
        changed (or could not be proven unchanged) across the batch,
        decided by the incremental layer without recomputation
        (:meth:`_dirtied_queries`).
        """
        session = self.tenant(tenant)
        with (
            self._request(session, "updates", trace_id) as request,
            _span("server.updates") as update_span,
        ):
            update_span.set("tenant", tenant)
            if self.readonly:
                raise ServerError(
                    "this server is read-only; updates are disabled", status=403
                )
            structure = self.structure(structure_id)
            token = request.token = self._effective_token(
                session, deadline_ms, max_rows
            )
            if not updates:
                raise ServerError("'updates' must be a non-empty list")
            if not isinstance(updates[0], dict):
                # Decoded deltas pass the wire's checks too, so a bool or
                # None element is refused before any delta is applied.
                updates = wire.updates_to_wire(updates)
            deltas = wire.updates_from_wire(updates)
            # Validate and charge the whole batch before applying any of
            # it: a 400 or a 429 must leave the store untouched (a refusal
            # *between* deltas would strand mutated content under its
            # pre-update digest).
            for _, relation, row in deltas:
                structure.check_update(relation, row)
            if token is not None:
                token.consume_rows(len(deltas), "server.updates")
            applied = noops = 0
            # One lock hold for the batch: no read of this structure sees
            # half of it, and the store files the content under its digest.
            with structure.lock:
                # A concurrent update may have retired the id since it was
                # resolved: refuse it with the read's 409, naming the current id.
                if self.structure(structure_id) is not structure:
                    raise ServerError(
                        f"structure {structure_id!r} was updated; "
                        f"its current id is {wire.structure_digest(structure)!r}",
                        status=409,
                    )
                for op, relation, row in deltas:
                    changed = (
                        structure.insert(relation, row)
                        if op == "insert"
                        else structure.delete(relation, row)
                    )
                    if changed:
                        applied += 1
                    else:
                        noops += 1
                new_id = wire.structure_digest(structure)
                with self._lock:
                    if new_id != structure_id:
                        self.structures.pop(structure_id, None)
                        self.structures[new_id] = structure
                        self._superseded[structure_id] = structure
                        self._superseded.move_to_end(structure_id)
                        # A resurrected id is current again.
                        self._superseded.pop(new_id, None)
                        while len(self._superseded) > SUPERSEDED_LIMIT:
                            self._superseded.popitem(last=False)
            request.rows, request.noops = applied, noops
            dirtied = self._dirtied_queries(session, structure, token)
            request.dirtied = len(dirtied)
            update_span.set("deltas", len(deltas)).set("applied", applied)
            update_span.set("epoch", structure.epoch)
            update_span.set("queries_dirtied", len(dirtied))
            return {
                "structure_id": new_id,
                "previous_id": structure_id,
                "applied": applied,
                "noops": noops,
                "epoch": structure.epoch,
                "size": structure.size,
                "queries_dirtied": dirtied,
                "wire_version": wire.WIRE_VERSION,
            }

    def _dirtied_queries(
        self,
        session: TenantSession,
        structure: Structure,
        token: CancelToken | None,
    ) -> list[str]:
        """Which of the tenant's prepared queries changed their answers.

        Decided entirely by the incremental layer
        (:meth:`Engine.maintained_changed`) — never by a full recompute,
        so the cost is bounded by the dirty neighborhoods of the batch,
        not the structure.  The list is *conservative-complete*: a query
        whose maintained record cannot decide (never queried, log
        outrun, work limits, budget expiry) is reported as dirtied.  The
        deltas are already applied when this runs, so a budget expiry
        here must not fail the request — the remaining queries are
        simply reported dirtied.
        """
        dirtied: list[str] = []
        exhausted = False
        for name in sorted(session.prepared):
            if exhausted:
                dirtied.append(name)
                continue
            prepared = session.prepared[name]
            try:
                changed = self.engine.maintained_changed(
                    structure, prepared.formula, budget=token
                )
            except BudgetExceededError:
                exhausted = True
                dirtied.append(name)
                continue
            if changed is not False:
                dirtied.append(name)
        return dirtied

    # -- prepared queries ----------------------------------------------------

    def prepare(
        self,
        tenant: str,
        text: str,
        name: str | None = None,
        structure_id: str | None = None,
        constants: tuple[str, ...] | list[str] = (),
        free_variables: tuple[str, ...] | list[str] | None = None,
    ) -> PreparedQuery:
        """Parse + validate once; register under ``name`` for the tenant.

        ``constants`` (or the signature of ``structure_id``) decides
        which identifiers parse as constant symbols.  ``free_variables``
        optionally pins the answer schema: it must contain every free
        variable of the formula, in the column order answers will use,
        and may add extra variables that range over the whole universe
        (cylindrification) — the wire-format escape hatch for formulas
        whose concrete syntax folds a free variable away (``false &
        P(y)`` parses to ``false``, dropping ``y``).  When a structure
        is supplied the plan is additionally warmed into the shared plan
        cache, so the first execution is already a plan-cache hit.
        Re-preparing the same name with the same text is idempotent; a
        different text under a taken name is a 409 conflict.
        """
        _check_fields(name=name, structure_id=structure_id, constants=constants)
        session = self.tenant(tenant)
        constant_names = frozenset(constants)
        structure = None
        if structure_id is not None:
            structure = self.structure(structure_id)
            constant_names = constant_names | structure.signature.constants
        compiled = _compile(text, constant_names, structure, free_variables)
        if name is None:
            key = "|".join(
                (compiled.text, ",".join(compiled.constants), ",".join(compiled.free_names))
            )
            name = "q-" + hashlib.sha256(key.encode()).hexdigest()[:16]
        prepared = replace(compiled, name=name)
        with session.lock:
            existing = session.prepared.get(name)
            if existing is not None:
                if (
                    existing.text == prepared.text
                    and existing.constants == prepared.constants
                    and existing.free_names == prepared.free_names
                ):
                    return existing
                raise ServerError(
                    f"prepared query {name!r} already exists with a different formula",
                    status=409,
                )
            session.prepared[name] = prepared
            session.counters["queries_prepared"] += 1
        if structure is not None:
            # Warm the shared plan cache (cheap, deduplicated by key).
            self.engine.explain(structure, prepared.formula)
        return prepared

    def prepared_query(self, tenant: str, name: str) -> PreparedQuery:
        session = self.tenant(tenant)
        with session.lock:
            prepared = session.prepared.get(name)
        if prepared is None:
            raise UnknownResourceError(
                f"tenant {tenant!r} has no prepared query {name!r}"
            )
        return prepared

    # -- admission control ---------------------------------------------------

    def _effective_token(
        self,
        session: TenantSession,
        deadline_ms: float | None = None,
        max_rows: int | None = None,
    ) -> CancelToken | None:
        """Start a token for one request: the *tightest* of the tenant
        spec and the request overrides.  A request can only narrow its
        envelope — admission control would be decorative otherwise."""
        _check_fields(deadline_ms=deadline_ms, max_rows=max_rows)
        spec = session.budget
        base_deadline = spec.deadline_ms if spec is not None else None
        base_rows = spec.max_rows if spec is not None else None
        base_nodes = spec.max_solver_nodes if spec is not None else None
        stride = spec.stride if spec is not None else None
        effective_deadline = _tightest(base_deadline, deadline_ms)
        effective_rows = _tightest(base_rows, max_rows)
        if effective_deadline is None and effective_rows is None and base_nodes is None:
            return None
        budget = Budget(
            deadline_ms=effective_deadline,
            max_rows=effective_rows,
            max_solver_nodes=base_nodes,
            **({} if stride is None else {"stride": stride}),
        )
        return budget.start()

    # -- the request envelope ------------------------------------------------

    @contextmanager
    def _request(
        self, session: TenantSession, op: str, trace_id: object, items: int = 1
    ) -> Iterator[_Request]:
        """The envelope of one request: ``answers``, ``answers_batch`` and
        ``apply_updates`` each run their body inside one.

        A request the transport serves joins the trace scope the
        transport installed; a request driven directly gets one minted
        from ``trace_id`` and installed here.  The envelope yields the
        request's record, which holds that scope (``items`` is a batch's
        size), and the body fills it in: its token, query and rows.  When
        the body ends, the envelope maps its outcome to a status, settles
        the record into the tenant's account and renders the access-log
        line from it.
        """
        started = time.perf_counter()
        scope = current_scope()
        joined = isinstance(scope, trace_scope)
        if not joined:
            scope = trace_scope(mint(trace_id, rate=self.trace_rate()))
        with nullcontext() if joined else scope:
            request = _Request(scope, session.name, op, items)
            try:
                yield request
            except BaseException as error:
                request.status = wire.status_for_error(error)  # 500 if untyped
                request.outcome = (
                    "refused" if isinstance(error, BudgetExceededError) else "error"
                )
                raise
            finally:
                request.duration_ms = (time.perf_counter() - started) * 1000.0
                session.settle(request)
                if self.access_log is not None:
                    self.access_log.log(request.log_entry(session.chain.breakers))

    # -- answers -------------------------------------------------------------

    def _resolve(
        self,
        tenant: str,
        structure_id: str,
        query: str | None,
        formula: str | None,
        free_variables: tuple[str, ...] | list[str] | None,
    ) -> _Read:
        """Everything one read needs before it runs: the stored structure
        and the compiled query — the tenant's prepared one, fetched by
        name and checked against this structure's signature, or ad-hoc
        text compiled for this read.  Nothing executes here."""
        _check_fields(structure_id=structure_id, query=query)
        structure = self.structure(structure_id)
        if (query is None) == (formula is None):
            raise ServerError(
                "exactly one of 'query' (prepared name) or 'formula' "
                "(ad-hoc text) is required"
            )
        if formula is not None:
            constants = structure.signature.constants
            compiled = _compile(formula, constants, structure, free_variables)
            return _Read(structure, structure_id, compiled)
        if free_variables is not None:
            raise ServerError(
                "'free_variables' is fixed at prepare time for prepared queries"
            )
        prepared = self.prepared_query(tenant, query)
        # A query may be prepared without a structure, or read on another
        # one; on the analysis record this checks a few atoms, no walk.
        validate(prepared.formula, structure.signature)
        return _Read(structure, structure_id, prepared)

    def _execute(
        self,
        session: TenantSession,
        read: _Read,
        request: _Request,
        explain: bool = False,
    ) -> tuple[frozenset[tuple[Element, ...]], ProfiledExplanation | None]:
        """Run one resolved read under the request's token.

        A prepared read runs the tenant's fallback chain: its breakers,
        its degradation and the shared answer cache.  An ad-hoc read, and
        any read with ``explain``, runs :meth:`Engine.profile`, which
        always executes and never admits its rows to the answer cache.
        The structure's lock is held throughout, so no write lands
        mid-read, whichever rung answers.  Returns the rows in the read's
        answer schema, and the profile when there is one.
        """
        formula, profile = read.prepared.formula, None
        with read.structure.lock:
            if read.prepared.name is not None and not explain:
                rows = session.chain.answers(
                    read.structure, formula, request.token, request.degradations
                )
            else:
                profile = self.engine.profile(read.structure, formula, budget=request.token)
                rows = profile.answers
        natural = analyze(formula).names
        rows = _cylindrify(rows, natural, read.prepared.free_names, read.structure.universe)
        return rows, profile

    def answers(
        self,
        tenant: str,
        structure_id: str,
        query: str | None = None,
        formula: str | None = None,
        page: int = 0,
        page_size: int | None = None,
        deadline_ms: float | None = None,
        max_rows: int | None = None,
        free_variables: tuple[str, ...] | list[str] | None = None,
        explain: bool = False,
        trace_id: object = None,
    ) -> AnswerPage:
        """One answer page for a prepared query (by name) or an ad-hoc
        formula (by text).

        Prepared queries run through the tenant's fallback chain and the
        shared caches.  Ad-hoc formulas parse per request and execute
        with the answer cache bypassed (see the module docstring); their
        schema can be pinned with ``free_variables`` (see
        :meth:`prepare`).  Budget exhaustion raises
        :class:`~repro.errors.BudgetExceededError` — the transport maps
        it to a typed 429/503 refusal.

        ``explain=True`` attaches an EXPLAIN ANALYZE payload to the page:
        :meth:`Engine.profile`'s plan tree with per-node estimates and
        actuals, plus the request's span tree (when sampled).  Explained
        requests always execute through the engine's profiling path —
        actuals must be measured — so a prepared query explained here
        bypasses its fallback chain for this one call.  ``trace_id``
        joins (or seeds) the request's trace context.
        """
        session = self.tenant(tenant)
        with self._request(session, "answers", trace_id) as request:
            request.query = query
            with _span("server.answers") as answer_span:
                answer_span.set("tenant", tenant)
                _check_fields(page=page, page_size=page_size, explain=explain)
                token = request.token = self._effective_token(
                    session, deadline_ms, max_rows
                )
                read = self._resolve(
                    tenant, structure_id, query, formula, free_variables
                )
                request.query_hash = read.prepared.query_hash
                rows, profile = self._execute(session, read, request, explain)
                _admit_result(len(rows), token)
                answer_span.set("rows", len(rows))
            result = self._page(rows, page, page_size, read)
            if explain:
                result = replace(
                    result, explain=_explain_payload(profile, request.scope)
                )
            request.rows = len(result.rows)
            return result

    def answers_batch(
        self,
        tenant: str,
        requests: list[dict[str, Any]],
        deadline_ms: float | None = None,
        max_rows: int | None = None,
        page_size: int | None = None,
        trace_id: object = None,
    ) -> list[AnswerPage]:
        """Many answer requests, each read exactly as :meth:`answers`
        reads it, under **one** shared budget.

        Each request dict carries ``structure_id`` plus ``query`` or
        ``formula`` (and optionally ``free_variables`` and its own
        ``page``/``page_size``).  Every item is resolved before any runs,
        so one malformed item refuses the whole batch untouched.  Then
        each runs through :meth:`_execute`: prepared items through the
        tenant's fallback chain, ad-hoc items without answer-cache
        admission.  The whole batch shares one admission token — a batch
        is one unit of work, and a budget that would refuse its parts
        refuses their sum.  It also shares one trace context and writes
        one access-log line, carrying every degradation its items caused.
        """
        session = self.tenant(tenant)
        items = len(requests) if isinstance(requests, list) else 1
        with self._request(session, "answers_batch", trace_id, items) as request:
            with _span("server.answers_batch") as batch_span:
                batch_span.set("tenant", tenant)
                if not isinstance(requests, list) or not requests:
                    raise ServerError("'requests' must be a non-empty list")
                batch_span.set("requests", len(requests))
                token = request.token = self._effective_token(
                    session, deadline_ms, max_rows
                )
                reads = []
                for item in requests:
                    if not isinstance(item, dict):
                        raise ServerError("each batch request must be an object")
                    read = self._resolve(
                        tenant,
                        item.get("structure_id", ""),
                        item.get("query"),
                        item.get("formula"),
                        item.get("free_variables"),
                    )
                    page, size = item.get("page", 0), item.get("page_size", page_size)
                    _check_fields(page=page, page_size=size)
                    reads.append((read, page, size))
                answer_sets = [
                    self._execute(session, read, request)[0] for read, _, _ in reads
                ]
                _admit_result(sum(len(rows) for rows in answer_sets), token)
            pages = [
                self._page(rows, page, size, read)
                for rows, (read, page, size) in zip(answer_sets, reads)
            ]
            request.rows = sum(len(page.rows) for page in pages)
            return pages

    def _page(
        self,
        rows: frozenset[tuple[Element, ...]],
        page: int,
        page_size: int | None,
        read: _Read,
    ) -> AnswerPage:
        size = DEFAULT_PAGE_SIZE if page_size is None else page_size
        size = min(size, MAX_PAGE_SIZE)
        elements = wire.element_texts(read.structure)
        ordered, texts = self.engine.page_order(
            read.structure, read.prepared.formula, rows, elements.render
        )
        start, stop = page * size, (page + 1) * size
        return AnswerPage(
            rows=ordered[start:stop],
            page=page,
            page_size=size,
            total_rows=len(ordered),
            has_more=stop < len(ordered),
            free_names=read.prepared.free_names,
            query=read.prepared.name,
            structure_id=read.structure_id,
            texts=None if texts is None else texts[start:stop],
            elements=elements,
        )

    # -- health + metrics ----------------------------------------------------

    def health(self) -> dict[str, Any]:
        with self._lock:
            return {
                "ok": True,
                "wire_version": wire.WIRE_VERSION,
                "uptime_s": time.monotonic() - self._started,
                "tenants": len(self.tenants),
                "structures": len(self.structures),
                "requests_served": self._served(self.tenants.values()),
            }

    def metrics(self) -> dict[str, Any]:
        """The observability snapshot behind ``GET /metrics``: telemetry
        registry (counters/gauges/histograms), shared-cache stats, engine
        lifetime counters, and each tenant's account.  ``requests_served``
        sums the tenants' per-outcome request counts."""
        with self._lock:
            tenants = dict(self.tenants)
            structures = len(self.structures)
        return {
            "wire_version": wire.WIRE_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "requests_served": self._served(tenants.values()),
            "structures": structures,
            "engine": self.engine.stats.as_dict(),
            "caches": {
                "plan": self.engine.plan_cache.snapshot(),
                "answer": self.engine.answer_cache.snapshot(),
            },
            "tenants": {name: session.snapshot() for name, session in tenants.items()},
            "telemetry": metrics_snapshot(),
        }

    def metrics_prometheus(self) -> str:
        """``GET /metrics`` in Prometheus text format 0.0.4.

        The registry's series render with this service's own: its
        per-tenant request series, and its JSON numbers (uptime, requests
        served, cache stats) as gauges made for this scrape.  None of
        them enter the process-wide registry, so two services in one
        process each expose their own.
        """
        with self._lock:
            tenants = list(self.tenants.values())
            structures = len(self.structures)
        gauges = [
            _gauge("server.uptime_seconds", time.monotonic() - self._started),
            _gauge("server.requests_served", self._served(tenants)),
            _gauge("server.structures", structures),
            _gauge("server.tenants", len(tenants)),
            _gauge("server.wire_version", wire.WIRE_VERSION),
        ]
        for cache_name, snapshot in (
            ("plan", self.engine.plan_cache.snapshot()),
            ("answer", self.engine.answer_cache.snapshot()),
        ):
            for stat, value in snapshot.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    gauges.append(_gauge("server.cache." + stat, value, cache=cache_name))
        series = tuple(s for session in tenants for s in session.series)
        return render_exposition(extra=(*gauges, *series))

    @staticmethod
    def _served(tenants: Iterable[TenantSession]) -> int:
        """``requests_served``: the tenants' per-outcome request counts,
        summed without taking their locks."""
        return sum(
            series.value for session in tenants for series in session.outcomes.values()
        )


def _gauge(name: str, value: float, **labels: str) -> Gauge:
    gauge = Gauge(name, labels)
    gauge.set(value)
    return gauge


def _explain_payload(
    profile: ProfiledExplanation | None, scope: trace_scope
) -> dict[str, Any]:
    """The wire ``explain`` object: profile actuals plus the request's
    span tree, read from its scope — its open root (the transport's
    request span), else the roots finished in it."""
    return {
        "trace_id": scope.trace_id,
        "sampled": scope.sampled,
        "profile": profile.to_dict() if profile is not None else None,
        "spans": [root.to_dict() for root in scope.stack[:1] or scope.roots],
    }


def _compile(
    text: object,
    constants: frozenset[str],
    structure: Structure | None,
    requested: object,
) -> PreparedQuery:
    """The one compile step of :meth:`QueryService.prepare` and an ad-hoc
    read: parse, validate against ``structure`` when one is known,
    analyze, fix the answer schema and hash the canonical text."""
    if not isinstance(text, str) or not text.strip():
        raise ServerError("'formula' must be a non-empty string")
    formula = wire.parse_formula(text, constants=constants or None)
    if structure is not None:
        validate(formula, structure.signature)
    canonical = wire.format_formula(formula)
    return PreparedQuery(
        name=None,
        text=canonical,
        formula=formula,
        free_names=_answer_schema(analyze(formula).names, requested),
        constants=tuple(sorted(constants)),
        query_hash=hashlib.sha256(canonical.encode()).hexdigest()[:16],
    )


def _answer_schema(natural: tuple[str, ...], requested: object) -> tuple[str, ...]:
    """The answer column order for one query.

    ``natural`` is the evaluators' own order — free variables sorted by
    name, the order every rung of the chain returns tuples in — and the
    default; an explicit request must cover every free variable (a
    proper subset would be a silent projection) and may append extra
    variables, which cylindrify over the universe.
    """
    if requested is None:
        return natural
    _check_fields(free_variables=requested)
    effective = tuple(requested)
    if not all(effective):
        raise ServerError("free_variables must be non-empty strings")
    if len(set(effective)) != len(effective):
        raise ServerError("free_variables must not repeat names")
    missing = set(natural) - set(effective)
    if missing:
        raise ServerError(
            "free_variables must include every free variable of the "
            f"formula; missing {sorted(missing)}"
        )
    return effective


def _integer(value: Any) -> bool:
    # JSON's true decodes to a bool, an int subclass: it is not 1 here.
    return isinstance(value, int) and not isinstance(value, bool)


_STRING = (lambda v: isinstance(v, str), "a string")
_STRINGS = (
    lambda v: isinstance(v, (list, tuple)) and all(isinstance(n, str) for n in v),
    "a list of strings",
)

#: Each request field :func:`_check_fields` checks: what it must be, as
#: a predicate and as its 400 says it.
_FIELDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "page": (lambda v: _integer(v) and v >= 0, "a non-negative integer"),
    "page_size": (lambda v: _integer(v) and v >= 1, "a positive integer"),
    "max_rows": (lambda v: _integer(v) and v >= 1, "a positive integer"),
    "deadline_ms": (
        lambda v: (_integer(v) or isinstance(v, float) and math.isfinite(v)) and v > 0,
        "a positive finite number",
    ),
    "free_variables": _STRINGS,
    "constants": _STRINGS,
    "explain": (lambda v: isinstance(v, bool), "a JSON boolean"),
    "name": _STRING,
    "query": _STRING,
    "structure_id": _STRING,
    "tenant": (lambda v: isinstance(v, str) and bool(v), "a non-empty string"),
}


def _check_fields(**fields: Any) -> None:
    """The one check of the request fields a client sends: refuse a
    malformed one with a typed 400 before it meets arithmetic or
    hashing that would fail as a 500, or a coercion that would misread
    it (a bare string is not a list of one-letter names, nor is
    ``"false"`` true).  ``None`` is a field left out, except for
    ``page``, which defaults to 0 instead."""
    for name, value in fields.items():
        valid, expected = _FIELDS[name]
        if (value is not None or name == "page") and not valid(value):
            raise ServerError(f"{name} must be {expected}, got {value!r}")


def _cylindrify(
    rows: frozenset[tuple[Element, ...]],
    natural: tuple[str, ...],
    effective: tuple[str, ...],
    universe,
) -> frozenset[tuple[Element, ...]]:
    """Reorder answer columns from ``natural`` to ``effective``; extra
    variables range over the whole universe (ans(φ, A) with a widened
    free tuple — the cylindrification of the answer relation)."""
    if effective == natural:
        return rows
    extra = tuple(name for name in effective if name not in natural)
    relation = Relation(natural, rows).extend_columns(extra, universe)
    return relation.project(effective).rows


def _admit_result(total_rows: int, token: CancelToken | None) -> None:
    """Result-size admission: the row budget bounds the *returned* answer
    set, not only intermediate materialization.  The fallback chain may
    legitimately degrade an over-budget engine execution to the naive
    rung (which materializes nothing), so without this check a row
    budget could never refuse a prepared query — the envelope would be
    decorative exactly where admission control matters most."""
    if token is not None and token.max_rows is not None and total_rows > token.max_rows:
        raise BudgetExceededError(
            "answer set exceeds the request's row budget",
            spent=total_rows,
            budget=token.max_rows,
        )


def _tightest(base: float | None, override: float | None) -> float | None:
    if base is None:
        return override
    if override is None:
        return base
    return min(base, override)
