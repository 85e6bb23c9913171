"""The multi-tenant query service (S18): sessions, prepared queries,
admission control.

:class:`QueryService` is the transport-independent core of the server —
the HTTP layer (:mod:`repro.server.http`) is a thin codec around it, and
tests/benchmarks drive it directly.  It owns exactly the state a served
FO system needs and nothing else:

* a **structure store** — content-addressed by
  :func:`repro.server.wire.structure_digest`, shared across tenants
  (sharing by content is what makes the shared caches effective).
  Structures are mutable through exactly one door:
  ``POST /v1/structures/<id>/updates`` (:meth:`QueryService.apply_updates`)
  applies a batch of tuple deltas in place — the incremental layer
  patches the structure's indexes rather than rebuilding them — and
  re-registers the structure under its new content digest, retiring the
  old id (queries against a retired id get a typed 409 naming the
  successor, so a client that raced an update can follow the chain);
* one **shared engine** — its plan and answer caches (the PR 5 locked
  LRUs) are the cross-tenant plan cache the ISSUE names: the first
  tenant to run a query pays for planning, every tenant afterwards
  reuses it;
* per-tenant **sessions** — named *prepared queries* (parse + validate
  + normalize once at prepare time, execute many), a per-tenant
  :class:`~repro.resilience.fallback.FallbackChain` over the shared
  engine (per-tenant circuit breakers: one tenant's pathological
  workload opens *its* breakers, not its neighbours'), and per-tenant
  request/refusal counters;
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
prepared vs cold is the price of skipping preparation.

**Observability (telemetry v2, S19).**  Every answer request runs under
a :class:`~repro.telemetry.context.TraceContext` — reused when the
transport already installed one, minted here when the service is driven
directly — sampled at ``trace_sample``; the trace id is stamped on every
span, every degradation the request caused, the structured access-log
line (:class:`~repro.telemetry.logs.AccessLog`: tenant, query hash,
rows, budget spend, degradations, breaker states, status, duration),
and the wire response.  Labeled request metrics
(``server.requests{tenant,outcome}``, ``server.request_ms{tenant}``)
are recorded unconditionally — they are cheap, bounded-cardinality, and
what ``GET /metrics`` exposes in Prometheus text form.  The wire-level
``explain`` option returns :meth:`Engine.profile`'s per-node actuals
plus the request's span tree.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any

from repro.engine.engine import Engine
from repro.errors import (
    BudgetExceededError,
    FMTError,
    ServerError,
    UnknownResourceError,
)
from repro.logic.analysis import free_variables, validate
from repro.logic.syntax import Formula
from repro.resilience.budget import Budget, CancelToken
from repro.resilience.fallback import FallbackChain, default_chain
from repro.server import wire
from repro.structures.structure import Element, Structure
from repro.telemetry import context as trace_context
from repro.telemetry.logs import AccessLog
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.metrics import gauge as _gauge
from repro.telemetry.metrics import histogram as _histogram
from repro.telemetry.metrics import metrics_snapshot
from repro.telemetry.prometheus import render_exposition
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import open_root as _open_root
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


@dataclass(frozen=True)
class PreparedQuery:
    """One named query, parsed and validated once at prepare time.

    ``free_names`` is the sorted free-variable order — the column order
    of every answer page, fixed at prepare time so clients can bind
    columns positionally.
    """

    name: str
    text: str
    formula: Formula
    free_names: tuple[str, ...]
    constants: tuple[str, ...] = ()

    @property
    def is_sentence(self) -> bool:
        return not self.free_names


@dataclass(frozen=True)
class AnswerPage:
    """One page of one answer set, plus enough context to continue."""

    rows: tuple[tuple[Element, ...], ...]
    page: int
    page_size: int
    total_rows: int
    has_more: bool
    free_names: tuple[str, ...]
    query: str | None = None
    structure_id: str = ""
    explain: dict[str, Any] | None = None

    def to_wire(self) -> dict[str, Any]:
        payload = {
            "rows": [
                [wire.encode_element(value) for value in row] for row in self.rows
            ],
            "page": self.page,
            "page_size": self.page_size,
            "total_rows": self.total_rows,
            "has_more": self.has_more,
            "free_variables": list(self.free_names),
            "query": self.query,
            "structure_id": self.structure_id,
        }
        if self.explain is not None:
            payload["explain"] = self.explain
        return payload


class TenantSession:
    """Everything the service keeps per tenant.

    The chain wraps the *shared* engine — rungs and caches are common,
    circuit breakers and counters are private to the tenant.
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
        }
        self.lock = threading.Lock()

    def count(self, key: str, amount: int = 1) -> None:
        with self.lock:
            self.counters[key] = self.counters.get(key, 0) + amount

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
            "degradations": len(self.chain.degradations),
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
        The shared engine; defaults to a fresh one. Its caches are the
        cross-tenant plan/answer caches.
    degree_bound:
        Degree bound for the census rung of every tenant chain.
    auto_register:
        When true (default), a request naming an unknown tenant creates
        a session with the default budget — the multi-tenant analogue of
        "anonymous users get the public rate limit". When false, unknown
        tenants are a 404.
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
        degree_bound: int = 3,
        auto_register: bool = True,
        max_page_size: int = MAX_PAGE_SIZE,
        trace_sample: float | None = None,
        access_log: AccessLog | None = None,
        readonly: bool = False,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.default_budget = default_budget
        self.degree_bound = degree_bound
        self.auto_register = auto_register
        self.max_page_size = min(max_page_size, MAX_PAGE_SIZE)
        self.trace_sample = trace_sample
        self.access_log = access_log
        self.readonly = readonly
        self.structures: dict[str, Structure] = {}
        self._superseded: dict[str, str] = {}
        self.tenants: dict[str, TenantSession] = {}
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.requests_served = 0

    # -- tracing -------------------------------------------------------------

    def trace_rate(self) -> float:
        """The effective sampling rate for a request arriving now."""
        if self.trace_sample is not None:
            return self.trace_sample
        return 1.0 if _telemetry_enabled() else 0.0

    @contextmanager
    def request_scope(self, trace_id: object = None):
        """The request's trace context: reuse the transport's, else mint.

        Yields ``(context, scope)`` where ``scope`` is ``None`` when an
        enclosing scope (installed by the HTTP layer) is already active —
        the service then joins that trace instead of starting a nested
        one, so transport-driven and directly-driven calls behave
        identically.
        """
        existing = trace_context.current_trace()
        if existing is not None:
            yield existing, None
            return
        minted = trace_context.mint(trace_id, rate=self.trace_rate())
        with trace_context.trace_scope(minted) as scope:
            yield minted, scope

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
                default_chain(engine=self.engine, degree_bound=self.degree_bound),
            )
            self.tenants[name] = session
            return session

    def tenant(self, name: str) -> TenantSession:
        with self._lock:
            session = self.tenants.get(name)
        if session is None:
            if not self.auto_register:
                raise UnknownResourceError(f"unknown tenant {name!r}")
            session = self.register_tenant(name)
        return session

    # -- structures ----------------------------------------------------------

    def add_structure(
        self, structure: Structure | dict, tenant: str | None = None
    ) -> str:
        """Store a structure (wire dict or live object); return its id.

        Content-addressed and idempotent: uploading the same structure
        twice — by the same tenant or another — returns the same id.
        """
        if isinstance(structure, dict):
            structure = wire.structure_from_dict(structure)
        structure_id = wire.structure_digest(structure)
        with self._lock:
            self.structures.setdefault(structure_id, structure)
        if tenant is not None:
            self.tenant(tenant).count("structures_registered")
        return structure_id

    def structure(self, structure_id: str) -> Structure:
        with self._lock:
            structure = self.structures.get(structure_id)
            successor = self._superseded.get(structure_id)
        if structure is None:
            if successor is not None:
                raise ServerError(
                    f"structure {structure_id!r} was updated; "
                    f"its current id is {successor!r}",
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
        get a 409 naming the successor) unless the batch round-tripped
        back to the identical contents — and ``queries_dirtied``, the
        sorted names of the tenant's prepared queries whose answer sets
        changed (or could not be proven unchanged) across the batch,
        decided by the incremental layer without recomputation
        (:meth:`_dirtied_queries`).
        """
        session = self.tenant(tenant)
        session.count("requests")
        with self._lock:
            self.requests_served += 1
        started = time.perf_counter()
        with self.request_scope(trace_id) as (ctx, scope):  # noqa: F841 — scope keeps the trace open
            token: CancelToken | None = None
            status = 200
            outcome = "ok"
            applied = 0
            try:
                with _span("server.updates") as update_span:
                    update_span.set("tenant", tenant)
                    if self.readonly:
                        raise ServerError(
                            "this server is read-only; updates are disabled",
                            status=403,
                        )
                    structure = self.structure(structure_id)
                    token = self._effective_token(session, deadline_ms, max_rows)
                    if updates and isinstance(updates[0], dict):
                        deltas = wire.updates_from_wire(updates)
                    else:
                        deltas = [
                            (op, relation, tuple(row)) for op, relation, row in updates
                        ]
                    if not deltas:
                        raise ServerError("'updates' must be a non-empty list")
                    # Validate and charge the whole batch before applying
                    # any of it: a 400 or a 429 must leave the store
                    # untouched (a refusal *between* deltas would strand
                    # mutated content under its pre-update digest).
                    for _, relation, row in deltas:
                        structure.check_update(relation, row)
                    if token is not None:
                        token.consume_rows(len(deltas), "server.updates")
                    noops = 0
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
                            self._superseded[structure_id] = new_id
                            # A resurrected id is current again, and any
                            # stale chain onto it must not shadow it.
                            self._superseded.pop(new_id, None)
                    dirtied = self._dirtied_queries(session, structure, token)
                    update_span.set("deltas", len(deltas)).set("applied", applied)
                    update_span.set("epoch", structure.epoch)
                    update_span.set("queries_dirtied", len(dirtied))
                    session.count("updates_applied", applied)
                    if _telemetry_enabled():
                        _counter("incremental.updates.applied", tenant=tenant).inc(applied)
                        _counter("incremental.updates.noops", tenant=tenant).inc(noops)
                        _counter(
                            "incremental.updates.queries_dirtied", tenant=tenant
                        ).inc(len(dirtied))
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
            except BudgetExceededError as error:
                session.count("refused")
                status, outcome = wire.status_for_error(error), "refused"
                raise
            except FMTError as error:
                session.count("errors")
                status, outcome = wire.status_for_error(error), "error"
                raise
            except BaseException:
                status, outcome = 500, "error"
                raise
            finally:
                duration_ms = (time.perf_counter() - started) * 1000.0
                _counter("server.requests", tenant=tenant, outcome=outcome).inc()
                _histogram("server.request_ms", tenant=tenant).observe(duration_ms)
                self._record_access(
                    ctx=ctx,
                    session=session,
                    op="updates",
                    query=None,
                    query_hash=None,
                    rows=applied,
                    status=status,
                    outcome=outcome,
                    duration_ms=duration_ms,
                    token=token,
                    degradations_before=len(session.chain.degradations),
                )

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
        session = self.tenant(tenant)
        if not isinstance(text, str) or not text.strip():
            raise ServerError("'formula' must be a non-empty string")
        constant_names = frozenset(constants)
        structure = None
        if structure_id is not None:
            structure = self.structure(structure_id)
            constant_names = constant_names | structure.signature.constants
        formula = wire.parse_formula(text, constants=constant_names or None)
        if structure is not None:
            validate(formula, structure.signature)
        canonical = wire.format_formula(formula)
        _, free_names = _answer_schema(formula, free_variables)
        if name is None:
            key = (
                canonical
                + "|"
                + ",".join(sorted(constant_names))
                + "|"
                + ",".join(free_names)
            )
            name = "q-" + hashlib.sha256(key.encode()).hexdigest()[:16]
        prepared = PreparedQuery(
            name=name,
            text=canonical,
            formula=formula,
            free_names=free_names,
            constants=tuple(sorted(constant_names)),
        )
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
            self.engine.explain(structure, formula)
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
        spec = session.budget
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServerError(f"deadline_ms must be positive, got {deadline_ms}")
        if max_rows is not None and max_rows < 1:
            raise ServerError(f"max_rows must be positive, got {max_rows}")
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

    # -- answers -------------------------------------------------------------

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
        session.count("requests")
        with self._lock:
            self.requests_served += 1
        started = time.perf_counter()
        with self.request_scope(trace_id) as (ctx, scope):
            degradations_before = len(session.chain.degradations)
            token: CancelToken | None = None
            status = 200
            outcome = "ok"
            query_hash: str | None = None
            rows_returned = 0
            try:
                with _span("server.answers") as answer_span:
                    answer_span.set("tenant", tenant)
                    structure = self.structure(structure_id)
                    token = self._effective_token(session, deadline_ms, max_rows)
                    if (query is None) == (formula is None):
                        raise ServerError(
                            "exactly one of 'query' (prepared name) or 'formula' "
                            "(ad-hoc text) is required"
                        )
                    profile = None
                    if query is not None:
                        if free_variables is not None:
                            raise ServerError(
                                "'free_variables' is fixed at prepare time for "
                                "prepared queries"
                            )
                        prepared = self.prepared_query(tenant, query)
                        query_hash = _query_hash(prepared.text)
                        validate(prepared.formula, structure.signature)
                        natural, free_names = _answer_schema(
                            prepared.formula, prepared.free_names
                        )
                        if explain:
                            profile = self.engine.profile(
                                structure, prepared.formula, budget=token
                            )
                            rows = profile.answers
                        else:
                            rows = session.chain.answers(
                                structure, prepared.formula, budget=token
                            )
                    else:
                        parsed = wire.parse_formula(
                            formula, constants=structure.signature
                        )
                        query_hash = _query_hash(wire.format_formula(parsed))
                        validate(parsed, structure.signature)
                        natural, free_names = _answer_schema(parsed, free_variables)
                        # profile() executes unconditionally (no answer-cache
                        # admission for ad-hoc queries) but still uses the shared
                        # plan cache and honors the budget.
                        profile = self.engine.profile(structure, parsed, budget=token)
                        rows = profile.answers
                    rows = _cylindrify(rows, natural, free_names, structure.universe)
                    _admit_result(len(rows), token)
                    answer_span.set("rows", len(rows))
            except BudgetExceededError as error:
                session.count("refused")
                status, outcome = wire.status_for_error(error), "refused"
                raise
            except FMTError as error:
                session.count("errors")
                status, outcome = wire.status_for_error(error), "error"
                raise
            except BaseException:
                status, outcome = 500, "error"
                raise
            else:
                result = self._page(
                    rows,
                    page,
                    page_size,
                    free_names,
                    query=query,
                    structure_id=structure_id,
                )
                if explain:
                    result = replace(
                        result, explain=self._explain_payload(profile, ctx, scope)
                    )
                rows_returned = len(result.rows)
                session.count("answered")
                session.count("rows_returned", rows_returned)
                return result
            finally:
                duration_ms = (time.perf_counter() - started) * 1000.0
                _counter("server.requests", tenant=tenant, outcome=outcome).inc()
                _histogram("server.request_ms", tenant=tenant).observe(duration_ms)
                self._record_access(
                    ctx=ctx,
                    session=session,
                    op="answers",
                    query=query,
                    query_hash=query_hash,
                    rows=rows_returned,
                    status=status,
                    outcome=outcome,
                    duration_ms=duration_ms,
                    token=token,
                    degradations_before=degradations_before,
                )

    def _explain_payload(self, profile, ctx, scope) -> dict[str, Any]:
        """The wire ``explain`` object: profile actuals + span tree."""
        spans: list[dict[str, Any]]
        root = _open_root()
        if root is not None:
            spans = [root.to_dict()]
        elif scope is not None:
            spans = [finished.to_dict() for finished in scope.roots]
        else:
            spans = []
        return {
            "trace_id": ctx.trace_id,
            "sampled": ctx.sampled,
            "profile": profile.to_dict() if profile is not None else None,
            "spans": spans,
        }

    def _record_access(
        self,
        *,
        ctx,
        session: TenantSession,
        op: str,
        query: str | None,
        query_hash: str | None,
        rows: int,
        status: int,
        outcome: str,
        duration_ms: float,
        token: CancelToken | None,
        degradations_before: int,
    ) -> None:
        """One structured access-log line for a finished request."""
        log = self.access_log
        if log is None:
            return
        all_degradations = session.chain.degradations
        degraded = (
            [
                {"rung": event.rung, "error": event.error, "trace_id": event.trace_id}
                for event in all_degradations[degradations_before:]
            ]
            if len(all_degradations) > degradations_before
            else []
        )
        log.log(
            {
                "trace_id": ctx.trace_id,
                "sampled": ctx.sampled,
                "tenant": session.name,
                "op": op,
                "query": query,
                "query_hash": query_hash,
                "rows": rows,
                "status": status,
                "outcome": outcome,
                "duration_ms": duration_ms,
                "budget_rows_spent": token.rows if token is not None else None,
                "budget_nodes_spent": token.nodes if token is not None else None,
                "degradations": degraded,
                "breakers": {
                    rung: breaker.state
                    for rung, breaker in session.chain.breakers.items()
                },
            }
        )

    def answers_batch(
        self,
        tenant: str,
        requests: list[dict[str, Any]],
        deadline_ms: float | None = None,
        max_rows: int | None = None,
        page_size: int | None = None,
        trace_id: object = None,
    ) -> list[AnswerPage]:
        """Many answer requests, executed through
        :meth:`Engine.answers_batch` under **one** shared budget.

        Each request dict carries ``structure_id`` plus ``query`` or
        ``formula`` (and optionally its own ``page``/``page_size``).
        Planning is deduplicated by the shared plan cache and duplicate
        requests by the answer cache.  The whole batch shares one
        admission token — a batch is one unit of work, and a budget that
        would refuse its parts refuses their sum.  It also shares one
        trace context: every engine span of the batch carries the same
        trace id, and the access log gets one line for the whole batch.
        """
        session = self.tenant(tenant)
        session.count("batch_requests")
        session.count("requests", len(requests))
        with self._lock:
            self.requests_served += 1
        started = time.perf_counter()
        with self.request_scope(trace_id) as (ctx, scope):
            degradations_before = len(session.chain.degradations)
            token: CancelToken | None = None
            status = 200
            outcome = "ok"
            rows_returned = 0
            try:
                with _span("server.answers_batch") as batch_span:
                    batch_span.set("tenant", tenant)
                    if not isinstance(requests, list) or not requests:
                        raise ServerError("'requests' must be a non-empty list")
                    batch_span.set("requests", len(requests))
                    token = self._effective_token(session, deadline_ms, max_rows)
                    pairs: list[tuple[Structure, Formula]] = []
                    shapes: list[tuple] = []
                    for request in requests:
                        if not isinstance(request, dict):
                            raise ServerError("each batch request must be an object")
                        structure = self.structure(request.get("structure_id", ""))
                        name = request.get("query")
                        text = request.get("formula")
                        if (name is None) == (text is None):
                            raise ServerError(
                                "each batch request needs exactly one of "
                                "'query' or 'formula'"
                            )
                        if name is not None:
                            if request.get("free_variables") is not None:
                                raise ServerError(
                                    "'free_variables' is fixed at prepare time for "
                                    "prepared queries"
                                )
                            prepared = self.prepared_query(tenant, name)
                            formula = prepared.formula
                            natural, free_names = _answer_schema(
                                formula, prepared.free_names
                            )
                        else:
                            formula = wire.parse_formula(
                                text, constants=structure.signature
                            )
                            natural, free_names = _answer_schema(
                                formula, request.get("free_variables")
                            )
                        validate(formula, structure.signature)
                        pairs.append((structure, formula))
                        shapes.append(
                            (
                                natural,
                                free_names,
                                name,
                                structure,
                                request.get("structure_id", ""),
                                int(request.get("page", 0)),
                                request.get("page_size", page_size),
                            )
                        )
                    try:
                        answer_sets = self.engine.answers_batch(pairs, budget=token)
                        answer_sets = [
                            _cylindrify(rows, natural, free_names, structure.universe)
                            for rows, (natural, free_names, _, structure, *_rest) in zip(
                                answer_sets, shapes
                            )
                        ]
                        _admit_result(sum(len(rows) for rows in answer_sets), token)
                    except BudgetExceededError:
                        session.count("refused", len(requests))
                        raise
                    pages = []
                    for rows, (_, free_names, name, _, structure_id, page, size) in zip(
                        answer_sets, shapes
                    ):
                        pages.append(
                            self._page(
                                rows,
                                page,
                                size,
                                free_names,
                                query=name,
                                structure_id=structure_id,
                            )
                        )
            except BudgetExceededError as error:
                status, outcome = wire.status_for_error(error), "refused"
                raise
            except FMTError as error:
                status, outcome = wire.status_for_error(error), "error"
                raise
            except BaseException:
                status, outcome = 500, "error"
                raise
            else:
                rows_returned = sum(len(p.rows) for p in pages)
                session.count("answered", len(requests))
                session.count("rows_returned", rows_returned)
                return pages
            finally:
                duration_ms = (time.perf_counter() - started) * 1000.0
                _counter("server.requests", tenant=tenant, outcome=outcome).inc()
                _histogram("server.request_ms", tenant=tenant).observe(duration_ms)
                self._record_access(
                    ctx=ctx,
                    session=session,
                    op="answers_batch",
                    query=None,
                    query_hash=None,
                    rows=rows_returned,
                    status=status,
                    outcome=outcome,
                    duration_ms=duration_ms,
                    token=token,
                    degradations_before=degradations_before,
                )

    def _page(
        self,
        rows: frozenset[tuple[Element, ...]],
        page: int,
        page_size: int | None,
        free_names: tuple[str, ...],
        query: str | None,
        structure_id: str,
    ) -> AnswerPage:
        if page < 0:
            raise ServerError(f"page must be non-negative, got {page}")
        size = DEFAULT_PAGE_SIZE if page_size is None else int(page_size)
        if size < 1:
            raise ServerError(f"page_size must be positive, got {size}")
        size = min(size, self.max_page_size)
        ordered = sorted(rows, key=repr)
        start = page * size
        window = tuple(ordered[start : start + size])
        return AnswerPage(
            rows=window,
            page=page,
            page_size=size,
            total_rows=len(ordered),
            has_more=start + size < len(ordered),
            free_names=free_names,
            query=query,
            structure_id=structure_id,
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
                "requests_served": self.requests_served,
            }

    def metrics(self) -> dict[str, Any]:
        """The observability snapshot behind ``GET /metrics``: telemetry
        registry (counters/gauges/histograms), shared-cache stats, engine
        lifetime counters, and per-tenant session counters."""
        with self._lock:
            tenants = dict(self.tenants)
            requests_served = self.requests_served
            structures = len(self.structures)
        return {
            "wire_version": wire.WIRE_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "requests_served": requests_served,
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

        The labeled registry series render directly; the service-level
        JSON numbers (uptime, requests served, cache rates) are exported
        as gauges first so one exposition carries both.
        """
        with self._lock:
            requests_served = self.requests_served
            structures = len(self.structures)
            tenants = len(self.tenants)
        _gauge("server.uptime_seconds").set(time.monotonic() - self._started)
        _gauge("server.requests_served").set(requests_served)
        _gauge("server.structures").set(structures)
        _gauge("server.tenants").set(tenants)
        _gauge("server.wire_version").set(wire.WIRE_VERSION)
        for cache_name, snapshot in (
            ("plan", self.engine.plan_cache.snapshot()),
            ("answer", self.engine.answer_cache.snapshot()),
        ):
            for stat, value in snapshot.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    _gauge("server.cache." + stat, cache=cache_name).set(value)
        return render_exposition()


def _query_hash(canonical_text: str) -> str:
    """A stable, loggable identity for one query's canonical text."""
    return hashlib.sha256(canonical_text.encode()).hexdigest()[:16]


def _answer_schema(
    formula: Formula,
    requested: tuple[str, ...] | list[str] | None,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The (natural, effective) answer column orders for one query.

    ``natural`` is the evaluators' own order — free variables sorted by
    name, the order every rung of the chain returns tuples in.  The
    effective order defaults to it; an explicit request must cover every
    free variable (a proper subset would be a silent projection) and may
    append extra variables, which cylindrify over the universe.
    """
    natural = tuple(sorted(var.name for var in free_variables(formula)))
    if requested is None:
        return natural, natural
    effective = tuple(requested)
    if any(not isinstance(name, str) or not name for name in effective):
        raise ServerError("free_variables must be non-empty strings")
    if len(set(effective)) != len(effective):
        raise ServerError("free_variables must not repeat names")
    missing = set(natural) - set(effective)
    if missing:
        raise ServerError(
            "free_variables must include every free variable of the "
            f"formula; missing {sorted(missing)}"
        )
    return natural, effective


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
    index = {name: position for position, name in enumerate(natural)}
    extra = [name for name in effective if name not in index]
    combos = list(itertools.product(universe, repeat=len(extra)))
    widened = set()
    for row in rows:
        for combo in combos:
            bound = dict(zip(extra, combo))
            widened.add(
                tuple(
                    row[index[name]] if name in index else bound[name]
                    for name in effective
                )
            )
    return frozenset(widened)


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
