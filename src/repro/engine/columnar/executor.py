"""The columnar executor: compiled kernel pipelines → :class:`Relation`.

The engine's one plan executor. A plan is compiled once per structure
into a tree of generated kernel closures over integer-coded rows
(:mod:`repro.engine.columnar.compile`), kept in a per-structure LRU of
:data:`PIPELINE_CACHE_LIMIT` pipelines, and re-executions just walk
that tree. The tree holds no data: the sets its leaves read live in the
structure's codec, which patches them forward across updates, so a
cached pipeline is recompiled only when the codec itself is rebuilt.
Element objects only reappear at the plan root, where the (usually
small) answer key set is bulk-decoded.

What a run promises:

* observability — ``executor.{ops,rows,ms}.<Op>`` counters/histograms
  under telemetry, and ``NodeActuals`` per step when a recorder is
  attached, keyed by the outermost plan node the step realizes (nodes
  fused into a step get none; see :func:`~repro.engine.plan.fused_steps`);
* budget semantics — ``CancelToken.consume_rows`` per materialized
  step, so row budgets and deadlines trip at the operator that blew up
  (a fused step is charged its output only: the semijoin steps charge
  none of the matches they never build);
* operator counts — ``ExecutionStats.joins`` and ``antijoins`` count
  the plan's join and antijoin nodes, whichever step realizes them;
* the semijoin pre-filter policy — ``semijoin_filtering`` plus the
  :data:`SEMIJOIN_THRESHOLD` size gate, counted in
  ``ExecutionStats.semijoin_filters`` — applied at run time so one
  cached pipeline serves every engine configuration.

The reference tuple executor (:mod:`repro.engine.executor`) imports
:class:`ExecutionStats`, :class:`NodeActuals` and the threshold from here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import MutableMapping

from repro.resilience.budget import CancelToken
from repro.engine.cache import LRUCache
from repro.engine.columnar.codec import codec_for
from repro.engine.columnar.compile import CompiledPlan, PipelineNode, compile_plan
from repro.engine.plan import Plan
from repro.eval.algebra import Relation
from repro.structures.structure import PIPELINE_MEMO, Structure
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.metrics import histogram as _histogram
from repro.telemetry.tracer import is_enabled as _telemetry_enabled

__all__ = [
    "ColumnarExecutor",
    "ExecutionStats",
    "NodeActuals",
    "PIPELINE_CACHE_LIMIT",
    "SEMIJOIN_THRESHOLD",
]

#: Compiled pipelines kept per structure, least recently used
#: evicted first — the engine's plan-cache size. Each pipeline
#: pins its plan, so an unbounded memo would keep every ad-hoc formula
#: ever answered on a long-lived structure alive.
PIPELINE_CACHE_LIMIT = 256

#: Minimum input size before a join bothers with a semijoin pre-filter.
SEMIJOIN_THRESHOLD = 64

#: (joins, antijoins) each half-join step kind realizes, so
#: ``ExecutionStats`` counts plan operators as the tuple executor does.
_HALF_JOINS = {
    "SemiJoin": (1, 0),
    "SemiJoinMeet": (2, 0),
    "AntiJoin": (0, 1),
    "AntiJoinMeet": (1, 1),
}


@dataclass
class ExecutionStats:
    """Row counters for one (or several) plan executions."""

    rows_materialized: int = 0
    joins: int = 0
    semijoin_filters: int = 0
    antijoins: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "rows_materialized": self.rows_materialized,
            "joins": self.joins,
            "semijoin_filters": self.semijoin_filters,
            "antijoins": self.antijoins,
        }

    def _observe(self, relation: Relation) -> Relation:
        self.rows_materialized += len(relation)
        return relation


@dataclass(frozen=True)
class NodeActuals:
    """What one plan node actually did: output rows and inclusive seconds.

    ``seconds`` covers the node *and* its children (EXPLAIN ANALYZE's
    convention for tree rendering); subtract child times for exclusive
    cost.
    """

    rows: int
    seconds: float

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


class ColumnarExecutor:
    """Execute compiled kernel pipelines against one structure, whose
    universe is the quantification domain."""

    def __init__(
        self,
        structure: Structure,
        stats: ExecutionStats | None = None,
        recorder: MutableMapping[int, NodeActuals] | None = None,
        semijoin_filtering: bool = True,
        cancel_token: CancelToken | None = None,
    ) -> None:
        self.structure = structure
        self.stats = stats if stats is not None else ExecutionStats()
        self.recorder = recorder
        self.semijoin_filtering = semijoin_filtering
        self.cancel_token = cancel_token

    def run(self, plan: Plan) -> Relation:
        compiled = self._compiled(plan)
        keys = self._exec(compiled.root)
        rows = compiled.codec.decode_rows(keys, plan.arity, compiled.packed)
        return Relation._make(plan.attributes, rows)

    # -- pipeline cache -------------------------------------------------------

    def _compiled(self, plan: Plan) -> CompiledPlan:
        """The cached pipeline for ``plan``, compiled on a miss.

        A codec behind the structure's epoch is brought forward by
        ``codec_for``, which patches it in place (and drops the touched
        relations' scans) or, when the delta log no longer covers the
        gap, rebuilds it; only a rebuilt codec orphans the column
        references the pipeline captured, so only then is it recompiled.
        """
        structure = self.structure
        pipelines = structure.cached(
            PIPELINE_MEMO, lambda: LRUCache(PIPELINE_CACHE_LIMIT)
        )
        compiled = pipelines.get(id(plan))
        if compiled is None or (
            compiled.codec.epoch != structure.epoch
            and codec_for(structure) is not compiled.codec
        ):
            compiled = self._compile(plan)
            pipelines.put(id(plan), compiled)
        elif compiled.plan is not plan:  # pragma: no cover - defensive: the
            # cached CompiledPlan pins its plan object alive, so a live id
            # can never be reused; recompile rather than trust a collision.
            return self._compile(plan)
        return compiled

    def _compile(self, plan: Plan) -> CompiledPlan:
        if not _telemetry_enabled():
            return compile_plan(plan, self.structure)
        start = time.perf_counter()
        compiled = compile_plan(plan, self.structure)
        _counter("columnar.pipeline.compiles").inc()
        _histogram("columnar.compile.ms").observe(
            (time.perf_counter() - start) * 1000.0
        )
        return compiled

    # -- interpretation -------------------------------------------------------

    def _exec(self, node: PipelineNode) -> set:
        token = self.cancel_token
        recorder = self.recorder
        if recorder is None and not _telemetry_enabled():
            rows = self._apply(node)
            if token is not None:
                token.consume_rows(len(rows), node.kind)
            return rows
        start = time.perf_counter()
        rows = self._apply(node)
        elapsed = time.perf_counter() - start
        if token is not None:
            token.consume_rows(len(rows), node.kind)
        if _telemetry_enabled():
            kind = node.kind
            _counter(f"executor.ops.{kind}").inc()
            _counter(f"executor.rows.{kind}").inc(len(rows))
            _histogram(f"executor.ms.{kind}").observe(elapsed * 1000.0)
        if recorder is not None and node.plan is not None:
            recorder[id(node.plan)] = NodeActuals(rows=len(rows), seconds=elapsed)
        return rows

    def _apply(self, node: PipelineNode) -> set:
        stats = self.stats
        children = node.children
        if node.kind == "Join":
            left = self._exec(children[0])
            right = self._exec(children[1])
            stats.joins += 1
            if (
                node.shared
                and self.semijoin_filtering
                and len(left) > SEMIJOIN_THRESHOLD
                and len(right) > SEMIJOIN_THRESHOLD
            ):
                stats.semijoin_filters += 1
                before = max(len(left), len(right))
                if len(left) >= len(right):
                    left = node.semi_left(left, right)
                    after = len(left)
                else:
                    right = node.semi_right(right, left)
                    after = len(right)
                if _telemetry_enabled():
                    _counter("executor.semijoin.filters").inc()
                    _counter("executor.semijoin.rows_filtered").inc(before - after)
            rows = node.fn(left, right)
        else:
            counted = _HALF_JOINS.get(node.kind)
            if counted is not None:
                stats.joins += counted[0]
                stats.antijoins += counted[1]
            rows = node.fn(*[self._exec(child) for child in children])
        stats.rows_materialized += len(rows)
        return rows
