"""The columnar executor: integer-coded relations + generated kernels.

:class:`repro.engine.engine.Engine` runs every plan here. Three layers
(see DESIGN S20):

* :mod:`~repro.engine.columnar.codec` — one element ↔ dense-int-id
  bijection per structure, over its universe, with relations
  materialized as parallel ``array('q')`` columns and, for packable
  arities, as cached sets of mixed-radix composite keys;
* :mod:`~repro.engine.columnar.kernels` — per-shape generated sources
  (fastconj-style specialization) for scan/join/semijoin/antijoin/
  project/extend/complement/union over those keys;
* :mod:`~repro.engine.columnar.compile` + ``executor`` — plan trees
  compiled bottom-up into pipelines of kernel closures (σπ fused into
  scans, π fused into join probe loops), cached on the structure, and
  interpreted by :class:`ColumnarExecutor` with per-step EXPLAIN
  ANALYZE actuals, row budgets, and the semijoin pre-filter.
"""

from repro.engine.columnar.codec import (
    PACK_KEY_LIMIT,
    PACK_MAX_ARITY,
    DomainCodec,
    codec_for,
)
from repro.engine.columnar.compile import CompiledPlan, PipelineNode, compile_plan
from repro.engine.columnar.executor import ColumnarExecutor

__all__ = [
    "ColumnarExecutor",
    "CompiledPlan",
    "DomainCodec",
    "PipelineNode",
    "PACK_KEY_LIMIT",
    "PACK_MAX_ARITY",
    "codec_for",
    "compile_plan",
]
