"""Differential & metamorphic conformance fuzzing for every evaluation path.

The library has several independent ways to answer the same FO query
(naive, algebra, engine, circuits, bounded-degree census).  This package
is the correctness backbone that cross-checks them:

* :mod:`repro.conformance.generate` — seeded, size-budgeted random
  structures and formulas (shared with ``tests/strategies.py``);
* :mod:`repro.conformance.backends` — every evaluation path behind one
  ``answers(structure, formula)`` interface with applicability
  predicates;
* :mod:`repro.conformance.oracles` — metamorphic relations derived from
  the paper's theorems (isomorphism invariance, negation duality,
  disjoint-union/Hanf composition, EF rank-r transfer);
* :mod:`repro.conformance.runner` — the differential runner that
  cross-checks all applicable backends pairwise plus the oracles;
* :mod:`repro.conformance.shrink` — a delta-debugging minimizer for
  failing cases;
* :mod:`repro.conformance.corpus` / :mod:`repro.conformance.serialize`
  — the replayable regression corpus under ``tests/corpus/``.

Drive it with ``python -m repro.conformance --seed 0 --budget 200``.
"""

from __future__ import annotations

from repro.conformance.backends import (
    Backend,
    BackendRegistry,
    default_registry,
    remote_backend,
)
from repro.conformance.corpus import load_corpus, save_case
from repro.conformance.generate import (
    Case,
    CaseGenerator,
    FormulaGenerator,
    StructureGenerator,
)
from repro.conformance.oracles import Oracle, default_oracles
from repro.conformance.runner import ConformanceReport, Failure, Runner
from repro.conformance.serialize import (
    case_from_json,
    case_to_json,
    format_formula,
)
from repro.conformance.shrink import shrink_case

__all__ = [
    "Backend",
    "BackendRegistry",
    "Case",
    "CaseGenerator",
    "ConformanceReport",
    "Failure",
    "FormulaGenerator",
    "Oracle",
    "Runner",
    "StructureGenerator",
    "case_from_json",
    "case_to_json",
    "default_oracles",
    "default_registry",
    "format_formula",
    "load_corpus",
    "remote_backend",
    "save_case",
    "shrink_case",
]
