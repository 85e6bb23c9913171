"""Incremental evaluation: updates, maintained indexes, enumeration.

The read-only stack (engine, locality, server) treats every structure as
a value: change one tuple and everything — Gaifman graph, census,
answers, codecs — is recomputed from scratch.  This package is the write
path.  :meth:`repro.structures.structure.Structure.insert` / ``delete``
bump a per-structure epoch and patch the structural memos; the modules
here maintain the *derived* state on top of that delta log:

Each maintained index is a record at an epoch, kept in exactly one
store, and brought forward only over the elements near a change:

* :mod:`repro.incremental.census` — :class:`~repro.incremental.census.CensusIndex`,
  epoch-aware locality-census maintenance over the census records a
  :class:`~repro.locality.neighborhoods.TypeRegistry` keeps per
  (structure uid, radius).  Only elements within radius r of a touched
  tuple can change their sphere type (locality of the neighborhood map
  itself), so one multi-source BFS bounds the dirty set and everything
  outside it keeps its type.
* :mod:`repro.incremental.answers` — :class:`~repro.incremental.answers.AnswerIndex`,
  cached-answer maintenance in three tiers over the answer records the
  engine's answer cache keeps per (structure uid, query, column order):
  quantifier-free queries patch the delta's unification candidates,
  local-existential ones re-decide the census module's dirty set, and
  other quantified queries with at most one free variable transfer
  verdicts through a Hanf census re-keyed the same way.
* :mod:`repro.incremental.enumeration` — :class:`~repro.incremental.enumeration.AnswerStream`
  and the constant-delay enumeration strategies behind
  :meth:`repro.engine.engine.Engine.enumerate`, after Kazana–Segoufin
  (arXiv:1105.3583): linear preprocessing, then answers one at a time
  with measured per-answer delay.

Submodules are imported directly (``from repro.incremental.census import
CensusIndex``) — this ``__init__`` stays import-light because
:mod:`repro.locality.neighborhoods` imports the census module at module
scope while the enumeration module imports locality back (lazily).
"""

__all__ = ["answers", "census", "enumeration"]
