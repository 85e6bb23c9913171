"""Linear-time FO evaluation over bounded-degree structures (Thm 3.10/3.11).

Theorem 3.10 (Fagin–Stockmeyer–Vardi): for every FO sentence φ and
degree bound k there are r, m such that any two degree-≤k structures
related by ⇆*_{m,r} agree on φ. Theorem 3.11 (Seese) turns this into a
linear-time data-complexity evaluation algorithm: the truth of φ on G
depends only on G's (threshold-truncated) census of r-neighborhood
types, which is computable in linear time for fixed k and r.

:class:`BoundedDegreeEvaluator` implements the algorithm with one
substitution, documented in DESIGN.md: the paper precomputes the answer
for *every* abstract census function (which requires synthesizing a
structure realizing each census); we fill the census → truth table
*lazily*, evaluating the sentence directly on the first structure that
realizes each census and serving every later structure with the same
census from the table. Soundness needs exactly Hanf's theorem: with
``threshold=None`` the key is the exact census, and equal censuses mean
G ⇆_r G', which for r ≥ (3^qr − 1)/2 implies agreement on φ
(:func:`repro.locality.hanf.hanf_locality_radius`). A finite threshold m
enables cross-size reuse via Theorem 3.10 and is validated empirically
by the test suite.

The module also declares, once, the bounded-degree class every locality
path of the library serves: :data:`DEGREE_BOUND`, :data:`BALL_LIMIT`,
:data:`CENSUS_MAX_RANK` and the census gate :func:`census_applicable`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import LocalityError
from repro.eval.evaluator import evaluate as naive_evaluate
from repro.resilience.budget import CancelToken
from repro.locality.hanf import hanf_locality_radius
from repro.locality.neighborhoods import (
    TypeRegistry,
    neighborhood_census,
    neighborhood_census_baseline,
)
from repro.logic.analysis import analyze
from repro.logic.syntax import Formula
from repro.structures.structure import Structure
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = [
    "BALL_LIMIT",
    "CENSUS_MAX_RANK",
    "DEGREE_BOUND",
    "BoundedDegreeEvaluator",
    "census_applicable",
    "census_key",
]

#: The class bound k: the locality paths serve structures of Gaifman
#: degree at most this.
DEGREE_BOUND = 3

#: The largest r-ball a locality path keys per element — the fast path's
#: worst-case Hanf ball ``max_ball_size(DEGREE_BOUND, r)``, enumeration's
#: type or separation ball, and a Hanf record's pointed ball — so the
#: linear-time census keeps a small constant.
BALL_LIMIT = 64

#: Quantifier-rank ceiling for answering by census: the sound Hanf
#: radius is (3^qr − 1)/2, and past this rank the census of even a tiny
#: structure degenerates to "the whole structure per ball" — legal but
#: pointless.
CENSUS_MAX_RANK = 4


def census_applicable(structure: Structure, formula: Formula) -> tuple[bool, str]:
    """``(ok, reason)``: is ``formula`` a constant-free sentence of rank at
    most :data:`CENSUS_MAX_RANK`, and ``structure`` constant-free of
    Gaifman degree at most :data:`DEGREE_BOUND`?"""
    analysis = analyze(formula)
    if analysis.names:
        return False, "not a sentence"
    if structure.constants or analysis.constants:
        return False, "constants present"
    if analysis.rank > CENSUS_MAX_RANK:
        return False, f"quantifier rank {analysis.rank} > census cap {CENSUS_MAX_RANK}"
    degree = structure.max_degree()
    if degree > DEGREE_BOUND:
        return False, f"Gaifman degree {degree} > bound {DEGREE_BOUND}"
    return True, ""


def census_key(census: Counter, threshold: int | None) -> tuple:
    """A hashable census key, counts truncated at ``threshold`` if given."""
    if threshold is None:
        return tuple(sorted(census.items()))
    return tuple(
        sorted(
            (type_id, count if count < threshold else threshold)
            for type_id, count in census.items()
        )
    )


@dataclass
class EvaluatorStats:
    """Cache behaviour of a :class:`BoundedDegreeEvaluator`."""

    hits: int = 0
    misses: int = 0
    censuses_seen: int = field(default=0)


class BoundedDegreeEvaluator:
    """Evaluate one FO sentence over a class of bounded-degree structures.

    Parameters
    ----------
    sentence:
        The FO sentence φ to evaluate (fixed — this is data complexity).
    degree_bound:
        The class bound k; structures of larger Gaifman degree are
        rejected (the theorem is about bounded-degree classes).
    radius:
        Neighborhood radius r. Defaults to the sound Hanf-locality bound
        (3^qr(φ) − 1)/2; smaller radii are faster but only sound if φ
        happens to be Hanf-local at that radius.
    threshold:
        Optional census truncation m (Theorem 3.10). ``None`` uses exact
        censuses, which is unconditionally sound.
    census_mode:
        ``"fast"`` (default) uses the ball-key census pipeline of
        :func:`repro.locality.neighborhoods.neighborhood_census`;
        ``"baseline"`` forces the per-element reference implementation
        (ablation and determinism testing).

    After a warm-up evaluation, any structure with a previously seen
    census is answered by a linear-time census computation plus a table
    lookup — no formula evaluation at all.  Each :meth:`evaluate` call
    names its table-miss ``fallback``; all compute the same truth value,
    so one table serves every caller. Experiment E10 measures the
    crossover against the naive O(n^qr) evaluator; E18 measures the
    keyed census against the per-element baseline.
    """

    def __init__(
        self,
        sentence: Formula,
        degree_bound: int,
        radius: int | None = None,
        threshold: int | None = None,
        census_mode: str = "fast",
    ) -> None:
        analysis = analyze(sentence)
        if analysis.names:
            raise LocalityError(
                f"bounded-degree evaluation needs a sentence; free: {list(analysis.names)}"
            )
        if degree_bound < 0:
            raise LocalityError(f"degree bound must be non-negative, got {degree_bound}")
        if radius is not None and radius < 0:
            raise LocalityError(f"radius must be non-negative, got {radius}")
        if threshold is not None and threshold < 1:
            raise LocalityError(f"threshold must be at least 1, got {threshold}")
        if census_mode not in ("fast", "baseline"):
            raise LocalityError(
                f"census_mode must be 'fast' or 'baseline', got {census_mode!r}"
            )
        self.sentence = sentence
        self.degree_bound = degree_bound
        self.radius = hanf_locality_radius(analysis.rank) if radius is None else radius
        self.threshold = threshold
        self.census_mode = census_mode
        self.registry = TypeRegistry()
        self.table: dict[tuple, bool] = {}
        self.stats = EvaluatorStats()

    def census_of(
        self, structure: Structure, cancel_token: CancelToken | None = None
    ) -> Counter:
        """The structure's r-neighborhood census (linear time for fixed k, r)."""
        if self.census_mode == "baseline":
            return neighborhood_census_baseline(
                structure, self.radius, self.registry, cancel_token=cancel_token
            )
        return neighborhood_census(
            structure, self.radius, self.registry, cancel_token=cancel_token
        )

    def evaluate(
        self,
        structure: Structure,
        cancel_token: CancelToken | None = None,
        fallback: Callable[..., bool] = naive_evaluate,
    ) -> bool:
        """Decide structure ⊨ φ via the census table.

        ``cancel_token`` bounds the census loop and the table-miss
        ``fallback(structure, sentence, cancel_token=...)`` decides a
        miss; census-table hits are effectively free.
        """
        self._check_degree(structure)
        return self._decide(
            structure,
            self.census_of(structure, cancel_token=cancel_token),
            cancel_token,
            fallback,
        )

    def evaluate_many(
        self,
        structures: list[Structure],
        cancel_token: CancelToken | None = None,
    ) -> list[bool]:
        """Decide φ on every structure, in order.

        Every degree is checked before any census runs, so an
        out-of-class structure fails the call without partial work.
        """
        structures = list(structures)
        for structure in structures:
            self._check_degree(structure)
        return [
            self._decide(
                structure,
                self.census_of(structure, cancel_token=cancel_token),
                cancel_token,
                naive_evaluate,
            )
            for structure in structures
        ]

    def _check_degree(self, structure: Structure) -> None:
        degree = structure.max_degree()
        if degree > self.degree_bound:
            raise LocalityError(
                f"structure has Gaifman degree {degree} > bound {self.degree_bound}; "
                "Theorem 3.11 applies to bounded-degree classes only"
            )

    def _decide(
        self,
        structure: Structure,
        census: Counter,
        cancel_token: CancelToken | None,
        fallback: Callable[..., bool],
    ) -> bool:
        key = census_key(census, self.threshold)
        cached = self.table.get(key)
        if cached is not None:
            self.stats.hits += 1
            if _telemetry_enabled():
                _counter("locality.census_table.hits").inc()
            return cached
        self.stats.misses += 1
        if _telemetry_enabled():
            _counter("locality.census_table.misses").inc()
        with _span("locality.census_table.fill"):
            value = bool(fallback(structure, self.sentence, cancel_token=cancel_token))
        self.table[key] = value
        self.stats.censuses_seen = len(self.table)
        return value

    def __call__(self, structure: Structure) -> bool:
        return self.evaluate(structure)
