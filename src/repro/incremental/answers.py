"""Cached-answer maintenance for quantifier-free AND quantified queries.

A cached answer set ans(φ, A) can be *patched* under a tuple delta
instead of recomputed.  Three tiers, in decreasing order of strength:

**Quantifier-free** (``qf``).  Whether ā ∈ ans(φ, A) depends only on
which atoms of φ hold of ā — and a delta (op, R, t) can only flip the
truth of an R-atom R(τ̄) on assignments where τ̄ evaluates to exactly t.
Unifying each R-atom's term tuple against t therefore enumerates a
*complete* candidate set; each candidate is verified point-wise and
spliced into the cached set.

**Local existential** (``local``, Kazana–Segoufin style,
arXiv:1105.3583).  For φ(x) = ∃y₁…y_k ψ with ψ quantifier-free and every
yᵢ *anchored* — each witness variable reachable from x in the variable
co-occurrence graph built from atoms guaranteed to hold in any
satisfying assignment — every witness tuple lies inside the Gaifman ball
B_k(x).  The verdict of a is therefore a function of B_k(a) and of the
rows over it, so only the radius-k dirty set of the deltas
(:func:`repro.incremental.census.dirty_set`, whose completeness is the
lemma proved in :mod:`repro.incremental.census`) can change verdict,
and each of its elements is re-decided by quantifying over its ball
instead of the universe.

**Hanf census gate** (``hanf``, general rank-q, at most one free
variable).  For arbitrary quantified φ(x) of rank q, A ⊨ φ(a) iff the
*marked* structure (A, {a}) satisfies the rank-(q+1) sentence
∃x (P(x) ∧ φ(x)); by Hanf locality (Libkin, *Elements of Finite Model
Theory*, Thm 4.12) that sentence is determined by the exact multiset of
radius-r ball types of (A, {a}) with r = (3^{q+1} − 1)/2.  That census
decomposes as

    census_r(A, {a}) = census_r(A)
                       − {unmarked types of b ∈ B_r(a)}
                       + {marked types of b ∈ B_r(a)},

and both correction terms are determined by the isomorphism type of the
*pointed* ball (B_2r(a), a): every B_r(b) with d(a, b) ≤ r lies inside
B_2r(a), and every path of length ≤ r from b stays inside it, so the
induced substructure is distance-faithful up to r.  Hence the

    **verdict-transfer rule**: equal census fingerprint at radius r and
    equal pointed ball key at radius 2r  ⟹  equal verdict

— sound for *all* finite structures (degree bounds only gate the cost).
A promoted record keeps every element's pointed key, the census
fingerprint, and a (key, fingerprint) → verdict cache, so a delta
re-keys only the dirty set and re-evaluates at most one representative
per new class.

The records live in one store, the engine's answer cache: one
:class:`_Record` per (structure uid, formula, column order) holds the
rows, the epoch they answer, the scope classified once when the record
was made, and — for the Hanf tier — the census.  A record at the
structure's epoch is a cache hit; an older one is what
:meth:`AnswerIndex.patch` brings forward in place, under the
structure's lock.  Every tier is a function from the record and the
pending deltas to new rows, and the patch commits what it returns in one
block at the end, so an overflow of the per-patch allowance
(:data:`PATCH_LIMIT` units: candidates, dirty elements, witness tuples),
an injected fault, or a mid-patch budget expiry leaves the record
exactly as it was (the ``incremental.answers.fallback`` counter makes
the recompute escape hatch visible).

A record also keeps its rows in the canonical page order
(:func:`~repro.structures.structure.canonical_order`) once a page of
them is read (:meth:`repro.engine.engine.Engine.page_order`): one
immutable tuple of references to the rows.  A patch that replaces the
rows (keeping the row objects that stay) leaves the order of the set
they replaced on the record, and the next page read brings it forward
(:func:`bring_forward`) by bisection over the rows that changed instead
of re-sorting — unless more than :data:`BISECT_LIMIT` rows, and more
than one in :data:`BISECT_SHARE` of the new rows, changed; then it
sorts once.  Beside the order, a served page read keeps each row's JSON
text at the same index (``texts``, rendered by the renderer the read
passes in): the first page read renders every row, and bringing the
order forward moves the texts with it and renders only the rows added.
So an ordered record holds one tuple of row references and, once
served, one tuple of row texts, plus at most one superseded row set
until its next page read, and a record that nothing pages or enumerates
is never ordered.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from collections import Counter, deque
from collections.abc import Callable, Sequence

from repro.errors import FMTError
from repro.eval.evaluator import evaluate as naive_evaluate
from repro.incremental.census import dirty_set, rekey
from repro.logic.analysis import analyze, subformulas
from repro.logic.syntax import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Formula,
    Or,
    Var,
)
from repro.resilience.budget import CancelToken
from repro.resilience.faults import fault_point
from repro.structures.gaifman import ball
from repro.structures.structure import Structure, _sort_key, canonical_order, row_key
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = [
    "AnswerIndex",
    "bring_forward",
    "local_existential_scope",
    "hanf_scope",
    "PATCH_LIMIT",
    "QUANT_WORK_LIMIT",
    "QUANT_EVAL_LIMIT",
    "VERDICT_CACHE_LIMIT",
]

#: Work units one patch may spend — one per qf candidate, dirty element,
#: or local witness tuple; above it recomputing through the planned
#: pipeline is the better deal.
PATCH_LIMIT = 2048

#: Hanf-tier promotion requires ``min(max_ball_size(degree, 2r), n)``
#: at most :data:`~repro.locality.bounded_degree.BALL_LIMIT` — the
#: per-element key cost bound, the same ball limit as the engine's fast
#: path — and ``n × ball_bound`` at most this, the total promotion cost.
QUANT_WORK_LIMIT = 250_000

#: At most this many representative evaluations per Hanf-tier patch.
QUANT_EVAL_LIMIT = 256

#: (key, fingerprint) → verdict entries retained per Hanf record.
VERDICT_CACHE_LIMIT = 4096

#: A stored page order is brought forward by bisection while at most
#: this many rows changed, or one row in :data:`BISECT_SHARE` of the new
#: rows, whichever is more; beyond both, one sort is cheaper.  Measured
#: in process (2-vCPU x86, CPython 3.11): a changed row costs about 5 µs
#: of bisection at 1024 rows, and one sort about 1 µs per row, so one
#: sort wins from about one changed row in 5 (the 32x32 grid's answer
#: sets) to one in 10 (random sets of 64 to 4096 rows).  Below the
#: floor, bisection costs at most about 60 µs at any size measured.
BISECT_LIMIT = 8
BISECT_SHARE = 8


# -- scope classification -----------------------------------------------------


class _QfScope:
    """Quantifier-free φ: answers are columns in sorted-name order."""

    __slots__ = ("names",)
    tier = "qf"

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names


class _LocalScope:
    """φ(x) = ∃ȳ ψ with every witness variable anchored to x."""

    __slots__ = ("name", "witnesses", "body", "depth")
    tier = "local"

    def __init__(self, name: str, witnesses: tuple[str, ...], body: Formula) -> None:
        self.name = name
        self.witnesses = witnesses
        self.body = body
        self.depth = len(witnesses)


class _HanfScope:
    """General rank-q formula with at most one free variable."""

    __slots__ = ("name", "radius", "key_radius")
    tier = "hanf"

    def __init__(self, name: str | None, radius: int, key_radius: int) -> None:
        self.name = name
        self.radius = radius
        self.key_radius = key_radius


def _anchored_pairs(formula: Formula) -> set[frozenset]:
    """Variable pairs guaranteed Gaifman-adjacent (or equal) in every
    satisfying assignment of ``formula``.

    An atom that must hold puts all its variables within distance 1 of
    each other; an equality that must hold makes its sides coincide.
    Conjunction accumulates guarantees, disjunction keeps only the pairs
    *every* branch guarantees, and anything under a negation (or other
    connective) guarantees nothing.
    """
    if isinstance(formula, Atom):
        names = {term.name for term in formula.terms if isinstance(term, Var)}
        return {frozenset(pair) for pair in itertools.combinations(sorted(names), 2)}
    if isinstance(formula, Eq):
        if isinstance(formula.left, Var) and isinstance(formula.right, Var):
            if formula.left.name != formula.right.name:
                return {frozenset({formula.left.name, formula.right.name})}
        return set()
    if isinstance(formula, And):
        pairs: set[frozenset] = set()
        for child in formula.children:
            pairs |= _anchored_pairs(child)
        return pairs
    if isinstance(formula, Or):
        if not formula.children:
            return set()
        pairs = _anchored_pairs(formula.children[0])
        for child in formula.children[1:]:
            pairs &= _anchored_pairs(child)
        return pairs
    return set()


def local_existential_scope(formula: Formula) -> _LocalScope | None:
    """Classify φ as local-existential, or ``None`` if out of fragment.

    Requires exactly one free variable x, a pure ∃-prefix over a
    quantifier-free, constant-free body, distinct witness names, and
    every witness variable connected to x in the anchored co-occurrence
    graph — which bounds every witness value to Gaifman distance ≤ k
    from x (k = number of witnesses): each edge of an anchoring path
    joins values that co-occur in a row that holds.
    """
    analysis = analyze(formula)
    if len(analysis.names) != 1:
        return None
    (name,) = analysis.names
    witnesses: list[str] = []
    body: Formula = formula
    while isinstance(body, Exists):
        witnesses.append(body.var.name)
        body = body.body
    # The body is quantifier-free iff the prefix is the whole rank, and
    # the prefix binds variables only, so the constants are the body's.
    if not witnesses or analysis.rank != len(witnesses):
        return None
    if len(set(witnesses)) != len(witnesses) or name in witnesses:
        return None
    if analysis.constants:
        return None
    adjacency: dict[str, set[str]] = {}
    for pair in _anchored_pairs(body):
        a, b = tuple(pair)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    reached = {name}
    frontier = deque([name])
    while frontier:
        for neighbor in adjacency.get(frontier.popleft(), ()):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    if not set(witnesses) <= reached:
        return None
    return _LocalScope(name, tuple(witnesses), body)


def hanf_scope(formula: Formula) -> _HanfScope | None:
    """Classify φ for the census-gated tier, or ``None``.

    Requires at most one free variable, at least one quantifier, and no
    constants (they would be unmarked named points the census cannot
    see).
    """
    from repro.locality.hanf import hanf_locality_radius

    analysis = analyze(formula)
    if analysis.rank == 0 or len(analysis.names) > 1 or analysis.constants:
        return None
    radius = hanf_locality_radius(analysis.rank + 1)
    name = analysis.names[0] if analysis.names else None
    return _HanfScope(name, radius, 2 * radius)


def _classify(formula: Formula) -> _QfScope | _LocalScope | _HanfScope | None:
    analysis = analyze(formula)
    if analysis.rank == 0:
        return _QfScope(analysis.names)
    return local_existential_scope(formula) or hanf_scope(formula)


# -- the record ---------------------------------------------------------------


class _Census:
    """A promoted Hanf record's state: every element's pointed ball key,
    the key counts and their fingerprint, and the (key, fingerprint) →
    verdict cache — whose entries are facts about *any* structure, so
    old and new censuses share it."""

    __slots__ = ("keys", "counts", "fingerprint", "verdicts")

    def __init__(self, keys: dict, counts: Counter, verdicts: dict) -> None:
        self.keys = keys
        self.counts = counts
        self.fingerprint = frozenset(counts.items())
        self.verdicts = verdicts


class _Record:
    """One answer-cache entry: ``rows`` as of ``epoch``, in the scope's tier.

    ``scope`` is ``None`` for a formula outside every tier; such a
    record, like any the engine does not maintain (a custom column
    order), is only ever a hit or a miss.
    ``census`` is ``None`` for qf and local records and for *light* Hanf
    records, which cost nothing to carry; ``promote`` is set when a
    patch fell back, and asks the recompute's :meth:`AnswerIndex.record`
    to build the census — so the O(n·ball) keying cost is paid only by
    workloads that actually update and re-query, never by one-shot
    evaluations.
    ``order`` is ``ordered`` in canonical order, and ``ordered`` is
    ``rows`` itself or the row set a patch replaced (both ``None`` until
    a page is read; see :func:`bring_forward`).  ``texts`` is each
    row's JSON text at the same index as ``order``, or ``None`` when
    nothing rendered them.
    """

    __slots__ = ("epoch", "rows", "scope", "census", "promote", "order", "ordered", "texts")

    def __init__(
        self, epoch: int, rows: frozenset, scope: _QfScope | _LocalScope | _HanfScope | None
    ) -> None:
        self.epoch = epoch
        self.rows = rows
        self.scope = scope
        self.census: _Census | None = None
        self.promote = False
        self.order: tuple | None = None
        self.ordered: frozenset | None = None
        self.texts: tuple | None = None


def bring_forward(
    order: tuple | None,
    ordered: frozenset | None,
    rows: frozenset,
    texts: tuple | None = None,
    render: Callable[[Sequence], Sequence[str]] | None = None,
) -> tuple[tuple, tuple | None]:
    """``rows`` in canonical order, from ``order``, the order of ``ordered``
    (a record's kept order; ``None`` when it has none, which sorts), and
    with ``render``, each row's text at the same index.

    ``texts`` are ``order``'s rows rendered, and move with them; only
    the added rows are rendered.  The re-sort side, and an order with no
    texts to move, render every row.  Without ``render`` no texts come
    back.  The set differences reuse the hashes both frozensets store;
    each changed row then costs one bisection (O(log n) keys) and one
    move of the tail, and none of the unchanged rows is keyed again.
    """
    if render is None:
        texts = None
    elif texts is None:
        order = None  # no texts to move: sort and render afresh
    if order is not None:
        removed, added = ordered - rows, list(rows - ordered)
        if len(removed) + len(added) <= max(BISECT_LIMIT, len(rows) // BISECT_SHARE):
            return _bisect(order, texts, removed, added, render)
    order = canonical_order(rows)
    return order, None if render is None else tuple(render(order))


def _bisect(order, texts, removed, added, render):
    """Move ``order`` and its ``texts`` (or ``None``) over the changed rows."""
    if not removed and not added:
        return order, texts
    moved = list(order)
    moved_texts = None if texts is None else list(texts)
    for row in removed:
        index = bisect_left(moved, row_key(row), key=row_key)
        while moved[index] != row:  # rows whose keys tie
            index += 1
        del moved[index]
        if moved_texts is not None:
            del moved_texts[index]
    if moved_texts is None:
        for row in added:
            insort(moved, row, key=row_key)
        return tuple(moved), None
    for row, text in zip(added, render(added)):
        index = bisect_right(moved, row_key(row), key=row_key)
        moved.insert(index, row)
        moved_texts.insert(index, text)
    return tuple(moved), tuple(moved_texts)


class _Overflow(Exception):
    """Internal: a patch exceeded its work limits; fall back, no commit."""


#: Sentinel element for sentence verdict cache entries (no free var).
_SENTENCE = "__sentence__"


class AnswerIndex:
    """The patch logic over answer records, and its counters.

    The records themselves are the engine's answer-cache entries, keyed
    by structure uid — identity, because a mutated structure changes
    content hash on every delta while its uid names the same evolving
    object.  Maintained rows are columns in sorted free-variable order,
    the only order the engine maintains.  :meth:`record` makes the entry
    for freshly computed rows; :meth:`patch` answers "this record is of
    an earlier epoch of this object — which rows may have flipped?".
    Rows are stamped with the epoch read *before* the work that produced
    them, and nothing is committed when a write lands meanwhile.
    """

    def __init__(self) -> None:
        self.patched = {"qf": 0, "local": 0, "hanf": 0}
        self.promoted = 0
        self.fallbacks = 0

    def _note_fallback(self) -> None:
        self.fallbacks += 1
        if _telemetry_enabled():
            _counter("incremental.answers.fallback").inc()

    # -- record ---------------------------------------------------------------

    def record(
        self,
        structure: Structure,
        formula: Formula,
        rows: frozenset,
        epoch: int,
        previous: _Record | None = None,
    ) -> _Record:
        """The record of ``rows`` as the answers at ``epoch``, the
        structure epoch read before they were computed.

        ``previous`` is the stale record under the same key, if any: the
        new record keeps its scope (a formula is classified once per
        key) and brings its Hanf census forward, or builds one when a
        patch asked for promotion.
        """
        scope = _classify(formula) if previous is None else previous.scope
        record = _Record(epoch, rows, scope)
        if scope is not None and scope.tier == "hanf":
            record.census = self._hanf_census(structure, previous, scope, rows)
        return record

    def _hanf_census(
        self,
        structure: Structure,
        previous: _Record | None,
        scope: _HanfScope,
        rows: frozenset,
    ) -> _Census | None:
        """The census for ``rows`` at the current epoch: the previous
        record's brought forward over the dirty set, else a fresh one when
        that record was promoted (or asked to be) and the structure is
        cheap enough to key, else ``None`` (a light record)."""
        from repro.locality.neighborhoods import ball_key

        census = None if previous is None else previous.census
        if census is not None:
            deltas = structure.deltas_since(previous.epoch)
            if deltas is None:
                return None  # the log was outrun: start light, as a new record
            dirty = dirty_set(structure, deltas, scope.key_radius)
            if len(dirty) <= PATCH_LIMIT:
                fresh, counts = rekey(
                    structure, dirty, scope.key_radius, census.keys, census.counts
                )
                census = _Census({**census.keys, **fresh}, counts, census.verdicts)
                return _seed(census, scope, rows)
        elif previous is None or not previous.promote:
            return None
        if not _promotable(structure, scope):
            return None
        self.promoted += 1
        if _telemetry_enabled():
            _counter("incremental.answers.promoted").inc()
        keys = {
            element: ball_key(structure, (element,), scope.key_radius)
            for element in structure.universe
        }
        return _seed(_Census(keys, Counter(keys.values()), {}), scope, rows)

    # -- patch ----------------------------------------------------------------

    def patch(
        self,
        structure: Structure,
        formula: Formula,
        record: _Record,
        cancel_token: CancelToken | None = None,
    ) -> frozenset | None:
        """Bring ``record`` forward to the current epoch, in place, and
        return its rows.

        Returns ``None`` when maintenance cannot apply — the record has no
        scope, the delta log has been outrun, or the work limits trip —
        and the caller recomputes (and makes a new :meth:`record`).  A
        budget expiry mid-patch raises with the record untouched (the
        commit is one block at the end).  The caller holds the
        structure's lock, which is what guards the record.
        """
        if record.scope is None:
            return None
        epoch = structure.epoch
        deltas = structure.deltas_since(record.epoch)
        if deltas is None:
            self._note_fallback()
            return None
        if not deltas:
            return record.rows
        tier = record.scope.tier
        with _span("incremental.answers.patch") as patch_span:
            patch_span.set("tier", tier).set("deltas", len(deltas))
            try:
                rows, census = _TIERS[tier](structure, formula, record, deltas, cancel_token)
            except _Overflow:
                record.promote = True
                self._note_fallback()
                return None
        fault_point("incremental.answers.commit")
        if structure.epoch != epoch:
            return rows  # a write landed mid-patch: not ``epoch``'s rows to commit
        record.rows, record.census, record.epoch = rows, census, epoch
        self.patched[tier] += 1
        if _telemetry_enabled():
            _counter("incremental.answers.patched", tier=tier).inc()
        return rows


# -- the tiers: (structure, formula, record, deltas, token) → (rows, census) --


def _step(cancel_token: CancelToken | None) -> None:
    """One unit of patch work: a budget tick and a fault point."""
    if cancel_token is not None:
        cancel_token.tick("incremental.answers")
    fault_point("incremental.answers.verify")


def _patch_qf(structure, formula, record, deltas, cancel_token):
    """Verify every candidate the deltas unify with; one unit each."""
    names = record.scope.names
    variables = tuple(Var(name) for name in names)
    rows = set(record.rows)
    for candidate in _candidates(structure, formula, names, deltas):
        _step(cancel_token)
        if naive_evaluate(structure, formula, dict(zip(variables, candidate))):
            rows.add(candidate)
        else:
            rows.discard(candidate)
    return frozenset(rows), None


def _patch_local(structure, formula, record, deltas, cancel_token):
    """Re-decide ∃ȳ ψ(a, ȳ) for every dirty a by quantifying over B_k(a).

    Sound for anchored scopes: every satisfying witness tuple lies in
    the ball (anchoring chains of held rows bound each witness to
    Gaifman distance ≤ k from a), and the body is evaluated against the
    *full* structure, so restricting only the quantifier range loses
    nothing.  Each dirty element and each witness tuple is one unit.
    """
    scope = record.scope
    dirty = dirty_set(structure, deltas, scope.depth)
    units = len(dirty)
    variables = (Var(scope.name),) + tuple(Var(name) for name in scope.witnesses)
    rows = set(record.rows)
    for element in sorted(dirty, key=_sort_key):
        _step(cancel_token)
        members = sorted(ball(structure, element, scope.depth), key=_sort_key)
        units += len(members) ** scope.depth
        if units > PATCH_LIMIT:
            raise _Overflow
        if any(
            naive_evaluate(structure, scope.body, dict(zip(variables, (element,) + combo)))
            for combo in itertools.product(members, repeat=scope.depth)
        ):
            rows.add((element,))
        else:
            rows.discard((element,))
    return frozenset(rows), None


def _patch_hanf(structure, formula, record, deltas, cancel_token):
    """Re-key the dirty set, then re-decide through the verdict cache."""
    scope, old = record.scope, record.census
    if old is None:
        raise _Overflow  # a light record: the fallback asks for promotion
    dirty = dirty_set(structure, deltas, scope.key_radius)
    if len(dirty) > PATCH_LIMIT:
        raise _Overflow
    fresh, counts = rekey(
        structure, dirty, scope.key_radius, old.keys, old.counts,
        step=lambda: _step(cancel_token),
    )
    census = _Census({**old.keys, **fresh}, counts, old.verdicts)
    evals = 0

    def verdict(element, element_key) -> bool:
        nonlocal evals
        cached = census.verdicts.get((element_key, census.fingerprint))
        if cached is not None:
            return cached
        evals += 1
        if evals > QUANT_EVAL_LIMIT:
            raise _Overflow
        _step(cancel_token)
        assignment = {} if element is _SENTENCE else {Var(scope.name): element}
        found = bool(naive_evaluate(structure, formula, assignment))
        if len(census.verdicts) >= VERDICT_CACHE_LIMIT:
            census.verdicts.clear()
        census.verdicts[(element_key, census.fingerprint)] = found
        return found

    if census.fingerprint == old.fingerprint:
        # Census unchanged: only dirty elements (whose pointed key may
        # have moved) can change verdict — and a sentence cannot.
        if scope.name is None:
            return record.rows, census
        rows, elements = set(record.rows), sorted(dirty, key=_sort_key)
    elif scope.name is None:
        return frozenset({()} if verdict(_SENTENCE, _SENTENCE) else ()), census
    else:
        # Census moved: every verdict is suspect, but the cache
        # collapses the pass to one evaluation per *new* class.  Every
        # element is re-decided; starting from the old rows keeps the
        # row objects that stay, which the record's page order holds.
        rows, elements = set(record.rows), structure.universe
    for element in elements:
        if verdict(element, census.keys[element]):
            rows.add((element,))
        else:
            rows.discard((element,))
    return frozenset(rows), census


_TIERS = {"qf": _patch_qf, "local": _patch_local, "hanf": _patch_hanf}


def _seed(census: _Census, scope: _HanfScope, rows: frozenset) -> _Census:
    """Pre-populate (key, fingerprint) → verdict from known answers.

    Within one structure, equal pointed keys imply equal verdicts (the
    verdict-transfer rule with a trivially equal census), so every
    element's known membership is a valid cache entry — the first patch
    after a toggle usually needs zero evaluations.
    """
    fingerprint, verdicts = census.fingerprint, census.verdicts
    if len(verdicts) >= VERDICT_CACHE_LIMIT:
        verdicts.clear()
    if scope.name is None:
        verdicts[(_SENTENCE, fingerprint)] = bool(rows)
    else:
        for element, key in census.keys.items():
            verdicts[(key, fingerprint)] = (element,) in rows
    return census


def _promotable(structure: Structure, scope: _HanfScope) -> bool:
    from repro.locality.bounded_degree import BALL_LIMIT
    from repro.locality.neighborhoods import max_ball_size

    size = structure.size
    bound = min(max_ball_size(structure.max_degree(), scope.key_radius), size)
    return bound <= BALL_LIMIT and size * bound <= QUANT_WORK_LIMIT


# -- quantifier-free candidates ----------------------------------------------


def _candidates(
    structure: Structure,
    formula: Formula,
    names: tuple[str, ...],
    deltas: list[tuple[str, str, tuple]],
) -> set[tuple]:
    """Every answer tuple whose membership one of the deltas may flip.

    For each delta (op, R, t) and each R-atom of the formula, unify the
    atom's terms against t; each successful unifier, extended over the
    universe on the formula's remaining free variables, is a candidate.
    Raises :class:`_Overflow` past :data:`PATCH_LIMIT` candidates.
    """
    atoms_by_relation: dict[str, list[Atom]] = {}
    for node in subformulas(formula):
        if isinstance(node, Atom):
            atoms_by_relation.setdefault(node.relation, []).append(node)
    universe = structure.universe
    candidates: set[tuple] = set()
    for _, relation, row in deltas:
        for atom in atoms_by_relation.get(relation, ()):
            binding = _unify(structure, atom, row)
            if binding is None:
                continue
            unbound = [name for name in names if name not in binding]
            growth = len(universe) ** len(unbound) if unbound else 1
            if len(candidates) + growth > PATCH_LIMIT:
                raise _Overflow
            for combo in itertools.product(universe, repeat=len(unbound)):
                env = dict(binding)
                env.update(zip(unbound, combo))
                candidates.add(tuple(env[name] for name in names))
    return candidates


def _unify(structure: Structure, atom: Atom, row: tuple) -> dict | None:
    """Match the atom's term tuple against a concrete row, or ``None``."""
    binding: dict[str, object] = {}
    for term, value in zip(atom.terms, row):
        if isinstance(term, Var):
            bound = binding.get(term.name, _MISSING)
            if bound is _MISSING:
                binding[term.name] = value
            elif bound != value:
                return None
        elif isinstance(term, Const):
            if structure.constant(term.name) != value:
                return None
        else:  # pragma: no cover - the syntax has only Var/Const terms
            raise FMTError(f"unsupported term {term!r}")
    return binding


_MISSING = object()
