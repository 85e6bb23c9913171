"""Constant-delay answer enumeration, after Kazana–Segoufin (1105.3583).

The enumeration contract: a *preprocessing* phase whose cost may depend
on the structure, then answers are produced one at a time with a delay
that does not grow with the answer count.  :class:`AnswerStream` wraps a
generator and measures exactly that — ``preprocessing_seconds`` once and
``delays`` per ``next()`` — so tests and benchmarks assert the shape of
the guarantee instead of trusting it.

Three strategies, tried in order by :func:`plan_enumeration`:

* ``atom`` — the query is a single atom over distinct variables: stream
  the relation's rows (reordered to sorted-variable columns).  O(1)
  delay, no evaluation at all.
* ``types`` — one or two free variables on a bounded-degree,
  constant-free structure: Gaifman locality says ā ↦ φ(ā) is constant
  on each radius-``(7^qr − 1)/2`` neighborhood isomorphism type, so
  preprocessing partitions by ball key and evaluates *one
  representative per class*; enumeration then streams the members of
  the satisfying classes.  Linear preprocessing, O(1) delay — the
  Kazana–Segoufin shape realized through the census machinery.

  For two free variables the n² pairs are never keyed individually.
  Preprocessing splits pairs into *near* (Gaifman distance ≤ 2r+1,
  at most ``n · |B_{2r+1}|`` of them, keyed and decided pairwise) and
  *far* (radius-r balls disjoint, so the joint neighborhood is the
  disjoint union of the point neighborhoods and the verdict is a
  function of the ordered pair of *point* types — one representative
  evaluation per type pair).  Enumeration of a far class streams
  members of the target point class skipping the ≤ ``|B_{2r+1}|``
  near elements, so the delay stays bounded by the ball size, not n.

Every stream pins the structure's epoch at planning time.  An
``insert``/``delete`` invalidates the preprocessing the constant-delay
guarantee rests on, so a subsequent ``next()`` raises
:class:`~repro.errors.StaleStreamError` instead of yielding answers
for a structure that no longer exists — in every mode, including
``materialized`` (a snapshot taken before the update would silently
mix epochs for consumers that interleave reads with writes).
* ``materialized`` — everything else: compute the full answer set
  through the engine (planned, cached, budgeted) and stream it.  The
  fallback keeps :meth:`Engine.enumerate` total.

Every yielded answer charges one row against the caller's
:class:`~repro.resilience.budget.CancelToken`, so a consumer that stops
after k answers spends k rows of budget — full evaluation under the same
budget might be refused outright.  Preprocessing ticks the deadline but
charges no rows.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from repro.errors import StaleStreamError
from repro.eval.evaluator import evaluate as naive_evaluate
from repro.logic.analysis import analyze
from repro.logic.syntax import Atom, Formula, Var
from repro.resilience.budget import CancelToken
from repro.structures.structure import Structure, _sort_key
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.metrics import histogram as _histogram
from repro.telemetry.tracer import is_enabled as _telemetry_enabled
from repro.telemetry.tracer import span as _span

__all__ = ["AnswerStream", "plan_enumeration"]


class AnswerStream:
    """A lazy answer iterator with measured per-answer delay.

    Attributes
    ----------
    mode:
        Which strategy produced the stream (``atom`` / ``types`` /
        ``materialized``).
    free_names:
        The answer columns, in sorted-variable order.
    preprocessing_seconds:
        Wall-clock spent before the first answer could be produced.
    delays:
        Seconds spent inside each completed ``next()`` call so far.
    epoch:
        The structure epoch the stream was planned against.  ``next()``
        raises :class:`~repro.errors.StaleStreamError` once the
        structure has moved past it.
    """

    def __init__(
        self,
        iterator: Iterator[tuple],
        mode: str,
        free_names: tuple[str, ...],
        preprocessing_seconds: float,
        structure: Structure | None = None,
    ) -> None:
        self._iterator = iterator
        self.mode = mode
        self.free_names = free_names
        self.preprocessing_seconds = preprocessing_seconds
        self.delays: list[float] = []
        self._structure = structure
        self.epoch = structure.epoch if structure is not None else 0

    def __iter__(self) -> "AnswerStream":
        return self

    def __next__(self) -> tuple:
        structure = self._structure
        if structure is not None and structure.epoch != self.epoch:
            if _telemetry_enabled():
                _counter("incremental.enumerate.stale").inc()
            raise StaleStreamError(self.epoch, structure.epoch)
        started = time.perf_counter()
        value = next(self._iterator)
        delay = time.perf_counter() - started
        self.delays.append(delay)
        if _telemetry_enabled():
            _histogram("incremental.enumerate.delay_ms").observe(delay * 1000.0)
        return value


def plan_enumeration(
    engine,
    structure: Structure,
    formula: Formula,
    cancel_token: CancelToken | None,
) -> AnswerStream:
    """Choose a strategy and build the stream (see module docstring)."""
    free_names = analyze(formula).names
    started = time.perf_counter()
    with _span("incremental.enumerate.preprocess") as prep_span:
        mode, iterator = _build(engine, structure, formula, free_names, cancel_token)
        prep_span.set("mode", mode)
    preprocessing = time.perf_counter() - started
    if _telemetry_enabled():
        _counter("incremental.enumerate.streams", mode=mode).inc()
    return AnswerStream(iterator, mode, free_names, preprocessing, structure)


def _build(
    engine,
    structure: Structure,
    formula: Formula,
    free_names: tuple[str, ...],
    token: CancelToken | None,
) -> tuple[str, Iterator[tuple]]:
    if _atom_streamable(formula):
        order = sorted(range(len(formula.terms)), key=lambda i: formula.terms[i].name)
        rows = sorted(structure.tuples(formula.relation), key=repr)
        return "atom", _stream(
            (tuple(row[i] for i in order) for row in rows), token
        )
    if _types_applicable(structure, formula, free_names):
        if len(free_names) == 1:
            satisfying = _types_preprocess(
                engine, structure, formula, free_names, token
            )
            return "types", _stream(((element,) for element in satisfying), token)
        pairs = _pair_types_preprocess(structure, formula, free_names, token)
        return "types", _stream(pairs, token)
    rows = engine.answers(structure, formula, budget=token)
    # The full set is already charged to the budget by the engine; stream
    # it in the canonical order its answer record keeps, without
    # re-charging.
    order, _ = engine.page_order(structure, formula, rows)
    return "materialized", iter(order)


def _stream(values, token: CancelToken | None) -> Iterator[tuple]:
    for value in values:
        if token is not None:
            token.consume_rows(1, "engine.enumerate")
        yield value


def _atom_streamable(formula: Formula) -> bool:
    """A single atom over pairwise-distinct variables streams as-is."""
    if not isinstance(formula, Atom):
        return False
    names = [term.name for term in formula.terms if isinstance(term, Var)]
    return len(names) == len(formula.terms) and len(set(names)) == len(names)


def _types_applicable(
    structure: Structure, formula: Formula, free_names: tuple[str, ...]
) -> bool:
    from repro.locality.bounded_degree import BALL_LIMIT, DEGREE_BOUND
    from repro.locality.neighborhoods import max_ball_size

    if len(free_names) not in (1, 2) or structure.constants:
        return False
    degree = structure.max_degree()
    if degree > DEGREE_BOUND:
        return False
    radius = _types_radius(formula)
    if len(free_names) == 2:
        # The pair decomposition keys near pairs at the joint radius and
        # skips up to |B_{2r+1}(a)| elements per far yield, so the
        # *separation* ball is what must stay constant-sized.
        radius = 2 * radius + 1
    return max_ball_size(degree, radius) <= BALL_LIMIT


def _types_radius(formula: Formula) -> int:
    from repro.locality.gaifman_locality import gaifman_locality_radius

    return gaifman_locality_radius(analyze(formula).rank)


def _types_preprocess(
    engine,
    structure: Structure,
    formula: Formula,
    free_names: tuple[str, ...],
    token: CancelToken | None,
) -> list:
    """Partition by neighborhood type; evaluate one representative each.

    Gaifman's theorem: an FO formula φ(x) of quantifier rank q cannot
    distinguish elements whose radius-``(7^q − 1)/2`` neighborhoods are
    isomorphic, and equal ball keys certify exactly that isomorphism.
    On bounded-degree structures the number of classes is independent of
    n, so the per-class evaluations are a constant number of calls.
    """
    from repro.locality.neighborhoods import ball_key

    radius = _types_radius(formula)
    variable = Var(free_names[0])
    classes: dict[tuple, list] = {}
    for element in structure.universe:
        if token is not None:
            token.tick("engine.enumerate")
        classes.setdefault(ball_key(structure, (element,), radius), []).append(element)
    satisfying: list = []
    for key in sorted(classes, key=repr):
        members = classes[key]
        if token is not None:
            token.tick("engine.enumerate")
        if naive_evaluate(structure, formula, {variable: members[0]}):
            satisfying.extend(members)
    satisfying.sort(key=_sort_key)
    return satisfying


def _pair_types_preprocess(
    structure: Structure,
    formula: Formula,
    free_names: tuple[str, ...],
    token: CancelToken | None,
) -> Iterator[tuple]:
    """Tuple-type enumeration for two free variables (near/far split).

    Let r be the Gaifman locality radius of φ(x, y).  A pair (a, b) is
    *near* when b ∈ B_{2r+1}(a) — there are at most n·|B_{2r+1}| of
    those, and each is keyed by the iso type of its joint radius-r
    neighborhood, one representative evaluation per type.  Otherwise the
    pair is *far*: B_r(a) and B_r(b) are disjoint with no Gaifman edge
    between them, so N_r(a, b) is the disjoint union N_r(a) ⊔ N_r(b)
    and the verdict depends only on the ordered pair of *point* types —
    decided once per type pair on any far representative.  Streaming a
    far class skips the ≤ |B_{2r+1}(a)| near elements of the target
    class, keeping the delay bounded by the ball size, never by n.
    """
    from repro.locality.neighborhoods import ball_key
    from repro.structures.gaifman import ball

    radius = _types_radius(formula)
    separation = 2 * radius + 1
    x, y = Var(free_names[0]), Var(free_names[1])
    universe = sorted(structure.universe, key=_sort_key)

    point_key: dict = {}
    members: dict[tuple, list] = {}
    near: dict = {}
    for element in universe:
        if token is not None:
            token.tick("engine.enumerate")
        key = ball_key(structure, (element,), radius)
        point_key[element] = key
        members.setdefault(key, []).append(element)
        near[element] = ball(structure, element, separation)

    near_verdict: dict[tuple, bool] = {}
    near_sat: dict = {}
    for a in universe:
        sat = near_sat[a] = []
        for b in sorted(near[a], key=_sort_key):
            if token is not None:
                token.tick("engine.enumerate")
            key = ball_key(structure, (a, b), radius)
            verdict = near_verdict.get(key)
            if verdict is None:
                verdict = bool(naive_evaluate(structure, formula, {x: a, y: b}))
                near_verdict[key] = verdict
            if verdict:
                sat.append(b)

    # One far representative per ordered type pair; a pair of classes
    # whose members are all mutually near contributes no far answers.
    far_true: dict[tuple, list] = {key: [] for key in members}
    for k1 in sorted(members, key=repr):
        for k2 in sorted(members, key=repr):
            representative = None
            for a in members[k1]:
                if token is not None:
                    token.tick("engine.enumerate")
                ball_a = near[a]
                for b in members[k2]:
                    if b not in ball_a:
                        representative = (a, b)
                        break
                if representative is not None:
                    break
            if representative is not None and naive_evaluate(
                structure, formula, {x: representative[0], y: representative[1]}
            ):
                far_true[k1].append(k2)

    def generate() -> Iterator[tuple]:
        for a in universe:
            for b in near_sat[a]:
                yield (a, b)
            ball_a = near[a]
            for k2 in far_true[point_key[a]]:
                for b in members[k2]:
                    if b not in ball_a:
                        yield (a, b)

    return generate()
