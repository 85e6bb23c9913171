"""Structures with order and order-invariant queries (§3.6 of the paper).

Databases usually live over ordered domains, so the right notion of FO
definability is *order-invariant* FO: a sentence over σ ∪ {<} whose
truth value does not depend on which linear order expands the structure.
This module provides

* :func:`expand_with_order` — expand a σ-structure with a chosen linear
  order on its universe;
* :func:`order_invariance_counterexample` — search for two orders on
  which a sentence disagrees (exhaustive for small universes, sampled
  beyond a factorial cutoff);
* :func:`is_order_invariant_on` — the corresponding decision on a
  structure family;
* :func:`evaluate_invariant` — evaluate an (asserted) order-invariant
  sentence by picking an arbitrary order, with optional verification.

The paper's point (Grohe–Schwentick, Benedikt–Segoufin) is that
order-invariant FO *stays Gaifman-local*, so the locality toolbox keeps
working over ordered databases; experiment-level checks of this live in
the test suite.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence

from repro.errors import FMTError, FormulaError
from repro.eval.evaluator import evaluate
from repro.logic.analysis import analyze
from repro.logic.syntax import Formula
from repro.structures.structure import Element, Structure

__all__ = [
    "expand_with_order",
    "all_order_expansions",
    "order_invariance_counterexample",
    "is_order_invariant_on",
    "evaluate_invariant",
]

#: Above this universe size, exhaustive enumeration of the n! orders is
#: replaced by random sampling.
_EXHAUSTIVE_CUTOFF = 6


def expand_with_order(
    structure: Structure,
    ordering: Sequence[Element],
    relation: str = "<",
) -> Structure:
    """Expand a structure with the strict linear order given by ``ordering``.

    ``ordering`` must be a permutation of the universe; the new binary
    relation ``<`` holds between x and y iff x precedes y in it.
    """
    if structure.signature.has_relation(relation):
        raise FMTError(f"structure already interprets {relation!r}")
    if sorted(map(repr, ordering)) != sorted(map(repr, structure.universe)):
        raise FMTError("ordering must be a permutation of the universe")
    position = {element: index for index, element in enumerate(ordering)}
    pairs = [
        (a, b)
        for a in structure.universe
        for b in structure.universe
        if position[a] < position[b]
    ]
    return structure.with_relation(relation, 2, pairs)


def all_order_expansions(
    structure: Structure,
    relation: str = "<",
    sample: int | None = None,
    seed: int = 0,
) -> Iterable[Structure]:
    """Yield expansions of the structure by linear orders.

    All n! of them when the universe is small (or ``sample`` is None and
    n ≤ the exhaustive cutoff); otherwise ``sample`` random ones.
    """
    universe = list(structure.universe)
    if sample is None and len(universe) <= _EXHAUSTIVE_CUTOFF:
        for ordering in itertools.permutations(universe):
            yield expand_with_order(structure, ordering, relation)
        return
    count = sample if sample is not None else 24
    rng = random.Random(seed)
    for _ in range(count):
        ordering = universe[:]
        rng.shuffle(ordering)
        yield expand_with_order(structure, ordering, relation)


def order_invariance_counterexample(
    sentence: Formula,
    structure: Structure,
    relation: str = "<",
    sample: int | None = None,
    seed: int = 0,
) -> tuple[Structure, Structure] | None:
    """Two order-expansions of ``structure`` on which ``sentence`` disagrees.

    Returns ``None`` when no disagreement is found — a *proof* of
    invariance on this structure when the universe is small enough for
    exhaustive enumeration, and strong evidence otherwise.
    """
    names = list(analyze(sentence).names)
    if names:
        raise FormulaError(f"order invariance concerns sentences; free: {names}")
    witness_true: Structure | None = None
    witness_false: Structure | None = None
    for expansion in all_order_expansions(structure, relation, sample, seed):
        if evaluate(expansion, sentence):
            witness_true = witness_true or expansion
        else:
            witness_false = witness_false or expansion
        if witness_true is not None and witness_false is not None:
            return witness_true, witness_false
    return None


def is_order_invariant_on(
    sentence: Formula,
    structures: Iterable[Structure],
    relation: str = "<",
    sample: int | None = None,
    seed: int = 0,
) -> bool:
    """Whether the sentence is order-invariant on every given structure."""
    return all(
        order_invariance_counterexample(sentence, structure, relation, sample, seed) is None
        for structure in structures
    )


def evaluate_invariant(
    sentence: Formula,
    structure: Structure,
    relation: str = "<",
    verify: bool = False,
    seed: int = 0,
) -> bool:
    """Evaluate an order-invariant sentence on an *unordered* structure.

    Picks the canonical (universe-sorted) order. With ``verify=True``
    the invariance is first checked (exhaustively or by sampling) and
    :class:`FMTError` is raised if a disagreeing pair of orders exists —
    the semantics would otherwise be ill-defined.
    """
    if verify:
        counterexample = order_invariance_counterexample(
            sentence, structure, relation, seed=seed
        )
        if counterexample is not None:
            raise FMTError(
                "sentence is not order-invariant on this structure: "
                "two orders give different truth values"
            )
    expansion = expand_with_order(structure, structure.universe, relation)
    return evaluate(expansion, sentence)
