"""Existential second-order logic: Fagin's theorem, demonstrated.

Fagin's theorem (the opening result of descriptive complexity, part of
the toolbox the paper surveys) says ∃SO captures NP. This module makes
the ∃SO side executable: an :class:`ESOSentence` guesses relations and
checks an FO matrix, by brute force over all interpretations — a
faithful (exponential) implementation of the "guess and verify"
semantics, with an explicit work budget.

The canonical example, 3-colorability, is provided together with an
independent backtracking solver so the two can be cross-validated.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

from repro.errors import BudgetExceededError, FormulaError
from repro.eval.evaluator import evaluate
from repro.logic.analysis import analyze
from repro.logic.parser import parse
from repro.logic.syntax import Formula
from repro.structures.gaifman import gaifman_adjacency
from repro.structures.structure import Element, Structure

__all__ = ["ESOSentence", "three_colorability_eso", "is_three_colorable"]


class ESOSentence:
    """∃R₁...∃R_k φ where φ is FO over the base signature plus the Rᵢ.

    ``guessed`` maps each guessed relation name to its arity. ``check``
    enumerates all interpretations of the guessed relations (there are
    2^(n^arity) per relation — NP's witness space) and returns whether
    some choice satisfies the matrix.
    """

    def __init__(self, guessed: Mapping[str, int], matrix: Formula) -> None:
        names = list(analyze(matrix).names)
        if names:
            raise FormulaError(f"ESO matrix must be a sentence; free: {names}")
        if not guessed:
            raise FormulaError("an ESO sentence must guess at least one relation")
        self.guessed = dict(guessed)
        self.matrix = matrix

    def witness_count(self, structure: Structure) -> int:
        """The size of the witness space on this structure (2^Σ n^arity)."""
        exponent = sum(structure.size**arity for arity in self.guessed.values())
        return 2**exponent

    def check(
        self,
        structure: Structure,
        budget: int = 1_000_000,
    ) -> dict[str, frozenset[tuple[Element, ...]]] | None:
        """Search for witness relations; return them, or ``None``.

        Raises :class:`BudgetExceededError` when the witness space
        exceeds ``budget`` candidates (the search is exhaustive).
        """
        overlap = set(self.guessed) & set(structure.signature.relations)
        if overlap:
            raise FormulaError(f"guessed relations shadow base relations: {sorted(overlap)}")
        space = self.witness_count(structure)
        if space > budget:
            raise BudgetExceededError(
                "ESO witness space too large", spent=space, budget=budget
            )
        names = sorted(self.guessed)
        all_tuples = {
            name: list(itertools.product(structure.universe, repeat=self.guessed[name]))
            for name in names
        }

        def candidates(index: int, chosen: dict[str, frozenset]):
            if index == len(names):
                yield dict(chosen)
                return
            name = names[index]
            rows = all_tuples[name]
            for size in range(len(rows) + 1):
                for subset in itertools.combinations(rows, size):
                    chosen[name] = frozenset(subset)
                    yield from candidates(index + 1, chosen)
            chosen.pop(name, None)

        extended_signature = structure.signature.extend(self.guessed)
        for witness in candidates(0, {}):
            extended = Structure(
                extended_signature,
                structure.universe,
                {**structure.relations, **witness},
                structure.constants,
            )
            if evaluate(extended, self.matrix):
                return witness
        return None

    def holds(self, structure: Structure, budget: int = 1_000_000) -> bool:
        """Whether the ∃SO sentence is true in the structure."""
        return self.check(structure, budget) is not None


def three_colorability_eso() -> ESOSentence:
    """3-colorability as an ∃SO sentence (Fagin's canonical NP example).

    Guesses three unary relations R, G, B and checks: every node has a
    color, colors are exclusive, and no Gaifman edge is monochromatic.
    """
    matrix = parse(
        "forall x ((R(x) | G(x) | B(x))"
        " & ~(R(x) & G(x)) & ~(R(x) & B(x)) & ~(G(x) & B(x)))"
        " & forall x forall y (~E(x, y) | x = y |"
        " (~(R(x) & R(y)) & ~(G(x) & G(y)) & ~(B(x) & B(y))))"
    )
    return ESOSentence({"R": 1, "G": 1, "B": 1}, matrix)


def is_three_colorable(structure: Structure) -> bool:
    """An independent 3-colorability decision (backtracking on the
    Gaifman graph), used to validate :func:`three_colorability_eso`."""
    adjacency = gaifman_adjacency(structure)
    order = sorted(structure.universe, key=lambda element: -len(adjacency[element]))
    colors: dict[Element, int] = {}

    def backtrack(index: int) -> bool:
        if index == len(order):
            return True
        node = order[index]
        for color in range(3):
            if all(colors.get(neighbor) != color for neighbor in adjacency[node]):
                colors[node] = color
                if backtrack(index + 1):
                    return True
                del colors[node]
        return False

    return backtrack(0)
