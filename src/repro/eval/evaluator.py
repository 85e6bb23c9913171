"""The naive recursive model checker and query evaluator.

This is exactly the algorithm the paper sketches for the PSPACE upper
bound: atoms are looked up in the structure, Boolean connectives apply
their truth tables, and ``∃x φ`` tries every element of the universe. Its
running time is O(n^k) for structure size n and formula size k, and it
uses O(k·log n) space — experiment E1 measures both scalings.

That exponential combined complexity is also why evaluation accepts an
optional ``cancel_token``: the recursion ticks the token once per
quantifier binding (amortized deadline checks), so even the reference
evaluator — the last rung of the resilience fallback chain — stops with
a typed :class:`~repro.errors.BudgetExceededError` instead of hanging.
With ``cancel_token=None`` (the default) the hot path pays a single
``is None`` test per binding.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import EvaluationError, FormulaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.resilience.budget import CancelToken
from repro.logic.analysis import analyze, free_variables, validate
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Term,
    Top,
    Var,
)
from repro.structures.structure import Element, Structure

__all__ = ["evaluate", "answers", "Query", "BooleanQuery", "EvaluationStats"]


@dataclass
class EvaluationStats:
    """Operation counters for complexity experiments (E1).

    ``atom_lookups`` counts atomic relation probes; ``bindings`` counts
    quantifier instantiations. Both are proxies for time that are immune
    to machine noise.
    """

    atom_lookups: int = 0
    bindings: int = 0


def _term_value(
    structure: Structure,
    term: Term,
    assignment: Mapping[Var, Element],
) -> Element:
    if isinstance(term, Var):
        try:
            return assignment[term]
        except KeyError:
            raise EvaluationError(f"free variable {term.name!r} has no binding") from None
    if isinstance(term, Const):
        return structure.constant(term.name)
    raise FormulaError(f"unknown term {term!r}")


def evaluate(
    structure: Structure,
    formula: Formula,
    assignment: Mapping[Var, Element] | None = None,
    stats: EvaluationStats | None = None,
    cancel_token: "CancelToken | None" = None,
) -> bool:
    """Decide A ⊨ φ[assignment].

    ``assignment`` must bind every free variable of ``formula``; for a
    sentence it can be omitted. Raises :class:`SignatureError` if the
    formula mentions symbols the structure's signature lacks.
    """
    validate(formula, structure.signature)
    env: dict[Var, Element] = dict(assignment or {})
    for var, value in env.items():
        if value not in structure:
            raise EvaluationError(f"assignment binds {var.name!r} to {value!r}, not in universe")
    return _eval(structure, formula, env, stats, cancel_token)


def _eval(
    structure: Structure,
    formula: Formula,
    env: dict[Var, Element],
    stats: EvaluationStats | None,
    token: "CancelToken | None" = None,
) -> bool:
    if isinstance(formula, Atom):
        if stats is not None:
            stats.atom_lookups += 1
        row = tuple(_term_value(structure, term, env) for term in formula.terms)
        return structure.holds(formula.relation, row)
    if isinstance(formula, Eq):
        if stats is not None:
            stats.atom_lookups += 1
        return _term_value(structure, formula.left, env) == _term_value(
            structure, formula.right, env
        )
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Not):
        return not _eval(structure, formula.body, env, stats, token)
    if isinstance(formula, And):
        return all(_eval(structure, child, env, stats, token) for child in formula.children)
    if isinstance(formula, Or):
        return any(_eval(structure, child, env, stats, token) for child in formula.children)
    if isinstance(formula, Implies):
        return (not _eval(structure, formula.premise, env, stats, token)) or _eval(
            structure, formula.conclusion, env, stats, token
        )
    if isinstance(formula, Iff):
        return _eval(structure, formula.left, env, stats, token) == _eval(
            structure, formula.right, env, stats, token
        )
    if isinstance(formula, (Exists, Forall)):
        want = isinstance(formula, Exists)
        shadowed = env.get(formula.var)
        had_binding = formula.var in env
        result = not want
        for value in structure.universe:
            if token is not None:
                token.tick("eval.binding")
            if stats is not None:
                stats.bindings += 1
            env[formula.var] = value
            if _eval(structure, formula.body, env, stats, token) == want:
                result = want
                break
        if had_binding:
            env[formula.var] = shadowed
        else:
            env.pop(formula.var, None)
        return result
    raise FormulaError(f"unknown formula node {formula!r}")


def answers(
    structure: Structure,
    formula: Formula,
    free_order: Sequence[Var] | None = None,
    stats: EvaluationStats | None = None,
    cancel_token: "CancelToken | None" = None,
) -> frozenset[tuple[Element, ...]]:
    """ans(φ(x̄), A): all tuples d̄ with A ⊨ φ[x̄ ↦ d̄].

    ``free_order`` fixes the column order of the answer tuples; by default
    the free variables are taken in sorted name order. For a sentence the
    result is ``{()}`` (true) or ``frozenset()`` (false), matching the
    paper's convention for Boolean queries.
    """
    validate(formula, structure.signature)
    names = analyze(formula).names
    if free_order is None:
        order = tuple(Var(name) for name in names)
    else:
        order = tuple(Var(var.name) for var in free_order)
        missing = set(names).difference(var.name for var in order)
        if missing:
            raise EvaluationError(f"free_order omits free variables {sorted(missing)}")
    result = []
    for values in itertools.product(structure.universe, repeat=len(order)):
        if cancel_token is not None:
            cancel_token.tick("eval.answers")
        env = dict(zip(order, values))
        if _eval(structure, formula, env, stats, cancel_token):
            result.append(values)
    return frozenset(result)


@dataclass(frozen=True)
class Query:
    """An m-ary query Q_φ : STRUCT(σ) → m-ary relations.

    Wraps a formula with an explicit answer-variable order; calling the
    query on a structure returns its answer set. These objects are what
    the locality tools (Gaifman, BNDP) take as input.
    """

    formula: Formula
    variables: tuple[Var, ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "variables", tuple(Var(var.name) for var in self.variables)
        )
        free = free_variables(self.formula)
        missing = free - set(self.variables)
        if missing:
            names = sorted(var.name for var in missing)
            raise FormulaError(f"query variables omit free variables {names}")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __call__(self, structure: Structure) -> frozenset[tuple[Element, ...]]:
        return answers(structure, self.formula, self.variables)

    def holds(self, structure: Structure, values: tuple[Element, ...]) -> bool:
        """Whether the specific tuple ``values`` is an answer."""
        if len(values) != len(self.variables):
            raise EvaluationError(
                f"query has arity {len(self.variables)}, got tuple of length {len(values)}"
            )
        env = dict(zip(self.variables, values))
        return evaluate(structure, self.formula, env)

    def __repr__(self) -> str:
        label = self.name or repr(self.formula)
        vars_ = ", ".join(var.name for var in self.variables)
        return f"Query[{label}]({vars_})"


@dataclass(frozen=True)
class BooleanQuery:
    """A Boolean query: a sentence, viewed as a class of structures.

    Calling it returns a ``bool``. Used by the Hanf-locality tools and
    the 0–1 law machinery.
    """

    formula: Formula
    name: str = ""

    def __post_init__(self) -> None:
        free = free_variables(self.formula)
        if free:
            names = sorted(var.name for var in free)
            raise FormulaError(f"Boolean query must be a sentence; free: {names}")

    def __call__(self, structure: Structure) -> bool:
        return evaluate(structure, self.formula)

    def __repr__(self) -> str:
        return f"BooleanQuery[{self.name or repr(self.formula)}]"
