"""Static analysis of formulas: quantifier rank, free variables, validation.

Quantifier rank (Definition on slide 41 / §3.2 of the paper) is the
nesting depth of quantifiers; it is the syntactic measure that the
Ehrenfeucht–Fraïssé theorem ties to the number of game rounds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import FormulaError, SignatureError
from repro.logic.signature import Signature
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
    Top,
    Var,
)

__all__ = [
    "Analysis",
    "analyze",
    "quantifier_rank",
    "free_variables",
    "all_variables",
    "constants_of",
    "relations_of",
    "is_sentence",
    "require_sentence",
    "formula_size",
    "formula_depth",
    "subformulas",
    "validate",
]


def quantifier_rank(formula: Formula) -> int:
    """Return the quantifier rank qr(φ): maximal quantifier nesting depth.

    >>> from repro.logic.parser import parse
    >>> quantifier_rank(parse("forall x (exists w P(x, w) & exists y exists z R(x, y, z))"))
    3
    """
    if isinstance(formula, (Atom, Eq, Top, Bottom)):
        return 0
    if isinstance(formula, Not):
        return quantifier_rank(formula.body)
    if isinstance(formula, (And, Or)):
        return max((quantifier_rank(child) for child in formula.children), default=0)
    if isinstance(formula, Implies):
        return max(quantifier_rank(formula.premise), quantifier_rank(formula.conclusion))
    if isinstance(formula, Iff):
        return max(quantifier_rank(formula.left), quantifier_rank(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return quantifier_rank(formula.body) + 1
    raise FormulaError(f"unknown formula node {formula!r}")


def free_variables(formula: Formula) -> frozenset[Var]:
    """Return the set of variables occurring free in ``formula``."""
    if isinstance(formula, Atom):
        return frozenset(term for term in formula.terms if isinstance(term, Var))
    if isinstance(formula, Eq):
        return frozenset(term for term in (formula.left, formula.right) if isinstance(term, Var))
    if isinstance(formula, (Top, Bottom)):
        return frozenset()
    if isinstance(formula, Not):
        return free_variables(formula.body)
    if isinstance(formula, (And, Or)):
        result: frozenset[Var] = frozenset()
        for child in formula.children:
            result |= free_variables(child)
        return result
    if isinstance(formula, Implies):
        return free_variables(formula.premise) | free_variables(formula.conclusion)
    if isinstance(formula, Iff):
        return free_variables(formula.left) | free_variables(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_variables(formula.body) - {formula.var}
    raise FormulaError(f"unknown formula node {formula!r}")


def all_variables(formula: Formula) -> frozenset[Var]:
    """Return every variable occurring in ``formula``, free or bound."""
    result: set[Var] = set()
    for node in subformulas(formula):
        if isinstance(node, Atom):
            result.update(term for term in node.terms if isinstance(term, Var))
        elif isinstance(node, Eq):
            result.update(term for term in (node.left, node.right) if isinstance(term, Var))
        elif isinstance(node, (Exists, Forall)):
            result.add(node.var)
    return frozenset(result)


def constants_of(formula: Formula) -> frozenset[str]:
    """Return the names of all constant symbols occurring in ``formula``."""
    result: set[str] = set()
    for node in subformulas(formula):
        if isinstance(node, Atom):
            result.update(term.name for term in node.terms if isinstance(term, Const))
        elif isinstance(node, Eq):
            result.update(
                term.name for term in (node.left, node.right) if isinstance(term, Const)
            )
    return frozenset(result)


def relations_of(formula: Formula) -> frozenset[str]:
    """Return the names of all relation symbols occurring in ``formula``."""
    return frozenset(
        node.relation for node in subformulas(formula) if isinstance(node, Atom)
    )


def is_sentence(formula: Formula) -> bool:
    """Whether ``formula`` has no free variables (i.e. is a Boolean query)."""
    return not free_variables(formula)


def require_sentence(formula: Formula) -> Formula:
    """Return ``formula`` unchanged, raising if it has free variables."""
    names = list(analyze(formula).names)
    if names:
        raise FormulaError(f"expected a sentence, but variables {names} occur free")
    return formula


def formula_size(formula: Formula) -> int:
    """Number of AST nodes — the ``k`` in the O(n^k) evaluation bound."""
    return sum(1 for _ in subformulas(formula))


def formula_depth(formula: Formula) -> int:
    """Height of the AST (atoms have depth 1).

    The AC⁰ circuit compiled from a query has depth bounded by this value,
    independently of the structure it is evaluated on — that is experiment
    E2's measured claim.
    """
    if isinstance(formula, (Atom, Eq, Top, Bottom)):
        return 1
    if isinstance(formula, Not):
        return 1 + formula_depth(formula.body)
    if isinstance(formula, (And, Or)):
        return 1 + max((formula_depth(child) for child in formula.children), default=0)
    if isinstance(formula, Implies):
        return 1 + max(formula_depth(formula.premise), formula_depth(formula.conclusion))
    if isinstance(formula, Iff):
        return 1 + max(formula_depth(formula.left), formula_depth(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return 1 + formula_depth(formula.body)
    raise FormulaError(f"unknown formula node {formula!r}")


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield every subformula of ``formula`` (including itself), preorder."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.body)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, Implies):
            stack.append(node.premise)
            stack.append(node.conclusion)
        elif isinstance(node, Iff):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Exists, Forall)):
            stack.append(node.body)


@dataclass(frozen=True)
class Analysis:
    """What a formula fixes before it meets a structure: ``names``, its
    free variables sorted (every evaluator's answer-column order);
    ``rank``, qr(φ); ``constants``, as :func:`constants_of`; ``atoms``,
    the first atom of each (relation, arity) in :func:`subformulas`
    order, all :func:`validate` checks (later ones fail with the first).
    """

    names: tuple[str, ...]
    rank: int
    constants: frozenset[str]
    atoms: tuple[Atom, ...]


def analyze(formula: Formula) -> Analysis:
    """The :class:`Analysis` of ``formula``, walked on the first call
    only and kept on the node (equality and hashing ignore it), so it
    lives as long as the formula and no store keyed by formulas grows."""
    record = formula.__dict__.get("_analysis")
    if record is None:
        atoms: dict[tuple[str, int], Atom] = {}
        for node in subformulas(formula):
            if isinstance(node, Atom):
                atoms.setdefault((node.relation, len(node.terms)), node)
        record = Analysis(
            names=tuple(sorted(var.name for var in free_variables(formula))),
            rank=quantifier_rank(formula),
            constants=constants_of(formula),
            atoms=tuple(atoms.values()),
        )
        object.__setattr__(formula, "_analysis", record)
    return record


def validate(formula: Formula, signature: Signature) -> None:
    """Check that ``formula`` is well-formed over ``signature``.

    Verifies, on the :func:`analyze` record, that every atom uses a
    declared relation at the declared arity and that every constant is
    declared. Raises :class:`SignatureError` on the first violation.
    """
    record = analyze(formula)
    for atom in record.atoms:
        arity = signature.arity(atom.relation)
        if len(atom.terms) != arity:
            raise SignatureError(
                f"atom {atom!r} has {len(atom.terms)} arguments, "
                f"but {atom.relation!r} has arity {arity}"
            )
    for name in record.constants:
        if not signature.has_constant(name):
            raise SignatureError(f"constant {name!r} is not declared in {signature!r}")
