"""Abstract syntax of first-order logic over relational signatures.

The AST is a small family of frozen dataclasses. Formulas are immutable
and hashable, so they can be memoization keys (the evaluator and the game
machinery rely on this). Connectives ``And``/``Or`` are n-ary, which keeps
the enormous conjunctions produced by Hintikka formulas shallow.

The public constructors perform light validation only; semantic questions
(does an atom match the signature's arity?) are checked when a formula
meets a structure, by :func:`repro.logic.analysis.validate`.

A node computes its hash once and keeps it (equality ignores it), as
:func:`repro.logic.analysis.analyze` keeps its record: a formula keys
the engine's caches, and re-hashing the whole tree on every lookup
would cost time linear in its size.  The kept hash is not pickled or
copied, because string hashes differ between processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import FormulaError

__all__ = [
    "Term",
    "Var",
    "Const",
    "Formula",
    "Atom",
    "Eq",
    "Top",
    "Bottom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "TRUE",
    "FALSE",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A first-order variable, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise FormulaError(f"variable name must be a non-empty string, got {self.name!r}")

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant symbol (interpreted by structures as a fixed element)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise FormulaError(f"constant name must be a non-empty string, got {self.name!r}")

    def __repr__(self) -> str:
        return f"!{self.name}"


Term = Union[Var, Const]


def _check_term(term: object, where: str) -> None:
    if not isinstance(term, (Var, Const)):
        raise FormulaError(f"{where} expects Var/Const terms, got {term!r}")


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class of all formula AST nodes.

    Provides operator sugar so formulas compose readably::

        Atom("E", (x, y)) & ~Eq(x, y)
    """

    __slots__ = ()

    def __and__(self, other: "Formula") -> "And":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Implies":
        return Implies(self, other)

    def __getstate__(self) -> dict:
        # Pickles and copies drop the kept hash: another process hashes
        # the node's strings differently.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def _check_formula(child: object, where: str) -> None:
    if not isinstance(child, Formula):
        raise FormulaError(f"{where} expects Formula children, got {child!r}")


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    """A relational atom ``R(t1, ..., tn)``."""

    relation: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.relation or not isinstance(self.relation, str):
            raise FormulaError(f"relation name must be a non-empty string, got {self.relation!r}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            _check_term(term, f"Atom({self.relation})")

    def __repr__(self) -> str:
        return f"{self.relation}({', '.join(map(repr, self.terms))})"


@dataclass(frozen=True, repr=False)
class Eq(Formula):
    """The equality atom ``t1 = t2`` (identity is always available)."""

    left: Term
    right: Term

    def __post_init__(self) -> None:
        _check_term(self.left, "Eq")
        _check_term(self.right, "Eq")

    def __repr__(self) -> str:
        return f"{self.left!r} = {self.right!r}"


@dataclass(frozen=True, repr=False)
class Top(Formula):
    """The true constant ⊤ (the empty conjunction)."""

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    """The false constant ⊥ (the empty disjunction)."""

    def __repr__(self) -> str:
        return "false"


#: Canonical instances — `Top()`/`Bottom()` compare equal to these anyway.
TRUE = Top()
FALSE = Bottom()


@dataclass(frozen=True, repr=False)
class Not(Formula):
    """Negation ``¬φ``."""

    body: Formula

    def __post_init__(self) -> None:
        _check_formula(self.body, "Not")

    def __repr__(self) -> str:
        return f"~({self.body!r})"


@dataclass(frozen=True, repr=False)
class And(Formula):
    """N-ary conjunction. ``And(())`` is equivalent to ⊤."""

    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        for child in self.children:
            _check_formula(child, "And")

    def __repr__(self) -> str:
        if not self.children:
            return "true"
        return "(" + " & ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True, repr=False)
class Or(Formula):
    """N-ary disjunction. ``Or(())`` is equivalent to ⊥."""

    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        for child in self.children:
            _check_formula(child, "Or")

    def __repr__(self) -> str:
        if not self.children:
            return "false"
        return "(" + " | ".join(map(repr, self.children)) + ")"


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    """Implication ``φ → ψ``."""

    premise: Formula
    conclusion: Formula

    def __post_init__(self) -> None:
        _check_formula(self.premise, "Implies")
        _check_formula(self.conclusion, "Implies")

    def __repr__(self) -> str:
        return f"({self.premise!r} -> {self.conclusion!r})"


@dataclass(frozen=True, repr=False)
class Iff(Formula):
    """Biconditional ``φ ↔ ψ``."""

    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        _check_formula(self.left, "Iff")
        _check_formula(self.right, "Iff")

    def __repr__(self) -> str:
        return f"({self.left!r} <-> {self.right!r})"


@dataclass(frozen=True, repr=False)
class Exists(Formula):
    """Existential quantification ``∃x φ``."""

    var: Var
    body: Formula

    def __post_init__(self) -> None:
        if not isinstance(self.var, Var):
            raise FormulaError(f"Exists binds a Var, got {self.var!r}")
        _check_formula(self.body, "Exists")

    def __repr__(self) -> str:
        return f"exists {self.var!r}. ({self.body!r})"


@dataclass(frozen=True, repr=False)
class Forall(Formula):
    """Universal quantification ``∀x φ``."""

    var: Var
    body: Formula

    def __post_init__(self) -> None:
        if not isinstance(self.var, Var):
            raise FormulaError(f"Forall binds a Var, got {self.var!r}")
        _check_formula(self.body, "Forall")

    def __repr__(self) -> str:
        return f"forall {self.var!r}. ({self.body!r})"


def _kept_hash(self: Formula) -> int:
    """The dataclass hash of the node's fields, computed on the first
    call and kept on the node, so the value (and every set and dict
    order it decides) is the one the dataclass would compute."""
    value = self.__dict__.get("_hash")
    if value is None:
        value = self._field_hash()
        object.__setattr__(self, "_hash", value)
    return value


for _node in (Atom, Eq, Top, Bottom, Not, And, Or, Implies, Iff, Exists, Forall):
    _node._field_hash = _node.__hash__
    _node.__hash__ = _kept_hash
del _node
