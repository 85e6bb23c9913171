"""Deciding the almost-sure truth value: μ(φ) ∈ {0, 1}, exactly.

The 0–1 law says every FO sentence φ has μ(φ) = lim μ_n(φ) ∈ {0, 1}.
The proof gives an effective decision procedure: the extension axioms
axiomatize a complete "almost-sure theory", so μ(φ) = 1 iff φ holds in
the countable *generic* structure (the Rado-graph analogue for the
signature).

:func:`decide_almost_sure` model-checks φ against the generic structure
symbolically. The key observation: in a model of all extension axioms,
an existential quantifier has a witness for *every* consistent
description of how a new element relates to the ones already named. So
∃x ψ is evaluated by branching over (a) equality with an already-named
element, and (b) every truth assignment to the atoms that involve the
fresh element; ∀x ψ is the dual. No witness structure is materialized —
the procedure is exact and fast for quantifier rank ≤ 4 (the branching
grows doubly exponentially with rank).

:func:`decide_via_witness` is the finite counterpart: evaluate φ on a
finite structure satisfying EA_{qr(φ)−1}; the transfer lemma (tested via
the EF solver) makes this agree with the symbolic route.
"""

from __future__ import annotations

import itertools

from repro.errors import FMTError, FormulaError
from repro.eval.evaluator import evaluate
from repro.logic.analysis import free_variables, quantifier_rank, validate
from repro.logic.signature import Signature
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
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
from repro.structures.structure import Structure
from repro.zero_one.extension_axioms import find_extension_witness
from repro.zero_one.random_structures import MuEstimate, mu_estimate

__all__ = [
    "decide_almost_sure",
    "mu_limit",
    "decide_via_witness",
    "mu_estimate_sentence",
]


def mu_estimate_sentence(
    sentence: Formula,
    signature: Signature,
    n: int,
    samples: int = 200,
    seed: int = 0,
) -> MuEstimate:
    """Monte-Carlo μ_n(φ) for an FO sentence.

    The empirical companion to :func:`decide_almost_sure` (E12): the
    estimates converge to the almost-sure truth value as n grows.
    Seeds are per sample index, as in
    :func:`~repro.zero_one.random_structures.mu_estimate`.
    """
    free = free_variables(sentence)
    if free:
        names = sorted(var.name for var in free)
        raise FormulaError(f"μ is defined for sentences; free variables: {names}")
    validate(sentence, signature)
    return mu_estimate(
        lambda structure: evaluate(structure, sentence), signature, n, samples, seed
    )


def decide_almost_sure(sentence: Formula, signature: Signature) -> bool:
    """Whether μ(sentence) = 1 (else, by the 0–1 law, μ = 0).

    Exact symbolic model checking against the generic structure of the
    signature. The signature must be purely relational (the 0–1 law
    requires this — the slides stress "here it is important that the
    signature is relational").
    """
    if signature.constants:
        raise FMTError("the 0-1 law requires a purely relational signature")
    free = free_variables(sentence)
    if free:
        names = sorted(var.name for var in free)
        raise FormulaError(f"μ is defined for sentences; free variables: {names}")
    validate(sentence, signature)

    relation_names = signature.relation_names()
    arities = {name: signature.arity(name) for name in relation_names}

    def new_atoms(count: int) -> list[tuple[str, tuple[int, ...]]]:
        """Atom patterns over elements 0..count that involve element `count`."""
        patterns = []
        for name in relation_names:
            for positions in itertools.product(range(count + 1), repeat=arities[name]):
                if count in positions:
                    patterns.append((name, positions))
        return patterns

    def holds(
        node: Formula,
        env: dict[Var, int],
        count: int,
        facts: dict[tuple[str, tuple[int, ...]], bool],
    ) -> bool:
        if isinstance(node, Atom):
            row = tuple(env[term] for term in node.terms)  # type: ignore[index]
            return facts[(node.relation, row)]
        if isinstance(node, Eq):
            return env[node.left] == env[node.right]  # type: ignore[index]
        if isinstance(node, Top):
            return True
        if isinstance(node, Bottom):
            return False
        if isinstance(node, Not):
            return not holds(node.body, env, count, facts)
        if isinstance(node, And):
            return all(holds(child, env, count, facts) for child in node.children)
        if isinstance(node, Or):
            return any(holds(child, env, count, facts) for child in node.children)
        if isinstance(node, Implies):
            return (not holds(node.premise, env, count, facts)) or holds(
                node.conclusion, env, count, facts
            )
        if isinstance(node, Iff):
            return holds(node.left, env, count, facts) == holds(
                node.right, env, count, facts
            )
        if isinstance(node, (Exists, Forall)):
            want = isinstance(node, Exists)
            # (a) the quantified element equals an already-named one;
            for existing in range(count):
                child_env = dict(env)
                child_env[node.var] = existing
                if holds(node.body, child_env, count, facts) == want:
                    return want
            # (b) a fresh generic element, for every consistent
            #     description of its atoms (all realized, by the
            #     extension axioms).
            patterns = new_atoms(count)
            child_env = dict(env)
            child_env[node.var] = count
            for bits in itertools.product((False, True), repeat=len(patterns)):
                extended = dict(facts)
                extended.update(zip(patterns, bits))
                if holds(node.body, child_env, count + 1, extended) == want:
                    return want
            return not want
        raise FormulaError(f"unknown formula node {node!r}")

    return holds(sentence, {}, 0, {})


def mu_limit(sentence: Formula, signature: Signature) -> int:
    """μ(sentence) as an integer 0 or 1."""
    return 1 if decide_almost_sure(sentence, signature) else 0


def decide_via_witness(
    sentence: Formula,
    signature: Signature,
    witness: Structure | None = None,
    seed: int = 0,
) -> bool:
    """Decide μ(sentence) by evaluating on a finite extension-axiom witness.

    A structure satisfying EA_k for k = qr(sentence) − 1 agrees with the
    generic structure on all sentences of rank ≤ qr(sentence) (transfer
    via the EF game: the duplicator answers each round using an
    extension axiom). If ``witness`` is omitted one is searched for —
    feasible for quantifier rank ≤ 2 over graphs; beyond that, pass a
    pre-verified witness or use :func:`decide_almost_sure`.
    """
    rank = quantifier_rank(sentence)
    if witness is None:
        witness = find_extension_witness(signature, max(rank - 1, 0), seed=seed)
    return evaluate(witness, sentence)
