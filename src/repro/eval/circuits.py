"""The AC⁰ data-complexity construction, made executable.

The paper (after Abiteboul–Hull–Vianu) proves FO ⊆ AC⁰ by compiling a
fixed query φ over schema σ into a family of Boolean circuits, one per
domain size n:

* one *input* per possible ground atom R(d̄), d̄ ∈ [n]^arity;
* a gate per subexpression, with ∧/∨/¬ becoming the corresponding gates;
* ∃ becoming an unbounded fan-in OR over the n instantiations, ∀ an AND.

This module builds those circuits concretely (with hash-consing so shared
subcircuits are represented once), evaluates them against structures, and
reports size and depth — experiment E2 measures that depth is constant in
n while size grows polynomially, which is the AC⁰ claim.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import EvaluationError, FormulaError
from repro.logic.analysis import analyze, validate
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
    Term,
    Top,
    Var,
)
from repro.structures.structure import Structure

__all__ = ["Gate", "Circuit", "compile_query", "evaluate_circuit", "circuit_stats"]

_INPUT = "input"
_CONST = "const"
_NOT = "not"
_AND = "and"
_OR = "or"


@dataclass(frozen=True)
class Gate:
    """One gate: an input, a constant, or a NOT/AND/OR over earlier gates."""

    kind: str
    inputs: tuple[int, ...] = ()
    label: object = None  # for inputs: the ground atom (relation, tuple); for consts: bool


class Circuit:
    """A Boolean circuit with unbounded fan-in AND/OR, hash-consed.

    Gates are numbered in creation order; inputs of a gate always have
    smaller numbers, so a single forward pass evaluates the circuit.
    """

    def __init__(self) -> None:
        self.gates: list[Gate] = []
        self._intern: dict[Gate, int] = {}
        self.output: int | None = None

    # -- construction --------------------------------------------------------

    def add(self, kind: str, inputs: tuple[int, ...] = (), label: object = None) -> int:
        """Add (or reuse) a gate and return its id."""
        for gate_id in inputs:
            if not 0 <= gate_id < len(self.gates):
                raise EvaluationError(f"gate input {gate_id} does not exist")
        gate = Gate(kind, tuple(inputs), label)
        existing = self._intern.get(gate)
        if existing is not None:
            return existing
        self.gates.append(gate)
        gate_id = len(self.gates) - 1
        self._intern[gate] = gate_id
        return gate_id

    def input_gate(self, relation: str, row: tuple) -> int:
        return self.add(_INPUT, label=(relation, tuple(row)))

    def const_gate(self, value: bool) -> int:
        return self.add(_CONST, label=bool(value))

    def not_gate(self, child: int) -> int:
        return self.add(_NOT, (child,))

    def and_gate(self, children: tuple[int, ...]) -> int:
        if not children:
            return self.const_gate(True)
        if len(children) == 1:
            return children[0]
        return self.add(_AND, tuple(sorted(set(children))))

    def or_gate(self, children: tuple[int, ...]) -> int:
        if not children:
            return self.const_gate(False)
        if len(children) == 1:
            return children[0]
        return self.add(_OR, tuple(sorted(set(children))))

    # -- metrics -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of gates — polynomial in n for a fixed query (E2)."""
        return len(self.gates)

    def depth(self) -> int:
        """Longest input→output path — constant in n for a fixed query (E2)."""
        if self.output is None:
            raise EvaluationError("circuit has no designated output")
        depths = [0] * len(self.gates)
        for gate_id, gate in enumerate(self.gates):
            if gate.inputs:
                depths[gate_id] = 1 + max(depths[child] for child in gate.inputs)
        return depths[self.output]

    def input_labels(self) -> list[tuple[str, tuple]]:
        """All ground atoms this circuit reads."""
        return [gate.label for gate in self.gates if gate.kind == _INPUT]  # type: ignore[misc]

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, inputs: Mapping[tuple[str, tuple], bool]) -> bool:
        """Evaluate with the given truth value per ground atom."""
        if self.output is None:
            raise EvaluationError("circuit has no designated output")
        values = [False] * len(self.gates)
        for gate_id, gate in enumerate(self.gates):
            if gate.kind == _INPUT:
                try:
                    values[gate_id] = bool(inputs[gate.label])  # type: ignore[index]
                except KeyError:
                    raise EvaluationError(f"no input value for ground atom {gate.label!r}") from None
            elif gate.kind == _CONST:
                values[gate_id] = bool(gate.label)
            elif gate.kind == _NOT:
                values[gate_id] = not values[gate.inputs[0]]
            elif gate.kind == _AND:
                values[gate_id] = all(values[child] for child in gate.inputs)
            elif gate.kind == _OR:
                values[gate_id] = any(values[child] for child in gate.inputs)
            else:  # pragma: no cover - Gate kinds are fixed above
                raise EvaluationError(f"unknown gate kind {gate.kind!r}")
        return values[self.output]


def compile_query(formula: Formula, signature: Signature, n: int) -> Circuit:
    """Compile a sentence into the n-th circuit of its AC⁰ family.

    The domain is [n] = {0, ..., n-1}. The query must be a sentence over
    a purely relational signature (the construction in the paper assumes
    this; constants are easily eliminated but kept out of scope here).
    """
    if n < 1:
        raise EvaluationError(f"domain size must be at least 1, got {n}")
    if signature.constants:
        raise EvaluationError("circuit compilation requires a constant-free signature")
    names = list(analyze(formula).names)
    if names:
        raise FormulaError(f"circuit compilation requires a sentence; free: {names}")
    validate(formula, signature)

    circuit = Circuit()
    domain = tuple(range(n))

    def term_value(term: Term, env: dict[Var, int]) -> int:
        if isinstance(term, Var):
            return env[term]
        raise FormulaError(f"unexpected constant {term!r} in relational compilation")

    def build(node: Formula, env: dict[Var, int]) -> int:
        if isinstance(node, Atom):
            row = tuple(term_value(term, env) for term in node.terms)
            return circuit.input_gate(node.relation, row)
        if isinstance(node, Eq):
            return circuit.const_gate(
                term_value(node.left, env) == term_value(node.right, env)
            )
        if isinstance(node, Top):
            return circuit.const_gate(True)
        if isinstance(node, Bottom):
            return circuit.const_gate(False)
        if isinstance(node, Not):
            return circuit.not_gate(build(node.body, env))
        if isinstance(node, And):
            return circuit.and_gate(tuple(build(child, env) for child in node.children))
        if isinstance(node, Or):
            return circuit.or_gate(tuple(build(child, env) for child in node.children))
        if isinstance(node, Implies):
            return circuit.or_gate(
                (circuit.not_gate(build(node.premise, env)), build(node.conclusion, env))
            )
        if isinstance(node, Iff):
            left = build(node.left, env)
            right = build(node.right, env)
            both = circuit.and_gate((left, right))
            neither = circuit.and_gate((circuit.not_gate(left), circuit.not_gate(right)))
            return circuit.or_gate((both, neither))
        if isinstance(node, (Exists, Forall)):
            children = []
            for value in domain:
                child_env = dict(env)
                child_env[node.var] = value
                children.append(build(node.body, child_env))
            if isinstance(node, Exists):
                return circuit.or_gate(tuple(children))
            return circuit.and_gate(tuple(children))
        raise FormulaError(f"unknown formula node {node!r}")

    circuit.output = build(formula, {})
    return circuit


def evaluate_circuit(circuit: Circuit, structure: Structure) -> bool:
    """Evaluate a compiled circuit on a structure with universe [n].

    The structure's universe must be exactly {0, ..., n-1} for the ground
    atoms to line up with the circuit's inputs.
    """
    expected = set(range(structure.size))
    if set(structure.universe) != expected:
        raise EvaluationError(
            "circuit evaluation requires universe {0, ..., n-1}; relabel the structure first"
        )
    inputs = {
        label: structure.holds(label[0], label[1]) for label in circuit.input_labels()
    }
    return circuit.evaluate(inputs)


@dataclass(frozen=True)
class CircuitStats:
    """Size/depth summary of one member of a circuit family."""

    n: int
    size: int
    depth: int
    inputs: int


def circuit_stats(formula: Formula, signature: Signature, n: int) -> CircuitStats:
    """Compile and measure the n-th circuit of a query's AC⁰ family."""
    circuit = compile_query(formula, signature, n)
    return CircuitStats(
        n=n,
        size=circuit.size,
        depth=circuit.depth(),
        inputs=len(circuit.input_labels()),
    )
