"""The cost-based planner: normalized FO → costed algebra plans.

Compilation follows the classical FO = relational algebra translation
(:mod:`repro.eval.translate`), but instead of evaluating eagerly it
builds a :class:`~repro.engine.plan.Plan` tree, making three database-
style decisions along the way:

* **selection/projection push-down** — constant and repeated-variable
  selections are fused into :class:`AtomScan` leaves, and quantifier
  projections sit exactly where normalization miniscoped them;
* **greedy join reordering** — the conjuncts of ∧ are joined smallest-
  estimate-first, always preferring a join partner that shares an
  attribute over a cartesian product;
* **negation as antijoin** — a negative conjunct whose attributes are
  covered by the positive part compiles to an antijoin instead of a
  materialized domain complement;
* **division for guarded universals** — ∀z(¬A ∨ ψ) whose ψ brings a
  variable the guard atom A lacks compiles to one :class:`Division`
  node (set containment) instead of ¬∃¬ over a cylinder of ¬A.

Cardinality estimates use the textbook independence assumptions over
:class:`~repro.engine.stats.StructureStats`: |L ⋈ R| ≈ |L|·|R| / d^s for
s shared attributes over a universe of size d.
"""

from __future__ import annotations

from repro.errors import FormulaError
from repro.engine.plan import (
    AntiJoin,
    AtomScan,
    Complement,
    ConstEq,
    ConstPair,
    Diagonal,
    Division,
    DomainColumn,
    Extend,
    Join,
    NullaryTruth,
    Plan,
    Project,
    Union,
    join_attributes,
)
from repro.engine.stats import StructureStats
from repro.logic.analysis import free_variables
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Top,
    Var,
)

__all__ = ["Planner"]


class Planner:
    """Compile one normalized formula against one statistics snapshot."""

    def __init__(self, stats: StructureStats) -> None:
        self.stats = stats
        self.domain_size = stats.universe_size

    # -- public entry --------------------------------------------------------

    def plan(self, formula: Formula, wanted: tuple[str, ...]) -> Plan:
        """Plan ``formula`` and shape the output to the ``wanted`` columns.

        ``wanted`` is the sorted free-variable list of the *original*
        (pre-normalization) formula; variables the normalizer proved
        vacuous are padded back with domain columns, matching the naive
        evaluator's convention.
        """
        root = self._plan(formula)
        missing = tuple(name for name in wanted if name not in root.attributes)
        if missing:
            root = self._extend(root, missing)
        if root.attributes != wanted:
            root = self._project(root, wanted)
        return root

    # -- node constructors (each computes its own estimate) ------------------

    def _domain_power(self, arity: int) -> float:
        return float(self.domain_size) ** arity

    def _extend(self, child: Plan, new_attributes: tuple[str, ...]) -> Plan:
        return Extend(
            attributes=child.attributes + new_attributes,
            estimated_rows=child.estimated_rows * self._domain_power(len(new_attributes)),
            child=child,
            new_attributes=new_attributes,
        )

    def _project(self, child: Plan, attributes: tuple[str, ...]) -> Plan:
        estimate = min(child.estimated_rows, self._domain_power(len(attributes)))
        return Project(attributes=attributes, estimated_rows=estimate, child=child)

    def _complement(self, child: Plan) -> Plan:
        estimate = max(self._domain_power(child.arity) - child.estimated_rows, 0.0)
        return Complement(
            attributes=child.attributes, estimated_rows=estimate, child=child
        )

    def _join(self, left: Plan, right: Plan) -> Plan:
        return Join(
            attributes=join_attributes(left.attributes, right.attributes),
            estimated_rows=self._join_estimate(left, right),
            left=left,
            right=right,
        )

    def _join_estimate(self, left: Plan, right: Plan) -> float:
        shared = sum(1 for a in left.attributes if a in right.attributes)
        return left.estimated_rows * right.estimated_rows / self._domain_power(shared)

    def _antijoin(self, left: Plan, right: Plan) -> Plan:
        # An antijoin can only shrink its left input; assume half survives.
        return AntiJoin(
            attributes=left.attributes,
            estimated_rows=left.estimated_rows / 2.0,
            left=left,
            right=right,
        )

    # -- recursive compilation ------------------------------------------------

    def _plan(self, formula: Formula) -> Plan:
        if isinstance(formula, Atom):
            return self._plan_atom(formula)
        if isinstance(formula, Eq):
            return self._plan_eq(formula)
        if isinstance(formula, Top):
            return NullaryTruth(attributes=(), estimated_rows=1.0, truth=True)
        if isinstance(formula, Bottom):
            return NullaryTruth(attributes=(), estimated_rows=0.0, truth=False)
        if isinstance(formula, Not):
            return self._complement(self._plan(formula.body))
        if isinstance(formula, And):
            return self._plan_and(formula)
        if isinstance(formula, Or):
            return self._plan_or(formula)
        if isinstance(formula, Exists):
            inner = self._plan(formula.body)
            name = formula.var.name
            if name not in inner.attributes:
                # ∃x φ with x not free in φ: φ itself (non-empty domain).
                return inner
            remaining = tuple(a for a in inner.attributes if a != name)
            return self._project(inner, remaining)
        if isinstance(formula, Forall):
            division = self._plan_division(formula)
            if division is not None:
                return division
            inner = self._plan(formula.body)
            name = formula.var.name
            if name not in inner.attributes:
                return inner
            # ∀x φ ≡ ¬∃x ¬φ.
            negated = self._complement(inner)
            remaining = tuple(a for a in negated.attributes if a != name)
            return self._complement(self._project(negated, remaining))
        raise FormulaError(f"arrows must be eliminated before planning: {formula!r}")

    def _plan_division(self, formula: Forall) -> Division | None:
        """∀z(¬A(x̄, z) ∨ ψ(w̄, z)) as one :class:`Division`, or ``None``.

        The guard is a disjunct ``¬A`` with A a relation atom mentioning
        z; ψ is the rest of the disjunction. The rule fires only when
        w̄ ⊄ x̄: there the ¬∃¬ plan builds the cylinder of ¬A over
        w̄ ∖ x̄, of d^{|w̄∖x̄|} times A's complement, while the division
        kernel's work is bounded by that cylinder. When w̄ ⊆ x̄ the ¬∃¬
        plan is already an antijoin. Among several guards the smallest
        estimate wins, the earlier disjunct on ties.
        """
        body, var = formula.body, formula.var
        if not isinstance(body, Or):
            return None
        chosen: tuple[AtomScan, Formula] | None = None
        for position, child in enumerate(body.children):
            if not (
                isinstance(child, Not)
                and isinstance(child.body, Atom)
                and var in child.body.terms
            ):
                continue
            rest = body.children[:position] + body.children[position + 1 :]
            psi = rest[0] if len(rest) == 1 else Or(rest)
            mentioned = free_variables(psi)
            if var not in mentioned or mentioned <= free_variables(child):
                continue
            guard = self._plan_atom(child.body)
            if chosen is None or guard.estimated_rows < chosen[0].estimated_rows:
                chosen = (guard, psi)
        if chosen is None:
            return None
        guard, psi = chosen
        inner = self._plan(psi)
        name = var.name
        keys = tuple(a for a in guard.attributes if a != name)
        attributes = keys + tuple(
            a for a in inner.attributes if a != name and a not in keys
        )
        # Independence estimate of ∀: each of the d values of z is
        # either outside the guard or inside ψ.
        guard_density = min(1.0, guard.estimated_rows / self._domain_power(guard.arity))
        body_density = min(1.0, inner.estimated_rows / self._domain_power(inner.arity))
        survive = (1.0 - guard_density * (1.0 - body_density)) ** self.domain_size
        return Division(
            attributes=attributes,
            estimated_rows=self._domain_power(len(attributes)) * survive,
            guard=guard,
            body=inner,
            var=name,
        )

    def _plan_atom(self, formula: Atom) -> Plan:
        const_selects: list[tuple[int, str]] = []
        equalities: list[tuple[int, int]] = []
        projection: list[tuple[int, str]] = []
        seen: dict[str, int] = {}
        for position, term in enumerate(formula.terms):
            if isinstance(term, Const):
                const_selects.append((position, term.name))
            elif isinstance(term, Var):
                if term.name in seen:
                    equalities.append((seen[term.name], position))
                else:
                    seen[term.name] = position
                    projection.append((position, term.name))
        base = float(self.stats.cardinality(formula.relation))
        selectivity = self._domain_power(len(const_selects) + len(equalities))
        return AtomScan(
            attributes=tuple(name for _, name in projection),
            estimated_rows=base / selectivity,
            relation=formula.relation,
            const_selects=tuple(const_selects),
            equalities=tuple(equalities),
            projection=tuple(projection),
        )

    def _plan_eq(self, formula: Eq) -> Plan:
        left, right = formula.left, formula.right
        if isinstance(left, Const) and isinstance(right, Const):
            return ConstPair(
                attributes=(), estimated_rows=1.0, left=left.name, right=right.name
            )
        if isinstance(left, Const) or isinstance(right, Const):
            const = left if isinstance(left, Const) else right
            var = right if isinstance(left, Const) else left
            assert isinstance(var, Var) and isinstance(const, Const)
            return ConstEq(
                attributes=(var.name,), estimated_rows=1.0, constant=const.name
            )
        assert isinstance(left, Var) and isinstance(right, Var)
        if left == right:
            return DomainColumn(
                attributes=(left.name,), estimated_rows=float(self.domain_size)
            )
        attributes = tuple(sorted((left.name, right.name)))
        return Diagonal(attributes=attributes, estimated_rows=float(self.domain_size))

    def _plan_and(self, formula: And) -> Plan:
        positives: list[Plan] = []
        negatives: list[Plan] = []
        for child in formula.children:
            if isinstance(child, Not):
                negatives.append(self._plan(child.body))
            else:
                positives.append(self._plan(child))

        current = self._order_joins(positives)
        if current is None:
            current = NullaryTruth(attributes=(), estimated_rows=1.0, truth=True)

        # Place negative conjuncts: antijoin whenever the positive part
        # already covers the negated attributes, complement-join otherwise
        # (complement-joins widen ``current``, which can unlock antijoins
        # for the remaining negatives — hence the loop).
        remaining = sorted(negatives, key=lambda p: p.estimated_rows)
        while remaining:
            covered = [
                p for p in remaining if set(p.attributes) <= set(current.attributes)
            ]
            if covered:
                chosen = covered[0]
                current = self._antijoin(current, chosen)
            else:
                chosen = remaining[0]
                current = self._join(current, self._complement(chosen))
            remaining.remove(chosen)
        return current

    def _order_joins(self, parts: list[Plan]) -> Plan | None:
        """Greedy left-deep join ordering, cheapest first, sharing preferred."""
        if not parts:
            return None
        pending = list(parts)
        pending.sort(key=lambda p: p.estimated_rows)
        current = pending.pop(0)
        while pending:
            sharing = [
                p
                for p in pending
                if any(a in current.attributes for a in p.attributes)
            ]
            pool = sharing or pending
            chosen = min(pool, key=lambda p: self._join_estimate(current, p))
            pending.remove(chosen)
            current = self._join(current, chosen)
        return current

    def _plan_or(self, formula: Or) -> Plan:
        parts = [self._plan(child) for child in formula.children]
        if not parts:
            return NullaryTruth(attributes=(), estimated_rows=0.0, truth=False)
        target = tuple(sorted({a for part in parts for a in part.attributes}))
        aligned: list[Plan] = []
        for part in parts:
            missing = tuple(a for a in target if a not in part.attributes)
            if missing:
                part = self._extend(part, missing)
            if part.attributes != target:
                part = self._project(part, target)
            aligned.append(part)
        if len(aligned) == 1:
            return aligned[0]
        # Inclusion–exclusion under independence: a row of domain^k is
        # missed by the union iff every part misses it.
        full = self._domain_power(len(target))
        missed = 1.0
        for part in aligned:
            missed *= 1.0 - min(1.0, part.estimated_rows / full)
        return Union(
            attributes=target,
            estimated_rows=full * (1.0 - missed),
            parts=tuple(aligned),
        )
