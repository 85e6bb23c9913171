"""Plan → pipeline compilation: costed plan trees to generated closures.

:func:`compile_plan` walks a planner tree bottom-up and builds one
:class:`PipelineNode` per *materialized* operator, where each node's
``fn`` is a kernel closure generated by
:mod:`repro.engine.columnar.kernels` — so executing the pipeline is a
tree of direct calls with zero per-node ``isinstance`` dispatch and zero
intermediate :class:`~repro.eval.algebra.Relation` allocation.

Fusion computes several plan nodes in one step, so the inner ones are
never materialized (EXPLAIN ANALYZE marks them fused into that step):

* ``Project(Join)`` — the projection becomes the join kernel's emit
  expression, so the joined row never exists; only the projected key is
  ever built (π fused into the probe loop);
* a ``Join`` (under any ``Project``) one of whose sides has only shared
  attributes is a semijoin: the other side's rows are probed in it and
  re-keyed, and no match is built (step kind ``SemiJoin``);
* ``A ⋉ π_S(B ⋈ C)`` — that semijoin, or an ``AntiJoin``, against a
  projected join whose projection drops only attributes B and C share —
  indexes B and C by the attributes S keeps and meets the two sets per
  row of A, so B ⋈ C is never built (``SemiJoinMeet``,
  ``AntiJoinMeet``: the step a worst-case-optimal join takes on a
  triangle);
* ``Project(AtomScan)`` — composed into the scan's emit positions;
* ``Project(Extend)`` — one strided-range kernel;
* identity ``Project`` and double ``Complement`` — dropped entirely;
* ``Complement(Union)`` with a cheaply negated part — one set
  difference (De Morgan).

Identity ``AtomScan`` (no pins, no equalities, column order untouched)
becomes a reference to the codec's cached packed relation: a scan with
zero per-row work after the first execution.  Every other scan reads
the codec's scan memo (:meth:`~repro.engine.columnar.codec.DomainCodec.scan`),
keyed by its whole shape, so pipelines sharing a scan share one set.

The compiled pipeline is pure code over one structure's codec, whose
universe is the quantification domain: constants are resolved to ids at
compile time, strides are inlined into the generated sources, and every
set a leaf reads lives in the codec, so the codec's delta patch keeps
cached pipelines current. The executor caches the tree on the
structure, so re-running a cached plan pays only kernel calls.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import EvaluationError
from repro.engine.columnar import kernels
from repro.engine.columnar.codec import DomainCodec, codec_for
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
from repro.structures.structure import Structure

__all__ = ["PipelineNode", "CompiledPlan", "compile_plan"]


class PipelineNode:
    """One materialized step of a compiled pipeline.

    ``fn`` consumes the children's key sets and returns this node's key
    set; ``kind`` names the primary operator (the fused ``Project(Join)``
    keeps kind ``"Join"``; a join that is a semijoin is a ``"SemiJoin"``)
    for stats and telemetry; ``plan`` is the
    outermost plan node this step realizes, which is what EXPLAIN
    recorders key on — so a plan node fused into a step sits below the
    node its actuals are recorded under
    (:func:`~repro.engine.plan.fused_steps`). ``plan`` is ``None`` only
    for the De Morgan step that computes the negation of a union part,
    a set no plan node denotes. Join nodes additionally carry the two
    semijoin pre-filter kernels — whether to apply them is the *executor's*
    runtime decision (it depends on engine configuration and input
    sizes), so one cached pipeline serves every configuration.

    Nodes hold no data: a scan leaf reads the codec's packed relation
    or scan memo, a nullary scan reads the structure, and every other
    leaf returns a set fixed at compile time by the universe and the
    constants, which updates never change. Whole-answer reuse is the
    engine answer cache's job.
    """

    __slots__ = (
        "plan",
        "kind",
        "fn",
        "children",
        "shared",
        "semi_left",
        "semi_right",
    )

    def __init__(
        self,
        plan: Plan | None,
        kind: str,
        fn: Callable,
        children: tuple["PipelineNode", ...] = (),
        shared: bool = False,
        semi_left: Callable | None = None,
        semi_right: Callable | None = None,
    ) -> None:
        self.plan = plan
        self.kind = kind
        self.fn = fn
        self.children = children
        self.shared = shared
        self.semi_left = semi_left
        self.semi_right = semi_right


class CompiledPlan:
    """A plan compiled against one structure: root + codec.

    Holds a strong reference to the plan object — pipeline caches key by
    ``id(plan)``, and this reference is what keeps that id stable.  The
    pipeline stays valid for as long as ``codec`` is the structure's
    codec: the codec's delta patch moves every set the leaves read.
    """

    __slots__ = ("plan", "root", "codec", "packed")

    def __init__(
        self, plan: Plan, root: PipelineNode, codec: DomainCodec, packed: bool
    ) -> None:
        self.plan = plan
        self.root = root
        self.codec = codec
        self.packed = packed


def _walk(plan: Plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


def compile_plan(plan: Plan, structure: Structure) -> CompiledPlan:
    """Compile ``plan`` into a kernel pipeline over integer-coded rows.

    The row encoding is chosen once per plan: packed single-int keys
    when every node's arity fits :data:`~repro.engine.columnar.codec.PACK_MAX_ARITY`
    (and the mixed-radix key fits a machine word), tuple-of-int keys
    otherwise — mixing encodings inside one plan would force conversions
    at exactly the operator boundaries fusion removes.
    """
    codec = codec_for(structure)
    max_arity = max(node.arity for node in _walk(plan))
    packed = codec.can_pack(max_arity)
    root = _Builder(structure, codec, packed).build(plan)
    return CompiledPlan(plan, root, codec, packed)


class _Builder:
    def __init__(self, structure: Structure, codec: DomainCodec, packed: bool) -> None:
        self.structure = structure
        self.codec = codec
        self.packed = packed
        self.base = codec.base
        #: the key of the empty row — what 0-ary truth materializes as.
        self.nullk = 0 if packed else ()

    # -- dispatch -------------------------------------------------------------

    def build(self, plan: Plan) -> PipelineNode:
        if isinstance(plan, AtomScan):
            return self._scan(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, AntiJoin):
            return self._antijoin(plan)
        if isinstance(plan, Complement):
            child = plan.child
            if isinstance(child, Complement):
                # ¬¬X = X: every pipeline set lives inside universe^arity,
                # so double complements cancel exactly.
                return self._retarget(self.build(child.child), plan)
            if isinstance(child, Union):
                fused = self._complement_union(plan, child)
                if fused is not None:
                    return fused
            fn = kernels.build_complement(
                plan.arity, self.base, self.packed, self.codec.universes
            )
            return PipelineNode(plan, "Complement", fn, (self.build(child),))
        if isinstance(plan, Extend):
            return self._extend(plan)
        if isinstance(plan, Division):
            return self._division(plan)
        if isinstance(plan, Union):
            for part in plan.parts:
                if part.attributes != plan.attributes:
                    raise EvaluationError(
                        f"union part attributes {part.attributes} != {plan.attributes}"
                    )
            return PipelineNode(
                plan,
                "Union",
                kernels.build_union(),
                tuple(self.build(part) for part in plan.parts),
            )
        if isinstance(plan, NullaryTruth):
            return self._constant(plan, "NullaryTruth", plan.truth)
        if isinstance(plan, DomainColumn):
            if self.packed:
                rows: frozenset = frozenset(range(self.base))
            else:
                rows = frozenset((ident,) for ident in range(self.base))
            return PipelineNode(plan, "DomainColumn", lambda: rows)
        if isinstance(plan, Diagonal):
            if self.packed:
                stride = self.base + 1  # id·n + id
                diag: frozenset = frozenset(ident * stride for ident in range(self.base))
            else:
                diag = frozenset((ident, ident) for ident in range(self.base))
            return PipelineNode(plan, "Diagonal", lambda: diag)
        if isinstance(plan, ConstEq):
            ident = self.codec.encode(self.structure.constant(plan.constant))
            single: frozenset = frozenset({ident} if self.packed else {(ident,)})
            return PipelineNode(plan, "ConstEq", lambda: single)
        if isinstance(plan, ConstPair):
            truth = self.structure.constant(plan.left) == self.structure.constant(
                plan.right
            )
            return self._constant(plan, "ConstPair", truth)
        raise EvaluationError(f"unknown plan node {plan!r}")

    @staticmethod
    def _retarget(step: PipelineNode, plan: Plan) -> PipelineNode:
        """Record ``step`` under ``plan``, an ancestor with the same rows."""
        step.plan = plan
        return step

    def _constant(self, plan: Plan, kind: str, truth: bool) -> PipelineNode:
        rows: frozenset = frozenset({self.nullk}) if truth else frozenset()
        return PipelineNode(plan, kind, lambda: rows)

    # -- operators ------------------------------------------------------------

    def _scan(self, scan: AtomScan, out_plan: Plan | None = None) -> PipelineNode:
        """σπ-fused scan, with a parent Project composed in when given."""
        structure, codec = self.structure, self.codec
        target = out_plan if out_plan is not None else scan
        raw_arity = structure.signature.arity(scan.relation)
        pins = tuple(
            (position, codec.encode(structure.constant(name)))
            for position, name in scan.const_selects
        )
        relation = scan.relation
        if raw_arity == 0:
            # Truth is read at execution time, so updates need no
            # invalidation here.
            nullk = self.nullk
            return PipelineNode(
                target,
                "AtomScan",
                lambda: frozenset({nullk})
                if structure.tuples(relation)
                else frozenset(),
            )
        name_to_raw = {name: position for position, name in scan.projection}
        positions = tuple(name_to_raw[attribute] for attribute in target.attributes)
        identity = (
            not pins
            and not scan.equalities
            and positions == tuple(range(raw_arity))
        )
        if identity and self.packed:
            return PipelineNode(
                target, "AtomScan", lambda: codec.packed_relation(relation)
            )
        columns = codec.columns(relation)
        if identity:
            build: Callable[[], set] = lambda: set(zip(*columns))
        else:
            kernel = kernels.build_scan(
                raw_arity,
                pins,
                scan.equalities,
                positions,
                self.base,
                self.packed,
            )
            build = lambda: kernel(columns)
        shape = (self.packed, pins, scan.equalities, positions)
        return PipelineNode(
            target, "AtomScan", lambda: codec.scan(relation, shape, build)
        )

    def _project(self, plan: Project) -> PipelineNode:
        child = plan.child
        if plan.attributes == child.attributes:
            return self._retarget(self.build(child), plan)
        if isinstance(child, Join):
            return self._join(child, out_plan=plan)
        if isinstance(child, AtomScan):
            return self._scan(child, out_plan=plan)
        if isinstance(child, Extend) and self.packed:
            fused = self._extend_insert(plan, child)
            if fused is not None:
                return fused
        positions = tuple(
            child.attributes.index(attribute) for attribute in plan.attributes
        )
        fn = kernels.build_project(positions, child.arity, self.base, self.packed)
        return PipelineNode(plan, "Project", fn, (self.build(child),))

    def _join(self, join: Join, out_plan: Plan | None = None) -> PipelineNode:
        left, right = join.left, join.right
        lattrs, rattrs = left.attributes, right.attributes
        target = out_plan if out_plan is not None else join
        if set(rattrs) <= set(lattrs) or set(lattrs) <= set(rattrs):
            return self._semijoin(target, left, right)
        shared_names = [a for a in lattrs if a in rattrs]
        left_shared = tuple(lattrs.index(a) for a in shared_names)
        right_shared = tuple(rattrs.index(a) for a in shared_names)
        right_extras = tuple(
            position for position, a in enumerate(rattrs) if a not in lattrs
        )
        projection: tuple[tuple[str, int], ...] | None = None
        if target.attributes != join_attributes(lattrs, rattrs):
            projection = tuple(
                ("l", lattrs.index(a)) if a in lattrs else ("r", rattrs.index(a))
                for a in target.attributes
            )
        fn = kernels.build_join(
            len(lattrs),
            len(rattrs),
            left_shared,
            right_shared,
            right_extras,
            self.base,
            self.packed,
            projection,
        )
        semi_left = semi_right = None
        if shared_names:
            semi_left = kernels.build_half_join(
                len(lattrs), len(rattrs), left_shared, right_shared,
                self.base, self.packed, True,
            )
            semi_right = kernels.build_half_join(
                len(rattrs), len(lattrs), right_shared, left_shared,
                self.base, self.packed, True,
            )
        return PipelineNode(
            target,
            "Join",
            fn,
            (self.build(left), self.build(right)),
            shared=bool(shared_names),
            semi_left=semi_left,
            semi_right=semi_right,
        )

    def _antijoin(self, plan: AntiJoin) -> PipelineNode:
        left, right = plan.left, plan.right
        if plan.attributes != left.attributes:
            raise EvaluationError(
                f"antijoin attributes {plan.attributes} != left {left.attributes}"
            )
        lattrs, rattrs = left.attributes, right.attributes
        halves = self._meet_halves(right, lattrs)
        if halves is not None:
            return self._meet(plan, left, right, halves, keep_matching=False)
        shared_names = [a for a in lattrs if a in rattrs]
        fn = kernels.build_half_join(
            len(lattrs),
            len(rattrs),
            tuple(lattrs.index(a) for a in shared_names),
            tuple(rattrs.index(a) for a in shared_names),
            self.base,
            self.packed,
            False,
        )
        return PipelineNode(
            plan, "AntiJoin", fn, (self.build(left), self.build(right))
        )

    def _semijoin(self, target: Plan, left: Plan, right: Plan) -> PipelineNode:
        """A join one of whose sides has only shared attributes: ⋉.

        The output reads only the other side, so it is that side's rows
        that match, re-keyed. When the all-shared side is a projected
        join the meet kernel decides each match without building that
        join; otherwise the kept side's rows are probed in the other.
        """
        for kept, other in ((left, right), (right, left)):
            halves = self._meet_halves(other, kept.attributes)
            if halves is not None:
                return self._meet(target, kept, other, halves, keep_matching=True)
        if set(right.attributes) <= set(left.attributes):
            kept, other = left, right
        else:
            kept, other = right, left
        attrs = kept.attributes
        fn = kernels.build_semijoin(
            len(attrs),
            tuple(attrs.index(a) for a in other.attributes),
            tuple(attrs.index(a) for a in target.attributes),
            self.base,
            self.packed,
        )
        return PipelineNode(
            target, "SemiJoin", fn, (self.build(kept), self.build(other))
        )

    @staticmethod
    def _meet_halves(
        plan: Plan, probe: tuple[str, ...]
    ) -> tuple[Plan, Plan] | None:
        """(B, C) when ``plan`` is π_S(B ⋈ C), S drops only attributes B
        and C share, and every attribute of S is in ``probe``; ``None``
        otherwise."""
        if not (isinstance(plan, Project) and isinstance(plan.child, Join)):
            return None
        b, c = plan.child.left, plan.child.right
        kept = set(plan.attributes)
        if not kept <= set(probe) or set(b.attributes) - kept != set(c.attributes) - kept:
            return None
        return b, c

    def _meet(
        self,
        target: Plan,
        kept: Plan,
        other: Plan,
        halves: tuple[Plan, Plan],
        keep_matching: bool,
    ) -> PipelineNode:
        """``kept ⋉ π_S(B ⋈ C)`` (▷ unless ``keep_matching``) as one step.

        ``other`` is π_S(B ⋈ C); the projection and the join it covers
        are fused into the step, whose children are kept, B and C.
        """
        attrs = kept.attributes
        dropped = tuple(a for a in halves[0].attributes if a not in other.attributes)
        sides = []
        for half in halves:
            names = half.attributes
            stays = tuple(a for a in names if a in other.attributes)
            sides.append(
                (
                    len(names),
                    tuple(names.index(a) for a in stays),
                    tuple(names.index(a) for a in dropped),
                    tuple(attrs.index(a) for a in stays),
                )
            )
        fn = kernels.build_meet(
            len(attrs),
            tuple(attrs.index(a) for a in target.attributes),
            tuple(sides),
            self.base,
            self.packed,
            keep_matching,
        )
        return PipelineNode(
            target,
            "SemiJoinMeet" if keep_matching else "AntiJoinMeet",
            fn,
            (self.build(kept), self.build(halves[0]), self.build(halves[1])),
        )

    def _complement_union(
        self, plan: Complement, union: Union
    ) -> PipelineNode | None:
        """De Morgan fusion: ``¬(P₁ ∪ … ∪ Pₖ) = ¬Pᵢ ∖ P₁ ∖ … ∖ Pₖ``.

        Applies when some part ``Pᵢ`` has a *cheap* negation — it is a
        complement (so ``¬Pᵢ`` is its child), or a cylinder of a
        complement (``Extend``/``Project∘Extend`` over ``Complement(X)``,
        whose negation is the cylinder of ``X``: a key avoids every
        slice of the cylinder iff its child digits avoid ``¬X``). The
        ∀-as-¬∃¬ pattern produces exactly this shape, and the fusion
        replaces a domain^k materialization plus a full-universe
        difference with one ``set.difference`` over the small side.
        """
        for pick, part in enumerate(union.parts):
            negated = self._negated(part)
            if negated is None:
                continue
            others = tuple(
                self.build(other)
                for position, other in enumerate(union.parts)
                if position != pick
            )

            def fn(base: set, *rest: set) -> set:
                return base.difference(*rest)

            return PipelineNode(plan, "Complement", fn, (negated,) + others)
        return None

    def _negated(self, part: Plan) -> PipelineNode | None:
        """A pipeline computing ``¬part``, when that is cheap — else None."""
        if isinstance(part, Complement):
            return self.build(part.child)
        if isinstance(part, Project) and isinstance(part.child, Extend):
            extend = part.child
        elif isinstance(part, Extend):
            extend = part
        else:
            return None
        if not self.packed or not isinstance(extend.child, Complement):
            return None
        inner = extend.child.attributes
        new = extend.new_attributes
        for insert_at in range(len(inner) + 1):
            if part.attributes == inner[:insert_at] + new + inner[insert_at:]:
                fn = kernels.build_extend_insert(
                    len(inner), len(new), insert_at, self.base
                )
                return PipelineNode(
                    None, "Extend", fn, (self.build(extend.child.child),)
                )
        return None

    def _extend_insert(self, plan: Project, extend: Extend) -> PipelineNode | None:
        """Fuse ``Project(Extend(child))`` into one strided-range kernel.

        Applies when the projection keeps the extend child's attributes
        in their original order and splices ``new_attributes`` in (still
        in order) as one contiguous block — the shape the planner emits
        when aligning union branches. Returns ``None`` for any other
        permutation, which falls back to the generic project kernel.
        """
        inner = extend.child.attributes
        new = extend.new_attributes
        for insert_at in range(len(inner) + 1):
            if plan.attributes == inner[:insert_at] + new + inner[insert_at:]:
                fn = kernels.build_extend_insert(
                    len(inner), len(new), insert_at, self.base
                )
                return PipelineNode(plan, "Extend", fn, (self.build(extend.child),))
        return None

    def _division(self, plan: Division) -> PipelineNode:
        guard, body, var = plan.guard, plan.body, plan.var
        gattrs, battrs = guard.attributes, body.attributes
        keys = tuple(a for a in gattrs if a != var)
        rest = plan.attributes[len(keys) :]
        if plan.attributes[: len(keys)] != keys or set(rest) != set(battrs) - {var, *keys}:
            raise EvaluationError(
                f"division attributes {plan.attributes} do not split into "
                f"guard keys {keys} and body attributes {battrs}"
            )
        fn = kernels.build_division(
            guard.arity,
            tuple(gattrs.index(a) for a in keys),
            gattrs.index(var),
            body.arity,
            battrs.index(var),
            tuple(battrs.index(a) for a in rest),
            tuple((keys.index(a), battrs.index(a)) for a in keys if a in battrs),
            self.base,
            self.packed,
        )
        return PipelineNode(
            plan, "Division", fn, (self.build(guard), self.build(body))
        )

    def _extend(self, plan: Extend) -> PipelineNode:
        child = plan.child
        if plan.attributes != child.attributes + plan.new_attributes:
            raise EvaluationError(
                f"extend attributes {plan.attributes} do not append "
                f"{plan.new_attributes} to {child.attributes}"
            )
        fn = kernels.build_extend(
            child.arity, len(plan.new_attributes), self.base, self.packed
        )
        return PipelineNode(plan, "Extend", fn, (self.build(child),))
