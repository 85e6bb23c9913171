"""Finite relational structures — the library's model of a database.

A :class:`Structure` is a finite universe together with an interpretation
of every relation symbol of its signature (and of its constants, if any).
Structures are hashable and content-equal; derived-structure operations
(:meth:`Structure.induced`, unions, products, ...) return new structures.

Since the incremental layer (ISSUE 9) a structure is additionally
*updatable in place*: :meth:`Structure.insert` and
:meth:`Structure.delete` change one relation tuple, bump the structure's
**epoch**, and *patch* the structural memo caches (Gaifman adjacency,
row incidence) instead of discarding them.  Every mutation is recorded
in a bounded delta log, so epoch-aware consumers — the locality census,
the engine's answer maintenance — can read :meth:`deltas_since` and
patch their own indexes rather than recompute.  The universe and the
constant interpretation never change; only relation contents do.

The element sort order used internally is deterministic (by type name and
repr), so every derived object — neighborhoods, unions, canonical invariants
— is reproducible run to run.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping
from typing import Callable

from repro.errors import SignatureError, StructureError
from repro.logic.signature import Signature

__all__ = ["Structure", "Element"]

Element = Hashable

#: Process-unique identities for structures (see :attr:`Structure.uid`).
#: Content hashing cannot key *identity-based* incremental indexes: two
#: content-equal structures may diverge under updates, and one mutated
#: structure changes its content hash on every delta.
_UIDS = itertools.count(1)

#: Bound on the per-structure delta log.  Consumers that fall further
#: behind than this get ``None`` from :meth:`Structure.deltas_since` and
#: must recompute — the log bounds memory, not history.
DELTA_LOG_LIMIT = 256

#: Memo keys the mutation path patches in place; every other ``_cache``
#: entry is dropped on update (safe default: recompute on demand).
_PATCHED_MEMOS = frozenset({("gaifman",), ("row-incidence",)})


def _sort_key(element: Element) -> tuple[str, str]:
    return (type(element).__name__, repr(element))


class Structure:
    """A finite structure A = (A, R1^A, ..., Rk^A, c1^A, ..., cm^A).

    Parameters
    ----------
    signature:
        The relational signature the structure interprets.
    universe:
        The (non-empty, finite) domain. Elements may be any hashable
        values; duplicates are removed.
    relations:
        For each relation symbol, the set of tuples in its interpretation.
        Symbols may be omitted — they are interpreted as empty. Tuples of
        binary relations may be given as 2-tuples, etc.
    constants:
        For each constant symbol of the signature, the element it denotes.

    >>> from repro.logic.signature import GRAPH
    >>> triangle = Structure(GRAPH, [0, 1, 2], {"E": [(0, 1), (1, 2), (2, 0)]})
    >>> triangle.size
    3
    """

    __slots__ = (
        "signature",
        "universe",
        "relations",
        "constants",
        "_universe_set",
        "_hash",
        "_cache",
        # Incremental state: ``epoch`` counts applied updates, ``uid`` is
        # a process-unique identity (content hashes move under updates,
        # identities do not), ``_deltas`` is the bounded update log.
        "epoch",
        "uid",
        "_deltas",
        # Weak referenceability: the columnar tier's codecs live in
        # ``_cache`` and point back at the structure through a weakref,
        # so a dead structure (and its cached pipelines, columns and
        # memoized scan sets) is reclaimed by refcounting alone instead
        # of waiting for a cyclic-GC pass.
        "__weakref__",
    )

    def __init__(
        self,
        signature: Signature,
        universe: Iterable[Element],
        relations: Mapping[str, Iterable[tuple]] | None = None,
        constants: Mapping[str, Element] | None = None,
    ) -> None:
        self.signature = signature
        elements = list(dict.fromkeys(universe))
        if not elements:
            raise StructureError("the universe of a structure must be non-empty")
        try:
            elements.sort(key=_sort_key)
        except TypeError:  # pragma: no cover - repr-keys are always comparable
            pass
        self.universe: tuple[Element, ...] = tuple(elements)
        self._universe_set = frozenset(elements)

        interp: dict[str, frozenset[tuple]] = {}
        provided = dict(relations or {})
        for name in provided:
            if not signature.has_relation(name):
                raise SignatureError(
                    f"structure interprets undeclared relation {name!r}; "
                    f"signature has {sorted(signature.relations)}"
                )
        for name in signature.relation_names():
            arity = signature.arity(name)
            tuples = frozenset(tuple(row) for row in provided.get(name, ()))
            for row in tuples:
                if len(row) != arity:
                    raise StructureError(
                        f"tuple {row!r} in {name!r} has length {len(row)}, expected {arity}"
                    )
                for value in row:
                    if value not in self._universe_set:
                        raise StructureError(
                            f"tuple {row!r} in {name!r} mentions {value!r}, "
                            "which is outside the universe"
                        )
            interp[name] = tuples
        self.relations: dict[str, frozenset[tuple]] = interp

        const_interp: dict[str, Element] = dict(constants or {})
        for name in const_interp:
            if not signature.has_constant(name):
                raise SignatureError(f"structure interprets undeclared constant {name!r}")
            if const_interp[name] not in self._universe_set:
                raise StructureError(
                    f"constant {name!r} denotes {const_interp[name]!r}, "
                    "which is outside the universe"
                )
        missing = signature.constants - const_interp.keys()
        if missing:
            raise StructureError(f"constants {sorted(missing)} are not interpreted")
        self.constants: dict[str, Element] = const_interp

        self._hash: int | None = None
        self._cache: dict = {}
        self.epoch: int = 0
        self.uid: int = next(_UIDS)
        self._deltas: list[tuple[str, str, tuple]] = []

    # -- basic protocol ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements in the universe (written |A| or n)."""
        return len(self.universe)

    def __len__(self) -> int:
        return len(self.universe)

    def __contains__(self, element: Element) -> bool:
        return element in self._universe_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.signature == other.signature
            and self._universe_set == other._universe_set
            and self.relations == other.relations
            and self.constants == other.constants
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.signature,
                    self._universe_set,
                    frozenset(self.relations.items()),
                    frozenset(self.constants.items()),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}:{len(tuples)}" for name, tuples in sorted(self.relations.items())
        )
        return f"Structure(|A|={self.size}, {rels or 'no relations'})"

    # -- pickling and copying -------------------------------------------------

    def __getstate__(self) -> tuple:
        """Pickle (and copy) the mathematical content only, not the memo caches.

        Gaifman graphs, WL colors and the columnar tier's per-structure
        memos (domain codecs, compiled kernel pipelines —
        :mod:`repro.engine.columnar`) are rebuilt on demand by the copy:
        compiled closures do not pickle, and each rebuild is one linear
        pass over the relations.
        """
        return (self.signature, self.universe, self.relations, self.constants)

    def __setstate__(self, state: tuple) -> None:
        signature, universe, relations, constants = state
        self.signature = signature
        self.universe = universe
        self._universe_set = frozenset(universe)
        self.relations = relations
        self.constants = constants
        self._hash = None
        self._cache = {}
        # A copy is a different object with its own update history; it
        # must not alias the original's incremental identity.
        self.epoch = 0
        self.uid = next(_UIDS)
        self._deltas = []

    # -- membership ----------------------------------------------------------

    def holds(self, relation: str, row: tuple) -> bool:
        """Whether the tuple ``row`` is in relation ``relation``."""
        try:
            return tuple(row) in self.relations[relation]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {relation!r}") from None

    def tuples(self, relation: str) -> frozenset[tuple]:
        """The interpretation of ``relation`` as a set of tuples."""
        try:
            return self.relations[relation]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {relation!r}") from None

    def constant(self, name: str) -> Element:
        """The element denoted by constant ``name``."""
        try:
            return self.constants[name]
        except KeyError:
            raise SignatureError(f"unknown constant symbol {name!r}") from None

    def active_domain(self) -> frozenset[Element]:
        """Elements occurring in some relation tuple or as a constant.

        The *active domain* is the semantics used by the FO→relational
        algebra translation (databases only see values that appear in
        tables).
        """
        active: set[Element] = set(self.constants.values())
        for tuples in self.relations.values():
            for row in tuples:
                active.update(row)
        return frozenset(active)

    # -- updates (incremental evaluation) -------------------------------------

    def insert(self, relation: str, row: tuple) -> bool:
        """Add ``row`` to ``relation`` in place; return whether it was new.

        Bumps :attr:`epoch`, appends to the delta log, and *patches* the
        structural memos (row incidence, Gaifman adjacency) rather than
        rebuilding them.  Memos the mutation path does not understand are
        dropped and recomputed on demand.  A no-op insert (the row is
        already present) returns ``False`` and changes nothing.
        """
        return self._update("insert", relation, row)

    def delete(self, relation: str, row: tuple) -> bool:
        """Remove ``row`` from ``relation`` in place; return whether present.

        Same contract as :meth:`insert`; a no-op delete (the row is
        absent) returns ``False`` and changes nothing.  The universe is
        untouched — deletes never remove elements.
        """
        return self._update("delete", relation, row)

    def deltas_since(self, epoch: int) -> list[tuple[str, str, tuple]] | None:
        """The ``(op, relation, row)`` deltas applied after ``epoch``.

        Returns ``[]`` when ``epoch`` is current, ``None`` when the
        caller is from the future (a different structure's epoch) or has
        fallen behind the bounded log — in that case patching is off the
        table and the caller must recompute from the current contents.
        """
        # Boundary audit (ISSUE 10): the log holds the last
        # min(epoch, DELTA_LOG_LIMIT) deltas, so a caller exactly
        # DELTA_LOG_LIMIT behind still gets the full suffix; only at
        # DELTA_LOG_LIMIT+1 has the needed oldest delta been trimmed.
        # ``behind > len`` (not ``>=``) is therefore the correct cut —
        # pinned by regression tests at limit−1 / limit / limit+1.
        behind = self.epoch - epoch
        if behind < 0 or behind > len(self._deltas):
            return None
        if behind == 0:
            return []
        return self._deltas[-behind:]

    def check_update(self, relation: str, row: tuple) -> tuple:
        """Validate a delta without applying it; return the normalized row.

        Raises the same :class:`SignatureError`/:class:`StructureError`
        an :meth:`insert`/:meth:`delete` would — callers that need
        all-or-nothing batches (the server's updates endpoint) validate
        every delta here before applying any.
        """
        row = tuple(row)
        if relation not in self.relations:
            raise SignatureError(f"unknown relation symbol {relation!r}")
        arity = self.signature.arity(relation)
        if len(row) != arity:
            raise StructureError(
                f"tuple {row!r} for {relation!r} has length {len(row)}, expected {arity}"
            )
        for value in row:
            if value not in self._universe_set:
                raise StructureError(
                    f"tuple {row!r} for {relation!r} mentions {value!r}, "
                    "which is outside the universe"
                )
        return row

    def _update(self, op: str, relation: str, row: tuple) -> bool:
        row = self.check_update(relation, row)
        tuples = self.relations[relation]
        if op == "insert":
            if row in tuples:
                return False
            self.relations[relation] = tuples | {row}
        else:
            if row not in tuples:
                return False
            self.relations[relation] = tuples - {row}
        self.epoch += 1
        self._deltas.append((op, relation, row))
        if len(self._deltas) > DELTA_LOG_LIMIT:
            del self._deltas[: len(self._deltas) - DELTA_LOG_LIMIT]
        self._hash = None
        self._patch_memos(op, relation, row)
        return True

    def _patch_memos(self, op: str, relation: str, row: tuple) -> None:
        """Patch the structural memos for one applied delta; drop the rest.

        Row incidence maps each element to the ``(relation, row)`` pairs
        it occurs in; the Gaifman adjacency is derivable from it.  Both
        are patched in O(|row| · degree).  Columnar codecs and compiled
        pipelines over the (immutable) universe domain are *kept* — they
        carry their own epoch stamps, and ``codec_for`` / the columnar
        executor patch them forward from the delta log on next use
        instead of re-encoding the whole structure.  Active-domain
        columnar entries are dropped (the active domain itself moves
        under updates, so their key would go stale anyway), as is
        everything else (WL colors, engine stats): each owner recomputes
        on demand.
        """
        patched: dict = {}
        for key, value in self._cache.items():
            if key[0] in ("columnar-codec", "columnar-pipeline") and (
                key[-1] is self.universe or key[-1] == self.universe
            ):
                patched[key] = value
        incidence = self._cache.get(("row-incidence",))
        if incidence is not None:
            incidence = dict(incidence)
            pair = (relation, row)
            for element in set(row):
                pairs = incidence.get(element, ())
                if op == "insert":
                    incidence[element] = (*pairs, pair)
                else:
                    incidence[element] = tuple(p for p in pairs if p != pair)
            patched[("row-incidence",)] = incidence
        adjacency = self._cache.get(("gaifman",))
        if adjacency is not None:
            touched = set(row)
            adjacency = dict(adjacency)
            if op == "insert":
                for element in touched:
                    adjacency[element] = adjacency[element] | (touched - {element})
            elif incidence is not None:
                # A deleted row may or may not sever edges (another row
                # can still connect the same pair); recompute the touched
                # elements' rows from the patched incidence.
                for element in touched:
                    neighbors: set[Element] = set()
                    for _, other_row in incidence.get(element, ()):
                        neighbors.update(other_row)
                    neighbors.discard(element)
                    adjacency[element] = frozenset(neighbors)
            else:
                adjacency = None
            if adjacency is not None:
                patched[("gaifman",)] = adjacency
        self._cache = patched

    # -- derived structures ---------------------------------------------------

    def induced(self, elements: Iterable[Element]) -> "Structure":
        """The substructure induced on ``elements`` (which must be non-empty).

        Relations are restricted to tuples entirely inside the chosen set.
        Constants must all lie inside the set (otherwise the substructure
        would not interpret them), or :class:`StructureError` is raised.
        """
        keep = set(elements)
        stray = keep - self._universe_set
        if stray:
            raise StructureError(f"elements {sorted(map(repr, stray))} are not in the universe")
        for name, value in self.constants.items():
            if value not in keep:
                raise StructureError(
                    f"constant {name!r} = {value!r} lies outside the induced universe"
                )
        relations = {
            name: {row for row in tuples if all(value in keep for value in row)}
            for name, tuples in self.relations.items()
        }
        return Structure(self.signature, keep, relations, self.constants)

    def relabel(self, mapping: Callable[[Element], Element] | Mapping[Element, Element]) -> "Structure":
        """Rename elements through an injective mapping."""
        if callable(mapping):
            rename = {element: mapping(element) for element in self.universe}
        else:
            rename = {element: mapping[element] for element in self.universe}
        if len(set(rename.values())) != len(rename):
            raise StructureError("relabeling must be injective")
        relations = {
            name: {tuple(rename[value] for value in row) for row in tuples}
            for name, tuples in self.relations.items()
        }
        constants = {name: rename[value] for name, value in self.constants.items()}
        return Structure(self.signature, rename.values(), relations, constants)

    def disjoint_union(self, other: "Structure") -> "Structure":
        """The disjoint union A ⊕ B, with elements tagged (0, a) and (1, b).

        Both structures must be over the same relational signature with no
        constants (a constant cannot denote two elements).
        """
        if self.signature != other.signature:
            raise SignatureError("disjoint union requires identical signatures")
        if self.constants or other.constants:
            raise StructureError("disjoint union is undefined for structures with constants")
        left = self.relabel(lambda element: (0, element))
        right = other.relabel(lambda element: (1, element))
        relations = {
            name: left.relations[name] | right.relations[name]
            for name in self.signature.relation_names()
        }
        return Structure(self.signature, left.universe + right.universe, relations)

    def direct_product(self, other: "Structure") -> "Structure":
        """The direct product A × B: universe A × B, relations coordinatewise.

        R^{A×B}((a₁,b₁), ..., (a_k,b_k)) iff R^A(ā) and R^B(b̄). Game
        equivalence composes over products (see
        :func:`repro.games.strategies.product_duplicator`), the
        Feferman–Vaught-flavored tool of the classical toolbox.
        """
        if self.signature != other.signature:
            raise SignatureError("direct product requires identical signatures")
        if self.constants or other.constants:
            raise StructureError("direct product is implemented for constant-free signatures")
        universe = [(a, b) for a in self.universe for b in other.universe]
        relations: dict[str, set[tuple]] = {}
        for name in self.signature.relation_names():
            rows: set[tuple] = set()
            for left_row in self.relations[name]:
                for right_row in other.relations[name]:
                    rows.add(tuple(zip(left_row, right_row)))
            relations[name] = rows
        return Structure(self.signature, universe, relations)

    def with_relation(self, name: str, arity: int, tuples: Iterable[tuple]) -> "Structure":
        """Return a structure over the extended signature with ``name`` added.

        If ``name`` already exists (at the same arity) its interpretation
        is replaced.
        """
        signature = self.signature.extend({name: arity})
        relations = dict(self.relations)
        relations[name] = frozenset(tuple(row) for row in tuples)
        return Structure(signature, self.universe, relations, self.constants)

    def with_distinguished(self, elements: tuple[Element, ...], prefix: str = "@") -> "Structure":
        """Mark a tuple of elements with fresh singleton unary relations.

        Element ``elements[i]`` is marked by the relation ``{prefix}{i}``.
        This encodes *distinguished* tuples (as in neighborhoods N_r(ā))
        so that plain isomorphism on the marked structures is exactly
        isomorphism respecting h(a_i) = b_i.
        """
        signature = self.signature
        relations: dict[str, Iterable[tuple]] = dict(self.relations)
        for index, element in enumerate(elements):
            if element not in self._universe_set:
                raise StructureError(f"distinguished element {element!r} not in universe")
            name = f"{prefix}{index}"
            signature = signature.extend({name: 1})
            relations[name] = {(element,)}
        return Structure(signature, self.universe, relations, self.constants)

    def reduct(self, names: Iterable[str]) -> "Structure":
        """The reduct to a sub-signature (forget the other relations)."""
        keep = list(names)
        signature = self.signature.restrict(keep)
        relations = {name: self.relations[name] for name in keep}
        return Structure(signature, self.universe, relations, self.constants)

    # -- graph-view helpers ----------------------------------------------------

    def out_degree(self, element: Element, relation: str = "E") -> int:
        """Out-degree of ``element`` in a binary relation (default ``E``)."""
        self._require_binary(relation)
        return sum(1 for row in self.relations[relation] if row[0] == element)

    def in_degree(self, element: Element, relation: str = "E") -> int:
        """In-degree of ``element`` in a binary relation (default ``E``)."""
        self._require_binary(relation)
        return sum(1 for row in self.relations[relation] if row[1] == element)

    def degree_sets(self, relation: str = "E") -> tuple[frozenset[int], frozenset[int]]:
        """(in(G), out(G)): the sets of in- and out-degrees realized.

        These are the ingredients of the BNDP (Definition 3.3): ``degs(G)``
        is their union, computed by :func:`repro.locality.bndp.degs`.
        """
        self._require_binary(relation)
        out_counts = {element: 0 for element in self.universe}
        in_counts = {element: 0 for element in self.universe}
        for source, target in self.relations[relation]:
            out_counts[source] += 1
            in_counts[target] += 1
        return frozenset(in_counts.values()), frozenset(out_counts.values())

    def max_degree(self) -> int:
        """Maximal Gaifman degree over all elements (0 for a bare set).

        This is the ``k`` of bounded-degree classes in Theorems 3.10/3.11.
        Computed from the Gaifman graph, so it is well defined for every
        signature, not just graphs.
        """
        from repro.structures.gaifman import gaifman_adjacency

        adjacency = gaifman_adjacency(self)
        return max((len(neighbors) for neighbors in adjacency.values()), default=0)

    def is_graph(self) -> bool:
        """Whether the structure is over the one-binary-relation signature."""
        return set(self.signature.relations.items()) == {("E", 2)}

    def _require_binary(self, relation: str) -> None:
        if self.signature.arity(relation) != 2:
            raise StructureError(f"relation {relation!r} is not binary")

    # -- internal memoization -----------------------------------------------

    def cached(self, key: object, compute: Callable[[], object]) -> object:
        """Memoize a per-structure computation (Gaifman graph, WL colors...)."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]
