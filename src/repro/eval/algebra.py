"""A small relational algebra engine.

Relations are named-column sets of tuples; the operators are the
classical six (selection, projection, rename, natural join, union,
difference) plus intersection, product, division, semijoin/antijoin, and
active-domain complement. The FO → algebra translation in
:mod:`repro.eval.translate` and the cost-based planner in
:mod:`repro.engine` both target this engine, making the textbook
equivalence "relational algebra = first-order logic (active-domain
semantics)" executable.

Every operator is a method on :class:`Relation`; the module also exports
a functional spelling of each (``natural_join(r, s)`` ≡ ``r.join(s)``),
which is the operator surface the planner consumes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from operator import itemgetter

from repro.errors import EvaluationError
from repro.structures.structure import Element

__all__ = [
    "Relation",
    # functional operator surface (one per Relation method)
    "select",
    "select_eq",
    "select_attr_eq",
    "project",
    "rename",
    "natural_join",
    "semijoin",
    "antijoin",
    "product",
    "union",
    "difference",
    "intersection",
    "divide",
    "complement",
    "extend_columns",
]


def _key_getter(indices: list[int]) -> Callable[[tuple], object]:
    """A fast per-row key extractor for the given column indices.

    Both sides of a join use extractors built from *aligned* index lists,
    so the single-column scalar key and the multi-column tuple key are
    each consistent across the two sides.
    """
    if len(indices) == 1:
        index = indices[0]
        return lambda row: row[index]
    if not indices:
        return lambda row: ()
    return itemgetter(*indices)


@dataclass(frozen=True)
class Relation:
    """A finite relation with named attributes.

    >>> r = Relation(("a", "b"), {(1, 2), (2, 3)})
    >>> sorted(r.project(("b",)).rows)
    [(2,), (3,)]
    """

    attributes: tuple[str, ...]
    rows: frozenset[tuple[Element, ...]]

    def __post_init__(self) -> None:
        attributes = tuple(self.attributes)
        if len(set(attributes)) != len(attributes):
            raise EvaluationError(f"duplicate attribute names: {attributes}")
        rows = frozenset(tuple(row) for row in self.rows)
        for row in rows:
            if len(row) != len(attributes):
                raise EvaluationError(
                    f"row {row!r} has {len(row)} columns, expected {len(attributes)}"
                )
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "rows", rows)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _make(
        cls, attributes: tuple[str, ...], rows: frozenset[tuple[Element, ...]]
    ) -> "Relation":
        """Trusted constructor: skip ``__post_init__`` validation.

        For operator internals only — the caller guarantees ``attributes``
        is a duplicate-free tuple and every row is a tuple of matching
        width (which every algebra operator preserves by construction).
        """
        relation = object.__new__(cls)
        object.__setattr__(relation, "attributes", attributes)
        object.__setattr__(relation, "rows", rows)
        return relation

    @staticmethod
    def from_tuples(attributes: Iterable[str], rows: Iterable[tuple]) -> "Relation":
        """Build a relation from any iterables of attributes and rows."""
        return Relation(tuple(attributes), frozenset(tuple(row) for row in rows))

    @staticmethod
    def empty(attributes: Iterable[str]) -> "Relation":
        """The empty relation over the given attributes."""
        return Relation(tuple(attributes), frozenset())

    @staticmethod
    def nullary(truth: bool) -> "Relation":
        """The 0-ary relation: {()} encodes true, {} encodes false."""
        return Relation((), frozenset([()]) if truth else frozenset())

    # -- basics ----------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def _index_of(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise EvaluationError(
                f"unknown attribute {attribute!r}; relation has {self.attributes}"
            ) from None

    def column(self, attribute: str) -> frozenset[Element]:
        """All values appearing in one column."""
        index = self._index_of(attribute)
        return frozenset(row[index] for row in self.rows)

    # -- the algebra -------------------------------------------------------------

    def select(self, predicate: Callable[[Mapping[str, Element]], bool]) -> "Relation":
        """σ: keep rows on which ``predicate`` (given a row-dict) holds."""
        kept = {
            row
            for row in self.rows
            if predicate(dict(zip(self.attributes, row)))
        }
        return Relation(self.attributes, frozenset(kept))

    def select_eq(self, attribute: str, value: Element) -> "Relation":
        """σ_{attribute = value}."""
        index = self._index_of(attribute)
        return Relation._make(
            self.attributes, frozenset(row for row in self.rows if row[index] == value)
        )

    def select_attr_eq(self, first: str, second: str) -> "Relation":
        """σ_{first = second} for two attributes."""
        i, j = self._index_of(first), self._index_of(second)
        return Relation._make(
            self.attributes, frozenset(row for row in self.rows if row[i] == row[j])
        )

    def project(self, attributes: Iterable[str]) -> "Relation":
        """π: keep (and reorder to) the given attributes, dropping duplicates."""
        attributes = tuple(attributes)
        if attributes == self.attributes:
            return self
        indices = [self._index_of(attribute) for attribute in attributes]
        if len(set(attributes)) != len(attributes):
            raise EvaluationError(f"duplicate attribute names: {attributes}")
        rows = frozenset(tuple(row[index] for index in indices) for row in self.rows)
        return Relation._make(attributes, rows)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """ρ: rename attributes according to ``mapping``."""
        attributes = tuple(mapping.get(attribute, attribute) for attribute in self.attributes)
        return Relation(attributes, self.rows)

    def join(self, other: "Relation") -> "Relation":
        """⋈: natural join on the shared attributes (hash join).

        With no shared attributes this is the cartesian product. The hash
        table is always built on the *smaller* input, so memory and build
        time track min(|r|, |s|) rather than whichever operand happens to
        be on the right.
        """
        shared = [attribute for attribute in self.attributes if attribute in other.attributes]
        other_extra = [attribute for attribute in other.attributes if attribute not in shared]
        result_attributes = self.attributes + tuple(other_extra)

        self_key = _key_getter([self._index_of(attribute) for attribute in shared])
        other_key = _key_getter([other._index_of(attribute) for attribute in shared])
        extra_indices = [other._index_of(attribute) for attribute in other_extra]

        rows: set[tuple] = set()
        buckets: dict[object, list[tuple]] = {}
        if len(self.rows) < len(other.rows):
            # Hash the smaller (left) side, probe with the right.
            for row in self.rows:
                buckets.setdefault(self_key(row), []).append(row)
            for row in other.rows:
                matches = buckets.get(other_key(row))
                if matches:
                    extras = tuple(row[index] for index in extra_indices)
                    for mine in matches:
                        rows.add(mine + extras)
        else:
            # Hash the smaller (right) side, storing only the extra
            # columns each probe needs to append.
            for row in other.rows:
                buckets.setdefault(other_key(row), []).append(
                    tuple(row[index] for index in extra_indices)
                )
            for row in self.rows:
                matches = buckets.get(self_key(row))
                if matches:
                    for extras in matches:
                        rows.add(row + extras)
        return Relation._make(result_attributes, frozenset(rows))

    def semijoin(self, other: "Relation") -> "Relation":
        """⋉: rows of this relation with a join partner in ``other``.

        Equivalent to π_{self}(self ⋈ other), computed with one hash set
        over the shared attributes. With no shared attributes this is
        ``self`` when ``other`` is non-empty and the empty relation
        otherwise (the projection of the cartesian product).
        """
        return self._half_join(other, keep_matching=True)

    def antijoin(self, other: "Relation") -> "Relation":
        """▷: rows of this relation with *no* join partner in ``other``.

        The complement of :meth:`semijoin` within this relation — the
        hash-based realization of safe negation, used by the engine for
        negative conjuncts instead of a domain complement.
        """
        return self._half_join(other, keep_matching=False)

    def _half_join(self, other: "Relation", keep_matching: bool) -> "Relation":
        shared = [attribute for attribute in self.attributes if attribute in other.attributes]
        if not shared:
            nonempty = bool(other.rows) == keep_matching
            return self if nonempty else Relation._make(self.attributes, frozenset())
        self_key = _key_getter([self._index_of(attribute) for attribute in shared])
        other_key = _key_getter([other._index_of(attribute) for attribute in shared])
        keys = {other_key(row) for row in other.rows}
        rows = frozenset(
            row for row in self.rows if (self_key(row) in keys) == keep_matching
        )
        return Relation._make(self.attributes, rows)

    def product(self, other: "Relation") -> "Relation":
        """×: cartesian product (attribute sets must be disjoint)."""
        overlap = set(self.attributes) & set(other.attributes)
        if overlap:
            raise EvaluationError(f"product requires disjoint attributes, shared: {sorted(overlap)}")
        return self.join(other)

    def _require_compatible(self, other: "Relation", operation: str) -> None:
        if self.attributes != other.attributes:
            raise EvaluationError(
                f"{operation} requires identical attribute lists, "
                f"got {self.attributes} vs {other.attributes}"
            )

    def union(self, other: "Relation") -> "Relation":
        """∪ (requires identical attribute lists)."""
        self._require_compatible(other, "union")
        return Relation._make(self.attributes, self.rows | other.rows)

    def difference(self, other: "Relation") -> "Relation":
        """− (requires identical attribute lists)."""
        self._require_compatible(other, "difference")
        return Relation._make(self.attributes, self.rows - other.rows)

    def intersection(self, other: "Relation") -> "Relation":
        """∩ (requires identical attribute lists)."""
        self._require_compatible(other, "intersection")
        return Relation._make(self.attributes, self.rows & other.rows)

    def divide(self, divisor: "Relation") -> "Relation":
        """÷: relational division (the "for all" of the algebra).

        ``r.divide(s)`` keeps the tuples t over the attributes of r not
        in s such that (t, u) ∈ r for *every* u ∈ s. The divisor's
        attributes must be a proper non-empty subset of this relation's.
        """
        shared = [attribute for attribute in self.attributes if attribute in divisor.attributes]
        if set(shared) != set(divisor.attributes):
            raise EvaluationError(
                f"divisor attributes {divisor.attributes} must all occur in {self.attributes}"
            )
        quotient_attributes = tuple(
            attribute for attribute in self.attributes if attribute not in divisor.attributes
        )
        if not quotient_attributes or not shared:
            raise EvaluationError("division needs a proper, non-empty attribute split")
        quotient_indices = [self._index_of(attribute) for attribute in quotient_attributes]
        divisor_indices = [self._index_of(attribute) for attribute in divisor.attributes]
        required = divisor.rows
        seen: dict[tuple, set[tuple]] = {}
        for row in self.rows:
            key = tuple(row[index] for index in quotient_indices)
            value = tuple(row[index] for index in divisor_indices)
            seen.setdefault(key, set()).add(value)
        rows = frozenset(key for key, values in seen.items() if required <= values)
        return Relation(quotient_attributes, rows)

    def complement(self, domain: Iterable[Element]) -> "Relation":
        """Active-domain complement: domain^arity minus this relation.

        This implements negation under active-domain semantics — the
        classical trick that keeps FO queries domain-independent enough
        for databases.
        """
        import itertools

        domain = tuple(domain)
        full = frozenset(itertools.product(domain, repeat=self.arity))
        return Relation(self.attributes, full - self.rows)

    def extend_columns(self, attributes: Iterable[str], domain: Iterable[Element]) -> "Relation":
        """Pad with new attributes ranging over ``domain`` (a product)."""
        attributes = tuple(attributes)
        if not attributes:
            return self
        import itertools

        domain = tuple(domain)
        rows = set()
        for row in self.rows:
            for extra in itertools.product(domain, repeat=len(attributes)):
                rows.add(row + extra)
        return Relation(self.attributes + attributes, frozenset(rows))

    def __repr__(self) -> str:
        return f"Relation({self.attributes}, {len(self.rows)} rows)"


# ---------------------------------------------------------------------------
# Functional operator surface
# ---------------------------------------------------------------------------
#
# Thin module-level spellings of the Relation methods, so code that treats
# the algebra as a set of operators (the planner, tests, teaching examples)
# can import them by name.


def select(relation: Relation, predicate: Callable[[Mapping[str, Element]], bool]) -> Relation:
    """σ as a function: ``select(r, p)`` ≡ ``r.select(p)``."""
    return relation.select(predicate)


def select_eq(relation: Relation, attribute: str, value: Element) -> Relation:
    """σ_{attribute = value} as a function."""
    return relation.select_eq(attribute, value)


def select_attr_eq(relation: Relation, first: str, second: str) -> Relation:
    """σ_{first = second} as a function."""
    return relation.select_attr_eq(first, second)


def project(relation: Relation, attributes: Iterable[str]) -> Relation:
    """π as a function: ``project(r, attrs)`` ≡ ``r.project(attrs)``."""
    return relation.project(attributes)


def rename(relation: Relation, mapping: Mapping[str, str]) -> Relation:
    """ρ as a function: ``rename(r, m)`` ≡ ``r.rename(m)``."""
    return relation.rename(mapping)


def natural_join(left: Relation, right: Relation) -> Relation:
    """⋈ as a function: ``natural_join(r, s)`` ≡ ``r.join(s)``."""
    return left.join(right)


def semijoin(left: Relation, right: Relation) -> Relation:
    """⋉ as a function: ``semijoin(r, s)`` ≡ ``r.semijoin(s)``."""
    return left.semijoin(right)


def antijoin(left: Relation, right: Relation) -> Relation:
    """▷ as a function: ``antijoin(r, s)`` ≡ ``r.antijoin(s)``."""
    return left.antijoin(right)


def product(left: Relation, right: Relation) -> Relation:
    """× as a function: ``product(r, s)`` ≡ ``r.product(s)``."""
    return left.product(right)


def union(left: Relation, right: Relation) -> Relation:
    """∪ as a function: ``union(r, s)`` ≡ ``r.union(s)``."""
    return left.union(right)


def difference(left: Relation, right: Relation) -> Relation:
    """− as a function: ``difference(r, s)`` ≡ ``r.difference(s)``."""
    return left.difference(right)


def intersection(left: Relation, right: Relation) -> Relation:
    """∩ as a function: ``intersection(r, s)`` ≡ ``r.intersection(s)``."""
    return left.intersection(right)


def divide(left: Relation, right: Relation) -> Relation:
    """÷ as a function: ``divide(r, s)`` ≡ ``r.divide(s)``."""
    return left.divide(right)


def complement(relation: Relation, domain: Iterable[Element]) -> Relation:
    """Active-domain complement as a function."""
    return relation.complement(domain)


def extend_columns(
    relation: Relation, attributes: Iterable[str], domain: Iterable[Element]
) -> Relation:
    """Column padding as a function: ≡ ``r.extend_columns(attrs, domain)``."""
    return relation.extend_columns(attributes, domain)
