"""The domain codec: integer-code one quantification domain, once.

Everything the columnar tier does — packed composite keys, vectorized
kernels, generated pipelines — rests on a single bijection between the
quantification domain and ``range(n)``. :class:`DomainCodec` owns that
bijection plus the columnar materialization of each base relation:
parallel ``array('q')`` columns of element ids instead of frozensets of
tuples of arbitrary Python objects. Both are cached on the structure
(via :meth:`Structure.cached`), so the coding cost is paid once per
(structure, domain) and the caches evaporate on pickling or copying
exactly like every other per-structure memo (:meth:`Structure.__getstate__`
keeps the mathematical content only — a copy rebuilds codecs on demand).

Row encodings come in two flavors, chosen per plan execution:

* **packed** — a row over ``k ≤ PACK_MAX_ARITY`` attributes becomes one
  int in mixed radix base ``n`` (``id0·n^{k-1} + … + id_{k-1}``); whole
  relations become plain ``set``\\ s of ints, and every kernel turns
  into C-speed int-set operations;
* **tuple** — above the packing arity (or if ``n^k`` would overflow a
  machine word) rows are tuples of ints, still far cheaper to hash than
  tuples of arbitrary elements.
"""

from __future__ import annotations

import weakref
from array import array

from repro.structures.structure import Element, Structure
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled

__all__ = [
    "DomainCodec",
    "codec_for",
    "codec_stats",
    "PACK_MAX_ARITY",
    "PACK_KEY_LIMIT",
]

#: Maximal arity packed into a single int key; wider rows fall back to
#: tuple-of-int keys.
PACK_MAX_ARITY = 3

#: Packed keys must stay below this bound (signed 64-bit ``array('q')``
#: territory) — with base ``n`` and arity ``k`` we require ``n**k`` to
#: fit, which it does for every universe this library handles.
PACK_KEY_LIMIT = 2**62


class DomainCodec:
    """Element ↔ dense int id for one (structure, domain) pair.

    ``domain`` is the executor's quantification domain — the structure's
    universe under ``domain="universe"`` semantics, the active domain
    otherwise. Ids are positions in the domain tuple, so decoding is a
    tuple index, not a dict lookup.
    """

    __slots__ = (
        "_structure",
        "domain",
        "base",
        "index",
        "universes",
        "_columns",
        "_packed",
        "epoch",
    )

    def __init__(self, structure: Structure, domain: tuple[Element, ...]) -> None:
        # Weakly referenced: the codec lives in the structure's own memo
        # cache, and a strong backref would make every coded structure a
        # reference cycle — dead structures (with their cached columns
        # and pipelines) would pile up until a cyclic-GC pass instead of
        # dying by refcount. The codec is only ever used through a live
        # structure, so the dereference below cannot dangle in practice.
        self._structure = weakref.ref(structure)
        self.domain = domain
        self.base = len(domain)
        self.index: dict[Element, int] = {
            element: position for position, element in enumerate(domain)
        }
        #: arity -> frozenset of every key over domain^arity, built lazily
        #: by complement kernels (the ∀-as-¬∃¬ pattern complements twice
        #: per quantifier, so the full key universe is worth keeping).
        self.universes: dict[int, frozenset] = {}
        self._columns: dict[str, tuple[array, ...]] = {}
        self._packed: dict[str, frozenset[int]] = {}
        #: The structure epoch the cached columns were built against.
        #: ``codec_for`` compares it on every fetch — a codec built
        #: before an ``insert``/``delete`` holds stale columns and packed
        #: sets and must never be served again.
        self.epoch = structure.epoch

    @property
    def structure(self) -> Structure:
        structure = self._structure()
        if structure is None:  # pragma: no cover - see __init__
            raise ReferenceError("the structure owning this codec is gone")
        return structure

    # -- scalar and row coding ------------------------------------------------

    def encode(self, value: Element) -> int | None:
        """The id of ``value``, or ``None`` when it is outside the domain."""
        return self.index.get(value)

    def decode(self, ident: int) -> Element:
        return self.domain[ident]

    def can_pack(self, arity: int) -> bool:
        """Whether rows of this arity fit a single-int composite key."""
        return arity <= PACK_MAX_ARITY and self.base**arity < PACK_KEY_LIMIT

    def encode_row(self, row: tuple[Element, ...], packed: bool = True) -> int | tuple[int, ...] | None:
        """Pack one element row into a key (``None`` if any value is foreign)."""
        ids = []
        for value in row:
            ident = self.index.get(value)
            if ident is None:
                return None
            ids.append(ident)
        if not packed:
            return tuple(ids)
        key = 0
        for ident in ids:
            key = key * self.base + ident
        return key

    def decode_key(self, key: int | tuple[int, ...], arity: int) -> tuple[Element, ...]:
        """Invert :meth:`encode_row` for a packed-int or tuple-of-int key."""
        domain = self.domain
        if isinstance(key, tuple):
            return tuple(domain[ident] for ident in key)
        ids = [0] * arity
        base = self.base
        for position in range(arity - 1, -1, -1):
            key, ids[position] = divmod(key, base)
        return tuple(domain[ident] for ident in ids)

    def decode_rows(
        self, keys: set[int] | set[tuple[int, ...]], arity: int, packed: bool
    ) -> frozenset[tuple[Element, ...]]:
        """Bulk-decode a kernel result back into element tuples.

        This is the only boundary where the columnar tier touches Python
        element objects again — at the *root* of a plan, where the
        answer set is usually small.
        """
        domain = self.domain
        if arity == 0:
            return frozenset(() for _ in keys)
        if not packed:
            return frozenset(
                tuple(domain[ident] for ident in key) for key in keys
            )
        if arity == 1:
            return frozenset((domain[key],) for key in keys)
        base = self.base
        if arity == 2:
            return frozenset(
                (domain[key // base], domain[key % base]) for key in keys
            )
        if arity == 3:
            square = base * base
            return frozenset(
                (domain[key // square], domain[(key // base) % base], domain[key % base])
                for key in keys
            )
        return frozenset(self.decode_key(key, arity) for key in keys)

    # -- relation materialization --------------------------------------------

    def columns(self, relation: str) -> tuple[array, ...]:
        """The relation as parallel ``array('q')`` id columns (cached).

        Rows mentioning elements outside the domain are dropped — they
        cannot contribute to any answer over this domain (under active-
        domain semantics every relation row is inside the domain anyway).
        """
        cached = self._columns.get(relation)
        if cached is not None:
            return cached
        rows = self.structure.tuples(relation)
        arity = self.structure.signature.arity(relation)
        cols: tuple[array, ...] = tuple(array("q") for _ in range(arity))
        index = self.index
        for row in rows:
            ids = []
            for value in row:
                ident = index.get(value)
                if ident is None:
                    break
                ids.append(ident)
            else:
                for column, ident in zip(cols, ids):
                    column.append(ident)
        self._columns[relation] = cols
        return cols

    def packed_relation(self, relation: str) -> frozenset[int]:
        """The whole relation as a frozenset of packed int keys (cached).

        Only valid when :meth:`can_pack` holds for the relation's arity;
        identity scans (no pins, no equalities, untouched column order)
        return this set directly — a scan with zero per-row work.
        """
        cached = self._packed.get(relation)
        if cached is not None:
            return cached
        cols = self.columns(relation)
        base = self.base
        if not cols:
            packed = frozenset(
                {0} if self.structure.tuples(relation) else set()
            )
        elif len(cols) == 1:
            packed = frozenset(cols[0])
        elif len(cols) == 2:
            packed = frozenset(a * base + b for a, b in zip(cols[0], cols[1]))
        else:
            packed = frozenset(
                (a * base + b) * base + c
                for a, b, c in zip(cols[0], cols[1], cols[2])
            )
        self._packed[relation] = packed
        return packed

    # -- delta maintenance ----------------------------------------------------

    def apply_deltas(self, deltas: list[tuple[str, str, tuple]]) -> None:
        """Patch the cached materializations with applied structure deltas.

        The domain is unchanged by updates (inserts and deletes touch
        relations only, never the universe), so the id bijection,
        ``base``, and the cached key ``universes`` all stay valid — only
        the per-relation columns and packed sets move.  Each delta costs
        O(1) for an insert (append one id per column, one frozenset
        union) and O(rows) for a delete (locate the coded row).  Only
        *materialized* entries are patched; relations never coded against
        this codec are still built lazily from the current contents.

        Rows mentioning elements outside the domain are skipped, exactly
        as :meth:`columns` drops them at build time.  Nullary relations
        carry no columns to patch — their entries are dropped and rebuilt
        on demand.
        """
        for op, relation, row in deltas:
            if not row:
                self._columns.pop(relation, None)
                self._packed.pop(relation, None)
                continue
            ids = []
            for value in row:
                ident = self.index.get(value)
                if ident is None:
                    break
                ids.append(ident)
            if len(ids) != len(row):
                continue  # foreign row: never materialized, nothing to patch
            cols = self._columns.get(relation)
            if cols is not None:
                if op == "insert":
                    for column, ident in zip(cols, ids):
                        column.append(ident)
                else:
                    first = cols[0]
                    for position in range(len(first) - 1, -1, -1):
                        if all(
                            column[position] == ident
                            for column, ident in zip(cols, ids)
                        ):
                            for column in cols:
                                del column[position]
                            break
            packed = self._packed.get(relation)
            if packed is not None:
                key = 0
                for ident in ids:
                    key = key * self.base + ident
                if op == "insert":
                    self._packed[relation] = packed | {key}
                else:
                    self._packed[relation] = packed - {key}
        self.epoch = self.structure.epoch


#: Process-wide patch/rebuild tallies, maintained even with telemetry
#: disabled — benchmarks and tests assert "zero full re-encodes" against
#: these without paying for the metrics registry in the timed loop.
codec_stats = {"patched": 0, "rebuilt": 0}


def codec_for(structure: Structure, domain: tuple[Element, ...]) -> DomainCodec:
    """The (structure, domain) codec, cached on the structure.

    The cache key includes the domain tuple because one structure can be
    queried under both universe and active-domain semantics; under
    ``"universe"`` the domain *is* ``structure.universe``, so the common
    path shares a single codec. Like every ``Structure.cached`` memo the
    codec is excluded from pickles and copies (see
    ``Structure.__getstate__``) and rebuilt on demand.

    **Epoch check.**  ``Structure.insert``/``delete`` keeps the memo
    (see ``Structure._patch_memos``) but bumps the epoch; the check here
    is what makes that safe — a codec stamped with an older epoch is
    never served as-is.  When the structure's delta log still covers the
    gap, the codec is *patched in place* (:meth:`DomainCodec.apply_deltas`
    — O(delta) instead of O(structure)); only a codec too far behind the
    bounded log, adopted from another structure, or built for a
    different domain tuple is rebuilt from scratch.
    """
    key = ("columnar-codec", domain)
    codec = structure.cached(key, lambda: DomainCodec(structure, domain))
    if codec.epoch != structure.epoch:
        deltas = structure.deltas_since(codec.epoch)
        if (
            deltas is not None
            and codec.domain == domain
            and codec._structure() is structure
        ):
            codec.apply_deltas(deltas)
            codec_stats["patched"] += 1
            if _telemetry_enabled():
                _counter("columnar.codec.patched").inc()
        else:
            codec = DomainCodec(structure, domain)
            structure._cache[key] = codec
            codec_stats["rebuilt"] += 1
            if _telemetry_enabled():
                _counter("columnar.codec.rebuilt").inc()
    return codec  # type: ignore[return-value]
