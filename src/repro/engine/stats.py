"""Structure statistics: the planner's view of the data.

A :class:`StructureStats` snapshot holds what a database catalog would:
per-relation cardinalities and the universe size. The universe size is
the domain the planner's estimates range over: the engine quantifies
over the universe. Collection reads each relation's size once and is
memoized per structure, so repeated engine calls pay for it once; it
builds no Gaifman graph (the locality fast path reads the memoized
:meth:`~repro.structures.structure.Structure.max_degree` itself).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.structures.structure import Structure

__all__ = ["StructureStats", "collect_stats"]


@dataclass(frozen=True)
class StructureStats:
    """Catalog statistics for one structure (immutable, hashable)."""

    universe_size: int
    cardinalities: tuple[tuple[str, int], ...]
    has_constants: bool

    def cardinality(self, relation: str) -> int:
        """Number of tuples in ``relation`` (0 for unknown symbols)."""
        for name, count in self.cardinalities:
            if name == relation:
                return count
        return 0

    @property
    def plan_key(self) -> tuple:
        """The part of the stats a plan's shape depends on.

        Two structures with the same plan key get the same plan from the
        planner, so the plan cache can serve both with one entry.
        """
        return (self.universe_size, self.cardinalities)

    def __repr__(self) -> str:
        rels = ", ".join(f"{name}:{count}" for name, count in self.cardinalities)
        return f"StructureStats(|A|={self.universe_size}, {rels or 'no relations'})"


def collect_stats(structure: Structure) -> StructureStats:
    """Collect (and memoize on the structure) planner statistics."""

    def compute() -> StructureStats:
        cardinalities = tuple(
            (name, len(structure.relations[name]))
            for name in sorted(structure.signature.relation_names())
        )
        return StructureStats(
            universe_size=structure.size,
            cardinalities=cardinalities,
            has_constants=bool(structure.constants),
        )

    return structure.cached(("engine-stats",), compute)  # type: ignore[return-value]
