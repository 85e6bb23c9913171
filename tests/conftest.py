"""Shared fixtures for the fmtoolbox test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Make `import strategies` (the shared hypothesis strategies) work from
# every test subpackage.
sys.path.insert(0, str(Path(__file__).parent))

# A tight default profile keeps the property tests fast; set
# HYPOTHESIS_PROFILE=thorough for a deeper run.
settings.register_profile("fast", max_examples=25, deadline=None)
settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture
def triangle():
    """The directed 3-cycle 0 → 1 → 2 → 0."""
    from repro.structures import directed_cycle

    return directed_cycle(3)


@pytest.fixture
def small_random_graphs():
    """A deterministic assortment of small random graphs."""
    from repro.structures import random_graph

    return [random_graph(n, p, seed=seed) for n, p, seed in [
        (3, 0.3, 1), (4, 0.5, 2), (5, 0.4, 3), (5, 0.7, 4), (6, 0.25, 5),
    ]]


@pytest.fixture
def scan_builds(monkeypatch) -> list:
    """``(relation, shape)`` of every scan the columnar codec's memo builds."""
    from repro.engine.columnar.codec import DomainCodec

    built: list = []
    scan = DomainCodec.scan

    def recording(codec, relation, shape, build):
        def recorded():
            built.append((relation, shape))
            return build()

        return scan(codec, relation, shape, recorded)

    monkeypatch.setattr(DomainCodec, "scan", recording)
    return built


@pytest.fixture
def formula_hashes(monkeypatch):
    """The class name of every formula node whose hash is computed (not
    read from the node), in order; see :mod:`repro.logic.syntax`."""
    from repro.logic import syntax

    computed: list = []
    for node in (
        syntax.Atom, syntax.Eq, syntax.Top, syntax.Bottom, syntax.Not, syntax.And,
        syntax.Or, syntax.Implies, syntax.Iff, syntax.Exists, syntax.Forall,
    ):
        field_hash = node._field_hash

        def counted(self, field_hash=field_hash):
            computed.append(type(self).__name__)
            return field_hash(self)

        monkeypatch.setattr(node, "_field_hash", counted)
    return computed
