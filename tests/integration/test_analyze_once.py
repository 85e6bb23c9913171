"""Analyze each formula once: warm reads walk their formula zero times.

Data complexity fixes the query, so what depends on the query alone is
paid once, in :func:`repro.logic.analysis.analyze`.  The walkers are
the recursive analyses of :mod:`repro.logic.analysis`
(``free_variables``, ``quantifier_rank``, ``subformulas`` and
``constants_of``); a walk is one outermost call, and what a walker
calls of itself or of another walker belongs to the same walk.  The
formula's hash, which keys the engine's caches, is kept on each node
the same way, so a warm read hashes no formula either.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter

import pytest

from repro.engine import Engine
from repro.logic import analysis
from repro.logic.parser import parse
from repro.queries.zoo import fo_graph_corpus
from repro.resilience.faults import FaultInjector, reset_injector, set_injector
from repro.server import wire
from repro.server.service import QueryService
from repro.structures.builders import random_graph, undirected_cycle

WALKERS = ("free_variables", "quantifier_rank", "subformulas", "constants_of")


@pytest.fixture()
def walks(monkeypatch) -> Counter:
    """Walks per walker, counted through every reference a ``repro``
    module holds to one (modules import the walkers by name)."""
    counts: Counter = Counter()
    depth = [0]

    def counting(name, walker):
        @functools.wraps(walker)
        def counted(*args, **kwargs):
            if depth[0] == 0:
                counts[name] += 1
            depth[0] += 1
            try:
                return walker(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    wrapped = {
        id(getattr(analysis, name)): counting(name, getattr(analysis, name))
        for name in WALKERS
    }
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if id(value) in wrapped and value is wrapped[id(value)].__wrapped__:
                monkeypatch.setattr(module, attribute, wrapped[id(value)])
    return counts


@pytest.fixture()
def zoo_service() -> tuple[QueryService, str]:
    service = QueryService()
    return service, service.add_structure(random_graph(30, 0.15, seed=0))


def test_warm_prepared_reads_walk_nothing(walks, zoo_service):
    service, structure_id = zoo_service
    names = []
    for query in fo_graph_corpus():
        text = wire.format_formula(query.formula)
        names.append(service.prepare("t", text, structure_id=structure_id).name)
        service.answers("t", structure_id, query=names[-1])
    walks.clear()
    for name in names:
        service.answers("t", structure_id, query=name)
    assert walks == Counter()


def test_warm_prepared_reads_hash_no_formula(formula_hashes, zoo_service):
    """Every answer-cache lookup keys on the formula; the hash each node
    keeps (:mod:`repro.logic.syntax`) makes that O(1) once computed."""
    service, structure_id = zoo_service
    names = []
    for query in fo_graph_corpus():
        text = wire.format_formula(query.formula)
        names.append(service.prepare("t", text, structure_id=structure_id).name)
        service.answers("t", structure_id, query=names[-1])
    formula_hashes.clear()
    hits = service.engine.answer_cache.hits
    for name in names:
        service.answers("t", structure_id, query=name)
    assert service.engine.answer_cache.hits > hits
    assert formula_hashes == []


def test_degraded_warm_prepared_reads_walk_nothing(walks, zoo_service):
    """Injected faults push re-executed prepared reads down the fallback
    chain, whose naive rung reads the analysis record as well."""
    service, structure_id = zoo_service
    structure = service.structure(structure_id)
    names = []
    for query in fo_graph_corpus():
        text = wire.format_formula(query.formula)
        names.append(service.prepare("t", text, structure_id=structure_id).name)
        service.answers("t", structure_id, query=names[-1])
    walks.clear()
    degradations = service.tenant("t").counters["degradations"]
    set_injector(FaultInjector(period=2))
    try:
        for _ in range(3):
            for name in names:
                service.engine.invalidate(structure)
                service.answers("t", structure_id, query=name)
    finally:
        reset_injector()
    assert walks == Counter()
    assert service.tenant("t").counters["degradations"] > degradations


def test_warm_dispatched_evaluate_walks_nothing(walks):
    engine = Engine()
    cycle = undirected_cycle(1000)
    sentence = parse("forall x exists y (E(x, y) & E(y, x))")
    assert engine.evaluate(cycle, sentence)
    walks.clear()
    dispatches = engine.stats.fast_path_dispatches
    assert engine.evaluate(cycle, sentence)
    assert engine.stats.fast_path_dispatches == dispatches + 1
    assert walks == Counter()


def test_adhoc_read_analyzes_its_formula_once(monkeypatch, zoo_service):
    service, structure_id = zoo_service
    made = []
    make = analysis.Analysis.__init__

    def counting_init(self, *args, **kwargs):
        make(self, *args, **kwargs)
        made.append(self.names)

    monkeypatch.setattr(analysis.Analysis, "__init__", counting_init)
    for query in fo_graph_corpus():
        text = wire.format_formula(query.formula)
        for _ in range(2):  # a cold plan cache, then a warm one
            made.clear()
            page = service.answers("t", structure_id, formula=text)
            assert made == [page.free_names], text
