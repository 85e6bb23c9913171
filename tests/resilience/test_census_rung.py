"""The default chain's census rung runs the engine's census evaluators."""

import gc

from repro.engine import Engine
from repro.locality.bounded_degree import BoundedDegreeEvaluator
from repro.logic.parser import parse
from repro.resilience import default_chain
from repro.structures.builders import undirected_cycle

MUTUAL = parse("exists x exists y (E(x, y) & E(y, x))")


def _census_rung(chain):
    rung = chain.rungs[1]
    assert rung.name == "bounded-degree"
    return rung


def test_rung_shares_the_fast_path_census_table():
    engine = Engine()
    chain = default_chain(engine)
    assert engine.evaluate(undirected_cycle(12), MUTUAL)
    evaluator = engine._bounded_degree.get(MUTUAL)
    hits = evaluator.stats.hits
    # A distinct but equal-census structure: the fast path's table entry
    # answers it, with no naive evaluation.
    rows = _census_rung(chain).answers(undirected_cycle(12), MUTUAL, None)
    assert rows == frozenset({()})
    assert evaluator.stats.hits == hits + 1


def test_rung_keeps_no_evaluator_store_of_its_own():
    engine = Engine()
    rung = _census_rung(default_chain(engine))
    cycle = undirected_cycle(6)
    sentences = {parse(f"exists v{i}. E(v{i}, v{i})") for i in range(100)}
    for sentence in sentences:
        assert rung.answers(cycle, sentence, None) == frozenset()
    gc.collect()
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, BoundedDegreeEvaluator) and obj.sentence in sentences
    ]
    assert len(alive) <= 64
