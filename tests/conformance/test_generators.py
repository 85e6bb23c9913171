"""Generator determinism and distribution sanity.

The headline contract: the case stream is a pure function of the seed.
Same seed ⇒ byte-identical serialized stream, and the runner's digest
over it matches the generator's own bytes.
"""

from __future__ import annotations

import hashlib

from repro.conformance.generate import (
    SIGNATURES,
    Case,
    CaseGenerator,
    FormulaGenerator,
    StructureGenerator,
)
from repro.conformance.runner import Runner
from repro.conformance.serialize import case_to_json
from repro.logic.analysis import free_variables, quantifier_rank


def stream_bytes(seed: int, budget: int) -> bytes:
    return b"".join(
        case_to_json(case).encode() for case in CaseGenerator(seed=seed).stream(budget)
    )


def test_same_seed_same_bytes():
    assert stream_bytes(7, 40) == stream_bytes(7, 40)


def test_different_seeds_differ():
    assert stream_bytes(7, 40) != stream_bytes(8, 40)


def test_budget_extends_the_same_stream():
    """Case i is independent of the budget: stream(10) is a prefix of stream(20)."""
    short = stream_bytes(3, 10)
    long = stream_bytes(3, 20)
    assert long.startswith(short)


def test_case_accessible_by_index():
    generator = CaseGenerator(seed=5)
    direct = generator.case(17)
    streamed = list(generator.stream(18))[17]
    assert case_to_json(direct) == case_to_json(streamed)


def test_runner_digest_deterministic():
    """Same --seed ⇒ byte-identical case stream."""
    report = Runner().run(12, seed=0)
    assert report.ok
    expected = hashlib.sha256(stream_bytes(0, 12)).hexdigest()
    assert report.stream_digest == expected


def test_signatures_all_visited():
    seen = {case.structure.signature for case in CaseGenerator(seed=0).stream(120)}
    assert seen == set(SIGNATURES)


def test_bounded_degree_generator_respects_bound():
    import random

    generator = StructureGenerator(SIGNATURES[0])
    for seed in range(30):
        structure = generator.draw_bounded_degree(
            random.Random(seed), max_size=6, degree_bound=3
        )
        assert structure.max_degree() <= 3


def test_formula_generator_budget_and_closure():
    import random

    from repro.logic.analysis import formula_size

    formulas = FormulaGenerator(SIGNATURES[0])
    for seed in range(30):
        rng = random.Random(seed)
        sentence = formulas.draw_sentence(rng, budget=6)
        assert not free_variables(sentence)
        assert formula_size(sentence) >= 1
        assert quantifier_rank(sentence) <= formula_size(sentence)


def test_case_is_sentence_flag():
    from repro.logic.builder import V, atom, exists

    x = V("x")
    open_case = Case("open", None, atom("E", x, x))
    closed_case = Case("closed", None, exists(x, atom("E", x, x)))
    assert not open_case.is_sentence
    assert closed_case.is_sentence
