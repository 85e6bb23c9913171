"""CircuitBreaker and FallbackChain: degrade, never lie."""

import pytest

from repro.conformance.corpus import load_corpus
from repro.errors import BudgetExceededError, FMTError
from repro.eval.evaluator import answers as naive_answers
from repro.logic.parser import parse
from repro.resilience import (
    CircuitBreaker,
    FallbackChain,
    FaultInjector,
    Rung,
    default_chain,
    reset_injector,
    resilient_answers,
    set_injector,
)
from repro.structures.builders import directed_cycle


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_opens_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half-open" and breaker.allow()

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(4.9)
        assert breaker.state == "open"
        clock.advance(0.1)
        assert breaker.state == "half-open"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


ANSWER = frozenset({()})


def _ok_rung(name):
    return Rung(name, lambda structure, formula, token: ANSWER)


def _broke_rung(name):
    def answers(structure, formula, token):
        raise BudgetExceededError(f"{name} over budget")

    return Rung(name, answers)


class TestFallbackChain:
    def setup_method(self):
        self.structure = directed_cycle(3)
        self.sentence = parse("exists x. E(x,x) or not E(x,x)")

    def test_first_rung_answers_when_healthy(self):
        chain = FallbackChain([_ok_rung("fast"), _ok_rung("slow")])
        degradations = []
        answers = chain.answers(self.structure, self.sentence, degradations=degradations)
        assert answers == ANSWER
        assert degradations == []

    def test_budget_failure_degrades_and_records(self):
        chain = FallbackChain([_broke_rung("fast"), _ok_rung("slow")])
        degradations = []
        answers = chain.answers(self.structure, self.sentence, degradations=degradations)
        assert answers == ANSWER
        assert [d.rung for d in degradations] == ["fast"]
        assert "over budget" in degradations[0].error
        # The chain keeps no history of its own: each call owns its list.
        assert not hasattr(chain, "degradations")

    def test_non_budget_error_propagates_immediately(self):
        def buggy(structure, formula, token):
            raise FMTError("a genuine bug")

        chain = FallbackChain([Rung("buggy", buggy), _ok_rung("slow")])
        degradations = []
        with pytest.raises(FMTError, match="a genuine bug"):
            chain.answers(self.structure, self.sentence, degradations=degradations)
        assert degradations == []

    def test_inapplicable_rung_is_skipped_silently(self):
        rung = Rung(
            "picky",
            lambda structure, formula, token: ANSWER,
            applicable=lambda structure, formula: (False, "not today"),
        )
        chain = FallbackChain([rung, _ok_rung("slow")])
        degradations = []
        answers = chain.answers(self.structure, self.sentence, degradations=degradations)
        assert answers == ANSWER
        assert degradations == []

    def test_all_rungs_exhausted_raises_last_error(self):
        chain = FallbackChain([_broke_rung("fast"), _broke_rung("slow")])
        with pytest.raises(BudgetExceededError, match="slow over budget"):
            chain.answers(self.structure, self.sentence)

    def test_no_applicable_rung_raises_typed_error(self):
        rung = Rung(
            "picky",
            lambda structure, formula, token: ANSWER,
            applicable=lambda structure, formula: (False, "never"),
        )
        chain = FallbackChain([rung])
        with pytest.raises(BudgetExceededError, match="no applicable rung"):
            chain.answers(self.structure, self.sentence)

    def test_circuit_skips_hammered_rung(self):
        chain = FallbackChain(
            [_broke_rung("fast"), _ok_rung("slow")], failure_threshold=2
        )
        chain.answers(self.structure, self.sentence)
        chain.answers(self.structure, self.sentence)
        assert chain.breakers["fast"].state == "open"
        degradations = []
        chain.answers(self.structure, self.sentence, degradations=degradations)
        # The open breaker skips the rung without another failed attempt.
        assert degradations == []

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackChain([])


class TestDefaultChainConformance:
    def test_matches_unbudgeted_reference_on_corpus(self):
        chain = default_chain()
        cases = load_corpus()
        assert cases, "tests/corpus must hold the shrunk replay cases"
        for case in cases:
            expected = naive_answers(case.structure, case.formula)
            assert chain.answers(case.structure, case.formula) == expected, case.name

    def test_fault_campaign_degrades_but_never_lies(self):
        set_injector(FaultInjector(period=2))
        try:
            chain = default_chain()
            cases = load_corpus()
            degradations = []
            for case in cases:
                expected = naive_answers(case.structure, case.formula)
                answers = chain.answers(case.structure, case.formula, degradations=degradations)
                assert answers == expected, case.name
            assert degradations, "period-2 injection must force degradations"
        finally:
            reset_injector()

    def test_resilient_answers_one_shot(self):
        structure = directed_cycle(4)
        sentence = parse("forall x. exists y. E(x,y)")
        assert resilient_answers(structure, sentence) == ANSWER
