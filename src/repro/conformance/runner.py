"""The differential runner: pairwise cross-checks plus metamorphic oracles.

For every case the runner (1) answers the query on every applicable
backend and compares the answer sets pairwise against the first
applicable backend (``naive`` by default — the reference semantics), and
(2) applies every metamorphic oracle.  Disagreements, oracle violations
and unexpected backend errors become :class:`Failure` records carrying
the full serialized case, ready for shrinking and corpus promotion.

The generated case stream is hashed (SHA-256 over the serialized JSON of
every case) into :attr:`ConformanceReport.stream_digest`; the
determinism test asserts that two runs of the same seed produce the
same digest.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.conformance.backends import BackendRegistry, default_registry
from repro.conformance.generate import Case, CaseGenerator
from repro.conformance.oracles import Oracle, default_oracles
from repro.conformance.serialize import case_to_json
from repro.errors import BudgetExceededError, FMTError
from repro.resilience.budget import Budget
from repro.resilience.faults import get_injector

__all__ = ["Failure", "ConformanceReport", "Runner"]


@dataclass
class Failure:
    """One conformance violation, replayable from the embedded case."""

    case: Case
    kind: str  # "pairwise", "error", or "oracle:<name>"
    backends: tuple[str, ...]
    detail: str
    shrunk: Case | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "case": self.case.name,
            "kind": self.kind,
            "backends": list(self.backends),
            "detail": self.detail,
            "shrunk": None if self.shrunk is None else self.shrunk.name,
        }


@dataclass
class ConformanceReport:
    """Outcome of one conformance run."""

    seed: int | None
    cases: int = 0
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    backend_cases: dict[str, int] = field(default_factory=dict)
    oracle_checks: dict[str, int] = field(default_factory=dict)
    budgets_exceeded: dict[str, int] = field(default_factory=dict)
    faults_injected: int = 0
    stream_digest: str = ""

    @property
    def ok(self) -> bool:
        """No *wrong* answers — budget refusals are allowed outcomes."""
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "checks": self.checks,
            "ok": self.ok,
            "failures": [failure.to_dict() for failure in self.failures],
            "backend_cases": dict(sorted(self.backend_cases.items())),
            "oracle_checks": dict(sorted(self.oracle_checks.items())),
            "budgets_exceeded": dict(sorted(self.budgets_exceeded.items())),
            "faults_injected": self.faults_injected,
            "stream_digest": self.stream_digest,
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        backends = ", ".join(
            f"{name}×{count}" for name, count in sorted(self.backend_cases.items())
        )
        extra = ""
        exceeded = sum(self.budgets_exceeded.values())
        if exceeded:
            extra += f"; {exceeded} budget refusal(s)"
        if self.faults_injected:
            extra += f"; {self.faults_injected} fault(s) injected"
        return (
            f"conformance: {status} — {self.cases} cases, {self.checks} checks "
            f"(backends: {backends or 'none'}{extra}; digest {self.stream_digest[:12]})"
        )


class Runner:
    """Cross-check a stream (or an explicit list) of cases.

    Parameters
    ----------
    registry:
        The backend registry; defaults to every path the library ships.
    backends:
        Optional backend-name subset (CLI ``--backends``).
    oracles:
        Metamorphic oracles to apply; default all. Pass ``[]`` for
        pairwise-only runs.
    case_budget:
        Optional per-call :class:`~repro.resilience.budget.Budget`
        (CLI ``--deadline-ms``). Each backend invocation gets a fresh
        token started from this spec, so one slow backend cannot starve
        the others. A backend that raises
        :class:`~repro.errors.BudgetExceededError` under its budget is
        recorded in :attr:`ConformanceReport.budgets_exceeded` and
        excluded from that case's pairwise comparison — a typed refusal
        is an allowed outcome; only *wrong answers* fail the run.
    """

    def __init__(
        self,
        registry: BackendRegistry | None = None,
        backends: list[str] | None = None,
        oracles: list[Oracle] | None = None,
        case_budget: Budget | None = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.backend_names = backends
        if backends is not None:
            for name in backends:
                self.registry.get(name)  # fail fast on typos
        self.oracles = oracles if oracles is not None else default_oracles()
        self.case_budget = case_budget

    # -- running -------------------------------------------------------------

    def run(
        self,
        budget: int,
        seed: int = 0,
        generator: CaseGenerator | None = None,
    ) -> ConformanceReport:
        """Fuzz ``budget`` generated cases from ``seed``."""
        generator = generator if generator is not None else CaseGenerator(seed=seed)
        report = ConformanceReport(seed=seed)
        digest = hashlib.sha256()
        fired_before = self._faults_fired()
        for case in generator.stream(budget):
            digest.update(case_to_json(case).encode())
            self._check_case(case, report)
        report.stream_digest = digest.hexdigest()
        report.faults_injected = self._faults_fired() - fired_before
        return report

    def replay(self, cases: Iterable[Case]) -> ConformanceReport:
        """Re-check explicit cases (the corpus replay path)."""
        report = ConformanceReport(seed=None)
        digest = hashlib.sha256()
        fired_before = self._faults_fired()
        for case in cases:
            digest.update(case_to_json(case).encode())
            self._check_case(case, report)
        report.stream_digest = digest.hexdigest()
        report.faults_injected = self._faults_fired() - fired_before
        return report

    @staticmethod
    def _faults_fired() -> int:
        injector = get_injector()
        return injector.fired if injector is not None else 0

    def _check_case(self, case: Case, report: ConformanceReport) -> None:
        report.cases += 1
        backends = self.registry.applicable(case, self.backend_names)
        answers: dict[str, Any] = {}
        live = []
        for backend in backends:
            report.backend_cases[backend.name] = (
                report.backend_cases.get(backend.name, 0) + 1
            )
            token = self.case_budget.start() if self.case_budget is not None else None
            try:
                answers[backend.name] = backend.answers(
                    case.structure, case.formula, budget=token
                )
            except BudgetExceededError:
                # A typed refusal under budget pressure: the backend said
                # "can't afford it", which is exactly the contract. Count
                # it and leave the backend out of this case's comparison.
                report.budgets_exceeded[backend.name] = (
                    report.budgets_exceeded.get(backend.name, 0) + 1
                )
            except FMTError as error:
                report.failures.append(
                    Failure(
                        case=case,
                        kind="error",
                        backends=(backend.name,),
                        detail=f"{type(error).__name__}: {error}",
                    )
                )
            else:
                live.append(backend)
        if len(live) >= 2:
            reference = live[0]
            for other in live[1:]:
                report.checks += 1
                if answers[reference.name] != answers[other.name]:
                    report.failures.append(
                        Failure(
                            case=case,
                            kind="pairwise",
                            backends=(reference.name, other.name),
                            detail=(
                                f"{reference.name}={sorted(answers[reference.name])} "
                                f"vs {other.name}={sorted(answers[other.name])}"
                            ),
                        )
                    )
        for oracle in self.oracles:
            report.checks += 1
            report.oracle_checks[oracle.name] = (
                report.oracle_checks.get(oracle.name, 0) + 1
            )
            try:
                violations = oracle.check(case, live)
            except FMTError as error:
                violations = [f"oracle raised {type(error).__name__}: {error}"]
            for violation in violations:
                report.failures.append(
                    Failure(
                        case=case,
                        kind=f"oracle:{oracle.name}",
                        backends=tuple(backend.name for backend in live),
                        detail=violation,
                    )
                )

    # -- shrinking support ---------------------------------------------------

    def failure_predicate(self, failure: Failure) -> Callable[[Case], bool]:
        """A predicate deciding whether a candidate case still exhibits
        ``failure`` — the input to the delta-debugging shrinker.

        Derived oracle inputs are functions of the case *seed* (which the
        shrinker preserves), so oracle failures replay stably while the
        structure and formula shrink around them.
        """
        if failure.kind == "pairwise":
            left = self.registry.get(failure.backends[0])
            right = self.registry.get(failure.backends[1])

            def pairwise(candidate: Case) -> bool:
                if not (
                    left.applicable(candidate.structure, candidate.formula)[0]
                    and right.applicable(candidate.structure, candidate.formula)[0]
                ):
                    return False
                try:
                    return left.answers(
                        candidate.structure, candidate.formula
                    ) != right.answers(candidate.structure, candidate.formula)
                except FMTError:
                    return False

            return pairwise
        if failure.kind == "error":
            backend = self.registry.get(failure.backends[0])

            def errors(candidate: Case) -> bool:
                if not backend.applicable(candidate.structure, candidate.formula)[0]:
                    return False
                try:
                    backend.answers(candidate.structure, candidate.formula)
                except FMTError:
                    return True
                return False

            return errors
        if failure.kind.startswith("oracle:"):
            name = failure.kind.split(":", 1)[1]
            oracle = next(o for o in self.oracles if o.name == name)

            def violated(candidate: Case) -> bool:
                live = self.registry.applicable(candidate, self.backend_names)
                try:
                    return bool(oracle.check(candidate, live))
                except FMTError:
                    return True

            return violated
        raise FMTError(f"unknown failure kind {failure.kind!r}")
