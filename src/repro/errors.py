"""Exception hierarchy for fmtoolbox.

Every error raised deliberately by the library derives from
:class:`FMTError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class FMTError(Exception):
    """Base class for all errors raised by fmtoolbox."""


class SignatureError(FMTError):
    """A symbol was used inconsistently with its signature declaration.

    Raised, for example, when a relation atom has the wrong arity, when a
    structure interprets a symbol absent from its signature, or when two
    structures over different signatures are combined.
    """


class FormulaError(FMTError):
    """A formula is malformed or used where a different shape is required.

    Raised, for example, when a sentence is required but the formula has
    free variables, or when an AST node carries ill-typed children.
    """


class ParseError(FMTError):
    """The formula parser rejected its input."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class StructureError(FMTError):
    """A structure is malformed: tuples outside the universe, bad arity, etc."""


class EvaluationError(FMTError):
    """Query evaluation failed, e.g. a free variable had no binding."""


class GameError(FMTError):
    """A game was configured or played incorrectly.

    Raised, for example, when a strategy returns an element outside the
    structure it was asked to play in.
    """


class LocalityError(FMTError):
    """A locality tool was applied outside its domain of validity.

    Raised, for example, when the bounded-degree evaluator is given a
    structure whose degree exceeds the bound it was compiled for.
    """


class DatalogError(FMTError):
    """A Datalog program is unsafe, unstratifiable, or otherwise invalid."""


class AutomatonError(FMTError):
    """An automaton is malformed (unknown states, bad alphabet, ...)."""


class ServerError(FMTError):
    """A request to the query service failed at the service layer.

    Carries the HTTP ``status`` the wire layer should answer with: 404
    for references to unknown structures/prepared queries, 409
    for conflicting re-preparation, 400 for malformed requests.  Budget
    refusals are *not* server errors — they raise
    :class:`BudgetExceededError` and map to 429/503.
    """

    def __init__(self, message: str, *, status: int = 400) -> None:
        self.status = status
        super().__init__(message)


class UnknownResourceError(ServerError):
    """A request referenced a structure or prepared query that does not
    exist (HTTP 404)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, status=404)


class StaleStreamError(FMTError):
    """An :class:`~repro.incremental.enumeration.AnswerStream` was pulled
    after its structure mutated.

    A stream pins the structure's epoch at creation; ``insert``/``delete``
    invalidate the preprocessing the constant-delay guarantee rests on, so
    rather than silently yielding answers for a structure that no longer
    exists, ``next()`` raises this error.  Re-plan with
    :meth:`Engine.enumerate` to stream the updated answers.
    """

    def __init__(self, pinned_epoch: int, current_epoch: int) -> None:
        self.pinned_epoch = pinned_epoch
        self.current_epoch = current_epoch
        super().__init__(
            "answer stream is stale: structure moved from epoch "
            f"{pinned_epoch} to {current_epoch} after preprocessing"
        )


class BudgetExceededError(FMTError):
    """A computation exceeded an explicit resource budget supplied by the caller.

    Exact solvers in this library (EF games, isomorphism, ∃SO checking) run
    exponential-time algorithms; callers may bound the work and receive this
    error instead of an unbounded computation.  The resilience layer
    (:mod:`repro.resilience`) raises the same type for wall-clock deadlines,
    row budgets, and cooperative cancellation, so "ran out of resources" is
    one catchable condition across every evaluation path.

    ``spent``/``budget`` quantify the overrun when the overrun is countable
    (solver nodes, rows, elapsed milliseconds); both default to 0 for purely
    qualitative exhaustion such as an external ``CancelToken.cancel()``.
    """

    def __init__(self, message: str, *, spent: int = 0, budget: int = 0) -> None:
        self.spent = spent
        self.budget = budget
        if spent or budget:
            message = f"{message}: spent {spent} of budget {budget}"
        super().__init__(message)


#: The name the resilience layer uses for the same condition.
BudgetExceeded = BudgetExceededError


class InjectedFaultError(BudgetExceededError):
    """A deliberately injected fault (``REPRO_FAULT_INJECT``).

    Subclasses :class:`BudgetExceededError` so the fallback chain and the
    conformance runner treat an injected failure exactly like a genuine
    resource exhaustion: degrade or report, never return a wrong answer.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"injected fault at {site}")
