"""Budgets and cooperative cancellation (S17).

Naive FO evaluation is PSPACE-hard in combined complexity (§2 of the
paper), so a deployment that serves arbitrary queries needs *admission
control*: every evaluation path must be stoppable — by a wall-clock
deadline, by a cap on materialized rows, by a cap on solver nodes, or by
an explicit external cancellation — and must stop by raising the typed
:class:`~repro.errors.BudgetExceededError`, never by hanging and never
by returning a wrong answer.

Two objects implement this:

* :class:`Budget` — an immutable *specification*: deadline in
  milliseconds, row budget, solver-node budget. Budgets are reusable;
  each :meth:`Budget.start` stamps a fresh live token.
* :class:`CancelToken` — one *live* admission: the absolute monotonic
  deadline plus thread-safe consumption counters. The token is threaded
  through the hot loops of the executor (per operator batch), the
  locality census (per ball), the EF solver (per expanded node) and the
  naive evaluator (per quantifier binding). Checks are cooperative:
  loops call :meth:`CancelToken.tick` (amortized — a real clock read
  every ``stride`` calls) or :meth:`CancelToken.check` (always reads
  the clock).

``REPRO_DEFAULT_DEADLINE_MS`` applies a default deadline to every entry
point that accepts a budget but was given none — the CI resilience job
runs the whole suite under it to prove the checking machinery is
everywhere and changes no answers.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.errors import BudgetExceededError, FMTError

__all__ = [
    "Budget",
    "CancelToken",
    "as_token",
    "default_budget_from_env",
]

#: How many :meth:`CancelToken.tick` calls elapse between clock reads.
DEFAULT_STRIDE = 64


@dataclass(frozen=True)
class Budget:
    """A resource envelope for one evaluation: the *specification* side.

    ``deadline_ms``
        Wall-clock allowance for the whole call, in milliseconds.
    ``max_rows``
        Cap on rows materialized by plan execution (admission control
        for combined-complexity blowups: a join that explodes trips the
        budget long before it exhausts memory).
    ``max_solver_nodes``
        Cap on game-solver position expansions (EF games are the
        exponential corner of the toolbox).
    ``stride``
        Loop iterations between clock reads in :meth:`CancelToken.tick`.

    A ``Budget`` is immutable and reusable: every :meth:`start` returns
    a fresh :class:`CancelToken` whose deadline is stamped *now*.
    """

    deadline_ms: float | None = None
    max_rows: int | None = None
    max_solver_nodes: int | None = None
    stride: int = DEFAULT_STRIDE

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError(f"max_rows must be positive, got {self.max_rows}")
        if self.max_solver_nodes is not None and self.max_solver_nodes < 1:
            raise ValueError(
                f"max_solver_nodes must be positive, got {self.max_solver_nodes}"
            )
        if self.stride < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")

    def start(self) -> CancelToken:
        """Stamp a live token: the deadline clock starts now."""
        deadline = None
        if self.deadline_ms is not None:
            deadline = time.monotonic() + self.deadline_ms / 1000.0
        return CancelToken(
            deadline=deadline,
            max_rows=self.max_rows,
            max_solver_nodes=self.max_solver_nodes,
            stride=self.stride,
        )


class CancelToken:
    """One live admission: absolute deadline + thread-safe counters.

    A token is shared by every thread and operator cooperating on one
    evaluation. Reads (deadline comparison, cancelled flag) are
    lock-free; counter consumption takes the token's lock so concurrent
    executor threads cannot double-spend the row budget.
    """

    __slots__ = (
        "deadline",
        "max_rows",
        "max_solver_nodes",
        "stride",
        "rows",
        "nodes",
        "_lock",
        "_cancelled",
        "_reason",
        "_ticks",
    )

    def __init__(
        self,
        deadline: float | None = None,
        max_rows: int | None = None,
        max_solver_nodes: int | None = None,
        stride: int = DEFAULT_STRIDE,
    ) -> None:
        self.deadline = deadline
        self.max_rows = max_rows
        self.max_solver_nodes = max_solver_nodes
        self.stride = max(stride, 1)
        self.rows = 0
        self.nodes = 0
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""
        self._ticks = 0

    # -- external cancellation ----------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Flip the token; every cooperating loop raises at its next check."""
        with self._lock:
            self._cancelled = True
            self._reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    # -- checks --------------------------------------------------------------

    def check(self, where: str = "") -> None:
        """Raise :class:`BudgetExceededError` if cancelled or past deadline."""
        if self._cancelled:
            site = f" at {where}" if where else ""
            raise BudgetExceededError(f"{self._reason}{site}")
        if self.deadline is not None:
            now = time.monotonic()
            if now > self.deadline:
                site = f" at {where}" if where else ""
                over_ms = int((now - self.deadline) * 1000.0)
                raise BudgetExceededError(
                    f"deadline exceeded{site} ({over_ms}ms past the deadline)"
                )

    def tick(self, where: str = "") -> None:
        """Amortized :meth:`check`: reads the clock every ``stride`` calls.

        The counter is deliberately unlocked — under CPython the ``+=``
        is safe enough, and a lost tick only shifts a clock read by one
        stride, it never skips the check forever.
        """
        self._ticks += 1
        if self._cancelled or self._ticks % self.stride == 0:
            self.check(where)

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline (``None`` if unbounded, ≥ 0.0)."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)

    # -- consumption ---------------------------------------------------------

    def consume_rows(self, amount: int, where: str = "") -> None:
        """Spend ``amount`` rows; raise once the row budget is exhausted.

        Also performs a deadline check — operators call this once per
        materialized batch, which is exactly the per-operator-batch
        cadence the deadline needs.
        """
        with self._lock:
            self.rows += amount
            spent = self.rows
        if self.max_rows is not None and spent > self.max_rows:
            site = f" at {where}" if where else ""
            raise BudgetExceededError(
                f"row budget exceeded{site}", spent=spent, budget=self.max_rows
            )
        self.check(where)

    def consume_nodes(self, amount: int = 1, where: str = "") -> None:
        """Spend solver nodes; deadline-checked every ``stride`` nodes."""
        with self._lock:
            self.nodes += amount
            spent = self.nodes
        if self.max_solver_nodes is not None and spent > self.max_solver_nodes:
            site = f" at {where}" if where else ""
            raise BudgetExceededError(
                f"solver-node budget exceeded{site}",
                spent=spent,
                budget=self.max_solver_nodes,
            )
        self.tick(where)

    def __repr__(self) -> str:
        remaining = self.remaining_seconds()
        clock = "unbounded" if remaining is None else f"{remaining * 1000.0:.0f}ms left"
        state = "cancelled" if self._cancelled else clock
        return (
            f"CancelToken({state}, rows={self.rows}/{self.max_rows}, "
            f"nodes={self.nodes}/{self.max_solver_nodes})"
        )


def default_budget_from_env() -> Budget | None:
    """The ``REPRO_DEFAULT_DEADLINE_MS`` budget, or ``None`` when unset."""
    raw = os.environ.get("REPRO_DEFAULT_DEADLINE_MS", "").strip()
    if not raw or raw == "0":
        return None
    try:
        deadline_ms = float(raw)
    except ValueError:
        raise FMTError(
            f"REPRO_DEFAULT_DEADLINE_MS must be a number, got {raw!r}"
        ) from None
    return Budget(deadline_ms=deadline_ms)


def as_token(budget: Budget | CancelToken | None) -> CancelToken | None:
    """Normalize a ``budget=`` argument into a live token (or ``None``).

    Accepts a :class:`Budget` (started now), an already-live
    :class:`CancelToken` (shared cancellation across calls), or ``None``
    — which falls back to ``REPRO_DEFAULT_DEADLINE_MS`` when set.
    """
    if budget is None:
        env_budget = default_budget_from_env()
        return None if env_budget is None else env_budget.start()
    if isinstance(budget, CancelToken):
        return budget
    if isinstance(budget, Budget):
        return budget.start()
    raise TypeError(f"budget must be a Budget or CancelToken, got {type(budget).__name__}")
