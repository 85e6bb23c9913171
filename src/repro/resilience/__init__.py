"""Deadlines, budgets, and graceful degradation (S17).

``repro.resilience`` is the admission-control layer that makes every
evaluation path in the toolbox safe to run under load: naive FO
evaluation is PSPACE-hard in combined complexity, so production serving
needs per-query resource governance — a :class:`Budget` (wall-clock
deadline, row budget, solver-node cap) enforced by a cooperative
:class:`CancelToken` threaded through the engine executor, the locality
census, the EF solver and the naive evaluator — plus a
:class:`FallbackChain` that degrades engine → bounded-degree census →
naive evaluator behind per-rung circuit breakers, and a deterministic
fault injector (``REPRO_FAULT_INJECT``) proving the ladder degrades
without ever returning a wrong answer.
"""

from repro.errors import BudgetExceeded, BudgetExceededError, InjectedFaultError
from repro.resilience.budget import (
    Budget,
    CancelToken,
    as_token,
    default_budget_from_env,
)
from repro.resilience.fallback import (
    CircuitBreaker,
    FallbackChain,
    Rung,
    default_chain,
    resilient_answers,
)
from repro.resilience.faults import (
    FaultInjector,
    arm_faults,
    fault_point,
    faults_armed,
    get_injector,
    injector_from_env,
    reset_injector,
    set_injector,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "BudgetExceededError",
    "CancelToken",
    "CircuitBreaker",
    "FallbackChain",
    "FaultInjector",
    "InjectedFaultError",
    "Rung",
    "arm_faults",
    "as_token",
    "default_budget_from_env",
    "default_chain",
    "fault_point",
    "faults_armed",
    "get_injector",
    "injector_from_env",
    "reset_injector",
    "resilient_answers",
    "set_injector",
]
