"""Deterministic fault injection for the degradation ladder (S17).

The fallback chain's claim — *degrade, never lie* — is only testable if
faults actually happen. This module plants named *fault points* inside
the fast evaluation paths (engine execution, locality census, EF
solving, answer maintenance); each point, when the injector is enabled
**and** armed, raises :class:`~repro.errors.InjectedFaultError` on a
deterministic schedule (every ``period``-th visit per site). The
conformance runner and the resilience tests then assert the chain still
produces answers identical to the fault-free reference.

Two switches must both be on for a fault to fire:

* **enabled** — process-wide, from ``REPRO_FAULT_INJECT`` (``1`` → the
  default period, an integer ≥ 2 → that period) or
  :func:`set_injector`; parsing happens once, lazily.
* **armed** — per-thread, only inside :func:`arm_faults` blocks. The
  fallback chain arms itself around its degradable rungs, so running
  the whole test suite under ``REPRO_FAULT_INJECT=1`` perturbs exactly
  the paths that are built to recover, and nothing else.

The naive reference evaluator deliberately has **no** fault points: the
last rung of every chain is injection-free, which is what lets the
campaign in EXPERIMENTS E20 prove "N injected faults, zero wrong
answers".
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict

from repro.errors import FMTError, InjectedFaultError
from repro.telemetry.metrics import counter as _counter
from repro.telemetry.tracer import is_enabled as _telemetry_enabled

__all__ = [
    "FaultInjector",
    "arm_faults",
    "fault_point",
    "faults_armed",
    "get_injector",
    "injector_from_env",
    "reset_injector",
    "set_injector",
]

#: Default firing period: every 3rd visit of an armed fault point fires.
DEFAULT_PERIOD = 3

_MISSING = object()


class FaultInjector:
    """Counts visits per site and fires every ``period``-th one.

    Deterministic by construction: the same sequence of armed fault-point
    visits produces the same faults, so a failing fuzz case replays.
    ``fired`` and ``visits`` are exposed for campaign accounting (E20).
    """

    def __init__(self, period: int = DEFAULT_PERIOD) -> None:
        if period < 2:
            raise FMTError(f"fault-injection period must be at least 2, got {period}")
        self.period = period
        self.fired = 0
        self.visits = 0
        self._counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def should_fire(self, site: str) -> bool:
        with self._lock:
            self.visits += 1
            self._counts[site] += 1
            if self._counts[site] % self.period == 0:
                self.fired += 1
                return True
            return False

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:
        return f"FaultInjector(period={self.period}, fired={self.fired})"


def injector_from_env() -> FaultInjector | None:
    """Parse ``REPRO_FAULT_INJECT``: unset/``0`` → off, ``1`` → default
    period, an integer ≥ 2 → that period."""
    raw = os.environ.get("REPRO_FAULT_INJECT", "").strip().lower()
    if raw in ("", "0", "false", "off", "no"):
        return None
    if raw in ("1", "true", "on", "yes"):
        return FaultInjector()
    try:
        period = int(raw)
    except ValueError:
        raise FMTError(
            f"REPRO_FAULT_INJECT must be 0, 1, or a period >= 2, got {raw!r}"
        ) from None
    return FaultInjector(period=period)


# The process-wide injector. ``_MISSING`` means "not yet resolved from
# the environment"; ``None`` means "resolved: injection off".
_injector: FaultInjector | None | object = _MISSING
_injector_lock = threading.Lock()

_armed = threading.local()


def get_injector() -> FaultInjector | None:
    """The active injector, resolving ``REPRO_FAULT_INJECT`` on first use."""
    global _injector
    if _injector is _MISSING:
        with _injector_lock:
            if _injector is _MISSING:
                _injector = injector_from_env()
    return _injector  # type: ignore[return-value]


def set_injector(injector: FaultInjector | None) -> None:
    """Install (or clear, with ``None``) the process-wide injector.

    Tests use this to drive injection without touching the environment;
    passing ``None`` turns injection off until :func:`reset_injector`.
    """
    global _injector
    with _injector_lock:
        _injector = injector


def reset_injector() -> None:
    """Forget the resolved injector; the next fault point re-reads the env."""
    global _injector
    with _injector_lock:
        _injector = _MISSING


class arm_faults:
    """Context manager arming fault points on the current thread.

    Reentrant: nested arming keeps faults armed until the outermost exit.
    """

    def __enter__(self) -> "arm_faults":
        _armed.depth = getattr(_armed, "depth", 0) + 1
        return self

    def __exit__(self, *exc_info) -> None:
        _armed.depth = getattr(_armed, "depth", 1) - 1


def faults_armed() -> bool:
    return getattr(_armed, "depth", 0) > 0


def fault_point(site: str) -> None:
    """Declare a fault point; raises :class:`InjectedFaultError` when due.

    A no-op (one thread-local read) unless an injector is installed and
    the current thread is inside an :func:`arm_faults` block.
    """
    if getattr(_armed, "depth", 0) <= 0:
        return
    injector = get_injector()
    if injector is None:
        return
    if injector.should_fire(site):
        if _telemetry_enabled():
            _counter(f"resilience.faults.{site}").inc()
            _counter("resilience.faults_injected").inc()
        raise InjectedFaultError(site)
