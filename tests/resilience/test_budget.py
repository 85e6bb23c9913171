"""Budget / CancelToken unit behaviour (S17)."""

import time

import pytest

from repro.errors import BudgetExceededError, FMTError
from repro.resilience import Budget, CancelToken, as_token, default_budget_from_env


class TestBudgetValidation:
    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline_ms=0)
        with pytest.raises(ValueError):
            Budget(deadline_ms=-5)

    def test_non_positive_rows_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_rows=0)

    def test_non_positive_nodes_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_solver_nodes=-1)

    def test_non_positive_stride_rejected(self):
        with pytest.raises(ValueError):
            Budget(stride=0)

    def test_budget_is_reusable(self):
        budget = Budget(deadline_ms=50)
        first, second = budget.start(), budget.start()
        assert first is not second
        assert first.deadline is not None and second.deadline is not None
        assert second.deadline >= first.deadline


class TestCancelToken:
    def test_unbounded_token_never_raises(self):
        token = CancelToken()
        for _ in range(1000):
            token.tick("loop")
        token.check("end")
        assert token.remaining_seconds() is None

    def test_cancel_trips_check_with_site(self):
        token = CancelToken()
        token.cancel("operator asked")
        assert token.cancelled
        with pytest.raises(BudgetExceededError, match="operator asked at here"):
            token.check("here")

    def test_cancel_trips_tick_immediately(self):
        token = CancelToken(stride=1000)
        token.cancel()
        with pytest.raises(BudgetExceededError):
            token.tick("loop")

    def test_expired_deadline_trips_check(self):
        token = Budget(deadline_ms=0.001).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceededError, match="deadline exceeded at spot"):
            token.check("spot")

    def test_tick_is_amortized(self):
        token = CancelToken(deadline=time.monotonic() - 1.0, stride=64)
        # The first 63 ticks never read the clock; the 64th raises.
        for _ in range(63):
            token.tick("loop")
        with pytest.raises(BudgetExceededError):
            token.tick("loop")

    def test_row_budget_carries_spent_and_budget(self):
        token = CancelToken(max_rows=10)
        token.consume_rows(6, "join")
        with pytest.raises(BudgetExceededError) as info:
            token.consume_rows(6, "join")
        assert info.value.spent == 12
        assert info.value.budget == 10
        assert "row budget exceeded at join" in str(info.value)

    def test_node_budget_trips(self):
        token = CancelToken(max_solver_nodes=3)
        for _ in range(3):
            token.consume_nodes(1, "solver")
        with pytest.raises(BudgetExceededError, match="solver-node budget"):
            token.consume_nodes(1, "solver")

    def test_remaining_seconds_decreases_and_clamps(self):
        token = Budget(deadline_ms=0.5).start()
        time.sleep(0.002)
        assert token.remaining_seconds() == 0.0


class TestAsToken:
    def test_none_without_env_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_DEADLINE_MS", raising=False)
        assert as_token(None) is None

    def test_budget_is_started(self):
        token = as_token(Budget(deadline_ms=100))
        assert isinstance(token, CancelToken)
        assert token.deadline is not None

    def test_live_token_passes_through(self):
        token = CancelToken()
        assert as_token(token) is token

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            as_token(1500)  # type: ignore[arg-type]


class TestEnvDefault:
    def test_unset_means_no_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_DEADLINE_MS", raising=False)
        assert default_budget_from_env() is None

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_DEADLINE_MS", "0")
        assert default_budget_from_env() is None

    def test_value_builds_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_DEADLINE_MS", "250")
        budget = default_budget_from_env()
        assert budget is not None and budget.deadline_ms == 250.0

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_DEADLINE_MS", "soon")
        with pytest.raises(FMTError):
            default_budget_from_env()

    def test_as_token_picks_up_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_DEADLINE_MS", "5000")
        token = as_token(None)
        assert isinstance(token, CancelToken)
        assert token.remaining_seconds() <= 5.0
