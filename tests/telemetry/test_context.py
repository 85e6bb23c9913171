"""Request-scoped trace contexts: identity, sampling, scoping, serialization."""

import threading

import pytest

from repro import telemetry
from repro.telemetry import tracer
from repro.telemetry.context import (
    TraceContext,
    current_trace,
    current_trace_id,
    mint,
    new_span_id,
    new_trace_id,
    normalize_trace_id,
    sampling_decision,
    trace_scope,
)


class TestIdentity:
    def test_new_ids_are_hex_and_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)
        assert len(new_span_id()) == 8

    def test_normalize_accepts_lowercase_hex(self):
        assert normalize_trace_id("deadbeef") == "deadbeef"
        assert normalize_trace_id("  DEADBEEF  ") == "deadbeef"

    @pytest.mark.parametrize(
        "bad", [None, 42, "", "not hex!", "x" * 65, "g123", "a" * 65]
    )
    def test_normalize_rejects_invalid(self, bad):
        assert normalize_trace_id(bad) is None

    def test_mint_reuses_valid_client_id(self):
        assert mint("abc123").trace_id == "abc123"

    def test_mint_replaces_invalid_client_id(self):
        context = mint("NOT VALID")
        assert context.trace_id != "NOT VALID"
        assert normalize_trace_id(context.trace_id) == context.trace_id


class TestSampling:
    def test_extremes(self):
        assert sampling_decision("abc", 1.0) is True
        assert sampling_decision("abc", 0.0) is False

    def test_deterministic_per_trace_id(self):
        for trace_id in (new_trace_id() for _ in range(16)):
            first = sampling_decision(trace_id, 0.5)
            assert all(
                sampling_decision(trace_id, 0.5) == first for _ in range(5)
            )

    def test_rate_roughly_respected(self):
        hits = sum(sampling_decision(new_trace_id(), 0.3) for _ in range(2000))
        assert 400 < hits < 800  # 0.3 ± generous slack

    def test_mint_applies_rate(self):
        assert mint(rate=1.0).sampled is True
        assert mint(rate=0.0).sampled is False


class TestTraceScope:
    def test_installs_and_restores_context(self):
        assert current_trace() is None
        with trace_scope(mint("abc1")) as scope:
            assert current_trace_id() == "abc1"
            assert scope.context.trace_id == "abc1"
        assert current_trace() is None

    def test_sampled_scope_records_even_when_disabled(self):
        telemetry.disable()
        with trace_scope(mint("feed", rate=1.0)) as scope:
            assert tracer.is_recording()
            with telemetry.span("work"):
                pass
        assert [finished.name for finished in scope.roots] == ["work"]
        assert scope.roots[0].trace_id == "feed"

    def test_unsampled_scope_silences_even_when_enabled(self):
        telemetry.enable()
        with trace_scope(mint("feed", rate=0.0)) as scope:
            assert not tracer.is_recording()
            with telemetry.span("work"):
                pass
        assert scope.roots == []

    def test_exception_mid_span_cannot_leak_into_next_request(self):
        # The satellite-2 failure mode: a reused handler thread must not
        # re-parent the next request's spans under a leaked open span.
        telemetry.disable()
        with pytest.raises(RuntimeError):
            with trace_scope(mint("aaaa", rate=1.0)) as first:
                open_span = telemetry.span("dies").__enter__()
                assert open_span is not None
                raise RuntimeError("request died mid-span")
        assert first.orphaned_spans == 1
        with trace_scope(mint("bbbb", rate=1.0)) as second:
            with telemetry.span("next.request"):
                pass
        assert [finished.name for finished in second.roots] == ["next.request"]
        assert second.roots[0].trace_id == "bbbb"
        assert second.roots[0].children == []
        assert second.orphaned_spans == 0

    def test_nested_scopes_restore_outer(self):
        with trace_scope(mint("aaaa", rate=1.0)):
            with trace_scope(mint("bbbb", rate=0.0)):
                assert current_trace_id() == "bbbb"
                assert not tracer.is_recording()
            assert current_trace_id() == "aaaa"
            assert tracer.is_recording()


class TestSerialization:
    def test_span_to_dict(self):
        telemetry.enable()
        with telemetry.span("outer") as outer:
            outer.set("k", "v")
            with telemetry.span("inner"):
                pass
        data = outer.to_dict()
        assert data["name"] == "outer"
        assert data["attributes"] == {"k": "v"}
        assert data["span_id"] == outer.span_id
        assert [child["name"] for child in data["children"]] == ["inner"]
        assert data["duration_ms"] == pytest.approx(outer.duration_ms)

    def test_context_to_wire(self):
        assert TraceContext("abcd", "0102", True).to_wire() == "abcd"


class TestThreadIsolation:
    def test_scopes_are_per_thread(self):
        seen = {}
        barrier = threading.Barrier(2)

        def run(tid):
            with trace_scope(mint(tid, rate=1.0)):
                barrier.wait()
                seen[tid] = current_trace_id()

        threads = [
            threading.Thread(target=run, args=(t,)) for t in ("aaa1", "bbb2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"aaa1": "aaa1", "bbb2": "bbb2"}
