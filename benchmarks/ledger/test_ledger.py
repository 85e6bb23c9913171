"""Tests for the layer ledger: its arithmetic, its checks, and short runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from . import host, oracle
from .__main__ import ROOT, SPEC, main, report
from .stats import covered, percentile, self_times, verdict
from .workloads import (
    WORKLOADS, EngineDirect, Op, Phase, ServedUpdates, Window, ZooReads, closed_loop, end_to_end,
)  # fmt: skip

SPEC_DATA = json.loads(SPEC.read_text())


def result_lines(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines() if line.startswith("{")]


# -- arithmetic ----------------------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 201)]
    value, used = percentile(samples, 95)
    assert value == 190.0 and used == 95.0
    assert sum(sample > value for sample in samples) == 10


def test_small_samples_report_the_highest_supported_percentile():
    value, used = percentile([float(value) for value in range(1, 51)], 95)
    assert (value, used) == (40.0, 80.0)
    assert percentile([3.0, 1.0, 2.0], 95) == (1.0, 100.0 / 3)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: together they cover 1..6
        ("c", 2.0, 3.0, 1),
        ("b", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx({"root": 4.0, "a": 2.0, "b": 4.0, "c": 1.0})
    assert covered([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_verdicts_for_bound_regression_spread_and_clear_gain():
    parent = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert verdict(parent, [10.3, 10.4, 10.2, 10.5, 10.3], 0.1, "lower")[0] == "ok"
    outcome, worse = verdict(parent, [11.5, 11.6, 11.4, 11.5, 11.7], 0.1, "lower")
    assert outcome == "regression" and worse == pytest.approx(0.15)
    assert verdict(parent, [8.0, 14.0, 10.0, 11.5, 9.0], 0.1, "lower")[0] == "unresolved"
    assert verdict(parent, [5.0, 5.1, 5.2, 5.0, 4.9], 0.1, "lower")[0] == "better"
    # A spread wider than the bound is rescued only when every run is better.
    assert verdict(parent, [5.0, 7.0, 6.0, 7.5, 5.5], 0.1, "lower")[0] == "better"
    assert verdict(parent, [10.05, 10.1, 10.05, 10.1, 10.0], 0.1, "lower")[0] == "ok"
    assert verdict([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], 0.1, "higher")[0] == "regression"


def test_times_are_reported_at_reference_host_speed():
    # 200 reads of 1..200 ms, half of each on a CPU; the host ran the
    # slower half of them at half speed.
    reads = [
        Op("read", 0, f"k{i}", 0.0, (i + 1) / 1000, True, cpu=(i + 1) / 2000,
           slowdown=2.0 if i >= 100 else 1.0)
        for i in range(200)
    ]  # fmt: skip
    phase = Phase(
        Window(reads, 10.0, 10.0, 0.0), reads, 0, 0, 50.0, {}, {}, None,
        setups=[1.0, 3.0, 2.0], setup_slowdowns=[1.0, 2.0, 4.0],
    )  # fmt: skip

    def values(workload) -> dict:
        return {name: value for name, (value, _) in end_to_end(workload, phase).items()}

    direct, prepared = values(EngineDirect(0)), values(ZooReads(0, "served-prepared", 60, True))
    # Reads of 101..200 ms count as 75.75..150 ms: their CPU half is halved.
    assert direct["read_p50_ms"] == prepared["read_p50_ms"] == pytest.approx(86.0)
    assert direct["read_p95_ms"] == pytest.approx(0.75 * 190)
    # 20 operations per second, with 20.1 s of operation time counting as 16.3375 s.
    assert direct["throughput_ops"] == pytest.approx(20.0 * 20.1 / 16.3375)
    # In process, each set-up is over its own reading: 1.0, 1.5 and 0.5 s.
    assert (direct["setup_s"], prepared["setup_s"]) == (1.0, 2.0)
    assert direct["peak_rss_mb"] == prepared["peak_rss_mb"] == 50.0


def test_lockstep_reads_the_host_between_rounds(monkeypatch):
    readings = iter(range(100))
    monkeypatch.setattr(host, "reading", lambda: float(next(readings)))

    def step(client: int):
        def run(out: list[Op]) -> None:
            out.append(Op("read", client, f"{client}-{len(out)}", 0.0, 0.0, True))
        return run

    window = closed_loop([step(0), step(1)], 0.0, lockstep=True, min_rounds=5)
    # Readings 0..5 bracket rounds 0..4, and each op gets its pair's mean.
    assert sorted(op.slowdown for op in window.ops) == [r + 0.5 for r in range(5) for _ in "ab"]


def test_the_host_unit_allocates_nothing_the_collector_counts():
    count = gc.get_count()[0]
    host.reading()
    assert gc.get_count()[0] == count
    assert not gc.is_tracked(host.TABLE)


def test_compare_exits_nonzero_only_on_regression(capsys):
    def records(values: list[float], workload: str = "served-prepared") -> list[dict]:
        return [
            {"workload": workload, "trace": False,
             "metrics": {"read_p50_ms": {"value": value, "unit": "ms"}}}
            for value in values
        ]  # fmt: skip

    assert report(records([10.0, 10.1, 10.0]), records([10.2, 10.1, 10.3]), SPEC_DATA) == 0
    assert report(records([10.0, 10.1, 10.0]), records([13.0, 13.1, 13.2]), SPEC_DATA) == 1
    assert report(records([10.0, 10.1, 10.0]), records([6.0, 30.0, 13.0]), SPEC_DATA) == 0
    rows = capsys.readouterr().out
    assert "regression" in rows and "unresolved" in rows and "missing" in rows
    direct = records([1.0, 1.0, 1.0], "engine-direct"), records([2.0, 2.0, 2.0], "engine-direct")
    assert report(*direct, SPEC_DATA) == 1


# -- answer checks -------------------------------------------------------------


def test_answer_comprehensions_agree_with_the_reference_evaluator():
    assert oracle.check_against_reference(seed=7) == []


def test_a_wrong_row_count_is_a_failed_read():
    workload = ZooReads(0, "served-prepared", 60, prepared=True)
    right = len(workload.expected["edge"])
    ops = [
        Op("read", 0, "k0", 0.0, 1.0, True, query="edge", total=right),
        Op("read", 0, "k1", 0.0, 1.0, True, query="edge", total=right - 1),
        Op("read", 0, "k2", 0.0, 1.0, False, query="edge"),
    ]
    assert workload.verify(ops) == (2, {})


def test_a_changed_query_missing_from_queries_dirtied_is_a_failure():
    workload = ServedUpdates(0)
    edges, _ = workload.grids[0]
    edge = oracle.new_edge(workload.nodes, edges, workload.rng("test"))
    complete = Op("write", 0, "k", 0.0, 1.0, True, delta=("insert", edge), dirtied=("one-way-edge",))
    assert workload.verify([complete])[0] == 0
    silent = Op("write", 0, "k", 0.0, 1.0, True, delta=("insert", edge), dirtied=())
    assert workload.verify([silent])[0] == 1


@pytest.mark.parametrize("where", ["everywhere", "maintained"])
def test_wrong_answers_fail_the_run(where, monkeypatch, capsys):
    from repro.engine.engine import Engine

    answers = Engine.answers

    def drop_a_row(self, structure, formula, *args, **kwargs):
        rows = answers(self, structure, formula, *args, **kwargs)
        on_grid = isinstance(structure.universe[0], tuple)  # grid nodes are (row, col)
        if len(rows) > 1 and (where == "everywhere" or on_grid):
            return frozenset(sorted(rows, key=repr)[1:])
        return rows

    monkeypatch.setattr(Engine, "answers", drop_a_row)
    assert main(["--workload", "engine-direct", "--seconds", "1"]) == 1
    (result,) = result_lines(capsys.readouterr().out)
    assert result["correct"] is False
    # Beyond the 12 reference and 12 set-up checks, a step is 3 reads and
    # 1 write.  Set-up checks fail, and so do operations inside the loop:
    # all of them, or with only the maintained queries wrong, every write.
    ops = result["attempted"] - 24
    assert result["failed"] > (ops if where == "everywhere" else ops // 4)


# -- runs ------------------------------------------------------------------------


def test_short_runs_of_every_workload_print_the_result_line(capsys):
    assert main(["--seconds", "2"]) == 0
    results = result_lines(capsys.readouterr().out)
    assert len(results) == len(WORKLOADS)
    names = {metric["name"] for metric in SPEC_DATA["end_to_end"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == names
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_report_every_layer_metric(workload, tmp_path, capsys):
    spans = tmp_path / "spans.json"
    assert main(["--workload", workload, "--seconds", "2", "--trace", "1", "--spans", str(spans)]) == 0
    (result,) = result_lines(capsys.readouterr().out)
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC_DATA["per_layer"]}
    assert result["metrics"]["layer.coverage"]["value"] >= 0.9
    joined = json.loads(spans.read_text())
    assert joined and all(entry["spans"] for entry in joined.values())


def test_without_the_program_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "ledger",
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = [*SPEC_DATA["command"], "--workload", "served-prepared", "--seed", "0",
               "--seconds", "1", "--trace", "0"]  # fmt: skip
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not result_lines(done.stdout)


def test_sigterm_stops_the_server_it_started():
    command = [sys.executable, "-m", "benchmarks.ledger", "--workload", "served-prepared", "--seconds", "30"]
    bench = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{bench.pid}/task/{bench.pid}/children")
    servers: list[str] = []
    deadline = time.monotonic() + 60
    while not servers and time.monotonic() < deadline:
        servers = children.read_text().split()
        time.sleep(0.05)
    bench.send_signal(signal.SIGTERM)
    assert bench.wait(timeout=60) != 0
    assert servers
    assert not [pid for pid in servers if Path(f"/proc/{pid}").exists()]
