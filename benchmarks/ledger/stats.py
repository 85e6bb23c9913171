"""The ledger's arithmetic: tail percentiles, self time, spreads, verdicts.

Pure functions over numbers, with no import of the program under test,
so the rules the benchmark reports by are tested on their own.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is only reported with at least this many samples
#: beyond it; smaller samples report the highest percentile that has them.
SAMPLES_BEYOND = 10


def percentile(samples: list[float], q: float) -> tuple[float, float]:
    """The nearest-rank ``q``-th percentile and the percentile actually used.

    The rank is lowered until at least :data:`SAMPLES_BEYOND` samples lie
    beyond it, so p95 needs 200 samples and a smaller sample reports the
    highest percentile it supports (p80 of 50 samples).  With 10 samples
    or fewer nothing supports a tail, and the minimum is returned.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    index = max(0, min(math.ceil(q / 100.0 * n) - 1, n - 1 - SAMPLES_BEYOND))
    return ordered[index], 100.0 * (index + 1) / n


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Seconds of self time per layer for one request's span tree.

    Each span is ``(layer, start, end, parent)`` with ``parent`` the index
    of the enclosing span, or -1 for a root.  A span's self time is its
    duration minus the part of it that the union of its children covers,
    so children that overlap (work fanned out in parallel) are not
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for layer, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (layer, start, end, _) in enumerate(spans):
        own = (end - start) - covered(children.get(index, []), start, end)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def spread(values: list[float]) -> float:
    """Run-to-run spread: the interquartile distance over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(
    parent: list[float], change: list[float], bound: float, better: str
) -> tuple[str, float]:
    """Judge one end-to-end metric on one workload; return (verdict, worse).

    ``worse`` is how much worse the change's median is than the parent's,
    as a share of the parent's median (negative when it got better).
    When either side's spread is wider than the bound, the verdict is
    ``better`` if every change run beats every parent run and
    ``unresolved`` otherwise.  Else it is ``regression`` when the median
    got worse by more than the bound, ``better`` when it got better by
    more than the bound, and ``ok`` in between.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    if max(spread(parent), spread(change)) > bound:
        if better == "lower":
            every_run_better = max(change) < min(parent)
        else:
            every_run_better = min(change) > max(parent)
        return ("better" if every_run_better else "unresolved"), worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "better", worse
    return "ok", worse
