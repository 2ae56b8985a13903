"""Pure helpers: latency summaries, the tail rule and span self time.

Nothing here imports deformclass, so the self-tests can exercise the
benchmark's arithmetic without the program.
"""
from __future__ import annotations

import statistics

# A run with fewer units than this reports no tail latency.
TAIL_MIN_UNITS = 20
# The tail percentile is the highest one with at least this many units above it.
TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(latency, percentile, units beyond) at the highest percentile that
    still has TAIL_BEYOND units above it; None below TAIL_MIN_UNITS units.

    With n sorted latencies the value is the (n - 10)-th smallest, which
    is the 100 * (n - 10) / n percentile with exactly ten units above it.
    """
    n = len(latencies)
    if n < TAIL_MIN_UNITS:
        return None
    ordered = sorted(latencies)
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children.

    ``spans`` holds objects with ``sid``, ``parent``, ``start`` and ``end``.
    Children may come from several threads and overlap each other; their
    intervals are clipped to the parent's before the union is taken.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {s.sid: (s.end - s.start) - union_length(children.get(s.sid, []))
            for s in spans}
