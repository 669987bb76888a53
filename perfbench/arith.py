"""The benchmark's own arithmetic: latency summaries, failure fractions
and span self time.  Pure functions over plain numbers, so
``perfbench/selftest.py`` can check them without running a workload."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Outcome statuses of one attempted cell.  Everything but ``ok`` is a
#: failure, and every status counts in the denominator.
STATUSES = ("ok", "wrong-output", "deadlock", "out-of-cycles", "abandoned")


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile of ``samples``
    that still has ``beyond`` samples strictly past it in sorted order.

    With ``n`` samples that is the ``n - beyond``-th smallest value, at
    percentile ``100 * (n - beyond) / n``.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def failed_frac(statuses: Iterable[str]) -> float:
    """Failed cells over cells attempted.  Abandoned, deadlocked and
    out-of-cycles cells are failures and stay in the denominator."""
    attempted = failed = 0
    for status in statuses:
        if status not in STATUSES:
            raise ValueError(f"unknown cell status {status!r}")
        attempted += 1
        failed += status != "ok"
    if attempted == 0:
        raise ValueError("no cells attempted")
    return failed / attempted


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover (each
    child clipped to the parent's interval first)."""
    clipped = [
        (max(start, c_start), min(end, c_end))
        for c_start, c_end in children
        if c_end > start and c_start < end
    ]
    return (end - start) - union_length(clipped)


def mean_abs_rel_error(measured: Dict[str, float], reference: Dict[str, float]) -> float:
    """Mean of ``|measured - reference| / reference`` over the reference keys."""
    errors: List[float] = [
        abs(measured[key] - ref) / ref for key, ref in reference.items()
    ]
    return sum(errors) / len(errors)
