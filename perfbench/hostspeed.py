"""Host-speed reference: host seconds rescaled to a nominal host.

A shared container's CPU speed drifts by tens of percent within a minute
(neighbours come and go), which would swamp any change a benchmark is
meant to see.  :class:`HostClock` interleaves samples of a fixed
reference slice of pure-Python work -- object and dict traffic,
integer arithmetic, JSON and SHA-256, the mix the simulator and harness
run -- with the measured work: between cells, at most every
:data:`SAMPLE_EVERY` seconds, and around every pass.  The samples are
never part of a timed interval.

Each stretch of measured work between two samples is scaled by
``(REFERENCE_SECONDS / median of the samples around it) **
SENSITIVITY``: the seconds that work would have taken on a host where
one slice takes :data:`REFERENCE_SECONDS`.  The reference code is
independent of the package, so a slower package still reads slower.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import statistics
from time import perf_counter
from typing import List, Tuple

#: One reference slice's duration on the nominal host (about its median
#: on an idle 2.1 GHz Xeon container); rescaled seconds are in units of it.
REFERENCE_SECONDS = 0.008

#: Minimum measured seconds between two samples.
SAMPLE_EVERY = 0.5

#: Reference slices per sample; the sample is their median, which
#: shrugs off an interrupt landing in one slice.
SLICES_PER_SAMPLE = 3

#: Samples on each side of a moment that set its rescaling factor.
WINDOW = 2

#: How strongly the package's own code follows the reference: the
#: factor is ``(REFERENCE_SECONDS / sample) ** SENSITIVITY``.  Under host
#: contention the package slows less than the reference slice does.
#: Fitted on 8 seeds of all three workloads (seeds 201-208, 2-core
#: 2.1 GHz Xeon container): the largest run-to-run interquartile spread
#: of cells_per_s, cell_s.p50 and cell_s.tail was 0.10 at 0.8, against
#: 0.14 at 1.0 and 0.55 unscaled.
SENSITIVITY = 0.8


class _Node:
    __slots__ = ("value", "links")

    def __init__(self, value: int) -> None:
        self.value = value
        self.links: List[int] = []


def reference_slice() -> float:
    """Run the fixed reference work once; return its host seconds.

    The cyclic collector is off for the slice: a collection there would
    walk the package's heap and tie the reference to the code measured.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_reference()
    finally:
        if collecting:
            gc.enable()


def _timed_reference() -> float:
    start = perf_counter()
    nodes = [_Node(i) for i in range(256)]
    table = {}
    acc = 0
    for step in range(30000):
        node = nodes[(step * 31) % 256]
        node.value = (node.value * 7 + step) & 0xFFFF
        if len(node.links) < 4:
            node.links.append(step)
        table[node.value & 511] = table.get(node.value & 511, 0) + 1
        acc += node.value % 13
    text = json.dumps({str(k): v for k, v in table.items()}, sort_keys=True)
    digest = hashlib.sha256((text * 4).encode()).hexdigest()
    if acc < 0 or len(json.loads(text)) != len(table) or len(digest) != 64:
        raise RuntimeError("reference slice computed garbage")
    return perf_counter() - start


class HostClock:
    """Reference samples on a timeline, and measured durations rescaled
    by the samples around them."""

    def __init__(self) -> None:
        #: (start, end, median slice seconds), in time order.
        self.samples: List[Tuple[float, float, float]] = []

    def sample(self) -> None:
        start = perf_counter()
        seconds = statistics.median(reference_slice() for _ in range(SLICES_PER_SAMPLE))
        self.samples.append((start, perf_counter(), seconds))

    def maybe_sample(self) -> None:
        """Sample if :data:`SAMPLE_EVERY` seconds have passed since the last one."""
        if not self.samples or perf_counter() - self.samples[-1][1] >= SAMPLE_EVERY:
            self.sample()

    def factor(self, at: float) -> float:
        """Rescaling factor for work at time ``at``: from the median of
        the :data:`WINDOW` samples on either side of it (fewer at the
        ends).  The drift it follows is slower than a couple of samples."""
        index = bisect.bisect_left(self.samples, (at,))
        near = [seconds for _, _, seconds in self.samples[max(0, index - WINDOW):index + WINDOW]]
        if not near:
            raise ValueError("no reference sample taken yet")
        return (REFERENCE_SECONDS / statistics.median(near)) ** SENSITIVITY

    def scaled(self, start: float, end: float) -> float:
        """Nominal seconds of ``[start, end]``, leaving out the reference
        samples inside it and rescaling each stretch between them."""
        cuts = [start]
        for s_start, s_end, _ in self.samples:
            if s_end <= start or s_start >= end:
                continue
            cuts.extend((max(start, s_start), min(end, s_end)))
        cuts.append(end)
        total = 0.0
        for piece_start, piece_end in zip(cuts[0::2], cuts[1::2]):
            if piece_end > piece_start:
                total += (piece_end - piece_start) * self.factor((piece_start + piece_end) / 2)
        return total

    def raw(self, start: float, end: float) -> float:
        """Host seconds of ``[start, end]`` minus the reference samples in it."""
        inside = sum(
            min(end, s_end) - max(start, s_start)
            for s_start, s_end, _ in self.samples
            if s_end > start and s_start < end
        )
        return (end - start) - inside
