"""Span tracing from outside the package.

:func:`instrument` wraps the public entry points of each layer --
``workloads`` (suite build), ``isa`` (reference interpreter),
``compiler`` (``VoltronCompiler`` and its profiler), ``sim``
(``VoltronMachine``), ``harness.cache``, ``harness.journal`` and the
runner's result (de)serialization -- with timing wrappers that record
into a :class:`Tracer`, and restores every original on exit.  Nothing
under ``src/`` is edited; an untraced run never sees a wrapper.

Spans carry a name, start, end, parent and cell id, stay in memory, and
are written out once at the end (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .arith import self_time


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]


class Tracer:
    """In-memory span recorder with an explicit open-span stack (the
    benchmark is single-threaded: one caller, ``jobs=1``).

    Recording is on only inside :meth:`recording`, so the benchmark's own
    checks between timed passes never land in a span.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``MachineStats`` of every traced simulation, in call order.
        self.sim_stats: List[object] = []
        #: Traced cache loads that found an entry.
        self.cache_hits = 0
        self.active = False
        self._stack: List[Tuple[int, str, float]] = []
        self._next_id = 0
        self._cell: Optional[str] = None

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def begin(self, name: str) -> None:
        self._stack.append((self._next_id, name, perf_counter()))
        self._next_id += 1

    def end(self) -> None:
        end = perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(span_id, name, start, end, parent, self._cell))

    @contextlib.contextmanager
    def cell(self, cell_id: str) -> Iterator[None]:
        """The root span of one runner cell; layer spans inside it carry
        ``cell_id``."""
        if not self.active:
            yield
            return
        self._cell = cell_id
        self.begin("runner.cell")
        try:
            yield
        finally:
            self.end()
            self._cell = None

    def self_times(self, scale: Callable[[float], float] = lambda start: 1.0) -> Dict[str, float]:
        """Summed self time per span name, each span's multiplied by
        ``scale(span.start)``."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            own = self_time(span.start, span.end, children.get(span.id, ()))
            totals[span.name] += own * scale(span.start)
        return dict(totals)

    def counts(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), separators=(",", ":")) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if on_result is not None:
            on_result(result)
        return result

    return timed


def _targets(tracer: Tracer) -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, result hook)`` for every wrapped
    entry point.  Module-level functions are patched in the runner's
    namespace, where the harness looks them up."""
    from repro.compiler.driver import VoltronCompiler
    from repro.compiler.profiling import Profiler
    from repro.harness import experiments
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import RunResult
    from repro.harness.journal import JournalReplay, RunJournal
    from repro.sim.machine import VoltronMachine

    def count_hit(payload) -> None:
        tracer.cache_hits += payload is not None

    return [
        (experiments, "build", "workloads.build", None),
        (experiments, "run_program", "isa.interp", None),
        (VoltronCompiler, "compile", "compiler.compile", None),
        (Profiler, "run", "compiler.profile", None),
        (VoltronMachine, "__init__", "sim.init", None),
        (VoltronMachine, "run", "sim.run", tracer.sim_stats.append),
        (experiments, "cache_key", "cache.key", None),
        (experiments, "reference_key", "cache.key", None),
        (ResultCache, "load", "cache.load", count_hit),
        (ResultCache, "store", "cache.store", None),
        (RunJournal, "record", "journal.record", None),
        (JournalReplay, "from_path", "journal.replay", None),
        (RunResult, "from_dict", "runner.decode", None),
        (RunResult, "to_dict", "runner.encode", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install the timing wrappers for the duration of the block, then
    put every original attribute back and check that it is back."""
    originals = []
    try:
        for owner, attr, name, on_result in _targets(tracer):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, name, original.__func__, on_result))
            else:
                wrapped = _wrap(tracer, name, original, on_result)
            originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
    leaked = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in originals
        if owner.__dict__[attr] is not original
    ]
    if leaked:
        raise RuntimeError(f"timing wrappers left installed: {leaked}")
