"""Experiment drivers: one entry point per paper figure.

Every simulation is functionally checked against the reference
interpreter (a run with wrong output arrays is a harness failure, not a
data point).  Results are memoized per (benchmark, machine, strategy)
cell so the figure drivers can share runs.  A cell's machine is a
:class:`~repro.arch.config.MachineConfig`, resolved once where the cell
is formed: a core count becomes :meth:`ExperimentRunner.machine_config`.

Two optional layers speed up suite-scale experiments:

* ``cache_dir`` enables the on-disk :class:`~repro.harness.cache.ResultCache`
  (content-hash keyed, stable across processes), so repeated figure runs
  re-simulate only what changed;
* ``jobs > 1`` fans independent cells out to a ``ProcessPoolExecutor``;
  every figure driver prefetches its cell list through the pool before
  assembling the table.

The parallel path is hardened against a hostile environment: every worker
task carries a wall-clock deadline (``cell_timeout`` per cell), overdue
or crashed tasks are retried with exponential backoff up to ``retries``
times, a broken pool (a worker killed by the OOM killer, a segfault, an
``os._exit``) degrades the remaining work to an in-process serial re-run
instead of aborting the figure, and everything that went wrong is
tallied in a :class:`FailureSummary` the reporting layer renders.

An optional :class:`~repro.sim.faults.FaultConfig` runs every simulation
under deterministic fault injection (chaos mode).  The functional check
against the reference interpreter still applies -- faults must perturb
timing, never results -- so a chaos figure run doubles as a whole-suite
differential test.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..arch.config import MachineConfig, apply_overrides, mesh
from ..compiler.driver import VoltronCompiler
from ..isa.interp import run_program
from ..isa.registers import Value
from ..sim.faults import FaultConfig, FaultPlan
from ..sim.machine import VoltronMachine
from ..sim.stats import MachineStats, STALL_CATEGORIES
from ..workloads.suite import BENCHMARKS, Benchmark, build
from .cache import ResultCache, cache_key, reference_key
from .journal import JournalReplay, RunJournal

#: Strategies evaluated per figure.
SINGLE_STRATEGIES = ("ilp", "tlp", "llp")

#: One simulation cell: (benchmark, machine, strategy).
Cell = Tuple[str, MachineConfig, str]

#: A cell's machine as callers spell it: a core count (resolved through
#: :meth:`ExperimentRunner.machine_config`) or a full config.
Machine = Union[int, MachineConfig]

#: Result-schema version carried by every serialized RunResult.  The
#: major is a compatibility contract: ``from_dict`` rejects payloads
#: from a different major (or from before versioning existed).  3.0:
#: added schema_version itself and the optional observability metrics.
SCHEMA_VERSION = "3.0"


@dataclass
class RunResult:
    benchmark: str
    n_cores: int
    strategy: str
    cycles: int
    stats: MachineStats
    correct: bool
    #: (function, machine label) -> region descriptor (rid/strategy/origin).
    region_table: Dict[Tuple[str, str], Dict[str, object]]
    #: Observability payload (series + reconciled timeline) when the run
    #: was profiled via ``obs=``; None for ordinary runs.
    metrics: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "n_cores": self.n_cores,
            "strategy": self.strategy,
            "cycles": self.cycles,
            "stats": self.stats.to_dict(),
            "correct": self.correct,
            "region_table": [
                [function, label, descriptor]
                for (function, label), descriptor in self.region_table.items()
            ],
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        version = data.get("schema_version")
        major = str(version).split(".", 1)[0] if version is not None else None
        if major != SCHEMA_VERSION.split(".", 1)[0]:
            raise ValueError(
                f"unsupported RunResult schema_version {version!r} "
                f"(this release reads major {SCHEMA_VERSION.split('.')[0]})"
            )
        return cls(
            benchmark=data["benchmark"],
            n_cores=data["n_cores"],
            strategy=data["strategy"],
            cycles=data["cycles"],
            stats=MachineStats.from_dict(data["stats"]),
            correct=data["correct"],
            region_table={
                (function, label): descriptor
                for function, label, descriptor in data["region_table"]
            },
            metrics=data.get("metrics"),
        )


@dataclass
class FailureSummary:
    """What went wrong (and was absorbed) during a hardened prefetch.

    ``timed_out``/``retried``/``degraded`` hold human-readable cell or
    benchmark labels; ``worker_crashes`` counts pool breakages.  A clean
    run leaves every field empty -- ``any()`` gates the report line."""

    timed_out: List[str] = field(default_factory=list)
    retried: List[str] = field(default_factory=list)
    degraded: List[str] = field(default_factory=list)
    worker_crashes: int = 0
    #: Cache entries moved aside as unreadable (mirrors
    #: ``ResultCache.quarantined``; synced by ``failure_summary``).
    cache_quarantined: int = 0
    #: Cells given up on entirely (every pool round *and* the serial
    #: fallback failed); the journal records them as ``abandoned``.
    abandoned: List[str] = field(default_factory=list)
    #: Cell -> how many attempts (pool dispatches + serial runs) it
    #: took.  A clean run leaves every count at 1; the count is
    #: bookkeeping, not a failure, so ``any()`` ignores it.
    attempts: Dict[Cell, int] = field(default_factory=dict)

    def any(self) -> bool:
        return bool(
            self.timed_out
            or self.retried
            or self.degraded
            or self.worker_crashes
            or self.cache_quarantined
            or self.abandoned
        )

    def max_attempts(self) -> int:
        """The worst per-cell attempt count (0 with no attempts tracked)."""
        return max(self.attempts.values(), default=0)


def _journal_cell(cell: Cell) -> Tuple[str, int, str]:
    """How journal records name a cell: its machine by core count (the
    content-hash key tells machines with the same count apart)."""
    name, config, strategy = cell
    return (name, config.n_cores, strategy)


def _cell_label(cell: Cell) -> str:
    return "{}[{}-{}]".format(*_journal_cell(cell))


def _heartbeat_path(hb_dir: Union[str, Path], name: str) -> Path:
    """The heartbeat file for one worker task, keyed by its benchmark
    (the fan-out unit, unique within a pool round)."""
    digest = hashlib.sha256(name.encode()).hexdigest()[:12]
    return Path(hb_dir) / f"hb-{digest}"


def _write_heartbeat(path: Path) -> None:
    try:
        path.write_text(repr(time.time()))
    except OSError:
        pass  # a lost beat only risks a spurious retry, never corruption


def _read_heartbeat(path: Path) -> Optional[float]:
    try:
        return float(path.read_text())
    except (OSError, ValueError):
        return None  # absent or torn mid-write: no verdict either way


@dataclass(frozen=True)
class WorkerTask:
    """One pool task: a benchmark's cells, each carrying its machine.
    The fan-out unit is a benchmark, not a cell, so the build, the
    compiler, and the reference-interpreter run are paid once per task
    instead of once per (machine, strategy) point."""

    name: str
    cells: Tuple[Tuple[MachineConfig, str], ...]
    seed: int
    max_cycles: int
    cache_dir: Optional[str]
    faults: Optional[FaultConfig]
    #: ``(dir, interval)`` heartbeat assignment, or None unsupervised.
    heartbeat: Optional[Tuple[str, float]]

    def runner_cells(self) -> List[Cell]:
        return [(self.name, config, strategy) for config, strategy in self.cells]


def _run_cells_worker(task: WorkerTask) -> List[Dict[str, object]]:
    """Pool worker: simulate one task's cells in a fresh runner and hand
    the results back as plain dicts (JSON-safe, cheap to pickle).
    Top-level so ProcessPoolExecutor can address it by qualified name.

    With a heartbeat assignment, a daemon thread touches this task's
    heartbeat file every ``interval`` seconds for as long as the task
    runs, so the driver's supervisor can tell a slow-but-alive worker
    from a hung or frozen one without waiting out the full deadline."""
    stop = None
    if task.heartbeat is not None:
        hb_dir, interval = task.heartbeat
        hb_file = _heartbeat_path(hb_dir, task.name)
        stop = threading.Event()

        def _beat() -> None:
            _write_heartbeat(hb_file)
            while not stop.wait(interval):
                _write_heartbeat(hb_file)

        threading.Thread(target=_beat, daemon=True).start()
    try:
        runner = ExperimentRunner(
            benchmarks=[task.name],
            seed=task.seed,
            max_cycles=task.max_cycles,
            cache_dir=task.cache_dir,
            faults=task.faults,
        )
        return [
            runner.run(task.name, config, strategy).to_dict()
            for config, strategy in task.cells
        ]
    finally:
        if stop is not None:
            stop.set()


class ExperimentRunner:
    """Builds, compiles, simulates, and caches the whole suite."""

    def __init__(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        seed: int = 1,
        max_cycles: int = 50_000_000,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: int = 1,
        cell_timeout: Optional[float] = None,
        retries: int = 2,
        retry_backoff: float = 0.25,
        faults: Optional[FaultConfig] = None,
        obs=None,
        config_overrides: Optional[Dict[str, object]] = None,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        heartbeat_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.2,
        backoff_seed: Optional[int] = None,
        max_abandoned: int = 0,
    ) -> None:
        if obs is not None:
            # An Observability bus observes exactly one run, and a cached
            # or pooled result would come back without its events -- so a
            # profiling runner is strictly serial and uncached.
            if cache_dir is not None:
                raise ValueError(
                    "observability runs bypass the result cache; "
                    "pass cache_dir=None with obs"
                )
            if jobs > 1:
                raise ValueError(
                    "observability runs are single-process; pass jobs=1 "
                    "with obs"
                )
        self.names = list(benchmarks) if benchmarks is not None else list(
            BENCHMARKS
        )
        self.seed = seed
        self.max_cycles = max_cycles
        self.jobs = max(1, jobs)
        #: Wall-clock seconds each simulation cell may take on the pool
        #: before its task is abandoned and retried (None = no deadline).
        self.cell_timeout = cell_timeout
        #: Pool rounds after the first before degrading to serial.
        self.retries = max(0, retries)
        #: Base of the exponential backoff slept between pool rounds.
        self.retry_backoff = retry_backoff
        self.fault_config = faults
        #: Hung-worker detection: a pool task whose heartbeat file goes
        #: stale past this many seconds is declared dead and retried,
        #: without waiting out the (much longer) cell deadline.  None
        #: disables supervision.
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        #: Seed of the deterministic retry-backoff jitter (defaults to
        #: the build seed): decorrelates retry storms across concurrent
        #: drivers while keeping every sleep reproducible.
        self.backoff_seed = seed if backoff_seed is None else backoff_seed
        self._backoff_rng = random.Random(self.backoff_seed)
        #: How many abandoned cells a prefetch absorbs before the next
        #: one re-raises (0 = the first serial-fallback failure still
        #: propagates immediately, after being journaled).
        self.max_abandoned = max(0, max_abandoned)
        #: Flat machine-config overrides (queue depth, hop latency, TM
        #: commit cost, ...) applied on top of the per-core-count default
        #: shape of every cell named by core count.  Folded into every
        #: cache key via the config's repr.
        self.config_overrides = dict(config_overrides) if config_overrides else None
        #: Core count -> its resolved machine (see :meth:`machine_config`).
        self._machines: Dict[int, MachineConfig] = {}
        #: Observability bus for the next simulated cell (single-use: the
        #: first uncached simulation consumes it).
        self.obs = obs
        #: Total injected perturbations across this runner's fault runs.
        self.fault_injections = 0
        self.failures = FailureSummary()
        self.cache = ResultCache(Path(cache_dir)) if cache_dir else None
        self._cache_dir = str(cache_dir) if cache_dir else None
        #: Replay state from a prior (interrupted) journal, loaded from
        #: the journal path under ``resume=True``.
        self._replay: Optional[JournalReplay] = None
        self._owns_journal = False
        if journal is not None and not isinstance(journal, RunJournal):
            journal_path = Path(journal)
            if resume and journal_path.exists():
                self._replay = JournalReplay.from_path(journal_path)
            journal = RunJournal(
                journal_path, resume=resume and journal_path.exists()
            )
            self._owns_journal = True
        #: Write-ahead run journal (driver-side single writer); every
        #: lifecycle record is fsynced before the run proceeds, so a
        #: SIGKILLed driver resumes from a consistent history.
        self.journal: Optional[RunJournal] = journal
        #: Resume/replay tallies for the report line and sweep artifact.
        self.journal_stats: Dict[str, int] = {
            "replayed": 0, "rerun": 0, "abandoned": 0,
        }
        #: Keys already planned this run (a retry round must not re-plan).
        self._planned_keys: set = set()
        #: Supervision scratch dir for worker heartbeat files.
        self._hb_dir: Optional[str] = None
        #: The pool entry point; tests swap in crashing/hanging doubles.
        self._worker_fn = _run_cells_worker
        self._built: Dict[str, Benchmark] = {}
        #: Cell -> content-hash key; the fingerprint render is not free,
        #: and every cell is keyed at least twice (probe + store).
        self._keys: Dict[Cell, str] = {}
        self._compilers: Dict[str, VoltronCompiler] = {}
        self._references: Dict[str, Dict[str, List[Value]]] = {}
        self._runs: Dict[Cell, RunResult] = {}

    # -- building blocks -----------------------------------------------------------

    def benchmark(self, name: str) -> Benchmark:
        if name not in self._built:
            self._built[name] = build(name, self.seed)
        return self._built[name]

    def machine_config(self, n_cores: int) -> MachineConfig:
        """The machine shape simulated for ``n_cores``: the standard
        mesh preset with this runner's overrides applied on top."""
        config = self._machines.get(n_cores)
        if config is None:
            config = apply_overrides(mesh(n_cores), self.config_overrides)
            self._machines[n_cores] = config
        return config

    def _cell(self, name: str, machine: Machine, strategy: str) -> Cell:
        """The cell as the memo, keys and workers see it."""
        if not isinstance(machine, MachineConfig):
            machine = self.machine_config(machine)
        return (name, machine, strategy)

    def compiler(self, name: str) -> VoltronCompiler:
        if name not in self._compilers:
            self._compilers[name] = VoltronCompiler(self.benchmark(name).program)
        return self._compilers[name]

    def reference_outputs(self, name: str) -> Dict[str, List[Value]]:
        if name not in self._references:
            bench = self.benchmark(name)
            key = reference_key(bench.program) if self.cache else None
            if key is not None:
                payload = self.cache.load(key)
                if payload is not None:
                    self._references[name] = payload["arrays"]
                    return self._references[name]
            result = run_program(bench.program)
            self._references[name] = {
                array: result.array_values(bench.program, array)
                for array in bench.outputs
            }
            if key is not None:
                self.cache.store(key, {"arrays": self._references[name]})
        return self._references[name]

    def _cell_key(self, name: str, machine: Machine, strategy: str) -> str:
        cell = self._cell(name, machine, strategy)
        key = self._keys.get(cell)
        if key is None:
            key = cache_key(
                self.benchmark(name).program,
                cell[1],
                self.seed,
                strategy,
                self.max_cycles,
                # FaultConfig is frozen, so its repr is a complete stable
                # rendering; chaos runs never share entries with clean ones.
                extra=(
                    f"faults {self.fault_config!r}"
                    if self.fault_config is not None
                    else ""
                ),
            )
            self._keys[cell] = key
        return key

    def _fault_plan(self, cell: Cell) -> Optional[FaultPlan]:
        """A fresh, deterministic plan for one cell: plans are stateful
        (countdowns advance as they fire), so each simulation needs its
        own, and the seed is decorrelated per cell so every cell sees a
        different arrival pattern while staying reproducible."""
        if self.fault_config is None:
            return None
        name, config, strategy = cell
        digest = hashlib.sha256(
            f"{self.fault_config.seed}:{name}:{config.n_cores}:{strategy}".encode()
        ).digest()
        cell_seed = int.from_bytes(digest[:4], "big")
        return FaultPlan(replace(self.fault_config, seed=cell_seed))

    # -- journal bookkeeping -----------------------------------------------------

    def close_journal(self) -> None:
        """Close the journal if this runner opened it (constructed from a
        path rather than handed a shared :class:`RunJournal`); a no-op
        otherwise -- the owner (e.g. the sweep driver) closes shared ones."""
        if self.journal is not None and self._owns_journal:
            self.journal.close()

    def _journal_key(self, cell: Cell) -> Optional[str]:
        """The cell's content-hash key, computed only when some layer
        (cache or journal) will use it."""
        if self.cache is None and self.journal is None and self._replay is None:
            return None
        return self._cell_key(*cell)

    def _note_planned(self, cell: Cell, key: Optional[str]) -> None:
        """Journal ``planned`` exactly once per cell per run, and count
        the resume bookkeeping: a cell with prior journal history that
        still needs dispatching is a *re-run*."""
        if self.journal is None and self._replay is None:
            return
        marker = key or _cell_label(cell)
        if marker in self._planned_keys:
            return
        self._planned_keys.add(marker)
        if self._replay is not None and self._replay.state(marker) is not None:
            self.journal_stats["rerun"] += 1
        if self.journal is not None:
            self.journal.planned(_journal_cell(cell), key)

    def _note_dispatched(self, cell: Cell, key: Optional[str], mode: str) -> None:
        attempt = self.failures.attempts.get(cell, 0) + 1
        self.failures.attempts[cell] = attempt
        if self.journal is not None:
            self.journal.dispatched(
                _journal_cell(cell), key, attempt=attempt, mode=mode
            )

    def _note_completed(self, cell: Cell, key: Optional[str], source: str) -> None:
        """Record durable completion -- called strictly *after* the
        result is in the cache (or, uncached, in the run memo), so a
        ``completed`` record always implies a recoverable result."""
        if self.journal is not None:
            self.journal.completed(
                _journal_cell(cell), key, source=source,
                attempt=self.failures.attempts.get(cell, 0),
            )

    def _note_failed(self, cell: Cell, reason: str) -> None:
        if self.journal is not None:
            self.journal.failed(
                _journal_cell(cell), self._journal_key(cell), reason=reason,
                attempt=self.failures.attempts.get(cell, 0),
            )

    def _abandon(self, cell: Cell, error: Exception) -> None:
        """Terminal escalation: journal the cell as ``abandoned`` (the
        journal must account for every planned cell) and tally it."""
        self.failures.abandoned.append(_cell_label(cell))
        self.journal_stats["abandoned"] += 1
        if self.journal is not None:
            self.journal.abandoned(
                _journal_cell(cell), self._journal_key(cell),
                reason=f"{type(error).__name__}: {error}",
            )

    def run(self, benchmark: str, cores: Machine, strategy: str) -> RunResult:
        """One cell's result, from the memo, the cache or a simulation.
        ``cores`` is a core count or a full :class:`MachineConfig`."""
        cell = self._cell(benchmark, cores, strategy)
        result = self._runs.get(cell)
        if result is not None:
            return result
        if self._resolve_cached([cell]):
            try:
                self._run_uncached(cell)
            except Exception as error:
                self._abandon(cell, error)
                raise
        return self._runs[cell]

    def _simulate(self, name: str, config: MachineConfig, strategy: str) -> RunResult:
        compiled = self.compiler(name).compile(strategy, config)
        plan = self._fault_plan((name, config, strategy))
        obs, self.obs = self.obs, None  # single-use: first simulation wins
        machine = VoltronMachine(
            compiled, config, max_cycles=self.max_cycles, faults=plan, obs=obs
        )
        stats = machine.run()
        if plan is not None:
            self.fault_injections += plan.injections()
        reference = self.reference_outputs(name)
        correct = all(
            machine.array_values(array) == values
            for array, values in reference.items()
        )
        if not correct:
            # Under fault injection this is the determinism invariant
            # breaking, not a data point -- fail loudly either way.
            raise AssertionError(
                f"{name} [{config.n_cores}-core {strategy}] produced wrong output"
            )
        metrics: Optional[Dict[str, object]] = None
        if obs is not None:
            # Reconcile the observed timeline against the simulator's own
            # accounting before anything downstream trusts the metrics.
            from ..obs import reconcile, summarize

            reconcile(summarize(obs), stats)
            metrics = obs.metrics()
        result = RunResult(
            benchmark=name,
            n_cores=config.n_cores,
            strategy=strategy,
            cycles=stats.cycles,
            stats=stats,
            correct=correct,
            region_table=compiled.attrs.get("regions", {}),
            metrics=metrics,
        )
        return result

    def prefetch(self, cells: Sequence[Tuple[str, Machine, str]]) -> None:
        """Populate the run memo for ``cells``, fanning cache misses out to
        a process pool when ``jobs > 1``.  Serial fallback otherwise -- the
        figure drivers call this unconditionally."""
        pending = self._resolve_cached([self._cell(*cell) for cell in cells])
        if not pending:
            return
        if self.jobs == 1 or len({name for name, _, _ in pending}) == 1:
            # The cache was already probed above, so simulate directly
            # (run() would re-probe and double-count the miss).
            for cell in pending:
                try:
                    self._run_uncached(cell)
                except Exception as error:
                    self._abandon(cell, error)
                    raise
            return
        self._prefetch_parallel(pending)

    # -- hardened parallel prefetch ---------------------------------------------

    def _resolve_cached(self, cells: Sequence[Cell]) -> List[Cell]:
        """Memoize every cached cell in-process (where the reporting layer
        can see the hit/miss tallies) and return the true misses.

        This is also where the journal learns about cells: a cache hit
        whose key the replayed journal already marks ``completed`` is a
        pure *replay* (no new records, counted in ``journal_stats``);
        any other hit records ``planned`` + ``completed``; a miss
        records ``planned`` and joins the dispatch list."""
        pending: List[Cell] = []
        seen = set()
        for cell in cells:
            if cell in self._runs or cell in seen:
                continue
            seen.add(cell)
            key = self._journal_key(cell)
            if self.cache is not None:
                payload = self.cache.load(key)
                if payload is not None:
                    self._runs[cell] = RunResult.from_dict(payload)
                    if (
                        self._replay is not None
                        and key is not None
                        and self._replay.is_completed(key)
                        and key not in self._planned_keys
                    ):
                        # Journaled complete + durable in cache: replayed
                        # without re-simulation, exactly as promised.
                        self._planned_keys.add(key)
                        self.journal_stats["replayed"] += 1
                    else:
                        self._note_planned(cell, key)
                        self._note_completed(cell, key, source="cache")
                    continue
            self._note_planned(cell, key)
            pending.append(cell)
        return pending

    def _run_uncached(self, cell: Cell) -> None:
        """Simulate one cell in-process and publish it to the cache (the
        cache store is fsync-durable, so the ``completed`` record that
        follows it never lies)."""
        key = self._journal_key(cell)
        self._note_dispatched(cell, key, mode="serial")
        result = self._simulate(*cell)
        if self.cache is not None:
            self.cache.store(key, result.to_dict())
        self._runs[cell] = result
        self._note_completed(cell, key, source="serial")

    def _heartbeat_spec(self) -> Optional[Tuple[str, float]]:
        """The ``(dir, interval)`` heartbeat assignment workers carry, or
        None when supervision is off.  The scratch dir rides the cache
        root when there is one (shared with workers anyway), a temp dir
        otherwise."""
        if self.heartbeat_timeout is None:
            return None
        if self._hb_dir is None:
            if self._cache_dir is not None:
                hb_dir = Path(self._cache_dir) / ".hb"
                hb_dir.mkdir(parents=True, exist_ok=True)
                self._hb_dir = str(hb_dir)
            else:
                self._hb_dir = tempfile.mkdtemp(prefix="repro-hb-")
        return (self._hb_dir, self.heartbeat_interval)

    def _tasks_for(self, cells: Sequence[Cell]) -> List[WorkerTask]:
        by_name: Dict[str, List[Tuple[MachineConfig, str]]] = {}
        for name, config, strategy in cells:
            by_name.setdefault(name, []).append((config, strategy))
        heartbeat = self._heartbeat_spec()
        return [
            WorkerTask(
                name=name,
                cells=tuple(name_cells),
                seed=self.seed,
                max_cycles=self.max_cycles,
                cache_dir=self._cache_dir,
                faults=self.fault_config,
                heartbeat=heartbeat,
            )
            for name, name_cells in by_name.items()
        ]

    def _backoff_delay(self, round_index: int) -> float:
        """Exponential backoff with deterministic seeded jitter: the
        base doubles per round, and a [1.0, 2.0) multiplier drawn from
        ``backoff_seed`` desynchronizes retry storms across drivers that
        share a machine, while keeping each driver's sleeps replayable."""
        base = self.retry_backoff * (2 ** (round_index - 1))
        return base * (1.0 + self._backoff_rng.random())

    def _prefetch_parallel(self, pending: List[Cell]) -> None:
        """Fan ``pending`` out to worker processes, surviving hangs and
        crashes: each pool round enforces per-task deadlines (plus
        heartbeat supervision when armed), overdue tasks are retried in
        the next round after a jittered exponential backoff, and once
        ``retries`` rounds are spent (or the pool breaks) the leftovers
        run serially in-process -- slower, never wrong.  A cell that
        fails even serially is journaled ``abandoned``; up to
        ``max_abandoned`` of those are absorbed before re-raising."""
        for round_index in range(self.retries + 1):
            if round_index:
                time.sleep(self._backoff_delay(round_index))
                self.failures.retried.extend(
                    _cell_label(cell) for cell in pending
                )
            leftovers = self._pool_round(self._tasks_for(pending))
            if not leftovers:
                return
            # A timed-out worker may still have finished the store before
            # we stopped waiting; the cache probe rescues those cells.
            pending = self._resolve_cached(
                [cell for task in leftovers for cell in task.runner_cells()]
            )
            if not pending:
                return
        for cell in pending:
            self._run_degraded(cell)

    def _run_degraded(self, cell: Cell) -> None:
        """Serial re-run of one cell after pool trouble; a cell that
        fails even here escalates to ``abandoned`` (bounded by
        ``max_abandoned``, so one poisoned cell cannot silently eat the
        whole grid -- but a chaos run can finish around it)."""
        self.failures.degraded.append(_cell_label(cell))
        try:
            self._run_uncached(cell)
        except Exception as error:
            self._abandon(cell, error)
            if len(self.failures.abandoned) > self.max_abandoned:
                raise

    def _fail_task(self, task: WorkerTask, reason: str) -> None:
        for cell in task.runner_cells():
            self._note_failed(cell, reason)

    def _note_pool_dispatch(self, task: WorkerTask) -> None:
        for cell in task.runner_cells():
            self._note_dispatched(cell, self._journal_key(cell), mode="pool")

    def _pool_round(self, tasks: List[WorkerTask]) -> List[WorkerTask]:
        """One pool pass over ``tasks``.  Returns the tasks that blew
        their deadline or lost their heartbeat (for the caller to
        retry).  A broken pool sends every unfinished task straight to
        the serial fallback -- the pool machinery itself is no longer
        trusted this round."""
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        started = time.monotonic()
        supervising = self.heartbeat_timeout is not None
        futures = {}
        deadlines = {}
        timed_out: List[WorkerTask] = []
        broken = False
        refused: List[WorkerTask] = []
        for index, task in enumerate(tasks):
            if supervising and self._hb_dir is not None:
                # A beat left over from an earlier round must not read
                # as instantly stale for this round's worker.
                try:
                    _heartbeat_path(self._hb_dir, task.name).unlink()
                except OSError:
                    pass
            # Write-ahead: the pool attempt is journaled before it is
            # made, so a driver killed mid-submit never loses a dispatch.
            self._note_pool_dispatch(task)
            try:
                future = pool.submit(self._worker_fn, task)
            except BrokenProcessPool:
                # A worker died while the round was still being fed (an
                # instant crash can poison the pool between submits);
                # nothing more can be submitted this round.
                broken = True
                self.failures.worker_crashes += 1
                refused = tasks[index:]
                break
            futures[future] = task
            if self.cell_timeout is not None:
                deadlines[future] = started + self.cell_timeout * max(
                    1, len(task.cells)
                )
        if broken:
            # Every task the broken pool refused still burns a journaled
            # pool attempt before its serial one (the refusing task was
            # journaled before its submit).
            for task in refused[1:]:
                self._note_pool_dispatch(task)
            for task in list(futures.values()) + refused:
                self._fail_task(task, "pool-broken")
                self._serial_fallback(task)
            futures.clear()
        try:
            while futures:
                budget = None
                if deadlines:
                    budget = max(
                        0.0,
                        min(
                            deadlines[f] for f in futures if f in deadlines
                        ) - time.monotonic(),
                    )
                if supervising:
                    # Wake often enough to notice a silenced heartbeat
                    # long before any cell deadline would.
                    poll = max(0.05, self.heartbeat_timeout / 4.0)
                    budget = poll if budget is None else min(budget, poll)
                done, _ = wait(
                    set(futures), timeout=budget, return_when=FIRST_COMPLETED
                )
                if supervising:
                    # Supervisor pass: a task that has beaten at least
                    # once but has now been silent past the heartbeat
                    # deadline is declared hung/killed and abandoned for
                    # this round (cancel() cannot interrupt it).
                    now_wall = time.time()
                    for future in list(futures):
                        if future in done:
                            continue
                        task = futures[future]
                        beat = _read_heartbeat(
                            _heartbeat_path(self._hb_dir, task.name)
                        )
                        if (
                            beat is not None
                            and now_wall - beat > self.heartbeat_timeout
                        ):
                            futures.pop(future)
                            future.cancel()
                            timed_out.append(task)
                            self.failures.timed_out.append(task.name)
                            self._fail_task(task, "heartbeat-lost")
                if not done:
                    # Deadline expiry.  cancel() cannot interrupt a running
                    # worker process, so the task is abandoned: its future
                    # is dropped and the pool torn down without waiting.
                    now = time.monotonic()
                    for future in list(futures):
                        if deadlines.get(future, now + 1) <= now:
                            task = futures.pop(future)
                            future.cancel()
                            timed_out.append(task)
                            self.failures.timed_out.append(task.name)
                            self._fail_task(task, "timeout")
                    continue
                for future in done:
                    if future not in futures:
                        continue  # reaped by the supervisor this wake
                    task = futures.pop(future)
                    try:
                        payloads = future.result()
                    except BrokenProcessPool:
                        # A worker died mid-task (segfault, OOM kill,
                        # os._exit); every sibling future is now poisoned.
                        broken = True
                        self.failures.worker_crashes += 1
                        self._fail_task(task, "worker-crashed")
                        self._serial_fallback(task)
                        for other in futures.values():
                            self._fail_task(other, "pool-broken")
                            self._serial_fallback(other)
                        futures.clear()
                        break
                    self._absorb(task, payloads)
        finally:
            pool.shutdown(wait=not timed_out and not broken, cancel_futures=True)
        return timed_out

    def _absorb(self, task: WorkerTask, payloads: List[Dict[str, object]]) -> None:
        for cell, payload in zip(task.runner_cells(), payloads):
            self._runs[cell] = RunResult.from_dict(payload)
            # The worker stored the result durably before returning it
            # (same content-hash key), so completion is safe to journal.
            self._note_completed(cell, self._journal_key(cell), source="worker")

    def _serial_fallback(self, task: WorkerTask) -> None:
        """Run one task's cells in-process after pool trouble (re-probing
        the cache first -- the worker may have finished some cells)."""
        for cell in self._resolve_cached(task.runner_cells()):
            self._run_degraded(cell)

    def baseline(self, name: str) -> RunResult:
        return self.run(name, 1, "baseline")

    def speedup(self, benchmark: str, cores: Machine, strategy: str) -> float:
        return (
            self.baseline(benchmark).cycles
            / self.run(benchmark, cores, strategy).cycles
        )

    def failure_summary(self) -> FailureSummary:
        """The failure ledger with the cache's quarantine tally synced in
        (the cache counts its own quarantines; the summary mirrors them
        so one object describes everything absorbed)."""
        if self.cache is not None:
            self.failures.cache_quarantined = self.cache.quarantined
        return self.failures

    def recovery_totals(self) -> Dict[str, int]:
        """Destructive-fault recovery counters summed over every run this
        session has seen (memoized, cached, or pooled alike -- the
        counters ride ``MachineStats.recovery`` through serialization)."""
        totals: Dict[str, int] = {}
        for result in self._runs.values():
            for counter, value in result.stats.recovery.items():
                totals[counter] = totals.get(counter, 0) + value
        return totals

    # -- figures ------------------------------------------------------------------

    def fig10_11_speedups(
        self, cores: Optional[int] = None
    ) -> Dict[str, Dict[str, float]]:
        """Figure 10 (2 cores) / Figure 11 (4 cores): per-benchmark speedup
        when exploiting each parallelism type individually."""
        n_cores = 4 if cores is None else cores
        self.prefetch(
            [(name, 1, "baseline") for name in self.names]
            + [
                (name, n_cores, strategy)
                for name in self.names
                for strategy in SINGLE_STRATEGIES
            ]
        )
        table: Dict[str, Dict[str, float]] = {}
        for name in self.names:
            table[name] = {
                strategy: self.speedup(name, n_cores, strategy)
                for strategy in SINGLE_STRATEGIES
            }
        return table

    def fig12_stalls(
        self, cores: Optional[int] = None
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Figure 12: stall cycles (per-core mean) under coupled-mode ILP
        vs decoupled fine-grain TLP, normalized to serial execution time."""
        n_cores = 4 if cores is None else cores
        self.prefetch(
            [(name, 1, "baseline") for name in self.names]
            + [
                (name, n_cores, strategy)
                for name in self.names
                for strategy in ("ilp", "tlp")
            ]
        )
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name in self.names:
            serial = self.baseline(name).cycles
            row: Dict[str, Dict[str, float]] = {}
            for strategy, label in (("ilp", "coupled"), ("tlp", "decoupled")):
                stats = self.run(name, n_cores, strategy).stats
                row[label] = {
                    category: stats.mean_stalls(category) / serial
                    for category in STALL_CATEGORIES
                }
            table[name] = row
        return table

    def fig13_hybrid(
        self, cores: Sequence[int] = (2, 4)
    ) -> Dict[str, Dict[int, float]]:
        """Figure 13: hybrid speedups on 2- and 4-core Voltron (or any
        other set of core counts, e.g. ``(16, 32)`` for scaled meshes)."""
        counts = tuple(cores)
        self.prefetch(
            [(name, 1, "baseline") for name in self.names]
            + [(name, n, "hybrid") for name in self.names for n in counts]
        )
        return {
            name: {
                n: self.speedup(name, n, "hybrid")
                for n in counts
            }
            for name in self.names
        }

    def fig_scaling(
        self, cores: Sequence[int] = (4, 16, 32)
    ) -> Dict[str, Dict[int, Dict[str, float]]]:
        """Beyond the paper's grid: per-benchmark speedup for every
        strategy at each mesh size, ``{name: {cores: {strategy: x}}}``.

        The paper stops at 4 cores; this cell exposes which strategies
        keep scaling on 16/32-core meshes (statistical LLP regions with
        wide DOALL loops) and which saturate (ILP limited by the
        program's dependence height)."""
        counts = tuple(cores)
        strategies = SINGLE_STRATEGIES + ("hybrid",)
        self.prefetch(
            [(name, 1, "baseline") for name in self.names]
            + [
                (name, n, strategy)
                for name in self.names
                for n in counts
                for strategy in strategies
            ]
        )
        return {
            name: {
                n: {
                    strategy: self.speedup(name, n, strategy)
                    for strategy in strategies
                }
                for n in counts
            }
            for name in self.names
        }

    def fig14_mode_time(
        self, cores: Optional[int] = None
    ) -> Dict[str, Dict[str, float]]:
        """Figure 14: fraction of hybrid execution spent in each mode."""
        n_cores = 4 if cores is None else cores
        self.prefetch([(name, n_cores, "hybrid") for name in self.names])
        table = {}
        for name in self.names:
            stats = self.run(name, n_cores, "hybrid").stats
            table[name] = {
                "coupled": stats.mode_fraction("coupled"),
                "decoupled": stats.mode_fraction("decoupled"),
            }
        return table

    def fig3_breakdown(
        self, cores: Optional[int] = None
    ) -> Dict[str, Dict[str, float]]:
        """Figure 3: fraction of serial execution best accelerated by each
        parallelism type on a 4-core system.

        Methodology mirrors the paper: each region is timed under each
        single-strategy compilation; the region's serial-time fraction is
        attributed to the type that ran it fastest (or to "single core"
        when no strategy beats the baseline)."""
        n_cores = 4 if cores is None else cores
        self.prefetch(
            [(name, 1, "baseline") for name in self.names]
            + [
                (name, n_cores, strategy)
                for name in self.names
                for strategy in SINGLE_STRATEGIES
            ]
        )
        table: Dict[str, Dict[str, float]] = {}
        for name in self.names:
            base = self.baseline(name)
            base_groups = _group_cycles(base)
            total = sum(base_groups.values()) or 1
            strategy_groups = {
                strategy: _group_cycles(self.run(name, n_cores, strategy))
                for strategy in SINGLE_STRATEGIES
            }
            fractions = {"ilp": 0.0, "tlp": 0.0, "llp": 0.0, "single": 0.0}
            for origin, serial_cycles in base_groups.items():
                times = {
                    strategy: groups.get(origin, serial_cycles)
                    for strategy, groups in strategy_groups.items()
                }
                best_strategy = min(times, key=lambda s: times[s])
                weight = serial_cycles / total
                if times[best_strategy] < serial_cycles:
                    fractions[best_strategy] += weight
                else:
                    fractions["single"] += weight
            table[name] = fractions
        return table

    def figure7_9_examples(self) -> Dict[str, float]:
        """Paper Sections 4.2 examples: measured 2-core speedups for the
        Fig. 7 (DOALL), Fig. 8 (strands), and Fig. 9 (ILP) loop shapes,
        computed from the kernels that embody them."""
        from ..workloads.kernels import KernelContext
        from ..isa.builder import ProgramBuilder
        from ..workloads import doall_kernel, ilp_kernel, match_kernel

        results = {}
        for label, kernel, kwargs, strategy in (
            ("fig7_gsm_llp", doall_kernel, {"trips": 256, "work": 3}, "llp"),
            ("fig8_gzip_strands", match_kernel, {"length": 320}, "tlp"),
            (
                "fig9_gsm_ilp",
                ilp_kernel,
                # The paper's Fig. 9 filter: four independent multiply
                # chains (no cross-chain shuffle), compiled coupled.
                {"trips": 200, "chains": 4, "depth": 5, "shuffle": False},
                "ilp",
            ),
        ):
            pb = ProgramBuilder(label)
            fb = pb.function("main")
            fb.block("entry")
            ctx = KernelContext(pb=pb, fb=fb, seed=7)
            out = kernel(ctx, **kwargs)
            fb.halt()
            program = pb.finish()
            reference = run_program(program)
            compiler = VoltronCompiler(program)
            base_machine = VoltronMachine(
                compiler.compile("baseline", single_core()), single_core()
            )
            base = base_machine.run().cycles
            config = mesh(2)
            machine = VoltronMachine(compiler.compile(strategy, config), config)
            cycles = machine.run().cycles
            assert machine.array_values(out) == reference.array_values(
                program, out
            )
            results[label] = base / cycles
        return results


def _group_cycles(result: RunResult) -> Dict[str, int]:
    """Aggregate block cycles by original region label."""
    groups: Dict[str, int] = {}
    for (function, label), cycles in result.stats.block_cycles.items():
        descriptor = result.region_table.get((function, label))
        origin = descriptor["origin"] if descriptor else label
        key = f"{function}:{origin}"
        groups[key] = groups.get(key, 0) + cycles
    return groups


def geomean(values: Sequence[float]) -> float:
    product = 1.0
    count = 0
    for value in values:
        product *= value
        count += 1
    return product ** (1.0 / count) if count else 0.0


def arithmean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
