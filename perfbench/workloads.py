"""The benchmark's workloads.

Each workload is a closed loop with one caller: cells run one after
another through ``repro.session`` runners with ``jobs=1``, and the next
cell starts only when the previous one has returned.  The workload seed
reaches the program only as ``session(seed=...)``.

A workload runs in *passes*.  A pass is the timed unit: open fresh
sessions, run every cell of the workload, assemble its figure tables.
Everything a pass needs on disk is prepared before its clock starts,
and its checks run after the clock stops.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.harness.experiments import SINGLE_STRATEGIES, ExperimentRunner, RunResult
from repro.harness.journal import JournalReplay
from repro.sim.machine import Deadlock, OutOfCycles
from repro.sim.stats import STALL_CATEGORIES
from repro.workloads.suite import BENCHMARKS

from .arith import mean_abs_rel_error
from .hostspeed import HostClock
from .spans import Tracer

#: The paper's suite averages that EXPERIMENTS.md cites beside each
#: measured table (``scripts/make_experiments_md.py``): Fig. 10/11
#: per-type speedups on 2/4 cores and Fig. 13 hybrid speedups.
PAPER_AVERAGES = {
    "fig10.ilp": 1.23, "fig10.tlp": 1.16, "fig10.llp": 1.18,
    "fig11.ilp": 1.33, "fig11.tlp": 1.23, "fig11.llp": 1.37,
    "fig13.hybrid2": 1.46, "fig13.hybrid4": 1.83,
}

#: The paper figure set a cold session regenerates: Figs. 3, 10-14.
PAPER_STRATEGIES = SINGLE_STRATEGIES + ("hybrid",)

#: Mixed-mode subset for the mesh workload: coupled-heavy,
#: decoupled-heavy and DOALL-rich benchmarks.
MESH_BENCHMARKS = ("gsmdecode", "179.art", "171.swim", "epic", "rawcaudio", "g721decode")
MESH_SIZES = (16, 32, 64)

#: The two fabrics of the mesh workload: the paper's snooping bus with
#: per-pair operand queues, and directory coherence with Virtual-Link
#: queues.
FABRICS: Dict[str, Optional[Dict[str, object]]] = {
    "snoop": None,
    "vlink": {"coherence": "directory", "queue_policy": "vlink"},
}

Cell = Tuple[str, int, str]


@dataclass
class Outcome:
    cell: str
    start: float
    seconds: float
    status: str


@dataclass
class Pass:
    """What one timed pass produced."""

    start: float = 0.0
    end: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)
    results: Dict[str, RunResult] = field(default_factory=dict)
    runners: List[ExperimentRunner] = field(default_factory=list)
    figures: Dict[str, dict] = field(default_factory=dict)
    journal: Optional[Path] = None


def _status(error: Exception) -> str:
    if isinstance(error, Deadlock):
        return "deadlock"
    if isinstance(error, OutOfCycles):
        return "out-of-cycles"
    if isinstance(error, AssertionError):
        return "wrong-output"  # the runner's reference-interpreter check
    return "abandoned"


def run_cells(plan: Sequence[Tuple[str, ExperimentRunner, Cell]], tracer: Tracer,
              clock: Optional[HostClock], out: Pass) -> None:
    """Run every cell of ``plan`` in order, timing each, with host-speed
    reference samples between cells.  A failing cell is recorded with its
    status, never dropped."""
    for cell_id, runner, cell in plan:
        if clock is not None:
            clock.maybe_sample()
        start = perf_counter()
        with tracer.cell(cell_id):
            try:
                result = runner.run(*cell)
            except Exception as error:  # one failed cell must not end the loop
                status, result = _status(error), None
            else:
                status = "ok" if result.correct else "wrong-output"
        out.outcomes.append(Outcome(cell_id, start, perf_counter() - start, status))
        if result is not None and status == "ok":
            out.results[cell_id] = result


def _finite_table(table: dict, rows: Sequence[str], columns: Sequence[object]) -> bool:
    """Every row present, and every row's leaves under ``columns`` are finite numbers."""

    def leaves(value):
        if isinstance(value, dict):
            for item in value.values():
                yield from leaves(item)
        else:
            yield value

    return set(table) == set(rows) and all(
        set(table[row]) == set(columns)
        and all(isinstance(v, (int, float)) and math.isfinite(v) for v in leaves(table[row]))
        for row in rows
    )


# -- the paper figure set ------------------------------------------------------


def paper_cells(runner: ExperimentRunner) -> List[Tuple[str, ExperimentRunner, Cell]]:
    """25 benchmarks x {1-core baseline, ilp/tlp/llp/hybrid at 2 and 4
    cores}: the 225 cells behind Figs. 3 and 10-14."""
    plan = []
    for name in BENCHMARKS:
        cells = [(name, 1, "baseline")] + [
            (name, n, strategy) for n in (2, 4) for strategy in PAPER_STRATEGIES
        ]
        plan.extend((f"{b}/{n}/{s}", runner, (b, n, s)) for b, n, s in cells)
    return plan


def paper_figures(runner: ExperimentRunner) -> Dict[str, dict]:
    return {
        "3": runner.fig3_breakdown(4),
        "10": runner.fig10_11_speedups(2),
        "11": runner.fig10_11_speedups(4),
        "12": runner.fig12_stalls(4),
        "13": runner.fig13_hybrid((2, 4)),
        "14": runner.fig14_mode_time(4),
    }


PAPER_COLUMNS = {
    "3": ("ilp", "tlp", "llp", "single"),
    "10": SINGLE_STRATEGIES,
    "11": SINGLE_STRATEGIES,
    "12": ("coupled", "decoupled"),
    "13": (2, 4),
    "14": ("coupled", "decoupled"),
}


def paper_model(figures: Dict[str, dict]) -> Dict[str, float]:
    """Exact figure averages, their error against the paper, and the
    4-core hybrid mean."""
    def mean(table, column):
        return sum(row[column] for row in table.values()) / len(table)

    averages = {f"fig10.{s}": mean(figures["10"], s) for s in SINGLE_STRATEGIES}
    averages.update({f"fig11.{s}": mean(figures["11"], s) for s in SINGLE_STRATEGIES})
    averages["fig13.hybrid2"] = mean(figures["13"], 2)
    averages["fig13.hybrid4"] = mean(figures["13"], 4)
    return {
        **averages,
        "speedup.paper_err": mean_abs_rel_error(averages, PAPER_AVERAGES),
        "speedup.hybrid.mean": averages["fig13.hybrid4"],
    }


def paper_pass(open_session, tracer: Tracer, clock: Optional[HostClock], journal: Path) -> Pass:
    """One timed pass over the paper figure set on a session from
    ``open_session`` (opened inside the timed region)."""
    out = Pass(journal=journal, start=perf_counter())
    runner = open_session()
    out.runners.append(runner)
    run_cells(paper_cells(runner), tracer, clock, out)
    if all(o.status == "ok" for o in out.outcomes):
        out.figures = paper_figures(runner)
    runner.close_journal()
    out.end = perf_counter()
    return out


def paper_checks(out: Pass) -> List[str]:
    """Complete, finite figure tables and a balanced journal that
    completed every cell."""
    errors = []
    for figure, columns in PAPER_COLUMNS.items():
        table = out.figures.get(figure)
        if table is None or not _finite_table(table, BENCHMARKS, columns):
            errors.append(f"figure {figure} table incomplete or not finite")
    replay = JournalReplay.from_path(out.journal)
    accounting = replay.accounting()
    if not replay.balanced() or accounting["completed"] != len(out.outcomes):
        errors.append(f"journal not balanced over {len(out.outcomes)} cells: {accounting}")
    return errors


class Workload:
    """One named workload (``BENCHMARK.json`` and the README say why each
    was chosen)."""

    name = ""

    def prime(self, seed: int, work: Path) -> List[str]:
        """Untimed set-up before the first pass; returns check failures."""
        return []

    def prepare(self, work: Path, index: int) -> Path:
        """Untimed: a fresh directory for pass ``index``."""
        pass_dir = work / f"pass{index}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        return pass_dir

    def sessions(self, seed: int, pass_dir: Path) -> List[ExperimentRunner]:
        """The workload's sessions, as a pass opens them."""
        raise NotImplementedError

    def run_pass(self, seed: int, pass_dir: Path, tracer: Tracer, clock: HostClock) -> Pass:
        raise NotImplementedError

    def check(self, out: Pass) -> List[str]:
        """Untimed output checks of one pass."""
        raise NotImplementedError

    def model(self, out: Pass) -> Dict[str, float]:
        """The pass's exact model summary (speedups, figure averages)."""
        raise NotImplementedError


class PaperGrid(Workload):
    name = "paper-grid"

    def sessions(self, seed: int, pass_dir: Path) -> List[ExperimentRunner]:
        return [api.session(seed=seed, cache_dir=pass_dir / "cache",
                            journal=pass_dir / "journal.jsonl")]

    def run_pass(self, seed: int, pass_dir: Path, tracer: Tracer, clock: HostClock) -> Pass:
        return paper_pass(lambda: self.sessions(seed, pass_dir)[0], tracer, clock,
                          pass_dir / "journal.jsonl")

    def check(self, out: Pass) -> List[str]:
        return paper_checks(out)

    def model(self, out: Pass) -> Dict[str, float]:
        return paper_model(out.figures)


def _canonical(result: RunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class WarmReplay(PaperGrid):
    name = "warm-replay"

    def __init__(self) -> None:
        #: cell -> canonical JSON of the priming pass's result (a string,
        #: so the reference adds no objects for the collector to walk).
        self._primed: Dict[str, str] = {}

    @staticmethod
    def _prime_dir(pass_dir: Path) -> Path:
        """Where the primed cache and journal live, beside the pass dirs."""
        return pass_dir.parent / "prime"

    def prime(self, seed: int, work: Path) -> List[str]:
        """One cold, journaled pass whose cache and journal every timed
        pass resumes from; its results are the replay's reference."""
        prime = work / "prime"
        prime.mkdir(parents=True)
        out = paper_pass(lambda: PaperGrid.sessions(self, seed, prime)[0],
                         Tracer(), None, prime / "journal.jsonl")
        self._primed = {cell: _canonical(result) for cell, result in out.results.items()}
        failed = [o.cell for o in out.outcomes if o.status != "ok"]
        errors = [f"priming pass failed cells: {failed}"] if failed else []
        return errors + paper_checks(out)

    def sessions(self, seed: int, pass_dir: Path) -> List[ExperimentRunner]:
        return [api.session(seed=seed, cache_dir=self._prime_dir(pass_dir) / "cache",
                            journal=pass_dir / "journal.jsonl", resume=True)]

    def prepare(self, work: Path, index: int) -> Path:
        pass_dir = super().prepare(work, index)
        shutil.copyfile(self._prime_dir(pass_dir) / "journal.jsonl", pass_dir / "journal.jsonl")
        return pass_dir

    def check(self, out: Pass) -> List[str]:
        """On top of the paper checks: every cell replayed from the
        journal, none re-run, and each replayed result equal to the cold
        priming pass's."""
        errors = paper_checks(out)
        stats = out.runners[0].journal_stats
        if stats["replayed"] != len(self._primed) or stats["rerun"] != 0:
            errors.append(f"journal replay {stats}, expected {len(self._primed)} replayed, 0 rerun")
        differ = [
            cell for cell, result in out.results.items()
            if _canonical(result) != self._primed.get(cell)
        ]
        if differ or len(out.results) != len(self._primed):
            errors.append(f"replayed results differ from the cold pass: {differ[:5]}")
        return errors


class MeshScale(Workload):
    name = "mesh-scale"

    def sessions(self, seed: int, pass_dir: Path) -> List[ExperimentRunner]:
        return [
            api.session(MESH_BENCHMARKS, seed=seed, cache_dir=pass_dir / "cache",
                        config_overrides=overrides)
            for overrides in FABRICS.values()
        ]

    @staticmethod
    def plan(snoop: ExperimentRunner,
             vlink: ExperimentRunner) -> List[Tuple[str, ExperimentRunner, Cell]]:
        """Per benchmark: the 1-core baseline, hybrid at 2 and 4 cores
        (the paper's Fig. 13 sizes), hybrid at 16/32/64 on each fabric,
        and ilp at mesh64 on snoop."""
        plan = []
        for name in MESH_BENCHMARKS:
            plan.append((f"snoop/{name}/1/baseline", snoop, (name, 1, "baseline")))
            plan.extend((f"snoop/{name}/{n}/hybrid", snoop, (name, n, "hybrid")) for n in (2, 4))
            for n in MESH_SIZES:
                plan.append((f"snoop/{name}/{n}/hybrid", snoop, (name, n, "hybrid")))
                plan.append((f"vlink/{name}/{n}/hybrid", vlink, (name, n, "hybrid")))
            plan.append((f"snoop/{name}/64/ilp", snoop, (name, 64, "ilp")))
        return plan

    def run_pass(self, seed: int, pass_dir: Path, tracer: Tracer, clock: HostClock) -> Pass:
        out = Pass(start=perf_counter())
        snoop, vlink = out.runners = self.sessions(seed, pass_dir)
        run_cells(self.plan(snoop, vlink), tracer, clock, out)
        if all(o.status == "ok" for o in out.outcomes):
            out.figures = {"scaling": self.scaling(out.results)}
        out.end = perf_counter()
        return out

    @staticmethod
    def scaling(results: Dict[str, RunResult]) -> Dict[str, dict]:
        """``{benchmark: {fabric/cores: hybrid speedup}}`` over the snoop baseline."""
        table = {}
        for name in MESH_BENCHMARKS:
            base = results[f"snoop/{name}/1/baseline"].cycles
            row = {f"snoop/{n}": base / results[f"snoop/{name}/{n}/hybrid"].cycles for n in (2, 4)}
            for fabric in FABRICS:
                for n in MESH_SIZES:
                    row[f"{fabric}/{n}"] = base / results[f"{fabric}/{name}/{n}/hybrid"].cycles
            table[name] = row
        return table

    def check(self, out: Pass) -> List[str]:
        columns = ["snoop/2", "snoop/4"] + [f"{f}/{n}" for f in FABRICS for n in MESH_SIZES]
        table = out.figures.get("scaling")
        if table is None or not _finite_table(table, MESH_BENCHMARKS, columns):
            return ["scaling table incomplete or not finite"]
        return []

    def model(self, out: Pass) -> Dict[str, float]:
        table = out.figures["scaling"]

        def mean(columns):
            values = [row[c] for row in table.values() for c in columns]
            return sum(values) / len(values)

        averages = {"fig13.hybrid2": mean(["snoop/2"]), "fig13.hybrid4": mean(["snoop/4"])}
        reference = {key: PAPER_AVERAGES[key] for key in averages}
        return {
            **averages,
            **{f"mesh.{f}{n}": mean([f"{f}/{n}"]) for f in FABRICS for n in MESH_SIZES},
            "speedup.paper_err": mean_abs_rel_error(averages, reference),
            "speedup.hybrid.mean": mean([f"{f}/64" for f in FABRICS]),
        }


#: Workload classes by name; instantiate one per run.
WORKLOADS = {w.name: w for w in (PaperGrid, MeshScale, WarmReplay)}


def model_counts(stats_list) -> Dict[str, float]:
    """Exact modelled-machine totals over ``MachineStats`` records, plus
    the busy share of polled core-slots."""
    counts: Dict[str, float] = {
        "sim.cycles": 0, "sim.ops": 0, "sim.mode.coupled": 0, "sim.mode.decoupled": 0,
        **{f"sim.stall.{c}": 0 for c in STALL_CATEGORIES},
        "sim.l1d_misses": 0, "sim.l1i_misses": 0, "sim.messages": 0,
        "sim.tx_commits": 0, "sim.tx_aborts": 0,
    }
    busy = slots = 0
    for stats in stats_list:
        counts["sim.cycles"] += stats.cycles
        counts["sim.mode.coupled"] += stats.mode_cycles["coupled"]
        counts["sim.mode.decoupled"] += stats.mode_cycles["decoupled"]
        counts["sim.tx_commits"] += stats.tx_commits
        counts["sim.tx_aborts"] += stats.tx_aborts
        for core in stats.cores:
            counts["sim.ops"] += core.ops_executed
            counts["sim.l1d_misses"] += core.l1d_misses
            counts["sim.l1i_misses"] += core.l1i_misses
            counts["sim.messages"] += core.messages_sent
            for category, cycles in core.stalls.items():
                counts[f"sim.stall.{category}"] += cycles
            busy += core.busy
        slots += stats.cycles * stats.n_cores
    counts["sim.busy_frac"] = busy / slots if slots else 0.0
    return counts
