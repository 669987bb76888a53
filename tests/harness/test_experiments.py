"""Degraded-path coverage for the hardened runner, under journaling.

tests/harness/test_hardening.py proves the failure modes are absorbed;
this module proves the *accounting* survives them: every degradation --
broken pool, deadline-expired retries, lost heartbeats, quarantined
cache entries, abandoned cells -- must leave a balanced journal (every
planned cell terminal), honest attempt counts, and a resumable history.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.harness import ExperimentRunner, JournalReplay, experiments
from repro.harness.experiments import (
    _heartbeat_path,
    _run_cells_worker,
    _write_heartbeat,
)
from repro.harness.journal import read_journal
from repro.harness.reporting import render_failure_line, render_journal_line

BENCHES = ("rawcaudio", "gsmdecode")
CELLS = [(name, 1, "baseline") for name in BENCHES]


def _crash_worker(task):
    os._exit(3)  # segfault/OOM stand-in: breaks the pool, no unwinding


def _hang_worker(task):
    time.sleep(3.0)
    return _run_cells_worker(task)


def _beat_then_hang_worker(task):
    # A worker that freezes mid-task: it heartbeats once (so the
    # supervisor knows it existed), then goes silent without exiting.
    if task.heartbeat is not None:
        _write_heartbeat(_heartbeat_path(task.heartbeat[0], task.name))
    time.sleep(3.0)
    return _run_cells_worker(task)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("benchmarks", list(BENCHES))
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("journal", tmp_path / "run.jnl")
    return ExperimentRunner(**kwargs)


class TestBrokenPoolJournalled:
    def test_serial_fallback_balances_the_journal(self, tmp_path):
        runner = _runner(tmp_path)
        runner._worker_fn = _crash_worker
        runner.prefetch(CELLS)
        runner.close_journal()
        for cell in CELLS:
            assert runner._cell(*cell) in runner._runs
        assert len(runner.failures.degraded) == len(CELLS)
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()
        assert sorted(replay.completed_keys()) == sorted(replay.states)
        # Each cell burned a pool attempt then a serial one.
        assert all(count >= 2 for count in replay.attempts.values())
        assert runner.failures.max_attempts() >= 2
        line = render_failure_line(runner)
        assert "attempt(s)" in line and "worker crash(es)" in line

    def test_crash_then_resume_replays_everything(self, tmp_path):
        first = _runner(tmp_path)
        first._worker_fn = _crash_worker
        first.prefetch(CELLS)
        first.close_journal()
        resumed = _runner(tmp_path, journal=tmp_path / "run.jnl", resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        assert resumed.journal_stats["replayed"] == len(CELLS)
        assert resumed.journal_stats["rerun"] == 0
        for cell in CELLS:
            assert (
                resumed._runs[resumed._cell(*cell)].cycles
                == first._runs[first._cell(*cell)].cycles
            )
        assert "2 replayed" in render_journal_line(resumed)

    def test_refused_submit_is_journaled_as_a_pool_attempt(
        self, tmp_path, monkeypatch
    ):
        # Deterministic stand-in for the race where the first worker's
        # crash poisons the pool before the second submit: every cell
        # still records its pool attempt (write-ahead, before submit),
        # then the failure, then the serial attempt.
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RefusingPool)
        runner = _runner(tmp_path)
        runner.prefetch(CELLS)
        runner.close_journal()
        assert len(runner.failures.degraded) == len(CELLS)
        assert runner.failures.worker_crashes == 1
        records = read_journal(tmp_path / "run.jnl")
        for cell in CELLS:
            history = [
                (record["event"], record.get("mode") or record.get("reason"))
                for record in records
                if record.get("cell") == list(cell)
                and record["event"] != "planned"
            ]
            assert history == [
                ("dispatched", "pool"),
                ("failed", "pool-broken"),
                ("dispatched", "serial"),
                ("completed", None),
            ], cell
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()
        assert all(count == 2 for count in replay.attempts.values())


class _RefusingPool:
    """A process pool whose first worker dies at once: its task fails
    with BrokenProcessPool and every later submit is refused."""

    def __init__(self, max_workers=None):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits > 1:
            raise BrokenProcessPool("a worker died before this submit")
        future = Future()
        future.set_exception(BrokenProcessPool("the worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestDeadlineRetryExhaustion:
    def test_exhausted_retries_degrade_with_full_history(self, tmp_path):
        runner = _runner(
            tmp_path, cell_timeout=0.4, retries=1, retry_backoff=0.05
        )
        runner._worker_fn = _hang_worker
        runner.prefetch(CELLS)
        runner.close_journal()
        for cell in CELLS:
            assert runner._cell(*cell) in runner._runs
        assert runner.failures.timed_out  # both rounds blew the deadline
        assert runner.failures.retried  # the retry round was scheduled
        assert len(runner.failures.degraded) == len(CELLS)
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()
        # Two pool rounds + one serial run, all journaled as attempts.
        assert all(count == 3 for count in replay.attempts.values())
        assert runner.failures.max_attempts() == 3

    def test_backoff_jitter_is_seed_deterministic(self, tmp_path):
        a = ExperimentRunner(benchmarks=["rawcaudio"], backoff_seed=7)
        b = ExperimentRunner(benchmarks=["rawcaudio"], backoff_seed=7)
        c = ExperimentRunner(benchmarks=["rawcaudio"], backoff_seed=8)
        series_a = [a._backoff_delay(i) for i in (1, 2, 3)]
        series_b = [b._backoff_delay(i) for i in (1, 2, 3)]
        series_c = [c._backoff_delay(i) for i in (1, 2, 3)]
        assert series_a == series_b
        assert series_a != series_c
        # Exponential base, jitter within [1x, 2x) of it.
        for round_index, delay in zip((1, 2, 3), series_a):
            base = a.retry_backoff * 2 ** (round_index - 1)
            assert base <= delay < 2 * base

    def test_backoff_seed_defaults_to_build_seed(self):
        runner = ExperimentRunner(benchmarks=["rawcaudio"], seed=42)
        assert runner.backoff_seed == 42
        assert ExperimentRunner(
            benchmarks=["rawcaudio"], seed=42, backoff_seed=5
        ).backoff_seed == 5


class TestHeartbeatSupervision:
    def test_silent_worker_is_reaped_before_the_deadline(self, tmp_path):
        # The cell deadline is far beyond the hang; only the heartbeat
        # supervisor can explain finishing early.
        runner = _runner(
            tmp_path, cell_timeout=30.0, retries=0, heartbeat_timeout=0.3
        )
        runner._worker_fn = _beat_then_hang_worker
        started = time.monotonic()
        runner.prefetch(CELLS)
        elapsed = time.monotonic() - started
        runner.close_journal()
        assert elapsed < 3.0  # did not wait out the 3s hang or the 30s deadline
        for cell in CELLS:
            assert runner._cell(*cell) in runner._runs
        assert runner.failures.timed_out
        assert len(runner.failures.degraded) == len(CELLS)
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()

    def test_healthy_workers_are_not_reaped(self, tmp_path):
        runner = _runner(tmp_path, heartbeat_timeout=5.0)
        runner.prefetch(CELLS)
        runner.close_journal()
        assert not runner.failures.any()
        assert JournalReplay.from_path(tmp_path / "run.jnl").balanced()


class TestAbandonedEscalation:
    def _poison(self, runner, bad_benchmark):
        original = runner._simulate

        def simulate(name, config, strategy):
            if name == bad_benchmark:
                raise RuntimeError("poisoned cell")
            return original(name, config, strategy)

        runner._simulate = simulate

    def test_first_abandoned_cell_raises_by_default(self, tmp_path):
        runner = _runner(tmp_path, jobs=1)
        self._poison(runner, "rawcaudio")
        with pytest.raises(RuntimeError, match="poisoned"):
            runner.prefetch(CELLS)
        runner.close_journal()
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        # Even the propagated failure was journaled first.
        assert "abandoned" in replay.states.values()
        assert runner.failures.abandoned == ["rawcaudio[1-baseline]"]

    def test_max_abandoned_lets_the_grid_finish_around_poison(self, tmp_path):
        runner = _runner(tmp_path, max_abandoned=1)
        runner._worker_fn = _crash_worker  # force the serial-fallback path
        self._poison(runner, "rawcaudio")
        runner.prefetch(CELLS)  # no exception: one abandonment absorbed
        runner.close_journal()
        assert runner._cell("gsmdecode", 1, "baseline") in runner._runs
        assert runner._cell("rawcaudio", 1, "baseline") not in runner._runs
        assert runner.journal_stats["abandoned"] == 1
        replay = JournalReplay.from_path(tmp_path / "run.jnl")
        assert replay.balanced()
        assert replay.accounting()["abandoned"] == 1
        line = render_failure_line(runner)
        assert "abandoned" in line


class TestQuarantineResumeInterplay:
    def test_corrupt_cache_on_resume_re_simulates_and_rebalances(
        self, tmp_path
    ):
        journal = tmp_path / "run.jnl"
        warm = _runner(tmp_path, jobs=1)
        warm.prefetch(CELLS)
        warm.close_journal()
        golden = {
            cell: warm._runs[warm._cell(*cell)].to_dict() for cell in CELLS
        }
        # The journal promises durable cache entries -- break that promise
        # behind its back (disk corruption), then resume.
        for entry in Path(tmp_path / "cache").glob("*.json"):
            entry.write_text("{torn mid-write")
        resumed = _runner(tmp_path, jobs=1, journal=journal, resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        # The corrupt entries were quarantined, the cells re-simulated,
        # and the results still bit-identical to the golden run.
        assert resumed.cache.quarantined >= len(CELLS)
        assert resumed.journal_stats["replayed"] == 0
        assert resumed.journal_stats["rerun"] == len(CELLS)
        for cell in CELLS:
            result = resumed._runs[resumed._cell(*cell)]
            assert result.to_dict() == golden[cell]
        replay = JournalReplay.from_path(journal)
        assert replay.balanced()

    def test_intact_cache_on_resume_is_pure_replay(self, tmp_path):
        journal = tmp_path / "run.jnl"
        warm = _runner(tmp_path, jobs=1)
        warm.prefetch(CELLS)
        warm.close_journal()
        records_before = len(
            Path(journal).read_text().strip().splitlines()
        )
        resumed = _runner(tmp_path, jobs=1, journal=journal, resume=True)
        resumed.prefetch(CELLS)
        resumed.close_journal()
        assert resumed.journal_stats["replayed"] == len(CELLS)
        records_after = len(Path(journal).read_text().strip().splitlines())
        # A pure replay appends only the resumed 'start' header: no new
        # lifecycle records, hence zero re-simulation.
        assert records_after == records_before + 1
