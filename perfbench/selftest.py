"""Self-tests for the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py

Checks the tail-percentile rule, self time as a span minus the union of
its children, the failure fraction's denominator, the host-speed
rescaling, that ``BENCHMARK.json`` declares what ``run.py`` prints, and
that tracing neither changes the modelled machine nor outlives the
traced run.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.arith import failed_frac, self_time, tail, union_length  # noqa: E402
from perfbench.hostspeed import REFERENCE_SECONDS, SENSITIVITY, HostClock  # noqa: E402
from perfbench.spans import Tracer, _targets, instrument  # noqa: E402


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        value, percentile, n = tail(samples)
        self.assertEqual((value, percentile, n), (90, 90.0, 100))
        self.assertEqual(sum(s > value for s in samples), 10)

    def test_uneven_count(self):
        value, percentile, n = tail([5.0] * 20 + [1.0] * 5)  # sorted: 5x1.0, 20x5.0
        self.assertEqual((value, n), (5.0, 25))
        self.assertAlmostEqual(percentile, 60.0)

    def test_order_does_not_matter(self):
        self.assertEqual(tail([3, 1, 2] * 5), tail(sorted([3, 1, 2] * 5)))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            tail(list(range(10)))


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(self_time(0.0, 5.0, []), 5.0)

    def test_disjoint_children(self):
        self.assertEqual(self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]), 6.0)

    def test_overlapping_children_count_once(self):
        self.assertEqual(union_length([(1.0, 4.0), (3.0, 6.0), (5.0, 7.0)]), 6.0)
        self.assertEqual(self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (5.0, 7.0)]), 4.0)

    def test_children_clipped_to_parent(self):
        self.assertEqual(self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]), 2.0)

    def test_tracer_nesting(self):
        tracer = Tracer()
        with tracer.recording(), tracer.cell("c"):
            tracer.begin("child")
            tracer.begin("grandchild")
            tracer.end()
            tracer.end()
        by_name = {span.name: span for span in tracer.spans}
        self.assertEqual(by_name["child"].parent, by_name["runner.cell"].id)
        self.assertEqual(by_name["grandchild"].parent, by_name["child"].id)
        self.assertTrue(all(span.cell == "c" for span in tracer.spans))
        totals = tracer.self_times()
        cell = by_name["runner.cell"]
        self.assertAlmostEqual(sum(totals.values()), cell.end - cell.start, places=9)


class FailedFracTest(unittest.TestCase):
    def test_every_failure_stays_in_the_denominator(self):
        statuses = ["ok"] * 6 + ["abandoned", "deadlock", "out-of-cycles", "wrong-output"]
        self.assertEqual(failed_frac(statuses), 0.4)

    def test_all_ok(self):
        self.assertEqual(failed_frac(["ok"] * 3), 0.0)

    def test_unknown_status_and_empty_are_errors(self):
        with self.assertRaises(ValueError):
            failed_frac(["ok", "skipped"])
        with self.assertRaises(ValueError):
            failed_frac([])


class HostClockTest(unittest.TestCase):
    def _clock(self, seconds):
        clock = HostClock()
        clock.samples = [(0.0, 1.0, seconds), (3.0, 4.0, seconds), (6.0, 7.0, seconds)]
        return clock

    def test_samples_are_left_out(self):
        self.assertEqual(self._clock(REFERENCE_SECONDS).raw(0.5, 6.5), 4.0)

    def test_nominal_host_is_unscaled(self):
        self.assertAlmostEqual(self._clock(REFERENCE_SECONDS).scaled(0.5, 6.5), 4.0)

    def test_slow_host_reads_faster(self):
        slow = self._clock(2 * REFERENCE_SECONDS)
        self.assertAlmostEqual(slow.factor(2.0), 0.5 ** SENSITIVITY)
        self.assertAlmostEqual(slow.scaled(1.0, 3.0), 2.0 * 0.5 ** SENSITIVITY)


class DeclarationTest(unittest.TestCase):
    """``BENCHMARK.json`` declares exactly the metrics ``run.py`` prints."""

    def test_metrics_match_the_declaration(self):
        import json

        from perfbench import run
        from perfbench.workloads import WORKLOADS

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]],
            [(name, run.per_layer_unit(name)) for name in run.per_layer_names()],
        )
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(list(WORKLOADS), list(run.WORKLOAD_NAMES))


class TracingTest(unittest.TestCase):
    CELLS = [("rawcaudio", 1, "baseline"), ("rawcaudio", 2, "hybrid")]

    def _run(self, directory: Path):
        from repro import api

        runner = api.session(["rawcaudio"], cache_dir=directory / "cache",
                             journal=directory / "journal.jsonl")
        try:
            return [runner.run(*cell).to_dict() for cell in self.CELLS]
        finally:
            runner.close_journal()

    def test_traced_run_matches_untraced_and_unwraps(self):
        before = [owner.__dict__[attr] for owner, attr, _, _ in _targets(Tracer())]
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as scratch:
            plain = self._run(Path(scratch) / "plain")
            tracer = Tracer()
            with instrument(tracer), tracer.recording():
                traced = self._run(Path(scratch) / "traced")
        self.assertEqual(plain, traced)
        names = {span.name for span in tracer.spans}
        for layer in ("sim.run", "sim.init", "compiler.compile", "compiler.profile",
                      "isa.interp", "workloads.build", "cache.key", "cache.load",
                      "cache.store", "journal.record", "runner.encode"):
            self.assertIn(layer, names)
        self.assertEqual(len(tracer.sim_stats), len(self.CELLS))
        after = [owner.__dict__[attr] for owner, attr, _, _ in _targets(Tracer())]
        self.assertTrue(all(a is b for a, b in zip(before, after)))


if __name__ == "__main__":
    unittest.main()
