"""The observer slot: every event fires exactly as often as the machine
tallies the thing it reports, and attaching an observer changes nothing."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import compile_benchmark
from repro.arch.config import mesh
from repro.sim import CONTROL_TAG, Observer, VoltronMachine


class CountingObserver(Observer):
    def __init__(self) -> None:
        self.counts = Counter()

    def load(self, core, op, addr):
        self.counts["load"] += 1

    def store(self, core, op, addr):
        self.counts["store"] += 1

    def send(self, core, dst, tag):
        self.counts["control_send" if tag == CONTROL_TAG else "send"] += 1

    def recv(self, core, src, tag):
        self.counts["control_recv" if tag == CONTROL_TAG else "recv"] += 1

    def tx_commit(self, core, region, order):
        self.counts["tx_commit"] += 1

    def tx_abort(self, core, region, order):
        self.counts["tx_abort"] += 1

    def mode_switch(self, cycle, old, new):
        self.counts["mode_switch"] += 1


@pytest.mark.parametrize("fast_forward", [True, False])
@pytest.mark.parametrize(
    "bench,strategy", [("gsmdecode", "hybrid"), ("rawcaudio", "tlp")]
)
def test_event_counts_match_machine_stats(bench, strategy, fast_forward):
    compiled = compile_benchmark(bench, 4, strategy)
    plain = VoltronMachine(compiled, mesh(4), fast_forward=fast_forward).run()
    observer = CountingObserver()
    stats = VoltronMachine(
        compiled, mesh(4), fast_forward=fast_forward, observer=observer
    ).run()
    assert stats.to_dict() == plain.to_dict()

    counts = observer.counts
    cores = stats.cores
    assert counts["load"] == sum(core.loads for core in cores) > 0
    assert counts["store"] == sum(core.stores for core in cores) > 0
    assert counts["send"] == sum(core.messages_sent for core in cores) > 0
    assert counts["recv"] == sum(core.messages_received for core in cores)
    assert counts["tx_commit"] == stats.tx_commits
    assert counts["tx_abort"] == stats.tx_aborts
    assert counts["mode_switch"] == stats.mode_switches > 0
    # Every SPAWN/RELEASE is consumed by a LISTEN before halt.
    assert counts["control_send"] == counts["control_recv"] >= stats.spawns
    if strategy == "hybrid":
        assert stats.tx_commits > 0 and stats.spawns > 0
