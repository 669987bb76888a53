"""Sampled per-cycle metrics for one simulation.

A :class:`MetricsSeries` snapshots the machine every ``stride`` cycles
(plus once at the end of the run): operand-network queue occupancy (per
core and total), messages still in flight, live-core count, and the
cumulative busy/stall tallies per category summed across cores.  Samples
are stored columnar (one list per metric) so the JSON dump stays compact
and a plotting client can zip columns without reshaping.

Cumulative counters (``busy``, ``stalls``) sample the same accumulators
:class:`~repro.sim.stats.MachineStats` reports at the end of the run, so
the last sample of each cumulative column always equals the final
aggregate -- differencing adjacent samples yields per-window rates.

Cycles the clock jumps over because no core is due produce no samples
(nothing is stepped); the skipped ranges are recorded as
``fast_forward_window`` events on the
:class:`~repro.obs.events.Observability` bus, and the ``cycle`` column
makes the gaps explicit.  Before each sample the machine settles the
bulk credits owed to sleeping cores, so cumulative columns are exact at
every sampled cycle.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.stats import STALL_CATEGORIES


class MetricsSeries:
    """Columnar per-cycle samples of machine-wide gauges and counters."""

    def __init__(self, stride: int, n_cores: int) -> None:
        if stride < 1:
            raise ValueError(f"sample stride must be >= 1, got {stride}")
        self.stride = stride
        self.n_cores = n_cores
        self.cycle: List[int] = []
        self.live_cores: List[int] = []
        self.in_flight: List[int] = []
        self.queue_occupancy: List[int] = []
        self.queue_per_core: List[List[int]] = []
        self.busy: List[int] = []
        self.stalls: Dict[str, List[int]] = {
            category: [] for category in STALL_CATEGORIES
        }

    def __len__(self) -> int:
        return len(self.cycle)

    def sample(self, machine, cycle: int) -> None:
        """Record one sample (idempotent per cycle: the final flush may
        land on a stride boundary that was already sampled)."""
        if self.cycle and self.cycle[-1] == cycle:
            return
        self.cycle.append(cycle)
        self.live_cores.append(machine.config.n_cores - machine._halted_count)
        network = machine.network
        self.in_flight.append(len(network._in_flight))
        occupancy = [len(queue) for queue in network.receive_queues]
        self.queue_per_core.append(occupancy)
        self.queue_occupancy.append(sum(occupancy))
        core_stats = machine.stats.cores
        self.busy.append(sum(stats.busy for stats in core_stats))
        for category in STALL_CATEGORIES:
            self.stalls[category].append(
                sum(stats.stalls[category] for stats in core_stats)
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe columnar dump (what ``--metrics-out`` serializes)."""
        return {
            "stride": self.stride,
            "n_cores": self.n_cores,
            "cycle": list(self.cycle),
            "live_cores": list(self.live_cores),
            "in_flight": list(self.in_flight),
            "queue_occupancy": list(self.queue_occupancy),
            "queue_per_core": [list(row) for row in self.queue_per_core],
            "busy": list(self.busy),
            "stalls": {
                category: list(values)
                for category, values in self.stalls.items()
            },
        }
