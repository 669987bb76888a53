"""Time one cold set-up: import ``repro`` and open a workload's sessions.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch-dir>

Prints the seconds taken, rescaled to the nominal host by a reference
sample taken right after (see ``perfbench/hostspeed.py``).
``run.py`` runs it in fresh interpreters so every import is paid again,
and reports the median as ``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter


def main(argv) -> int:
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root), str(root / "src")]
    start = perf_counter()
    from perfbench.workloads import WORKLOADS

    for runner in WORKLOADS[workload]().sessions(seed, directory):
        runner.close_journal()
    end = perf_counter()
    from perfbench.hostspeed import HostClock

    clock = HostClock()
    clock.sample()
    print(clock.scaled(start, end))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
