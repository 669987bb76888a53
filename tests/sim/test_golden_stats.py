"""Golden machine-statistics regression tests.

Each case pins the complete ``MachineStats.to_dict()`` payload of one
small benchmark cell to a JSON file under ``tests/sim/golden/``.  Any
change to timing, stall attribution, mode residency, cache behaviour, or
network accounting shows up as a golden diff -- deliberate model changes
regenerate the files with::

    PYTHONPATH=src python -m pytest tests/sim/test_golden_stats.py --update-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.arch import mesh, resolve_machine, single_core
from repro.compiler import VoltronCompiler, compile_program
from repro.sim import FaultConfig, FaultPlan, VoltronMachine
from repro.workloads.suite import build

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small, fast benchmarks covering serial, coupled, and decoupled modes.
CASES = [
    ("rawcaudio", 1, "baseline"),
    ("gsmdecode", 2, "ilp"),
    ("g721decode", 4, "tlp"),
]


def _stats_payload(name: str, n_cores: int, strategy: str) -> dict:
    bench = build(name)
    config = single_core() if n_cores == 1 else mesh(n_cores)
    compiled = compile_program(bench.program, n_cores, strategy)
    return VoltronMachine(compiled, config).run().to_dict()


@pytest.mark.parametrize("name,n_cores,strategy", CASES)
def test_stats_match_golden(name, n_cores, strategy, update_golden):
    payload = _stats_payload(name, n_cores, strategy)
    path = GOLDEN_DIR / f"{name}_{n_cores}cores_{strategy}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; run pytest with --update-golden "
        "to create it"
    )
    golden = json.loads(path.read_text())
    assert payload == golden, (
        f"{name} [{n_cores}-core {strategy}] stats drifted from "
        f"{path.name}; if the model change is intentional, regenerate "
        "with --update-golden"
    )


#: Cells pinning the scheduling kernel itself: hybrid mode switching at
#: the paper's largest machine, on a 64-core snooping mesh and on a
#: 32-core directory/Virtual-Link mesh, plus fault runs whose per-cycle
#: fault draws make the fault schedule part of the pin: a destructive
#: profile on a decoupled cell, and the default timing profile on a
#: coupled-heavy cell, where every issued slot's I-fetch draws from the
#: ifetch channel.
#: Each golden carries the stats payload, a digest of the final memory
#: image, and the fault plan's per-channel fire counts.
KERNEL_CASES = [
    ("gsmdecode", "four", None, "hybrid", None),
    ("gsmdecode", "mesh64", None, "hybrid", None),
    ("epic", "mesh32-directory", "vlink", "hybrid", None),
    ("171.swim", "four", None, "llp", FaultConfig(
        seed=11, profile="destructive",
        corrupt_rate=0.05, drop_rate=0.05, blackout_rate=0.0005,
    )),
    ("gsmdecode", "four", None, "hybrid", FaultConfig(seed=5)),
]


def _kernel_payload(name, machine, policy, strategy, fault_config) -> dict:
    config = resolve_machine(machine)
    if policy is not None:
        config = dataclasses.replace(
            config,
            network=dataclasses.replace(config.network, queue_policy=policy),
        )
    compiled = VoltronCompiler(build(name).program).compile(strategy, config)
    plan = None if fault_config is None else FaultPlan(fault_config)
    sim = VoltronMachine(compiled, config, faults=plan)
    stats = sim.run().to_dict()
    memory = json.dumps(sorted(sim.final_memory().items()))
    return {
        "stats": stats,
        "memory_sha256": hashlib.sha256(memory.encode()).hexdigest(),
        "faults": None if plan is None else plan.summary(),
    }


@pytest.mark.parametrize(
    "name,machine,policy,strategy,fault_config",
    KERNEL_CASES,
    ids=[
        f"{name}-{machine}{'-' + policy if policy else ''}-{strategy}"
        f"{'-' + faults.profile if faults else ''}"
        for name, machine, policy, strategy, faults in KERNEL_CASES
    ],
)
def test_kernel_cells_match_golden(
    name, machine, policy, strategy, fault_config, update_golden
):
    payload = _kernel_payload(name, machine, policy, strategy, fault_config)
    suffix = f"_{policy}" if policy else ""
    suffix += f"_{fault_config.profile}" if fault_config is not None else ""
    path = GOLDEN_DIR / f"{name}_{machine}{suffix}_{strategy}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; run pytest with --update-golden "
        "to create it"
    )
    golden = json.loads(path.read_text())
    assert payload == golden, (
        f"{name} [{machine} {strategy}] drifted from {path.name}; if the "
        "model change is intentional, regenerate with --update-golden"
    )
