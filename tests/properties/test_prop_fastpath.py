"""Differential lockdown for the event-driven scheduling kernel.

The simulator's fast path (pre-decoded dispatch, per-core wake times in
decoupled mode, bundle stepping in coupled mode, and clock jumps when no
core is due -- see ``repro.sim.machine``) claims to be an *exact*
acceleration: leaving sleeping cores unstepped and jumping the clock
must leave every statistic -- cycle counts, per-category stalls, mode
residency, block attribution, network tallies -- bit-identical to
stepping every core on every cycle.  This suite enforces that claim over
the entire workload suite at every (cores, strategy) cell the figures
use, hybrid included, plus a slice of the scaled meshes on both fabrics,
comparing full ``MachineStats.to_dict()`` payloads and the final memory
image between an event-driven run and a single-stepping
(``fast_forward=False``) run of the same compiled program.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import mesh, resolve_machine, single_core
from repro.compiler import VoltronCompiler
from repro.sim import VoltronMachine
from repro.workloads.suite import BENCHMARKS, build

#: The figure matrix: serial baseline plus every parallel strategy at the
#: paper's two machine sizes.
CELLS = [(1, "baseline")] + [
    (n_cores, strategy)
    for n_cores in (2, 4)
    for strategy in ("ilp", "tlp", "llp")
]


@pytest.mark.parametrize("name", BENCHMARKS)
def test_fast_forward_is_bit_identical(name):
    bench = build(name)
    compiler = VoltronCompiler(bench.program)  # one profile for all cells
    for n_cores, strategy in CELLS:
        config = single_core() if n_cores == 1 else mesh(n_cores)
        compiled = compiler.compile(strategy, config)
        fast_machine = VoltronMachine(compiled, config, fast_forward=True)
        fast = fast_machine.run().to_dict()
        slow_machine = VoltronMachine(compiled, config, fast_forward=False)
        slow = slow_machine.run().to_dict()
        assert fast == slow, (
            f"{name} [{n_cores}-core {strategy}]: fast-forwarded stats "
            "diverged from single-stepped stats"
        )
        assert fast_machine.final_memory() == slow_machine.final_memory(), (
            f"{name} [{n_cores}-core {strategy}]: fast-forwarded memory "
            "image diverged from single-stepped memory image"
        )


def _assert_kernels_agree(compiled, config, cell):
    fast_machine = VoltronMachine(compiled, config, fast_forward=True)
    fast = fast_machine.run().to_dict()
    slow_machine = VoltronMachine(compiled, config, fast_forward=False)
    slow = slow_machine.run().to_dict()
    assert fast == slow, (
        f"{cell}: event-driven stats diverged from single-stepped stats"
    )
    assert fast_machine.final_memory() == slow_machine.final_memory(), (
        f"{cell}: event-driven memory image diverged from single-stepped"
    )


@pytest.mark.parametrize("name", BENCHMARKS)
def test_hybrid_is_bit_identical(name):
    """Hybrid cells switch modes through call and mode barriers, where
    decoupled sleepers are settled and the coupled ensemble is rebuilt."""
    compiler = VoltronCompiler(build(name).program)
    for n_cores in (2, 4):
        config = mesh(n_cores)
        compiled = compiler.compile("hybrid", config)
        _assert_kernels_agree(compiled, config, f"{name} [{n_cores}-core hybrid]")


#: Scaled meshes on both fabrics: the snooping bus with per-pair queues
#: and directory coherence with Virtual-Link queues, where clustered
#: coupled stalls, idle listeners and vlink credit wake-ups dominate.
MESH_BENCHMARKS = ("gsmdecode", "171.swim", "epic")
MESH_CELLS = [
    (f"mesh{n}{fabric}", policy, "hybrid")
    for n in (16, 32, 64)
    for fabric, policy in (("", "pair"), ("-directory", "vlink"))
] + [("mesh64", "pair", "ilp")]


@pytest.mark.parametrize("name", MESH_BENCHMARKS)
@pytest.mark.parametrize("machine,policy,strategy", MESH_CELLS)
def test_mesh_cells_are_bit_identical(name, machine, policy, strategy):
    config = resolve_machine(machine)
    config = dataclasses.replace(
        config,
        network=dataclasses.replace(config.network, queue_policy=policy),
    )
    compiled = VoltronCompiler(build(name).program).compile(strategy, config)
    _assert_kernels_agree(
        compiled, config, f"{name} [{machine}/{policy} {strategy}]"
    )
