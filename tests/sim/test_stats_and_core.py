"""Unit tests for statistics containers and per-core state."""

import pytest

from repro.isa.machinecode import CoreBlock, CoreFunction
from repro.isa.operations import Imm, Opcode, Reg, RegFile, make_op
from repro.sim.core import Core
from repro.sim.stats import STALL_CATEGORIES, CoreStats, MachineStats


class TestCoreStats:
    def test_all_categories_present(self):
        stats = CoreStats()
        assert set(stats.stalls) == set(STALL_CATEGORIES)

    def test_stall_accumulates(self):
        stats = CoreStats()
        stats.stall("dstall")
        stats.stall("dstall", 5)
        assert stats.stalls["dstall"] == 6
        assert stats.total_stalls == 6

    def test_unknown_category_rejected(self):
        stats = CoreStats()
        with pytest.raises(ValueError, match="unknown stall category"):
            stats.stall("bogus")
        # The error message should name the legal categories so a typo'd
        # call site can be fixed without opening stats.py.
        with pytest.raises(ValueError, match="istall"):
            stats.stall("cache")
        # A rejected category must not leave a partial entry behind.
        assert set(stats.stalls) == set(STALL_CATEGORIES)
        assert stats.total_stalls == 0


class TestMachineStats:
    def test_per_core_containers_created(self):
        stats = MachineStats(n_cores=4)
        assert len(stats.cores) == 4

    def test_mean_stalls(self):
        stats = MachineStats(n_cores=2)
        stats.cores[0].stall("recv_data", 10)
        assert stats.mean_stalls("recv_data") == 5.0

    def test_mode_fraction(self):
        stats = MachineStats(n_cores=1)
        stats.mode_cycles["coupled"] = 30
        stats.mode_cycles["decoupled"] = 70
        assert stats.mode_fraction("decoupled") == 0.70
        empty = MachineStats(n_cores=1)
        assert empty.mode_fraction("coupled") == 0.0

    def test_summary_includes_stall_keys(self):
        summary = MachineStats(n_cores=2).summary()
        for category in STALL_CATEGORIES:
            assert f"stall_{category}" in summary

    def test_summary_stall_keys_sync_with_categories(self):
        """summary() and STALL_CATEGORIES must stay in lock-step: adding a
        category without surfacing it (or vice versa) is a silent
        reporting bug, so compare the *exact* sets."""
        summary = MachineStats(n_cores=2).summary()
        stall_keys = {key for key in summary if key.startswith("stall_")}
        assert stall_keys == {f"stall_{c}" for c in STALL_CATEGORIES}

    def test_summary_reports_mean_stalls(self):
        stats = MachineStats(n_cores=2)
        stats.cores[0].stall("barrier", 8)
        stats.cores[1].stall("barrier", 4)
        assert stats.summary()["stall_barrier"] == 6.0


def _core_with_block(slots, label="entry"):
    core = Core(0)
    cf = CoreFunction("main", label)
    cf.add_block(CoreBlock(label, slots=slots))
    core.push_frame(cf, return_dest=None)
    return core, cf


class TestCoreState:
    def test_position_and_advance(self):
        core, _ = _core_with_block([make_op(Opcode.NOP), make_op(Opcode.NOP)])
        assert core.position() == ("main", "entry", 0)
        core.advance_slot()
        assert core.position()[2] == 1
        core.advance_slot()
        assert core.at_block_end()

    def test_jump_resets_fetch_marker(self):
        core, cf = _core_with_block([make_op(Opcode.NOP)])
        cf.add_block(CoreBlock("next", slots=[make_op(Opcode.NOP)]))
        core.mark_fetched()
        assert not core.needs_fetch()
        core.jump("next")
        assert core.needs_fetch()
        assert core.position() == ("main", "next", 0)

    def test_take_fetch_skips_sequential_slots_within_a_line(self):
        # Base address 6 with 4-word lines: slots 0-1 share line 1,
        # slot 2 (address 8) starts line 2.
        core, cf = _core_with_block([make_op(Opcode.NOP)] * 4)
        cf.block("entry").base_addr = 6
        assert core.take_fetch(4) == 6  # first fetch always probes
        assert core.take_fetch(4) is None  # already fetched
        core.advance_slot()
        assert core.take_fetch(4) is None  # address 7: same line
        core.advance_slot()
        assert core.take_fetch(4) == 8  # crosses into a new line
        core.jump("entry")
        assert core.take_fetch(4) == 6  # a jump always probes
        core.advance_slot()
        assert core.take_fetch() == 7  # without a line size: every slot

    def test_scoreboard_gates_sources(self):
        core, _ = _core_with_block([make_op(Opcode.NOP)])
        r = Reg(RegFile.GPR, 0)
        op = make_op(Opcode.ADD, [Reg(RegFile.GPR, 1)], [r, Imm(1)])
        core.write_reg(r, 7, ready=10)
        assert not core.srcs_ready(op, 5)
        assert core.srcs_ready(op, 10)

    def test_immediates_always_ready(self):
        core, _ = _core_with_block([make_op(Opcode.NOP)])
        op = make_op(Opcode.ADD, [Reg(RegFile.GPR, 1)], [Imm(1), Imm(2)])
        assert core.srcs_ready(op, 0)

    def test_block_until_keeps_latest(self):
        core, _ = _core_with_block([make_op(Opcode.NOP)])
        core.block_until(10, "dstall")
        core.block_until(5, "istall")  # earlier: ignored
        assert core.next_free == 10
        assert core.pending_cause == "dstall"

    def test_checkpoint_and_rollback(self):
        core, cf = _core_with_block([make_op(Opcode.NOP)])
        cf.add_block(CoreBlock("retry", slots=[make_op(Opcode.NOP)]))
        r = Reg(RegFile.GPR, 0)
        core.write_reg(r, 1, ready=0)
        core.checkpoint_registers("retry")
        core.write_reg(r, 99, ready=0)
        label = core.rollback_registers()
        assert label == "retry"
        assert core.regs.read(r) == 1
        assert core.reg_ready == {}

    def test_call_stack(self):
        core, cf = _core_with_block([make_op(Opcode.NOP)])
        callee = CoreFunction("helper", "h_entry")
        callee.add_block(CoreBlock("h_entry", slots=[make_op(Opcode.NOP)]))
        dest = Reg(RegFile.GPR, 3)
        core.push_frame(callee, return_dest=dest)
        assert core.call_depth == 2
        assert core.position() == ("helper", "h_entry", 0)
        frame = core.pop_frame()
        assert frame.return_dest == dest
        assert core.position()[0] == "main"
