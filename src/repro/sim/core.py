"""Per-core state: register file, call stack, scoreboard, and status.

The core is a single-issue, in-order VLIW pipeline (paper Section 5.1:
"each core is a single-issue processor").  All orchestration that spans
cores -- lock-step stepping, the stall bus, barriers, the operand network
-- lives in :class:`repro.sim.machine.VoltronMachine`; this module only
holds one core's architectural and pipeline state.

The scoreboard (register ready-times) makes mis-scheduling a *performance*
bug rather than a correctness bug: an operation whose sources are not yet
ready simply stalls, and the cycle is attributed to the ``latency``
category (near zero under a correct static schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.machinecode import CoreBlock, CoreFunction
from ..isa.operations import Imm, Operand, Operation, Reg
from ..isa.registers import RegisterFile, Value
from .stats import CoreStats

#: Core status values.
RUNNING = "running"
LISTENING = "listening"
HALTED = "halted"
BARRIER_WAIT = "barrier"


@dataclass
class CoreFrame:
    """One activation record on a core's call stack."""

    function: CoreFunction
    block: CoreBlock
    slot: int = 0
    return_dest: Optional[Reg] = None


@dataclass
class TxCheckpoint:
    """Compiler-managed register checkpoint for transaction rollback."""

    registers: Dict[Reg, Value]
    restart_label: str
    #: Call depth at TX_BEGIN: rollback (and therefore blackout
    #: recovery, which reuses it) is only valid at this depth, where the
    #: restart label resolves in the checkpointed frame's function.
    call_depth: int = 0


class Core:
    """One Voltron core's state."""

    def __init__(self, core_id: int) -> None:
        self.id = core_id
        self.regs = RegisterFile(core_id)
        self.stack: List[CoreFrame] = []
        #: The top activation record, maintained by push/pop (read on every
        #: fetch, scoreboard probe, and issue -- hot enough that a plain
        #: attribute beats a ``stack[-1]`` property).
        self.frame: Optional[CoreFrame] = None
        self.status = RUNNING
        self.stats = CoreStats()
        # Pipeline state.
        self.next_free = 0  # earliest cycle the core may issue
        self.pending_cause: Optional[str] = None  # stall cause until next_free
        self.reg_ready: Dict[Reg, int] = {}
        # Last-fetched position, kept as two fields (block identity plus
        # slot) so the per-cycle fetch probe never allocates a key tuple.
        self._fetched_block: Optional[CoreBlock] = None
        self._fetched_slot = -1
        # Event-driven scheduling (decoupled mode): the machine steps the
        # core only once the clock reaches ``wake``.  A sleeping core owes
        # ``asleep_cause`` stall cycles from ``asleep_from`` on, credited
        # in bulk when it wakes; ``waits_on`` names the operand-network
        # event that can wake it early: ``"control"`` (a listener) or a
        # RECV's ``(source core, tag)`` channel.
        self.wake = 0
        self.asleep_cause: Optional[str] = None
        self.asleep_from = 0
        self.waits_on: object = None
        # Fine-grain thread state.
        self.listen_return: Optional[Tuple[CoreBlock, int]] = None
        # Transaction state.
        self.tx_checkpoint: Optional[TxCheckpoint] = None

    # -- call stack -------------------------------------------------------------

    def push_frame(self, function: CoreFunction, return_dest: Optional[Reg]) -> None:
        entry = function.block(function.entry)
        self.stack.append(
            CoreFrame(function, entry, slot=0, return_dest=return_dest)
        )
        self.frame = self.stack[-1]
        self._fetched_block = None

    def pop_frame(self) -> CoreFrame:
        frame = self.stack.pop()
        self.frame = self.stack[-1] if self.stack else None
        self._fetched_block = None
        return frame

    @property
    def call_depth(self) -> int:
        return len(self.stack)

    # -- position --------------------------------------------------------------

    def position(self) -> Tuple[str, str, int]:
        frame = self.frame
        return frame.function.name, frame.block.label, frame.slot

    def current_op(self) -> Optional[Operation]:
        """Op in the current slot (None = NOP padding)."""
        frame = self.frame
        return frame.block.slots[frame.slot]

    def at_block_end(self) -> bool:
        frame = self.frame
        return frame.slot >= len(frame.block.slots)

    def jump(self, label: str) -> None:
        frame = self.frame
        frame.block = frame.function.block(label)
        frame.slot = 0
        self._fetched_block = None

    def advance_slot(self) -> None:
        self.frame.slot += 1

    def fall_through(self) -> bool:
        """Move to the fall successor; False when the block dead-ends."""
        frame = self.frame
        if frame.block.fall is None:
            return False
        self.jump(frame.block.fall)
        return True

    # -- fetch bookkeeping --------------------------------------------------------

    def needs_fetch(self) -> bool:
        frame = self.frame
        return (
            self._fetched_block is not frame.block
            or self._fetched_slot != frame.slot
        )

    def take_fetch(self, line_words: int = 0) -> Optional[int]:
        """Combined needs_fetch/fetch_addr/mark_fetched for the simulator's
        hot fetch path: returns the slot's address when it still needs an
        I-cache probe (marking it fetched), or None when already fetched.

        With ``line_words``, a fetch of the slot right after the last one
        that stays within its I-cache line is marked without a probe: it
        would hit the line this core fetched last, which is already the
        most recently used, so skipping it changes no cache state."""
        frame = self.frame
        block = frame.block
        slot = frame.slot
        if self._fetched_block is block:
            last = self._fetched_slot
            if last == slot:
                return None
            self._fetched_slot = slot
            addr = block.base_addr + slot
            if line_words and last == slot - 1 and addr % line_words:
                return None
            return addr
        self._fetched_block = block
        self._fetched_slot = slot
        return block.base_addr + slot

    def mark_fetched(self) -> None:
        frame = self.frame
        self._fetched_block = frame.block
        self._fetched_slot = frame.slot

    def fetch_addr(self) -> int:
        frame = self.frame
        return frame.block.op_addr(frame.slot)

    # -- scoreboard ----------------------------------------------------------------

    def srcs_ready(self, op: Operation, cycle: int) -> bool:
        for src in op.srcs:
            if isinstance(src, Reg) and self.reg_ready.get(src, 0) > cycle:
                return False
        return True

    def write_reg(self, reg: Reg, value: Value, ready: int) -> None:
        self.regs.write(reg, value)
        self.reg_ready[reg] = ready

    def read_operand(self, operand: Operand) -> Value:
        if isinstance(operand, Imm):
            return operand.value
        return self.regs.read(operand)

    def block_until(self, cycle: int, cause: str) -> None:
        """Block the pipeline until ``cycle`` (exclusive), e.g. a cache miss."""
        if cycle > self.next_free:
            self.next_free = cycle
            self.pending_cause = cause

    # -- transactions ----------------------------------------------------------------

    def checkpoint_registers(self, restart_label: str) -> None:
        self.tx_checkpoint = TxCheckpoint(
            registers=self.regs.snapshot(),
            restart_label=restart_label,
            call_depth=self.call_depth,
        )

    def rollback_registers(self) -> str:
        """Restore the checkpoint; returns the restart block label."""
        assert self.tx_checkpoint is not None, "rollback without a checkpoint"
        self.regs.restore(self.tx_checkpoint.registers)
        self.reg_ready.clear()
        return self.tx_checkpoint.restart_label

    def __repr__(self) -> str:
        if not self.stack:
            return f"<core {self.id} {self.status} (no frame)>"
        name, label, slot = self.position()
        return f"<core {self.id} {self.status} at {name}:{label}:{slot}>"
