"""Virtual register allocation and per-core register file state.

The compiler works on an unbounded supply of virtual registers in the four
HPL-PD files.  At run time each core owns an independent register file; a
virtual register name therefore denotes *per-core* storage, which is exactly
the property Voltron's partitioners rely on: after partitioning, the same
virtual register may hold (deliberately) different values on different cores
until a PUT/GET or SEND/RECV transfers it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Union

from .operations import Reg, RegFile

Value = Union[int, float, bool, str, None]


class RegisterAllocator:
    """Hands out fresh virtual registers for a function."""

    def __init__(self) -> None:
        self._next: Dict[RegFile, int] = {file: 0 for file in RegFile}

    def fresh(self, file: RegFile) -> Reg:
        index = self._next[file]
        self._next[file] = index + 1
        return Reg(file, index)

    def gpr(self) -> Reg:
        return self.fresh(RegFile.GPR)

    def fpr(self) -> Reg:
        return self.fresh(RegFile.FPR)

    def pr(self) -> Reg:
        return self.fresh(RegFile.PR)

    def btr(self) -> Reg:
        return self.fresh(RegFile.BTR)

    def reserve(self, reg: Reg) -> None:
        """Ensure later ``fresh`` calls never collide with ``reg``."""
        if reg.index >= self._next[reg.file]:
            self._next[reg.file] = reg.index + 1


class RegisterFile:
    """The architected register state of one core.

    Reads of never-written registers raise: the simulator uses this to catch
    compiler bugs where a value was consumed on a core it was never
    communicated to.
    """

    def __init__(self, core_id: int = 0) -> None:
        self.core_id = core_id
        self._values: Dict[Reg, Value] = {}

    def read(self, reg: Reg) -> Value:
        try:
            return self._values[reg]
        except KeyError:
            raise UninitializedRegister(
                f"core {self.core_id} read uninitialized register {reg!r}"
            ) from None

    def write(self, reg: Reg, value: Value) -> None:
        self._values[reg] = value

    def defined(self, reg: Reg) -> bool:
        return reg in self._values

    def snapshot(self) -> Dict[Reg, Value]:
        """Copy of the architected state (used for TM register rollback)."""
        return dict(self._values)

    def restore(self, snapshot: Dict[Reg, Value]) -> None:
        self._values = dict(snapshot)

    def items(self) -> Iterator:
        return iter(self._values.items())

    def __len__(self) -> int:
        return len(self._values)


class UninitializedRegister(Exception):
    """A register was read before any write reached this core."""
