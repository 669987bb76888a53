"""Cycle-level Voltron simulator."""

from .caches import (
    DirectoryCoherence,
    L1ICache,
    SetAssocCache,
    SharedL2,
    SnoopBus,
    make_coherence,
)
from .core import BARRIER_WAIT, HALTED, LISTENING, RUNNING, Core
from .faults import FAULT_PROFILES, FaultConfig, FaultPlan
from .machine import Deadlock, OutOfCycles, SimulatorError, VoltronMachine
from .memory import MainMemory, WriteBuffer
from .network import DirectWires, Message, NetworkError, OperandNetwork
from .observer import CONTROL_TAG, Observer
from .recovery import RECOVERY_COUNTERS, RecoveryManager
from .stats import STALL_CATEGORIES, CoreStats, MachineStats
from .tm import TransactionError, TransactionalMemory

__all__ = [
    "DirectoryCoherence",
    "L1ICache",
    "SetAssocCache",
    "SharedL2",
    "SnoopBus",
    "make_coherence",
    "BARRIER_WAIT",
    "HALTED",
    "LISTENING",
    "RUNNING",
    "Core",
    "Deadlock",
    "FAULT_PROFILES",
    "FaultConfig",
    "FaultPlan",
    "OutOfCycles",
    "RECOVERY_COUNTERS",
    "RecoveryManager",
    "SimulatorError",
    "VoltronMachine",
    "MainMemory",
    "WriteBuffer",
    "DirectWires",
    "Message",
    "NetworkError",
    "OperandNetwork",
    "CONTROL_TAG",
    "Observer",
    "STALL_CATEGORIES",
    "CoreStats",
    "MachineStats",
    "TransactionError",
    "TransactionalMemory",
]
