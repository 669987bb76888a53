"""The Voltron machine: cycle-level simulation of dual-mode execution.

Orchestration responsibilities (paper Sections 3.2-3.3):

* **Coupled mode** -- all cores of a group advance in lock-step; the 1-bit
  stall bus is modelled by stalling the whole group whenever any member is
  blocked (cache miss, scoreboard interlock).  PUT/BCAST drive the direct
  wires in the first half of the cycle and GETs latch them in the second,
  which is how the compiler-aligned PUT/GET pairs meet in the same cycle.
* **Decoupled mode** -- cores step independently; RECV stalls only the
  receiving core; SPAWN/SLEEP/LISTEN/RELEASE implement the lightweight
  fine-grain thread protocol; CALL acts as a barrier ("synchronization
  before function calls and returns") after which the callee executes in
  lock-step and the pre-call mode is restored on return.
* **MODE_SWITCH** -- switching to decoupled happens in lock-step
  (compiler-aligned, takes effect next cycle); switching to coupled is a
  barrier: cores wait until the last one arrives, then resume lock-step.
* **Transactions** -- TX_BEGIN checkpoints registers (the compiler's
  register rollback) and opens a TM write buffer; TX_COMMIT enforces
  ordered commit and on conflict rolls the chunk back to its restart block.

Execution engine
----------------

Each cycle touches only the cores that can act on it; everything else is
accounted for in bulk, and every statistic stays bit-identical to
stepping every core on every cycle:

* **Pre-decoded dispatch.**  ``__init__`` maps each opcode to a handler
  closure with its result latency pre-resolved from
  :mod:`repro.isa.latencies`, and decodes every block's slots once into
  ``(op, handler, register sources, is-direct-wire)`` entries
  (``CoreBlock.decoded``).

* **Decoupled mode: per-core wake times.**  A core that cannot issue
  sleeps until the cycle its blocking condition can change: a cache fill
  (``next_free``), a message arrival (RECV, LISTEN), or an event another
  core causes -- a SEND to it, a commit (``tx_wait``), a credit return
  (a full send queue), a barrier release.  Only cores whose wake time has
  come are stepped; a woken core is first credited, in one call stamped
  at the window's first cycle, the stall cycles it slept through.

* **Coupled mode: bundle stepping.**  The lock-step ensemble keeps one
  shared position.  Each (block, slot) is decoded once into a cross-core
  bundle of just its non-empty ops plus the cores whose fetch crosses an
  I-cache line there (a fetch within the line a core fetched last is a
  hit that cannot change LRU order); every running core is probed when
  the position is rebuilt from the core frames (block entry, call,
  return, resume), which is also where lock-step is checked.  Issue
  cycles charge one shared busy counter, flushed whenever per-core state
  is read, and the stall bus is detected from the ensemble's latest
  ``next_free``.

* **No core due.**  When no core can act, the clock jumps to the
  earliest wake time, crediting mode residency and block attribution in
  bulk (a coupled stall-bus hold or scoreboard interlock jumps from its
  second cycle on).  If no wake time exists at all, the machine raises
  :class:`Deadlock` instead of spinning to ``max_cycles``.

Fault injection and ``fast_forward=False`` run the same kernel with
every core due on every cycle and every slot's fetch probed -- the
reference that ``tests/properties/test_prop_fastpath.py`` compares
against.  (:class:`~repro.harness.trace.Tracer` selects it on attach, so
its per-op timeline shows every stalled issue attempt.)

Observation
-----------

The machine has one observer slot, ``observer=``: an
:class:`~repro.sim.observer.Observer` whose events (cycles, mode
switches, clock jumps, issued ops, memory and queue traffic,
transactions, cache misses, faults, recoveries) the machine and its
subsystems fire behind a single ``is None`` check each.  The machine is
the one place that hands the observer to the network, TM, caches, fault
plan and recovery manager.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..arch.config import MachineConfig
from ..arch.mesh import Mesh
from ..isa.latencies import resolved_latencies
from ..isa.machinecode import CompiledProgram, CoreBlock
from ..isa.operations import (
    ALU_SEMANTICS,
    COMPARISONS,
    Opcode,
    Operation,
    Reg,
    RegFile,
)
from ..isa.registers import Value
from .caches import L1ICache, make_coherence
from .core import BARRIER_WAIT, HALTED, LISTENING, RUNNING, Core
from .faults import FaultConfig, FaultPlan
from .memory import MainMemory
from .network import OperandNetwork
from .observer import CONTROL_TAG
from .recovery import RecoveryManager
from .stats import MachineStats
from .tm import TransactionalMemory

#: Per-core instruction address spaces start here (clear of data addresses).
ICODE_BASE = 1 << 24

#: Wake time of a sleeping core that only another core's action can wake.
NEVER = 1 << 62

#: Dispatch-table entry: handler(machine, core, op) -> outcome string.
Handler = Callable[["VoltronMachine", Core, Operation], str]

#: Ops issued on the direct inter-core wires (coupled-mode phase A).
#: Tuples, not sets: enum membership in a short tuple is an identity scan,
#: while a set lookup pays a Python-level Enum.__hash__ call.
_WIRE_OPS = (Opcode.PUT, Opcode.BCAST)
#: Ops that enqueue onto the operand network (back-pressure checked).
_QUEUE_SEND_OPS = (Opcode.SEND, Opcode.SPAWN, Opcode.RELEASE)


class SimulatorError(Exception):
    pass


class OutOfCycles(SimulatorError):
    """The cycle budget was exhausted (likely deadlock or livelock)."""


class Deadlock(SimulatorError):
    pass


class VoltronMachine:
    """Executes a :class:`CompiledProgram` on a configured Voltron system."""

    def __init__(
        self,
        compiled: CompiledProgram,
        config: MachineConfig,
        max_cycles: int = 20_000_000,
        args: Tuple[Value, ...] = (),
        fast_forward: bool = True,
        faults: Optional[FaultPlan] = None,
        observer=None,
    ) -> None:
        if compiled.n_cores != config.n_cores:
            raise ValueError(
                f"program compiled for {compiled.n_cores} cores, "
                f"machine has {config.n_cores}"
            )
        compiled.validate()
        compiled.assign_addresses()
        self.compiled = compiled
        self.config = config
        self.max_cycles = max_cycles
        self.fast_forward = fast_forward

        rows, cols = config.mesh_shape
        self.mesh = Mesh(rows, cols, config.n_cores)
        self.memory = MainMemory(compiled.program.initial_memory)
        self.bus = make_coherence(config)
        self.icaches = [L1ICache(config.l1i) for _ in range(config.n_cores)]
        self.network = OperandNetwork(self.mesh, config.network)
        self.tm = TransactionalMemory(self.memory)

        # Fault injection (chaos testing): wire the plan into every
        # subsystem with an injection site.  Fault arrivals are per-cycle
        # draws, so fault runs step every core on every cycle (the
        # reference schedule); with no plan the hooks are a single
        # is-None check.
        if isinstance(faults, FaultConfig):
            faults = FaultPlan(faults)
        self.faults = faults
        # Destructive faults additionally get a recovery subsystem: the
        # link layer on the network, the blackout watchdog, and the
        # degradation scheduler.  None (the overwhelmingly common case)
        # keeps every hook a single is-None check.
        self.recovery: Optional[RecoveryManager] = None
        if faults is not None:
            self.fast_forward = False
            self.bus.faults = faults
            for icache in self.icaches:
                icache.faults = faults
            self.network.faults = faults
            self.tm.faults = faults
            if faults.destructive:
                self.recovery = RecoveryManager(self, faults)
                self.network.recovery = self.recovery

        self.cores = [Core(i) for i in range(config.n_cores)]
        main_params = compiled.program.main().params
        if len(args) != len(main_params):
            raise ValueError(
                f"main expects {len(main_params)} args, got {len(args)}"
            )
        for core in self.cores:
            core.push_frame(compiled.entry_function(core.id), return_dest=None)
            # Program arguments materialize in every core's register file
            # (the run-time loader's job, mirroring the interpreter).
            for reg, value in zip(main_params, args):
                core.write_reg(reg, value, 0)
        self.stats = MachineStats(n_cores=config.n_cores)
        for core in self.cores:
            core.stats = self.stats.cores[core.id]

        self.mode = "coupled"
        self._mode_next: Optional[str] = None
        self.cycle = 0
        # HALTED is terminal, so a counter replaces the per-cycle
        # every-core scan in the main loop's continuation test.
        self._halted_count = 0
        self.return_value: Value = None
        # Barriers: kind -> set of arrived core ids.
        self._barrier: Dict[str, Set[int]] = {}
        # Cores released from a barrier become RUNNING at the next cycle
        # boundary (releasing mid-cycle would let cores later in the step
        # order run an extra op and break lock-step alignment).
        self._deferred_release: Set[int] = set()
        # (call depth to restore at, mode to restore) entries.
        self._mode_restore: List[Tuple[int, str]] = []
        self._restore_done_this_cycle = False
        # Stall-bus groups: consecutive runs of at most coupled_group_size
        # cores.  The DVLIW schedule spans every core, so the whole
        # machine steps as ONE lock-step ensemble -- per-group stepping
        # would break cross-group PUT/GET wire alignment.  Past one group
        # (16-64-core meshes) the 1-bit stall bus no longer reaches every
        # core, so a stall crossing cluster boundaries pays
        # cluster_stall_latency extra cycles (the cluster-level stall
        # network above the buses), charged once per stall episode per
        # blocked core.
        self._cluster_penalty = (
            config.cluster_stall_latency
            if config.n_cores > config.coupled_group_size
            else 0
        )
        self._cluster_penalized: Set[int] = set()

        # Coupled-mode ensemble state (see "bundle stepping" above): the
        # running members, the current block's bundles (None while the
        # shared position must be rebuilt from the core frames), the
        # shared slot, whether its fetch is done, whether that fetch
        # probes every member, busy cycles not yet flushed to the
        # members, and an upper bound on the members' next_free.
        self._running: List[Core] = list(self.cores)
        self._bundle: Optional[Tuple[list, list]] = None
        self._slot = 0
        self._fetched = False
        self._probe_all = True
        self._busy_owed = 0
        self._hold = 0
        self._bundles: Dict[int, Tuple[list, list]] = {}
        # Jump eligibility: a coupled hold or interlock is jumped from
        # its second cycle on (the first is stepped, which is where the
        # stall bus asserts); decoupled mode jumps once no core is awake.
        self._stalled_prev = True
        self._idle = False
        # Decoupled-mode sleepers woken by another core's action.
        self._tx_waiters: List[Core] = []
        self._send_waiters: Dict[int, List[Core]] = {}
        self._event_driven = False
        self._skip_line = 0

        self._dispatch: Dict[Opcode, Handler] = build_dispatch_table()
        self._memory_latency = config.memory_latency
        self._line_words = config.l1i.line_words
        self._predecode()

        # The observer slot (repro.sim.observer): every subsystem with
        # events gets the same observer; detached, each hook is a single
        # is-None check, so performance runs and the differential suite
        # are untouched.  Attach last: an observer may hook the per-core
        # stats and read the subsystems constructed above.
        self.observer = observer
        if observer is not None:
            self.network.observer = observer
            self.tm.observer = observer
            self.bus.observer = observer
            for index, icache in enumerate(self.icaches):
                icache.observer = observer
                icache.core_index = index
            if self.faults is not None:
                self.faults.observer = observer
            if self.recovery is not None:
                self.recovery.observer = observer
            observer.attach(self)

    # -- pre-decode ----------------------------------------------------------------

    def _predecode(self) -> None:
        """Walk every core's instruction stream once, decoding each block
        (see :meth:`_decode`) and materializing its attribution key."""
        for stream in self.compiled.streams:
            for function in stream.values():
                for block in function.ordered_blocks():
                    self._decode(block)
                    # Attribution key for the per-cycle block accounting,
                    # materialized once instead of per cycle.
                    block.stat_key = (function.name, block.label)

    def _decode(self, block: CoreBlock) -> tuple:
        """Decode a block's slots into ``(op, handler, register sources,
        is-direct-wire)`` entries (None for NOP padding), cached on the
        block as ``CoreBlock.decoded``.  Unknown opcodes get a None
        handler and fail at execute time with the usual diagnostic."""
        decoded = tuple(
            None
            if op is None
            else (
                op,
                self._dispatch.get(op.opcode),
                tuple(src for src in op.srcs if isinstance(src, Reg)),
                op.opcode in _WIRE_OPS,
            )
            for op in block.slots
        )
        block.decoded = decoded
        return decoded

    # -- public API ---------------------------------------------------------------

    def run(self) -> MachineStats:
        cores = self.cores
        block_cycles = self.stats.block_cycles
        mode_cycles = self.stats.mode_cycles
        master = cores[0]
        # Mode residency and block attribution are accumulated in locals
        # and flushed on change (blocks persist for many cycles), keeping
        # two dictionary updates off the per-cycle path.  Clock jumps
        # write to the same dicts directly; both paths only ever add, so
        # interleaving is safe.
        mode_count = 0
        block_key = None
        block_count = 0
        observer = self.observer
        # Faults and the Tracer need every cycle of every core: the same
        # kernel then keeps every core due.
        event_driven = self._event_driven = self.fast_forward
        # Sequential fetches within a line skip their probe unless every
        # probe must happen (fault draws ride on I-cache hits).
        self._skip_line = self._line_words if event_driven else 0
        if event_driven:
            self.network.scheduler = self
        try:
            while self._halted_count < len(cores):
                cycle = self.cycle
                if cycle >= self.max_cycles:
                    raise OutOfCycles(
                        f"exceeded {self.max_cycles} cycles "
                        f"(likely deadlock or livelock)\n"
                        + self._core_diagnostics()
                    )
                # Deadlock is only possible when every live core is
                # listening; run the full probe lazily (core 0 is normally
                # running, which rules a deadlock out on its own).
                status0 = master.status
                if status0 == HALTED or status0 == LISTENING:
                    self._check_deadlock()
                self.network.deliver(cycle)
                if self.recovery is not None:
                    self.recovery.tick(cycle)
                self._restore_done_this_cycle = False
                if self._deferred_release:
                    for core_id in self._deferred_release:
                        if cores[core_id].status == BARRIER_WAIT:
                            cores[core_id].status = RUNNING
                    self._deferred_release.clear()
                    self._enter_coupled()
                if event_driven:
                    if self.mode == "coupled":
                        target = self._stalled_prev and self._coupled_release()
                    else:
                        target = self._idle and self._next_wake()
                    if target:
                        self._jump(target)
                        continue
                if self.mode == "coupled":
                    self._stalled_prev = not self._step_coupled()
                else:
                    self._step_decoupled_cycle()
                mode_count += 1
                key = master.frame.block.stat_key if master.stack else None
                if key is not block_key:
                    if block_count:
                        block_cycles[block_key] = (
                            block_cycles.get(block_key, 0) + block_count
                        )
                    block_key = key
                    block_count = 0
                if key is not None:
                    block_count += 1
                if self._mode_next is not None:
                    mode_cycles[self.mode] += mode_count
                    mode_count = 0
                    if self._mode_next != self.mode:
                        self.stats.mode_switches += 1
                        if self.recovery is not None:
                            # Degradation re-arms at mode barriers.
                            self.recovery.on_mode_switch(cycle + 1)
                        if observer is not None:
                            # This cycle still counts under the old mode;
                            # the switch takes effect at cycle + 1.
                            observer.mode_switch(
                                cycle + 1, self.mode, self._mode_next
                            )
                        if self._mode_next == "decoupled":
                            self._enter_decoupled()
                    self.mode = self._mode_next
                    self._mode_next = None
                if observer is not None:
                    observer.cycle(cycle)
                self.cycle = cycle + 1
        finally:
            # Flush even when OutOfCycles/Deadlock propagates, so the
            # stats and core frames reflect every completed cycle.
            self._settle_all(self.cycle)
            self._sync_frames()
            self.network.scheduler = None
            if mode_count:
                mode_cycles[self.mode] += mode_count
            if block_count:
                block_cycles[block_key] = (
                    block_cycles.get(block_key, 0) + block_count
                )
        self.stats.cycles = self.cycle
        self.stats.tx_commits = self.tm.commits
        self.stats.tx_aborts = self.tm.aborts
        if self.recovery is not None:
            self.stats.recovery = self.recovery.counters_dict()
            check_directory = getattr(self.bus, "check_directory", None)
            if check_directory is not None:
                # Destructive runs scrub dead cores out of the sharer
                # vectors mid-flight; prove the directory still mirrors
                # the L1s once the run settles.
                check_directory()
        if observer is not None:
            observer.finalize(self)
        return self.stats

    def final_memory(self) -> Dict[int, Value]:
        return self.memory.as_dict()

    def array_values(self, name: str) -> List[Value]:
        symbol = self.compiled.program.array(name)
        return [self.memory.load(symbol.base + i) for i in range(symbol.size)]

    # -- helpers -------------------------------------------------------------------

    def _live_cores(self) -> List[Core]:
        return [core for core in self.cores if core.status != HALTED]

    def _check_deadlock(self) -> None:
        # Hot path: bail at the first live core that is not listening
        # (normally core 0, immediately) without building any lists.
        any_live = False
        for core in self.cores:
            status = core.status
            if status != HALTED:
                if status != LISTENING:
                    return
                any_live = True
        if any_live and self.network.quiescent():
            raise Deadlock(
                f"cycle {self.cycle}: every live core is listening and the "
                "network is quiescent\n" + self._core_diagnostics()
            )

    def _core_diagnostics(self) -> str:
        """Per-core state for Deadlock/OutOfCycles messages: position,
        stall reason, and operand-queue occupancy -- enough to debug a
        chaos-suite failure from the exception text alone."""
        self._sync_frames()
        lines = [f"mode={self.mode} cycle={self.cycle}"]
        for core in self.cores:
            if core.stack:
                name, label, slot = core.position()
                where = f"pc={name}:{label}:{slot}"
            else:
                where = "pc=<no frame>"
            if core.next_free > self.cycle:
                stall = (
                    f"blocked[{core.pending_cause or 'latency'}] "
                    f"until cycle {core.next_free}"
                )
            else:
                stall = "free"
            lines.append(
                f"  core {core.id}: {core.status} {where} {stall} "
                f"queue={self.network.pending_for(core.id)} pending msg(s)"
            )
        return "\n".join(lines)

    # -- clock jumps and bulk credits -----------------------------------------

    def _jump(self, target: int) -> None:
        """Advance the clock over cycles in which no core is due,
        crediting their mode residency and block attribution in bulk."""
        cycle = self.cycle
        skipped = target - cycle
        self.stats.mode_cycles[self.mode] += skipped
        master = self.cores[0]
        if master.stack:
            key = master.frame.block.stat_key
            self.stats.block_cycles[key] = (
                self.stats.block_cycles.get(key, 0) + skipped
            )
        if self.observer is not None:
            self.observer.fast_forward_window(cycle, target)
        self.cycle = target
        self._idle = False  # the earliest sleeper is due at the target

    def _credit(self, core: Core, cause: str, start: int, cycles: int) -> None:
        """Charge ``cycles`` stall cycles starting at cycle ``start``.  An
        observer's stall hook stamps its span with ``self.cycle``, so the
        clock reads ``start`` for the duration of the call."""
        if cause == "send":
            self.network.send_stalls += cycles
        if self.observer is None:
            core.stats.stall(cause, cycles)
            return
        now = self.cycle
        self.cycle = start
        try:
            core.stats.stall(cause, cycles)
        finally:
            self.cycle = now

    def _settle(self, core: Core, until: int) -> None:
        """Credit a sleeping core's stall cycles up to ``until``."""
        start = core.asleep_from
        if until > start:
            self._credit(core, core.asleep_cause, start, until - start)
            core.asleep_from = until

    def _settle_all(self, until: int) -> None:
        """Bring every per-core tally up to date through cycle
        ``until - 1``: sleeping cores' stalls and the ensemble's busy."""
        self._flush_busy()
        for core in self.cores:
            if core.asleep_cause is not None:
                self._settle(core, until)

    def _sleep(self, core: Core, cause: str, wake: int,
               waits_on: object = None,
               waiters: Optional[List[Core]] = None) -> None:
        """Put a decoupled core to sleep from the next cycle until
        ``wake``, owing ``cause`` for every cycle it sleeps through;
        ``waiters`` is the list another core's action empties to wake it."""
        if self._event_driven:
            core.wake = wake
            core.asleep_cause = cause
            core.asleep_from = self.cycle + 1
            core.waits_on = waits_on
            if waiters is not None:
                waiters.append(core)

    def _wake(self, core: Core) -> None:
        """Another core changed what ``core`` sleeps on: step it again
        this cycle if the step order has not reached it, else next cycle
        (the sleep credit covers this cycle then, as it should)."""
        if core.wake > self.cycle:
            core.wake = self.cycle

    def on_send(self, message) -> None:
        """Network hook: a message is on its way to ``message.dst``."""
        core = self.cores[message.dst]
        waits_on = core.waits_on
        if waits_on is None or message.ready_cycle >= core.wake:
            return
        if waits_on == "control":
            if message.kind == "data":
                return
        elif message.kind != "data" or waits_on != (message.src, message.tag):
            return
        core.wake = message.ready_cycle

    def on_credit(self, dst: int) -> None:
        """Network hook: a queue slot toward ``dst`` was returned."""
        if self._send_waiters:
            for core in self._send_waiters.pop(dst, ()):
                self._wake(core)

    def _next_wake(self) -> int:
        """Decoupled mode with no core awake: the earliest wake time
        (clamped to the cycle budget), or 0 when some core is due now."""
        wake = min(core.wake for core in self.cores)
        if wake <= self.cycle:
            return 0
        if wake >= NEVER:
            # Every live core sleeps and nothing in the machine will ever
            # wake one: barrier arrivals, commits, sends, and control
            # messages all require some core to issue first.
            raise Deadlock(
                f"cycle {self.cycle}: every core is blocked with no "
                "release cycle\n" + self._core_diagnostics()
            )
        return min(wake, self.max_cycles)

    # -- mode transitions ------------------------------------------------------------

    def _enter_coupled(self) -> None:
        """Barrier release: the released cores form the ensemble, which
        rebuilds its position (and probes every fetch) from their frames."""
        running = [core for core in self.cores if core.status == RUNNING]
        if running != self._running:
            self._bundles.clear()  # bundles hold the old membership
        self._running = running
        self._bundle = None
        self._hold = max((core.next_free for core in running), default=0)
        self._stalled_prev = False  # the last arrival issued

    def _enter_decoupled(self) -> None:
        """Lock-step ends: write the shared position and busy count back
        to the cores, and make every live core due."""
        self._sync_frames()
        self._flush_busy()
        self._bundle = None
        for core in self.cores:
            # The first decoupled fetch always probes: every core's
            # position changed in the cycle that switched modes.
            core._fetched_block = None
            core.wake = NEVER if core.status == HALTED else 0
            core.asleep_cause = None
            core.waits_on = None
        self._tx_waiters.clear()
        self._send_waiters.clear()
        self._idle = False

    def _sync_frames(self) -> None:
        """Write the ensemble's shared slot back to the members' frames."""
        if self._bundle is not None:
            slot = self._slot
            for core in self._running:
                core.frame.slot = slot

    def _flush_busy(self) -> None:
        owed = self._busy_owed
        if owed:
            self._busy_owed = 0
            for core in self._running:
                core.stats.busy += owed

    # -- coupled (lock-step) stepping -------------------------------------------------

    def _apply_cluster_penalty(self, running: List[Core], cycle: int) -> None:
        """Clustered coupled mode: extend each *newly* blocked core's
        episode by the cross-cluster stall-propagation latency.  The
        ``_cluster_penalized`` set remembers which cores' current
        episodes have already paid, and is cleared per core the moment
        that core runs free again, so the next episode pays afresh."""
        penalized = self._cluster_penalized
        for core in running:
            if core.next_free > cycle:
                if core.id not in penalized:
                    penalized.add(core.id)
                    core.next_free += self._cluster_penalty
            else:
                penalized.discard(core.id)

    def _stall_bus(self) -> Optional[Tuple[str, int]]:
        """Stall-bus state at this cycle: ``(group cause, release)`` when
        a running member is blocked -- attribution holds until the
        earliest blocked member's fill returns -- else None."""
        cycle = self.cycle
        running = self._running
        if self._hold <= cycle:
            if self._cluster_penalized:
                self._apply_cluster_penalty(running, cycle)
            return None
        if self._cluster_penalty:
            self._apply_cluster_penalty(running, cycle)
        group_cause = None
        release = hold = NEVER
        for core in running:
            free = core.next_free
            if free > cycle:
                if group_cause is None:
                    group_cause = core.pending_cause or "latency"
                    hold = free
                elif free > hold:
                    hold = free
                if free < release:
                    release = free
        if group_cause is None:
            self._hold = cycle
            return None
        self._hold = hold
        return group_cause, release

    def _credit_stall_bus(self, group_cause: str, cycles: int) -> None:
        cycle = self.cycle
        for core in self._running:
            if core.next_free > cycle:
                core.stats.stall(core.pending_cause or "latency", cycles)
            else:
                core.stats.stall(group_cause, cycles)

    def _interlock(self) -> int:
        """The cycle the current bundle's last unready source register
        becomes ready (lock-step: the ensemble waits for all of them), or
        0 when every source is ready."""
        cycle = self.cycle
        release = 0
        ops = iter(self._bundle[0][self._slot])
        for core, entry in zip(ops, ops):
            if entry[2]:
                reg_ready = core.reg_ready
                for src in entry[2]:
                    ready = reg_ready.get(src, 0)
                    if ready > cycle and ready > release:
                        release = ready
        return release

    def _coupled_release(self) -> int:
        """Jump target for a stall the ensemble is still in after a
        stepped stall cycle, or 0 when it can step this cycle."""
        if not self._running:
            return 0
        held = self._stall_bus()
        if held is not None:
            group_cause, release = held
            target = min(release, self.max_cycles)
            if target > self.cycle:
                self._credit_stall_bus(group_cause, target - self.cycle)
                return target
            return 0
        if self._bundle is None or not self._fetched:
            return 0  # the position changes or fetches first
        target = min(self._interlock(), self.max_cycles)
        if target <= self.cycle:
            return 0
        for core in self._running:
            core.stats.stall("latency", target - self.cycle)
        return target

    def _rebuild(self) -> None:
        """Re-derive the shared position from the members' frames: fall
        through zero-length blocks, check lock-step, and select the
        block's bundles.  The next fetch probes every member."""
        running = self._running
        for core in running:
            frame = core.frame
            if frame.slot >= len(frame.block.slots):
                self._finish_block(core)
        first = running[0].frame
        slot = first.slot
        label = first.block.label
        function = first.function.name
        for core in running:
            frame = core.frame
            if (
                frame.slot != slot
                or frame.block.label != label
                or frame.function.name != function
            ):
                raise SimulatorError(
                    f"cycle {self.cycle}: coupled cores diverged: "
                    + ", ".join(repr(core) for core in running)
                )
        # Keyed by block identity (CoreBlock compares by value); the
        # compiled program keeps every block alive for the machine's life.
        bundle = self._bundles.get(id(first.block))
        if bundle is None:
            bundle = self._bundles[id(first.block)] = self._build_bundle()
        self._bundle = bundle
        self._slot = slot
        self._fetched = False
        self._probe_all = True

    def _build_bundle(self) -> Tuple[list, list]:
        """Decode the members' current blocks into per-slot cross-core
        bundles: ``(ops, probes)``, where ``ops[slot]`` is a flat
        ``(core, decoded entry, core, entry, ...)`` tuple of the slot's
        non-empty ops -- direct-wire ops first (issue phase A drives the
        wires the phase B GETs latch), each phase in core order -- and
        ``probes[slot]`` the cores whose fetch there starts an I-cache
        line.  Flat tuples keep the bundles of a 64-core block small."""
        running = self._running
        blocks = [core.frame.block for core in running]
        length = len(blocks[0].slots)
        if any(len(block.slots) != length for block in blocks):
            raise SimulatorError(
                f"cycle {self.cycle}: coupled cores diverged: block "
                f"{blocks[0].label} has different lengths across cores"
            )
        decoded = [block.decoded or self._decode(block) for block in blocks]
        line = self._line_words
        ops, probes = [], []
        for slot in range(length):
            wires, others, starts = [], [], []
            for core, block, entries in zip(running, blocks, decoded):
                entry = entries[slot]
                if entry is not None:
                    (wires if entry[3] else others).extend((core, entry))
                if (block.base_addr + slot) % line == 0:
                    starts.append(core)
            ops.append(tuple(wires + others))
            probes.append(tuple(starts))
        return ops, probes

    def _fetch(self) -> bool:
        """The current bundle's I-fetch; True when any member missed."""
        cycle = self.cycle
        slot = self._slot
        l2 = self.bus.l2
        memory_latency = self._memory_latency
        icaches = self.icaches
        missed = False
        for core in self._running if self._probe_all else self._bundle[1][slot]:
            addr = ICODE_BASE * (core.id + 1) + core.frame.block.base_addr + slot
            extra = icaches[core.id].access(addr, l2, memory_latency)
            if extra:
                core.stats.l1i_misses += 1
                core.block_until(cycle + 1 + extra, "istall")
                if core.next_free > self._hold:
                    self._hold = core.next_free
                missed = True
        return missed

    def _step_coupled(self) -> bool:
        """One lock-step cycle of the ensemble; True when it issued."""
        cycle = self.cycle
        running = self._running
        if not running:
            return False

        # Fault injection: a transient stall-bus assertion holds the
        # whole group for a few cycles, exactly as if a member were
        # blocked; lock-step alignment is preserved because nobody moves.
        if not self._event_driven:
            if self.faults is not None:
                hold = self.faults.stall_hold()
                if hold:
                    for core in running:
                        core.block_until(cycle + hold, "latency")
            # Recovery may move next_free either way; re-derive the bound.
            self._hold = max(core.next_free for core in running)

        # Stall bus: any blocked member stalls the whole group.  Across
        # cluster boundaries the stall signal rides the (slower)
        # cluster-level network: each blocked core's episode stretches by
        # the propagation penalty, once, when the episode is first seen.
        held = self._stall_bus()
        if held is not None:
            self._credit_stall_bus(held[0], 1)
            return False

        if self._bundle is None:
            self._rebuild()
        slot = self._slot
        ops_by_slot, probes_by_slot = self._bundle
        if not self._fetched:
            # Fetch phase: an I-miss on any core stalls the group.
            self._fetched = True
            if (self._probe_all or probes_by_slot[slot]) and self._fetch():
                for core in running:
                    core.stats.stall("istall")
                return False
        ops = ops_by_slot[slot]

        # Scoreboard phase: lock-step means one unready core stalls all.
        pairs = iter(ops)
        for core, entry in zip(pairs, pairs):
            if entry[2]:
                reg_ready = core.reg_ready
                for src in entry[2]:
                    if reg_ready.get(src, 0) > cycle:
                        for member in running:
                            member.stats.stall("latency")
                        return False

        observer = self.observer
        self._busy_owed += 1
        hold = self._hold
        redirected = None
        # Issue phase A drives the direct wires; phase B issues
        # everything else (GETs read the wires driven in phase A).
        pairs = iter(ops)
        for core, (op, handler, _, _) in zip(pairs, pairs):
            core.frame.slot = slot
            if observer is not None:
                observer.op(cycle, core.id, op)
            if handler is None:
                raise SimulatorError(f"unimplemented opcode {op.opcode!r}")
            outcome = handler(self, core, op)
            core.stats.ops_executed += 1
            if core.next_free > hold:
                hold = core.next_free
            if outcome != "ok":
                if outcome == "stall":
                    raise SimulatorError(
                        f"cycle {cycle}: {op!r} stalled in coupled mode "
                        f"on core {core.id}; the compiler must not place "
                        "queue-mode waits in coupled regions"
                    )
                if redirected is None:
                    redirected = set()
                redirected.add(core.id)
        self._hold = hold

        slot += 1
        if redirected is None and slot < len(ops_by_slot):
            self._slot = slot
            self._fetched = False
            # Fault draws ride on I-cache hits: the reference schedule
            # probes every slot, the event-driven one only line starts.
            self._probe_all = not self._event_driven
            return True
        # Block end or control transfer: advance the cores that did not
        # redirect, then rebuild the position at the next issue.
        for core in running:
            if core.status == RUNNING and (
                redirected is None or core.id not in redirected
            ):
                frame = core.frame
                frame.slot = slot
                if slot >= len(frame.block.slots):
                    self._finish_block(core)
        self._bundle = None
        if redirected is not None:
            members = [core for core in running if core.status == RUNNING]
            if len(members) != len(running):
                self._flush_busy()
                self._running = members
                self._bundles.clear()
        return True

    # -- decoupled stepping --------------------------------------------------------

    def _step_decoupled_cycle(self) -> None:
        """Step every core whose wake time has come, in core order."""
        cycle = self.cycle
        awake = False
        for core in self.cores:
            if core.wake > cycle:
                continue
            if core.asleep_cause is not None:
                self._settle(core, cycle)
                core.asleep_cause = None
                core.waits_on = None
            self._step_decoupled(core)
            if core.wake <= cycle:
                if core.status == HALTED:
                    core.wake = NEVER
                elif core.next_free > cycle + 1:
                    # Cache fill (or commit latency) outstanding.
                    self._sleep(
                        core, core.pending_cause or "latency", core.next_free
                    )
                else:
                    awake = True
        self._idle = not awake

    def _step_decoupled(self, core: Core) -> None:
        cycle = self.cycle
        if core.status == HALTED:
            return
        if core.status == BARRIER_WAIT:
            cause = "call_sync" if core.id in self._barrier.get("call", set()) else (
                "barrier"
            )
            core.stats.stall(cause)
            return
        if core.next_free > cycle:
            core.stats.stall(core.pending_cause or "latency")
            return
        if core.status == LISTENING:
            self._step_listening(core)
            return

        # Destructive faults: a RUNNING, issue-ready core inside a
        # speculative chunk may black out this cycle (wiping registers
        # and scoreboard); the watchdog recovers it via TM rollback.
        if self.recovery is not None and self.recovery.maybe_blackout(
            core, cycle
        ):
            core.stats.stall("latency")
            return

        # Zero-length blocks (pure structure) fall through without cost.
        frame = core.frame
        if frame.slot >= len(frame.block.slots):
            self._finish_block(core)
            if core.status != RUNNING:
                return
            frame = core.frame

        # Fetch.
        addr = core.take_fetch(self._skip_line)
        if addr is not None:
            extra = self.icaches[core.id].access(
                ICODE_BASE * (core.id + 1) + addr,
                self.bus.l2,
                self._memory_latency,
            )
            if extra:
                core.stats.l1i_misses += 1
                core.block_until(cycle + 1 + extra, "istall")
                core.stats.stall("istall")
                return

        slot = frame.slot
        block = frame.block
        entry = (block.decoded or self._decode(block))[slot]
        if entry is None:
            core.stats.busy += 1
            frame.slot = slot + 1
            self._finish_block(core)
            return

        op, handler, srcs, _ = entry
        opcode = op.opcode
        if opcode is Opcode.CALL:
            self._arrive_call_barrier(core, op)
            return
        if opcode is Opcode.TX_COMMIT and not self.tm.may_commit(core.id):
            core.stats.stall("tx_wait")
            self._sleep(core, "tx_wait", NEVER, waiters=self._tx_waiters)
            return
        if (
            opcode is Opcode.TX_BEGIN
            and self.recovery is not None
            and self.recovery.defer_tx_begin(core, op)
        ):
            # Graceful degradation: a degraded core issues its chunks
            # under the serialized fewer-core schedule.
            core.stats.stall("tx_wait")
            return
        if opcode in _QUEUE_SEND_OPS:
            target = op.attrs["target_core"]
            if not self.network.can_send(core.id, target):
                core.stats.stall("send")
                self.network.send_stalls += 1
                self._sleep(
                    core, "send", NEVER,
                    waiters=self._send_waiters.setdefault(target, []),
                )
                return
        reg_ready = core.reg_ready
        for src in srcs:
            if reg_ready.get(src, 0) > cycle:
                core.stats.stall("latency")
                return

        if self.observer is not None:
            self.observer.op(cycle, core.id, op)
        if handler is None:
            raise SimulatorError(f"unimplemented opcode {opcode!r}")
        outcome = handler(self, core, op)
        if outcome == "stall":
            # The receive queue held no matching message (stall already
            # attributed): sleep until one arrives.
            source, tag = op.attrs["source_core"], op.attrs.get("tag")
            arrival = self.network.next_data_arrival(core.id, source, tag)
            self._sleep(
                core,
                self._recv_category(op),
                NEVER if arrival is None else arrival,
                (source, tag),
            )
            return
        core.stats.busy += 1
        core.stats.ops_executed += 1
        if core.status == RUNNING and outcome == "ok":
            frame = core.frame
            frame.slot += 1
            if frame.slot >= len(frame.block.slots):
                self._finish_block(core)

    def _step_listening(self, core: Core) -> None:
        message = self.network.peek_control(core.id, self.cycle)
        if message is None:
            core.stats.stall("idle")
            arrival = self.network.next_control_arrival(core.id)
            self._sleep(
                core, "idle", NEVER if arrival is None else arrival, "control"
            )
            return
        core.stats.busy += 1
        core.status = RUNNING
        if self.observer is not None:
            self.observer.recv(core, message.src, CONTROL_TAG)
        if message.kind == "spawn":
            core.jump(message.value)
        else:  # release: move past the LISTEN op
            core.advance_slot()
            self._finish_block(core)

    def _arrive_barrier(self, core: Core, kind: str) -> Optional[Set[int]]:
        """Record ``core`` at the ``kind`` barrier (it waits from the next
        cycle on); returns the arrived core ids when it is the last live
        core to arrive, else None.  On completion every waiter is
        released at the next cycle boundary and settled through this
        cycle: waiters later in the step order than the last arriver see
        the barrier gone this cycle and are charged ``barrier``."""
        arrived = self._barrier.setdefault(kind, set())
        arrived.add(core.id)
        core.status = BARRIER_WAIT
        self._sleep(core, "call_sync" if kind == "call" else "barrier", NEVER)
        live = {c.id for c in self._live_cores()}
        if not arrived >= live:
            return None
        del self._barrier[kind]
        self._deferred_release.update(arrived)
        cycle = self.cycle
        for member_id in arrived:
            member = self.cores[member_id]
            if member.asleep_cause is None:
                continue
            self._settle(member, cycle)
            if member.asleep_from == cycle:  # it waited through this cycle
                cause = member.asleep_cause if member_id < core.id else "barrier"
                self._credit(member, cause, cycle, 1)
            member.asleep_cause = None
        return arrived

    def _arrive_call_barrier(self, core: Core, op: Operation) -> None:
        """Decoupled-mode CALL: wait for every live core, then call in
        lock-step (the paper's call/return synchronization)."""
        core.stats.busy += 1  # the arrival cycle issues the (pending) call
        arrived = self._arrive_barrier(core, "call")
        if arrived is None:
            return
        callee_names = set()
        for member_id in sorted(arrived):
            member = self.cores[member_id]
            call_op = member.current_op()
            assert call_op is not None and call_op.opcode is Opcode.CALL
            callee_names.add(call_op.attrs["function"])
            self._do_call(member, call_op)
        if len(callee_names) != 1:
            raise SimulatorError(
                f"cycle {self.cycle}: cores joined a call barrier for "
                f"different callees {sorted(callee_names)}"
            )
        self._mode_restore.append((self.cores[0].call_depth - 1, "decoupled"))
        self._mode_next = "coupled"

    # -- operation semantics ----------------------------------------------------------

    @staticmethod
    def _recv_category(op: Operation) -> str:
        sync = op.attrs.get("sync")
        if sync == "call":
            return "call_sync"
        if op.dests and op.dests[0].file is RegFile.PR:
            return "recv_pred"
        return "recv_data"

    def _do_load(self, core: Core, op: Operation) -> str:
        read = core.read_operand
        addr = int(read(op.srcs[0])) + int(read(op.srcs[1]))
        cycles, miss = self.bus.access(core.id, addr, is_store=False)
        value = self.tm.load(core.id, addr)
        core.write_reg(op.dest, value, self.cycle + 1 + cycles)
        core.stats.loads += 1
        if self.observer is not None:
            self.observer.load(core, op, addr)
        if miss or cycles > self.config.l1d.hit_latency:
            core.stats.l1d_misses += miss
            core.block_until(self.cycle + 1 + cycles, "dstall")
        return "ok"

    def _do_store(self, core: Core, op: Operation) -> str:
        read = core.read_operand
        addr = int(read(op.srcs[0])) + int(read(op.srcs[1]))
        cycles, miss = self.bus.access(core.id, addr, is_store=True)
        self.tm.store(core.id, addr, read(op.srcs[2]))
        core.stats.stores += 1
        if self.observer is not None:
            self.observer.store(core, op, addr)
        if miss or cycles > self.config.l1d.hit_latency:
            core.stats.l1d_misses += miss
            core.block_until(self.cycle + 1 + cycles, "dstall")
        return "ok"

    def _do_branch(self, core: Core, op: Operation) -> str:
        read = core.read_operand
        taken = len(op.srcs) == 1 or bool(read(op.srcs[1]))
        if taken:
            core.jump(read(op.srcs[0]))
        else:
            if core.frame.block.fall is None:
                raise SimulatorError(
                    f"core {core.id} fell through a branch with no fall "
                    f"edge in {core.frame.block.label}"
                )
            core.jump(core.frame.block.fall)
        return "redirect"

    def _do_call_op(self, core: Core, op: Operation) -> str:
        self._do_call(core, op)
        return "redirect"

    def _do_call(self, core: Core, op: Operation) -> None:
        callee = self.compiled.core_function(core.id, op.attrs["function"])
        # Copy arguments into the callee's formal registers on this core.
        formals = self.compiled.program.function(op.attrs["function"]).params
        values = [core.read_operand(src) for src in op.srcs]
        core.frame.slot += 1  # resume after the call
        core.push_frame(callee, return_dest=op.dest)
        for reg, value in zip(formals, values):
            core.write_reg(reg, value, self.cycle + 1)

    def _do_ret(self, core: Core, op: Operation) -> str:
        value = core.read_operand(op.srcs[0]) if op.srcs else None
        finished = core.pop_frame()
        if not core.stack:
            core.status = HALTED
            self._halted_count += 1
            if core.id == 0:
                self.return_value = value
            return "redirect"
        if finished.return_dest is not None and op.srcs:
            core.write_reg(finished.return_dest, value, self.cycle + 1)
        if (
            self._mode_restore
            and self._mode_restore[-1][0] == core.call_depth
            and not self._restore_done_this_cycle
        ):
            _, mode = self._mode_restore.pop()
            self._mode_next = mode
            self._restore_done_this_cycle = True
        self._finish_block(core)
        return "redirect"

    def _do_halt(self, core: Core, op: Operation) -> str:
        if self.tm.in_transaction(core.id):
            raise SimulatorError(f"core {core.id} halted inside a transaction")
        core.status = HALTED
        self._halted_count += 1
        return "redirect"

    def _do_put(self, core: Core, op: Operation) -> str:
        self.network.direct.put(
            core.id, op.attrs["direction"], core.read_operand(op.srcs[0]),
            self.cycle,
        )
        return "ok"

    def _do_bcast(self, core: Core, op: Operation) -> str:
        self.network.direct.bcast(
            core.id, core.read_operand(op.srcs[0]), self.cycle
        )
        return "ok"

    def _do_get(self, core: Core, op: Operation) -> str:
        value = self.network.direct.get(
            core.id,
            op.attrs["direction"],
            self.cycle,
            bcast_src=op.attrs.get("bcast_src"),
        )
        core.write_reg(op.dest, value, self.cycle + 1)
        return "ok"

    def _do_send(self, core: Core, op: Operation) -> str:
        self.network.send(
            core.id,
            op.attrs["target_core"],
            core.read_operand(op.srcs[0]),
            self.cycle,
            tag=op.attrs.get("tag"),
        )
        core.stats.messages_sent += 1
        if self.observer is not None:
            self.observer.send(core, op.attrs["target_core"], op.attrs.get("tag"))
        return "ok"

    def _do_recv(self, core: Core, op: Operation) -> str:
        message = self.network.try_receive(
            core.id,
            op.attrs["source_core"],
            self.cycle,
            tag=op.attrs.get("tag"),
        )
        if message is None:
            core.stats.stall(self._recv_category(op))
            return "stall"
        if op.dests:
            core.write_reg(op.dest, message.value, self.cycle + 1)
        core.stats.messages_received += 1
        if self.observer is not None:
            self.observer.recv(core, op.attrs["source_core"], op.attrs.get("tag"))
        return "ok"

    def _do_spawn(self, core: Core, op: Operation) -> str:
        self.network.send(
            core.id,
            op.attrs["target_core"],
            op.attrs["target_block"],
            self.cycle,
            kind="spawn",
        )
        self.stats.spawns += 1
        if self.observer is not None:
            self.observer.send(core, op.attrs["target_core"], CONTROL_TAG)
        return "ok"

    def _do_release(self, core: Core, op: Operation) -> str:
        self.network.send(
            core.id, op.attrs["target_core"], None, self.cycle, kind="release"
        )
        if self.observer is not None:
            self.observer.send(core, op.attrs["target_core"], CONTROL_TAG)
        return "ok"

    def _do_sleep(self, core: Core, op: Operation) -> str:
        assert core.listen_return is not None, "SLEEP outside a spawned thread"
        block, slot = core.listen_return
        core.frame.block = block
        core.frame.slot = slot
        core._fetched = None
        core.status = LISTENING
        return "redirect"

    def _do_listen(self, core: Core, op: Operation) -> str:
        core.listen_return = (core.frame.block, core.frame.slot)
        core.status = LISTENING
        return "redirect"

    def _do_tx_begin(self, core: Core, op: Operation) -> str:
        self.tm.begin(
            core.id,
            op.attrs["region"],
            op.attrs["order"],
            op.attrs.get("chunks", 0),
        )
        core.checkpoint_registers(op.attrs["restart"])
        return "ok"

    def _do_tx_commit(self, core: Core, op: Operation) -> str:
        if self.tm.try_commit(core.id):
            core.block_until(
                self.cycle + 1 + self.config.tm_commit_latency, "tx_wait"
            )
            core.tx_checkpoint = None
            if self._tx_waiters:
                # The next chunk in commit order may now commit.
                for waiter in self._tx_waiters:
                    self._wake(waiter)
                self._tx_waiters.clear()
            return "ok"
        restart = core.rollback_registers()
        core.jump(restart)
        return "redirect"

    def _do_mode_switch(self, core: Core, op: Operation) -> str:
        target = op.attrs["mode"]
        if target == "decoupled":
            self._mode_next = "decoupled"
            return "ok"
        if self.mode == "coupled":
            return "ok"  # already coupled (e.g. program prologue)
        # Decoupled -> coupled: barrier.  Advance past the switch first so
        # the core resumes after it once the barrier completes.
        core.advance_slot()
        self._finish_block(core)
        if self._arrive_barrier(core, "mode") is not None:
            self._mode_next = "coupled"
        return "redirect"

    def _finish_block(self, core: Core) -> None:
        """Fall through block ends (possibly several empty blocks)."""
        while core.status == RUNNING and core.at_block_end():
            if not core.fall_through():
                raise SimulatorError(
                    f"core {core.id} ran off the end of block "
                    f"{core.frame.block.label} in {core.frame.function.name}"
                )


def build_dispatch_table() -> Dict[Opcode, Handler]:
    """Build the opcode dispatch table: every handler closes over its
    result latency (resolved once through :func:`resolved_latencies`), so
    the execute path performs no opcode branching or latency lookups."""
    latency = resolved_latencies()
    table: Dict[Opcode, Handler] = {}

    def alu_entry(fn, lat: int) -> Handler:
        def run(machine, core, op, _fn=fn, _lat=lat):
            core.write_reg(
                op.dest,
                _fn(*map(core.read_operand, op.srcs)),
                machine.cycle + _lat,
            )
            return "ok"

        return run

    def cmp_entry(fn, lat: int) -> Handler:
        def run(machine, core, op, _fn=fn, _lat=lat):
            core.write_reg(
                op.dest,
                bool(_fn(*map(core.read_operand, op.srcs))),
                machine.cycle + _lat,
            )
            return "ok"

        return run

    def convert_entry(convert, lat: int) -> Handler:
        def run(machine, core, op, _cv=convert, _lat=lat):
            core.write_reg(
                op.dest, _cv(core.read_operand(op.srcs[0])), machine.cycle + _lat
            )
            return "ok"

        return run

    for opcode, fn in ALU_SEMANTICS.items():
        table[opcode] = alu_entry(fn, latency[opcode])
    for opcode, fn in COMPARISONS.items():
        table[opcode] = cmp_entry(fn, latency[opcode])
    for opcode in (Opcode.MOV, Opcode.FMOV, Opcode.PMOV):
        table[opcode] = convert_entry(lambda v: v, latency[opcode])
    table[Opcode.ITOF] = convert_entry(float, latency[Opcode.ITOF])
    table[Opcode.FTOI] = convert_entry(int, latency[Opcode.FTOI])

    def pand(machine, core, op):
        read = core.read_operand
        core.write_reg(
            op.dest, bool(read(op.srcs[0]) and read(op.srcs[1])),
            machine.cycle + 1,
        )
        return "ok"

    def por(machine, core, op):
        read = core.read_operand
        core.write_reg(
            op.dest, bool(read(op.srcs[0]) or read(op.srcs[1])),
            machine.cycle + 1,
        )
        return "ok"

    def pnot(machine, core, op):
        core.write_reg(
            op.dest, not core.read_operand(op.srcs[0]), machine.cycle + 1
        )
        return "ok"

    def select(machine, core, op):
        pred, a, b = map(core.read_operand, op.srcs)
        core.write_reg(op.dest, a if pred else b, machine.cycle + 1)
        return "ok"

    def pbr(machine, core, op):
        core.write_reg(op.dest, op.attrs["target"], machine.cycle + 1)
        return "ok"

    def nop(machine, core, op):
        return "ok"

    table[Opcode.PAND] = pand
    table[Opcode.POR] = por
    table[Opcode.PNOT] = pnot
    table[Opcode.SELECT] = select
    table[Opcode.PBR] = pbr
    table[Opcode.NOP] = nop
    table[Opcode.LOAD] = VoltronMachine._do_load
    table[Opcode.STORE] = VoltronMachine._do_store
    table[Opcode.BR] = VoltronMachine._do_branch
    table[Opcode.CALL] = VoltronMachine._do_call_op
    table[Opcode.RET] = VoltronMachine._do_ret
    table[Opcode.HALT] = VoltronMachine._do_halt
    table[Opcode.PUT] = VoltronMachine._do_put
    table[Opcode.BCAST] = VoltronMachine._do_bcast
    table[Opcode.GET] = VoltronMachine._do_get
    table[Opcode.SEND] = VoltronMachine._do_send
    table[Opcode.RECV] = VoltronMachine._do_recv
    table[Opcode.SPAWN] = VoltronMachine._do_spawn
    table[Opcode.RELEASE] = VoltronMachine._do_release
    table[Opcode.SLEEP] = VoltronMachine._do_sleep
    table[Opcode.LISTEN] = VoltronMachine._do_listen
    table[Opcode.MODE_SWITCH] = VoltronMachine._do_mode_switch
    table[Opcode.TX_BEGIN] = VoltronMachine._do_tx_begin
    table[Opcode.TX_COMMIT] = VoltronMachine._do_tx_commit
    return table
