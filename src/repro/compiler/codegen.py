"""Lowering: from the IR to per-core machine code.

The pipeline per function:

1. **Plan** every block: partition ops across cores (BUG for coupled
   fabric, eBUG for strand regions, DSWP stages for pipelined loops, chunk
   cloning for DOALL), replicate the control ops coupled mode needs on
   every core, and build the derived region blocks (mode-switch brackets,
   DOALL dispatch/join, prologue/epilogue).
2. **Aggregate** register use sites per core (function-wide and per
   region).
3. **Insert communication**: def-site PUT/GET chains and BCASTs in coupled
   blocks, SEND/RECV pairs plus dummy memory synchronization in decoupled
   blocks, region live-out forwarding before each exit barrier.
4. **Schedule**: jointly (lock-step, NOP-padded, aligned branches) for
   coupled blocks; per-core, order-preserving for decoupled blocks.
5. **Assemble** :class:`CompiledProgram` streams.

The input :class:`~repro.isa.program.Program` is never mutated: every op
entering machine code is a fresh-uid clone carrying ``attrs['origin']``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.config import MachineConfig
from ..arch.mesh import Mesh
from ..isa.machinecode import CompiledProgram, CoreBlock, CoreFunction
from ..isa.operations import (
    Imm,
    Opcode,
    Operation,
    Reg,
    RegFile,
    fresh_uid,
    make_op,
)
from ..isa.program import BasicBlock, Function, Program
from .comm import (
    coupled_transfer,
    decoupled_transfer,
    memory_sync_pair,
    recv_value,
    send_value,
)
from .dependence import memory_dependences
from .dfg import build_block_dfg, carried_register_edges
from .doall import COMBINABLE, DoallPlan
from .loops import split_loop_latch
from .partition.bug import BugPartitioner
from .partition.ebug import EBugPartitioner
from .profiling import ExecutionProfile
from .regions import Region, select_regions
from .schedule import fresh_align_id, schedule_coupled, schedule_decoupled

#: Control ops replicated on every core in coupled mode.
REPLICATED_CONTROL = frozenset(
    {Opcode.PBR, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT}
)


class LoweringError(Exception):
    pass


def _clone(op: Operation, core: int, **extra) -> Operation:
    mc = op.clone(core=core)
    mc.attrs["origin"] = op.uid
    mc.uid = fresh_uid()
    for key, value in extra.items():
        mc.attrs[key] = value
    return mc


def _mk(opcode: Opcode, core: int, dests=None, srcs=None, **attrs) -> Operation:
    op = make_op(opcode, dests, srcs, **attrs)
    op.core = core
    return op


@dataclass
class PlannedBlock:
    """A machine-level block before communication insertion/scheduling."""

    label: str
    mode: str  # 'coupled' | 'decoupled'
    region: int  # 0 = default coupled fabric
    ops: List[Operation] = field(default_factory=list)
    taken: Optional[str] = None
    fall: Optional[str] = None
    cores_present: Optional[Set[int]] = None  # None = every core
    per_core_taken: Dict[int, Optional[str]] = field(default_factory=dict)
    per_core_fall: Dict[int, Optional[str]] = field(default_factory=dict)
    no_transfers: bool = False  # DOALL-internal blocks are pre-wired
    #: (reg, source core) candidates forwarded before this block's barrier.
    liveouts: List[Tuple[Reg, int]] = field(default_factory=list)

    def present_on(self, core: int) -> bool:
        return self.cores_present is None or core in self.cores_present

    def taken_for(self, core: int) -> Optional[str]:
        return self.per_core_taken.get(core, self.taken)

    def fall_for(self, core: int) -> Optional[str]:
        return self.per_core_fall.get(core, self.fall)


class Codegen:
    """Compiles one program for one machine configuration and strategy."""

    def __init__(
        self,
        program: Program,
        config: MachineConfig,
        profile: ExecutionProfile,
        strategy: str = "hybrid",
    ) -> None:
        program.validate()
        # Past one stall-bus group (> coupled_group_size cores) the
        # machine runs clustered coupled mode: the joint DVLIW schedule
        # and multi-hop PUT/GET chains generalize unchanged, and the
        # simulator charges the cluster-level stall network's
        # propagation penalty, so the compiler needs no special casing.
        self.program = program
        self.config = config
        self.n_cores = config.n_cores
        rows, cols = config.mesh_shape
        self.mesh = Mesh(rows, cols, config.n_cores)
        self.profile = profile
        self.strategy = strategy
        #: 'llp' runs non-region code serially on core 0 so the LLP-only
        #: experiment isolates loop-level parallelism (and 'baseline' is by
        #: definition one core).
        self.serial_fabric = strategy == "llp"
        self.region_table: Dict[Tuple[str, str], Dict[str, object]] = {}

    # -- public API ---------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        compiled = CompiledProgram(self.program, self.n_cores)
        # One id allocator per compilation: region ids (and the R<id>_*
        # labels built from them) depend only on the program, never on
        # earlier compilations in the same process.
        self._region_ids = itertools.count(1)
        for function in self.program.functions.values():
            self._lower_function(function, compiled)
        compiled.attrs["strategy"] = self.strategy
        compiled.attrs["regions"] = self.region_table
        compiled.validate()
        return compiled

    # -- per-function lowering -------------------------------------------------------

    def _lower_function(self, function: Function, compiled: CompiledProgram) -> None:
        self._current_function = function
        regions = select_regions(
            self.program, function, self.profile, self.n_cores, self.strategy,
            ids=self._region_ids,
        )
        region_by_block = {region.block: region for region in regions}

        planned: Dict[str, PlannedBlock] = {}
        order: List[str] = []
        entry = function.entry
        #: Extra (reg, core) use sites registered by region planners.
        self._extra_uses: List[Tuple[Reg, int]] = []
        #: Per-region local register use maps (for in-region transfers).
        self._region_uses: Dict[int, Dict[Reg, Set[int]]] = {}

        def add(block: PlannedBlock) -> PlannedBlock:
            if block.label in planned:
                raise LoweringError(f"duplicate planned block {block.label}")
            planned[block.label] = block
            order.append(block.label)
            return block

        for block in function.ordered_blocks():
            region = region_by_block.get(block.label)
            if region is None:
                add(self._plan_coupled_block(function, block))
                continue
            derived = self._plan_region(function, block, region)
            for planned_block in derived:
                add(planned_block)
            if block.label == entry:
                entry = f"R{region.rid}_enter"
            for fn_label in derived:
                self.region_table[(function.name, fn_label.label)] = {
                    "rid": region.rid,
                    "strategy": region.strategy,
                    "origin": region.block,
                }

        self._rewire_region_entries(planned, regions)
        use_all, use_by_region = self._collect_uses(planned)
        for block in planned.values():
            self._insert_transfers(block, use_all, use_by_region)
        self._assemble(function, planned, order, entry, compiled)

    # -- coupled fabric ---------------------------------------------------------------

    def _fabric_partition(
        self, function: Function, ops: Sequence[Operation]
    ) -> Dict[int, int]:
        """Core assignment for a coupled block's computational ops."""
        if self.serial_fabric or self.n_cores == 1 or not ops:
            return {op.uid: 0 for op in ops}
        # Carried edges (use-before-def registers) give BUG cross-iteration
        # and cross-block affinity hints.
        carried = carried_register_edges(ops)
        graph = build_block_dfg(self.program, ops, carried_regs=carried)
        partitioner = BugPartitioner(self.mesh, self.n_cores)
        return partitioner.partition(graph).assignment

    def _plan_coupled_block(
        self, function: Function, block: BasicBlock, label: Optional[str] = None
    ) -> PlannedBlock:
        computational = [
            op for op in block.ops if op.opcode not in REPLICATED_CONTROL
        ]
        assignment = self._fabric_partition(function, computational)
        flat: List[Operation] = []
        for op in block.ops:
            if op.opcode in REPLICATED_CONTROL:
                flat.extend(self._replicate(op))
            else:
                flat.append(_clone(op, assignment[op.uid]))
        planned = PlannedBlock(
            label=label or block.label,
            mode="coupled",
            region=0,
            ops=flat,
            taken=block.taken,
            fall=block.fall,
        )
        return planned

    def _replicate(self, op: Operation, align: bool = True) -> List[Operation]:
        """One clone per core; BR/CALL/RET/HALT clones co-issue."""
        align_id = fresh_align_id() if align and op.opcode is not Opcode.PBR else None
        clones = []
        for core in range(self.n_cores):
            clone = _clone(op, core, replicated=True)
            if align_id is not None:
                clone.attrs["align"] = align_id
            clones.append(clone)
        return clones

    def _mode_switch_block(
        self,
        label: str,
        target_mode: str,
        region: int,
        cores: Optional[Set[int]] = None,
    ) -> PlannedBlock:
        align_id = fresh_align_id() if target_mode == "decoupled" else None
        ops = []
        for core in range(self.n_cores):
            if cores is not None and core not in cores:
                continue
            op = _mk(Opcode.MODE_SWITCH, core, mode=target_mode)
            op.attrs["replicated"] = True
            if align_id is not None:
                op.attrs["align"] = align_id
            ops.append(op)
        # The block *entering* decoupled mode executes in coupled mode;
        # the barrier back runs decoupled.
        mode = "coupled" if target_mode == "decoupled" else "decoupled"
        return PlannedBlock(
            label=label, mode=mode, region=region, ops=ops, cores_present=cores
        )

    # -- region planning ------------------------------------------------------------

    def _plan_region(
        self, function: Function, block: BasicBlock, region: Region
    ) -> List[PlannedBlock]:
        if region.strategy == "doall":
            return self._plan_doall(function, block, region)
        if region.strategy == "dswp":
            return self._plan_pipelined(function, block, region)
        if region.strategy in ("strand", "strand_block"):
            return self._plan_strands(function, block, region)
        raise LoweringError(f"unknown region strategy {region.strategy!r}")

    # ...... strands (eBUG) and DSWP share most machinery ......................

    def _latch_split(
        self, function: Function, block: BasicBlock, region: Region
    ) -> Tuple[List[Operation], List[Operation], bool]:
        return split_loop_latch(block, region.loop)

    def _record_region_use(self, rid: int, op: Operation) -> None:
        table = self._region_uses.setdefault(rid, {})
        for reg in op.src_regs():
            table.setdefault(reg, set()).add(op.core)

    def _plan_strands(
        self, function: Function, block: BasicBlock, region: Region
    ) -> List[PlannedBlock]:
        rid = region.rid
        is_loop = region.loop is not None
        body, latch, replicate_latch = self._latch_split(function, block, region)

        induction_regs: Set[Reg] = set()
        if replicate_latch and region.loop and region.loop.induction:
            induction_regs = {region.loop.induction.reg}
        carried = carried_register_edges(block.ops, exclude=induction_regs)
        graph = build_block_dfg(self.program, block.ops, carried_regs=carried)
        self._add_carried_memory(graph, block.ops)

        partitioner = EBugPartitioner(self.mesh, self.profile, self.n_cores)
        assignment = partitioner.partition(graph).assignment

        # A CALL inside a decoupled region is a barrier every live core must
        # join (paper: "synchronization before function calls and returns"),
        # so call-bearing regions involve every core and replicate the call.
        has_call = any(op.opcode is Opcode.CALL for op in body)
        if has_call:
            participants = list(range(self.n_cores))
        else:
            participants = sorted({assignment[op.uid] for op in body}) or [0]
        participant_set = set(participants)

        flat: List[Operation] = []
        clone_of: Dict[int, Operation] = {}
        for op in body:
            if op.opcode is Opcode.CALL:
                for core in participants:
                    flat.append(_clone(op, core, replicated=True))
                continue
            clone = _clone(op, assignment[op.uid])
            clone_of[op.uid] = clone
            flat.append(clone)
        # Latch: replicate per participant (counted loops) or communicate
        # the predicate (the def-site rule handles the SEND/RECV).
        for op in latch:
            if op.opcode in (Opcode.PBR, Opcode.BR) or replicate_latch:
                for core in participants:
                    clone = _clone(op, core, replicated=True)
                    flat.append(clone)
            else:
                clone = _clone(op, assignment.get(op.uid, participants[0]))
                clone_of[op.uid] = clone
                flat.append(clone)

        self._check_no_cross_core_carried(carried, assignment)
        self._insert_memory_sync(function, flat)

        for op in flat:
            self._record_region_use(rid, op)

        body_block = PlannedBlock(
            label=block.label,
            mode="decoupled",
            region=rid,
            ops=flat,
            taken=block.taken if is_loop else None,
            fall=f"R{rid}_exit",
            cores_present=participant_set,
        )
        if not is_loop and block.taken is not None:
            raise LoweringError(
                "strand blocks with conditional exits are not supported; "
                f"{function.name}:{block.label} has a taken edge"
            )

        enter = self._mode_switch_block(f"R{rid}_enter", "decoupled", rid)
        for core in range(self.n_cores):
            enter.per_core_fall[core] = (
                block.label if core in participant_set else f"R{rid}_exit"
            )
        exit_block = self._mode_switch_block(f"R{rid}_exit", "coupled", rid)
        exit_block.fall = self._region_successor(function, block, region)
        exit_block.liveouts = self._region_liveout_candidates(flat)
        return [enter, body_block, exit_block]

    def _plan_pipelined(
        self, function: Function, block: BasicBlock, region: Region
    ) -> List[PlannedBlock]:
        rid = region.rid
        dswp = region.dswp
        assert dswp is not None and region.loop is not None
        body, latch, replicate_latch = self._latch_split(function, block, region)

        assignment: Dict[int, int] = {}
        for op in body:
            if op.uid not in dswp.stage_of:
                raise LoweringError(
                    f"DSWP partition is missing op {op!r} in {block.label}"
                )
            assignment[op.uid] = dswp.stage_of[op.uid]
        participants = sorted(set(assignment.values())) or [0]
        participant_set = set(participants)

        induction_regs: Set[Reg] = set()
        if replicate_latch and region.loop.induction is not None:
            induction_regs = {region.loop.induction.reg}
        carried = carried_register_edges(block.ops, exclude=induction_regs)

        flat: List[Operation] = []
        clone_of: Dict[int, Operation] = {}

        # Loop-carried values crossing stages: receive at the top of each
        # iteration (matching the previous iteration's post-definition
        # send), primed by a prologue send and drained in the epilogue.
        carried_channels: List[Tuple[Reg, int, int]] = []  # (reg, src, dst)
        for reg, (definition, users) in carried.items():
            src = assignment.get(definition.uid)
            if src is None:
                continue  # the definition is latch-replicated
            consumer_cores = {
                assignment[user.uid]
                for user in users
                if user.uid in assignment
            } - {src}
            for dst in sorted(consumer_cores):
                carried_channels.append((reg, src, dst))
                flat.append(
                    recv_value(dst, src, reg, tag=f"carried_{reg}")
                )

        for op in body:
            clone = _clone(op, assignment[op.uid])
            clone_of[op.uid] = clone
            flat.append(clone)
            for reg, src, dst in carried_channels:
                if op is carried[reg][0]:
                    flat.append(send_value(src, dst, reg, tag=f"carried_{reg}"))

        for op in latch:
            if op.opcode in (Opcode.PBR, Opcode.BR) or replicate_latch:
                for core in participants:
                    flat.append(_clone(op, core, replicated=True))
            else:
                flat.append(_clone(op, assignment.get(op.uid, participants[0])))

        self._insert_memory_sync(function, flat)
        for op in flat:
            self._record_region_use(rid, op)

        blocks: List[PlannedBlock] = []
        enter = self._mode_switch_block(f"R{rid}_enter", "decoupled", rid)
        blocks.append(enter)

        first_label = block.label
        if carried_channels:
            prologue = PlannedBlock(
                label=f"R{rid}_pro",
                mode="decoupled",
                region=rid,
                ops=[
                    send_value(src, dst, reg, tag=f"carried_{reg}")
                    for reg, src, dst in carried_channels
                ],
                fall=block.label,
                cores_present=participant_set,
            )
            for reg, src, dst in carried_channels:
                self._extra_uses.append((reg, src))
            blocks.append(prologue)
            first_label = prologue.label

        for core in range(self.n_cores):
            enter.per_core_fall[core] = (
                first_label if core in participant_set else f"R{rid}_exit"
            )

        body_block = PlannedBlock(
            label=block.label,
            mode="decoupled",
            region=rid,
            ops=flat,
            taken=block.taken,
            fall=f"R{rid}_exit",
            cores_present=participant_set,
        )
        blocks.append(body_block)

        exit_block = self._mode_switch_block(f"R{rid}_exit", "coupled", rid)
        exit_block.fall = self._region_successor(function, block, region)
        exit_block.liveouts = self._region_liveout_candidates(flat)
        # Drain the final carried sends so the queues stay balanced (and
        # deliver the final value as a live-out for free).
        drains = [
            recv_value(dst, src, reg, tag=f"carried_{reg}")
            for reg, src, dst in carried_channels
        ]
        exit_block.ops = drains + exit_block.ops
        blocks.append(exit_block)
        return blocks

    # ...... DOALL ............................................................

    def _plan_doall(
        self, function: Function, block: BasicBlock, region: Region
    ) -> List[PlannedBlock]:
        rid = region.rid
        plan = region.doall
        assert plan is not None
        n = self.n_cores
        induction = plan.induction
        ind = induction.reg
        regs = function.regs

        hi = regs.gpr()
        saved_start = regs.gpr()
        acc_priv: Dict[Reg, Reg] = {
            acc.reg: regs.gpr() if acc.reg.file is RegFile.GPR else regs.fpr()
            for acc in plan.accumulators
        }

        enter = self._mode_switch_block(f"R{rid}_enter", "decoupled", rid)
        for core in range(n):
            enter.per_core_fall[core] = f"R{rid}_pro"

        # Dispatch: core 0 spawns the chunk threads; others listen.
        pro_ops: List[Operation] = [
            _mk(Opcode.MOV, 0, [saved_start], [ind]),
        ]
        for core in range(1, n):
            pro_ops.append(
                _mk(
                    Opcode.SPAWN,
                    0,
                    target_core=core,
                    target_block=f"R{rid}_chunk",
                )
            )
        for core in range(1, n):
            pro_ops.append(_mk(Opcode.LISTEN, core))
        pro = PlannedBlock(
            label=f"R{rid}_pro",
            mode="decoupled",
            region=rid,
            ops=pro_ops,
            no_transfers=True,
        )
        pro.per_core_fall[0] = f"R{rid}_chunk"
        for core in range(1, n):
            pro.per_core_fall[core] = f"R{rid}_exit"

        # Chunk setup per core: compute [lo, hi), init private accumulators,
        # open the transaction, pre-test emptiness.
        chunk_ops: List[Operation] = []
        for core in range(n):
            chunk_ops.extend(
                self._chunk_bounds_ops(plan, core, n, ind, hi)
            )
            for acc in plan.accumulators:
                priv = acc_priv[acc.reg]
                identity = acc.identity() if acc.opcode is not Opcode.AND else -1
                if priv.file is RegFile.FPR:
                    chunk_ops.append(
                        _mk(Opcode.FMOV, core, [priv], [Imm(float(identity))])
                    )
                else:
                    chunk_ops.append(
                        _mk(Opcode.MOV, core, [priv], [Imm(identity)])
                    )
            chunk_ops.append(
                _mk(
                    Opcode.TX_BEGIN,
                    core,
                    region=rid,
                    order=core,
                    chunks=n,
                    restart=f"R{rid}_chunk",
                )
            )
            pred = regs.pr()
            chunk_ops.append(_mk(Opcode.CMP_LT, core, [pred], [ind, hi]))
            btr = regs.btr()
            chunk_ops.append(_mk(Opcode.PBR, core, [btr], [], target=block.label))
            chunk_ops.append(_mk(Opcode.BR, core, [], [btr, pred]))
        chunk = PlannedBlock(
            label=f"R{rid}_chunk",
            mode="decoupled",
            region=rid,
            ops=chunk_ops,
            taken=block.label,
            fall=f"R{rid}_commit",
            no_transfers=True,
        )

        # Body: every core runs its own clone over its own bounds.
        body_ops: List[Operation] = []
        skip = {induction.update.uid, induction.compare.uid}
        terminator_uids = {
            op.uid
            for op in block.ops
            if op.opcode in (Opcode.PBR, Opcode.BR)
        }
        for core in range(n):
            for op in block.ops:
                if op.uid in skip or op.uid in terminator_uids:
                    continue
                clone = _clone(op, core)
                self._rewrite_accumulator(clone, acc_priv)
                body_ops.append(clone)
            body_ops.append(_clone(induction.update, core))
            pred = regs.pr()
            body_ops.append(_mk(Opcode.CMP_LT, core, [pred], [ind, hi]))
            btr = regs.btr()
            body_ops.append(_mk(Opcode.PBR, core, [btr], [], target=block.label))
            body_ops.append(_mk(Opcode.BR, core, [], [btr, pred]))
        body = PlannedBlock(
            label=block.label,
            mode="decoupled",
            region=rid,
            ops=body_ops,
            taken=block.label,
            fall=f"R{rid}_commit",
            no_transfers=True,
        )

        # Commit: finish the transaction; workers report partials and sleep.
        commit_ops: List[Operation] = []
        partial_regs: Dict[Tuple[int, Reg], Reg] = {}
        for core in range(n):
            commit_ops.append(_mk(Opcode.TX_COMMIT, core))
        for core in range(1, n):
            if plan.accumulators:
                for acc in plan.accumulators:
                    commit_ops.append(
                        send_value(core, 0, acc_priv[acc.reg])
                    )
            else:
                commit_ops.append(send_value(core, 0, Imm(1)))  # done token
            commit_ops.append(_mk(Opcode.SLEEP, core))
        commit = PlannedBlock(
            label=f"R{rid}_commit",
            mode="decoupled",
            region=rid,
            ops=commit_ops,
            no_transfers=True,
        )
        commit.per_core_fall[0] = f"R{rid}_join"
        for core in range(1, n):
            commit.per_core_fall[core] = None  # SLEEP redirects to LISTEN

        # Join (core 0): gather partials, fold reductions, finalize the
        # induction value, release the workers.
        join_ops: List[Operation] = []
        for acc in plan.accumulators:
            combine = COMBINABLE[acc.opcode]
            join_ops.append(
                make_combine(0, acc.reg, acc_priv[acc.reg], combine)
            )
        for core in range(1, n):
            if plan.accumulators:
                for acc in plan.accumulators:
                    tmp = (
                        regs.fpr()
                        if acc.reg.file is RegFile.FPR
                        else regs.gpr()
                    )
                    join_ops.append(recv_value(0, core, tmp))
                    join_ops.append(
                        make_combine(0, acc.reg, tmp, COMBINABLE[acc.opcode])
                    )
            else:
                tmp = regs.gpr()
                join_ops.append(recv_value(0, core, tmp))
        join_ops.extend(
            self._final_induction_ops(plan, ind, saved_start, regs)
        )
        for core in range(1, n):
            join_ops.append(_mk(Opcode.RELEASE, 0, target_core=core))
        join = PlannedBlock(
            label=f"R{rid}_join",
            mode="decoupled",
            region=rid,
            ops=join_ops,
            fall=f"R{rid}_exit",
            cores_present={0},
            no_transfers=True,
        )

        exit_block = self._mode_switch_block(f"R{rid}_exit", "coupled", rid)
        exit_block.fall = self._region_successor(function, block, region)
        exit_block.liveouts = [(acc.reg, 0) for acc in plan.accumulators] + [
            (ind, 0)
        ]

        # Register the body's live-in reads so upstream defs broadcast to
        # every chunk core (the induction and bound reach all cores too).
        for op in body_ops + chunk_ops:
            for reg in op.src_regs():
                self._extra_uses.append((reg, op.core))

        return [enter, pro, chunk, body, commit, join, exit_block]

    def _chunk_bounds_ops(
        self, plan: DoallPlan, core: int, n: int, ind: Reg, hi: Reg
    ) -> List[Operation]:
        """Set ``ind = lo_core`` and ``hi = hi_core`` on ``core``."""
        step = plan.step
        if plan.static_bounds is not None:
            start, bound = plan.static_bounds
            total = max(-(-(bound - start) // step), 0)
            per = -(-total // n)
            lo = start + core * per * step
            hi_val = min(lo + per * step, bound)
            return [
                _mk(Opcode.MOV, core, [ind], [Imm(lo)]),
                _mk(Opcode.MOV, core, [hi], [Imm(hi_val)]),
            ]
        bound = plan.induction.bound
        assert bound is not None
        ops: List[Operation] = []
        t_span = self._tmp(core)
        ops.append(_mk(Opcode.SUB, core, [t_span], [bound, ind]))
        t1 = self._tmp(core)
        ops.append(_mk(Opcode.ADD, core, [t1], [t_span, Imm(step - 1)]))
        t_iters = self._tmp(core)
        ops.append(_mk(Opcode.DIV, core, [t_iters], [t1, Imm(step)]))
        t2 = self._tmp(core)
        ops.append(_mk(Opcode.ADD, core, [t2], [t_iters, Imm(n - 1)]))
        t_per = self._tmp(core)
        ops.append(_mk(Opcode.DIV, core, [t_per], [t2, Imm(n)]))
        t_sz = self._tmp(core)
        ops.append(_mk(Opcode.MUL, core, [t_sz], [t_per, Imm(step)]))
        t_off = self._tmp(core)
        ops.append(_mk(Opcode.MUL, core, [t_off], [t_sz, Imm(core)]))
        t_lo = self._tmp(core)
        ops.append(_mk(Opcode.ADD, core, [t_lo], [ind, t_off]))
        t_hi0 = self._tmp(core)
        ops.append(_mk(Opcode.ADD, core, [t_hi0], [t_lo, t_sz]))
        pred = self._tmp_pr(core)
        ops.append(_mk(Opcode.CMP_LT, core, [pred], [t_hi0, bound]))
        ops.append(_mk(Opcode.SELECT, core, [hi], [pred, t_hi0, bound]))
        ops.append(_mk(Opcode.MOV, core, [ind], [t_lo]))
        return ops

    def _final_induction_ops(self, plan, ind: Reg, saved_start: Reg, regs):
        """Core 0 computes the induction's final value (its serial value
        after the last iteration)."""
        step = plan.step
        if plan.static_bounds is not None:
            start, bound = plan.static_bounds
            total = max(-(-(bound - start) // step), 0)
            return [_mk(Opcode.MOV, 0, [ind], [Imm(start + total * step)])]
        bound = plan.induction.bound
        ops = []
        t_span = self._tmp(0)
        ops.append(_mk(Opcode.SUB, 0, [t_span], [bound, saved_start]))
        t1 = self._tmp(0)
        ops.append(_mk(Opcode.ADD, 0, [t1], [t_span, Imm(step - 1)]))
        t_iters = self._tmp(0)
        ops.append(_mk(Opcode.DIV, 0, [t_iters], [t1, Imm(step)]))
        t_total = self._tmp(0)
        ops.append(_mk(Opcode.MUL, 0, [t_total], [t_iters, Imm(step)]))
        ops.append(_mk(Opcode.ADD, 0, [ind], [saved_start, t_total]))
        return ops

    def _tmp(self, core: int) -> Reg:
        function = self._current_function
        return function.regs.gpr()

    def _tmp_pr(self, core: int) -> Reg:
        return self._current_function.regs.pr()

    @staticmethod
    def _rewrite_accumulator(clone: Operation, acc_priv: Dict[Reg, Reg]) -> None:
        if clone.dest in acc_priv and clone.srcs and clone.srcs[0] == clone.dest:
            priv = acc_priv[clone.dest]
            clone.dests = [priv]
            clone.srcs = [priv] + list(clone.srcs[1:])

    # ...... shared region helpers .............................................

    def _region_successor(
        self, function: Function, block: BasicBlock, region: Region
    ) -> str:
        if region.loop is not None:
            if region.loop.exit is None:
                raise LoweringError(f"loop at {block.label} has no unique exit")
            return region.loop.exit
        if block.fall is None:
            raise LoweringError(f"region block {block.label} has no successor")
        return block.fall

    @staticmethod
    def _region_liveout_candidates(
        flat: Sequence[Operation],
    ) -> List[Tuple[Reg, int]]:
        last_def: Dict[Reg, int] = {}
        for op in flat:
            if op.attrs.get("transfer") or op.attrs.get("replicated"):
                continue
            for reg in op.dests:
                if reg.file is RegFile.BTR:
                    continue
                last_def[reg] = op.core
        return sorted(last_def.items(), key=lambda item: repr(item[0]))

    def _check_no_cross_core_carried(self, carried, assignment) -> None:
        for reg, (definition, users) in carried.items():
            src = assignment.get(definition.uid)
            for user in users:
                dst = assignment.get(user.uid)
                if src is not None and dst is not None and src != dst:
                    raise LoweringError(
                        f"strand partition split loop-carried register "
                        f"{reg!r} across cores {src} and {dst}"
                    )

    def _add_carried_memory(self, graph, ops) -> None:
        from .dfg import CARRIED, carried_memory_pairs

        for a, b in carried_memory_pairs(self.program, ops):
            if a is not b:
                graph.add_edge(b, a, CARRIED, delay=1)

    def _insert_memory_sync(
        self, function: Function, flat: List[Operation]
    ) -> None:
        """Dummy SEND/RECV pairs for cross-core memory dependences.

        Messages from one sender are matched FIFO on the receiver, so every
        RECV (data transfers included) is placed adjacent to its SEND in
        the flat program order: each core then consumes a channel in
        exactly the order the channel was fed, whatever mix of data and
        sync tokens flows through it.  One token per conflicting source
        access orders every dependent access behind it (the receiving core
        is in-order and the RECV precedes all of them)."""
        deps = memory_dependences(self.program, flat)
        position = {op.uid: i for i, op in enumerate(flat)}
        # (earlier uid, dst core) -> earlier op; one token per source
        # access per destination core.
        needed: Dict[Tuple[int, int], Operation] = {}
        for earlier, later in deps:
            if earlier.core == later.core:
                continue
            needed.setdefault((earlier.uid, later.core), earlier)
        inserts_after: Dict[int, List[Operation]] = {}
        inserts_before: Dict[int, List[Operation]] = {}
        for (earlier_uid, dst_core), earlier in needed.items():
            send, recv = memory_sync_pair(earlier.core, dst_core, function.regs)
            inserts_after.setdefault(position[earlier_uid], []).append(send)
            inserts_after[position[earlier_uid]].append(recv)
        if not inserts_after and not inserts_before:
            return
        rebuilt: List[Operation] = []
        for i, op in enumerate(flat):
            rebuilt.extend(inserts_before.get(i, []))
            rebuilt.append(op)
            rebuilt.extend(inserts_after.get(i, []))
        flat[:] = rebuilt

    # -- edge rewiring ------------------------------------------------------------

    def _rewire_region_entries(
        self, planned: Dict[str, PlannedBlock], regions: List[Region]
    ) -> None:
        redirect = {
            region.block: (f"R{region.rid}_enter", region.rid)
            for region in regions
        }
        for block in planned.values():
            for label, (target, rid) in redirect.items():
                if block.region == rid:
                    continue  # in-region references (back edges) stay
                if block.taken == label:
                    block.taken = target
                if block.fall == label:
                    block.fall = target
                for core, value in list(block.per_core_taken.items()):
                    if value == label:
                        block.per_core_taken[core] = target
                for core, value in list(block.per_core_fall.items()):
                    if value == label:
                        block.per_core_fall[core] = target
                for op in block.ops:
                    if (
                        op.opcode is Opcode.PBR
                        and op.attrs.get("target") == label
                    ):
                        op.attrs["target"] = target

    # -- use aggregation & transfer insertion ----------------------------------------

    def _collect_uses(
        self, planned: Dict[str, PlannedBlock]
    ) -> Tuple[Dict[Reg, Set[int]], Dict[int, Dict[Reg, Set[int]]]]:
        use_all: Dict[Reg, Set[int]] = {}
        use_by_region: Dict[int, Dict[Reg, Set[int]]] = {}
        for block in planned.values():
            for op in block.ops:
                for reg in op.src_regs():
                    use_all.setdefault(reg, set()).add(op.core)
                    use_by_region.setdefault(block.region, {}).setdefault(
                        reg, set()
                    ).add(op.core)
        for reg, core in self._extra_uses:
            if isinstance(reg, Reg):
                use_all.setdefault(reg, set()).add(core)
        return use_all, use_by_region

    def _insert_transfers(
        self,
        block: PlannedBlock,
        use_all: Dict[Reg, Set[int]],
        use_by_region: Dict[int, Dict[Reg, Set[int]]],
    ) -> None:
        rebuilt: List[Operation] = []
        switch_index: Optional[int] = None

        if not block.no_transfers:
            local_uses = (
                self._region_uses.get(block.region)
                if block.mode == "decoupled" and block.region
                else None
            )
            for op in block.ops:
                rebuilt.append(op)
                if op.attrs.get("transfer") or op.attrs.get("replicated"):
                    continue
                for reg in op.dests:
                    if reg.file is RegFile.BTR:
                        continue
                    scope = (
                        local_uses.get(reg, set())
                        if local_uses is not None
                        else use_all.get(reg, set())
                    )
                    targets = scope - {op.core}
                    if not targets:
                        continue
                    if block.mode == "coupled":
                        rebuilt.extend(
                            coupled_transfer(self.mesh, op.core, targets, reg)
                        )
                    else:
                        rebuilt.extend(
                            decoupled_transfer(op.core, targets, reg)
                        )
        else:
            rebuilt = list(block.ops)

        # Live-out forwarding: immediately before this block's barrier.
        if block.liveouts:
            transfers: List[Operation] = []
            for reg, src in block.liveouts:
                targets = use_all.get(reg, set()) - {src}
                if targets:
                    transfers.extend(decoupled_transfer(src, targets, reg))
            if transfers:
                switch_index = next(
                    (
                        i
                        for i, op in enumerate(rebuilt)
                        if op.opcode is Opcode.MODE_SWITCH
                    ),
                    len(rebuilt),
                )
                rebuilt = (
                    rebuilt[:switch_index] + transfers + rebuilt[switch_index:]
                )
        block.ops = rebuilt

    # -- scheduling & assembly ---------------------------------------------------------

    def _assemble(
        self,
        function: Function,
        planned: Dict[str, PlannedBlock],
        order: List[str],
        entry: str,
        compiled: CompiledProgram,
    ) -> None:
        core_functions = [
            CoreFunction(function.name, entry) for _ in range(self.n_cores)
        ]
        for label in order:
            block = planned[label]
            if block.mode == "coupled":
                slots = schedule_coupled(self.program, block.ops, self.n_cores)
            else:
                slots = schedule_decoupled(self.program, block.ops, self.n_cores)
            for core in range(self.n_cores):
                if not block.present_on(core):
                    continue
                core_block = CoreBlock(
                    label=block.label,
                    slots=list(slots[core]) if core < len(slots) else [],
                    taken=block.taken_for(core),
                    fall=block.fall_for(core),
                    mode=block.mode,
                    region=block.region,
                )
                core_functions[core].add_block(core_block)
        for core in range(self.n_cores):
            compiled.add_function(core, core_functions[core])

    # Set per function before region planning (used by _tmp helpers).
    _current_function: Function = None  # type: ignore[assignment]


def make_combine(core: int, dest: Reg, src: Reg, opcode: Opcode) -> Operation:
    return _mk(opcode, core, [dest], [dest, src])
