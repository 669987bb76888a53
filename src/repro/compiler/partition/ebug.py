"""Enhanced Bottom-Up Greedy (eBUG) for decoupled-mode strands.

The paper's Section 4.1 lists the three factors eBUG adds on top of BUG:

* **likely missing loads** -- heavy edge weights between loads the profile
  shows missing and their consumers, so a miss and its uses stay on one
  core (a cross-core miss would stall both sender and receiver);
* **memory dependences** -- heavy weights between dependent memory ops, so
  the dummy SEND/RECV synchronization is rarely needed;
* **memory balancing** -- a penalty for cores already holding the majority
  of memory operations, spreading the data footprint over the private L1s
  and letting stalls on different cores overlap.

Loop-carried dependences (register recurrences and carried memory aliases)
are *same-core groups*: splitting them would need a value to cross cores
between iterations, which the queue protocol cannot bootstrap for
iteration zero; the paper's eBUG likewise favours keeping them together.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...arch.mesh import Mesh
from ...isa.operations import Opcode, Operation
from ..dfg import CARRIED, FLOW, MEMORY, DependenceGraph
from ..profiling import ExecutionProfile
from .bug import BugPartitioner, _State


class EBugPartitioner(BugPartitioner):
    """BUG with the paper's decoupled-mode weights."""

    # Queue-mode transfers cost 2 cycles + 1 per hop.
    comm_cost_per_hop = 1
    comm_cost_fixed = 2

    #: Edge weight for a likely-missing load feeding a consumer.
    miss_edge_weight = 50.0
    #: Edge weight for a memory dependence (dummy sync would be needed).
    memory_dep_weight = 12.0
    #: Penalty when a core holds more than its share of memory ops.
    memory_balance_penalty = 6.0

    def __init__(
        self,
        mesh: Mesh,
        profile: Optional[ExecutionProfile] = None,
        n_cores: Optional[int] = None,
        miss_threshold: float = 0.05,
    ) -> None:
        super().__init__(mesh, n_cores)
        self.profile = profile
        self.miss_threshold = miss_threshold

    # -- eBUG hooks -------------------------------------------------------------

    def edge_penalty(self, src: Operation, dst: Operation, kind: str) -> float:
        penalty = 0.0
        if kind == MEMORY:
            penalty += self.memory_dep_weight
        if (
            kind == FLOW
            and src.opcode is Opcode.LOAD
            and self._likely_missing(src)
        ):
            penalty += self.miss_edge_weight
        return penalty

    def core_penalty(self, op: Operation, core: int, state: _State) -> float:
        if not op.is_memory():
            return 0.0
        # Counting the op being placed, does this core exceed its fair
        # share of the memory ops seen so far?
        fair_share = (state.total_memory + 1) / self.n_cores
        excess = state.memory_count[core] + 1 - fair_share
        if excess > 0:
            return self.memory_balance_penalty * excess
        return 0.0

    def same_core_groups(
        self, graph: DependenceGraph
    ) -> Sequence[Sequence[Operation]]:
        """Union endpoints of loop-carried edges (register or memory)."""
        parent: Dict[int, int] = {op.uid: op.uid for op in graph.ops}

        def find(uid: int) -> int:
            while parent[uid] != uid:
                parent[uid] = parent[parent[uid]]
                uid = parent[uid]
            return uid

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for edge in graph.all_edges():
            if edge.kind == CARRIED:
                union(edge.src.uid, edge.dst.uid)

        groups: Dict[int, List[Operation]] = {}
        for op in graph.ops:
            groups.setdefault(find(op.uid), []).append(op)
        return [group for group in groups.values() if len(group) > 1]

    # -- helpers -----------------------------------------------------------------

    def _likely_missing(self, op: Operation) -> bool:
        if self.profile is None:
            return False
        return self.profile.likely_missing(op, self.miss_threshold)
