"""The simulator's observer protocol: one slot, one set of events.

``VoltronMachine(observer=...)`` takes one :class:`Observer`.  The
machine hands it to every subsystem with something to report -- the
operand network, the TM, the data and instruction caches, the fault plan
and the recovery manager -- and each fires its events through a single
``if self.observer is not None:`` check, so a run with nothing attached
pays one attribute test per hook site.

Every event method here is a no-op; a subclass overrides the ones it
uses.  :class:`~repro.obs.events.Observability` (timeline and metrics),
:class:`~repro.analysis.sanitizer.RaceSanitizer` (happens-before) and
:class:`~repro.harness.trace.Tracer` (per-op timeline) are the three in
the tree.

Events carry core ids, except :meth:`Observer.load`, :meth:`store`,
:meth:`send` and :meth:`recv`, which pass the issuing :class:`Core` so a
diagnostic can name its position.  ``send``/``recv`` cover queue-mode
data messages (the message tag) and the SPAWN/RELEASE control messages a
LISTEN consumes (:data:`CONTROL_TAG`).
"""

from __future__ import annotations

#: ``send``/``recv`` tag of SPAWN/RELEASE messages, which share the
#: receiver's control queue (LISTEN consumes them FIFO per sender).
CONTROL_TAG = "<control>"


class Observer:
    """Base class of everything attached to ``VoltronMachine(observer=)``."""

    def attach(self, machine) -> None:
        """Called once, last, by ``VoltronMachine.__init__``."""

    # -- machine ---------------------------------------------------------------

    def cycle(self, cycle: int) -> None:
        """End of a stepped cycle (clock jumps arrive as
        :meth:`fast_forward_window`)."""

    def fast_forward_window(self, start: int, end: int) -> None:
        """The clock jumped from ``start`` to ``end``: no core was due."""

    def mode_switch(self, cycle: int, old: str, new: str) -> None:
        """A mode change from ``old`` to ``new`` takes effect at ``cycle``."""

    def finalize(self, machine) -> None:
        """The run loop finished (normally or not) and stats are settled."""

    # -- issue ---------------------------------------------------------------------

    def op(self, cycle: int, core: int, op) -> None:
        """``core`` attempts to issue ``op`` (a RECV may still stall)."""

    def load(self, core, op, addr: int) -> None:
        """``core`` loaded from ``addr``."""

    def store(self, core, op, addr: int) -> None:
        """``core`` stored to ``addr``."""

    def send(self, core, dst: int, tag: object) -> None:
        """``core`` sent a queue-mode message to ``dst``."""

    def recv(self, core, src: int, tag: object) -> None:
        """``core`` consumed a queue-mode message from ``src``."""

    # -- subsystems --------------------------------------------------------------

    def tx_begin(self, core: int, region: int, order: int) -> None:
        """The TM opened chunk ``order`` of ``region`` on ``core``."""

    def tx_commit(self, core: int, region: int, order: int) -> None:
        """The TM committed ``core``'s transaction."""

    def tx_abort(self, core: int, region: int, order: int) -> None:
        """The TM discarded ``core``'s transaction (conflict or rollback)."""

    def net_send(
        self, cycle: int, src: int, dst: int, kind: str, seq: int, arrival: int
    ) -> None:
        """A message entered the operand network."""

    def net_recv(self, cycle: int, seq: int) -> None:
        """Message ``seq`` left a receive queue (RECV or LISTEN)."""

    def cache_miss(self, core: int, latency: int) -> None:
        """A data-cache miss cost ``core`` ``latency`` cycles."""

    def icache_miss(self, core: int, latency: int) -> None:
        """An instruction-cache miss cost ``core`` ``latency`` cycles."""

    def fault(self, channel: str, delay: int) -> None:
        """A fault injection landed on ``channel``."""

    def recovery(
        self, cycle: int, kind: str, core: int, detail: str, cycles: int = 0
    ) -> None:
        """A destructive-fault detection or repair action."""
