"""Chrome-trace-event / Perfetto JSON export for one observed run.

:func:`perfetto_trace` turns an :class:`~repro.obs.events.Observability`
instance into the Trace Event Format dict Perfetto (ui.perfetto.dev) and
``chrome://tracing`` both load:

* one *thread* track per core (tid = core + 1) carrying its stall spans
  as complete ("X") events and its cache misses as instants;
* a *machine* track (tid 0) carrying mode-residency segments and
  "fast-forward" windows, where the clock jumped because no core was due;
* async ("b"/"e") spans for transactions (begin -> commit/abort) and
  operand-network messages (send -> receive), each with a stable id;
* counter ("C") tracks sampled from the metrics series (queue occupancy,
  in-flight messages, live cores);
* instant ("i") events for landed fault injections;
* a *recovery* track (tid = n_cores + 1) carrying blackout dark windows
  as complete spans and every other detection/repair action (CRC error,
  drop, retransmit, watchdog, rollback, remap, degrade) as instants.
  The track -- including its thread_name metadata -- only exists when
  recovery events were recorded, so fault-free traces are byte-identical
  to pre-recovery exports.

Timestamps are simulation cycles written as microseconds (one cycle ==
1us in the viewer); ``displayTimeUnit`` is set to ns so sub-window zooms
stay readable.  Transaction and network span ids live in disjoint ranges
(network ids are offset by ``_NET_ID_BASE``) so the viewer never glues
unrelated begins and ends together.
"""

from __future__ import annotations

import json
from typing import Dict, List

#: Async-span id offset separating network messages from transactions.
_NET_ID_BASE = 1 << 24

_PID = 0
_MACHINE_TID = 0


def _meta(name: str, tid: int, label: str) -> Dict[str, object]:
    return {
        "name": name,
        "ph": "M",
        "pid": _PID,
        "tid": tid,
        "args": {"name": label},
    }


def perfetto_trace(obs) -> Dict[str, object]:
    """Build the ``{"traceEvents": [...]}`` dict for one observed run."""
    events: List[Dict[str, object]] = [
        _meta("process_name", _MACHINE_TID, "voltron"),
        _meta("thread_name", _MACHINE_TID, "machine"),
    ]
    for core in range(obs.n_cores):
        events.append(_meta("thread_name", core + 1, f"core {core}"))

    for start, end, mode in obs.mode_segments:
        events.append(
            {
                "name": mode,
                "cat": "mode",
                "ph": "X",
                "ts": start,
                "dur": end - start,
                "pid": _PID,
                "tid": _MACHINE_TID,
            }
        )
    for start, end in obs.ff_windows:
        events.append(
            {
                "name": "fast-forward",
                "cat": "fastforward",
                "ph": "X",
                "ts": start,
                "dur": end - start,
                "pid": _PID,
                "tid": _MACHINE_TID,
            }
        )

    for core, spans in enumerate(obs.stall_spans):
        tid = core + 1
        for start, cycles, category in spans:
            events.append(
                {
                    "name": category,
                    "cat": "stall",
                    "ph": "X",
                    "ts": start,
                    "dur": cycles,
                    "pid": _PID,
                    "tid": tid,
                }
            )

    # Transactions: pair each begin with the next commit/abort on the same
    # core (the TM allows one active transaction per core, so pairing by
    # core is exact even across aborted retries).
    open_tx: Dict[int, int] = {}
    next_tx_id = 1
    for event in obs.tx_events:
        tid = event.core + 1
        name = f"tx r{event.region}#{event.order}"
        if event.kind == "begin":
            tx_id = next_tx_id
            next_tx_id += 1
            open_tx[event.core] = tx_id
            events.append(
                {
                    "name": name,
                    "cat": "tx",
                    "ph": "b",
                    "id": tx_id,
                    "ts": event.cycle,
                    "pid": _PID,
                    "tid": tid,
                }
            )
        else:
            tx_id = open_tx.pop(event.core, None)
            if tx_id is None:
                continue  # begin fell past the event cap: unpaired end
            events.append(
                {
                    "name": name,
                    "cat": "tx",
                    "ph": "e",
                    "id": tx_id,
                    "ts": event.cycle,
                    "pid": _PID,
                    "tid": tid,
                    "args": {"outcome": event.kind},
                }
            )

    received = {event.seq: event.cycle for event in obs.net_recvs}
    for send in obs.net_sends:
        end = received.get(send.seq)
        if end is None:
            continue  # never consumed (or the recv fell past the cap)
        events.append(
            {
                "name": f"{send.kind} {send.src}->{send.dst}",
                "cat": "net",
                "ph": "b",
                "id": _NET_ID_BASE + send.seq,
                "ts": send.cycle,
                "pid": _PID,
                "tid": send.src + 1,
            }
        )
        events.append(
            {
                "name": f"{send.kind} {send.src}->{send.dst}",
                "cat": "net",
                "ph": "e",
                "id": _NET_ID_BASE + send.seq,
                "ts": end,
                "pid": _PID,
                "tid": send.src + 1,
            }
        )

    for miss in obs.cache_misses:
        events.append(
            {
                "name": f"{miss.where} miss",
                "cat": "cache",
                "ph": "i",
                "s": "t",
                "ts": miss.cycle,
                "pid": _PID,
                "tid": miss.core + 1,
                "args": {"latency": miss.latency},
            }
        )
    for fault in obs.fault_events:
        events.append(
            {
                "name": f"fault {fault.channel}",
                "cat": "fault",
                "ph": "i",
                "s": "g",
                "ts": fault.cycle,
                "pid": _PID,
                "tid": _MACHINE_TID,
                "args": {"channel": fault.channel, "delay": fault.delay},
            }
        )

    if obs.recovery_events:
        recovery_tid = obs.n_cores + 1
        events.append(_meta("thread_name", recovery_tid, "recovery"))
        for event in obs.recovery_events:
            if event.kind == "blackout":
                events.append(
                    {
                        "name": f"blackout core {event.core}",
                        "cat": "recovery",
                        "ph": "X",
                        "ts": event.cycle,
                        "dur": event.cycles,
                        "pid": _PID,
                        "tid": recovery_tid,
                        "args": {"core": event.core, "detail": event.detail},
                    }
                )
            else:
                events.append(
                    {
                        "name": event.kind,
                        "cat": "recovery",
                        "ph": "i",
                        "s": "g",
                        "ts": event.cycle,
                        "pid": _PID,
                        "tid": recovery_tid,
                        "args": {"core": event.core, "detail": event.detail},
                    }
                )

    if obs.series is not None:
        for cycle, occupancy, in_flight, live in zip(
            obs.series.cycle,
            obs.series.queue_occupancy,
            obs.series.in_flight,
            obs.series.live_cores,
        ):
            events.append(
                {
                    "name": "queue occupancy",
                    "cat": "series",
                    "ph": "C",
                    "ts": cycle,
                    "pid": _PID,
                    "args": {"messages": occupancy},
                }
            )
            events.append(
                {
                    "name": "in flight",
                    "cat": "series",
                    "ph": "C",
                    "ts": cycle,
                    "pid": _PID,
                    "args": {"messages": in_flight},
                }
            )
            events.append(
                {
                    "name": "live cores",
                    "cat": "series",
                    "ph": "C",
                    "ts": cycle,
                    "pid": _PID,
                    "args": {"cores": live},
                }
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"truncated": obs.truncated},
    }


def write_trace(obs, path) -> None:
    """Serialize :func:`perfetto_trace` to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(perfetto_trace(obs), handle, separators=(",", ":"))
