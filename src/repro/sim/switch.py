"""Output-queued switch model with PFC, ECN and telemetry hooks.

The model mirrors how shared-buffer lossless Ethernet switches implement
802.1Qbb:

- Arriving packets are routed to an egress queue, but buffer occupancy is
  accounted against the *ingress* (port, priority) they entered through.
- When an ingress counter rises above ``Xoff`` the switch sends a PAUSE
  frame out of that ingress port (to the upstream transmitter) and keeps
  refreshing it; when the counter drains below ``Xon`` it sends RESUME.
- An egress (port, priority) that has *received* a PAUSE stops transmitting
  until the pause expires or a RESUME arrives.

This is exactly the mechanism that lets congestion cascade hop-by-hop and
produce the anomalies of §2.1.  Telemetry systems (Hawkeye or baselines)
attach via :class:`SwitchObserver` without touching forwarding logic.

Observer dispatch uses a fast path: at attach time the switch records, per
hook, only the observers that actually *override* that hook, so a hook
nobody listens to costs one falsy check per packet instead of a dispatch
loop (detected once at attach time, not per packet).
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..topology.graph import PortRef
from ..units import serialization_delay_ns
from .config import PAUSE_QUANTA, PFC_REFRESH_INTERVAL_NS, SimConfig
from .packet import (
    DATA_PRIORITY,
    PFC_FRAME_SIZE,
    Packet,
    PacketType,
    pause_quanta_to_ns,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

# Signature: (switch, packet, ingress_port) -> [(egress_port, flag), ...]
PollingHandler = Callable[["Switch", Packet, int], List[Tuple[int, object]]]

# Module-level members: the per-frame type tests load one global each
# instead of a global plus an enum attribute.
_DATA = PacketType.DATA
_PFC = PacketType.PFC
_POLLING = PacketType.POLLING


class SwitchObserver:
    """Telemetry attachment points.  Subclass and override what you need."""

    def on_egress_enqueue(
        self,
        switch: "Switch",
        time_ns: int,
        pkt: Packet,
        egress_port: int,
        ingress_port: Optional[int],
        queue_depth_pkts: int,
        queue_bytes: int,
        port_paused: bool,
    ) -> None:
        """A packet was appended to an egress queue."""

    def on_egress_dequeue(
        self, switch: "Switch", time_ns: int, pkt: Packet, egress_port: int
    ) -> None:
        """A packet left an egress queue onto the wire."""

    def on_pfc_received(
        self, switch: "Switch", time_ns: int, port: int, priority: int, quanta: int
    ) -> None:
        """A PFC frame (PAUSE if quanta>0, RESUME if 0) arrived at ``port``."""

    def on_pfc_sent(
        self, switch: "Switch", time_ns: int, port: int, priority: int, quanta: int
    ) -> None:
        """This switch emitted a PFC frame out of ``port``."""


# The per-hook override detection for the observer fast path.
_HOOK_NAMES = (
    "on_egress_enqueue",
    "on_egress_dequeue",
    "on_pfc_received",
    "on_pfc_sent",
)


def _overridden_hooks(obs: SwitchObserver) -> List[str]:
    """The observer hooks ``obs`` actually implements (checked on its type)."""
    cls = type(obs)
    return [
        name
        for name in _HOOK_NAMES
        if getattr(cls, name) is not getattr(SwitchObserver, name)
    ]


class _EgressQueue:
    __slots__ = ("pkts", "bytes")

    def __init__(self) -> None:
        self.pkts: deque = deque()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self.pkts)


class _Port:
    """Egress side of one switch port."""

    __slots__ = (
        "port_no",
        "bandwidth",
        "delay_ns",
        "peer",
        "peer_is_host",
        "peer_receive",
        "queues",
        "by_priority",
        "paused_until",
        "busy_until",
        "wake",
        "tx_bytes",
        "tx_pkts",
        "pfc_tx_latency",
        "ser_ns",
    )

    def __init__(self, port_no: int, bandwidth: float, delay_ns: int, peer: PortRef, peer_is_host: bool, peer_receive: Optional[Callable]) -> None:
        self.port_no = port_no
        self.bandwidth = bandwidth
        self.delay_ns = delay_ns
        self.peer = peer
        self.peer_is_host = peer_is_host
        self.peer_receive = peer_receive  # None: send via Network.deliver
        self.queues: Dict[int, _EgressQueue] = {}
        self.by_priority: List[Tuple[int, _EgressQueue]] = []  # highest first
        self.paused_until: Dict[int, int] = {}
        self.busy_until = 0
        self.wake = None  # pending wake handle (dedup)
        self.tx_bytes = 0
        self.tx_pkts = 0
        # PFC frames are fixed-size and out-of-band: the wire latency is a
        # per-port constant, precomputed at wiring time.
        self.pfc_tx_latency = serialization_delay_ns(PFC_FRAME_SIZE, bandwidth) + delay_ns
        # Wire time of every frame size this port has sent (size -> ns),
        # filled on miss: a port sees a handful of sizes, once per frame.
        self.ser_ns: Dict[int, int] = {}

    def queue(self, priority: int) -> _EgressQueue:
        q = self.queues.get(priority)
        if q is None:
            q = _EgressQueue()
            self.queues[priority] = q
            self.by_priority = sorted(self.queues.items(), reverse=True)
        return q

    def total_bytes(self) -> int:
        return sum(q.bytes for q in self.queues.values())


class SwitchStats:
    """Per-switch counters used by overhead accounting and tests."""

    def __init__(self) -> None:
        self.rx_pkts = 0
        self.tx_pkts = 0
        self.pause_sent = 0
        self.resume_sent = 0
        self.pause_received = 0
        self.resume_received = 0
        self.polling_seen = 0
        self.enqueued_bytes = 0
        self.data_pkts = 0
        self.data_bytes = 0
        self.ecn_marked = 0


class Switch:
    """One simulated switch bound into a :class:`~repro.sim.network.Network`."""

    def __init__(self, name: str, network: "Network", config: SimConfig) -> None:
        self.name = name
        self.network = network
        self.sim = network.sim
        self.config = config
        self.ports: Dict[int, _Port] = {}
        # Lossless (DATA_PRIORITY) bytes held per ingress port.
        self._ingress_bytes: Dict[int, int] = {}
        # Ingress ports we are asserting PAUSE out of, toward the upstream.
        self._pausing: Set[int] = set()
        self.observers: List[SwitchObserver] = []
        # Observer fast path: per-hook lists of overriding observers only.
        self._obs_enqueue: List[SwitchObserver] = []
        self._obs_dequeue: List[SwitchObserver] = []
        self._obs_pfc_rx: List[SwitchObserver] = []
        self._obs_pfc_tx: List[SwitchObserver] = []
        self.polling_handler: Optional[PollingHandler] = None
        self.stats = SwitchStats()
        self._rng = random.Random((config.seed, name).__repr__())
        self._ecn_kmin = config.ecn.kmin_bytes
        self._pfc_xoff = config.pfc.xoff_bytes
        self._pfc_xon = config.pfc.xon_bytes
        # Bound once for the per-frame path.  The route memos are the
        # routing table's (an override flushes them); a miss asks
        # ``select_port``.
        self._select_port = network.routing.select_port
        self._route_fwd, self._route_rev = network.routing.route_memos(name)
        self._send_seq = network._send_seq
        self._deliver = network.deliver
        self._schedule_delivery = self.sim.schedule_delivery
        self._schedule = self.sim.schedule

    # -- wiring ---------------------------------------------------------------

    def attach_port(self, port_no: int, bandwidth: float, delay_ns: int, peer: PortRef, peer_is_host: bool, peer_receive: Optional[Callable] = None) -> None:
        self.ports[port_no] = _Port(port_no, bandwidth, delay_ns, peer, peer_is_host, peer_receive)

    def add_observer(self, obs: SwitchObserver) -> None:
        self.observers.append(obs)
        hooks = _overridden_hooks(obs)
        if "on_egress_enqueue" in hooks:
            self._obs_enqueue.append(obs)
        if "on_egress_dequeue" in hooks:
            self._obs_dequeue.append(obs)
        if "on_pfc_received" in hooks:
            self._obs_pfc_rx.append(obs)
        if "on_pfc_sent" in hooks:
            self._obs_pfc_tx.append(obs)

    def ingress_occupancy(self, port: int, priority: int = DATA_PRIORITY) -> int:
        # Only the lossless class is accounted.
        return self._ingress_bytes.get(port, 0) if priority == DATA_PRIORITY else 0

    def egress_queue_bytes(self, port: int, priority: int = DATA_PRIORITY) -> int:
        return self.ports[port].queue(priority).bytes

    def egress_paused(self, port: int, priority: int = DATA_PRIORITY) -> bool:
        return self.ports[port].paused_until.get(priority, 0) > self.sim.now

    # -- receive path ---------------------------------------------------------

    def receive(self, pkt: Packet, ingress_port: int) -> None:
        """Entry point for frames delivered by an attached link."""
        self.stats.rx_pkts += 1
        ptype = pkt.ptype
        if ptype is _PFC:
            self._handle_pfc(pkt, ingress_port)
            return
        if ptype is _POLLING:
            self._handle_polling(pkt, ingress_port)
            return
        flow = pkt.flow
        # Data goes toward the flow's destination, ACK/CNP back to its source.
        if ptype is _DATA:
            egress = self._route_fwd.get(flow)
            if egress is None:
                egress = self._route_fwd[flow] = self._select_port(self.name, flow.dst_ip, flow)
        else:
            egress = self._route_rev.get(flow)
            if egress is None:
                egress = self._route_rev[flow] = self._select_port(self.name, flow.src_ip, flow)
        self.enqueue(pkt, egress, ingress_port)

    def _handle_pfc(self, pkt: Packet, port_no: int) -> None:
        """A PAUSE/RESUME frame arrived: (un)pause our egress on that port."""
        port = self.ports[port_no]
        now = self.sim.now
        priority = pkt.pfc_priority
        quanta = pkt.pause_quanta
        if quanta > 0:
            self.stats.pause_received += 1
            duration = pause_quanta_to_ns(quanta, port.bandwidth)
            port.paused_until[priority] = now + duration
            # When the pause lapses (if never refreshed) the transmitter must
            # wake up by itself — but only if it has something queued; the
            # deduplicated wake keeps refreshed pauses from piling one dead
            # event per PAUSE frame into the scheduler.
            self._schedule_unpause_wake(port)
        else:
            self.stats.resume_received += 1
            port.paused_until[priority] = now
            self._transmit(port)
        for obs in self._obs_pfc_rx:
            obs.on_pfc_received(self, now, port_no, priority, quanta)
        pkt.recycle()  # PFC frames terminate here

    def _handle_polling(self, pkt: Packet, ingress_port: int) -> None:
        self.stats.polling_seen += 1
        if self.polling_handler is None:
            pkt.recycle()
            return
        for egress_port, flag in self.polling_handler(self, pkt, ingress_port):
            dup = pkt.copy_polling(flag, self.sim.now)
            dup.hops = pkt.hops + 1
            self.enqueue(dup, egress_port, ingress_port)
        pkt.recycle()  # forwarded duplicates carry the trace on

    # -- enqueue / buffer accounting -------------------------------------------

    def enqueue(self, pkt: Packet, egress_port: int, ingress_port: Optional[int]) -> None:
        """Place a packet in an egress queue, with PFC ingress accounting."""
        port = self.ports[egress_port]
        priority = pkt.priority
        queue = port.queues.get(priority)
        if queue is None:
            queue = port.queue(priority)
        now = self.sim.now
        size = pkt.size

        depth_pkts = len(queue.pkts)
        depth_bytes = queue.bytes
        paused = port.paused_until.get(priority, 0) > now

        # ECN marking against the egress queue occupancy (data only).
        if pkt.ecn_capable and not pkt.ce_marked and depth_bytes > self._ecn_kmin:
            prob = self.config.ecn.mark_probability(depth_bytes)
            if prob > 0 and self._rng.random() < prob:
                pkt.ce_marked = True
                self.stats.ecn_marked += 1

        pkt.ingress_port = ingress_port
        queue.pkts.append(pkt)
        queue.bytes = depth_bytes + size
        stats = self.stats
        stats.enqueued_bytes += size
        if pkt.ptype is _DATA:
            stats.data_pkts += 1
            stats.data_bytes += size

        if priority == DATA_PRIORITY and ingress_port is not None:
            ingress_bytes = self._ingress_bytes
            occ = ingress_bytes.get(ingress_port, 0) + size
            ingress_bytes[ingress_port] = occ
            if occ > self._pfc_xoff and ingress_port not in self._pausing:
                self._assert_pause(ingress_port)

        for obs in self._obs_enqueue:
            obs.on_egress_enqueue(
                self, now, pkt, egress_port, ingress_port, depth_pkts, depth_bytes, paused
            )
        if port.busy_until <= now:  # else its wire-idle event sends
            self._transmit(port)

    # -- PFC generation ----------------------------------------------------------

    def _assert_pause(self, ingress_port: int) -> None:
        self._pausing.add(ingress_port)
        self._send_pfc(ingress_port, DATA_PRIORITY, PAUSE_QUANTA)
        self._schedule(PFC_REFRESH_INTERVAL_NS, self._refresh_pause, ingress_port)

    def _refresh_pause(self, ingress_port: int) -> None:
        if ingress_port not in self._pausing:
            return
        # Still above Xon?  Keep the upstream paused.
        if self._ingress_bytes.get(ingress_port, 0) >= self._pfc_xon:
            self._send_pfc(ingress_port, DATA_PRIORITY, PAUSE_QUANTA)
            self._schedule(PFC_REFRESH_INTERVAL_NS, self._refresh_pause, ingress_port)
        else:
            self._release_pause(ingress_port)

    def _release_pause(self, ingress_port: int) -> None:
        if ingress_port in self._pausing:
            self._pausing.remove(ingress_port)
            self._send_pfc(ingress_port, DATA_PRIORITY, 0)

    def _send_pfc(self, port_no: int, priority: int, quanta: int) -> None:
        """Emit a PAUSE/RESUME out of ``port_no`` (out-of-band, not queued)."""
        port = self.ports[port_no]
        now = self.sim.now
        if quanta > 0:
            self.stats.pause_sent += 1
        else:
            self.stats.resume_sent += 1
        for obs in self._obs_pfc_tx:
            obs.on_pfc_sent(self, now, port_no, priority, quanta)
        frame = Packet.pfc(priority, quanta, now)
        self._deliver(port.peer, frame, port.pfc_tx_latency, self.name)

    # -- transmit path -------------------------------------------------------------

    def _try_transmit(self, port_no: int) -> None:
        """:meth:`_transmit` by port number."""
        self._transmit(self.ports[port_no])

    def _transmit(self, port: _Port) -> None:
        """Send ``port``'s next frame if its wire is idle; also the port's
        wire-idle event, so a still-busy wire costs one comparison."""
        now = self.sim.now
        if port.busy_until > now:
            return

        # Send from the highest-priority non-empty queue whose class is not
        # paused (inlined: this runs for every enqueue and wire-idle event).
        paused_until = port.paused_until
        blocked = False  # saw a non-empty queue held back by a pause
        for best_prio, best in port.by_priority:
            if best.pkts:
                if paused_until.get(best_prio, 0) <= now:
                    break
                blocked = True
        else:
            # Nothing sendable.  Only a paused backlog needs a wake; the
            # common wire-idle event on a drained port ends here.
            if blocked:
                self._schedule_unpause_wake(port)
            return

        pkt = best.pkts.popleft()
        size = pkt.size
        best.bytes -= size
        port.tx_bytes += size
        port.tx_pkts += 1
        self.stats.tx_pkts += 1

        ingress_port = pkt.ingress_port
        if ingress_port is not None and best_prio == DATA_PRIORITY:
            ingress_bytes = self._ingress_bytes
            occ = ingress_bytes[ingress_port] - size
            ingress_bytes[ingress_port] = occ
            if occ < self._pfc_xon and ingress_port in self._pausing:
                self._release_pause(ingress_port)

        for obs in self._obs_dequeue:
            obs.on_egress_dequeue(self, now, pkt, port.port_no)

        ser = port.ser_ns.get(size)
        if ser is None:
            ser = port.ser_ns[size] = serialization_delay_ns(size, port.bandwidth)
        port.busy_until = now + ser
        receive = port.peer_receive
        if receive is None:
            self._deliver(port.peer, pkt, ser + port.delay_ns, self.name)
        else:  # ``Network.deliver``, inlined: the same per-source seq and key
            name, seqs = self.name, self._send_seq
            seq = seqs[name] = seqs[name] + 1
            key = (now, self.sim.exec_sched, name, seq)
            self._schedule_delivery(now + ser + port.delay_ns, key, receive, pkt, port.peer.port)
        self._schedule(ser, self._transmit, port)

    def _schedule_unpause_wake(self, port: _Port) -> None:
        """If everything queued is paused, wake when the earliest pause lapses.

        At most one pending wake per port (dedup) — refreshed pauses would
        otherwise accumulate one event per enqueue attempt.
        """
        now = self.sim.now
        paused_until = port.paused_until
        earliest = None
        for prio, q in port.queues.items():
            if q.pkts:
                until = paused_until.get(prio, 0)
                if until > now and (earliest is None or until < earliest):
                    earliest = until
        if earliest is None:
            return
        wake_at = earliest + 1  # every candidate is > now
        pending = port.wake
        if pending is not None and not pending.cancelled and pending.time <= wake_at:
            return
        if pending is not None:
            pending.cancel()
        port.wake = self.sim.schedule_at(wake_at, self._fire_wake, port)

    def _fire_wake(self, port: _Port) -> None:
        port.wake = None
        self._transmit(port)
