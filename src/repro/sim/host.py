"""Host / RNIC model: paced senders, ACK & CNP generation, PFC honouring
and (for anomaly injection) host-side PFC frame generation.

Flows start at line rate (RDMA NICs do not slow-start) and are paced by a
per-flow DCQCN rate.  The single host uplink serializes control frames
(ACK/CNP/polling, never paused) ahead of data (paused by received PFC
frames, as a real RNIC's lossless class is).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..topology.graph import PortRef
from ..units import serialization_delay_ns
from .cc import RECOVERY_INTERVAL_NS, DcqcnState
from .config import (
    ACK_EVERY_PACKETS,
    CNP_INTERVAL_NS,
    DATA_PACKET_SIZE,
    DCQCN_ENABLED,
    PAUSE_QUANTA,
)
from .flow import Flow
from .packet import (
    DATA_PRIORITY,
    FlowKey,
    Packet,
    PacketType,
    PollingFlag,
    pause_quanta_to_ns,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

RttListener = Callable[[Flow, int, int], None]
CompletionListener = Callable[[Flow, int], None]


class _RxState:
    """Receiver-side progress for one incoming flow."""

    __slots__ = ("bytes_received", "pkts_since_ack", "last_cnp_time", "last_data_time")

    def __init__(self) -> None:
        self.bytes_received = 0
        self.pkts_since_ack = 0
        self.last_cnp_time = -(10**18)
        self.last_data_time = 0


class Host:
    """One simulated server with a single RNIC uplink."""

    def __init__(self, name: str, ip: str, network: "Network") -> None:
        self.name = name
        self.ip = ip
        self.network = network
        self.sim = network.sim
        self._send_seq = network._send_seq
        # Link attributes, set by Network wiring.
        self.bandwidth: float = 0.0
        self.delay_ns: int = 0
        self.peer: Optional[PortRef] = None
        self._peer_receive: Optional[Callable] = None  # None: Network.deliver
        # Wire time of every frame size sent on the uplink (size -> ns),
        # filled on miss; reset when the uplink is (re)attached.
        self._ser_ns: Dict[int, int] = {}
        # Transmitter state.
        self.busy_until = 0
        self.paused_until: Dict[int, int] = {}
        self._control_queue: deque = deque()
        # Sender-side flows.
        self.flows: Dict[FlowKey, Flow] = {}
        self._cc: Dict[FlowKey, DcqcnState] = {}
        # Receiver-side state.
        self._rx: Dict[FlowKey, _RxState] = {}
        # Listeners (detection agent, experiment harness).
        self.rtt_listeners: List[RttListener] = []
        self.completion_listeners: List[CompletionListener] = []
        # Stats.
        self.tx_bytes = 0
        self.tx_pkts = 0
        self.pause_frames_received = 0
        self.injected_pause_frames = 0
        self._injecting_until = 0
        # At most one pending pump event (dedup keeps the event count linear
        # in packets instead of quadratic in ACK arrivals).
        self._pump_event = None

    # -- wiring ---------------------------------------------------------------

    def attach_uplink(self, bandwidth: float, delay_ns: int, peer: PortRef, peer_receive: Optional[Callable] = None) -> None:
        self.bandwidth = bandwidth
        self.delay_ns = delay_ns
        self.peer = peer
        self._peer_receive = peer_receive
        self._ser_ns = {}

    def cc_state(self, key: FlowKey) -> Optional[DcqcnState]:
        return self._cc.get(key)

    # -- flow API ---------------------------------------------------------------

    def start_flow(self, flow: Flow) -> None:
        """Register a flow to send; transmission begins at ``flow.start_time``."""
        if flow.src_host != self.name:
            raise ValueError(f"{flow} does not originate at {self.name}")
        self.flows[flow.key] = flow
        line_rate = self.bandwidth
        if flow.max_rate is not None:
            line_rate = min(line_rate, flow.max_rate)
        self._cc[flow.key] = DcqcnState(line_rate)
        flow.next_pacing_time = flow.start_time
        start_delay = max(0, flow.start_time - self.sim.now)
        self._schedule_pump(self.sim.now + start_delay)
        if DCQCN_ENABLED:
            self.sim.schedule(
                start_delay + RECOVERY_INTERVAL_NS,
                self._recovery_tick,
                flow.key,
            )

    def _recovery_tick(self, key: FlowKey) -> None:
        flow = self.flows.get(key)
        cc = self._cc.get(key)
        if flow is None or cc is None or flow.completed:
            return
        cc.on_recovery_timer()
        cc.on_alpha_timer()
        self.sim.schedule(RECOVERY_INTERVAL_NS, self._recovery_tick, key)
        # Rate increases may unblock pacing earlier than previously scheduled.
        self._pump()

    # -- anomaly injection -------------------------------------------------------

    def start_pfc_injection(
        self,
        duration_ns: int,
        priority: int = DATA_PRIORITY,
        interval_ns: Optional[int] = None,
    ) -> None:
        """Continuously emit PAUSE frames toward the ToR (PFC storm source).

        Models malfunctioning NICs / slow receivers / PCIe bottlenecks (§2.1):
        the ToR's egress toward this host freezes, queues build and PFC
        cascades upstream.
        """
        if interval_ns is None:
            interval_ns = max(1, pause_quanta_to_ns(PAUSE_QUANTA, self.bandwidth) // 2)
        self._injecting_until = self.sim.now + duration_ns
        self._inject_tick(priority, PAUSE_QUANTA, interval_ns)

    def _inject_tick(self, priority: int, quanta: int, interval_ns: int) -> None:
        if self.sim.now >= self._injecting_until:
            # Let the pause lapse naturally (a real broken NIC just stops).
            return
        frame = Packet.pfc(priority, quanta, self.sim.now)
        self.injected_pause_frames += 1
        delay = serialization_delay_ns(frame.size, self.bandwidth) + self.delay_ns
        self.network.deliver(self.peer, frame, delay, self.name)
        self.sim.schedule(interval_ns, self._inject_tick, priority, quanta, interval_ns)

    def inject_polling(self, victim: FlowKey, flag: PollingFlag = PollingFlag.VICTIM_PATH) -> None:
        """Send a Hawkeye polling packet for ``victim`` into the network."""
        pkt = Packet.polling(victim, flag, self.sim.now)
        self._control_queue.append(pkt)
        self._pump()

    # -- receive path ---------------------------------------------------------------

    def receive(self, pkt: Packet, _port: int = 0) -> None:
        ptype = pkt.ptype
        if ptype is PacketType.PFC:
            self._handle_pfc(pkt)
        elif ptype is PacketType.DATA:
            self._handle_data(pkt)
        elif ptype is PacketType.ACK:
            self._handle_ack(pkt)
        elif ptype is PacketType.CNP:
            self._handle_cnp(pkt)
        # POLLING packets reaching a host are terminal; nothing to do.
        # Every frame terminates at the host, so it goes back to the pool.
        pkt.recycle()

    def _handle_pfc(self, pkt: Packet) -> None:
        now = self.sim.now
        if pkt.pause_quanta > 0:
            self.pause_frames_received += 1
            duration = pause_quanta_to_ns(pkt.pause_quanta, self.bandwidth)
            self.paused_until[pkt.pfc_priority] = now + duration
            self._schedule_pump(now + duration + 1)
        else:
            self.paused_until[pkt.pfc_priority] = now
            self._pump()

    def _handle_data(self, pkt: Packet) -> None:
        key = pkt.flow
        st = self._rx.get(key)
        if st is None:
            st = _RxState()
            self._rx[key] = st
        st.bytes_received += pkt.size
        st.pkts_since_ack += 1
        st.last_data_time = self.sim.now
        now = self.sim.now
        if pkt.ce_marked and now - st.last_cnp_time >= CNP_INTERVAL_NS:
            st.last_cnp_time = now
            self._control_queue.append(Packet.cnp(key, now))
        if pkt.is_last or st.pkts_since_ack >= ACK_EVERY_PACKETS:
            st.pkts_since_ack = 0
            ack = Packet.ack(key, now, pkt.create_time, st.bytes_received)
            self._control_queue.append(ack)
        self._pump()

    def _handle_ack(self, pkt: Packet) -> None:
        flow = self.flows.get(pkt.flow)
        if flow is None:
            return
        now = self.sim.now
        rtt = now - pkt.echo_time
        flow.record_rtt(now, rtt)
        for listener in self.rtt_listeners:
            listener(flow, now, rtt)
        if pkt.acked_bytes > flow.bytes_acked:
            flow.bytes_acked = pkt.acked_bytes
        if flow.bytes_acked >= flow.size and not flow.completed:
            flow.finish_time = now
            for listener in self.completion_listeners:
                listener(flow, now)

    def _handle_cnp(self, pkt: Packet) -> None:
        cc = self._cc.get(pkt.flow)
        if cc is not None and DCQCN_ENABLED:
            cc.on_cnp(self.sim.now)

    # -- transmit path -----------------------------------------------------------------

    def _schedule_pump(self, time_ns: int) -> None:
        """Arrange a pump at ``time_ns``, keeping at most one pending event."""
        if time_ns < self.sim.now:
            time_ns = self.sim.now
        pending = self._pump_event
        if pending is not None and not pending.cancelled:
            if pending.time <= time_ns:
                return  # an earlier (or equal) pump is already scheduled
            pending.cancel()
        self._pump_event = self.sim.schedule_at(time_ns, self._pump_fire)

    def _pump_fire(self) -> None:
        self._pump_event = None
        self._pump()

    def _pump(self) -> None:
        """Try to put the next frame on the wire."""
        now = self.sim.now
        if self.busy_until > now:
            self._schedule_pump(self.busy_until)
            return
        if self._control_queue:
            self._transmit(self._control_queue.popleft())
            return
        if self.paused_until.get(DATA_PRIORITY, 0) > now:
            return  # pump is re-triggered on resume/expiry
        flow = self._next_ready_flow()
        if flow is None:
            return
        if flow.next_pacing_time > now:
            self._schedule_pump(flow.next_pacing_time)
            return
        self._transmit_data(flow)

    def _next_ready_flow(self) -> Optional[Flow]:
        best: Optional[Flow] = None
        now = self.sim.now
        for flow in self.flows.values():
            if flow.bytes_sent >= flow.size or flow.start_time > now:
                continue
            if best is None or flow.next_pacing_time < best.next_pacing_time:
                best = flow
        return best

    def _transmit_data(self, flow: Flow) -> None:
        now = self.sim.now
        remaining = flow.size - flow.bytes_sent
        size = min(DATA_PACKET_SIZE, remaining)
        pkt = Packet.data(
            flow.key, size, flow.packets_sent, now, flow.priority, is_last=remaining <= size
        )
        flow.bytes_sent += size
        flow.packets_sent += 1
        cc = self._cc[flow.key]
        gap = int(size * 1e9 / max(cc.rate, 1.0))
        flow.next_pacing_time = now + gap
        self._transmit(pkt)

    def _transmit(self, pkt: Packet) -> None:
        now = self.sim.now
        size = pkt.size
        ser = self._ser_ns.get(size)
        if ser is None:
            ser = self._ser_ns[size] = serialization_delay_ns(size, self.bandwidth)
        self.busy_until = now + ser
        self.tx_bytes += size
        self.tx_pkts += 1
        receive = self._peer_receive
        if receive is None:
            self.network.deliver(self.peer, pkt, ser + self.delay_ns, self.name)
        else:  # ``Network.deliver``, inlined: the same per-source seq and key
            name, seqs, sim = self.name, self._send_seq, self.sim
            seq = seqs[name] = seqs[name] + 1
            key = (now, sim.exec_sched, name, seq)
            sim.schedule_delivery(now + ser + self.delay_ns, key, receive, pkt, self.peer.port)
        self._schedule_pump(self.busy_until)
