"""Simulator-level trace events: per-packet accounting and pause spans.

A :class:`SimTraceObserver` is a :class:`~repro.sim.switch.SwitchObserver`
that translates the switch hooks into trace records:

- ``pkt_enqueue`` / ``pkt_dequeue`` events per egress enqueue/dequeue
  (the conservation law the property tests check: on a drained lossless
  fabric, enqueues == dequeues per switch — nothing is dropped);
- ``pause_rx`` / ``resume_rx`` events for PFC frames entering a port;
- one ``port_pause`` span per pause *episode* on a (switch, port): opened
  at the first PAUSE, extended by refresh frames, closed by the RESUME
  frame or by quanta expiry (whichever the frames imply came first).

This is deliberately opt-in (``ObsConfig.sim_events``): per-packet events
are far too hot for the leave-it-on default, but on the small fabrics of
the property tests they give the tracer a ground truth to check the
pipeline against.  Every event also bumps the matching ``events.*``
counter in the registry, so "metric counters == trace event counts" is an
asserted invariant, not an assumption.

It is also the fabric's only omniscient recorder: attached with
``Network.add_switch_observer`` over a bare :class:`Tracer`, its
:meth:`~SimTraceObserver.pause_spans` are the ground-truth pause episodes
the watchdog baseline and the telemetry cross-validation check against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.packet import Packet, pause_quanta_to_ns
from ..sim.switch import Switch, SwitchObserver
from ..topology.graph import PortRef
from .metrics import MetricsRegistry
from .trace import Span, Tracer


class SimTraceObserver(SwitchObserver):
    """Emits sim-level events/spans under a parent (usually the scenario)."""

    def __init__(
        self,
        tracer: Tracer,
        metrics: Optional[MetricsRegistry] = None,
        parent: Optional[Span] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.parent = parent
        # (switch, port) -> (open pause span, expected expiry time ns)
        self._pause: Dict[Tuple[str, int], Tuple[Span, int]] = {}

    # -- helpers --------------------------------------------------------------

    def _event(self, kind: str, time_ns: int, **attrs) -> None:
        self.metrics.inc(f"events.{kind}")
        self.tracer.event(kind, span=self.parent, time_ns=time_ns, **attrs)

    def _close_pause(self, key: Tuple[str, int], end_ns: int) -> None:
        span, _ = self._pause.pop(key)
        self.tracer.end_span(span, end_ns)

    # -- switch hooks ---------------------------------------------------------

    def on_egress_enqueue(
        self,
        switch: Switch,
        time_ns: int,
        pkt: Packet,
        egress_port: int,
        ingress_port,
        queue_depth_pkts: int,
        queue_bytes: int,
        port_paused: bool,
    ) -> None:
        self._event(
            "pkt_enqueue",
            time_ns,
            switch=switch.name,
            port=egress_port,
            paused=port_paused,
        )

    def on_egress_dequeue(
        self, switch: Switch, time_ns: int, pkt: Packet, egress_port: int
    ) -> None:
        self._event(
            "pkt_dequeue", time_ns, switch=switch.name, port=egress_port
        )

    def on_pfc_received(
        self, switch: Switch, time_ns: int, port: int, priority: int, quanta: int
    ) -> None:
        key = (switch.name, port)
        open_pause = self._pause.get(key)
        if quanta > 0:
            self._event(
                "pause_rx", time_ns, switch=switch.name, port=port, quanta=quanta
            )
            until = time_ns + pause_quanta_to_ns(
                quanta, switch.ports[port].bandwidth
            )
            if open_pause is not None:
                span, expiry = open_pause
                if time_ns >= expiry:
                    # The previous episode lapsed silently before this new
                    # PAUSE: close it at its expiry, then start afresh.
                    self._close_pause(key, expiry)
                    open_pause = None
                else:
                    # Refresh: same episode, pushed-out expiry.
                    self._pause[key] = (span, until)
            if open_pause is None:
                span = self.tracer.begin_span(
                    "port_pause",
                    f"{switch.name}.P{port}",
                    time_ns,
                    parent=self.parent,
                    switch=switch.name,
                    port=port,
                )
                self._pause[key] = (span, until)
        else:
            self._event(
                "resume_rx", time_ns, switch=switch.name, port=port
            )
            if open_pause is not None:
                span, expiry = open_pause
                # A RESUME after the quanta lapsed ends the episode at the
                # expiry, not at the (later) frame arrival.
                self._close_pause(key, min(time_ns, expiry))

    # -- teardown -------------------------------------------------------------

    def finish(self, now_ns: int) -> None:
        """Close episodes still open at end of run (expiry-capped)."""
        for key in sorted(self._pause):
            span, expiry = self._pause[key]
            self.tracer.end_span(span, min(now_ns, expiry))
        self._pause.clear()

    def pause_spans(self, port: PortRef) -> List[Tuple[int, int]]:
        """``(start, end)`` of every closed pause episode ``port`` received.

        Call :meth:`finish` first: an episode still open is not listed.
        """
        return [
            (span.start_ns, span.end_ns)
            for span in self.tracer.spans
            if span.kind == "port_pause"
            and span.end_ns is not None
            and span.attrs["switch"] == port.node
            and span.attrs["port"] == port.port
        ]
