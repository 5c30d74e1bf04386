"""The fabric monitor: continuous sampling, sketching and alerting.

:class:`FabricMonitor` is the always-on network-plane observer the
pipeline-plane tracer (PR 4's ``repro.obs``) deliberately is not: it
watches the *fabric* itself at a configurable cadence, independent of any
victim complaint, so anomalies are visible while they develop instead of
only after a diagnosis runs.

Design constraints (both load-bearing):

- **pure observer** — the monitor never schedules traffic, never draws
  from any RNG and never mutates simulator state, so monitor-on and
  monitor-off runs produce byte-identical diagnoses (pinned by the
  monitor row of ``tests/test_determinism_matrix.py``);
- **sampling-first** — per-packet hot paths carry no monitor code at
  all.  Throughput, occupancy and pause state are read from counters the
  switches already maintain, once per ``interval_ns`` tick; only the
  rare PFC control frames go through observer hooks.  The benchmark's
  ``monitor.overhead_s`` reading (``bench/probes.py``) measures what the
  layer adds to a run.

Memory stays bounded regardless of traffic mix: per-flow byte state
lives in a count-min sketch plus a top-K heavy-hitter table (the sampler
keeps one 8-byte read cursor per live flow to turn the simulator's
cumulative counters into deltas); per-port series are fixed-capacity
rings, materialized only for ports that ever show activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.packet import DATA_PRIORITY, pause_quanta_to_ns
from ..sim.switch import Switch, SwitchObserver
from ..units import usec
from .rules import (
    BUFFER_SATURATION,
    PAUSE_BACKPRESSURE,
    PFC_STORM,
    RTT_INFLATION,
    THROUGHPUT_COLLAPSE,
    Alert,
    AlertRule,
    CollapseRule,
    RuleEngine,
    SustainedRule,
)
from .series import RingSeries
from .sketch import CountMinSketch, HeavyHitters
from .timeline import IncidentTimeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..obs.metrics import MetricsRegistry
    from ..sim.network import Network

__all__ = ["MonitorConfig", "FabricMonitor"]


@dataclass(frozen=True)
class MonitorConfig:
    """Picklable monitoring knobs carried by ``RunConfig.monitor``.

    Frozen for the same reason :class:`~repro.obs.pipeline.ObsConfig` is:
    a live monitor holds the sampled fabric and cannot cross the parallel
    runner's process boundary, but this config can — each worker builds
    its own :class:`FabricMonitor` from it.
    """

    interval_ns: int = usec(100)   # sampling cadence


# Ring samples retained per series.
SERIES_CAPACITY = 2048
# Count-min sketch sizing: estimate <= true + epsilon*N w.p. 1-delta.
SKETCH_EPSILON = 0.002
SKETCH_DELTA = 0.02
HEAVY_HITTERS = 8

# Alert-rule thresholds (see repro.monitor.rules for the shapes).
STORM_PAUSE_SHARE = 0.5      # host-granted pause ns per interval ns
STORM_SUSTAIN = 3
PAUSE_SUSTAIN = 4            # consecutive fully-paused samples
BUFFER_FRACTION = 0.8        # of the PFC Xoff threshold
BUFFER_SUSTAIN = 2
COLLAPSE_WINDOW = 4
COLLAPSE_FRACTION = 0.2
COLLAPSE_MIN_BYTES = 4096.0
RTT_INFLATION_FACTOR = 2.0   # multiple of base RTT
RTT_SUSTAIN = 2


def default_rules(xoff_bytes: int) -> List[AlertRule]:
    """The standard rule set, thresholds resolved against the fabric."""
    return [
        SustainedRule(
            name="host-pause-flood",
            category=PFC_STORM,
            metric="host_pause_share",
            threshold=STORM_PAUSE_SHARE,
            sustain=STORM_SUSTAIN,
        ),
        SustainedRule(
            name="sustained-egress-pause",
            category=PAUSE_BACKPRESSURE,
            metric="pause_fraction",
            threshold=1.0,
            sustain=PAUSE_SUSTAIN,
        ),
        SustainedRule(
            name="ingress-near-xoff",
            category=BUFFER_SATURATION,
            metric="ingress_bytes",
            threshold=BUFFER_FRACTION * xoff_bytes,
            sustain=BUFFER_SUSTAIN,
        ),
        CollapseRule(
            name="egress-throughput-collapse",
            category=THROUGHPUT_COLLAPSE,
            metric="tx_bytes",
            window=COLLAPSE_WINDOW,
            fraction=COLLAPSE_FRACTION,
            min_level=COLLAPSE_MIN_BYTES,
        ),
        SustainedRule(
            name="rtt-inflation",
            category=RTT_INFLATION,
            metric="rtt_inflation",
            threshold=RTT_INFLATION_FACTOR,
            sustain=RTT_SUSTAIN,
        ),
    ]


class _PortProbe:
    """Per-port sampling state: counters cursor + lazily created series."""

    __slots__ = (
        "switch",
        "port",
        "port_no",
        "subject",
        "host_facing",
        "tracked",
        "last_tx",
        "acc",
        "s_tx",
        "s_buf",
        "s_ingress",
        "s_pause_frac",
        "s_pause_rx",
        "s_pause_tx",
        "s_host_share",
    )

    def __init__(self, switch: Switch, port_no: int) -> None:
        self.switch = switch
        self.port = switch.ports[port_no]
        self.port_no = port_no
        self.subject = f"{switch.name}.P{port_no}"
        self.host_facing = self.port.peer_is_host
        self.tracked = False
        self.last_tx = 0
        self.acc = _PfcAccum()
        self.s_tx = self.s_buf = self.s_ingress = None
        self.s_pause_frac = self.s_pause_rx = None
        self.s_pause_tx = self.s_host_share = None


class _PfcAccum:
    """PFC state for one port: frame counts this tick + the pause horizon.

    ``granted_until`` is the absolute simulated time up to which received
    PAUSE frames have stalled this port's egress.  A sample's
    ``host_pause_share`` is the overlap of the horizon with the sampling
    window — robust to PAUSE refreshes landing on either side of a window
    boundary, which per-tick frame counting is not.
    """

    __slots__ = ("pause_rx", "pause_tx", "granted_until")

    def __init__(self) -> None:
        self.pause_rx = 0
        self.pause_tx = 0
        self.granted_until = 0


class FabricMonitor(SwitchObserver):
    """Continuous fabric-health observer for one simulated network."""

    def __init__(
        self,
        network: "Network",
        config: Optional[MonitorConfig] = None,
        metrics: Optional["MetricsRegistry"] = None,
        rules: Optional[List[AlertRule]] = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else MonitorConfig()
        self.sketch = CountMinSketch.from_error_bound(SKETCH_EPSILON, SKETCH_DELTA)
        self.heavy = HeavyHitters(HEAVY_HITTERS)
        xoff = network.config.pfc.xoff_bytes
        self.engine = RuleEngine(rules if rules is not None else default_rules(xoff))
        self.timeline = IncidentTimeline()
        # metric -> subject -> series (also reachable via the port probes).
        self.series: Dict[str, Dict[str, RingSeries]] = {}
        self._tick = 0
        self._probes: List[_PortProbe] = []
        self._pfc: Dict[Tuple[str, int], _PfcAccum] = {}
        self._ecn_cursor: Dict[str, int] = {}
        self._ecn_series: Dict[str, RingSeries] = {}
        self._rtt_accum: Dict[str, float] = {}
        self._host_series: Dict[str, RingSeries] = {}
        # Parallel to network.flows: cumulative-bytes cursor and the flow's
        # cached (sketch row slots, key string).
        self._flow_cursors: List[int] = []
        self._flow_slots: List[Optional[Tuple[Tuple[int, ...], str]]] = []
        self._periodic = None
        self._started = False
        # The RTT feed runs per ACK: resolve its histograms once instead
        # of paying a registry lookup on every sample.
        if metrics is not None:
            self._h_rtt = metrics.histogram("monitor.rtt_ns")
            self._h_inflation = metrics.histogram("monitor.rtt_inflation")
        else:
            self._h_rtt = self._h_inflation = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FabricMonitor":
        """Attach PFC hooks and begin sampling at the configured cadence."""
        if self._started:
            return self
        self._started = True
        for switch in self.network.switches.values():
            switch.add_observer(self)
            for port_no in switch.ports:
                probe = _PortProbe(switch, port_no)
                self._probes.append(probe)
                # The PFC hooks share the probe's accumulator, so the
                # sampler reads it without a lookup per port per tick.
                self._pfc[(switch.name, port_no)] = probe.acc
        self._periodic = self.network.sim.schedule_every(
            self.config.interval_ns, self._sample
        )
        return self

    def finish(self, now_ns: Optional[int] = None) -> None:
        """Stop sampling (retained series and alerts stay queryable)."""
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    # -- PFC observer hooks (low-rate control frames only) -------------------

    def on_pfc_received(
        self, switch: Switch, time_ns: int, port: int, priority: int, quanta: int
    ) -> None:
        acc = self._pfc.get((switch.name, port))
        if acc is None:
            acc = self._pfc[(switch.name, port)] = _PfcAccum()
        if quanta > 0:
            acc.pause_rx += 1
            until = time_ns + pause_quanta_to_ns(
                quanta, switch.ports[port].bandwidth
            )
            if until > acc.granted_until:
                acc.granted_until = until
        else:  # RESUME truncates the horizon
            acc.granted_until = time_ns

    def on_pfc_sent(
        self, switch: Switch, time_ns: int, port: int, priority: int, quanta: int
    ) -> None:
        if quanta <= 0:
            return
        acc = self._pfc.get((switch.name, port))
        if acc is None:
            acc = self._pfc[(switch.name, port)] = _PfcAccum()
        acc.pause_tx += 1

    # -- RTT feed (wired through the detection agent) ------------------------

    def on_rtt(
        self, src_host: str, key, now_ns: int, rtt_ns: int, base_rtt_ns: int
    ) -> None:
        """One end-host RTT sample; the agent supplies the base RTT."""
        inflation = rtt_ns / base_rtt_ns if base_rtt_ns > 0 else 0.0
        accum = self._rtt_accum
        prev = accum.get(src_host)
        if prev is None or inflation > prev:
            accum[src_host] = inflation
        if self._h_rtt is not None:
            self._h_rtt.observe(float(rtt_ns))
            self._h_inflation.observe(inflation)

    # -- sampling ------------------------------------------------------------

    def _series(self, metric: str, subject: str) -> RingSeries:
        by_subject = self.series.setdefault(metric, {})
        series = RingSeries(
            metric,
            subject,
            self.config.interval_ns,
            SERIES_CAPACITY,
            start_count=self._tick,
        )
        by_subject[subject] = series
        return series

    def _activate(self, probe: _PortProbe) -> None:
        probe.tracked = True
        subject = probe.subject
        probe.s_tx = self._series("tx_bytes", subject)
        probe.s_buf = self._series("buffer_bytes", subject)
        probe.s_ingress = self._series("ingress_bytes", subject)
        probe.s_pause_frac = self._series("pause_fraction", subject)
        probe.s_pause_rx = self._series("pause_rx", subject)
        probe.s_pause_tx = self._series("pause_tx", subject)
        if probe.host_facing:
            probe.s_host_share = self._series("host_pause_share", subject)

    def _sample(self) -> None:
        now = self.network.sim.now
        interval = self.config.interval_ns
        step = self.engine.step
        engine = self.engine
        raised: List[Alert] = []

        for probe in self._probes:
            port = probe.port
            tx = port.tx_bytes
            dtx = tx - probe.last_tx
            buf = port.total_bytes()
            ingress = probe.switch.ingress_occupancy(probe.port_no)
            paused = port.paused_until.get(DATA_PRIORITY, 0) > now
            acc = probe.acc
            if not probe.tracked:
                if not (
                    dtx or buf or ingress or paused
                    or acc.pause_rx or acc.pause_tx or acc.granted_until
                ):
                    continue
                self._activate(probe)
            probe.last_tx = tx
            probe.s_tx.append(dtx)
            probe.s_buf.append(buf)
            probe.s_ingress.append(ingress)
            probe.s_pause_frac.append(1.0 if paused else 0.0)
            probe.s_pause_rx.append(acc.pause_rx)
            probe.s_pause_tx.append(acc.pause_tx)
            acc.pause_rx = 0
            acc.pause_tx = 0
            granted = acc.granted_until
            if granted:
                # Overlap of the granted-pause horizon with this window.
                overlap = (granted if granted < now else now) - (now - interval)
                host_share = overlap / interval if overlap > 0 else 0.0
            else:
                host_share = 0.0
            if probe.s_host_share is not None:
                probe.s_host_share.append(host_share)
                raised += step(probe.s_host_share, now)
            raised += step(probe.s_tx, now)
            raised += step(probe.s_ingress, now)
            raised += step(probe.s_pause_frac, now)

        # Per-switch ECN marks (delta of the switch's own counter).
        for name, switch in self.network.switches.items():
            marked = switch.stats.ecn_marked
            last = self._ecn_cursor.get(name, 0)
            series = self._ecn_series.get(name)
            if series is None:
                if not marked:
                    continue
                series = self._ecn_series[name] = self._series("ecn_marks", name)
            self._ecn_cursor[name] = marked
            series.append(marked - last)

        # Per-host RTT inflation (max seen this interval; 0 = no samples).
        accum = self._rtt_accum
        for host, series in self._host_series.items():
            series.append(accum.pop(host, 0.0))
            raised += engine.step(series, now)
        for host, inflation in list(accum.items()):
            series = self._host_series[host] = self._series("rtt_inflation", host)
            series.append(inflation)
            raised += engine.step(series, now)
        accum.clear()

        # Per-flow byte counts into the bounded sketch.
        flows = self.network.flows
        cursors = self._flow_cursors
        slots = self._flow_slots
        while len(cursors) < len(flows):
            cursors.append(0)
            slots.append(None)
        sketch = self.sketch
        heavy = self.heavy
        for i, flow in enumerate(flows):
            sent = flow.bytes_sent
            delta = sent - cursors[i]
            if not delta:
                continue
            cursors[i] = sent
            cached = slots[i]
            if cached is None:
                key_str = str(flow.key)
                cached = slots[i] = (sketch.indices(key_str), key_str)
            estimate = sketch.add_at(cached[0], delta)
            heavy.offer(cached[1], estimate)

        for alert in raised:
            self.timeline.record_alert(alert)
        self._tick += 1

    # -- queries -------------------------------------------------------------

    @property
    def samples(self) -> int:
        return self._tick

    @property
    def alerts(self) -> List[Alert]:
        return self.engine.alerts

    def counters(self) -> Dict[str, object]:
        """Flat-ish counter view for ``MetricsRegistry.absorb_counters``."""
        return {
            "samples": self._tick,
            "alerts_total": len(self.engine.alerts),
            "incidents": len(self.timeline.incidents),
            "tracked_ports": sum(1 for p in self._probes if p.tracked),
            "tracked_hosts": len(self._host_series),
            "alerts": self.engine.alerts_by_category(),
            "sketch": self.sketch.counters(),
        }
