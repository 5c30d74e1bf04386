"""Controller-assisted telemetry collection (§3.4).

When a polling packet is mirrored to a switch CPU, the controller reads the
telemetry registers (REGISTER_SYNC DMA on Tofino), filters out empty slots,
batches the survivors into MTU-sized report packets and ships them to the
analyzer.  A per-switch dedup interval prevents repeated collection when
several victims' polling packets cross the same switch (e.g., the four
flows of a deadlock loop).

We snapshot the registers at mirror time — the DMA happens within the same
epoch window in practice — and model the CPU poll latency analytically in
:mod:`repro.experiments.hardware` for the §4.5 timing numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..faults.injector import (
    DMA_FAIL,
    DMA_STALE,
    REPORT_DELAYED,
    REPORT_LOST,
    REPORT_TRUNCATED,
)
from ..sim.packet import Packet
from ..telemetry.hawkeye import HawkeyeDeployment
from ..telemetry.snapshot import SwitchReport
from ..units import usec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector
    from ..faults.plan import RetryPolicy
    from ..obs.pipeline import PipelineObs
    from ..sim.packet import FlowKey

MTU_BYTES = 1500
# Usable PHV budget for data-plane packet generation (the alternative the
# CPU poller is compared against in Fig 14(b)).
PHV_REPORT_BYTES = 192


@dataclass
class CollectionStats:
    """Accounting for Fig 9a / Fig 14."""

    collections: int = 0
    mirrored_packets: int = 0
    suppressed_collections: int = 0
    filtered_bytes: int = 0
    full_dump_bytes: int = 0
    report_packets_cpu: int = 0
    report_packets_dataplane: int = 0
    # Reliability accounting (only nonzero under fault injection).
    dma_retries: int = 0
    dma_reads_abandoned: int = 0
    stale_reads: int = 0
    reports_lost: int = 0
    reports_truncated: int = 0
    reports_delayed: int = 0


class TelemetryCollector:
    """Gathers :class:`SwitchReport` objects in response to polling mirrors."""

    def __init__(
        self,
        deployment: HawkeyeDeployment,
        lookback_epochs: Optional[int] = None,
        dedup_interval_ns: int = usec(100),
        read_delay_ns: Optional[int] = None,
        injector: Optional["FaultInjector"] = None,
        retry: Optional["RetryPolicy"] = None,
        obs: Optional["PipelineObs"] = None,
    ) -> None:
        """``read_delay_ns`` models the gap between the polling packet's CPU
        mirror and the actual register DMA read (tens of ms on Tofino; here
        defaulted to a quarter of the epoch-ring window so the read still
        lands inside the history the ring retains).

        ``injector`` subjects the register DMA and the report channel to a
        fault plan; ``retry`` bounds the DMA retry budget that answers it.
        """
        self.deployment = deployment
        self.lookback_epochs = lookback_epochs
        self.dedup_interval_ns = dedup_interval_ns
        if read_delay_ns is None:
            window = deployment.config.scheme.window_ns
            read_delay_ns = min(usec(300), window // 4)
        self.read_delay_ns = read_delay_ns
        self._injector = injector
        self._retry = retry
        self._obs = obs
        # Victim/time of the switch's most recent polling mirror: dedup makes
        # exact read attribution impossible, so the epoch-read span parents
        # under the round whose mirror actually drove (or most recently
        # touched) the switch.
        self._last_mirror_victim: Dict[str, "FlowKey"] = {}
        self._last_mirror_time: Dict[str, int] = {}
        self.reports: List[SwitchReport] = []
        self.stats = CollectionStats()
        self._last_collect: Dict[str, int] = {}
        self._pending: Dict[str, int] = {}
        # Sim time of the most recent report delivery (retransmission probe),
        # plus per-switch delivery times for the path-coverage probe.
        self._last_delivery_ns = -1
        self._delivery_times: Dict[str, int] = {}

    def on_polling_mirror(self, switch_name: str, pkt: Packet, now: int) -> None:
        """CPU-mirror notification: maybe start an asynchronous register read."""
        self.stats.mirrored_packets += 1
        last = self._last_collect.get(switch_name)
        if last is not None and now - last < self.dedup_interval_ns:
            self.stats.suppressed_collections += 1
            if self._obs is not None and pkt.flow is not None:
                # This victim's telemetry rides the read another victim's
                # mirror already started — keep its causal chain intact.
                self._obs.on_collection_shared(switch_name, pkt.flow, now)
            return
        # Only the collection-driving mirror claims read attribution: the
        # epoch-read span parents under the round that caused the read.
        if pkt.flow is not None:
            self._last_mirror_victim[switch_name] = pkt.flow
            self._last_mirror_time[switch_name] = now
        self._last_collect[switch_name] = now
        if self.read_delay_ns <= 0:
            self.collect(switch_name, now)
            return
        self._pending[switch_name] = self._pending.get(switch_name, 0) + 1
        sim = self.deployment.network.sim
        sim.schedule(self.read_delay_ns, lambda: self._delayed_read(switch_name))

    def _delayed_read(self, switch_name: str) -> None:
        if self._pending.get(switch_name, 0) <= 0:
            return
        self._pending[switch_name] -= 1
        self.collect(switch_name, self.deployment.network.sim.now)

    def flush_pending(self, now: int) -> None:
        """Force any scheduled-but-unread register reads (end of a run)."""
        for switch_name, count in list(self._pending.items()):
            if count > 0:
                self._pending[switch_name] = 0
                self.collect(switch_name, now)

    def collect(
        self, switch_name: str, now: int, _attempt: int = 0
    ) -> Optional[SwitchReport]:
        """Read one switch's registers into a report (CPU-filtered).

        Fault-free, this snapshots and delivers synchronously.  Under an
        injector the read may fail (retried on the bounded DMA budget) or go
        stale, and the resulting report may be lost, truncated or delayed on
        its way to the analyzer — ``None`` means no report was delivered (or
        even produced) by this attempt.
        """
        telem = self.deployment.for_switch(switch_name)
        injector = self._injector
        obs = self._obs
        victim = self._last_mirror_victim.get(switch_name)
        # The read interval spans from the CPU mirror that drove it to the
        # actual register snapshot (retry attempts start at the retry).
        read_start = now if _attempt else min(
            self._last_mirror_time.get(switch_name, now), now
        )
        if injector is None:
            report = telem.snapshot(now, self.lookback_epochs)
            if obs is not None:
                obs.on_epoch_read(
                    switch_name, victim, read_start, now, len(report.epochs)
                )
            self._deliver(report, telem)
            return report

        fate = injector.dma_fate(now, switch_name)
        if fate == DMA_FAIL:
            if obs is not None:
                obs.on_epoch_read(
                    switch_name, victim, read_start, now, 0, faults=("dma_fail",)
                )
            budget = self._retry.dma_retry_budget if self._retry is not None else 0
            if _attempt < budget:
                self.stats.dma_retries += 1
                injector.count(
                    "dma_read_retried", switch_name, now, f"attempt={_attempt + 1}"
                )
                self.deployment.network.sim.schedule(
                    self._retry.dma_retry_delay_ns,
                    self._collect_retry,
                    switch_name,
                    _attempt + 1,
                )
            else:
                self.stats.dma_reads_abandoned += 1
                injector.count("dma_read_abandoned", switch_name, now)
            return None

        flags = []
        read_at = now
        if fate == DMA_STALE:
            # The DMA returned an old window but is timestamped fresh: the
            # analyzer sees a current-looking report with aged content.
            read_at = max(0, now - injector.plan.dma_stale_age_ns)
            flags.append("stale")
            self.stats.stale_reads += 1
        report = telem.snapshot(read_at, self.lookback_epochs)
        report.collect_time = now
        skew = injector.clock_skew_for(switch_name)
        if skew:
            report.collect_time = max(0, now + skew)
            flags.append("skewed")
        if obs is not None:
            obs.on_epoch_read(
                switch_name,
                victim,
                read_start,
                now,
                len(report.epochs),
                faults=tuple(flags),
            )

        report_fate, delay_ns = injector.report_fate(now, switch_name)
        if report_fate == REPORT_LOST:
            self.stats.reports_lost += 1
            if obs is not None:
                obs.on_report("lost", switch_name, victim, now, faults=tuple(flags))
            return None
        if report_fate == REPORT_TRUNCATED:
            report.epochs = report.epochs[-1:]
            flags.append("truncated")
            self.stats.reports_truncated += 1
            if obs is not None:
                obs.on_report("truncated", switch_name, victim, now)
        if flags:
            report.faults = tuple(flags)
        if report_fate == REPORT_DELAYED:
            self.stats.reports_delayed += 1
            if obs is not None:
                obs.on_report(
                    "delayed", switch_name, victim, now, delay_ns=delay_ns
                )
            self.deployment.network.sim.schedule(
                delay_ns, self._deliver, report, telem
            )
            return report
        self._deliver(report, telem)
        return report

    def _collect_retry(self, switch_name: str, attempt: int) -> None:
        self.collect(
            switch_name, self.deployment.network.sim.now, _attempt=attempt
        )

    def _deliver(self, report: SwitchReport, telem) -> None:
        """A report packet reached the analyzer: index and account it."""
        if self._obs is not None:
            self._obs.on_report(
                "delivered",
                report.switch,
                self._last_mirror_victim.get(report.switch),
                self.deployment.network.sim.now,
                faults=report.faults,
            )
        self.reports.append(report)
        self._account(report, telem)
        now = self.deployment.network.sim.now
        self._last_delivery_ns = now
        self._delivery_times[report.switch] = now

    def has_report_since(self, victim, since_ns: int) -> bool:
        """Has *any* report been delivered at/after ``since_ns``?  The
        coarse retransmission probe (victim-agnostic: a trigger's polling
        packet is judged answered by the collection wave it started)."""
        return self._last_delivery_ns >= since_ns

    def switches_reported_since(self, since_ns: int) -> set:
        """The switches whose reports reached the analyzer at/after
        ``since_ns``.  The path-coverage probe compares this against the
        victim's expected switch set: a single lost report (or a polling
        packet dying mid-path) shows up as a hole here, which the coarse
        any-report probe cannot see."""
        return {
            name
            for name, t in self._delivery_times.items()
            if t >= since_ns
        }

    def _account(self, report: SwitchReport, telem) -> None:
        filtered = report.payload_bytes()
        num_ports = max(len(report.port_status), 1)
        full = SwitchReport.full_dump_bytes(
            flow_slots=telem.config.flow_slots,
            num_ports=num_ports,
            num_epochs=len(report.epochs) or 1,
        )
        self.stats.collections += 1
        self.stats.filtered_bytes += filtered
        self.stats.full_dump_bytes += full
        self.stats.report_packets_cpu += max(1, -(-filtered // MTU_BYTES))
        self.stats.report_packets_dataplane += max(1, -(-full // PHV_REPORT_BYTES))

    def collect_all(self, now: int) -> None:
        """Full-polling baseline: read every deployed switch (dedup applies)."""
        for switch_name in self.deployment.telemetry:
            last = self._last_collect.get(switch_name)
            if last is not None and now - last < self.dedup_interval_ns:
                self.stats.suppressed_collections += 1
                continue
            self._last_collect[switch_name] = now
            self.collect(switch_name, now)

    # -- analyzer-side access ----------------------------------------------------

    def collected_switches(self) -> List[str]:
        return sorted({r.switch for r in self.reports})
