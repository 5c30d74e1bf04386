"""The register read path: report sizing and reads under a chaos plan."""

import hashlib
from dataclasses import asdict

import pytest

from repro.baselines import SystemKind
from repro.collection import TelemetryCollector
from repro.collection.collector import PHV_REPORT_BYTES
from repro.experiments import FabricSession, RunConfig
from repro.faults import FaultPlan
from repro.telemetry import HawkeyeDeployment
from repro.telemetry.snapshot import SwitchReport
from repro.units import KB, msec, usec
from repro.workloads import SCENARIO_BUILDERS


class TestFullDumpPricing:
    def test_priced_at_the_switch_port_count(self, dumbbell_net):
        # The raw dump covers every port's registers, not only the ports
        # whose PFC status register was ever written.
        net = dumbbell_net
        dep = HawkeyeDeployment(net)
        collector = TelemetryCollector(dep, read_delay_ns=0)
        for j in range(2):
            net.start_flow(
                net.make_flow(f"HL{j}", "HR0", 200 * KB, usec(1), src_port=10000 + j)
            )
        net.run(msec(1))
        report = collector.collect("SW1", net.sim.now)
        ports = len(net.switch("SW1").ports)
        assert len(report.port_status) < ports
        full = SwitchReport.full_dump_bytes(
            dep.config.flow_slots, ports, len(report.epochs)
        )
        assert collector.stats.full_dump_bytes == full
        assert collector.stats.report_packets_dataplane == -(-full // PHV_REPORT_BYTES)
        collector.collect("SW1", net.sim.now)  # the memoized shape
        assert collector.stats.full_dump_bytes == 2 * full


def reports_digest(reports):
    h = hashlib.sha256()
    for r in reports:
        epochs = [
            (e.epoch_number, list(e.flows.items()), list(e.ports.items()),
             list(e.meters.items()))
            for e in r.epochs
        ]
        h.update(repr(
            (r.switch, r.collect_time, r.faults, sorted(r.port_status.items()), epochs)
        ).encode())
    return h.hexdigest()


# Delayed, truncated, skewed and stale reads (stale ones read an older
# window, so the snapshot memo sees time step back and forth).
CHAOS = FaultPlan(
    seed=3,
    report_delay_rate=0.3,
    report_truncate_rate=0.2,
    dma_stale_rate=0.3,
    clock_skew_max_ns=usec(50),
)


class TestChaosReads:
    """Every report and CollectionStats field under a chaos plan, pinned.

    The digests and counts are those of the read path before snapshots
    were memoized on the write generation; only ``full_dump_bytes`` and
    ``report_packets_dataplane`` have moved since, when the raw dump began
    to be priced at the switch's port count.
    """

    @pytest.mark.parametrize(
        "name, system, digest, stats",
        [
            (
                "incast-backpressure",
                SystemKind.HAWKEYE,
                "61ca11c8ea07814d89f8b3cf56057857fe80dbd1ed9d9244ac75085b860c0c02",
                dict(
                    collections=26, mirrored_packets=104, suppressed_collections=78,
                    filtered_bytes=2816, full_dump_bytes=3199664,
                    report_packets_cpu=26, report_packets_dataplane=16666,
                    stale_reads=11, reports_truncated=4, reports_delayed=5,
                ),
            ),
            (
                "pfc-storm",
                SystemKind.FULL_POLLING,
                "3a0e73f88a52e27e0192075106bb7963a45699f661296c20a5e7b2785942667d",
                dict(
                    collections=79, mirrored_packets=0, suppressed_collections=460,
                    filtered_bytes=6881, full_dump_bytes=17227740,
                    report_packets_cpu=79, report_packets_dataplane=89740,
                    stale_reads=24, reports_truncated=16, reports_delayed=18,
                ),
            ),
        ],
    )
    def test_reports_and_stats_pinned(self, name, system, digest, stats):
        scenario = SCENARIO_BUILDERS[name](seed=1)
        session = FabricSession(
            scenario, RunConfig(system=system, faults=CHAOS, retry=True)
        )
        session.advance(scenario.duration_ns)
        session.finish()
        reports = session.collector.reports
        assert {f for r in reports for f in r.faults} == {"skewed", "stale", "truncated"}
        assert reports_digest(reports) == digest
        want = dict.fromkeys(asdict(session.collector.stats), 0)
        want.update(stats)
        assert asdict(session.collector.stats) == want
