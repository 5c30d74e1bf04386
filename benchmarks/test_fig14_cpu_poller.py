"""Figure 14 + §4.5: CPU poller efficiency.

14(a): the CPU filters zero slots, cutting the telemetry size shipped to
the analyzer by >80% in most cases.  14(b): batching into MTU-sized report
packets cuts the packet count ~95% vs PHV-limited data-plane generation.
Plus the §4.5 poll-latency model: ~80 ms for 2 epochs, ~120 ms for 4, and
total collection time independent of the switch count.
"""

import pytest

from conftest import ANOMALY_BUILDERS, print_table
from repro.experiments import cpu_poll_time_ms, total_collection_time_ms


def collect_stats():
    from repro.collection import TelemetryCollector, PollingEngine
    from repro.collection.agent import DetectionAgent
    from repro.telemetry import HawkeyeDeployment

    rows = []
    for name, builder in ANOMALY_BUILDERS.items():
        scenario = builder(seed=1)
        net = scenario.network
        deployment = HawkeyeDeployment(net)
        collector = TelemetryCollector(deployment)
        engine = PollingEngine(net, deployment)
        engine.add_mirror_listener(collector.on_polling_mirror)
        DetectionAgent(net)
        net.run(scenario.duration_ns)
        collector.flush_pending(net.sim.now)
        s = collector.stats
        rows.append((name, s))
    return rows


@pytest.mark.benchmark(group="fig14")
def test_fig14_cpu_poller_reductions(benchmark):
    rows = benchmark.pedantic(collect_stats, rounds=1, iterations=1)

    table = []
    for name, s in rows:
        size_reduction = 1 - s.filtered_bytes / s.full_dump_bytes
        pkt_reduction = 1 - s.report_packets_cpu / s.report_packets_dataplane
        table.append(
            (
                name,
                f"{s.filtered_bytes:,}",
                f"{s.full_dump_bytes:,}",
                f"{size_reduction:.1%}",
                f"{pkt_reduction:.1%}",
            )
        )
        # 14(a): zero-slot filtering cuts the telemetry size by >80%.
        assert size_reduction > 0.80, f"{name}: filtering should cut >80%"
        # 14(b): MTU batching cuts the report packet count by ~95%.
        assert pkt_reduction > 0.90, f"{name}: batching should cut ~95%"
    print_table(
        "Figure 14: CPU poller reductions per anomaly trace",
        ("anomaly", "filtered B", "full dump B", "size cut (14a)", "pkt cut (14b)"),
        table,
    )


@pytest.mark.benchmark(group="fig14")
def test_s45_poll_latency_model(benchmark):
    times = benchmark.pedantic(
        lambda: [cpu_poll_time_ms(e) for e in (2, 4)], rounds=1, iterations=1
    )
    print_table(
        "§4.5: CPU poll time (64 ports, 4096 flows/epoch)",
        ("epochs", "poll time (ms)"),
        [(e, f"{t:.0f}") for e, t in zip((2, 4), times)],
    )
    assert times[0] == pytest.approx(80, rel=0.05)
    assert times[1] == pytest.approx(120, rel=0.05)
    # Collection proceeds in parallel across switch CPUs: total time is one
    # switch's poll time regardless of fabric size.
    assert total_collection_time_ms(2, 4) == total_collection_time_ms(200, 4)
