"""Value pins for the fixed numbers the verdicts depend on.

These values are module constants, not options, so no test varies them;
a slip in one fails here at that number, not only later as a moved
verdict somewhere downstream.
"""

import dataclasses

from repro.core.diagnosis import (
    MAX_VISITED_PORTS,
    MIN_CONTENTION_QDEPTH_SHARE,
    MIN_CONTENTION_WEIGHT,
)
from repro.monitor import FabricMonitor
from repro.sim import Network
from repro.sim.config import CNP_INTERVAL_NS, PAUSE_QUANTA, PFC_REFRESH_INTERVAL_NS
from repro.topology import build_line


def test_moved_values_keep_their_numbers():
    monitor = FabricMonitor(Network(build_line(num_switches=1, hosts_per_switch=2)))
    # SustainedRule rows end (threshold, sustain); CollapseRule rows end
    # (window, fraction, min_level).  Xoff is the default 40 KB.
    assert [dataclasses.astuple(rule) for rule in monitor.engine.rules] == [
        ("host-pause-flood", "pfc_storm", "host_pause_share", 0.5, 3),
        ("sustained-egress-pause", "pause_backpressure", "pause_fraction", 1.0, 4),
        ("ingress-near-xoff", "buffer_saturation", "ingress_bytes", 32_000.0, 2),
        ("egress-throughput-collapse", "throughput_collapse", "tx_bytes",
         4, 0.2, 4096.0),
        ("rtt-inflation", "rtt_inflation", "rtt_inflation", 2.0, 2),
    ]
    assert (monitor.sketch.width, monitor.sketch.depth, monitor.heavy.k) == (
        1360, 4, 8,
    )
    assert (
        MAX_VISITED_PORTS, MIN_CONTENTION_WEIGHT, MIN_CONTENTION_QDEPTH_SHARE
    ) == (4096, 2.0, 0.1)
    assert (PAUSE_QUANTA, PFC_REFRESH_INTERVAL_NS, CNP_INTERVAL_NS) == (
        0xFFFF, 50_000, 50_000,
    )
