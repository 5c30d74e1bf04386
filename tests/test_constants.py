"""Value pins for the fixed numbers the verdicts depend on.

These values are module constants, not options: a slip in one fails here
at that number, not only later as a moved verdict somewhere downstream.
``PINNED`` holds the ones that were config fields only tests ever set; a
test that needs another value monkeypatches the constant, so a change
here is a change to every run.
"""

import dataclasses
import importlib

import pytest

from repro.core.diagnosis import (
    MAX_VISITED_PORTS,
    MIN_CONTENTION_QDEPTH_SHARE,
    MIN_CONTENTION_WEIGHT,
)
from repro.monitor import FabricMonitor
from repro.sim import Network
from repro.sim.config import CNP_INTERVAL_NS, PAUSE_QUANTA, PFC_REFRESH_INTERVAL_NS
from repro.topology import build_line
from repro.units import KB, msec, usec


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


PINNED = {
    # The detection agent.
    ("repro.collection.agent", "COOLDOWN_NS"): msec(1),
    ("repro.collection.agent", "STALL_TIMEOUT_NS"): usec(200),
    # Algorithm 2 and its scoring.
    ("repro.core.diagnosis", "MAX_CULPRITS"): 16,
    ("repro.experiments.metrics", "CULPRIT_RECALL_THRESHOLD"): 0.3,
    # The retry policy.
    ("repro.faults.plan", "REPORT_TIMEOUT_NS"): usec(300),
    ("repro.faults.plan", "MAX_RETRIES"): 3,
    ("repro.faults.plan", "BACKOFF_FACTOR"): 2.0,
    ("repro.faults.plan", "JITTER_NS"): usec(20),
    ("repro.faults.plan", "DMA_RETRY_BUDGET"): 3,
    ("repro.faults.plan", "DMA_RETRY_DELAY_NS"): usec(50),
    # Fault magnitudes (the plan's rates decide whether they occur).
    ("repro.faults.plan", "REPORT_DELAY_MAX_NS"): usec(500),
    ("repro.faults.plan", "DMA_STALE_AGE_NS"): usec(500),
    ("repro.faults.plan", "AGENT_RESTART_BLACKOUT_NS"): usec(100),
    # The simulator.
    ("repro.sim.config", "DATA_PACKET_SIZE"): 1 * KB,
    ("repro.sim.config", "ACK_EVERY_PACKETS"): 4,
    ("repro.sim.config", "DCQCN_ENABLED"): True,
    ("repro.sim.config", "ECN_PMAX"): 0.2,
    # Monitoring, polling and probing.
    ("repro.monitor.monitor", "SERIES_CAPACITY"): 2048,
    ("repro.monitor.timeline", "INCIDENT_LOOKBACK_NS"): msec(10),
    ("repro.collection.polling", "DEDUP_INTERVAL_NS"): msec(2),
    ("repro.collection.probes", "PROBES_PER_ROUND"): 4,
}


@pytest.mark.parametrize(
    "module, name", sorted(PINNED), ids=[name for _, name in sorted(PINNED)]
)
def test_constant_value(module, name):
    value = getattr(importlib.import_module(module), name)
    expected = PINNED[module, name]
    assert type(value) is type(expected) and value == expected
