"""The kernel's event-sequence contract beyond the K=4 builders.

``test_kernel_contract.py`` pins the seven ``paper_mix`` builders, all on
K=4 fat-trees or the four-switch ring.  This file pins the same four
things (verdict text, ``events_run``, ``Simulator.counters()`` and the
fabric-wide switch counters) on fabrics those builders never reach:

- ``fleet-incast-k8`` at seed 1, through ``run_scenario``;
- the seven ``seed_genomes()`` probes, through ``run_scenario`` with the
  fuzzer's run config (monitor on): plain incast, host injection,
  injection plus incast, a ring with CBD static routes, a leaf-spine, a
  dumbbell and a line.

The same rule holds as for the K=4 file: a change that only makes the
simulator faster on the host must pass with no literal edited.  Only a
change to what is simulated may re-record them, and must say so.
"""

import pytest

from repro.experiments import run_scenario
from repro.fuzz.engine import FuzzConfig, seed_genomes
from repro.workloads import SCENARIO_BUILDERS

SWITCH_COUNTERS = ("data_pkts", "pause_sent", "resume_sent", "ecn_marked", "tx_pkts")

# Names for ``seed_genomes()``, in its order.
GENOME_NAMES = (
    "genome-incast",
    "genome-host-injection",
    "genome-injection-incast",
    "genome-ring-cbd",
    "genome-leafspine",
    "genome-dumbbell",
    "genome-line",
)

CONTRACT = {
    "fleet-incast-k8": {
        "describe": (
            "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
            "  [1] pfc-backpressure-flow-contention (root cause: "
            "flow-contention); initial congestion at E0_0.P5; PFC path: "
            "E0_1.P1 -> A0_0.P1 -> E0_0.P5; culprits: "
            "10.1.0.2:11000->10.0.0.2:4791/17 (w=32.52)"
        ),
        "events_run": 155876,
        "counters": {
            "events_run": 155876,
            "events_purged": 9,
            "compactions": 4,
            "pending_entries": 1,
            "max_pending_entries": 3319,
        },
        "switch_sums": {
            "data_pkts": 47200,
            "pause_sent": 276,
            "resume_sent": 155,
            "ecn_marked": 9002,
            "tx_pkts": 59490,
        },
    },
    "genome-incast": {
        "describe": (
            "Diagnosis for victim 10.3.1.3:12000->10.0.0.3:4791/17:\n"
            "  [1] pfc-backpressure-flow-contention (root cause: "
            "flow-contention); initial congestion at E0_0.P3; PFC path: "
            "A3_1.P3 -> C2.P1 -> A0_1.P1 -> E0_0.P3; culprits: "
            "10.2.1.2:11004->10.0.0.2:4791/17 (w=14.53), "
            "10.3.1.2:11000->10.0.0.2:4791/17 (w=14.23)\n"
            "  confidence: degraded (completeness 71%; missing: A3_0, C3)"
        ),
        "events_run": 69547,
        "counters": {
            "events_run": 69547,
            "events_purged": 2,
            "compactions": 2,
            "pending_entries": 2,
            "max_pending_entries": 749,
        },
        "switch_sums": {
            "data_pkts": 22500,
            "pause_sent": 86,
            "resume_sent": 61,
            "ecn_marked": 1652,
            "tx_pkts": 28277,
        },
    },
    "genome-host-injection": {
        "describe": None,
        "events_run": 22655,
        "counters": {
            "events_run": 22655,
            "events_purged": 0,
            "compactions": 0,
            "pending_entries": 2,
            "max_pending_entries": 205,
        },
        "switch_sums": {
            "data_pkts": 7500,
            "pause_sent": 0,
            "resume_sent": 0,
            "ecn_marked": 0,
            "tx_pkts": 9375,
        },
    },
    "genome-injection-incast": {
        "describe": (
            "Diagnosis for victim 10.3.1.3:12000->10.0.0.3:4791/17:\n"
            "  [1] contention-masked-pfc-storm (root cause: "
            "host-pfc-injection); initial congestion at E0_0.P3; PFC path: "
            "A3_1.P3 -> C2.P1 -> A0_1.P1 -> E0_0.P3; culprits: "
            "10.3.0.2:11002->10.0.0.2:4791/17 (w=49.11); injector: H0_0_0\n"
            "  confidence: degraded (completeness 71%; missing: A3_0, C3)"
        ),
        "events_run": 72735,
        "counters": {
            "events_run": 72735,
            "events_purged": 17,
            "compactions": 2,
            "pending_entries": 2,
            "max_pending_entries": 750,
        },
        "switch_sums": {
            "data_pkts": 22500,
            "pause_sent": 1330,
            "resume_sent": 59,
            "ecn_marked": 1640,
            "tx_pkts": 28349,
        },
    },
    "genome-ring-cbd": {
        "describe": (
            "Diagnosis for victim 10.4.0.5:12000->10.1.0.3:4791/17:\n"
            "  [1] normal-flow-contention (root cause: flow-contention); "
            "initial congestion at SW4.P2; culprits: "
            "10.3.0.2:13002->10.1.0.2:4791/17 (w=41.99), "
            "10.4.0.2:13003->10.2.0.2:4791/17 (w=5.66)\n"
            "  confidence: degraded (completeness 67%; missing: SW2)"
        ),
        "events_run": 255861,
        "counters": {
            "events_run": 255861,
            "events_purged": 3294,
            "compactions": 7,
            "pending_entries": 2,
            "max_pending_entries": 308,
        },
        "switch_sums": {
            "data_pkts": 67600,
            "pause_sent": 165,
            "resume_sent": 95,
            "ecn_marked": 77,
            "tx_pkts": 86477,
        },
    },
    "genome-leafspine": {
        "describe": (
            "Diagnosis for victim 10.3.0.3:12000->10.0.0.3:4791/17:\n"
            "  [1] unknown (root cause: undetermined); initial congestion at "
            "S0.P1; PFC path: L3.P1 -> S0.P1\n"
            "  confidence: degraded (completeness 75%; missing: S1)"
        ),
        "events_run": 48993,
        "counters": {
            "events_run": 48993,
            "events_purged": 19,
            "compactions": 1,
            "pending_entries": 2,
            "max_pending_entries": 258,
        },
        "switch_sums": {
            "data_pkts": 13500,
            "pause_sent": 156,
            "resume_sent": 57,
            "ecn_marked": 2042,
            "tx_pkts": 17049,
        },
    },
    "genome-dumbbell": {
        "describe": (
            "Diagnosis for victim 10.2.0.4:12000->10.1.0.3:4791/17:\n"
            "  no anomaly identified"
        ),
        "events_run": 27065,
        "counters": {
            "events_run": 27065,
            "events_purged": 0,
            "compactions": 0,
            "pending_entries": 2,
            "max_pending_entries": 212,
        },
        "switch_sums": {
            "data_pkts": 6500,
            "pause_sent": 4,
            "resume_sent": 4,
            "ecn_marked": 1629,
            "tx_pkts": 8146,
        },
    },
    "genome-line": {
        "describe": (
            "Diagnosis for victim 10.4.0.3:12000->10.1.0.3:4791/17:\n"
            "  [1] unknown (root cause: undetermined); initial congestion at "
            "SW2.P1; PFC path: SW4.P1 -> SW3.P1 -> SW2.P1"
        ),
        "events_run": 48036,
        "counters": {
            "events_run": 48036,
            "events_purged": 6,
            "compactions": 1,
            "pending_entries": 2,
            "max_pending_entries": 290,
        },
        "switch_sums": {
            "data_pkts": 14000,
            "pause_sent": 28,
            "resume_sent": 20,
            "ecn_marked": 1243,
            "tx_pkts": 17569,
        },
    },
}


def _observed(scenario, config=None):
    result = run_scenario(scenario, config)
    diagnosis = result.diagnosis()
    switches = scenario.network.switches.values()
    return {
        "describe": diagnosis.describe() if diagnosis is not None else None,
        "events_run": result.events_run,
        "counters": scenario.network.sim.counters(),
        "switch_sums": {
            counter: sum(getattr(sw.stats, counter) for sw in switches)
            for counter in SWITCH_COUNTERS
        },
    }


def test_fleet_k8_reproduces_recorded_event_sequence():
    scenario = SCENARIO_BUILDERS["fleet-incast-k8"](seed=1)
    assert _observed(scenario) == CONTRACT["fleet-incast-k8"]


@pytest.mark.parametrize("index", range(len(GENOME_NAMES)), ids=GENOME_NAMES)
def test_seed_genome_reproduces_recorded_event_sequence(index):
    genome = seed_genomes()[index]
    observed = _observed(genome.build(), FuzzConfig().run_config())
    assert observed == CONTRACT[GENOME_NAMES[index]]
