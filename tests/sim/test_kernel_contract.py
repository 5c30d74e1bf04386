"""The simulator kernel's event-sequence contract, pinned in tier-1.

For the seven ``paper_mix`` builders at seed 1, run through
``run_scenario``, this file pins the verdict text, ``events_run``, the
full ``Simulator.counters()`` dict and the fabric-wide switch counters.
Every literal below was recorded on the commit *before* the per-hop
host-speed pass (ISSUE 13) touched ``repro.sim``; the same values sit
inside the ``bench/golden.json`` digests, but ``bench/tests`` is not
tier-1, so until now only the benchmark would notice a reordered event.

A PR that makes the simulator *faster on the host* must never edit these
literals: no event may be added, removed, merged or reordered by such a
change.  Only a PR that deliberately changes what is simulated (a model
fix, a new default) may re-record them, and must say so.
"""

import pytest

from repro.experiments import run_scenario
from repro.workloads import SCENARIO_BUILDERS

SWITCH_COUNTERS = ("data_pkts", "pause_sent", "resume_sent", "ecn_marked", "tx_pkts")

CONTRACT = {
    "incast-backpressure": {
        "describe": (
            "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
            "  [1] pfc-backpressure-flow-contention (root cause: "
            "flow-contention); initial congestion at E0_0.P3; PFC path: "
            "E0_1.P1 -> A0_0.P1 -> E0_0.P3; culprits: "
            "10.2.0.2:11004->10.0.0.2:4791/17 (w=21.33), "
            "10.2.0.3:11005->10.0.0.2:4791/17 (w=17.35), "
            "10.1.1.2:11002->10.0.0.2:4791/17 (w=14.54)"
        ),
        "events_run": 87860,
        "counters": {
            "events_run": 87860,
            "events_purged": 26,
            "compactions": 2,
            "pending_entries": 1,
            "max_pending_entries": 601,
        },
        "switch_sums": {
            "data_pkts": 27000,
            "pause_sent": 231,
            "resume_sent": 119,
            "ecn_marked": 3989,
            "tx_pkts": 34011,
        },
    },
    "pfc-storm": {
        "describe": (
            "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
            "  [1] pfc-storm (root cause: host-pfc-injection); initial "
            "congestion at E0_0.P3; PFC path: E0_1.P1 -> A0_0.P1 -> E0_0.P3; "
            "injector: H0_0_0"
        ),
        "events_run": 62650,
        "counters": {
            "events_run": 62650,
            "events_purged": 22,
            "compactions": 1,
            "pending_entries": 1,
            "max_pending_entries": 346,
        },
        "switch_sums": {
            "data_pkts": 18000,
            "pause_sent": 1160,
            "resume_sent": 104,
            "ecn_marked": 347,
            "tx_pkts": 22698,
        },
    },
    "contention-masked-storm": {
        "describe": (
            "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
            "  [1] contention-masked-pfc-storm (root cause: "
            "host-pfc-injection); initial congestion at E0_0.P3; PFC path: "
            "E0_1.P1 -> A0_0.P1 -> E0_0.P3; culprits: "
            "10.2.0.2:11003->10.0.0.2:4791/17 (w=33.16), "
            "10.1.0.2:11000->10.0.0.2:4791/17 (w=18.59); injector: H0_0_0"
        ),
        "events_run": 64756,
        "counters": {
            "events_run": 64756,
            "events_purged": 17,
            "compactions": 1,
            "pending_entries": 1,
            "max_pending_entries": 613,
        },
        "switch_sums": {
            "data_pkts": 18500,
            "pause_sent": 2087,
            "resume_sent": 71,
            "ecn_marked": 1670,
            "tx_pkts": 23323,
        },
    },
    "in-loop-deadlock": {
        "describe": (
            "Diagnosis for victim 10.2.0.2:13001->10.4.0.2:4791/17:\n"
            "  [1] in-loop-deadlock (root cause: flow-contention); initial "
            "congestion at SW2.P2; loop: SW2.P2 -> SW3.P2 -> SW4.P2 -> SW1.P1; "
            "PFC path: SW2.P2 -> SW3.P2 -> SW4.P2 -> SW1.P1; culprits: "
            "10.1.0.2:13000->10.3.0.2:4791/17 (w=29.47)"
        ),
        "events_run": 41138,
        "counters": {
            "events_run": 41138,
            "events_purged": 376,
            "compactions": 1,
            "pending_entries": 71,
            "max_pending_entries": 326,
        },
        "switch_sums": {
            "data_pkts": 7814,
            "pause_sent": 5071,
            "resume_sent": 43,
            "ecn_marked": 35,
            "tx_pkts": 9743,
        },
    },
    "out-of-loop-deadlock": {
        "describe": (
            "Diagnosis for victim 10.1.0.2:13000->10.3.0.2:4791/17:\n"
            "  [1] out-of-loop-deadlock-injection (root cause: "
            "host-pfc-injection); initial congestion at SW2.P4; loop: SW1.P1 "
            "-> SW2.P2 -> SW3.P2 -> SW4.P2; PFC path: SW1.P1 -> SW2.P2 -> "
            "SW3.P2 -> SW4.P2 -> SW2.P4; injector: H2_1\n"
            "  [2] pfc-storm (root cause: host-pfc-injection); initial "
            "congestion at SW2.P4; PFC path: SW1.P1 -> SW2.P4; injector: H2_1"
        ),
        "events_run": 15160,
        "counters": {
            "events_run": 15160,
            "events_purged": 140,
            "compactions": 0,
            "pending_entries": 27,
            "max_pending_entries": 227,
        },
        "switch_sums": {
            "data_pkts": 3298,
            "pause_sent": 990,
            "resume_sent": 8,
            "ecn_marked": 0,
            "tx_pkts": 3855,
        },
    },
    "normal-contention": {
        "describe": (
            "Diagnosis for victim 10.3.0.2:12000->10.0.0.2:4791/17:\n"
            "  [1] normal-flow-contention (root cause: flow-contention); "
            "initial congestion at E0_0.P3; culprits: "
            "10.2.0.3:11005->10.0.0.2:4791/17 (w=360.87), "
            "10.1.1.2:11001->10.0.0.2:4791/17 (w=26.04)"
        ),
        "events_run": 78617,
        "counters": {
            "events_run": 78617,
            "events_purged": 0,
            "compactions": 2,
            "pending_entries": 1,
            "max_pending_entries": 723,
        },
        "switch_sums": {
            "data_pkts": 26000,
            "pause_sent": 0,
            "resume_sent": 0,
            "ecn_marked": 2102,
            "tx_pkts": 32703,
        },
    },
    "lordma-attack": {
        "describe": (
            "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
            "  [1] pfc-backpressure-flow-contention (root cause: "
            "flow-contention); initial congestion at E0_0.P3; PFC path: "
            "E0_1.P1 -> A0_0.P1 -> E0_0.P3; culprits: "
            "10.1.0.2:11000->10.0.0.2:4791/17 (w=44.55), "
            "10.1.0.3:11004->10.0.0.2:4791/17 (w=43.52), "
            "10.2.1.2:11003->10.0.0.2:4791/17 (w=30.43), "
            "10.1.1.2:11001->10.0.0.2:4791/17 (w=28.61)"
        ),
        "events_run": 253491,
        "counters": {
            "events_run": 253491,
            "events_purged": 25,
            "compactions": 7,
            "pending_entries": 1,
            "max_pending_entries": 781,
        },
        "switch_sums": {
            "data_pkts": 81000,
            "pause_sent": 394,
            "resume_sent": 237,
            "ecn_marked": 8209,
            "tx_pkts": 102051,
        },
    },
}

@pytest.mark.parametrize("name", list(CONTRACT))
def test_builder_reproduces_recorded_event_sequence(name):
    expected = CONTRACT[name]
    scenario = SCENARIO_BUILDERS[name](seed=1)
    result = run_scenario(scenario)
    switches = scenario.network.switches.values()
    assert {
        "describe": result.diagnosis().describe(),
        "events_run": result.events_run,
        "counters": scenario.network.sim.counters(),
        "switch_sums": {
            counter: sum(getattr(sw.stats, counter) for sw in switches)
            for counter in SWITCH_COUNTERS
        },
    } == expected
