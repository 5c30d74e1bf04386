"""PFC physics invariants, checked by a read-only observer on real runs.

A :class:`PhysicsLedger` rides on every switch of a scenario through the
public :class:`SwitchObserver` hooks and, at the end of the run, reads
the switches' queues and ingress counters.  It checks what lossless
Ethernet with 802.1Qbb promises, independently of what the simulator
reports about itself:

- no lossless data is lost: per switch, packets and bytes enqueued equal
  those dequeued plus those still queued, and every ingress counter
  equals the bytes of the queued data that entered through that port;
- a switch sends the first PAUSE for an ingress only above Xoff, keeps
  refreshing it only at or above Xon, and sends RESUME only below Xon;
- no data frame leaves an egress while that egress priority is paused;
- data frames leave each (switch, egress) in strictly increasing ``seq``
  per flow.

It runs on the seven K=4 builders at seed 1, ``fleet-incast-k8`` at seed
1 and every ``scenarios/`` corpus entry.  Attaching it must change
nothing: the builders' verdict text, ``events_run`` and
``Simulator.counters()`` match the literals pinned in the kernel-contract
files, and each corpus entry matches an unobserved run of itself.
"""

from pathlib import Path

import pytest

from repro.experiments import run_scenario
from repro.fuzz import load_corpus
from repro.fuzz.coverage import observe
from repro.fuzz.engine import FuzzConfig
from repro.sim import PacketType, SwitchObserver
from repro.sim.packet import DATA_PRIORITY
from repro.workloads import SCENARIO_BUILDERS
from tests.sim.test_kernel_contract import CONTRACT as K4_CONTRACT
from tests.sim.test_kernel_contract_wide import CONTRACT as WIDE_CONTRACT

CORPUS = load_corpus(str(Path(__file__).resolve().parents[2] / "scenarios"))


class PhysicsLedger(SwitchObserver):
    """Records invariant violations; never writes to the switch."""

    def __init__(self):
        self.violations = []
        self.enqueued = {}  # switch -> [pkts, bytes]
        self.dequeued = {}  # switch -> [pkts, bytes]
        self.pausing = set()  # (switch, ingress port) with a PAUSE asserted
        self.last_seq = {}  # (switch, egress, flow) -> last data seq out
        self.pauses_sent = 0
        self.data_dequeues = 0

    def _fail(self, what):
        if len(self.violations) < 20:
            self.violations.append(what)

    def on_egress_enqueue(self, sw, t, pkt, eport, iport, qd, qb, paused):
        tally = self.enqueued.setdefault(sw.name, [0, 0])
        tally[0] += 1
        tally[1] += pkt.size

    def on_egress_dequeue(self, sw, t, pkt, eport):
        tally = self.dequeued.setdefault(sw.name, [0, 0])
        tally[0] += 1
        tally[1] += pkt.size
        if pkt.ptype is not PacketType.DATA:
            return
        self.data_dequeues += 1
        if sw.egress_paused(eport, pkt.priority):
            self._fail(f"{t}: {sw.name}.P{eport} sent data while paused")
        key = (sw.name, eport, pkt.flow)
        last = self.last_seq.get(key)
        if last is not None and pkt.seq <= last:
            self._fail(f"{t}: {key} seq {pkt.seq} after {last}")
        self.last_seq[key] = pkt.seq

    def on_pfc_sent(self, sw, t, port, priority, quanta):
        occupancy = sw.ingress_occupancy(port, priority)
        pfc = sw.config.pfc
        key = (sw.name, port)
        if quanta > 0:
            self.pauses_sent += 1
            if key not in self.pausing:
                if not occupancy > pfc.xoff_bytes:
                    self._fail(f"{t}: first PAUSE at {key} with {occupancy} B")
                self.pausing.add(key)
            elif not occupancy >= pfc.xon_bytes:
                self._fail(f"{t}: PAUSE refresh at {key} with {occupancy} B")
        else:
            if key not in self.pausing:
                self._fail(f"{t}: RESUME at {key} with no PAUSE asserted")
            if not occupancy < pfc.xon_bytes:
                self._fail(f"{t}: RESUME at {key} with {occupancy} B")
            self.pausing.discard(key)

    def check_end_of_run(self, network):
        """Conservation per switch, against what is still queued."""
        for sw in network.switches.values():
            queued_pkts = queued_bytes = 0
            ingress = {}
            for port in sw.ports.values():
                for queue in port.queues.values():
                    queued_pkts += len(queue.pkts)
                    queued_bytes += queue.bytes
                    for pkt in queue.pkts:
                        if pkt.priority == DATA_PRIORITY and pkt.ingress_port is not None:
                            ingress[pkt.ingress_port] = (
                                ingress.get(pkt.ingress_port, 0) + pkt.size
                            )
            enq = self.enqueued.get(sw.name, [0, 0])
            deq = self.dequeued.get(sw.name, [0, 0])
            if enq != [deq[0] + queued_pkts, deq[1] + queued_bytes]:
                self._fail(
                    f"{sw.name}: enqueued {enq} != dequeued {deq} + "
                    f"queued [{queued_pkts}, {queued_bytes}]"
                )
            for port in sw.ports:
                if sw.ingress_occupancy(port) != ingress.get(port, 0):
                    self._fail(
                        f"{sw.name}.P{port}: ingress counter "
                        f"{sw.ingress_occupancy(port)} B != queued "
                        f"{ingress.get(port, 0)} B"
                    )


def _observed_run(scenario, config=None):
    ledger = PhysicsLedger()
    scenario.network.add_switch_observer(ledger)
    result = run_scenario(scenario, config)
    ledger.check_end_of_run(scenario.network)
    return ledger, result


def _fingerprint(scenario, result):
    diagnosis = result.diagnosis()
    return {
        "describe": diagnosis.describe() if diagnosis is not None else None,
        "events_run": result.events_run,
        "counters": scenario.network.sim.counters(),
    }


def _pinned(contract):
    return {key: contract[key] for key in ("describe", "events_run", "counters")}


BUILDERS = list(K4_CONTRACT) + ["fleet-incast-k8"]


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_obeys_pfc_physics(name):
    scenario = SCENARIO_BUILDERS[name](seed=1)
    ledger, result = _observed_run(scenario)
    assert ledger.violations == []
    assert ledger.data_dequeues > 0
    pinned = K4_CONTRACT.get(name) or WIDE_CONTRACT[name]
    assert _fingerprint(scenario, result) == _pinned(pinned)
    # The pinned PAUSE count is what the ledger saw sent.
    assert ledger.pauses_sent == pinned["switch_sums"]["pause_sent"]


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_corpus_entry_obeys_pfc_physics(entry):
    config = FuzzConfig().run_config()
    plain = entry.genome.build()
    expected = _fingerprint(plain, run_scenario(plain, config))
    scenario = entry.genome.build()
    ledger, result = _observed_run(scenario, config)
    assert ledger.violations == []
    assert _fingerprint(scenario, result) == expected
    assert observe(result).fingerprint() == entry.fingerprint
