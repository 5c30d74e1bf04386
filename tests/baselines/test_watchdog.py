"""PFC watchdog baseline tests: the §2.3 transient-blindness claim."""

import pytest

from repro.baselines import PfcWatchdog, WatchdogConfig
from repro.obs import SimTraceObserver, Tracer
from repro.sim import Network
from repro.topology import build_line
from repro.units import KB, msec, usec


def stormy_line(storm_ns, duration_ns, watchdog_interval_ns):
    """A line fabric with a PFC storm of the given duration, observed by
    both the watchdog (sampled) and the tracer (ground truth)."""
    net = Network(build_line(num_switches=3, hosts_per_switch=2))
    tracer = SimTraceObserver(Tracer())
    net.add_switch_observer(tracer)
    watchdog = PfcWatchdog(net, WatchdogConfig(poll_interval_ns=watchdog_interval_ns))
    watchdog.start()
    net.start_flow(net.make_flow("H1_0", "H3_0", 3_000 * KB, usec(1), src_port=1))
    net.sim.schedule(usec(50), lambda: net.hosts["H3_0"].start_pfc_injection(storm_ns))
    net.run(duration_ns)
    tracer.finish(net.sim.now)
    return net, tracer, watchdog


class TestWatchdogMechanics:
    def test_polls_on_schedule(self, tiny_net):
        watchdog = PfcWatchdog(tiny_net, WatchdogConfig(poll_interval_ns=usec(100)))
        watchdog.start()
        tiny_net.run(msec(1))
        assert watchdog.polls == 10

    def test_stop_halts_polling(self, tiny_net):
        watchdog = PfcWatchdog(tiny_net, WatchdogConfig(poll_interval_ns=usec(100)))
        watchdog.start()
        tiny_net.run(usec(500))
        watchdog.stop()
        tiny_net.run(msec(2))
        assert watchdog.polls == 5

    def test_start_idempotent(self, tiny_net):
        watchdog = PfcWatchdog(tiny_net, WatchdogConfig(poll_interval_ns=usec(100)))
        watchdog.start()
        watchdog.start()
        tiny_net.run(usec(500))
        assert watchdog.polls == 5

    def test_no_pauses_no_observations(self, tiny_net):
        watchdog = PfcWatchdog(tiny_net, WatchdogConfig(poll_interval_ns=usec(100)))
        watchdog.start()
        tiny_net.start_flow(tiny_net.make_flow("A", "B", 20 * KB, usec(1)))
        tiny_net.run(msec(1))
        assert watchdog.observations == []


class TestTransientBlindness:
    """§2.3: coarse polling catches long storms but misses transient PFC."""

    def test_long_storm_detected(self):
        net, tracer, watchdog = stormy_line(
            storm_ns=msec(3), duration_ns=msec(4), watchdog_interval_ns=msec(1)
        )
        storm_port = net.topology.attachment_of("H3_0")
        assert storm_port in watchdog.paused_ports_seen()

    def test_transient_pause_missed_at_industrial_period(self):
        # A 300 us episode against a 1 ms poll that first fires at t=1 ms.
        net, tracer, watchdog = stormy_line(
            storm_ns=usec(300), duration_ns=msec(4), watchdog_interval_ns=msec(1)
        )
        storm_port = net.topology.attachment_of("H3_0")
        intervals = tracer.pause_spans(storm_port)
        assert intervals, "the tracer must see the transient episode"
        assert not watchdog.detected_episode(intervals, storm_port)

    def test_coverage_improves_with_faster_polling(self):
        def coverage(interval_ns):
            net, tracer, watchdog = stormy_line(
                storm_ns=usec(300), duration_ns=msec(4), watchdog_interval_ns=interval_ns
            )
            truth = {}
            for name, sw in net.switches.items():
                for port_no in sw.ports:
                    from repro.topology import PortRef

                    ref = PortRef(name, port_no)
                    spans = tracer.pause_spans(ref)
                    if spans:
                        truth[ref] = spans
            return watchdog.coverage_against(truth)

        assert coverage(usec(50)) >= coverage(msec(1))

    def test_coverage_trivially_perfect_without_episodes(self, tiny_net):
        watchdog = PfcWatchdog(tiny_net)
        assert watchdog.coverage_against({}) == 1.0
