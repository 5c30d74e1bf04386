"""DCQCN congestion-control tests: unit-level state machine + integration."""

import pytest

from repro.sim import Network
from repro.sim.cc import MIN_RATE, DcqcnState
from repro.topology import build_dumbbell
from repro.units import KB, gbps, msec, usec


class TestDcqcnState:
    def make(self, line=gbps(100)):
        return DcqcnState(line)

    def test_starts_at_line_rate(self):
        cc = self.make()
        assert cc.rate == cc.line_rate

    def test_cnp_decreases_rate(self):
        cc = self.make()
        assert cc.on_cnp(now=0)
        assert cc.rate < cc.line_rate

    def test_decrease_rate_limited_by_interval(self):
        cc = self.make()
        cc.on_cnp(now=0)
        rate = cc.rate
        assert not cc.on_cnp(now=1)  # within the decrease interval
        assert cc.rate == rate

    def test_second_decrease_after_interval(self):
        cc = self.make()
        cc.on_cnp(now=0)
        first = cc.rate
        assert cc.on_cnp(now=usec(100))
        assert cc.rate < first

    def test_rate_never_below_floor(self):
        cc = self.make()
        for i in range(200):
            cc.on_cnp(now=i * usec(100))
        assert cc.rate >= MIN_RATE

    def test_fast_recovery_moves_halfway_to_target(self):
        cc = self.make()
        cc.on_cnp(now=0)
        before = cc.rate
        cc.on_recovery_timer()
        assert before < cc.rate <= cc.target_rate

    def test_recovery_converges_to_line_rate(self):
        cc = self.make()
        cc.on_cnp(now=0)
        for _ in range(4000):
            cc.on_recovery_timer()
        assert cc.rate == pytest.approx(cc.line_rate, rel=0.01)

    def test_rate_capped_at_line_rate(self):
        cc = self.make()
        for _ in range(100):
            cc.on_recovery_timer()
        assert cc.rate <= cc.line_rate

    def test_alpha_rises_on_cnp(self):
        cc = self.make()
        cc.alpha = 0.1
        cc.on_cnp(now=0)
        assert cc.alpha > 0.1

    def test_alpha_decays_without_cnp(self):
        cc = self.make()
        cc.alpha = 1.0
        cc.on_alpha_timer()
        assert cc.alpha < 1.0

    def test_alpha_not_decayed_while_cnps_arrive(self):
        cc = self.make()
        cc.on_cnp(now=0)
        alpha = cc.alpha
        cc.on_alpha_timer()  # CNP seen since last update: no decay
        assert cc.alpha == alpha


class TestCcIntegration:
    def test_incast_triggers_cnps_and_rate_decrease(self):
        net = Network(build_dumbbell(hosts_per_side=4))
        flows = [
            net.make_flow(f"HL{j}", "HR0", 400 * KB, usec(1), src_port=10000 + j)
            for j in range(4)
        ]
        for f in flows:
            net.start_flow(f)
        net.run(usec(200))
        rates = [net.hosts[f.src_host].cc_state(f.key).rate for f in flows]
        assert any(r < gbps(100) for r in rates), "ECN/CNP must throttle senders"

    def test_disabled_cc_keeps_line_rate(self, monkeypatch):
        monkeypatch.setattr("repro.sim.host.DCQCN_ENABLED", False)
        net = Network(build_dumbbell(hosts_per_side=4))
        flows = [
            net.make_flow(f"HL{j}", "HR0", 400 * KB, usec(1), src_port=10000 + j)
            for j in range(4)
        ]
        for f in flows:
            net.start_flow(f)
        net.run(msec(2))
        rates = [net.hosts[f.src_host].cc_state(f.key).rate for f in flows]
        assert all(r == gbps(100) for r in rates)

    def test_fairness_under_sustained_incast(self):
        net = Network(build_dumbbell(hosts_per_side=2))
        f1 = net.make_flow("HL0", "HR0", 2_000 * KB, 0, src_port=1)
        f2 = net.make_flow("HL1", "HR0", 2_000 * KB, 0, src_port=2)
        net.start_flow(f1)
        net.start_flow(f2)
        net.run(msec(6))
        assert f1.completed and f2.completed
        # Long-term shares should be within 3x of each other.
        assert f1.fct() < 3 * f2.fct() and f2.fct() < 3 * f1.fct()
