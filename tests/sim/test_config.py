"""SimConfig component tests: ECN curve, PFC validation, DCQCN defaults."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import EcnConfig, PfcConfig, SimConfig
from repro.sim.cc import ADDITIVE_INCREASE
from repro.units import KB


class TestEcnCurve:
    def test_no_marking_below_kmin(self):
        ecn = EcnConfig(kmin_bytes=40 * KB, kmax_bytes=160 * KB)
        assert ecn.mark_probability(0) == 0.0
        assert ecn.mark_probability(40 * KB) == 0.0

    def test_certain_marking_above_kmax(self):
        ecn = EcnConfig(kmin_bytes=40 * KB, kmax_bytes=160 * KB)
        assert ecn.mark_probability(160 * KB) == 1.0
        assert ecn.mark_probability(10**9) == 1.0

    def test_linear_ramp_between(self, monkeypatch):
        monkeypatch.setattr("repro.sim.config.ECN_PMAX", 0.5)
        ecn = EcnConfig(kmin_bytes=0, kmax_bytes=100)
        assert ecn.mark_probability(50) == pytest.approx(0.25)

    @given(st.integers(min_value=0, max_value=10**7))
    def test_probability_always_valid(self, q):
        ecn = EcnConfig()
        assert 0.0 <= ecn.mark_probability(q) <= 1.0

    @given(st.integers(min_value=0, max_value=10**6))
    def test_monotone_in_queue(self, q):
        ecn = EcnConfig()
        assert ecn.mark_probability(q) <= ecn.mark_probability(q + 1000)


class TestPfcConfigValidation:
    def test_valid_thresholds(self):
        cfg = PfcConfig(xoff_bytes=40 * KB, xon_bytes=20 * KB)
        assert cfg.xoff_bytes > cfg.xon_bytes

    def test_equal_thresholds_rejected(self):
        with pytest.raises(ValueError):
            PfcConfig(xoff_bytes=20 * KB, xon_bytes=20 * KB)

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            PfcConfig(xoff_bytes=10 * KB, xon_bytes=20 * KB)


class TestDefaults:
    def test_sim_config_composition(self):
        cfg = SimConfig()
        assert cfg.pfc.xoff_bytes > cfg.pfc.xon_bytes
        assert cfg.ecn.kmin_bytes < cfg.ecn.kmax_bytes

    def test_independent_instances(self):
        a, b = SimConfig(), SimConfig()
        a.pfc.xoff_bytes = 999
        assert b.pfc.xoff_bytes != 999

    def test_dcqcn_additive_increase_is_40_mbps(self):
        # 40 Mbps in bytes/s: the value every run has simulated.
        assert ADDITIVE_INCREASE == 5_000_000
