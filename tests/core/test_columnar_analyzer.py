"""Columnar analysis-plane kernels vs the authoritative scalar path.

``repro.core.columnar`` rebuilds the queue replay over flat int64
columns.  Three contracts pin it down:

- the vectorized replay ordering (``replay_ids``) reproduces the scalar
  ``replay_queue`` merge *exactly* — same flow at every position;
- against the pure-Python reference walk, the integer wait counts are
  the same but the float normalisation sums in another order, so weights
  agree to 1e-9 and the *signs* that drive verdicts agree exactly;
- end to end (the scenario differential below) the two paths reach the
  same anomaly class, PFC path and culprit order with weights equal to
  1e-9.  The *printed* verdict is byte-identical on the six seed-1
  scenarios listed, but not in general: a weight that sits exactly on a
  ``.xx5`` boundary can print its last ``w=`` digit differently
  (``fleet-incast-k8`` seed 1: 32.52 columnar, 32.53 scalar).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar, contribution, replay_queue
from repro.core.replay import _wait_weights_python
from repro.sim import FlowKey
from repro.telemetry import FlowEntry

pytestmark = pytest.mark.skipif(
    not columnar.HAVE_NUMPY, reason="columnar path needs numpy"
)


def key(i):
    return FlowKey("10.0.0.1", "10.0.0.2", 1000 + i, 4791)


def entry(i, pkts, paused=0, qdepth_avg=0.0, port=1):
    return FlowEntry(
        key=key(i),
        egress_port=port,
        pkt_count=pkts,
        paused_count=paused,
        qdepth_sum_pkts=int(qdepth_avg * pkts),
        byte_count=pkts * 1000,
    )


counts_strategy = st.lists(
    st.integers(min_value=1, max_value=40), min_size=1, max_size=8
)


class TestReplayIds:
    @settings(max_examples=60, deadline=None)
    @given(counts=counts_strategy, window_ns=st.sampled_from([1, 100, 1000, 9999]))
    def test_matches_scalar_replay_queue(self, counts, window_ns):
        """Same flow at every replay position as the scalar merge."""
        entries = [entry(i, pkts=c) for i, c in enumerate(counts)]
        scalar = replay_queue(entries, window_ns)
        ordering = sorted(range(len(entries)), key=lambda i: entries[i].key)
        ids = columnar.replay_ids([counts[i] for i in ordering], window_ns)
        vector_keys = [entries[ordering[f]].key for f in ids.tolist()]
        assert vector_keys == [k for _, k in scalar]

    def test_preserves_within_flow_order_on_ties(self):
        # window 0: every synthetic time is 0, so order + stability decide.
        ids = columnar.replay_ids([3, 2], 0)
        assert ids.tolist() == [0, 0, 0, 1, 1]


class TestWaitWeights:
    @settings(max_examples=40, deadline=None)
    @given(
        counts=counts_strategy,
        depths=st.lists(st.integers(min_value=0, max_value=30), min_size=8, max_size=8),
    )
    def test_close_to_scalar_reference_walk(self, counts, depths):
        entries = [
            entry(i, pkts=c, qdepth_avg=depths[i]) for i, c in enumerate(counts)
        ]
        cnt = {e.key: e.pkt_count for e in entries}
        depth = {e.key: int(round(e.avg_qdepth_pkts())) for e in entries}
        pkt_num = dict(cnt)
        sequence = replay_queue(entries, 1000, counts=cnt)
        ref_in, ref_out = _wait_weights_python(entries, sequence, depth, pkt_num)
        col_in, col_out = columnar.wait_weights_columnar(
            entries, cnt, depth, pkt_num, 1000
        )
        for k in ref_in:
            assert col_in[k] == pytest.approx(ref_in[k], abs=1e-9)
            assert col_out[k] == pytest.approx(ref_out[k], abs=1e-9)


class TestGating:
    def test_small_replays_stay_scalar(self):
        assert not columnar.columnar_enabled(columnar.MIN_COLUMNAR_PACKETS - 1)
        assert columnar.columnar_enabled(columnar.MIN_COLUMNAR_PACKETS)

    def test_force_scalar_disables_and_restores(self):
        assert columnar.columnar_enabled(10_000)
        with columnar.force_scalar():
            assert not columnar.columnar_enabled(10_000)
        assert columnar.columnar_enabled(10_000)

    def test_contribution_identical_verdict_both_paths(self):
        """Signs (contributor vs victim) agree between the two paths on a
        replay big enough to take the columnar branch."""
        entries = [
            entry(1, pkts=80, qdepth_avg=12.0),
            entry(2, pkts=6, qdepth_avg=12.0),
        ]
        fast = contribution(entries, window_ns=1000)
        with columnar.force_scalar():
            slow = contribution(entries, window_ns=1000)
        assert fast.keys() == slow.keys()
        for k in fast:
            assert fast[k] == pytest.approx(slow[k], abs=1e-9)
            assert (fast[k] > 0) == (slow[k] > 0)

    def test_no_numpy_env_gates_module_off(self):
        """REPRO_NO_NUMPY=1 must leave the module importable with the
        columnar path disabled (the CI scalar-fallback leg)."""
        code = (
            "from repro.core import columnar, contribution;"
            "from repro.telemetry import FlowEntry;"
            "from repro.sim import FlowKey;"
            "assert not columnar.HAVE_NUMPY;"
            "assert not columnar.columnar_enabled(10**6);"
            "e = FlowEntry(key=FlowKey('a','b',1,2), egress_port=1,"
            "              pkt_count=100, qdepth_sum_pkts=500, byte_count=1);"
            "out = contribution([e], window_ns=1000);"
            "assert out[e.key] == 0.0"
        )
        env = dict(os.environ, REPRO_NO_NUMPY="1")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=env, timeout=120
        )


ANOMALY_SCENARIOS = [
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "pfc-storm",
    "incast-backpressure",
    "lordma-attack",
    "normal-contention",
]


@pytest.mark.parametrize("name", ANOMALY_SCENARIOS)
def test_scalar_and_columnar_diagnoses_byte_identical(name):
    """End to end, per anomaly class: the scalar fallback and the columnar
    production path yield the same diagnosis strings and the same
    canonical obs trace.  (With test_sharded_determinism pinning sharded
    == single-process, this transitively pins sharded == scalar too.)"""
    from repro.experiments import RunConfig, ScenarioSpec, run_scenario
    from repro.obs import ObsConfig, canonical_jsonl

    def run():
        spec = ScenarioSpec(name, seed=1)
        result = run_scenario(
            spec.build(), RunConfig(obs=ObsConfig(trace=True, sink="ring"))
        )
        diagnoses = [
            o.diagnosis.describe() if o.diagnosis is not None else None
            for o in result.outcomes
        ]
        return diagnoses, canonical_jsonl(result.obs.tracer.records())

    with columnar.force_scalar():
        scalar_diag, scalar_trace = run()
    columnar_diag, columnar_trace = run()
    assert columnar_diag == scalar_diag
    assert columnar_trace == scalar_trace


def test_scalar_and_columnar_agree_where_a_printed_weight_differs():
    """``fleet-incast-k8`` seed 1: the culprit's weight sits on a ``.xx5``
    boundary, so ``w=`` prints 32.52 columnar and 32.53 scalar.  What the
    two paths do guarantee is the verdict itself: anomaly class, PFC path,
    culprit order, and weights equal to 1e-9."""
    from repro.experiments import ScenarioSpec, run_scenario

    def findings():
        result = run_scenario(ScenarioSpec("fleet-incast-k8", seed=1).build())
        return [
            (f.anomaly, f.root_cause, f.initial_port, f.pfc_path, f.loop,
             f.injecting_source, f.culprit_keys(),
             [w for _, w in f.culprit_flows])
            for f in result.diagnosis().findings
        ]

    with columnar.force_scalar():
        scalar = findings()
    fast = findings()
    assert fast and len(fast) == len(scalar)
    for (*fast_verdict, fast_w), (*scalar_verdict, scalar_w) in zip(fast, scalar):
        assert fast_verdict == scalar_verdict
        assert fast_w == pytest.approx(scalar_w, abs=1e-9)
