"""The production queue replay against its two oracles (``reference.py``).

``repro.core.replay`` computes wait weights one way at every replay size:
prefix counts give exact integer wait counts, and the normalised rows and
columns are summed in the float order of the numpy kernel the recorded
verdicts came from.  Contracts:

- the replay order (``replay_queue``) is the numpy ``lexsort`` order,
  flow for flow;
- the weights equal the numpy kernel's bit for bit, including replays too
  small for the kernel ever to have run on them;
- the summation helpers equal numpy's ``sum`` bit for bit, past the
  128-value block where the pairwise sum recurses;
- against the packet-by-packet walk, weights agree to 1e-9 with the same
  signs, and end to end the walk reaches the same verdicts.  The *printed*
  verdict is byte-identical on the six seed-1 scenarios listed, but not in
  general: a weight on a ``.xx5`` boundary can print its last ``w=``
  digit differently (``fleet-incast-k8`` seed 1: 32.52 here, 32.53 with
  the walk).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core import contribution, replay_queue  # noqa: E402
from repro.core.replay import _column_sums, _pairwise_sum  # noqa: E402
from repro.sim import FlowKey  # noqa: E402
from repro.telemetry import FlowEntry  # noqa: E402
from tests.core import reference  # noqa: E402


def key(i):
    return FlowKey("10.0.0.1", "10.0.0.2", 1000 + i, 4791)


def entry(i, pkts, paused=0, qdepth_avg=0.0, port=1, paused_qdepth_avg=0.0):
    return FlowEntry(
        key=key(i),
        egress_port=port,
        pkt_count=pkts,
        paused_count=paused,
        qdepth_sum_pkts=int(qdepth_avg * pkts),
        byte_count=pkts * 1000,
        qdepth_paused_sum_pkts=int(paused_qdepth_avg * paused),
    )


counts_strategy = st.lists(
    st.integers(min_value=1, max_value=40), min_size=1, max_size=8
)

# One port's flows: packet count, paused share, average depths.  Up to 12
# flows of up to 120 packets covers replays on both sides of 64 packets
# and rows on both sides of the 8-value pairwise block.
flows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),  # packets
        st.floats(min_value=0.0, max_value=1.0),  # paused share
        st.integers(min_value=0, max_value=60),  # average depth
        st.integers(min_value=0, max_value=60),  # average paused depth
    ),
    min_size=1,
    max_size=12,
)


def _entries(flows):
    out = []
    for i, (pkts, share, depth, paused_depth) in enumerate(flows):
        paused = int(pkts * share)
        out.append(entry(i, pkts, paused, depth, paused_qdepth_avg=min(paused_depth, depth)))
    random.Random(len(flows)).shuffle(out)  # telemetry order is not key order
    return out


def _bits(weights):
    return {k: w.hex() for k, w in weights.items()}


class TestReplayOrder:
    @settings(max_examples=60, deadline=None)
    @given(counts=counts_strategy, window_ns=st.sampled_from([1, 100, 1000, 9999]))
    def test_matches_numpy_lexsort(self, counts, window_ns):
        """Same flow at every replay position as the numpy ordering."""
        entries = [entry(i, pkts=c) for i, c in enumerate(counts)]
        ordering = sorted(range(len(entries)), key=lambda i: entries[i].key)
        ids = reference.replay_ids([counts[i] for i in ordering], window_ns)
        want = [entries[ordering[f]].key for f in ids.tolist()]
        assert [k for _, k in replay_queue(entries, window_ns)] == want

    def test_preserves_within_flow_order_on_ties(self):
        # window 0: every synthetic time is 0, so flow order decides.
        assert reference.replay_ids([3, 2], 0).tolist() == [0, 0, 0, 1, 1]
        seq = replay_queue([entry(2, pkts=2), entry(1, pkts=3)], 0)
        assert [k for _, k in seq] == [key(1)] * 3 + [key(2)] * 2


class TestAgainstNumpyKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        flows=flows_strategy,
        window_ns=st.sampled_from([0, 1, 1000, 9999, 1 << 20]),
        exclude_paused=st.booleans(),
    )
    def test_bitwise_equal_at_every_size(self, flows, window_ns, exclude_paused):
        entries = _entries(flows)
        got = contribution(entries, window_ns, exclude_paused)
        want = reference.contribution_numpy(entries, window_ns, exclude_paused)
        assert list(got) == list(want)
        assert _bits(got) == _bits(want)

    def test_bitwise_equal_under_64_packets(self):
        """The size the numpy kernel never ran at still gets its floats."""
        entries = [
            entry(1, pkts=7, qdepth_avg=9.0),
            entry(2, pkts=13, qdepth_avg=11.0),
            entry(3, pkts=3, qdepth_avg=5.0),
        ]
        assert sum(e.pkt_count for e in entries) < 64
        got = contribution(entries, window_ns=1000)
        assert _bits(got) == _bits(reference.contribution_numpy(entries, 1000))

    @pytest.mark.parametrize("pkts", [(1,), (400,), (300, 300), (1, 250, 7, 90)])
    def test_bitwise_equal_when_every_packet_waits_on_the_whole_queue(self, pkts):
        """Depths past the queue length drive every wait count to its
        largest value, the top of each packed count field."""
        entries = [entry(i, n, qdepth_avg=10_000) for i, n in enumerate(pkts)]
        got = contribution(entries, window_ns=1000)
        assert _bits(got) == _bits(reference.contribution_numpy(entries, 1000))
        walk = reference.contribution_walk(entries, window_ns=1000)
        assert got == pytest.approx(walk, abs=1e-9)

    @pytest.mark.parametrize("name, seed", [
        ("incast-backpressure", 1), ("pfc-storm", 2), ("in-loop-deadlock", 1),
        ("normal-contention", 3), ("fleet-incast-k8", 1),
    ])
    def test_every_real_replay_of_a_run(self, name, seed, monkeypatch):
        """Every replay a scenario's diagnosis runs, numpy kernel beside."""
        import repro.core.build as build
        from repro.experiments import ScenarioSpec, run_scenario

        calls = []

        def spy(entries, window_ns, exclude_paused=True):
            got = contribution(entries, window_ns, exclude_paused)
            want = reference.contribution_numpy(entries, window_ns, exclude_paused)
            calls.append((sum(e.pkt_count for e in entries), _bits(got) == _bits(want)))
            return got

        monkeypatch.setattr(build, "contribution", spy)
        run_scenario(ScenarioSpec(name, seed=seed).build()).diagnosis()
        assert calls and all(same for _, same in calls)


class TestSummationHelpers:
    def test_pairwise_sum_is_numpy_sum(self):
        rng = random.Random(5)
        for n in range(1, 301):
            values = [rng.uniform(0, 50) / rng.randint(1, 97) for _ in range(n)]
            assert _pairwise_sum(values).hex() == float(np.sum(np.asarray(values))).hex()

    def test_row_and_column_sums_are_numpy_sums(self):
        rng = random.Random(6)
        for size in range(1, 41):
            rows = [
                [rng.randint(0, 500) / rng.randint(1, 97) for _ in range(size)]
                for _ in range(size)
            ]
            matrix = np.asarray(rows)
            assert [_pairwise_sum(row) for row in rows] == matrix.sum(axis=1).tolist()
            assert _column_sums(rows) == matrix.sum(axis=0).tolist()


class TestAgainstWalk:
    @settings(max_examples=60, deadline=None)
    @given(
        flows=flows_strategy,
        window_ns=st.sampled_from([1, 1000, 9999]),
        exclude_paused=st.booleans(),
    )
    def test_close_to_walk_with_the_same_signs(self, flows, window_ns, exclude_paused):
        entries = _entries(flows)
        got = contribution(entries, window_ns, exclude_paused)
        want = reference.contribution_walk(entries, window_ns, exclude_paused)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-9)
            if abs(want[k]) > 1e-12:
                assert (got[k] > 0) == (want[k] > 0)

    def test_contributor_and_victim_agree(self):
        entries = [
            entry(1, pkts=80, qdepth_avg=12.0),
            entry(2, pkts=6, qdepth_avg=12.0),
        ]
        got = contribution(entries, window_ns=1000)
        want = reference.contribution_walk(entries, window_ns=1000)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-9)
            assert (got[k] > 0) == (want[k] > 0)


ANOMALY_SCENARIOS = [
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "pfc-storm",
    "incast-backpressure",
    "lordma-attack",
    "normal-contention",
]


@pytest.mark.parametrize("name", ANOMALY_SCENARIOS)
def test_walk_and_production_diagnoses_byte_identical(name, monkeypatch):
    """End to end, per anomaly class: the walk and the production replay
    yield the same diagnosis strings and the same obs trace records."""
    import repro.core.build as build
    from repro.experiments import RunConfig, ScenarioSpec, run_scenario
    from repro.obs import ObsConfig

    def run():
        spec = ScenarioSpec(name, seed=1)
        result = run_scenario(
            spec.build(), RunConfig(obs=ObsConfig(trace=True))
        )
        diagnoses = [
            o.diagnosis.describe() if o.diagnosis is not None else None
            for o in result.outcomes
        ]
        return diagnoses, result.obs.tracer.records()

    production = run()
    monkeypatch.setattr(build, "contribution", reference.contribution_walk)
    assert run() == production


def test_walk_and_production_agree_where_a_printed_weight_differs(monkeypatch):
    """``fleet-incast-k8`` seed 1: the culprit's weight sits on a ``.xx5``
    boundary, so ``w=`` prints 32.52 here and 32.53 with the walk.  What
    the two do guarantee is the verdict itself: anomaly class, PFC path,
    culprit order, and weights equal to 1e-9."""
    import repro.core.build as build
    from repro.experiments import ScenarioSpec, run_scenario

    def findings():
        result = run_scenario(ScenarioSpec("fleet-incast-k8", seed=1).build())
        return [
            (f.anomaly, f.root_cause, f.initial_port, f.pfc_path, f.loop,
             f.injecting_source, f.culprit_keys(),
             [w for _, w in f.culprit_flows])
            for f in result.diagnosis().findings
        ]

    fast = findings()
    monkeypatch.setattr(build, "contribution", reference.contribution_walk)
    walk = findings()
    assert fast and len(fast) == len(walk)
    for (*fast_verdict, fast_w), (*walk_verdict, walk_w) in zip(fast, walk):
        assert fast_verdict == walk_verdict
        assert fast_w == pytest.approx(walk_w, abs=1e-9)
