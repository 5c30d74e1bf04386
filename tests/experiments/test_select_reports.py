"""Report selection against a sort-based oracle.

The oracle groups each switch's reports, stably sorts them by
``collect_time`` and takes the earliest report at/after the trigger, else
the latest one.  The collector's :class:`ReportIndex` keeps each switch's
reports in that order as they are delivered and bisects; ``select_reports``
builds one from a list.  Report streams are drawn with few distinct times,
so equal ``collect_time``s and out-of-order deliveries (what delayed and
skewed reports produce) are the common case, and triggers fall before the
first report, between reports and after the last.
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.collector import ReportIndex
from repro.experiments import RunConfig, select_reports
from repro.experiments.runner import FabricSession
from repro.faults import FaultPlan
from repro.telemetry import SwitchReport
from repro.units import usec
from repro.workloads import SCENARIO_BUILDERS


def sorted_select_reports(
    reports: List[SwitchReport], trigger_time: int
) -> Dict[str, SwitchReport]:
    by_switch: Dict[str, List[SwitchReport]] = {}
    for report in reports:
        by_switch.setdefault(report.switch, []).append(report)
    chosen: Dict[str, SwitchReport] = {}
    for switch, candidates in by_switch.items():
        candidates.sort(key=lambda r: r.collect_time)
        after = [r for r in candidates if r.collect_time >= trigger_time]
        chosen[switch] = after[0] if after else candidates[-1]
    return chosen


report_streams = st.lists(
    st.tuples(st.sampled_from(["S0", "S1", "S2"]), st.integers(0, 12)),
    max_size=40,
)
triggers = st.integers(-2, 14).map(lambda t: t * 100 + 50 * (t % 2))


def build(stream):
    return [SwitchReport(switch, time * 100) for switch, time in stream]


def assert_same_choice(reports, trigger_time, got=None):
    if got is None:
        got = select_reports(reports, trigger_time)
    want = sorted_select_reports(reports, trigger_time)
    assert list(got) == list(want)  # switch order: first appearance
    for switch, report in want.items():
        assert got[switch] is report  # the same object among equal times


@settings(max_examples=400, deadline=None)
@given(report_streams, triggers)
def test_the_index_matches_the_sorted_selection(stream, trigger_time):
    assert_same_choice(build(stream), trigger_time)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["S0", "S1", "S2"]),
            st.integers(0, 12),  # read instant, in 100 ns steps
            st.integers(0, 6),  # delivery delay
            st.sampled_from([(), ("stale",), ("truncated",), ("skewed",)]),
        ),
        max_size=40,
    ),
    st.dictionaries(st.sampled_from(["S0", "S1", "S2"]), st.integers(-3, 3)),
    st.lists(triggers, min_size=1, max_size=6),
)
def test_an_index_fed_in_delivery_order_matches_the_oracle(
    reads, skew, trigger_times
):
    """Reports reach the analyzer in delivery order: a delayed one after
    reports collected later, a skewed one stamped off its read instant.
    The index, fed one delivery at a time as the collector feeds it,
    selects what the oracle selects over the delivered list, at every
    point of the stream."""
    reports = []
    for switch, read, delay, faults in reads:
        stamp = max(0, read + skew.get(switch, 0)) * 100
        reports.append((read + delay, SwitchReport(switch, stamp, faults=faults)))
    delivered = [r for _, r in sorted(reports, key=lambda pair: pair[0])]
    index = ReportIndex()
    for n, report in enumerate(delivered, 1):
        index.add(report)
        for trigger_time in trigger_times:
            assert_same_choice(
                delivered[:n], trigger_time, got=index.select(trigger_time)
            )


def test_a_faulty_run_indexes_what_it_delivered():
    """Delayed, skewed, stale and truncated reports from a real collector:
    its index selects what the oracle selects over ``collector.reports``."""
    plan = FaultPlan(
        seed=3, report_delay_rate=0.3, report_truncate_rate=0.2,
        dma_stale_rate=0.2, clock_skew_max_ns=usec(50),
    )
    session = FabricSession(
        SCENARIO_BUILDERS["pfc-storm"](seed=1), RunConfig(faults=plan)
    )
    session.advance(session.duration_ns)
    session.finalize()
    collector = session.collector
    reports = collector.reports
    faults = {fault for r in reports for fault in r.faults}
    assert {"stale", "truncated", "skewed"} <= faults
    assert any(i.kind == "report_delayed" for i in session.injector.incidents)
    times = sorted({r.collect_time for r in reports})
    for trigger_time in [-1, *times, times[-1] + 1] + [t + 1 for t in times]:
        assert_same_choice(
            reports, trigger_time, got=collector.index.select(trigger_time)
        )


def test_empty_input():
    assert select_reports([], 500) == {}


def test_ties_resolve_like_a_stable_sort():
    a, b, c, d = (SwitchReport("SW", t) for t in (500, 500, 300, 300))
    reports = [a, b, c, d]
    # Earliest at/after the trigger: the first of the equal times.
    assert select_reports(reports, 400)["SW"] is a
    assert select_reports(reports, 300)["SW"] is c
    # Latest overall: the last of the equal times.
    assert select_reports(reports, 10**6)["SW"] is b
    assert select_reports([c, d], 400)["SW"] is d
    for trigger in (0, 300, 400, 500, 600):
        assert_same_choice(reports, trigger)


def test_triggers_before_the_first_and_after_the_last_report():
    reports = build([("S0", 9), ("S1", 3), ("S0", 1), ("S1", 7), ("S0", 5)])
    for trigger in (-10**6, 0, 100, 900, 901, 10**9):
        assert_same_choice(reports, trigger)
