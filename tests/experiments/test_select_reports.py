"""``select_reports`` against the sort-based selection it replaced.

The oracle groups each switch's reports, stably sorts them by
``collect_time`` and picks from the sorted list; the runner does the same
in one pass.  Report streams are drawn with few distinct times, so equal
``collect_time``s and out-of-order deliveries (what delayed and skewed
reports produce) are the common case, and triggers fall before the first
report, between reports and after the last.
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import select_reports
from repro.telemetry import SwitchReport


def sorted_select_reports(
    reports: List[SwitchReport], trigger_time: int, slack_ns: int
) -> Dict[str, SwitchReport]:
    by_switch: Dict[str, List[SwitchReport]] = {}
    for report in reports:
        by_switch.setdefault(report.switch, []).append(report)
    chosen: Dict[str, SwitchReport] = {}
    for switch, candidates in by_switch.items():
        candidates.sort(key=lambda r: r.collect_time)
        after = [r for r in candidates if r.collect_time >= trigger_time]
        near = [
            r for r in candidates if trigger_time - slack_ns <= r.collect_time < trigger_time
        ]
        if after:
            chosen[switch] = after[0]
        elif near:
            chosen[switch] = near[-1]
        else:
            chosen[switch] = candidates[-1]
    return chosen


report_streams = st.lists(
    st.tuples(st.sampled_from(["S0", "S1", "S2"]), st.integers(0, 12)),
    max_size=40,
)


def build(stream):
    return [SwitchReport(switch, time * 100) for switch, time in stream]


def assert_same_choice(reports, trigger_time, slack_ns):
    got = select_reports(reports, trigger_time, slack_ns)
    want = sorted_select_reports(reports, trigger_time, slack_ns)
    assert list(got) == list(want)  # switch order: first appearance
    for switch, report in want.items():
        assert got[switch] is report  # the same object among equal times


@settings(max_examples=400, deadline=None)
@given(
    report_streams,
    st.integers(-2, 14).map(lambda t: t * 100 + 50 * (t % 2)),
    st.sampled_from([0, 100, 200, 350, 2000]),
)
def test_one_pass_matches_the_sorted_selection(stream, trigger_time, slack_ns):
    assert_same_choice(build(stream), trigger_time, slack_ns)


def test_empty_input():
    assert select_reports([], 500) == {}


def test_ties_resolve_like_a_stable_sort():
    a, b, c, d = (SwitchReport("SW", t) for t in (500, 500, 300, 300))
    reports = [a, b, c, d]
    # Earliest at/after the trigger: the first of the equal times.
    assert select_reports(reports, 400)["SW"] is a
    # Latest inside the slack, and latest overall: the last of equal times.
    assert select_reports([c, d], 400, slack_ns=200)["SW"] is d
    assert select_reports(reports, 10**6, slack_ns=0)["SW"] is b
    for trigger in (0, 300, 400, 500, 600):
        assert_same_choice(reports, trigger, 200)


def test_triggers_before_the_first_and_after_the_last_report():
    reports = build([("S0", 9), ("S1", 3), ("S0", 1), ("S1", 7), ("S0", 5)])
    for trigger in (-10**6, 0, 100, 900, 901, 10**9):
        for slack in (0, 200, 10**9):
            assert_same_choice(reports, trigger, slack)
