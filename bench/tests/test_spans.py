import pytest

from spans import Recorder, Span, budget, self_times


def tree():
    # round [0, 10]
    #   op [1, 9]
    #     build   [1, 2]
    #     advance [2, 8]
    #       collect_all [2, 5]
    #     finish  [8, 9]
    return [
        Span(0, "round", 0.0, 10.0, None, None),
        Span(1, "op", 1.0, 9.0, 0, "op-a"),
        Span(2, "build", 1.0, 2.0, 1, "op-a"),
        Span(3, "advance", 2.0, 8.0, 1, "op-a"),
        Span(4, "collect_all", 2.0, 5.0, 3, "op-a"),
        Span(5, "finish", 8.0, 9.0, 1, "op-a"),
        # A root of another kind is left out of the round budget.
        Span(6, "query", 20.0, 21.0, None, "q-0"),
    ]


def test_self_time_is_duration_minus_direct_children():
    selfs = self_times(tree())
    assert selfs[0] == pytest.approx(2.0)   # 10 - op(8)
    assert selfs[1] == pytest.approx(0.0)   # 8 - (1 + 6 + 1)
    assert selfs[3] == pytest.approx(3.0)   # 6 - collect_all(3)
    assert selfs[4] == pytest.approx(3.0)


def test_budget_rows_sum_to_the_root_duration():
    rows = budget(tree(), "round")
    assert "query" not in rows
    assert rows["advance"] == pytest.approx(3.0)
    assert sum(rows.values()) == pytest.approx(10.0)


def test_recorder_nests_and_inherits_the_op_id():
    rec = Recorder(enabled=True)
    with rec.span("op", op_id="x"):
        with rec.span("inner"):
            pass
    op, inner = rec.spans
    assert inner.parent == op.span_id and inner.op_id == "x"
    assert op.start <= inner.start <= inner.end <= op.end


def test_disabled_recorder_records_nothing():
    rec = Recorder(enabled=False)
    with rec.span("op") as span:
        assert span is None
    assert rec.add("x", 0.0, 1.0) is None
    assert rec.spans == []
