import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etngen import (AggregatedGraph, BucketKey, ParseError, Snapshot,
                    TemporalGraph, aggregate, bucket_of, hour_slices,
                    parse_edge_list, resolve_periodicity, weekday,
                    write_edge_list)
from synth import MONDAY_EPOCH, weekly_graph


def lines(text):
    return io.StringIO(text)


class TestSnapshot:
    def test_normalizes_and_dedups(self):
        snap = Snapshot([(1, 0), (0, 1), (2, 1)])
        assert snap.edges == {(0, 1), (1, 2)}
        assert snap.neighbors(1) == (0, 2)
        assert snap.degree(0) == 1
        assert snap.active_nodes == {0, 1, 2}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Snapshot([(3, 3)])


class TestParse:
    def test_binning_example(self):
        g = parse_edge_list(lines("0\ta\tb\n100\ta\tb\n300\tb\tc\n"),
                            gap_seconds=300)
        assert g.node_count == 3
        assert g.n_snapshots == 2
        assert g.snapshots[0].edges == {(0, 1)}
        assert g.snapshots[1].edges == {(1, 2)}
        assert g.labels == ("a", "b", "c")

    def test_empty_stream_errors(self):
        with pytest.raises(ParseError, match="no events"):
            parse_edge_list(lines(""), gap_seconds=300)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list(lines("0\ta\tb\n5 x y\n"), gap_seconds=300)

    def test_bad_timestamp(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list(lines("zero\ta\tb\n"), gap_seconds=300)

    def test_self_loops_dropped_and_counted(self):
        g = parse_edge_list(lines("0\ta\ta\n0\ta\tb\n"), gap_seconds=300)
        assert g.dropped_self_loops == 1
        assert g.snapshots[0].edges == {(0, 1)}

    def test_missing_gap(self):
        with pytest.raises(ParseError, match="gap"):
            parse_edge_list(lines("0\ta\tb\n"))

    def test_first_appearance_indexing(self):
        g = parse_edge_list(lines("0\tz\tq\n0\tq\ta\n"), gap_seconds=60)
        assert g.labels == ("z", "q", "a")
        assert g.snapshots[0].edges == {(0, 1), (1, 2)}

    def test_empty_bins_materialized(self):
        g = parse_edge_list(lines("0\ta\tb\n900\ta\tb\n"), gap_seconds=300)
        assert g.n_snapshots == 4
        assert g.snapshots[1].n_edges == 0
        assert g.snapshots[2].n_edges == 0

    def test_header_pins_binning(self):
        text = "#snapshots=5 #gap=300 #epoch=1000 #nodes=4\n1300\t0\t1\n"
        g = parse_edge_list(lines(text))
        assert g.node_count == 4
        assert g.n_snapshots == 5
        assert g.epoch == 1000
        assert g.snapshots[1].edges == {(0, 1)}

    def test_header_gap_conflict(self):
        with pytest.raises(ParseError, match="conflicts"):
            parse_edge_list(lines("#gap=300\n0\ta\tb\n"), gap_seconds=600)

    def test_duplicate_events_collapse(self):
        g = parse_edge_list(lines("0\ta\tb\n10\tb\ta\n"), gap_seconds=300)
        assert g.snapshots[0].n_edges == 1


class TestWrite:
    def test_single_edge_line(self):
        g = TemporalGraph(2, [[(0, 1)]], 300, epoch=0)
        sink = io.StringIO()
        write_edge_list(g, sink)
        assert "0\t0\t1\n" in sink.getvalue()

    def test_round_trip_example(self):
        g = parse_edge_list(lines("0\ta\tb\n100\ta\tb\n300\tb\tc\n"),
                            gap_seconds=300)
        sink = io.StringIO()
        write_edge_list(g, sink)
        assert parse_edge_list(lines(sink.getvalue())) == g

    def test_empty_layers_survive_round_trip(self):
        g = TemporalGraph(3, [[(0, 1)], [], []], 300, epoch=600)
        sink = io.StringIO()
        write_edge_list(g, sink)
        back = parse_edge_list(lines(sink.getvalue()))
        assert back == g
        assert back.n_snapshots == 3


@st.composite
def temporal_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    layers = [draw(st.lists(pair, max_size=8)) for _ in range(m)]
    gap = draw(st.sampled_from([60, 300, 3600]))
    epoch = draw(st.integers(min_value=0, max_value=10 ** 6))
    return TemporalGraph(n, layers, gap, epoch=epoch)


@given(temporal_graphs())
@settings(max_examples=150, deadline=None)
def test_parse_write_identity(g):
    sink = io.StringIO()
    write_edge_list(g, sink)
    assert parse_edge_list(io.StringIO(sink.getvalue())) == g


@given(temporal_graphs())
@settings(max_examples=80, deadline=None)
def test_aggregation_weight_conservation(g):
    agg = aggregate(g)
    assert agg.total_weight == sum(s.n_edges for s in g.snapshots)


class TestAggregate:
    def test_direct_count(self):
        g = TemporalGraph(3, [[(0, 1)], [(0, 1), (1, 2)], [(1, 2)]], 300)
        assert aggregate(g).weights == {(0, 1): 2, (1, 2): 2}

    def test_all_empty(self):
        g = TemporalGraph(3, [[], []], 300)
        assert aggregate(g).weights == {}

    def test_persistent_edge(self):
        g = TemporalGraph(2, [[(0, 1)]] * 5, 300)
        assert aggregate(g).weights == {(0, 1): 5}

    def test_edges_in_sorted_order(self):
        # Set order would follow how each snapshot's frozenset was built.
        layers = [[(5, 6), (0, 9), (2, 3)], [(1, 2), (0, 4)], [(2, 3), (0, 1)]]
        g = TemporalGraph(10, layers, 300)
        assert list(aggregate(g).weights) == [(0, 1), (0, 4), (0, 9), (1, 2),
                                              (2, 3), (5, 6)]


class TestHourSlices:
    def test_two_full_hours(self):
        g = TemporalGraph(2, [[(0, 1)]] * 24, 300, epoch=0)
        slices = hour_slices(g)
        assert len(slices) == 2
        assert [s.total_weight for s in slices] == [12, 12]

    def test_partial_trailing_hour(self):
        g = TemporalGraph(2, [[(0, 1)]] * 13, 300, epoch=0)
        slices = hour_slices(g)
        assert [s.total_weight for s in slices] == [12, 1]

    def test_hourly_gap_one_slice_per_snapshot(self):
        g = TemporalGraph(2, [[(0, 1)], [(0, 1)], []], 3600, epoch=0)
        slices = hour_slices(g)
        assert len(slices) == 3
        assert [s.total_weight for s in slices] == [1, 1, 0]

    def test_misaligned_gap_rejected(self):
        g = TemporalGraph(2, [[(0, 1)]], 7, epoch=0)
        with pytest.raises(ValueError):
            hour_slices(g)

    def test_edges_in_sorted_order(self):
        layers = [[(7, 8), (0, 3)], [(2, 5), (0, 1)], [(4, 6)]]
        g = TemporalGraph(9, layers, 1800, epoch=0)
        slices = hour_slices(g)
        assert [list(s.weights) for s in slices] == [
            [(0, 1), (0, 3), (2, 5), (7, 8)], [(4, 6)]]

    def test_slice_count_covers_span(self):
        g = TemporalGraph(2, [[(0, 1)]] * 30, 300, epoch=1800)
        slices = hour_slices(g)
        # starts mid-hour: spans hours 0..2
        assert len(slices) == 3
        assert sum(s.total_weight for s in slices) == 30


class TestBuckets:
    def test_weekday_of_epoch(self):
        assert weekday(0) == 3  # 1970-01-01 was a Thursday
        assert weekday(MONDAY_EPOCH) == 0

    def test_daily_bucket(self):
        b = bucket_of(8 * 3600 + 59, "daily")
        assert b == BucketKey(hour_of_day=8)
        assert b.periodicity == "daily"

    def test_weekly_bucket(self):
        b = bucket_of(MONDAY_EPOCH + 86400 + 5 * 3600, "weekly")
        assert b == BucketKey(hour_of_day=5, day_of_week=1)
        assert b.periodicity == "weekly"

    def test_encode_decode(self):
        for b in (BucketKey(0), BucketKey(23), BucketKey(8, 0), BucketKey(9, 6)):
            assert BucketKey.decode(b.encode()) == b

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            BucketKey.decode("x07")

    def test_validation(self):
        with pytest.raises(ValueError):
            BucketKey(24)
        with pytest.raises(ValueError):
            BucketKey(0, 7)

    def test_unknown_periodicity(self):
        with pytest.raises(ValueError):
            bucket_of(0, "monthly")


class TestResolvePeriodicity:
    def test_two_days_daily(self):
        g = TemporalGraph(2, [[(0, 1)]] * 48, 3600, epoch=MONDAY_EPOCH)
        assert resolve_periodicity(g) == "daily"

    def test_full_week_weekly(self):
        assert resolve_periodicity(weekly_graph(n=5, weeks=1)) == "weekly"

    def test_six_weekdays_no_weekend_daily(self):
        # Monday..Friday plus the following Monday-only span has no weekend
        g = TemporalGraph(2, [[(0, 1)]] * (5 * 24), 3600, epoch=MONDAY_EPOCH)
        assert resolve_periodicity(g) == "daily"

    def test_six_days_with_weekend_weekly(self):
        g = TemporalGraph(2, [[(0, 1)]] * (6 * 24), 3600, epoch=MONDAY_EPOCH)
        assert resolve_periodicity(g) == "weekly"


class TestTemporalGraphValidation:
    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            TemporalGraph(2, [[(0, 2)]], 300)

    def test_nonpositive_gap(self):
        with pytest.raises(ValueError):
            TemporalGraph(2, [[(0, 1)]], 0)

    def test_labels_length(self):
        with pytest.raises(ValueError):
            TemporalGraph(2, [[(0, 1)]], 300, labels=("a",))

    def test_first_layer_degrees(self):
        g = TemporalGraph(4, [[(0, 1), (1, 2)], []], 300)
        assert g.first_layer_degrees() == [1, 2, 1, 0]

    def test_time_of(self):
        g = TemporalGraph(2, [[(0, 1)]] * 3, 300, epoch=1000)
        assert [g.time_of(t) for t in range(3)] == [1000, 1300, 1600]


class TestAggregatedGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggregatedGraph({(0, 0): 1})
        with pytest.raises(ValueError):
            AggregatedGraph({(0, 1): 0})

    def test_nodes(self):
        agg = AggregatedGraph({(2, 0): 1, (5, 2): 3})
        assert agg.nodes == [0, 2, 5]
        assert agg.n_edges == 2
        assert agg.total_weight == 4
