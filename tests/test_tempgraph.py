import io
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etngen import (AggregatedGraph, BucketKey, ParseError, TemporalGraph,
                    aggregate, bucket_of, hour_slices, parse_edge_list,
                    resolve_periodicity, weekday, write_edge_list)
import etngen
from etngen import tempgraph
from etngen.tempgraph import (MAX_NODES, MAX_SNAPSHOTS, _distinct, _read_strict,
                              layer_arcs)
from oracles import dict_aggregate, dict_hour_slices, layer_adjacency
from synth import MONDAY_EPOCH, layer_edges, layered_graphs, weekly_graph


def lines(text):
    return io.StringIO(text)


class TestSnapshot:
    def test_normalizes_and_dedups(self):
        g = TemporalGraph(3, [[(1, 0), (0, 1), (2, 1)]], 300)
        assert g.pairs.tolist() == [[0, 1], [1, 2]]
        assert layer_edges(g) == [{(0, 1), (1, 2)}]
        adj = layer_adjacency(g)[0]
        assert adj[1] == (0, 2)
        assert len(adj[0]) == 1
        assert set(adj) == {0, 1, 2}


class TestParse:
    def test_binning_example(self):
        g = parse_edge_list(lines("0\ta\tb\n100\ta\tb\n300\tb\tc\n"),
                            gap_seconds=300)
        assert g.node_count == 3
        assert g.n_snapshots == 2
        assert layer_edges(g)[0] == {(0, 1)}
        assert layer_edges(g)[1] == {(1, 2)}
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

    @pytest.mark.parametrize("event", ["0\t0\t1\n", "0\ta\tb\n"])
    def test_nodes_header_stores_no_index_labels(self, event):
        # Labels that are the indices are made on access, not at parse.
        tracemalloc.start()
        try:
            g = parse_edge_list(lines("#gap=1 #nodes=1000000\n" + event))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        labels = g.labels
        assert peak < 8 << 20
        assert g.node_count == len(labels) == 1_000_000 and labels[999_999] == "999999"
        assert labels[:3] == (("0", "1", "2") if event[2] == "0" else ("a", "b", "2"))

    def test_self_loops_dropped_and_counted(self):
        g = parse_edge_list(lines("0\ta\ta\n0\ta\tb\n"), gap_seconds=300)
        assert g.dropped_self_loops == 1
        assert layer_edges(g)[0] == {(0, 1)}

    def test_missing_gap(self):
        with pytest.raises(ParseError, match="gap"):
            parse_edge_list(lines("0\ta\tb\n"))

    def test_first_appearance_indexing(self):
        g = parse_edge_list(lines("0\tz\tq\n0\tq\ta\n"), gap_seconds=60)
        assert g.labels == ("z", "q", "a")
        assert layer_edges(g)[0] == {(0, 1), (1, 2)}

    def test_empty_bins_materialized(self):
        g = parse_edge_list(lines("0\ta\tb\n900\ta\tb\n"), gap_seconds=300)
        assert g.n_snapshots == 4
        assert len(layer_edges(g)[1]) == 0
        assert len(layer_edges(g)[2]) == 0

    def test_header_pins_binning(self):
        text = "#snapshots=5 #gap=300 #epoch=1000 #nodes=4\n1300\t0\t1\n"
        g = parse_edge_list(lines(text))
        assert g.node_count == 4
        assert g.n_snapshots == 5
        assert g.epoch == 1000
        assert layer_edges(g)[1] == {(0, 1)}

    def test_header_gap_conflict(self):
        with pytest.raises(ParseError, match="conflicts"):
            parse_edge_list(lines("#gap=300\n0\ta\tb\n"), gap_seconds=600)

    @pytest.mark.parametrize("header", ["#gap=0", "#gap=-300"])
    def test_header_gap_not_positive(self, header):
        with pytest.raises(ParseError, match="gap must be positive"):
            parse_edge_list(lines(f"{header}\n0\ta\tb\n"))

    def test_gap_seconds_zero(self):
        with pytest.raises(ParseError, match="gap_seconds must be positive, got 0"):
            parse_edge_list(lines("0\ta\tb\n"), gap_seconds=0)

    def test_duplicate_events_collapse(self):
        g = parse_edge_list(lines("0\ta\tb\n10\tb\ta\n"), gap_seconds=300)
        assert len(layer_edges(g)[0]) == 1


class TestLimits:
    def test_event_span_above_cap(self):
        text = f"#gap=1\n0\ta\tb\n{MAX_SNAPSHOTS}\ta\tb\n"
        with pytest.raises(ParseError, match=f"events span {MAX_SNAPSHOTS + 1} "
                                             f"snapshots, more than the limit"):
            parse_edge_list(lines(text))

    def test_header_snapshots_above_cap(self):
        text = f"#snapshots={MAX_SNAPSHOTS + 1} #gap=1\n0\ta\tb\n"
        with pytest.raises(ParseError, match="header declares snapshots=.*limit"):
            parse_edge_list(lines(text))

    def test_header_nodes_above_limit(self):
        text = f"#nodes={MAX_NODES + 1} #gap=1\n0\t0\t1\n"
        with pytest.raises(ParseError, match="header declares nodes=.*limit"):
            parse_edge_list(lines(text))

    def test_far_event_exact_beyond_int64(self):
        # Times past int64 are binned in exact integer arithmetic.
        far = 10 ** 30
        g = parse_edge_list(lines(f"{far}\ta\tb\n{far + 600}\tb\tc\n"),
                            gap_seconds=300)
        assert g.epoch == far
        assert layer_edges(g) == [{(0, 1)}, set(), {(1, 2)}]
        # A time that fits int64 but whose offset from the epoch does not.
        text = ("#gap=1000000000000000000 #epoch=-9000000000000000000\n"
                "900000000000000000\t0\t1\n")
        assert _read_strict(text) is not None
        g = parse_edge_list(lines(text))
        assert g.n_snapshots == 10 and layer_edges(g)[9] == {(0, 1)}


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

    def test_bytes_whatever_the_chunk_size(self):
        """The same text, a line per row in table order, whether rows are
        formatted 1, 7 or the default number at a time."""
        g = weekly_graph(n=60, weekday_p=0.05)
        assert g.n_events > tempgraph._WRITE_ROWS
        bounds = g.offsets.tolist()
        want = (f"#snapshots={g.n_snapshots} #gap={g.gap_seconds} #epoch={g.epoch} "
                f"#nodes={g.node_count}\n"
                + "".join(f"{g.time_of(t)}\t{i}\t{j}\n"
                          for t in range(g.n_snapshots)
                          for i, j in g.pairs[bounds[t]:bounds[t + 1]].tolist()))
        for rows in (1, 7, tempgraph._WRITE_ROWS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tempgraph, "_WRITE_ROWS", rows)
                sink = io.StringIO()
                write_edge_list(g, sink)
            assert sink.getvalue() == want


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
    assert agg.total_weight == sum(map(len, layer_edges(g)))


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

    @pytest.mark.parametrize("text", ["dxh08", "d1hxx"])
    def test_decode_rejects_a_field_that_is_not_a_number(self, text):
        with pytest.raises(ValueError, match=f"bad bucket key '{text}'"):
            BucketKey.decode(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            BucketKey(24)
        with pytest.raises(ValueError):
            BucketKey(0, 7)

    def test_unpickled_key_is_found_in_another_process(self):
        # A key takes its hash once and keeps it through pickling, so the
        # hash must not differ between processes, as hash(None) does.
        script = ("import pickle, sys\n"
                  "from etngen import BucketKey\n"
                  "table = {BucketKey(8): 'daily', BucketKey(8, 3): 'weekly'}\n"
                  "print(*(table.get(k) for k in pickle.load(sys.stdin.buffer)))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(etngen.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              input=pickle.dumps([BucketKey(8), BucketKey(8, 3)]),
                              capture_output=True, timeout=120)
        assert done.stdout.split() == [b"daily", b"weekly"]

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


@st.composite
def raw_layers(draw):
    """A node count, layers of (i, j) pairs in either order and with
    repeats, an hour-aligned gap and an epoch."""
    n = draw(st.integers(min_value=2, max_value=9))
    m = draw(st.integers(min_value=1, max_value=8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    layers = [draw(st.lists(pair, max_size=10)) for _ in range(m)]
    gap = draw(st.sampled_from([60, 300, 1200, 3600, 7200]))
    epoch = draw(st.integers(min_value=0, max_value=10 ** 6))
    return n, layers, gap, epoch


class TestLayerArcs:
    def test_layout(self):
        g = TemporalGraph(4, [[(3, 1), (0, 2), (1, 2)], [], [(0, 3)]], 300)
        src, dst = layer_arcs(g)
        assert list(zip(src.tolist(), dst.tolist())) == [
            (0, 2), (1, 2), (1, 3), (2, 0), (2, 1), (3, 1), (0, 3), (3, 0)]
        assert (2 * g.offsets).tolist() == [0, 6, 6, 8]
        assert [a.size for a in layer_arcs(TemporalGraph(0, [[]], 300))] == [0, 0]

    @given(layered_graphs())
    @settings(max_examples=100, deadline=None)
    def test_slices_match_snapshot_edges(self, g):
        src, dst = layer_arcs(g)
        bounds = (2 * g.offsets).tolist()
        for edges, a, b in zip(layer_edges(g), bounds, bounds[1:]):
            arcs = sorted(arc for i, j in edges for arc in ((i, j), (j, i)))
            assert list(zip(src[a:b].tolist(), dst[a:b].tolist())) == arcs


class TestEdgeTable:
    def test_layout(self):
        g = TemporalGraph(5, [[(3, 1), (0, 4)], [], [(2, 1), (1, 2), (0, 3)]], 300)
        assert g.pairs.tolist() == [[0, 4], [1, 3], [0, 3], [1, 2]]
        assert g.offsets.tolist() == [0, 2, 2, 4]
        assert g.pairs.dtype == np.int32 and not g.pairs.flags.writeable
        assert g.n_events == 4 and g.n_snapshots == 3

    def test_distinct_ranks_pairs_when_keys_overflow(self):
        # 3 groups x (2**31)**2 node pairs do not fit one int64 key.
        group = np.array([1, 0, 1, 0, 0])
        i = np.array([0, 5, 0, 5, 5])
        j = np.array([2 ** 31 - 1, 7, 2 ** 31 - 1, 6, 7])
        want = [[0, 0, 1], [5, 5, 0], [6, 7, 2 ** 31 - 1], [1, 2, 2]]
        assert [a.tolist() for a in _distinct(group, i, j, 3)] == want
        small = j % 8
        assert [a.tolist() for a in _distinct(group, i, small, 3)] == [
            [0, 0, 1], [5, 5, 0], [6, 7, 7], [1, 2, 2]]

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="node ids must lie in"):
            TemporalGraph(3, [[(0, 1)], [(-1, 2)]], 300)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop on node 3"):
            TemporalGraph(4, [[(0, 1)], [(1, 2), (3, 3)]], 300)

    @given(raw_layers())
    @settings(max_examples=150, deadline=None)
    def test_aggregates_match_dict_oracles(self, drawn):
        n, layers, gap, epoch = drawn
        g = TemporalGraph(n, layers, gap, epoch=epoch)
        assert list(aggregate(g).weights.items()) == list(dict_aggregate(g).weights.items())
        assert ([list(s.weights.items()) for s in hour_slices(g)]
                == [list(s.weights.items()) for s in dict_hour_slices(g)])

    @given(raw_layers())
    @settings(max_examples=100, deadline=None)
    def test_layer_rows_match_input_layers(self, drawn):
        n, layers, gap, epoch = drawn
        g = TemporalGraph(n, layers, gap, epoch=epoch)
        assert g.n_snapshots == len(layers)
        for t, layer in enumerate(layers):
            rows = list(map(tuple, g.pairs[g.offsets[t]:g.offsets[t + 1]].tolist()))
            assert rows == sorted({(min(e), max(e)) for e in layer})

    @given(raw_layers())
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip(self, drawn):
        n, layers, gap, epoch = drawn
        g = TemporalGraph(n, layers, gap, epoch=epoch)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.labels == g.labels


# Parse inputs for the differential test. A clean text is in the strict
# grammar that `parse_edge_list` checks by regex and reads with one numpy
# call; any text is a mix of everything the per-line path accepts or rejects.
_HEADER_TOKENS = st.sampled_from(["#gap=300", "#gap=60", "#epoch=0", "#epoch=600",
                                  "#nodes=7", "#nodes=3", "#snapshots=40",
                                  "#snapshots=2", "#gap=x", "# note"])
_CLEAN_LABELS = st.integers(0, 12).map(str)
_ANY_LABELS = st.one_of(
    st.integers(0, 8).map(str),
    st.sampled_from(["a", "b", "03", "00", "+2", "1_0", " 4", "7" * 19, "10" * 10]))
_ANY_TIMES = st.one_of(
    st.integers(0, 3000), st.integers(-600, 600), st.integers(10 ** 17, 10 ** 20),
    st.integers(0, 20).map(lambda t: f"{t:03d}"),
    st.sampled_from(["+60", "6_0", "x", "1" * 19]))


@st.composite
def edge_list_texts(draw, clean: bool):
    header = draw(st.lists(st.lists(_HEADER_TOKENS, min_size=1, max_size=3)
                           .map(" ".join), max_size=2))
    if clean:
        event = st.tuples(st.integers(0, 3000), _CLEAN_LABELS, _CLEAN_LABELS)
        body = draw(st.lists(event.map(lambda e: "\t".join(map(str, e))), max_size=12))
        return "".join(line + "\n" for line in header + body)
    event = st.tuples(_ANY_TIMES, _ANY_LABELS, _ANY_LABELS).map(
        lambda e: "\t".join(map(str, e)))
    other = st.sampled_from(["", "  ", "# note", "#gap=300", "#nodes=7",
                             "5 x y", "1\t2", "1\t2\t3\t4"])
    body = draw(st.lists(st.one_of(event, event, event, other), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(header + body)
    return text + end if draw(st.booleans()) else text


def _outcome(source, gap):
    """The graph, its labels and dropped self-loops, or the error."""
    try:
        g = parse_edge_list(source, gap_seconds=gap)
    except ValueError as exc:
        return type(exc), str(exc)
    return g, g.labels, g.dropped_self_loops


_GAPS = st.sampled_from([None, 1, 60, 300])


class TestStrictGrammarOracle:
    """A file is read by the strict grammar where it fits; a list of its
    lines always goes line by line. Both give equal graphs (labels and
    dropped self-loops included) or the same error."""

    @given(edge_list_texts(clean=True), _GAPS)
    @settings(max_examples=200, deadline=None)
    def test_clean_texts_take_the_grammar(self, text, gap):
        assert _read_strict(text) is not None
        assert _outcome(io.StringIO(text), gap) == _outcome(
            io.StringIO(text).readlines(), gap)

    @given(edge_list_texts(clean=False), _GAPS)
    @settings(max_examples=400, deadline=None)
    def test_any_text(self, text, gap):
        assert _outcome(io.StringIO(text), gap) == _outcome(
            io.StringIO(text).readlines(), gap)

    def test_grammar_refuses(self):
        for text in ("0\t01\t2\n", "0\t1\t2", "0\t1\t2\r\n", "0\t1\t2\n\n",
                     "0\t1\t2\n#c\n", "-1\t1\t2\n", f"{'1' * 19}\t1\t2\n",
                     "0\t+1\t2\n", "0\t1 \t2\n", "\u0661\t1\t2\n"):
            assert _read_strict(text) is None, text


class TestIndexedParse:
    """A strict file whose labels are node indices (a `#nodes` header and
    every label below it) is read without ranking its labels."""

    def test_label_outside_nodes_ranks_as_line_by_line(self):
        text = "#gap=300 #nodes=4\n0\t2\t3\n0\t3\t9\n300\t0\t2\n600\t1\t1\n"
        assert _read_strict(text) is not None
        g = parse_edge_list(io.StringIO(text))
        assert _outcome(io.StringIO(text), None) == _outcome(
            io.StringIO(text).readlines(), None)
        assert g.labels == ("2", "3", "9", "0") and g.node_count == 4
        assert g.pairs.tolist() == [[0, 1], [1, 2], [0, 3]]
        assert g.offsets.tolist() == [0, 2, 3] and g.dropped_self_loops == 1

    @pytest.mark.parametrize("at", [0, 7_000, 9_999])  # two 64 KB chunks
    def test_grammar_refuses_a_line_in_any_chunk(self, at):
        lines = [f"{300 * (n // 10)}\t{n % 7}\t{n % 7 + 1}\n" for n in range(10_000)]
        assert _read_strict("".join(lines)) is not None
        lines[at] = "0\t01\t2\n"
        assert _read_strict("".join(lines)) is None

    def test_indexed_file_parses_in_bounded_memory(self):
        # A recording at the benchmark's paper scale: 330 nodes, 5 days of
        # 5-minute snapshots, 90,000 events, in the layout that
        # `write_edge_list` gives.
        rng = np.random.default_rng(3)
        t = np.sort(rng.integers(0, 1440, 90_000)) * 300
        i = rng.integers(0, 329, 90_000)
        j = rng.integers(i + 1, 330)
        text = "#snapshots=1440 #gap=300 #epoch=0 #nodes=330\n" + "".join(
            f"{a}\t{b}\t{c}\n" for a, b, c in zip(t.tolist(), i.tolist(), j.tolist()))
        assert _read_strict(text) is not None
        source = io.StringIO(text)  # its buffer takes 4 bytes a character
        tracemalloc.start()
        try:
            g = parse_edge_list(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The text is 1.3 MB: the bound leaves room for its 2.2 MB of int64
        # fields and the edge table's sort, not for a rank of every label.
        assert peak < 8_000_000
        assert g.node_count == 330 and g.n_snapshots == 1440 and g.labels[329] == "329"
