import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etngen import (EtnSignature, NeighborWindow, TemporalGraph,
                    etn_cosine_distance, extract_etn, mine_counts, prefix_of,
                    read_counts, write_counts)
from etngen.tempgraph import BucketKey
from oracles import counts_as_strings, naive_mine, naive_signature_strings
from synth import random_graph


def sig(*strings):
    return EtnSignature.from_bit_strings(strings)


class TestSignature:
    def test_encode_decode_round_trip(self):
        s = sig("011", "110", "110")
        assert s.encode() == "011|110|110"
        assert EtnSignature.decode(s.encode(), 3) == s

    def test_empty_sentinel(self):
        empty = EtnSignature(2)
        assert empty.encode() == "∅"
        assert EtnSignature.decode("∅", 2) == empty
        assert empty.is_empty

    def test_sorted_is_lexicographic(self):
        s = sig("110", "011", "101")
        assert s.bit_strings() == ("011", "101", "110")

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EtnSignature(2, (3, 1))

    def test_rejects_zero_string(self):
        with pytest.raises(ValueError):
            EtnSignature(2, (0,))

    def test_rejects_out_of_width(self):
        with pytest.raises(ValueError):
            EtnSignature(2, (4,))

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            EtnSignature.from_bit_strings(["01", "011"])

    def test_decode_width_mismatch(self):
        with pytest.raises(ValueError):
            EtnSignature.decode("011", 2)


class TestPrefix:
    def test_keeps_oldest_bits(self):
        assert prefix_of(sig("111")) == sig("11")

    def test_new_neighbor_string_vanishes(self):
        assert prefix_of(sig("001")) == EtnSignature(2)

    def test_truncate_then_sort(self):
        assert prefix_of(sig("011", "110")) == sig("01", "11")

    def test_width_one_has_no_prefix(self):
        with pytest.raises(ValueError):
            prefix_of(sig("1"))

    def test_empty_prefix_of_empty(self):
        assert prefix_of(EtnSignature(3)) == EtnSignature(2)


class TestExtract:
    def test_always_on_neighbor(self):
        g = TemporalGraph(2, [[(0, 1)]] * 3, 300)
        assert extract_etn(g, 0, 2, 3) == sig("111")

    def test_isolated_ego(self):
        g = TemporalGraph(3, [[(1, 2)]] * 3, 300)
        assert extract_etn(g, 0, 2, 3) == EtnSignature(3)

    def test_two_overlapping_neighbors(self):
        # u active at {t-1, t}, v active at {t-2, t-1}
        g = TemporalGraph(3, [[(0, 2)], [(0, 1), (0, 2)], [(0, 1)]], 300)
        assert extract_etn(g, 0, 2, 3) == sig("011", "110")

    def test_window_bounds(self):
        g = TemporalGraph(2, [[(0, 1)]] * 3, 300)
        with pytest.raises(ValueError):
            extract_etn(g, 0, 1, 3)
        with pytest.raises(ValueError):
            extract_etn(g, 0, 3, 2)


@st.composite
def graph_and_window(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    layers = [draw(st.lists(pair, max_size=8)) for _ in range(m)]
    g = TemporalGraph(n, layers, 300)
    width = draw(st.integers(min_value=1, max_value=m))
    t_end = draw(st.integers(min_value=width - 1, max_value=m - 1))
    ego = draw(st.integers(min_value=0, max_value=n - 1))
    return g, ego, t_end, width


@given(graph_and_window())
@settings(max_examples=200, deadline=None)
def test_extract_matches_string_oracle(case):
    g, ego, t_end, width = case
    expected = naive_signature_strings(g, ego, t_end, width)
    assert extract_etn(g, ego, t_end, width).bit_strings() == expected


@given(graph_and_window(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_extract_invariant_under_relabeling(case, rnd):
    g, ego, t_end, width = case
    perm = list(range(g.node_count))
    rnd.shuffle(perm)
    relabeled = TemporalGraph(
        g.node_count,
        [[(perm[i], perm[j]) for i, j in snap.edges] for snap in g.snapshots],
        g.gap_seconds, epoch=g.epoch)
    assert (extract_etn(relabeled, perm[ego], t_end, width)
            == extract_etn(g, ego, t_end, width))


@given(graph_and_window())
@settings(max_examples=150, deadline=None)
def test_prefix_equals_previous_window(case):
    g, ego, t_end, width = case
    if width < 2 or t_end < width - 1 + 1:
        return
    wide = extract_etn(g, ego, t_end, width)
    assert prefix_of(wide) == extract_etn(g, ego, t_end - 1, width - 1)


@given(graph_and_window(), st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_neighbor_window_matches_extract(case, extra):
    g, ego, t_end, width = case
    window = NeighborWindow(width + extra, 0, g.node_count)
    for t in range(t_end + 1):
        window.push(g.snapshots[t].edges)
    assert window.depth == min(t_end + 1, width + extra)
    assert window.strings(ego, width) == extract_etn(g, ego, t_end, width).strings


def test_neighbor_window_ego_range():
    window = NeighborWindow(2, 2, 4)
    window.push([(0, 2), (3, 5), (0, 1)])
    window.push([(2, 3)])
    assert window.bits(2) == {0: 2, 3: 1}
    assert window.bits(3) == {5: 2, 2: 1}
    assert window.strings(3, 1) == (1,)
    window.push([])
    window.push([])
    assert window.bits(2) == {} and window.bits(3) == {}


class TestMineCounts:
    def test_two_snapshot_single_edge(self):
        g = TemporalGraph(2, [[(0, 1)], [(0, 1)]], 300, epoch=0)
        counts = mine_counts(g, 1, "daily")
        bucket = BucketKey(hour_of_day=0)
        assert counts.bucket_depth(bucket, 1) == Counter({sig("11"): 2})

    def test_isolated_third_node_counts_empty(self):
        g = TemporalGraph(3, [[(0, 1)], [(0, 1)]], 300, epoch=0)
        counts = mine_counts(g, 1, "daily")
        bucket = BucketKey(hour_of_day=0)
        assert counts.bucket_depth(bucket, 1)[EtnSignature(2)] == 1

    def test_empty_graph_counts_only_empty(self):
        g = TemporalGraph(3, [[], [], []], 300, epoch=0)
        counts = mine_counts(g, 2, "daily")
        assert counts.aggregate_depth(1) == Counter({EtnSignature(2): 6})
        assert counts.aggregate_depth(2) == Counter({EtnSignature(3): 3})

    def test_window_count_totals(self):
        g = random_graph(n=6, m=5, seed=3)
        counts = mine_counts(g, 2, "daily")
        assert counts.depth_total(1) == 6 * 4
        assert counts.depth_total(2) == 6 * 3

    def test_requires_enough_snapshots(self):
        g = TemporalGraph(2, [[(0, 1)]] * 2, 300)
        with pytest.raises(ValueError):
            mine_counts(g, 2, "daily")

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 7))
            k = int(rng.integers(1, 3))
            if m < k + 1:
                k = m - 1
            g = random_graph(n=n, m=m, p=float(rng.uniform(0.05, 0.5)),
                             gap=3600, epoch=int(rng.integers(0, 10 ** 6)),
                             seed=int(rng.integers(0, 2 ** 31)))
            periodicity = "weekly" if trial % 3 == 0 else "daily"
            mined = counts_as_strings(mine_counts(g, k, periodicity).table)
            assert mined == naive_mine(g, k, periodicity)

    def test_thread_count_does_not_change_counts(self):
        g = random_graph(n=9, m=6, seed=12)
        a = mine_counts(g, 2, "daily", threads=1)
        b = mine_counts(g, 2, "daily", threads=3)
        assert a.table == b.table

    def test_buckets_follow_wall_clock(self):
        g = TemporalGraph(2, [[(0, 1)]] * 14, 3600, epoch=0)
        counts = mine_counts(g, 1, "daily")
        hours = sorted(b.hour_of_day for b in counts.table)
        assert hours == list(range(1, 14))

    def test_metadata(self):
        g = random_graph(n=5, m=4, seed=1, gap=600, epoch=1234)
        counts = mine_counts(g, 2, "daily")
        assert counts.k == 2
        assert counts.gap_seconds == 600
        assert counts.epoch == 1234
        assert counts.node_count == 5
        assert counts.first_layer_degrees == tuple(g.first_layer_degrees())


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_prefix_count_never_exceeds_parent_occurrences(seed):
    g = random_graph(n=6, m=5, p=0.3, seed=seed)
    counts = mine_counts(g, 2, "daily")
    deep = counts.aggregate_depth(2)
    shallow = counts.aggregate_depth(1)
    # every depth-2 window's prefix is the same ego's depth-1 signature one
    # snapshot earlier, so its occurrences bound the deeper count
    for s, c in deep.items():
        assert c <= shallow[prefix_of(s)]


class TestCountDump:
    def test_round_trip(self):
        g = random_graph(n=6, m=5, seed=9)
        counts = mine_counts(g, 2, "daily")
        sink = io.StringIO()
        write_counts(counts, sink)
        assert read_counts(io.StringIO(sink.getvalue())) == counts.table

    def test_format(self):
        g = TemporalGraph(2, [[(0, 1)], [(0, 1)]], 300, epoch=0)
        sink = io.StringIO()
        write_counts(mine_counts(g, 1, "daily"), sink)
        assert sink.getvalue() == "h00\t1\t11\t2\n"


class TestCosineDistance:
    def test_identical_maps(self):
        a = {sig("11"): 4, sig("01"): 2}
        assert etn_cosine_distance(a, dict(a)) == pytest.approx(0.0)

    def test_disjoint_supports(self):
        a = {sig("11"): 3}
        b = {sig("01"): 5}
        assert etn_cosine_distance(a, b) == pytest.approx(1.0)

    def test_hand_dot_product(self):
        s1, s2 = sig("11"), sig("01")
        assert etn_cosine_distance({s1: 3, s2: 4}, {s1: 3}) == pytest.approx(0.4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            etn_cosine_distance({}, {sig("11"): 1})
