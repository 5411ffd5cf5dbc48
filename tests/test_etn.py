import io
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etngen import (EtnSignature, NeighborWindow, TemporalGraph,
                    etn_cosine_distance, extract_etn, mine_counts, prefix_of,
                    read_counts, write_counts)
from etngen import etn
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
    full = [window.strings(e, window.depth) for e in range(g.node_count)]
    assert window.active == [e for e, strings in enumerate(full) if strings]
    assert window.prefixes() == [full[e] for e in window.active]


def test_neighbor_window_ego_range():
    window = NeighborWindow(2, 2, 4)
    window.push([(0, 2), (3, 5), (0, 1)])
    window.push([(2, 3)])
    assert window.bits(2) == {0: 2, 3: 1}
    assert window.bits(3) == {5: 2, 2: 1}
    assert window.strings(3, 1) == (1,)
    assert window.active == [2, 3] and window.prefixes() == [(1, 2), (1, 2)]
    window.push([])
    window.push([])
    assert window.bits(2) == {} and window.bits(3) == {}
    assert window.active == [] and window.prefixes() == []


def windows(counts, depth):
    """Windows of width depth+1 counted in every bucket."""
    return sum(sum(per_depth.get(depth, {}).values())
               for per_depth in counts.table.values())


class TestMineCounts:
    def test_two_snapshot_single_edge(self):
        g = TemporalGraph(2, [[(0, 1)], [(0, 1)]], 300, epoch=0)
        counts = mine_counts(g, 1, "daily")
        bucket = BucketKey(hour_of_day=0)
        assert counts.table[bucket][1] == Counter({sig("11"): 2})

    def test_isolated_third_node_counts_empty(self):
        g = TemporalGraph(3, [[(0, 1)], [(0, 1)]], 300, epoch=0)
        counts = mine_counts(g, 1, "daily")
        bucket = BucketKey(hour_of_day=0)
        assert counts.table[bucket][1][EtnSignature(2)] == 1

    def test_empty_graph_counts_only_empty(self):
        g = TemporalGraph(3, [[], [], []], 300, epoch=0)
        counts = mine_counts(g, 2, "daily")
        assert counts.aggregate_depth(1) == Counter({EtnSignature(2): 6})
        assert counts.aggregate_depth(2) == Counter({EtnSignature(3): 3})

    def test_window_count_totals(self):
        g = random_graph(n=6, m=5, seed=3)
        counts = mine_counts(g, 2, "daily")
        assert windows(counts, 1) == 6 * 4
        assert windows(counts, 2) == 6 * 3

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


def mined(g, k, periodicity="daily", threads=1, block=None):
    """`mine_counts`' table with string keys, mined in blocks of `block`
    window ends (the module's own size when None)."""
    with mock.patch.object(etn, "_BLOCK", block or etn._BLOCK):
        return counts_as_strings(mine_counts(g, k, periodicity, threads=threads).table)


@st.composite
def mining_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=k + 1, max_value=k + 9))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    layers = [draw(st.lists(pair, max_size=10)) if n > 1 else [] for _ in range(m)]
    gap = draw(st.sampled_from([300, 3600, 7 * 3600]))
    epoch = draw(st.integers(min_value=0, max_value=14 * 86400))
    return TemporalGraph(n, layers, gap, epoch=epoch), k


@given(mining_cases(), st.sampled_from(["daily", "weekly"]),
       st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 5, None]))
@settings(max_examples=80, deadline=None)
def test_mine_counts_matches_oracle(case, periodicity, threads, block):
    g, k = case
    assert mined(g, k, periodicity, threads, block) == naive_mine(g, k, periodicity)


def star(leaves, snapshots):
    """Node 0 in contact with every leaf in every snapshot."""
    return TemporalGraph(leaves + 1, [[(0, u) for u in range(1, leaves + 1)]] * snapshots,
                         300)


class TestMiningCases:
    @pytest.mark.parametrize("k", [1, 3])
    def test_star_runs_longer_than_one_pack(self, k):
        # 40 strings: 31 fit a pack at width 2, 15 at width 4
        g = star(40, k + 3)
        counts = mine_counts(g, k, "daily")
        assert counts.aggregate_depth(k)[EtnSignature(k + 1, ((1 << (k + 1)) - 1,) * 40)] == 3
        assert counts_as_strings(counts.table) == naive_mine(g, k, "daily")

    def test_stars_differing_in_one_late_string(self):
        # The hubs' runs (40 and 39 strings "11" plus one "10") share their
        # first pack and differ in the second.
        layers = [[(0, u) for u in range(1, 41)] + [(41, u) for u in range(42, 82)]] * 2
        layers[1] = layers[1][:-1]
        g = TemporalGraph(82, layers, 300)
        assert mined(g, 1) == naive_mine(g, 1, "daily")
        assert len(mine_counts(g, 1, "daily").aggregate_depth(1)) == 4

    @pytest.mark.parametrize("threads", [1, 2])
    def test_all_empty_graph(self, threads):
        g = TemporalGraph(4, [[]] * 5, 300)
        assert mined(g, 3, threads=threads) == naive_mine(g, 3, "daily")

    def test_isolated_nodes(self):
        g = TemporalGraph(9, [[(1, 2)], [], [(2, 5)], [(1, 2), (5, 7)]], 300)
        assert mined(g, 2, threads=3) == naive_mine(g, 2, "daily")

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_snapshots_equal_k_plus_one(self, k):
        g = random_graph(n=7, m=k + 1, p=0.4, seed=k)
        assert mined(g, k) == naive_mine(g, k, "daily")
        assert windows(mine_counts(g, k, "daily"), k) == 7

    @pytest.mark.parametrize("block", [1, 7, None, 300])
    def test_events_straddle_blocks(self, block):
        # Contacts on both sides of every default block edge, and windows
        # ending just after one.
        size = etn._BLOCK
        layers = [[] for _ in range(3 * size + 5)]
        for edge in range(1, 4):
            for t in (edge * size - 1, edge * size, edge * size + 1):
                layers[t] += [(0, 1), (t % 5 + 1, 6)]
        g = TemporalGraph(7, layers, 300)
        assert mined(g, 3, block=block) == naive_mine(g, 3, "daily")

    def test_result_does_not_depend_on_block(self):
        g = random_graph(n=12, m=90, p=0.2, seed=4, gap=600)
        want = mined(g, 3, "weekly")
        for block in (1, 13, g.n_snapshots, 1000):
            assert mined(g, 3, "weekly", block=block) == want

    def test_widest_window(self):
        # width 62: one string per pack, and (end, ego) too wide for one
        # int64 sort key
        k = etn.MAX_MINING_K
        layers = [[(0, 1), (1, 2)] if t % 3 else [(2, 3)] for t in range(k + 3)]
        g = TemporalGraph(4, layers, 300)
        assert mined(g, k, block=2) == naive_mine(g, k, "daily")

    def test_k_beyond_pack_width_rejected(self):
        g = TemporalGraph(2, [[(0, 1)]] * 70, 300)
        with pytest.raises(ValueError, match="k must be <="):
            mine_counts(g, etn.MAX_MINING_K + 1, "daily")


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
