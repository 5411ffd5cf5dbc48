import io
import os
import pickle
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etngen import (EtnSignature, TemporalGraph, etn_cosine_distance, mine_counts,
                    prefix_of, read_counts, write_counts)
from etngen import etn, gen
from etngen.etn import PrefixKeys
from etngen.tempgraph import BucketKey, bucket_of
from oracles import (counts_as_strings, extract_etn, naive_mine,
                     naive_signature_strings)
from synth import er_layers, layer_edges, random_graph, window_of, window_strings


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

    def test_equal_signatures_hash_equal(self):
        a = sig("011", "110", "110")
        b = EtnSignature.decode("011|110|110", 3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((3, a.strings))
        assert {a: 1}[b] == 1 and EtnSignature(2) in {EtnSignature(2): 0}
        back = pickle.loads(pickle.dumps(a))
        assert back == a and hash(back) == hash(a) and repr(back) == repr(a)
        assert a != sig("011", "110") and a != EtnSignature(4, a.strings)


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
        [[(perm[i], perm[j]) for i, j in edges] for edges in layer_edges(g)],
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
    window = window_of(layer_edges(g)[:t_end + 1], g.node_count, width + extra)
    keys, bits, depth, n = window
    assert depth == min(t_end + 1, width + extra)
    assert np.all(keys[1:] > keys[:-1]) and np.all((bits > 0) & (bits < 1 << depth))
    for w in range(1, depth + 1):
        assert window_strings(window, ego, w) == extract_etn(g, ego, t_end, w).strings
    full = [window_strings(window, e, depth) for e in range(n)]
    assert np.unique(keys // n).tolist() == [e for e, strings in enumerate(full) if strings]


def test_neighbor_window_empty_layers():
    window = window_of([[], set()], 5, 3)  # an empty window meets an empty layer
    keys, bits, depth, n = window
    assert depth == 2 and keys.size == bits.size == 0
    none = np.zeros(0, dtype=np.int64)
    assert all(a is none for a in gen._window([none, none]))  # no numpy work
    assert PrefixKeys([sig("01")], 2).rows(keys // n, bits, n).tolist() == [-1] * 5
    layers = [[], set(), [(1, 3)], []]
    keys, bits, depth, n = window = window_of(layers, 5, 3)
    assert depth == 3 and np.unique(keys // n).tolist() == [1, 3]
    assert window_strings(window, 1, 3) == (2,) == window_strings(window, 3, 3)
    known = PrefixKeys([sig("010"), sig("001")], 3)
    rows = known.rows(keys // n, bits, n)
    assert rows.tolist() == [-1, 0, -1, 0, -1]
    keys, bits, depth, n = window_of(layers + [[], []], 5, 3)
    assert keys.size == 0
    assert known.rows(keys // n, bits, n).tolist() == [-1] * 5


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 30), max_size=12), min_size=1, max_size=5),
       st.data())
def test_or_by_key_matches_dict(parts, data):
    bits = data.draw(st.lists(st.integers(1, 2 ** 40), min_size=len(parts),
                              max_size=len(parts)))
    want: dict[int, int] = {}
    for part, bit in zip(parts, bits):
        for key in part:
            want[key] = want.get(key, 0) | bit
    keys, ors = etn._or_by_key([np.array(p, dtype=np.int64) for p in parts], bits)
    assert dict(zip(keys.tolist(), ors.tolist())) == want
    assert keys.tolist() == sorted(want)


def packed_runs(prefixes, width):
    """The strings of `prefixes` packed as `PrefixKeys.find` reads them."""
    lengths = np.array([len(p) for p in prefixes], dtype=np.int64)
    strings = np.array([s for p in prefixes for s in p], dtype=np.int64)
    return etn._pack(strings, np.cumsum(lengths) - lengths, width)


@st.composite
def long_prefixes(draw):
    """A width and prefixes of it drawn as a count per string value, so that
    many share their first chunks and differ in a later one: up to 8
    copies of each of the 2**width - 1 strings, which for width 3 is up to
    56 strings, three chunks of 20."""
    width = draw(st.integers(1, 4))
    counts = st.lists(st.integers(0, 8), min_size=(1 << width) - 1,
                      max_size=(1 << width) - 1).filter(any)
    drawn = draw(st.lists(counts, min_size=1, max_size=12))
    return width, [tuple(v for v, c in enumerate(cs, start=1) for _ in range(c))
                   for cs in drawn]


@settings(max_examples=200, deadline=None)
@given(long_prefixes(), st.data())
def test_prefix_keys_find_long_prefixes(case, data):
    width, prefixes = case
    distinct = list(dict.fromkeys(prefixes))
    members = data.draw(st.lists(st.sampled_from(distinct), unique=True))
    known = PrefixKeys([EtnSignature(width, p) for p in members], width)
    packed, chunks = packed_runs(prefixes, width)
    want = [members.index(p) if p in members else len(members) for p in prefixes]
    assert known.find(packed, chunks).tolist() == want


@st.composite
def runs_of_any_width(draw):
    """A string width in 2..61 and runs of its strings, drawn from a few
    distinct runs of up to three chunks, themselves drawn from a few
    strings, so that runs repeat and share leading chunks."""
    width = draw(st.integers(2, 61))
    per_chunk = 62 // width
    pool = draw(st.lists(st.integers(1, (1 << width) - 1), min_size=1, max_size=4,
                         unique=True))
    distinct = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                      max_size=3 * per_chunk).map(tuple),
                             min_size=1, max_size=6))
    return width, draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(runs_of_any_width())
def test_rank_levels_ranks_runs_lexicographically(case):
    width, runs = case
    levels, rank = etn._rank_levels(*packed_runs(runs, width))
    per_chunk = 62 // width
    most = max(-(-len(run) // per_chunk) for run in runs)
    # Each run's chunks, spelled out and padded with 0 to `most`.
    spelled = [tuple(sum(s << (width * i) for i, s in
                         enumerate(run[c * per_chunk:(c + 1) * per_chunk]))
                     for c in range(most)) for run in runs]
    rank = rank.tolist()
    for a in range(len(runs)):
        for b in range(len(runs)):
            assert (rank[a] == rank[b]) == (runs[a] == runs[b])
            assert (rank[a] < rank[b]) == (spelled[a] < spelled[b])
    assert sorted(set(rank)) == list(range(len(set(runs))))
    assert len(levels) == most
    sentinel = np.iinfo(np.int64).max
    for values, pairs in levels:
        for level in (values, pairs) if pairs is not None else (values,):
            assert level[-1] == sentinel and np.all(level[1:] > level[:-1])


def test_prefix_keys_tell_apart_later_chunks():
    # 20 strings of width 3 fill a chunk: these share their first chunk.
    one = (1,) * 20
    prefixes = [one, one + (1,), one + (2,), one + (1, 1), one + one + (7,)]
    known = PrefixKeys([EtnSignature(3, p) for p in prefixes[1:]], 3)
    assert known.find(*packed_runs(prefixes, 3)).tolist() == [4, 0, 1, 2, 3]
    assert packed_runs(prefixes, 3)[1].tolist() == [1, 2, 2, 2, 3]


@settings(max_examples=50, deadline=None)
@given(st.integers(25, 40), st.one_of(st.just(1.0), st.floats(0.6, 1.0)),
       st.integers(0, 2 ** 32), st.data())
def test_neighbor_window_rows_of_long_prefixes(n, p, seed, data):
    # Dense layers on 25 or more nodes give width-3 windows of more than 20
    # strings, more than one chunk.
    window = window_of(er_layers(n, 3, p, np.random.default_rng(seed)), n)
    prefixes = [window_strings(window, ego, 3) for ego in range(n)]
    distinct = sorted(set(prefixes) - {()})
    # Decoys one string shorter or longer share a first chunk with a window.
    decoys = {d for s in distinct for d in (s[:-1], s + (7,)) if len(d) > 20}
    members = data.draw(st.lists(st.sampled_from(sorted(set(distinct) | decoys)),
                                 unique=True))
    known = PrefixKeys([EtnSignature(3, s) for s in members], 3)
    want = [-1 if not s else members.index(s) if s in members else len(members)
            for s in prefixes]
    keys, bits, depth, _ = window
    assert known.rows(keys // n, bits, n).tolist() == want
    assert any(len(s) > 20 for s in prefixes)


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
        with threaded(cpus=3):
            b = mine_counts(g, 2, "daily", threads=3)
        assert a.table == b.table

    def test_small_graph_builds_no_executor(self):
        g = random_graph(n=9, m=6, seed=12)
        workers = []
        with on_cpus(4), mock.patch.object(etn, "ThreadPoolExecutor",
                                           recording_executor(workers)):
            mine_counts(g, 2, "daily", threads=4)
        assert workers == []

    def test_workers_capped_by_cpus(self):
        g = random_graph(n=9, m=6, seed=12)
        workers = []
        with threaded(cpus=2), mock.patch.object(etn, "ThreadPoolExecutor",
                                                 recording_executor(workers)):
            counts = mine_counts(g, 2, "daily", threads=10 ** 6)
        assert workers == [2]
        assert counts_as_strings(counts.table) == naive_mine(g, 2, "daily")

    def test_buckets_follow_wall_clock(self):
        g = TemporalGraph(2, [[(0, 1)]] * 14, 3600, epoch=0)
        counts = mine_counts(g, 1, "daily")
        hours = sorted(b.hour_of_day for b in counts.table)
        assert hours == list(range(1, 14))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 10 ** 6), st.integers(-10 ** 20, 10 ** 20),
           st.sampled_from(["daily", "weekly"]))
    def test_snapshot_buckets_are_bucket_of(self, m, gap, epoch, periodicity):
        g = TemporalGraph(2, [[]] * m, gap, epoch=epoch)
        arcs = etn._Arcs.of(g, periodicity)
        want = [bucket_of(g.time_of(t), periodicity) for t in range(m)]
        assert [arcs.keys[b] for b in arcs.bucket.tolist()] == want
        assert arcs.keys == tuple(dict.fromkeys(want))  # in order of first appearance

    def test_unknown_periodicity_rejected(self):
        g = random_graph(n=5, m=4, seed=1)
        with pytest.raises(ValueError, match="unknown periodicity 'hourly'"):
            mine_counts(g, 2, "hourly")

    def test_metadata(self):
        g = random_graph(n=5, m=4, seed=1, gap=600, epoch=1234)
        counts = mine_counts(g, 2, "daily")
        assert counts.k == 2
        assert counts.gap_seconds == 600
        assert counts.epoch == 1234
        assert counts.node_count == 5
        assert counts.first_layer_degrees == tuple(g.first_layer_degrees())


@contextmanager
def on_cpus(cpus):
    """The process may run on `cpus` CPUs, whatever the host has."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                           create=True):
        yield


@contextmanager
def threaded(cpus):
    """Mining starts its workers at any size, on `cpus` CPUs."""
    with on_cpus(cpus), mock.patch.object(etn, "_THREADED_ARC_WINDOWS", 0):
        yield


def recording_executor(workers):
    """A stand-in for `ThreadPoolExecutor` that appends each pool's
    `max_workers` to `workers` and maps in the calling thread."""
    class Executor:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)
    return Executor


def mined(g, k, periodicity="daily", threads=1, block=None):
    """`mine_counts`' table with string keys, mined in blocks of `block`
    window ends (the module's own size when None) by `threads` workers
    whatever the graph's size and the host's CPUs."""
    with mock.patch.object(etn, "_BLOCK", block or etn._BLOCK), threaded(threads):
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
