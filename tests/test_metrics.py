import io
import math
import pickle
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import jensenshannon

from etngen import (DISTANCE_NAMES, METRIC_KINDS, AggregatedGraph, Snapshot,
                    TemporalGraph, aggregated_metrics, compare, compute_report,
                    contact_durations, emd, hour_metrics, hour_slices,
                    js_divergence, kl_divergence, ks_distance,
                    snapshot_metrics, write_distances_csv, write_samples_csv)
from etngen import metrics
from etngen.metrics import (_DENSE, _all_pairs, _arcs, _assortativity,
                            _betweenness, _centralities, _dense_paths, _encode,
                            _float_distances, _hop_matrix, _hour_path_means,
                            _louvain, _modularity, _transitivity, distance,
                            format_cell)
from oracles import (_path_stats, dict_contact_durations, exact_betweenness_means,
                     nx_graph, nx_path_metrics, nx_report, nx_snapshot_metrics)
from synth import layered_graphs, sinusoidal_graph

GAP = 300
PER_HOUR = 3600 // GAP


def tg(n, layers, gap=GAP, epoch=0):
    return TemporalGraph(n, [Snapshot(e) for e in layers], gap, epoch=epoch)


def one_hour(n, *aggregated_edges):
    """Graph whose single hour slice has the given edge multiplicities."""
    layers = [set() for _ in range(PER_HOUR)]
    for (i, j), mult in aggregated_edges:
        assert mult <= PER_HOUR
        for t in range(mult):
            layers[t].add((i, j))
    return tg(n, layers)


def descending_path(n):
    """One layer holding the path n-1, n-2, ..., 0, then the same path
    without its middle edge: label propagation from the lowest id alone
    would need n rounds to cross it."""
    path = list(zip(range(n - 1, 0, -1), range(n - 2, -1, -1)))
    return TemporalGraph(n, [path, path[:n // 2] + path[n // 2 + 1:]], GAP)


class TestSnapshotMetrics:
    def test_reference_layer(self):
        g = tg(10, [{(0, 1), (1, 2), (3, 4)}])
        out = snapshot_metrics(g)
        assert out["density"] == [3 / 45]
        assert out["interacting_individuals"] == [5.0]
        assert out["connected_components"] == [2.0]
        assert out["new_conversations"] == []

    def test_empty_layer(self):
        out = snapshot_metrics(tg(4, [set()]))
        assert out["density"] == [0.0]
        assert out["interacting_individuals"] == [0.0]
        assert out["connected_components"] == [0.0]

    def test_new_conversations_counts_fresh_edges(self):
        g = tg(5, [{(0, 1)}, {(0, 1), (2, 3)}, set(), {(0, 1)}])
        out = snapshot_metrics(g)
        assert out["new_conversations"] == [1.0, 0.0, 1.0]

    def test_sample_counts(self):
        g = tg(6, [set()] * 7)
        out = snapshot_metrics(g)
        assert len(out["density"]) == 7
        assert len(out["new_conversations"]) == 6

    def test_isolated_nodes_not_components(self):
        out = snapshot_metrics(tg(50, [{(0, 1)}]))
        assert out["connected_components"] == [1.0]

    @given(layered_graphs())
    @example(TemporalGraph(0, [[]], GAP))
    @example(TemporalGraph(1, [[], []], GAP))
    @example(TemporalGraph(2, [[(0, 1)], [], [(1, 0)]], GAP))
    @settings(max_examples=100, deadline=None)
    def test_matches_networkx(self, g):
        assert snapshot_metrics(g) == nx_snapshot_metrics(g)

    def test_long_descending_path(self):
        g = descending_path(5000)
        out = snapshot_metrics(g)
        assert out["interacting_individuals"] == [5000.0, 5000.0]
        assert out["connected_components"] == [1.0, 2.0]
        assert out == nx_snapshot_metrics(g)


class TestContactDurations:
    def test_single_run(self):
        g = tg(3, [{(0, 1)}, {(0, 1)}, {(0, 1)}])
        assert contact_durations(g) == [3.0]

    def test_interrupted_run_averaged(self):
        g = tg(3, [{(0, 1)}, {(0, 1)}, set(), {(0, 1)}])
        assert contact_durations(g) == [1.5]

    def test_absent_pair_not_listed(self):
        assert contact_durations(tg(4, [set(), set()])) == []

    def test_pairs_sorted(self):
        g = tg(4, [{(2, 3)}, {(0, 1), (2, 3)}])
        assert contact_durations(g) == [1.0, 2.0]

    def test_run_open_at_end_counted(self):
        g = tg(3, [set(), {(1, 2)}])
        assert contact_durations(g) == [1.0]

    @given(layered_graphs())
    @example(TemporalGraph(0, [[]], GAP))
    @example(TemporalGraph(2, [[(0, 1)], [], [(1, 0)], [(0, 1)]], GAP))
    @settings(max_examples=100, deadline=None)
    def test_matches_dict_runs(self, g):
        assert contact_durations(g) == dict_contact_durations(g)


class TestHourMetrics:
    def test_star(self):
        g = one_hour(4, (((0, 1), 1)), (((0, 2), 1)), (((0, 3), 1)))
        out = hour_metrics(g)
        assert out["s_metric"] == [9.0]
        assert out["clustering"] == [0.0]
        assert out["assortativity"] == [pytest.approx(-1.0)]
        assert out["avg_shortest_path"] == [1.5]
        assert out["hour_closeness"] == [pytest.approx(0.7)]
        assert out["hour_betweenness_u"] == [pytest.approx(0.25)]

    def test_triangle(self):
        g = one_hour(3, (((0, 1), 1)), (((1, 2), 1)), (((0, 2), 1)))
        out = hour_metrics(g)
        assert out["clustering"] == [1.0]
        assert out["avg_shortest_path"] == [1.0]
        assert out["assortativity"] == []
        assert out["s_metric"] == [12.0]

    def test_single_edge(self):
        out = hour_metrics(one_hour(2, (((0, 1), 1))))
        assert out["clustering"] == [0.0]
        assert out["avg_shortest_path"] == [1.0]
        assert out["hour_closeness"] == [1.0]
        assert out["assortativity"] == []

    def test_aspl_on_largest_component(self):
        g = one_hour(5, (((0, 1), 1)), (((2, 3), 1)), (((3, 4), 1)))
        out = hour_metrics(g)
        assert out["avg_shortest_path"] == [pytest.approx(4 / 3)]

    def test_weight_changes_betweenness(self):
        g = one_hour(3, (((0, 1), 10)), (((1, 2), 10)), (((0, 2), 1)))
        out = hour_metrics(g)
        assert out["hour_betweenness_w"] == [pytest.approx(1 / 3)]
        assert out["hour_betweenness_u"] == [0.0]

    def test_empty_hours_skipped(self):
        layers = [set() for _ in range(3 * PER_HOUR)]
        layers[0].add((0, 1))
        layers[2 * PER_HOUR].add((1, 2))
        out = hour_metrics(tg(3, layers))
        assert len(out["clustering"]) == 2
        assert len(out["s_metric"]) == 2

    def test_no_edges_no_samples(self):
        out = hour_metrics(tg(3, [set(), set()]))
        assert all(v == [] for v in out.values())

    def test_modularity_bounded_and_deterministic(self):
        rng = np.random.default_rng(3)
        layers = [{(int(i), int(j)) for i, j in
                   rng.integers(0, 12, size=(8, 2)) if i != j}
                  for _ in range(PER_HOUR)]
        g = tg(12, layers)
        a = hour_metrics(g, louvain_seed=0)
        b = hour_metrics(g, louvain_seed=0)
        assert a == b
        assert all(-0.5 <= q <= 1.0 for q in a["modularity"])


class TestAggregatedMetrics:
    def test_path_graph(self):
        g = tg(3, [{(0, 1)}, {(1, 2)}])
        out = aggregated_metrics(g)
        assert out["agg_betweenness_u"] == [0.0, 1.0, 0.0]
        assert out["agg_betweenness_w"] == [0.0, 1.0, 0.0]
        assert out["agg_closeness"] == [pytest.approx(2 / 3), 1.0,
                                        pytest.approx(2 / 3)]
        assert out["edge_strength"] == [1.0, 1.0]

    def test_strength_counts_layers(self):
        g = tg(2, [{(0, 1)}, {(0, 1)}, {(0, 1)}])
        assert aggregated_metrics(g)["edge_strength"] == [3.0]

    def test_equal_weights_match_unweighted(self):
        g = tg(5, [{(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}] * 2)
        out = aggregated_metrics(g)
        assert out["agg_betweenness_w"] == out["agg_betweenness_u"]

    def test_empty_graph(self):
        out = aggregated_metrics(tg(3, [set()]))
        assert all(v == [] for v in out.values())


def assert_paths_match_networkx(agg):
    """Exact float equality, node by node, with networkx's own algorithms."""
    stats = _path_stats(_encode(agg))
    graph = nx_graph(agg)
    bw, bu, cl, asp = nx_path_metrics(graph)
    assert stats.nodes == list(graph.nodes())
    assert stats.betweenness_w == list(bw.values())
    assert stats.betweenness_u == list(bu.values())
    assert stats.closeness == list(cl.values())
    assert stats.avg_shortest_path == asp


PATH_3 = {(0, 1): 1, (1, 2): 1}
TRIANGLE = {(3, 4): 1, (4, 5): 1, (3, 5): 1}


class TestPathStatsOracle:
    @pytest.mark.parametrize("weights, expected_asp", [
        ({**PATH_3, **TRIANGLE}, 4 / 3),  # equal sizes: first component wins
        ({**TRIANGLE, **PATH_3}, 1.0),
        ({(0, 1): 2, (1, 2): 2, (0, 2): 1}, 1.0),  # 1/2 + 1/2 == 1/1
        ({(0, 1): 2, (1, 2): 2, (0, 3): 2, (3, 2): 2, (0, 2): 1,
          (2, 4): 4, (4, 5): 4, (2, 5): 2}, None),  # three tied 0-2 paths
        ({(7, 4): 3}, 1.0),  # two nodes: no rescale
        ({(0, k): k for k in range(1, 7)}, None),  # star
        ({(i, j): 1 + (i * j) % 3 for i in range(6) for j in range(i + 1, 6)},
         1.0),  # complete
    ], ids=["path-then-triangle", "triangle-then-path", "dijkstra-tie",
            "dijkstra-ties-and-tail", "two-nodes", "star", "complete"])
    def test_fixed_graphs(self, weights, expected_asp):
        agg = AggregatedGraph(weights)
        assert_paths_match_networkx(agg)
        if expected_asp is not None:
            assert _path_stats(_encode(agg)).avg_shortest_path == expected_asp

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.sampled_from((1, 1, 2, 2, 3, 4, 6))),
                    min_size=1, max_size=30))
    def test_random_weighted_graphs(self, edges):
        weights = {(i, j): w for i, j, w in edges if i != j}
        if weights:
            assert_paths_match_networkx(AggregatedGraph(weights))

    # A slip in neighbour or tie order changes the sums' rounding only on
    # dense graphs with many equal-length paths: reversed Dijkstra neighbour
    # lists showed in 9 of 20 seeds at n=40, p=0.7, and in none at p=0.4.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1))
    @example(40, 0.7, 0)
    @example(40, 0.7, 4)
    def test_random_dense_graphs(self, n, p, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(n).tolist()
        weights = {}
        for i, j in rng.permutation(np.argwhere(np.triu(rng.random((n, n)) < p, 1))):
            weights[(labels[i], labels[j])] = int(rng.integers(1, 13))
        if weights:
            assert_paths_match_networkx(AggregatedGraph(weights))


def assert_hour_means_match(agg):
    """The all-pairs hour pass against networkx: ASP and mean closeness
    bit for bit, the betweenness means within 1e-12 relative, and the
    betweenness means equal to the exact enumeration, correctly rounded."""
    asp, bw, bu, cl = _hour_path_means(_encode(agg))
    nbw, nbu, ncl, nasp = nx_path_metrics(nx_graph(agg))
    assert asp == nasp
    assert cl == sum(ncl.values()) / len(ncl)
    assert bw == pytest.approx(sum(nbw.values()) / len(nbw), rel=1e-12, abs=0)
    assert bu == pytest.approx(sum(nbu.values()) / len(nbu), rel=1e-12, abs=0)
    if len(ncl) <= 8:
        ebw, ebu = exact_betweenness_means(agg)
        assert (bw, bu) == (float(ebw), float(ebu))


# From node 0 the path 0-1-2-3-4 (lengths 1/2, 1/3, 1/3, 1/3) sums to
# 1.4999999999999998 in float and 0-5-4 (1, 1/2) to 1.5, so networkx keeps
# one shortest 0-4 path where exact lengths tie; from node 4 both sum to 1.5.
FLOAT_TIE = {(0, 1): 2, (1, 2): 3, (2, 3): 3, (3, 4): 3, (0, 5): 1, (5, 4): 2}


def diamond_chain(links):
    """`links` diamonds in a row: 2**links shortest paths end to end."""
    weights = {}
    for d in range(links):
        a, b, c = 3 * d, 3 * d + 1, 3 * d + 2
        weights.update({(a, b): 1, (a, c): 1, (b, a + 3): 1, (c, a + 3): 1})
    return weights


class TestHourPathMeans:
    @pytest.mark.parametrize("weights", [
        {**PATH_3, **TRIANGLE},
        {**TRIANGLE, **PATH_3},
        {(0, 1): 2, (1, 2): 2, (0, 2): 1},
        {(0, 1): 2, (1, 2): 2, (0, 3): 2, (3, 2): 2, (0, 2): 1,
         (2, 4): 4, (4, 5): 4, (2, 5): 2},
        {(7, 4): 3},
        {(0, k): k for k in range(1, 7)},
        {(i, j): 1 + (i * j) % 3 for i in range(6) for j in range(i + 1, 6)},
        FLOAT_TIE,
        {(0, 1): 2999, (1, 2): 3001, (2, 3): 3011, (0, 3): 3019, (1, 3): 3023},
    ], ids=["path-then-triangle", "triangle-then-path", "dijkstra-tie",
            "dijkstra-ties-and-tail", "two-nodes", "star", "complete",
            "float-tie", "large-prime-weights"])
    def test_fixed_graphs(self, weights):
        assert_hour_means_match(AggregatedGraph(weights))

    def test_float_tie_differs_from_exact_ties(self):
        # networkx with exact lengths keeps both 0-4 paths from node 0 too.
        agg = AggregatedGraph(FLOAT_TIE)
        graph = nx_graph(agg)
        for _, _, data in graph.edges(data=True):
            data["exact"] = Fraction(1, data["weight"])
        exact = nx.betweenness_centrality(graph, weight="exact")
        _, bw, _, _ = _hour_path_means(_encode(agg))
        assert bw != pytest.approx(sum(exact.values()) / len(exact), rel=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                              st.integers(1, 12)),
                    min_size=1, max_size=12))
    # From node 0, 0-2-3-1 and 0-2-4-3-1 both sum to 1.45 in float, but the
    # prefix 0-2-3 (0.45) is longer than 0-2-4-3 (0.44999999999999996), so
    # networkx counts only the second.
    @example([(0, 2, 5), (1, 3, 1), (2, 3, 4), (2, 4, 12), (3, 4, 6)])
    def test_equal_exact_enumeration(self, edges):
        weights = {(i, j): w for i, j, w in edges if i != j}
        if weights:
            assert_hour_means_match(AggregatedGraph(weights))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1))
    @example(40, 0.7, 0)
    def test_random_dense_graphs(self, n, p, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(n).tolist()
        weights = {}
        for i, j in rng.permutation(np.argwhere(np.triu(rng.random((n, n)) < p, 1))):
            weights[(labels[i], labels[j])] = int(rng.integers(1, 13))
        if weights:
            assert_hour_means_match(AggregatedGraph(weights))

    def test_uncountable_paths_fall_back_to_path_stats(self):
        # 2**50 shortest paths of 100 hops end to end: past 2**53 summed hops.
        weights = diamond_chain(50)
        g = one_hour(1 + max(max(e) for e in weights), *((e, 1) for e in weights))
        agg = hour_slices(g)[0]
        assert _hour_path_means(_encode(agg)) is None
        out = hour_metrics(g)
        bw, bu, cl, asp = nx_path_metrics(nx_graph(agg))
        assert out["avg_shortest_path"] == [asp]
        assert out["hour_betweenness_w"] == [sum(bw.values()) / len(bw)]
        assert out["hour_betweenness_u"] == [sum(bu.values()) / len(bu)]
        assert out["hour_closeness"] == [sum(cl.values()) / len(cl)]

    def test_countable_chain_stays_exact(self):
        assert_hour_means_match(AggregatedGraph(diamond_chain(2)))
        agg = AggregatedGraph(diamond_chain(40))
        assert _hour_path_means(_encode(agg)) is not None


def _edge_dict(edges) -> dict:
    return {(i, j): w for i, j, w in edges if i != j}


_WEIGHT = st.integers(1, 12)
_RANDOM = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), _WEIGHT),
                   min_size=1, max_size=30).map(_edge_dict)
# All weights equal: many modularity gains tie exactly.
_EQUAL = st.tuples(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                            min_size=1, max_size=30), _WEIGHT).map(
    lambda pairs_w: {(i, j): pairs_w[1] for i, j in pairs_w[0] if i != j})
_COMPONENTS = st.lists(_RANDOM | _EQUAL, min_size=2, max_size=3).map(
    lambda parts: {(i + 12 * c, j + 12 * c): w for c, part in enumerate(parts)
                   for (i, j), w in part.items()})
_STAR = st.tuples(st.integers(0, 12), st.lists(_WEIGHT, min_size=1, max_size=12)).map(
    lambda cw: {(cw[0], cw[0] + 1 + k): w for k, w in enumerate(cw[1])})
_SINGLE_EDGE = st.tuples(st.integers(0, 40), st.integers(0, 40), _WEIGHT).map(
    lambda e: _edge_dict([e]))
HOUR_GRAPHS = (_RANDOM | _EQUAL | _COMPONENTS | _STAR | _SINGLE_EDGE).filter(bool)


def assert_centralities_match(agg):
    """The all-sources engine against networkx and the per-source oracle,
    node by node: closeness and the average shortest path bit for bit,
    betweenness within 1e-12 relative."""
    graph = _encode(agg)
    ours = _centralities(graph)
    oracle = _path_stats(graph)
    nbw, nbu, ncl, nasp = nx_path_metrics(nx_graph(agg))
    assert ours.closeness == oracle.closeness == list(ncl.values())
    assert ours.avg_shortest_path == oracle.avg_shortest_path == nasp
    for mine, theirs, reference in ((ours.betweenness_w, oracle.betweenness_w, nbw),
                                    (ours.betweenness_u, oracle.betweenness_u, nbu)):
        assert mine == pytest.approx(theirs, rel=1e-12, abs=0)
        assert mine == pytest.approx(list(reference.values()), rel=1e-12, abs=0)


def assert_kernels_agree(agg):
    """The dense and the frontier kernel give the same bytes: hops,
    distances, and the betweenness computed from either."""
    arcs = _arcs(_encode(agg))
    hops, dist = _dense_paths(arcs)
    sparse_hops, sparse_dist = _hop_matrix(arcs), _float_distances(arcs)
    assert hops.dtype == sparse_hops.dtype and dist.dtype == sparse_dist.dtype
    assert hops.tobytes() == sparse_hops.tobytes()
    assert dist.tobytes() == sparse_dist.tobytes()
    for dense, sparse, step in ((dist, sparse_dist, arcs.length),
                                (hops, sparse_hops, 1)):
        assert (_betweenness(arcs, dense, step).tobytes()
                == _betweenness(arcs, sparse, step).tobytes())


def random_weights(n, p, seed, top=12):
    """A G(n, p) graph with labels shuffled, edges in shuffled order and
    weights 1..top."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(n).tolist()
    weights = {}
    for i, j in rng.permutation(np.argwhere(np.triu(rng.random((n, n)) < p, 1))):
        weights[(labels[i], labels[j])] = int(rng.integers(1, top + 1))
    return weights


# An 11-cycle has 22 arcs of 110 ordered pairs: exactly the dense density.
CYCLE_11 = {(i, (i + 1) % 11): 1 + i % 4 for i in range(11)}
# 256 shortest paths from node 0 to node 1: a per-level product that counts
# paths in uint8 wraps to 0 there, and node 1 looks unreachable.
FAN_256 = {**{(0, k): 1 for k in range(2, 258)}, **{(k, 1): 2 for k in range(2, 258)}}
PINNED_CENTRALITY_GRAPHS = [
    FLOAT_TIE,
    {(7, 4): 3},  # two nodes: no normalisation
    {**PATH_3, **TRIANGLE, (10, 11): 5, (12, 13): 1, (13, 14): 2},  # components
    {(0, 1): 1152, (1, 2): 1151, (0, 2): 1, (2, 3): 577, (1, 3): 576,
     (3, 4): 1152, (0, 4): 2},  # weights up to the snapshot count of 4 days
    CYCLE_11,
    {(0, k): 1 + k % 7 for k in range(1, 301)},  # star with 300 leaves
    FAN_256,
]
_CENTRALITY_GRAPHS = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 1152)),
    min_size=1, max_size=30).map(_edge_dict) | HOUR_GRAPHS


class TestCentralities:
    """`_centralities`, the aggregate's per-node engine: networkx's values,
    from either all-pairs kernel."""

    @pytest.mark.parametrize("weights", PINNED_CENTRALITY_GRAPHS,
                             ids=["float-tie", "two-nodes", "components",
                                  "weights-to-1152", "at-threshold", "star-300",
                                  "fan-256"])
    def test_pinned_graphs(self, weights):
        agg = AggregatedGraph(weights)
        assert_kernels_agree(agg)
        assert_centralities_match(agg)

    @settings(max_examples=200, deadline=None)
    @given(_CENTRALITY_GRAPHS.filter(bool))
    def test_random_weighted_graphs(self, weights):
        agg = AggregatedGraph(weights)
        assert_kernels_agree(agg)
        assert_centralities_match(agg)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 70), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1),
           st.sampled_from((12, 1152)))
    @example(40, 0.7, 0, 12)
    @example(60, 0.9, 1, 1152)
    def test_random_dense_graphs(self, n, p, seed, top):
        weights = random_weights(n, p, seed, top)
        if weights:
            agg = AggregatedGraph(weights)
            assert_kernels_agree(agg)
            assert_centralities_match(agg)

    def test_density_selects_the_kernel(self, monkeypatch):
        dense = []
        monkeypatch.setattr(metrics, "_dense_paths",
                            lambda arcs: dense.append(arcs.n) or _dense_paths(arcs))
        path_10 = {e: w for e, w in CYCLE_11.items() if e != (10, 0)}
        assert 22 == _DENSE * 11 * 10
        _all_pairs(_arcs(_encode(AggregatedGraph(CYCLE_11))))
        _all_pairs(_arcs(_encode(AggregatedGraph(path_10))))
        assert dense == [11]

    def test_aggregated_metrics_sorted_by_node(self):
        weights = random_weights(30, 0.5, 3)
        g = one_hour(30, *((e, 1 + w % PER_HOUR) for e, w in weights.items()))
        agg = hour_slices(g)[0]
        bw, bu, cl, _ = nx_path_metrics(nx_graph(agg))
        out = aggregated_metrics(g)
        assert out["agg_closeness"] == [cl[u] for u in range(30)]
        assert out["agg_betweenness_w"] == pytest.approx(
            [bw[u] for u in range(30)], rel=1e-12, abs=0)
        assert out["agg_betweenness_u"] == pytest.approx(
            [bu[u] for u in range(30)], rel=1e-12, abs=0)

def assert_hour_ports_match_networkx(weights, seed):
    """Louvain's partition (as an ordered list of sets), modularity to the
    bit, transitivity and assortativity equal to networkx's on the same
    graph; a regular graph's assortativity is NaN in networkx, and
    `hour_metrics` skips it."""
    agg = AggregatedGraph(weights)
    graph = _encode(agg)
    reference = nx_graph(agg)
    communities = nx.community.louvain_communities(reference, weight="weight",
                                                   seed=seed)
    ours = _louvain(graph, seed)
    assert [{graph.labels[u] for u in c} for c in ours] == communities
    q = nx.community.modularity(reference, communities, weight="weight")
    assert _modularity(graph.adj, ours).hex() == q.hex()
    degrees = [len(a) for a in graph.adj]
    clustering = float(nx.transitivity(reference))
    assert _transitivity(graph, degrees).hex() == clustering.hex()
    with np.errstate(invalid="ignore", divide="ignore"):
        r = nx.degree_assortativity_coefficient(reference)
    if len(set(degrees)) > 1:
        assert _assortativity(graph, degrees).hex() == r.hex()
    else:
        assert math.isnan(r)


class TestHourPortsOracle:
    # Each pinned example tells networkx's rules from a plausible slip: a
    # gain >= 0 or >= the best so far moves a node on ties (the path of
    # three edges); leaving the node's own community out of the candidates
    # lets a rival whose gain only rounds above zero win (the equal
    # weights); keeping the input's neighbour order instead of rebuilding
    # from G.edges() breaks a tie the other way (the 4-cycle, seed 1); and a
    # single normalisation of the mixing matrix rounds differently (the
    # star with a tail).
    @settings(max_examples=300, deadline=None)
    @given(HOUR_GRAPHS, st.integers(0, 3))
    @example({(1, 4): 1, (0, 2): 1, (1, 3): 1}, 0)
    @example({(10, 7): 7, (10, 9): 7, (1, 0): 7, (2, 3): 7, (8, 0): 7, (5, 9): 7,
              (9, 4): 7}, 0)
    @example({(9, 8): 1, (1, 9): 1, (6, 1): 1, (6, 8): 1}, 1)
    @example({(0, 1): 1, (0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 1, (1, 2): 1}, 0)
    def test_random_graphs(self, weights, seed):
        assert_hour_ports_match_networkx(weights, seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1),
           st.integers(0, 3))
    @example(56, 0.05078125, 0, 0)
    def test_random_dense_graphs(self, n, p, graph_seed, seed):
        rng = np.random.default_rng(graph_seed)
        labels = rng.permutation(n).tolist()
        weights = {}
        for i, j in rng.permutation(np.argwhere(np.triu(rng.random((n, n)) < p, 1))):
            weights[(labels[i], labels[j])] = int(rng.integers(1, 13))
        if weights:
            assert_hour_ports_match_networkx(weights, seed)

    @pytest.mark.parametrize("weights", [
        {(0, 1): 3},
        {(0, 1): 1, (1, 2): 1, (0, 2): 1},
        {(i, (i + 1) % 6): 2 for i in range(6)},
        {(0, 1): 1, (2, 3): 5, (4, 5): 12},
    ], ids=["edge", "triangle", "cycle", "matching"])
    def test_regular_hours_skip_assortativity(self, weights):
        assert_hour_ports_match_networkx(weights, 0)
        g = one_hour(1 + max(max(e) for e in weights), *weights.items())
        assert hour_metrics(g)["assortativity"] == []


class TestComputeReport:
    def test_samples_match_networkx_report(self):
        g = sinusoidal_graph(n=24, days=1, peak_p=0.06, seed=5)
        report = compute_report(g)
        assert len(report.samples["hour_closeness"]) >= 5
        ours, theirs = io.StringIO(), io.StringIO()
        write_samples_csv(report, ours)
        write_samples_csv(nx_report(g), theirs)
        assert ours.getvalue() == theirs.getvalue()

    def test_builds_no_networkx_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a networkx graph was built")

        g = sinusoidal_graph(n=24, days=1, peak_p=0.06, seed=5)
        monkeypatch.setattr(nx.Graph, "__init__", refuse)
        with pytest.raises(AssertionError):
            nx.Graph()
        assert compute_report(g).samples["modularity"]

    @pytest.mark.parametrize("n, days, seed", [(30, 1, 1), (50, 2, 2)])
    def test_same_report_after_pickle_round_trip(self, n, days, seed):
        # Unpickling rebuilds each snapshot's frozenset and may change its
        # iteration order; the report must not follow it. With aggregates
        # built in set order these graphs gave different hour_closeness
        # (first) and modularity and aggregate betweenness (second).
        g = sinusoidal_graph(n=n, days=days, seed=seed)
        again = pickle.loads(pickle.dumps(g))
        assert again == g
        assert compute_report(again) == compute_report(g)

    def test_all_seventeen_metrics_present(self):
        g = tg(5, [{(0, 1)}, {(1, 2)}])
        report = compute_report(g)
        assert tuple(report.samples) == tuple(METRIC_KINDS)

    def test_metadata_conventions(self):
        report = compute_report(tg(3, [{(0, 1)}]))
        assert report.metadata["density_denominator"] == "all-nodes"
        assert report.metadata["connected_components"] == "isolated-nodes-excluded"


class TestKs:
    def test_identical(self):
        assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint(self):
        assert ks_distance([0.0, 0.0], [5.0, 5.0]) == 1.0

    def test_ties(self):
        assert ks_distance([1.0, 2.0], [1.0, 1.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.integers(0, 6, size=int(rng.integers(1, 40)))
            b = rng.integers(0, 6, size=int(rng.integers(1, 40)))
            want = stats.ks_2samp(a, b).statistic
            assert abs(ks_distance(list(a), list(b)) - want) < 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        d = ks_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == ks_distance(b, a)


def smoothed(a, b, bins=100, eps=1e-10):
    lo, hi = min(min(a), min(b)), max(max(a), max(b))
    edges = np.linspace(lo, hi, bins + 1)
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    return ((ca + eps) / (ca.sum() + bins * eps),
            (cb + eps) / (cb.sum() + bins * eps))


class TestDivergences:
    def test_kl_self_is_zero(self):
        assert kl_divergence([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_js_self_is_zero(self):
        assert js_divergence([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_degenerate_joint_range(self):
        assert kl_divergence([5.0, 5.0], [5.0]) == 0.0
        assert js_divergence([5.0, 5.0], [5.0]) == 0.0

    def test_disjoint_masses(self):
        a, b = [0.0] * 5, [1.0] * 5
        assert kl_divergence(a, b) > 20.0
        assert abs(js_divergence(a, b) - math.log(2)) < 1e-6

    def test_kl_asymmetric(self):
        a = [0.0] * 9 + [1.0]
        b = [0.0, 1.0]
        assert kl_divergence(a, b) != kl_divergence(b, a)

    def test_kl_matches_scipy_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.normal(0, 1, size=int(rng.integers(2, 60)))
            b = rng.normal(0.5, 2, size=int(rng.integers(2, 60)))
            p, q = smoothed(a, b)
            assert kl_divergence(a, b) == pytest.approx(
                float(stats.entropy(p, q)), abs=1e-10)

    def test_js_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.normal(0, 1, size=int(rng.integers(2, 60)))
            b = rng.normal(1, 1, size=int(rng.integers(2, 60)))
            p, q = smoothed(a, b)
            assert js_divergence(a, b) == pytest.approx(
                float(jensenshannon(p, q) ** 2), abs=1e-10)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_js_symmetric_and_bounded(self, a, b):
        d = js_divergence(a, b)
        assert d == pytest.approx(js_divergence(b, a), abs=1e-12)
        assert -1e-12 <= d <= math.log(2) + 1e-9

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_kl_nonnegative(self, a, b):
        assert kl_divergence(a, b) >= -1e-12


class TestEmd:
    def test_unit_shift(self):
        assert emd([0.0], [1.0]) == 1.0

    def test_half_mass_moved(self):
        assert emd([0.0, 0.0], [0.0, 1.0]) == 0.5

    def test_parallel_shift(self):
        assert emd([0.0, 1.0], [1.0, 2.0]) == 1.0

    def test_identical(self):
        assert emd([3.0, 3.0], [3.0]) == 0.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.normal(0, 3, size=int(rng.integers(1, 50)))
            b = rng.normal(1, 1, size=int(rng.integers(1, 50)))
            want = stats.wasserstein_distance(a, b)
            assert emd(a, b) == pytest.approx(want, abs=1e-9)

    def test_bernoulli_mean_gap(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=10_000).astype(float)
        assert abs(emd(a, [0.0]) - 0.5) <= 0.02

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert emd(a, c) <= emd(a, b) + emd(b, c) + 1e-6


def busy_graph():
    """Two nonempty hours; every metric family produces samples."""
    layers = [set() for _ in range(2 * PER_HOUR)]
    for t in range(PER_HOUR):
        layers[t] |= {(0, 1), (0, 2), (0, 3)}
        if t % 2 == 0:
            layers[t].add((4, 5))
    for t in range(PER_HOUR, 2 * PER_HOUR):
        layers[t] |= {(1, 2), (2, 3), (1, 3)}
        if t % 3 == 0:
            layers[t].add((0, 4))
    return tg(8, layers)


class TestCompare:
    def test_graph_against_itself_is_zero(self):
        r = compute_report(busy_graph())
        report = compare(r, r)
        assert len(report.values) == 17 * 4
        for (metric, name), value in report.values.items():
            assert value == 0.0, (metric, name)

    def test_empty_sample_lists_become_nan(self):
        a = tg(4, [set(), set(), set()])
        b = tg(4, [set(), set(), set()])
        report = compare(compute_report(a), compute_report(b))
        assert math.isnan(report.values[("contact_duration", "ks")])
        assert report.values[("density", "ks")] == 0.0

    def test_kl_direction_is_original_first(self):
        g1 = busy_graph()
        layers = [{(0, 1)} if t % 4 else {(0, 1), (2, 3), (4, 5)}
                  for t in range(2 * PER_HOUR)]
        g2 = tg(8, layers)
        report = compare(compute_report(g1), compute_report(g2),
                         distances=("kl",))
        d1 = compute_report(g1).samples["density"]
        d2 = compute_report(g2).samples["density"]
        assert report.values[("density", "kl")] == kl_divergence(d1, d2)

    def test_distance_subset(self):
        r = compute_report(busy_graph())
        report = compare(r, r, distances=("ks",))
        assert set(report.values) == {(m, "ks") for m in METRIC_KINDS}

    def test_distance_is_nan_on_empty_samples(self):
        assert math.isnan(distance("ks", [], [1.0]))
        assert math.isnan(distance("emd", [1.0], []))
        assert distance("js", [1.0, 2.0], [2.0]) == js_divergence([1.0, 2.0], [2.0])

    def test_cell_format(self):
        assert format_cell(math.nan) == ""
        assert format_cell(1 / 3) == "0.3333333333"
        assert format_cell(0.0) == "0"

    def test_unknown_distance_rejected(self):
        r = compute_report(tg(3, [{(0, 1)}]))
        with pytest.raises(ValueError, match="unknown distance"):
            compare(r, r, distances=("ks", "chi2"))


class TestCsv:
    def test_distances_layout(self):
        r = compute_report(busy_graph())
        sink = io.StringIO()
        write_distances_csv(compare(r, r), sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "metric,kind," + ",".join(DISTANCE_NAMES)
        assert len(lines) == 1 + 17
        assert lines[1].startswith("density,per-snapshot,")

    def test_nan_cells_left_blank(self):
        r = compute_report(tg(4, [set(), set()]))
        sink = io.StringIO()
        write_distances_csv(compare(r, r), sink)
        row = next(line for line in sink.getvalue().splitlines()
                   if line.startswith("contact_duration,"))
        assert row == "contact_duration,per-edge,,,,"

    def test_samples_layout(self):
        sink = io.StringIO()
        write_samples_csv(compute_report(tg(4, [{(0, 1)}, {(0, 1)}])), sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "metric,index,value"
        assert "density,0,0.1666666667" in lines
        assert "contact_duration,0,2" in lines
