"""Topological metric distributions and distribution distances.

Seventeen metric families are collected as empirical sample lists: four per
snapshot, contact duration per node pair, eight per wall-clock hour, and
four on the full aggregated projection. Reports from two graphs are compared
with KS, Jensen-Shannon, Kullback-Leibler and earth-mover distances.

Every graph metric works on one `_Graph` encoding per aggregated graph,
built without networkx, which keeps networkx's node and neighbour order for
a graph built edge by edge from the aggregate's weights. Each value equals
networkx 3.6.1's bit for bit, except the betweenness values (below).

The shortest-path families come from one sweep over the sources, in chunks
in node order, with no per-source Python search. Each chunk gets its rows
of two all-pairs matrices: hop distances, and networkx's float Dijkstra
distances (length 1/weight) as Bellman-Ford computes them. Sparse graphs
get them from frontier expansions over the arcs, dense ones from a kernel
on n x n matrices; both give the same bytes. A chunk holds as many sources
as keep its temporaries, sources times arcs (n^2 in the dense kernel),
within one entry budget, so no n x n matrix of paths is ever held. The rows
feed every sum and are then dropped. Every sum over sources runs source by
source in node order, so no value depends on the chunk size. Closeness and
the average shortest path follow from the hop rows in networkx's operation
order, bit-identical to networkx's.

Per source, one tight-arc test finds the arcs of the shortest-path DAG, and
each caller relaxes forward over them for the values it reads. Per hour
graph, shortest-path counts sigma and their summed hops H give the node means
of weighted and unweighted betweenness with no per-node values: a sum over
node pairs of the mean interior node count of their shortest paths (Brandes
2008), summed exactly in integers. They agree with networkx to about 1e-15
relative, ties being networkx's float `==` ties. An hour whose path counts
exceed float64's exact integers takes the means of the per-node values
instead. The full aggregate's per-node betweenness comes from sigma and the
DAG depths by Brandes' dependency recursion (Brandes 2001): dependencies
backward by DAG depth. It agrees with networkx to about 1e-15 relative.

The other hour metrics are ports of networkx's functions that keep its
operation order: the s-metric, transitivity, degree assortativity (Newman
2003) and Louvain communities (Blondel et al. 2008) with their modularity.
Louvain sums a node's weights to the neighbouring communities as exact
integers in one flat list reused from node to node, and skips a node whose
only candidate is its own community. Each level's modularity is read off the
next level graph, whose self-loops and degrees are the communities' internal
weights and degree sums, with networkx's integers and float operations.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count
from typing import IO, Iterable, Iterator, Sequence

# Unused here. The benchmark harness records the networkx version from the
# modules that importing etngen loads; the import goes once it stops.
import networkx  # noqa: F401
import numpy as np

from .tempgraph import AggregatedGraph, TemporalGraph, aggregate, hour_slices

HOUR_METRICS = ("s_metric", "clustering", "assortativity", "avg_shortest_path",
                "modularity", "hour_betweenness_w", "hour_betweenness_u",
                "hour_closeness")
AGG_METRICS = ("agg_betweenness_w", "agg_betweenness_u", "agg_closeness",
               "edge_strength")

METRIC_KINDS: dict[str, str] = {
    "density": "per-snapshot",
    "interacting_individuals": "per-snapshot",
    "new_conversations": "per-snapshot",
    "connected_components": "per-snapshot",
    "contact_duration": "per-edge",
    "s_metric": "per-hour",
    "clustering": "per-hour",
    "assortativity": "per-hour",
    "avg_shortest_path": "per-hour",
    "modularity": "per-hour",
    "hour_betweenness_w": "per-hour",
    "hour_betweenness_u": "per-hour",
    "hour_closeness": "per-hour",
    "agg_betweenness_w": "per-node",
    "agg_betweenness_u": "per-node",
    "agg_closeness": "per-node",
    "edge_strength": "per-edge",
}

DISTANCE_NAMES = ("ks", "js", "kl", "emd")


@dataclass
class MetricReport:
    """Empirical sample lists per metric, plus convention metadata."""

    samples: dict[str, list[float]]
    metadata: dict[str, str] = field(default_factory=lambda: {
        "density_denominator": "all-nodes",
        "connected_components": "isolated-nodes-excluded",
    })


@dataclass
class DistanceReport:
    """One value per (metric, distance kind); NaN when a sample list is empty."""

    values: dict[tuple[str, str], float]
    distances: tuple[str, ...] = DISTANCE_NAMES


def _pair_ranks(g: TemporalGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """Each table row's layer and the rank of its (i, j) among the distinct
    pairs P, whose number it returns too: layer * P + rank ascends."""
    i, j = g.pairs.T.astype(np.int64)
    layer = np.repeat(np.arange(g.n_snapshots, dtype=np.int64), np.diff(g.offsets))
    distinct, rank = np.unique(i * g.node_count + j, return_inverse=True)
    return layer, rank, distinct.size


def _layer_components(g: TemporalGraph, layer: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per layer, the nodes with an edge and their connected components,
    `layer` being each table row's layer: min-label propagation over the
    sorted (layer, node) keys. Each round hooks both ends' labels to the
    smaller one, then jumps labels to their labels' labels until each
    labels itself; a component is a key that labels itself once every
    edge's ends share a label."""
    n, m = g.node_count, g.n_snapshots
    keys, at = np.unique(g.pairs.T.astype(np.int64) + layer * n, return_inverse=True)
    a, b = at.reshape(2, -1)
    label = np.arange(keys.size)
    while not np.array_equal(la := label[a], lb := label[b]):
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while not np.array_equal(label, jumped := label[label]):
            label = jumped
    key_layer = keys // max(n, 1)
    roots = key_layer[label == np.arange(keys.size)]
    return np.bincount(key_layer, minlength=m), np.bincount(roots, minlength=m)


def snapshot_metrics(g: TemporalGraph) -> dict[str, list[float]]:
    """Per-layer density, active node count, new edges, component count,
    from the edge table. Density uses all N nodes in the denominator;
    new_conversations has m-1 samples: a row is new unless its pair's key
    one layer earlier (`_pair_ranks`) is a row too."""
    if g.n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    n = g.node_count
    possible = n * (n - 1) / 2
    sizes = np.diff(g.offsets)
    layer, rank, n_pairs = _pair_ranks(g)
    active, components = _layer_components(g, layer)
    key = layer * n_pairs + rank
    before = key - n_pairs
    seen = key[np.minimum(np.searchsorted(key, before), key.size - 1)] == before
    new = sizes - np.bincount(layer[seen], minlength=g.n_snapshots)
    return {
        "density": (sizes / possible).tolist() if possible else [0.0] * g.n_snapshots,
        "interacting_individuals": active.astype(float).tolist(),
        "new_conversations": new[1:].astype(float).tolist(),
        "connected_components": components.astype(float).tolist(),
    }


def contact_durations(g: TemporalGraph) -> list[float]:
    """Mean length of maximal consecutive-presence runs, one value per pair
    in sorted (i, j) order: its rows over its runs, a run starting where the
    pair's previous row is not in the layer before."""
    layer, rank, n_pairs = _pair_ranks(g)
    order = np.argsort(rank, kind="stable")  # by (rank, layer)
    rank, layer = rank[order], layer[order]
    starts = np.ones(rank.size, dtype=bool)
    starts[1:] = (rank[1:] != rank[:-1]) | (layer[1:] != layer[:-1] + 1)
    runs = np.bincount(rank[starts], minlength=n_pairs)
    return (np.bincount(rank, minlength=n_pairs) / runs).tolist()


@dataclass
class _Graph:
    """An aggregated graph encoded once for every metric on it, in networkx's
    order for a graph built edge by edge from `weights`: nodes are numbered
    in the order they first appear there, and each node's neighbours are
    listed in that edge order. `aggregate` and `hour_slices` list edges in
    sorted (i, j) order, so that order, not snapshot set order, fixes the
    numbering."""

    labels: list[int]  # node number -> node
    ends: list[tuple[int, int]]  # each edge's node numbers, in `weights` order
    weights: list[int]  # each edge's weight, in that order
    adj: list[dict[int, int]]  # per node: neighbour number -> edge weight


def _encode(agg: AggregatedGraph) -> _Graph:
    """`agg` as a `_Graph`, nodes numbered in its edge order (sorted (i, j)
    for the aggregates eval builds)."""
    index: dict[int, int] = {}
    adj: list[dict[int, int]] = []
    ends: list[tuple[int, int]] = []
    for (i, j), w in agg.weights.items():
        for u in (i, j):
            if u not in index:
                index[u] = len(adj)
                adj.append({})
        a, b = index[i], index[j]
        ends.append((a, b))
        adj[a][b] = w
        adj[b][a] = w
    return _Graph(labels=list(index), ends=ends, weights=list(agg.weights.values()),
                  adj=adj)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


# Arc density (arcs over n(n-1) ordered pairs) from which the dense kernel
# gives the hop and distance rows. Its rounds cost about n^2 per source
# whatever the arc count, while the frontier kernel's cost grows with the
# arcs; on random graphs of 60 to 400 nodes the two cost the same near 0.2.
_DENSE = 0.2
# Entries per chunk of sources. A chunk of s sources works on (s, arcs)
# temporaries, or (s, n, n) ones in the dense kernel, and gets as many
# sources as keep them within this many entries (1 MB of float64), at least
# one. No value depends on it. At the 126-node dense aggregates of the
# acceptance-scale pipeline that is 8 sources: 16 raised its peak RSS by
# 5.6 MB, 8 by 2.4 MB, in the same time.
_BUDGET = 1 << 17


@dataclass
class _Arcs:
    """Both directions of every edge of a `_Graph`, sorted by tail, then
    head."""

    n: int
    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray  # 1/weight, networkx's distance
    deg: np.ndarray  # arcs per tail node
    first: np.ndarray  # each tail node's first arc


def _arcs(graph: _Graph) -> _Arcs:
    n = len(graph.labels)
    ends = np.array(graph.ends, dtype=np.intp)
    src = np.concatenate((ends[:, 0], ends[:, 1]))
    dst = np.concatenate((ends[:, 1], ends[:, 0]))
    length = 1.0 / np.array(graph.weights, dtype=np.float64)
    order = np.lexsort((dst, src))
    deg = np.bincount(src, minlength=n)
    return _Arcs(n=n, tail=src[order], head=dst[order],
                 length=np.concatenate((length, length))[order], deg=deg,
                 first=np.cumsum(deg) - deg)


def _fan_out(frontier: np.ndarray, arcs: _Arcs) -> tuple[np.ndarray, np.ndarray]:
    """Arcs out of the node of each flat (row, node) key in `frontier`:
    their count per key, and their positions in arc order."""
    node = frontier % arcs.n
    d = arcs.deg[node]
    stop = np.cumsum(d)
    at = np.repeat(arcs.first[node] - stop + d, d)
    at += np.arange(stop[-1])
    return d, at


def _frontier_rows(arcs: _Arcs, sources: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `sources` in the hop matrix (-1 when unreachable, as
    int32: half the bytes of int64 in the tight-arc gathers, and every sum
    over it accumulates in int64) and in the matrix of distances as
    networkx's Dijkstra computes them: the least float sum of arc lengths
    added one arc at a time from the source; n when unreachable.

    Both come from one Bellman-Ford relaxation, each round extending only
    the pairs improved in the round before. Rounding is monotone, and a
    length 1/weight (weight at most the snapshot count) changes every sum
    below n, so the fixed point is unique and equals Dijkstra's, whatever
    order the rounds take. Round r extends walks of r - 1 arcs by one, so a
    pair's distance first falls below n in the round that equals its hop
    count.
    """
    n, size = arcs.n, sources.size * arcs.n
    own = np.arange(sources.size) * n + sources  # flat (row, source) keys
    hops = np.full(size, -1, dtype=np.int32)
    hops[own] = 0
    dist = np.full(size, float(n))  # no path is as long: n-1 arcs of length <= 1
    dist[own] = 0.0
    fresh = np.zeros(size, dtype=bool)
    frontier, level = own, 0
    while frontier.size:
        level += 1
        d, at = _fan_out(frontier, arcs)
        head = np.repeat(frontier - frontier % n, d)
        head += arcs.head[at]
        cand = np.repeat(dist[frontier], d)
        cand += arcs.length[at]
        better = cand < dist[head]
        head = head[better]
        hops[head[hops[head] < 0]] = level
        np.minimum.at(dist, head, cand[better])
        fresh[:] = False
        fresh[head] = True
        frontier = np.flatnonzero(fresh)
    return hops.reshape(-1, n), dist.reshape(-1, n)


def _dense_rows(step: np.ndarray, sources: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `_frontier_rows`, from the n x n matrix of arc lengths
    (inf where no arc).

    Both come from min-plus Bellman-Ford rounds that extend the rows
    through the nodes whose distance from one of the sources changed in the
    round before; they reach the same unique fixed point. A distance that
    falls below n in round r sums a walk of at most r arcs, and a node r
    hops away is reached in round r through the node before it on a
    shortest hop path, reached in round r - 1. So here too a pair's
    distance first falls below n in the round that equals its hop count.
    """
    own = (np.arange(sources.size), sources)
    hops = np.full((sources.size, len(step)), -1, dtype=np.int32)
    hops[own] = 0
    dist = np.full(hops.shape, float(len(step)))
    dist[own] = 0.0
    changed, level = sources, 0
    while changed.size:
        level += 1
        cand = (dist[:, changed, None] + step[changed]).min(axis=1)
        better = cand < dist
        hops[better & (hops < 0)] = level
        dist[better] = cand[better]
        changed = np.flatnonzero(better.any(axis=0))
    return hops, dist


def _sweep(arcs: _Arcs) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every source once, in chunks in node order: each chunk's first
    source and its rows of the hop and distance matrices, from the kernel
    for the graph's arc density (both give the same rows). A chunk holds
    `_BUDGET` entries over the kernel's width, arcs or n^2."""
    n = arcs.n
    if arcs.tail.size >= _DENSE * n * (n - 1):
        step = np.full((n, n), np.inf)
        step[arcs.tail, arcs.head] = arcs.length
        rows = partial(_dense_rows, step)
        width = n * n
    else:
        rows = partial(_frontier_rows, arcs)
        width = arcs.tail.size
    per = max(1, _BUDGET // width)
    for start in range(0, n, per):
        yield start, *rows(np.arange(start, min(start + per, n)))


def _row_sums(hops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of hop distances: nodes reached, their summed hops, and the
    lowest reached node, which names the source's component."""
    reached = hops >= 0
    return reached.sum(axis=1), np.maximum(hops, 0).sum(axis=1), reached.argmax(axis=1)


def _hop_sums(rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nodes reached and hop distances summed per source, closeness per
    node and the average shortest path on the first largest component, in
    networkx's operation order, from the `_row_sums` of every chunk."""
    reach, dist_sum, component = (np.concatenate(r) for r in zip(*rows))
    n = reach.size
    # Wasserman-Faust closeness; every node has a neighbour, so reach >= 2.
    closeness = (reach - 1.0) / dist_sum
    closeness *= (reach - 1.0) / (n - 1)
    sizes = np.bincount(component, minlength=n)  # components in node order
    largest = int(sizes.argmax())
    size = int(sizes[largest])
    asp = int(dist_sum[component == largest].sum()) / (size * (size - 1))
    return reach, dist_sum, closeness, asp


def _tight_arcs(arcs: _Arcs, rows: np.ndarray, step: np.ndarray | int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The arcs of the shortest-path DAGs of a chunk's sources, from their
    `rows` of a matrix, as flat (row, node) keys tail and head. Arc u -> v
    is tight for source s where rows[s, u] + step == rows[s, v]: hops and
    1, or float distances and arc lengths."""
    n = arcs.n
    # take and a flat nonzero: 2-6x faster than rows[:, tail] and a 2-d one.
    tight = rows.take(arcs.tail, axis=1)
    tight += step
    tight = np.flatnonzero(tight == rows.take(arcs.head, axis=1))
    source, arc = np.divmod(tight, arcs.tail.size)
    return source * n + arcs.tail[arc], source * n + arcs.head[arc]


def _own_keys(arcs: _Arcs, start: int, rows: np.ndarray) -> np.ndarray:
    """The flat (row, node) keys of each row's own source, `start` being
    the chunk's first."""
    return np.arange(len(rows)) * (arcs.n + 1) + start


def _paths_and_hops(arcs: _Arcs, start: int, rows: np.ndarray,
                    step: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Per flat (row, node) key of a chunk, from one forward relaxation over
    the `_tight_arcs` of `rows`, level by level: sigma, the number of
    shortest paths from the row's source, and H, their summed hops."""
    tail, head = _tight_arcs(arcs, rows, step)
    sigma = np.zeros(rows.size)
    sigma[_own_keys(arcs, start, rows)] = 1.0
    hop_sum = np.zeros(rows.size)
    carried = sigma[tail]
    for level in count(1):
        paths = np.bincount(head, weights=carried, minlength=rows.size)
        if not paths.any():
            return sigma, hop_sum
        sigma += paths
        carried = paths[tail]
        paths *= level
        hop_sum += paths


def _dependencies(arcs: _Arcs, start: int, rows: np.ndarray,
                  step: np.ndarray | int) -> np.ndarray:
    """Brandes' dependencies of every node, one row per source of the
    chunk, over the DAGs of `_tight_arcs`. A forward relaxation over them
    gives sigma and each key's DAG depth, the most tight arcs on a path to
    it. Then a backward pass over depths, deepest first, takes each term as
    networkx's sigma(v) * ((1 + delta(w)) / sigma(w)); 0 at the source."""
    tail, head = _tight_arcs(arcs, rows, step)
    own = _own_keys(arcs, start, rows)
    sigma = np.zeros(rows.size)
    sigma[own] = 1.0
    depth = np.zeros(rows.size, dtype=np.intp)
    paths = sigma
    for level in count(1):
        paths = np.bincount(head, weights=paths[tail], minlength=rows.size)
        if not paths.any():
            break
        sigma += paths
        depth[paths > 0] = level
    head_depth = depth[head]
    order = np.argsort(head_depth, kind="stable")
    tail, head = tail[order], head[order]
    bounds = np.searchsorted(head_depth[order], np.arange(depth.max() + 2))
    delta = np.zeros(rows.size)
    for d in range(depth.max(), 0, -1):
        w, v = head[bounds[d]:bounds[d + 1]], tail[bounds[d]:bounds[d + 1]]
        coeff = (1 + delta[w]) / sigma[w]
        delta += np.bincount(v, weights=sigma[v] * coeff, minlength=rows.size)
    delta[own] = 0.0
    return delta.reshape(rows.shape)


@dataclass
class _Centralities:
    """Per-node shortest-path values of one aggregated graph, in the node
    order of its `_Graph`."""

    betweenness_w: list[float]
    betweenness_u: list[float]
    closeness: list[float]
    avg_shortest_path: float  # on the first largest connected component


def _centralities(graph: _Graph) -> _Centralities:
    """Weighted (length 1/weight) and unweighted betweenness, closeness and
    the largest component's average shortest path, from one sweep of the
    sources with a Brandes pass per weighting; each node's betweenness sums
    its dependencies over sources in node order."""
    arcs = _arcs(graph)
    n = arcs.n
    rows = []
    bw, bu = np.zeros(n), np.zeros(n)
    for start, hops, dist in _sweep(arcs):
        rows.append(_row_sums(hops))
        for total, matrix, step in ((bw, dist, arcs.length), (bu, hops, 1)):
            for row in _dependencies(arcs, start, matrix, step):
                total += row
    _, _, closeness, asp = _hop_sums(rows)
    if n > 2:  # normalise by the (n-1)(n-2) ordered pairs that avoid v
        scale = 1 / ((n - 1) * (n - 2))
        bw *= scale
        bu *= scale
    return _Centralities(betweenness_w=bw.tolist(), betweenness_u=bu.tolist(),
                         closeness=closeness.tolist(), avg_shortest_path=asp)


def _hour_path_means(graph: _Graph) -> tuple[float, float, float, float] | None:
    """Average shortest path (first largest component) and the node means of
    weighted and unweighted betweenness and of closeness, from one sweep of
    the sources with no per-node betweenness.

    Mean normalised betweenness is the sum over reachable ordered pairs
    (s, t) of (hops of an average shortest s-t path - 1), over
    n(n-1)(n-2) when n > 2 (over n otherwise, where the sum is 0).
    Unweighted, every shortest path has the pair's hop distance. Weighted
    (length 1/weight), shortest paths are those of networkx's Dijkstra, and
    the sum of H/sigma over pairs from `_paths_and_hops` is exact: the H of
    the pairs with one shortest path add up as one integer, those of the
    tied pairs (sigma > 1) as one integer per sigma, and the sum is taken
    over the lcm of those sigmas, whose integer quotient Python rounds
    correctly.

    None when the summed H reaches 2**53, beyond which float64 path counts
    are not exact; `_centralities` gives the per-node values then.
    """
    arcs = _arcs(graph)
    n = arcs.n
    rows = []
    hop_total = 0
    single = 0  # summed H of the pairs with sigma == 1
    tied: dict[int, int] = {}  # sigma > 1 -> summed H of its pairs
    for start, hops, dist in _sweep(arcs):
        rows.append(_row_sums(hops))
        sigma, hop_sum = _paths_and_hops(arcs, start, dist, arcs.length)
        hop_total += int(hop_sum.sum())
        if hop_total >= 2 ** 53:
            return None
        single += int(hop_sum[sigma == 1].sum())
        ties = sigma > 1
        sigmas, group = np.unique(sigma[ties], return_inverse=True)
        group_hops = np.bincount(group, weights=hop_sum[ties])
        for s, h in zip(sigmas.astype(np.int64).tolist(), group_hops.tolist()):
            tied[s] = tied.get(s, 0) + int(h)
    reach, dist_sum, closeness, asp = _hop_sums(rows)
    pairs = int(reach.sum()) - n
    scale = n * (n - 1) * (n - 2) if n > 2 else n
    betweenness_u = (int(dist_sum.sum()) - pairs) / scale
    den = math.lcm(*tied)
    num = single * den + sum(h * (den // s) for s, h in tied.items())
    betweenness_w = (num - pairs * den) / (den * scale)
    return asp, betweenness_w, betweenness_u, _mean(closeness.tolist())


def _transitivity(graph: _Graph, degrees: list[int]) -> float:
    """networkx's `transitivity`: six times the triangles (twice the common
    neighbours summed over edges) over the triads, sum d(d-1), int by int."""
    triangles = 2 * sum(len(graph.adj[a].keys() & graph.adj[b].keys())
                        for a, b in graph.ends)
    return triangles / sum(d * (d - 1) for d in degrees) if triangles else 0.0


def _assortativity(graph: _Graph, degrees: list[int]) -> float:
    """networkx's `degree_assortativity_coefficient` (Newman 2003): Pearson
    correlation of the degrees at either end of an edge, from the degree
    mixing matrix.

    The matrix is laid out by the set of degrees that networkx builds, in its
    iteration order, normalised once as `degree_mixing_matrix` does and again
    where its sum is not exactly 1.0, as `_numeric_ac` does; the last lines
    are `_numeric_ac`'s. Then every sum runs over the same array in the same
    order, and the value is networkx's bit for bit.
    """
    # Built as networkx builds it, element by element, for the same order.
    mapping = {d: i for i, d in enumerate({d for d in degrees})}
    at = np.array([mapping[d] for d in degrees], dtype=np.intp)
    ends = np.array(graph.ends, dtype=np.intp)
    du, dv = at[ends[:, 0]], at[ends[:, 1]]
    k = len(mapping)
    M = np.bincount(np.concatenate((du * k + dv, dv * k + du)),
                    minlength=k * k).reshape(k, k).astype(np.float64)
    M = M / M.sum()
    if M.sum() != 1.0:
        M = M / M.sum()
    x = np.array(list(mapping.keys()))
    y = x
    idx = list(mapping.values())
    a = M.sum(axis=0)
    b = M.sum(axis=1)
    vara = (a[idx] * x**2).sum() - ((a[idx] * x).sum()) ** 2
    varb = (b[idx] * y**2).sum() - ((b[idx] * y).sum()) ** 2
    xy = np.outer(x, y)
    ab = np.outer(a[idx], b[idx])
    return float((xy * (M - ab)).sum() / np.sqrt(vara * varb))


# Louvain and modularity run on level graphs: per node, neighbour -> summed
# edge weight, in networkx's insertion order, a self-loop under the node
# itself. Weights are integer snapshot counts, so every degree and every
# community weight is an exact integer.

def _degrees(adj: list[dict[int, int]]) -> list[int]:
    """Weighted degrees, a self-loop counted twice."""
    return [sum(a.values()) + a.get(u, 0) for u, a in enumerate(adj)]


def _one_level(adj: list[dict[int, int]], degrees: list[int], m: float,
               rng: random.Random) -> tuple[list[int], bool]:
    """One Louvain level, as networkx's `_one_level`: each node's community
    number after moving nodes, in one shuffled order, to the neighbouring
    community of largest modularity gain until no node moves, and whether
    any node moved. `degrees` are `_degrees(adj)`.

    The arithmetic is networkx's. Ties go to the first candidate, and a gain
    must exceed 0: candidates are the neighbours' communities in neighbour
    order, then the node's own community if no neighbour shares it.

    A node's weights to the candidates are summed as exact integers in one
    flat list, indexed by community and reused from node to node: `touched`
    lists the candidates in the order above, and their entries are reset
    to 0 once read. Every weight is positive, so an entry is 0 until first
    touched. A node whose only candidate is its own community stays in it
    whatever the gain rounds to, so it is skipped.
    """
    n = len(adj)
    com = list(range(n))
    stot = degrees.copy()
    nbrs = [[(v, w) for v, w in a.items() if v != u] for u, a in enumerate(adj)]
    two_m2 = 2 * m**2
    weight = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    improvement = False
    moves = 1
    while moves:
        moves = 0
        for u in order:
            own = com[u]
            touched = []
            for v, w in nbrs[u]:
                c = com[v]
                if weight[c]:
                    weight[c] += w
                else:
                    weight[c] = w
                    touched.append(c)
            own_weight = weight[own]
            if not own_weight:
                touched.append(own)
            if len(touched) == 1:
                weight[own] = 0
                continue
            degree = degrees[u]
            stot[own] -= degree
            remove_cost = -own_weight / m + (stot[own] * degree) / two_m2
            best, best_gain = own, 0
            for c in touched:
                gain = remove_cost + weight[c] / m - (stot[c] * degree) / two_m2
                weight[c] = 0
                if gain > best_gain:
                    best, best_gain = c, gain
            stot[best] += degree
            if best != own:
                com[u] = best
                improvement = True
                moves += 1
    return com, improvement


def _gen_graph(adj: list[dict[int, int]], groups: list[list[int]]
               ) -> list[dict[int, int]]:
    """The next level graph, as networkx's `_gen_graph`: one node per group,
    edges merged in `G.edges()` order (node order, then neighbour order,
    each edge once), a group's inner edges becoming its self-loop."""
    group_of = [0] * len(adj)
    for i, group in enumerate(groups):
        for u in group:
            group_of[u] = i
    out: list[dict[int, int]] = [{} for _ in groups]
    for u, a in enumerate(adj):
        cu = group_of[u]
        for v, w in a.items():
            if v >= u:
                cv = group_of[v]
                w += out[cu].get(cv, 0)
                out[cu][cv] = w
                out[cv][cu] = w
    return out


def _level_modularity(adj: list[dict[int, int]], degrees: list[int], m: float,
                      norm: float) -> float:
    """networkx's `modularity` at resolution 1 of the partition that `adj`,
    the next level graph, was made from, with `degrees` its `_degrees` and
    m and norm those of every level. Per node, in order: its self-loop (its
    community's internal weight) over m minus its degree (its community's
    degree sum) squared times norm, the integers and float operations that
    networkx takes per community in partition order."""
    return sum(a.get(c, 0) / m - d * d * norm
               for c, (a, d) in enumerate(zip(adj, degrees)))


def _louvain(graph: _Graph, seed: int) -> tuple[list[list[int]], float]:
    """Louvain communities (Blondel et al. 2008) as lists of node numbers,
    the partition that networkx 3.6.1's `louvain_communities(G, seed=seed)`
    returns, in its order, and its modularity as networkx's `modularity`
    gives it, bit for bit.

    One `random.Random(seed)` shuffles every level's node order. networkx
    first rebuilds the graph from `G.edges()`, which reorders neighbours:
    `_gen_graph` with one group per node. Levels stop once a level's
    modularity, on its own level graph, gains at most 1e-7 over the level
    before.

    Each level's modularity is `_level_modularity` of the next level graph;
    the singletons' before the first level is that of the first level graph.
    The modularity returned is that of the last level whose partition is
    returned, from the same integers and float operations as networkx's.
    """
    rng = random.Random(seed)
    partition = [[u] for u in range(len(graph.adj))]
    adj = _gen_graph(graph.adj, partition)
    degrees = _degrees(adj)
    deg_sum = sum(degrees)
    m = deg_sum / 2
    norm = 1 / deg_sum**2
    mod = _level_modularity(adj, degrees, m, norm)
    com, _ = _one_level(adj, degrees, m, rng)  # the first level counts as an improvement
    while True:
        groups: dict[int, list[int]] = {}
        for u, c in enumerate(com):
            groups.setdefault(c, []).append(u)
        inner = [groups[c] for c in sorted(groups)]
        partition = [list(chain.from_iterable(partition[u] for u in group))
                     for group in inner]
        adj = _gen_graph(adj, inner)
        degrees = _degrees(adj)
        new_mod = _level_modularity(adj, degrees, m, norm)
        if new_mod - mod <= 1e-7:
            return partition, new_mod
        mod = new_mod
        com, improvement = _one_level(adj, degrees, m, rng)
        if not improvement:
            return partition, mod


def hour_metrics(g: TemporalGraph, louvain_seed: int = 0) -> dict[str, list[float]]:
    """One value per nonempty hour slice, computed on its aggregated graph.

    Assortativity is skipped (not zero-filled) for hours with zero degree
    variance; centralities are averaged over the hour's active nodes, with
    weighted betweenness using edge distance 1/weight.
    """
    out: dict[str, list[float]] = {name: [] for name in HOUR_METRICS}
    for agg in hour_slices(g):
        if agg.n_edges == 0:
            continue
        graph = _encode(agg)
        degrees = [len(a) for a in graph.adj]
        out["s_metric"].append(float(sum(degrees[a] * degrees[b]
                                         for a, b in graph.ends)))
        out["clustering"].append(_transitivity(graph, degrees))
        if len(set(degrees)) > 1:
            r = _assortativity(graph, degrees)
            if not math.isnan(r):
                out["assortativity"].append(r)
        means = _hour_path_means(graph)
        if means is None:
            paths = _centralities(graph)
            means = (paths.avg_shortest_path, _mean(paths.betweenness_w),
                     _mean(paths.betweenness_u), _mean(paths.closeness))
        asp, betweenness_w, betweenness_u, closeness = means
        out["avg_shortest_path"].append(asp)
        out["modularity"].append(_louvain(graph, louvain_seed)[1])
        out["hour_betweenness_w"].append(betweenness_w)
        out["hour_betweenness_u"].append(betweenness_u)
        out["hour_closeness"].append(closeness)
    return out


def aggregated_metrics(g: TemporalGraph) -> dict[str, list[float]]:
    """Per-node centralities and per-edge strength on the full projection."""
    agg = aggregate(g)
    out: dict[str, list[float]] = {name: [] for name in AGG_METRICS}
    if agg.n_edges == 0:
        return out
    graph = _encode(agg)
    paths = _centralities(graph)
    by_node = sorted(range(len(graph.labels)), key=graph.labels.__getitem__)
    out["agg_betweenness_w"] = [paths.betweenness_w[a] for a in by_node]
    out["agg_betweenness_u"] = [paths.betweenness_u[a] for a in by_node]
    out["agg_closeness"] = [paths.closeness[a] for a in by_node]
    out["edge_strength"] = [float(w) for _, w in sorted(agg.weights.items())]
    return out


def compute_report(g: TemporalGraph, louvain_seed: int = 0) -> MetricReport:
    """All seventeen metric distributions for one graph."""
    samples: dict[str, list[float]] = {}
    samples.update(snapshot_metrics(g))
    samples["contact_duration"] = contact_durations(g)
    samples.update(hour_metrics(g, louvain_seed=louvain_seed))
    samples.update(aggregated_metrics(g))
    return MetricReport(samples={name: samples[name] for name in METRIC_KINDS})


def _ascending(a: Sequence[float], name: str) -> np.ndarray:
    """The samples as an ascending float array; raises ValueError when
    there are none."""
    if not len(a):
        raise ValueError(f"{name} requires nonempty samples")
    return np.sort(np.asarray(a, dtype=float))


def _cdfs(xa: np.ndarray, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The empirical CDFs of two ascending nonempty samples at every pooled
    value but the largest, where both are 1, and the gaps between
    consecutive pooled values."""
    pooled = np.sort(np.concatenate([xa, xb]))
    fa = np.searchsorted(xa, pooled[:-1], side="right") / len(xa)
    fb = np.searchsorted(xb, pooled[:-1], side="right") / len(xb)
    return fa, fb, np.diff(pooled)


def _ks(cdfs: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    fa, fb, _ = cdfs
    return float(np.max(np.abs(fa - fb), initial=0.0))


def _emd(cdfs: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    fa, fb, deltas = cdfs
    return float(np.sum(np.abs(fa - fb) * deltas))


_N_BINS = 100
_EPS = 1e-10


def _smoothed_histograms(xa: np.ndarray, xb: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray] | None:
    """Shared-support histograms of two ascending nonempty samples, with
    additive smoothing; None when the joint range is a single point
    (distributions then coincide)."""
    lo = min(xa[0], xb[0])
    hi = max(xa[-1], xb[-1])
    if lo == hi:
        return None
    edges = np.linspace(lo, hi, _N_BINS + 1)
    ca, _ = np.histogram(xa, bins=edges)
    cb, _ = np.histogram(xb, bins=edges)
    p = (ca + _EPS) / (ca.sum() + _N_BINS * _EPS)
    q = (cb + _EPS) / (cb.sum() + _N_BINS * _EPS)
    return p, q


def _kl(hists: tuple[np.ndarray, np.ndarray] | None) -> float:
    if hists is None:
        return 0.0
    p, q = hists
    return float(np.sum(p * np.log(p / q)))


def _js(hists: tuple[np.ndarray, np.ndarray] | None) -> float:
    if hists is None:
        return 0.0
    p, q = hists
    m = (p + q) / 2.0
    return float(0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m)))


# Each distance of two ascending samples, as what it reads of them (their
# CDFs or their smoothed histograms) and the function of that.
_DISTANCES = {"ks": (_cdfs, _ks), "js": (_smoothed_histograms, _js),
              "kl": (_smoothed_histograms, _kl), "emd": (_cdfs, _emd)}


def _distance(name: str, a: Sequence[float], b: Sequence[float], caller: str
              ) -> float:
    read, distance = _DISTANCES[name]
    return distance(read(_ascending(a, caller), _ascending(b, caller)))


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    return _distance("ks", a, b, "ks_distance")


def kl_divergence(a: Sequence[float], b: Sequence[float]) -> float:
    """KL(p_a || p_b) on smoothed shared-support histograms, natural log."""
    return _distance("kl", a, b, "divergence")


def js_divergence(a: Sequence[float], b: Sequence[float]) -> float:
    """Jensen-Shannon divergence (natural log, in [0, ln 2])."""
    return _distance("js", a, b, "divergence")


def emd(a: Sequence[float], b: Sequence[float]) -> float:
    """1-D earth-mover distance: integral of |F_a - F_b| between sorted samples."""
    return _distance("emd", a, b, "emd")


DISTANCE_FUNCS = {
    "ks": ks_distance,
    "js": js_divergence,
    "kl": kl_divergence,
    "emd": emd,
}


def distances_between(names: Sequence[str], a: Sequence[float], b: Sequence[float]
                      ) -> list[float]:
    """Distances `names` between two sample lists, in order, each list
    sorted once and their CDFs and histograms built at most once for all of
    them; NaN for every name when either is empty."""
    if not len(a) or not len(b):
        return [math.nan] * len(names)
    xa, xb = _ascending(a, "distances_between"), _ascending(b, "distances_between")
    reads = [_DISTANCES[name] for name in names]
    built = {read: read(xa, xb) for read in dict.fromkeys(read for read, _ in reads)}
    return [distance(built[read]) for read, distance in reads]


def format_cell(value: float) -> str:
    """CSV cell for a distance or mean: blank for NaN, else 10 digits."""
    return "" if math.isnan(value) else f"{value:.10g}"


def compare(report_orig: MetricReport, report_gen: MetricReport,
            distances: Iterable[str] = DISTANCE_NAMES) -> DistanceReport:
    """All requested distances for all seventeen metrics, original first
    (KL reads as information lost approximating the original by the
    surrogate). Empty sample lists yield NaN entries, keeping the report
    shape fixed."""
    distances = tuple(distances)
    for name in distances:
        if name not in DISTANCE_FUNCS:
            raise ValueError(f"unknown distance {name!r}")
    values = {}
    for metric in METRIC_KINDS:
        row = distances_between(distances, report_orig.samples[metric],
                                report_gen.samples[metric])
        values.update(((metric, name), value) for name, value in zip(distances, row))
    return DistanceReport(values=values, distances=distances)


def write_distances_csv(report: DistanceReport, sink: IO[str]) -> None:
    writer = csv.writer(sink)
    writer.writerow(["metric", "kind", *report.distances])
    for metric in METRIC_KINDS:
        writer.writerow([metric, METRIC_KINDS[metric],
                         *(format_cell(report.values.get((metric, name), math.nan))
                           for name in report.distances)])


def write_samples_csv(report: MetricReport, sink: IO[str]) -> None:
    writer = csv.writer(sink)
    writer.writerow(["metric", "index", "value"])
    for metric, values in report.samples.items():
        for idx, value in enumerate(values):
            writer.writerow([metric, idx, f"{value:.10g}"])
