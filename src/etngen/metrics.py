"""Topological metric distributions and distribution distances.

Seventeen metric families are collected as empirical sample lists: four per
snapshot, contact duration per node pair, eight per wall-clock hour, and
four on the full aggregated projection. Reports from two graphs are compared
with KS, Jensen-Shannon, Kullback-Leibler and earth-mover distances.

Every graph metric works on one `_Graph` encoding per aggregated graph,
built without networkx, which keeps networkx's node and neighbour order for
a graph built edge by edge from the aggregate's weights. Each value equals
networkx 3.6.1's bit for bit, except the betweenness values (below).

The shortest-path families start from two all-pairs matrices with no
per-source Python search: hop distances, and networkx's float Dijkstra
distances (length 1/weight) as Bellman-Ford computes them for all sources
at once. Sparse graphs get them from frontier expansions over the arcs,
dense ones from a kernel on n x n matrices; both give the same bytes.
Closeness and the average shortest path follow from the hop matrix in
networkx's operation order, bit-identical to networkx's.

Per hour graph, the node means of weighted and unweighted betweenness come
from the matrices with no per-node values: a sum over node pairs of the
mean interior node count of their shortest paths (Brandes 2008), taken as
an exact rational, with shortest-path counts from one forward relaxation
over the tight arcs. They agree with networkx to about 1e-15 relative, ties
being networkx's float `==` ties. An hour whose path counts exceed
float64's exact integers takes the means of the per-node values instead.

The full aggregate's per-node betweenness comes from Brandes' dependency
recursion (Brandes 2001) run for a chunk of sources at once, over the same
tight arcs: path counts forward, dependencies backward by DAG depth. It
agrees with networkx to about 1e-15 relative. The other hour metrics are
ports of networkx's functions that keep its operation order: the s-metric,
transitivity, degree assortativity (Newman 2003) and Louvain communities
(Blondel et al. 2008) with their modularity.
"""

from __future__ import annotations

import csv
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
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
# gives the hop and distance matrices. Its rounds cost about n^2 per source
# whatever the arc count, while the frontier kernels' cost grows with the
# arcs; on random graphs of 60 to 400 nodes the two cost the same near 0.2.
_DENSE = 0.2
# Sources per chunk of the dense kernel and of the Brandes pass. No value
# depends on it. It bounds their temporaries, (S, n, n) and (S, arcs) arrays
# of about 1 MB each at 126 nodes: 16 sources raised the pipeline-126
# bench's peak RSS by 5.6 MB, 8 sources by 2.4 MB, in the same time.
_CHUNK = 8


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
    """Arcs out of the node of each flat (source, node) key in `frontier`:
    their count per key, and their positions in arc order."""
    node = frontier % arcs.n
    d = arcs.deg[node]
    stop = np.cumsum(d)
    at = np.repeat(arcs.first[node] - stop + d, d)
    at += np.arange(stop[-1])
    return d, at


def _hop_matrix(arcs: _Arcs) -> np.ndarray:
    """Hop distance of every ordered node pair, -1 when unreachable, as
    int32: half the bytes of int64 in `_betweenness`' tight-arc gathers,
    and every sum over it accumulates in int64.

    One frontier expansion runs all sources at once: each level marks the
    (source, node) pairs that the pairs first reached at the previous level
    reach through one arc, so all levels together touch n x arcs entries.
    """
    n = arcs.n
    hops = np.full(n * n, -1, dtype=np.int32)
    frontier = np.arange(n) * (n + 1)  # flat (source, node) keys
    hops[frontier] = 0
    fresh = np.zeros(n * n, dtype=bool)
    level = 0
    while frontier.size:
        level += 1
        d, at = _fan_out(frontier, arcs)
        fresh[:] = False
        fresh[np.repeat(frontier - frontier % n, d) + arcs.head[at]] = True
        fresh &= hops < 0
        frontier = np.flatnonzero(fresh)
        hops[frontier] = level
    return hops.reshape(n, n)


def _float_distances(arcs: _Arcs) -> np.ndarray:
    """Distance from every source to every node as networkx's Dijkstra
    computes it: the least float sum of arc lengths added one arc at a time
    from the source; n when unreachable.

    Bellman-Ford for all sources at once, each round extending only the
    pairs improved in the round before. Rounding is monotone, and a length
    1/weight (weight at most the snapshot count) changes every sum below n,
    so the fixed point is unique and equals Dijkstra's, whatever order the
    rounds take.
    """
    # In-place sums and early `del`s keep the process's peak RSS lower.
    n = arcs.n
    dist = np.full(n * n, float(n))  # no path is as long: n-1 arcs of length <= 1
    frontier = np.arange(n) * (n + 1)
    dist[frontier] = 0.0
    fresh = np.zeros(n * n, dtype=bool)
    while frontier.size:
        d, at = _fan_out(frontier, arcs)
        head = np.repeat(frontier - frontier % n, d)
        head += arcs.head[at]
        cand = np.repeat(dist[frontier], d)
        cand += arcs.length[at]
        del at
        better = cand < dist[head]
        head = head[better]
        np.minimum.at(dist, head, cand[better])
        del cand, better
        fresh[:] = False
        fresh[head] = True
        frontier = np.flatnonzero(fresh)
    return dist.reshape(n, n)


def _dense_paths(arcs: _Arcs) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of `_hop_matrix` and `_float_distances`, from n x n
    adjacency and length matrices, `_CHUNK` sources at a time.

    Hop levels come from boolean matrix products, which numpy runs in its
    own loop, not in BLAS. Distances come from min-plus Bellman-Ford rounds
    that extend the chunk's distances through the nodes whose distance from
    one of its sources changed in the round before; they reach the same
    unique fixed point.
    """
    n = arcs.n
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[arcs.tail, arcs.head] = True
    step = np.full((n, n), np.inf)
    step[arcs.tail, arcs.head] = arcs.length
    hops = np.full((n, n), -1, dtype=np.int32)
    dist = np.full((n, n), float(n))
    for start in range(0, n, _CHUNK):
        hop, d = hops[start:start + _CHUNK], dist[start:start + _CHUNK]  # views
        sources = np.arange(start, start + len(hop))
        own = (sources - start, sources)
        frontier = np.zeros(hop.shape, dtype=bool)
        frontier[own] = True
        hop[own] = 0
        level = 0
        while frontier.any():
            level += 1
            frontier = frontier @ adjacent
            frontier &= hop < 0
            hop[frontier] = level
        d[own] = 0.0
        changed = sources
        while changed.size:
            cand = (d[:, changed, None] + step[changed]).min(axis=1)
            better = cand < d
            d[better] = cand[better]
            changed = np.flatnonzero(better.any(axis=0))
    return hops, dist


def _all_pairs(arcs: _Arcs) -> tuple[np.ndarray, np.ndarray]:
    """Hop and float-distance matrices, from the kernel for the graph's arc
    density; both kernels give the same arrays."""
    n = arcs.n
    if arcs.tail.size >= _DENSE * n * (n - 1):
        return _dense_paths(arcs)
    return _hop_matrix(arcs), _float_distances(arcs)


def _path_counts(tail: np.ndarray, head: np.ndarray, paths: np.ndarray
                 ) -> Iterator[np.ndarray]:
    """Shortest paths of 1, 2, ... tight arcs per flat (source, node) key,
    from `paths`, those of 0 arcs, until no longer path is left. The arcs
    tail -> head are the tight ones, as flat keys."""
    while True:
        paths = np.bincount(head, weights=paths[tail], minlength=paths.size)
        if not paths.any():
            return
        yield paths


def _hop_sums(hops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nodes reached and hop distances summed per source, closeness per
    node and the average shortest path on the first largest component, in
    networkx's operation order."""
    n = len(hops)
    reached = hops >= 0
    reach = reached.sum(axis=1)
    dist_sum = np.maximum(hops, 0).sum(axis=1)
    # Wasserman-Faust closeness; every node has a neighbour, so reach >= 2.
    closeness = (reach - 1.0) / dist_sum
    closeness *= (reach - 1.0) / (n - 1)
    component = reached.argmax(axis=1)  # its lowest node: components in node order
    sizes = np.bincount(component, minlength=n)
    largest = int(sizes.argmax())
    size = int(sizes[largest])
    asp = int(dist_sum[component == largest].sum()) / (size * (size - 1))
    return reach, dist_sum, closeness, asp


def _betweenness(arcs: _Arcs, matrix: np.ndarray, step: np.ndarray | int
                 ) -> np.ndarray:
    """Brandes' dependencies summed over sources in node order, before
    normalisation. Arc u -> v is on a shortest path from s where
    matrix[s, u] + step == matrix[s, v]: hops and 1, or float distances
    and arc lengths.

    For `_CHUNK` sources at a time, sigma (shortest paths) comes from a
    forward relaxation over the tight arcs, and a node's DAG depth is the
    most tight arcs on a path to it. The dependencies then come from a
    backward pass over depths, deepest first, each term as networkx's
    sigma(v) * ((1 + delta(w)) / sigma(w)).
    """
    n = arcs.n
    total = np.zeros(n)
    for start in range(0, n, _CHUNK):
        block = matrix[start:start + _CHUNK]
        size = block.size
        source, arc = np.nonzero(block[:, arcs.tail] + step == block[:, arcs.head])
        tail = source * n + arcs.tail[arc]
        head = source * n + arcs.head[arc]
        own = np.arange(len(block)) * (n + 1) + start  # flat (s, s) keys
        sigma = np.zeros(size)
        sigma[own] = 1.0
        depth = np.zeros(size, dtype=np.intp)
        for level, paths in enumerate(_path_counts(tail, head, sigma.copy()), 1):
            sigma += paths
            depth[paths > 0] = level
        head_depth = depth[head]
        order = np.argsort(head_depth, kind="stable")
        tail, head = tail[order], head[order]
        bounds = np.searchsorted(head_depth[order], np.arange(depth.max() + 2))
        delta = np.zeros(size)
        for d in range(depth.max(), 0, -1):
            w, v = head[bounds[d]:bounds[d + 1]], tail[bounds[d]:bounds[d + 1]]
            coeff = (1 + delta[w]) / sigma[w]
            delta += np.bincount(v, weights=sigma[v] * coeff, minlength=size)
        delta[own] = 0.0
        for row in delta.reshape(-1, n):
            total += row
    return total


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
    the largest component's average shortest path, from the all-pairs
    matrices and one Brandes pass per weighting."""
    arcs = _arcs(graph)
    hops, dist = _all_pairs(arcs)
    _, _, closeness, asp = _hop_sums(hops)
    bw = _betweenness(arcs, dist, arcs.length)
    bu = _betweenness(arcs, hops, 1)
    n = arcs.n
    if n > 2:  # normalise by the (n-1)(n-2) ordered pairs that avoid v
        scale = 1 / ((n - 1) * (n - 2))
        bw *= scale
        bu *= scale
    return _Centralities(betweenness_w=bw.tolist(), betweenness_u=bu.tolist(),
                         closeness=closeness.tolist(), avg_shortest_path=asp)


def _hour_path_means(graph: _Graph) -> tuple[float, float, float, float] | None:
    """Average shortest path (first largest component) and the node means of
    weighted and unweighted betweenness and of closeness, from the all-pairs
    matrices with no per-node betweenness.

    Mean normalised betweenness is the sum over reachable ordered pairs
    (s, t) of (hops of an average shortest s-t path - 1), over
    n(n-1)(n-2) when n > 2 (over n otherwise, where the sum is 0).
    Unweighted, every shortest path has the pair's hop distance. Weighted
    (length 1/weight), shortest paths are those of networkx's Dijkstra: the
    tight arcs u -> v of source s are those where dist(s, u) + length equals
    dist(s, v) in float. sigma (shortest paths) and H (their summed hops)
    per pair come from one forward relaxation over the tight arcs, level by
    level for all sources at once, and the sum of H/sigma is exact.
    Temporaries are O(n x arcs).

    None when the summed H reaches 2**53, beyond which float64 path counts
    are not exact; `_centralities` gives the per-node values then.
    """
    arcs = _arcs(graph)
    n = arcs.n
    hops, dist = _all_pairs(arcs)
    reach, dist_sum, closeness, asp = _hop_sums(hops)
    del hops
    pairs = int(reach.sum()) - n
    scale = n * (n - 1) * (n - 2) if n > 2 else n
    betweenness_u = (int(dist_sum.sum()) - pairs) / scale

    tight = dist[:, arcs.tail]
    tight += arcs.length
    source, arc = np.nonzero(tight == dist[:, arcs.head])
    del tight, dist
    tail = source * n + arcs.tail[arc]
    head = source * n + arcs.head[arc]
    sigma = np.zeros(n * n)
    hop_sum = np.zeros(n * n)
    for hop, paths in enumerate(_path_counts(tail, head, np.eye(n).ravel()), 1):
        sigma += paths
        hop_sum += hop * paths
    if hop_sum.sum() >= 2 ** 53:
        return None
    # Sum of H/sigma over pairs, grouped by sigma > 1 (most pairs have
    # sigma 1), on one common denominator in Python ints; int / int
    # division rounds correctly.
    multi = sigma > 1
    sigmas, group = np.unique(sigma[multi], return_inverse=True)
    group_hops = np.bincount(group, weights=hop_sum[multi]).astype(np.int64)
    sigmas = sigmas.astype(np.int64).tolist()
    common = math.lcm(1, *sigmas)
    total = int(hop_sum[sigma == 1].sum()) * common + sum(
        h * (common // s) for h, s in zip(group_hops.tolist(), sigmas))
    betweenness_w = (total - pairs * common) / (common * scale)
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


def _modularity(adj: list[dict[int, int]], communities: list[list[int]]) -> float:
    """networkx's `modularity` at resolution 1: per community, in partition
    order, internal weight over m minus squared degree sum over (2m)^2. A
    self-loop counts once in the internal weight."""
    degree = _degrees(adj)
    deg_sum = sum(degree)
    m = deg_sum / 2
    norm = 1 / deg_sum**2

    def contribution(community: list[int]) -> float:
        inside = set(community)
        internal = sum(w for u in community for v, w in adj[u].items()
                       if v >= u and v in inside)
        d = sum(degree[u] for u in community)
        return internal / m - d * d * norm

    return sum(map(contribution, communities))


def _one_level(adj: list[dict[int, int]], m: float, rng: random.Random
               ) -> tuple[list[int], bool]:
    """One Louvain level, as networkx's `_one_level`: each node's community
    number after moving nodes, in one shuffled order, to the neighbouring
    community of largest modularity gain until no node moves, and whether
    any node moved.

    The arithmetic is networkx's. Ties go to the first candidate, and a gain
    must exceed 0: candidates are the neighbours' communities in neighbour
    order, then the node's own community if no neighbour shares it.
    """
    n = len(adj)
    com = list(range(n))
    degrees = _degrees(adj)
    stot = degrees.copy()
    nbrs = [[(v, w) for v, w in a.items() if v != u] for u, a in enumerate(adj)]
    two_m2 = 2 * m**2
    order = list(range(n))
    rng.shuffle(order)
    improvement = False
    moves = 1
    while moves:
        moves = 0
        for u in order:
            own = com[u]
            to_com: dict[int, float] = {}
            for v, w in nbrs[u]:
                c = com[v]
                to_com[c] = to_com.get(c, 0.0) + w
            degree = degrees[u]
            stot[own] -= degree
            own_weight = to_com.setdefault(own, 0.0)
            remove_cost = -own_weight / m + (stot[own] * degree) / two_m2
            best, best_gain = own, 0
            for c, wt in to_com.items():
                gain = remove_cost + wt / m - (stot[c] * degree) / two_m2
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


def _louvain(graph: _Graph, seed: int) -> list[list[int]]:
    """Louvain communities (Blondel et al. 2008) as lists of node numbers,
    the partition that networkx 3.6.1's `louvain_communities(G, seed=seed)`
    returns, in its order.

    One `random.Random(seed)` shuffles every level's node order. networkx
    first rebuilds the graph from `G.edges()`, which reorders neighbours:
    `_gen_graph` with one group per node. Levels stop once a level's
    modularity, on its own level graph, gains at most 1e-7 over the level
    before.
    """
    rng = random.Random(seed)
    partition = [[u] for u in range(len(graph.adj))]
    adj = _gen_graph(graph.adj, partition)
    m = sum(_degrees(adj)) / 2
    mod = _modularity(adj, partition)
    com, _ = _one_level(adj, m, rng)  # the first level counts as an improvement
    while True:
        groups: dict[int, list[int]] = {}
        for u, c in enumerate(com):
            groups.setdefault(c, []).append(u)
        inner = [groups[c] for c in sorted(groups)]
        partition = [list(chain.from_iterable(partition[u] for u in group))
                     for group in inner]
        new_mod = _modularity(adj, inner)
        if new_mod - mod <= 1e-7:
            return partition
        mod = new_mod
        adj = _gen_graph(adj, inner)
        com, improvement = _one_level(adj, m, rng)
        if not improvement:
            return partition


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
        out["modularity"].append(
            _modularity(graph.adj, _louvain(graph, louvain_seed)))
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


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    if not len(a) or not len(b):
        raise ValueError("ks_distance requires nonempty samples")
    xa, xb = sorted(a), sorted(b)
    na, nb = len(xa), len(xb)
    best = 0.0
    for x in set(xa).union(xb):
        diff = abs(bisect_right(xa, x) / na - bisect_right(xb, x) / nb)
        if diff > best:
            best = diff
    return best


_N_BINS = 100
_EPS = 1e-10


def _smoothed_histograms(a: Sequence[float],
                         b: Sequence[float]) -> tuple[np.ndarray, np.ndarray] | None:
    """Shared-support histograms with additive smoothing; None when the
    joint range is a single point (distributions then coincide)."""
    if not len(a) or not len(b):
        raise ValueError("divergence requires nonempty samples")
    lo = min(min(a), min(b))
    hi = max(max(a), max(b))
    if lo == hi:
        return None
    edges = np.linspace(lo, hi, _N_BINS + 1)
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    p = (ca + _EPS) / (ca.sum() + _N_BINS * _EPS)
    q = (cb + _EPS) / (cb.sum() + _N_BINS * _EPS)
    return p, q


def kl_divergence(a: Sequence[float], b: Sequence[float]) -> float:
    """KL(p_a || p_b) on smoothed shared-support histograms, natural log."""
    hists = _smoothed_histograms(a, b)
    if hists is None:
        return 0.0
    p, q = hists
    return float(np.sum(p * np.log(p / q)))


def js_divergence(a: Sequence[float], b: Sequence[float]) -> float:
    """Jensen-Shannon divergence (natural log, in [0, ln 2])."""
    hists = _smoothed_histograms(a, b)
    if hists is None:
        return 0.0
    p, q = hists
    m = (p + q) / 2.0
    return float(0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m)))


def emd(a: Sequence[float], b: Sequence[float]) -> float:
    """1-D earth-mover distance: integral of |F_a - F_b| between sorted samples."""
    if not len(a) or not len(b):
        raise ValueError("emd requires nonempty samples")
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    pooled = np.sort(np.concatenate([xa, xb]))
    deltas = np.diff(pooled)
    if not deltas.size:
        return 0.0
    fa = np.searchsorted(xa, pooled[:-1], side="right") / len(xa)
    fb = np.searchsorted(xb, pooled[:-1], side="right") / len(xb)
    return float(np.sum(np.abs(fa - fb) * deltas))


DISTANCE_FUNCS = {
    "ks": ks_distance,
    "js": js_divergence,
    "kl": kl_divergence,
    "emd": emd,
}


def distance(name: str, a: Sequence[float], b: Sequence[float]) -> float:
    """Distance `name` between two sample lists; NaN when either is empty."""
    if not len(a) or not len(b):
        return math.nan
    return DISTANCE_FUNCS[name](a, b)


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
    values = {(metric, name): distance(name, report_orig.samples[metric],
                                       report_gen.samples[metric])
              for metric in METRIC_KINDS for name in distances}
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
