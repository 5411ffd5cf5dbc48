"""Topological metric distributions and distribution distances.

Seventeen metric families are collected as empirical sample lists: four per
snapshot, contact duration per node pair, eight per wall-clock hour, and
four on the full aggregated projection. Reports from two graphs are compared
with KS, Jensen-Shannon, Kullback-Leibler and earth-mover distances.

Per hour graph, the average shortest path and the node means of weighted
and unweighted betweenness and of closeness come from one all-pairs pass
with no per-node values and no per-source Python search: a hop matrix from
one frontier expansion of all sources at once, networkx's float Dijkstra
distances (length 1/weight) from a Bellman-Ford run for all sources at
once, and shortest-path counts from one forward relaxation over the tight
arcs. Mean betweenness is a sum over node pairs of the mean interior node
count of their shortest paths (Brandes 2008), taken as an exact rational.
Closeness and the average shortest path are bit-identical to networkx's;
the betweenness means agree with it to about 1e-15 relative, ties being
networkx's float `==` ties. An hour whose path counts exceed float64's
exact integers falls back to `_path_stats`.

`_path_stats` gives per-node betweenness and closeness (the full
aggregate's families) from one BFS and one Dijkstra sweep per source
(Brandes 2001), run in networkx's node, neighbour, tie and summation order
so that every value equals networkx's bit for bit. The other hour metrics
(s-metric, transitivity, assortativity, Louvain modularity) still use a
networkx graph.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, count
from typing import IO, Iterable, Sequence

import networkx as nx
import numpy as np

from .tempgraph import AggregatedGraph, TemporalGraph, aggregate, hour_slices

SNAPSHOT_METRICS = ("density", "interacting_individuals", "new_conversations",
                    "connected_components")
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


def _components(adjacency: dict[int, tuple[int, ...]]) -> int:
    """Connected components among nodes that have at least one edge."""
    seen: set[int] = set()
    count = 0
    for start in adjacency:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return count


def snapshot_metrics(g: TemporalGraph) -> dict[str, list[float]]:
    """Per-layer density, active node count, new edges, component count.

    Density uses all N nodes in the denominator; new_conversations compares
    each layer with its predecessor, so it has m-1 samples.
    """
    if g.n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    n = g.node_count
    possible = n * (n - 1) / 2
    out: dict[str, list[float]] = {name: [] for name in SNAPSHOT_METRICS}
    prev: frozenset = frozenset()
    for t, snap in enumerate(g.snapshots):
        out["density"].append(snap.n_edges / possible if possible else 0.0)
        out["interacting_individuals"].append(float(len(snap.active_nodes)))
        out["connected_components"].append(float(_components(snap.adjacency)))
        if t >= 1:
            out["new_conversations"].append(float(len(snap.edges - prev)))
        prev = snap.edges
    return out


def contact_durations(g: TemporalGraph) -> list[float]:
    """Mean length of maximal consecutive-presence runs, one value per pair."""
    runs: dict[tuple[int, int], list[int]] = {}
    open_runs: dict[tuple[int, int], int] = {}
    for snap in g.snapshots:
        ended = [e for e in open_runs if e not in snap.edges]
        for e in ended:
            runs.setdefault(e, []).append(open_runs.pop(e))
        for e in snap.edges:
            open_runs[e] = open_runs.get(e, 0) + 1
    for e, length in open_runs.items():
        runs.setdefault(e, []).append(length)
    return [sum(r) / len(r) for _, r in sorted(runs.items())]


def _hour_nx(agg: AggregatedGraph) -> nx.Graph:
    graph = nx.Graph()
    for (i, j), w in agg.weights.items():
        graph.add_edge(i, j, weight=w, distance=1.0 / w)
    return graph


@dataclass
class _PathStats:
    """Shortest-path quantities of one aggregated graph. Per-node lists follow
    `nodes`, the order in which `nx.Graph.add_edge` meets them in `weights`."""

    nodes: list[int]
    betweenness_w: list[float]
    betweenness_u: list[float]
    closeness: list[float]
    avg_shortest_path: float  # on the first largest connected component


def _bfs(adj: list[list[int]], s: int
         ) -> tuple[list[int], list[list[int]], list[float], int]:
    """Visit order, shortest-path predecessors and path counts from `s`, and
    the sum of hop distances to the nodes reached."""
    n = len(adj)
    sigma = [0.0] * n
    sigma[s] = 1.0
    hops = [-1] * n
    hops[s] = 0
    preds: list = [None] * n  # a node's list is made when it is reached
    order = [s]
    dist_sum = 0
    for v in order:  # `order` doubles as the FIFO queue
        nxt = hops[v] + 1
        sigma_v = sigma[v]
        for w in adj[v]:
            hops_w = hops[w]
            if hops_w < 0:
                hops[w] = nxt
                order.append(w)
                dist_sum += nxt
                sigma[w] = sigma_v
                preds[w] = [v]
            elif hops_w == nxt:
                sigma[w] += sigma_v
                preds[w].append(v)
    return order, preds, sigma, dist_sum


def _dijkstra(wadj: list[list[tuple[int, float]]], s: int
              ) -> tuple[list[int], list[list[int]], list[float]]:
    """Settle order, predecessors and path counts from `s`, with networkx's
    heap entries (dist, counter, pred, node) and exact `==` for ties."""
    n = len(wadj)
    sigma = [0.0] * n
    sigma[s] = 1.0
    preds: list = [None] * n
    seen = [math.inf] * n
    seen[s] = 0
    done = [False] * n
    order = []
    counter = count()
    heap = [(0, next(counter), s, s)]
    while heap:
        dist, _, pred, v = heappop(heap)
        if done[v]:
            continue
        done[v] = True
        sigma[v] += sigma[pred]
        order.append(v)
        for w, step in wadj[v]:
            vw_dist = dist + step
            if not done[w] and vw_dist < seen[w]:
                seen[w] = vw_dist
                heappush(heap, (vw_dist, next(counter), v, w))
                sigma[w] = 0.0
                preds[w] = [v]
            elif vw_dist == seen[w]:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma


def _accumulate(betweenness: list[float], order: list[int],
                preds: list[list[int]], sigma: list[float]) -> None:
    """Brandes dependency accumulation for one source, `order[0]`."""
    delta = [0.0] * len(sigma)
    for w in order[:0:-1]:
        coeff = (1 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
        betweenness[w] += delta[w]


def _path_stats(agg: AggregatedGraph) -> _PathStats:
    """Unweighted and weighted (distance 1/weight) betweenness, closeness and
    the largest component's average shortest path, from one BFS and one
    Dijkstra per source.

    Every search, tie rule and sum runs in networkx's order (the node and
    neighbour order of `_hour_nx`), so the values equal networkx's bit for
    bit.
    """
    index: dict[int, int] = {}
    adj: list[list[int]] = []
    wadj: list[list[tuple[int, float]]] = []
    for (i, j), w in agg.weights.items():
        for u in (i, j):
            if u not in index:
                index[u] = len(adj)
                adj.append([])
                wadj.append([])
        a, b = index[i], index[j]
        dist = 1.0 / w
        adj[a].append(b)
        adj[b].append(a)
        wadj[a].append((b, dist))
        wadj[b].append((a, dist))
    n = len(adj)
    bu = [0.0] * n
    bw = [0.0] * n
    closeness = [0.0] * n
    component = [-1] * n
    comp_size: list[int] = []
    comp_dist_sum: list[int] = []
    for s in range(n):
        order, preds, sigma, dist_sum = _bfs(adj, s)
        # Wasserman-Faust closeness; every node has a neighbour, so reach >= 2.
        reach = len(order)
        c = (reach - 1.0) / dist_sum
        c *= (reach - 1.0) / (n - 1)
        closeness[s] = c
        if component[s] < 0:
            for v in order:
                component[v] = len(comp_size)
            comp_size.append(reach)
            comp_dist_sum.append(0)
        comp_dist_sum[component[s]] += dist_sum
        _accumulate(bu, order, preds, sigma)
        _accumulate(bw, *_dijkstra(wadj, s))

    if n > 2:  # normalise by the (n-1)(n-2) ordered pairs that avoid v
        scale = 1 / ((n - 1) * (n - 2))
        bu = [b * scale for b in bu]
        bw = [b * scale for b in bw]
    largest = max(range(len(comp_size)), key=comp_size.__getitem__)
    size = comp_size[largest]
    return _PathStats(nodes=list(index), betweenness_w=bw, betweenness_u=bu,
                      closeness=closeness,
                      avg_shortest_path=comp_dist_sum[largest] / (size * (size - 1)))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _fan_out(frontier: np.ndarray, n: int, deg: np.ndarray, first: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Arcs out of the node of each flat (source, node) key in `frontier`:
    their count per key, and their positions in tail-sorted arc order."""
    node = frontier % n
    d = deg[node]
    stop = np.cumsum(d)
    at = np.repeat(first[node] - stop + d, d)
    at += np.arange(stop[-1])
    return d, at


def _hop_matrix(n: int, heads: np.ndarray, deg: np.ndarray, first: np.ndarray
                ) -> np.ndarray:
    """Hop distance of every ordered node pair, -1 when unreachable.

    One frontier expansion runs all sources at once: each level marks the
    (source, node) pairs that the pairs first reached at the previous level
    reach through one arc, so all levels together touch n x arcs entries. A
    boolean matrix product per level would run in multithreaded BLAS, whose
    time on a two-core host varied 25-fold from run to run.
    """
    hops = np.full(n * n, -1, dtype=np.int64)
    frontier = np.arange(n) * (n + 1)  # flat (source, node) keys
    hops[frontier] = 0
    fresh = np.zeros(n * n, dtype=bool)
    level = 0
    while frontier.size:
        level += 1
        d, at = _fan_out(frontier, n, deg, first)
        fresh[:] = False
        fresh[np.repeat(frontier - frontier % n, d) + heads[at]] = True
        fresh &= hops < 0
        frontier = np.flatnonzero(fresh)
        hops[frontier] = level
    return hops.reshape(n, n)


def _float_distances(n: int, heads: np.ndarray, lengths: np.ndarray,
                     deg: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Distance from every source to every node as networkx's Dijkstra
    computes it: the least float sum of arc lengths added one arc at a time
    from the source; n when unreachable.

    Bellman-Ford for all sources at once, each round extending only the
    pairs improved in the round before. Rounding is monotone, and an hour's
    lengths (at least 1/3600) change every sum below n, so the fixed point
    is unique and equals Dijkstra's.
    """
    # In-place sums and early `del`s keep the process's peak RSS lower.
    dist = np.full(n * n, float(n))  # no path is as long: n-1 arcs of length <= 1
    frontier = np.arange(n) * (n + 1)
    dist[frontier] = 0.0
    fresh = np.zeros(n * n, dtype=bool)
    while frontier.size:
        d, at = _fan_out(frontier, n, deg, first)
        head = np.repeat(frontier - frontier % n, d)
        head += heads[at]
        cand = np.repeat(dist[frontier], d)
        cand += lengths[at]
        del at
        better = cand < dist[head]
        head = head[better]
        np.minimum.at(dist, head, cand[better])
        del cand, better
        fresh[:] = False
        fresh[head] = True
        frontier = np.flatnonzero(fresh)
    return dist.reshape(n, n)


def _hour_path_means(agg: AggregatedGraph
                     ) -> tuple[float, float, float, float] | None:
    """Average shortest path (first largest component) and the node means of
    weighted and unweighted betweenness and of closeness, the values
    `_path_stats` gives, from all-pairs matrices.

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
    are not exact.
    """
    nodes = list(dict.fromkeys(chain.from_iterable(agg.weights)))
    index = {u: a for a, u in enumerate(nodes)}
    n = len(nodes)
    ends = np.array([(index[i], index[j]) for i, j in agg.weights], dtype=np.intp)
    src = np.concatenate((ends[:, 0], ends[:, 1]))
    dst = np.concatenate((ends[:, 1], ends[:, 0]))
    length = 1.0 / np.fromiter(agg.weights.values(), dtype=np.float64,
                               count=len(ends))
    length = np.concatenate((length, length))
    order = np.argsort(src, kind="stable")
    heads = dst[order]
    deg = np.bincount(src, minlength=n)
    first = np.cumsum(deg) - deg

    hops = _hop_matrix(n, heads, deg, first)
    reached = hops >= 0
    reach = reached.sum(axis=1)
    dist_sum = np.maximum(hops, 0).sum(axis=1)
    # Wasserman-Faust closeness, in `_path_stats`'s operation order.
    closeness = (reach - 1.0) / dist_sum
    closeness *= (reach - 1.0) / (n - 1)
    component = reached.argmax(axis=1)  # its lowest node: components in node order
    sizes = np.bincount(component, minlength=n)
    largest = int(sizes.argmax())
    size = int(sizes[largest])
    asp = int(dist_sum[component == largest].sum()) / (size * (size - 1))
    pairs = int(reach.sum()) - n
    scale = n * (n - 1) * (n - 2) if n > 2 else n
    betweenness_u = (int(dist_sum.sum()) - pairs) / scale

    dist = _float_distances(n, heads, length[order], deg, first)
    tight = dist[:, src]
    tight += length
    source, arc = np.nonzero(tight == dist[:, dst])
    del tight
    tail = source * n + src[arc]
    head = source * n + dst[arc]
    paths = np.eye(n).ravel()  # shortest paths of `hop` arcs, per flat (s, t)
    sigma = np.zeros(n * n)
    hop_sum = np.zeros(n * n)
    hop = 0
    while True:
        hop += 1
        paths = np.bincount(head, weights=paths[tail], minlength=n * n)
        if not paths.any():
            break
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


def _degree_variance_zero(graph: nx.Graph) -> bool:
    degrees = {d for _, d in graph.degree()}
    return len(degrees) <= 1


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
        graph = _hour_nx(agg)
        degrees = dict(graph.degree())
        out["s_metric"].append(float(sum(degrees[i] * degrees[j]
                                         for i, j in graph.edges())))
        out["clustering"].append(float(nx.transitivity(graph)))
        if not _degree_variance_zero(graph):
            r = nx.degree_assortativity_coefficient(graph)
            if not math.isnan(r):
                out["assortativity"].append(float(r))
        means = _hour_path_means(agg)
        if means is None:
            paths = _path_stats(agg)
            means = (paths.avg_shortest_path, _mean(paths.betweenness_w),
                     _mean(paths.betweenness_u), _mean(paths.closeness))
        asp, betweenness_w, betweenness_u, closeness = means
        out["avg_shortest_path"].append(asp)
        communities = nx.community.louvain_communities(
            graph, weight="weight", seed=louvain_seed)
        out["modularity"].append(
            float(nx.community.modularity(graph, communities, weight="weight")))
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
    paths = _path_stats(agg)
    by_node = sorted(range(len(paths.nodes)), key=paths.nodes.__getitem__)
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
