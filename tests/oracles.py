"""Independent reference implementations used to check the optimized
library code: a naive string-based miner, networkx and an exact enumeration
of shortest paths for the shortest-path metrics, and one `random_walk` per
run or pair for the walk probes."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np

from etngen import (AggregatedGraph, CoverageResult, DynConfig, MetricReport,
                    MfptResult, TemporalGraph, aggregate, bucket_of,
                    compute_report, hour_slices, random_walk, resolve_start)

_PROBE_RW = 0
_PROBE_MFPT = 1


def naive_signature_strings(g: TemporalGraph, ego: int, t_end: int,
                            width: int) -> tuple[str, ...]:
    """Per-neighbor activity strings over the window, oldest snapshot first,
    built character by character and sorted as plain text."""
    per_neighbor: dict[int, list[str]] = {}
    for pos, t in enumerate(range(t_end - width + 1, t_end + 1)):
        for u in g.snapshots[t].neighbors(ego):
            per_neighbor.setdefault(u, ["0"] * width)[pos] = "1"
    return tuple(sorted("".join(bits) for bits in per_neighbor.values()))


def naive_mine(g: TemporalGraph, k: int, periodicity: str) -> dict:
    """Re-extract every window from scratch; table mirrors MinedCounts.table
    but keys signatures by their joined-string encoding."""
    table: dict = {}
    for depth in range(1, k + 1):
        for t in range(depth, g.n_snapshots):
            bucket = bucket_of(g.time_of(t), periodicity)
            ctr = table.setdefault(bucket, {}).setdefault(depth, Counter())
            for ego in range(g.node_count):
                strings = naive_signature_strings(g, ego, t, depth + 1)
                ctr["|".join(strings) if strings else "∅"] += 1
    return table


def counts_as_strings(table: dict) -> dict:
    """Render a MinedCounts-style table with string keys for comparison."""
    out: dict = {}
    for bucket, per_depth in table.items():
        for depth, ctr in per_depth.items():
            dst = out.setdefault(bucket, {}).setdefault(depth, Counter())
            for sig, c in ctr.items():
                dst[sig.encode()] += c
    return out


def nx_graph(agg: AggregatedGraph) -> nx.Graph:
    """The networkx view metrics builds: edge weight, and distance 1/weight."""
    graph = nx.Graph()
    for (i, j), w in agg.weights.items():
        graph.add_edge(i, j, weight=w, distance=1.0 / w)
    return graph


def nx_path_metrics(graph: nx.Graph) -> tuple[dict, dict, dict, float]:
    """Weighted and unweighted betweenness and closeness per node, and the
    average shortest path on the largest connected component."""
    bw = nx.betweenness_centrality(graph, weight="distance", normalized=True)
    bu = nx.betweenness_centrality(graph, normalized=True)
    cl = nx.closeness_centrality(graph)
    largest = max(nx.connected_components(graph), key=len)
    asp = float(nx.average_shortest_path_length(graph.subgraph(largest)))
    return bw, bu, cl, asp


def exact_betweenness_means(agg: AggregatedGraph) -> tuple[Fraction, Fraction]:
    """Node means of normalised weighted and unweighted betweenness as exact
    rationals, from every simple path of the graph (small graphs only).

    A path's weighted length is the float sum of 1/weight added one edge at
    a time from its source, as networkx's Dijkstra accumulates it, and the
    paths of least length (float ==) are the shortest. With power-of-two
    weights those sums are exact, so float ties are exact ties. A node's
    betweenness sums, over ordered pairs (s, t) it lies inside, the share of
    shortest s-t paths through it, over (n-1)(n-2) when n > 2.
    """
    adj: dict[int, list[tuple[int, float]]] = {}
    for (i, j), w in agg.weights.items():
        adj.setdefault(i, []).append((j, 1.0 / w))
        adj.setdefault(j, []).append((i, 1.0 / w))
    n = len(adj)
    scale = (n - 1) * (n - 2) if n > 2 else 1

    def mean(weighted: bool) -> Fraction:
        through = dict.fromkeys(adj, Fraction(0))
        for s in adj:
            shortest: dict[int, tuple[float, list[list[int]]]] = {}

            def extend(path: list[int], length: float) -> None:
                for v, step in adj[path[-1]]:
                    if v in path:
                        continue
                    d = length + step if weighted else length + 1
                    longer = path + [v]
                    best = shortest.get(v)
                    if best is None or d < best[0]:
                        shortest[v] = (d, [longer])
                    elif d == best[0]:
                        best[1].append(longer)
                    extend(longer, d)

            extend([s], 0.0)
            for _, paths in shortest.values():
                for path in paths:
                    for v in path[1:-1]:
                        through[v] += Fraction(1, len(paths))
        return sum(through.values()) / scale / n

    return mean(True), mean(False)


def nx_report(g: TemporalGraph, louvain_seed: int = 0) -> MetricReport:
    """compute_report with its seven shortest-path families taken from
    networkx: per-hour means of the hour graphs, per node (sorted) on the
    full projection."""
    samples = dict(compute_report(g, louvain_seed=louvain_seed).samples)
    hourly: dict[str, list[float]] = {
        "avg_shortest_path": [], "hour_betweenness_w": [],
        "hour_betweenness_u": [], "hour_closeness": []}
    for agg in hour_slices(g):
        if agg.n_edges == 0:
            continue
        bw, bu, cl, asp = nx_path_metrics(nx_graph(agg))
        hourly["avg_shortest_path"].append(asp)
        hourly["hour_betweenness_w"].append(float(sum(bw.values()) / len(bw)))
        hourly["hour_betweenness_u"].append(float(sum(bu.values()) / len(bu)))
        hourly["hour_closeness"].append(float(sum(cl.values()) / len(cl)))
    samples.update(hourly)
    agg = aggregate(g)
    if agg.n_edges:
        graph = nx_graph(agg)
        bw, bu, cl, _ = nx_path_metrics(graph)
        nodes = sorted(graph.nodes())
        samples["agg_betweenness_w"] = [float(bw[u]) for u in nodes]
        samples["agg_betweenness_u"] = [float(bu[u]) for u in nodes]
        samples["agg_closeness"] = [float(cl[u]) for u in nodes]
    return MetricReport(samples=samples)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def coverage_per_run(g: TemporalGraph, cfg: DynConfig) -> CoverageResult:
    """Coverage with one `random_walk` per run, each on its own substream
    keyed (seed, rw probe, run) that also draws the start node."""
    cfg.validate()
    t_start = resolve_start(g, cfg.start_policy)
    horizon = g.n_snapshots - t_start
    samples: list[int] = []
    cum = np.zeros(horizon, dtype=np.float64)
    for run in range(cfg.rw_runs):
        rng = _stream(cfg.seed, _PROBE_RW, run)
        start = int(rng.integers(g.node_count))
        visited = {start}
        for step, pos in enumerate(random_walk(g, start, t_start, rng)):
            visited.add(pos)
            cum[step] += len(visited)
        samples.append(len(visited))
    series = [float(x / cfg.rw_runs) for x in cum]
    return CoverageResult(samples=samples, visited_series=series)


def mfpt_per_pair(g: TemporalGraph, cfg: DynConfig) -> MfptResult:
    """First passage with one `random_walk` per (source, target, repeat),
    each on its own substream keyed (seed, mfpt probe, source, target,
    repeat); samples in that order, unreached targets censored."""
    cfg.validate()
    t_start = resolve_start(g, cfg.start_policy)
    n = g.node_count
    samples: list[int] = []
    censored = 0
    for src in range(n):
        for dst in range(n):
            if dst == src:
                continue
            for rep in range(cfg.mfpt_repeats):
                rng = _stream(cfg.seed, _PROBE_MFPT, src, dst, rep)
                trace = random_walk(g, src, t_start, rng)
                if dst in trace:
                    samples.append(trace.index(dst) + 1)
                else:
                    censored += 1
    return MfptResult(samples=samples, censored=censored)
