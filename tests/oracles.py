"""Independent reference implementations used to check the optimized
library code: a naive string-based miner, aggregation and hour slices
summed edge by edge over each snapshot's `edges`, snapshot metrics from
networkx and contact durations from a dict of open runs, layer proposal
ego by ego, stub pairing and request validation with one scalar draw per
index and per coin, networkx, a per-source Brandes sweep and an exact
enumeration of shortest paths for the shortest-path metrics, one
`random_walk` per run or pair for the walk probes, and one `sir_run` per
epidemic for SIR."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count

import networkx as nx
import numpy as np

from etngen import (AggregatedGraph, CoverageResult, DynConfig, MetricReport,
                    MfptResult, SirResult, TemporalGraph, aggregate, bucket_of,
                    compute_report, hour_slices, random_walk, resolve_start,
                    sir_run)
from etngen.dynamics import _sir_seeds
from etngen.etn import EtnSignature, NeighborWindow
from etngen.gen import ProvisionalLayer, _norm
from etngen.model import ExtensionDistribution, LocalModel, lookup_extension
from etngen.tempgraph import SECONDS_PER_HOUR, BucketKey, require_hour_aligned
from etngen.metrics import _Graph

_PROBE_RW = 0
_PROBE_MFPT = 1
_PROBE_SIR = 2


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


def dict_aggregate(g: TemporalGraph) -> AggregatedGraph:
    """`tempgraph.aggregate`, one dict update per snapshot edge: the sum of
    all snapshots, its edges in sorted (i, j) order."""
    if g.n_snapshots < 1:
        raise ValueError("cannot aggregate an empty snapshot sequence")
    weights: dict[tuple[int, int], int] = {}
    for snap in g.snapshots:
        for e in snap.edges:
            weights[e] = weights.get(e, 0) + 1
    return AggregatedGraph(dict(sorted(weights.items())))


def dict_hour_slices(g: TemporalGraph) -> list[AggregatedGraph]:
    """`tempgraph.hour_slices`, one dict per wall-clock hour: each hour's
    sum, empty hours included, its edges in sorted (i, j) order."""
    require_hour_aligned(g.gap_seconds)
    if g.n_snapshots < 1:
        return []
    first = g.time_of(0) // SECONDS_PER_HOUR
    last = g.time_of(g.n_snapshots - 1) // SECONDS_PER_HOUR
    acc: list[dict[tuple[int, int], int]] = [{} for _ in range(last - first + 1)]
    for t, snap in enumerate(g.snapshots):
        weights = acc[g.time_of(t) // SECONDS_PER_HOUR - first]
        for e in snap.edges:
            weights[e] = weights.get(e, 0) + 1
    return [AggregatedGraph(dict(sorted(w.items()))) for w in acc]


def nx_snapshot_metrics(g: TemporalGraph) -> dict[str, list[float]]:
    """`metrics.snapshot_metrics` from one networkx graph per snapshot,
    built from its `edges` alone (so without isolated nodes): edge and node
    counts, `number_connected_components`, and new conversations as a set
    difference with the snapshot before."""
    n = g.node_count
    possible = n * (n - 1) / 2
    out: dict[str, list[float]] = {"density": [], "interacting_individuals": [],
                                   "new_conversations": [], "connected_components": []}
    prev: frozenset = frozenset()
    for t, snap in enumerate(g.snapshots):
        layer = nx.Graph(snap.edges)
        out["density"].append(layer.number_of_edges() / possible if possible else 0.0)
        out["interacting_individuals"].append(float(layer.number_of_nodes()))
        out["connected_components"].append(float(nx.number_connected_components(layer)))
        if t >= 1:
            out["new_conversations"].append(float(len(snap.edges - prev)))
        prev = snap.edges
    return out


def dict_contact_durations(g: TemporalGraph) -> list[float]:
    """`metrics.contact_durations` with one dict of open runs carried from
    snapshot to snapshot: per pair in sorted order, the mean length of its
    maximal consecutive-presence runs."""
    runs: dict[tuple[int, int], list[int]] = {}
    open_runs: dict[tuple[int, int], int] = {}
    for snap in g.snapshots:
        edges = snap.edges
        ended = [e for e in open_runs if e not in edges]
        for e in ended:
            runs.setdefault(e, []).append(open_runs.pop(e))
        for e in edges:
            open_runs[e] = open_runs.get(e, 0) + 1
    for e, length in open_runs.items():
        runs.setdefault(e, []).append(length)
    return [sum(r) / len(r) for _, r in sorted(runs.items())]


def scalar_pair_stubs(stubs: list[int], edges: set[tuple[int, int]],
                      rng: np.random.Generator) -> tuple[int, int]:
    """`gen._pair_stubs` with one scalar draw per index: an odd count drops
    one uniform stub, then uniform pairs skip self-loops and duplicates,
    attempts capped at 10x the stubs. Returns (added, dropped)."""
    stubs = list(stubs)
    dropped = len(stubs) % 2
    if dropped:
        stubs.pop(int(rng.integers(len(stubs))))
    budget = 10 * len(stubs)
    added = 0
    while len(stubs) >= 2 and budget > 0:
        budget -= 1
        a = int(rng.integers(len(stubs)))
        b = int(rng.integers(len(stubs) - 1))
        if b >= a:
            b += 1
        i, j = stubs[a], stubs[b]
        e = _norm(i, j)
        if i != j and e not in edges:
            edges.add(e)
            added += 1
            for idx in sorted((a, b), reverse=True):
                stubs.pop(idx)
    return added, dropped + len(stubs)


def scalar_validate_layer(requests: set[tuple[int, int]], stubs: list[int],
                          alpha: float, rng: np.random.Generator
                          ) -> tuple[set[tuple[int, int]], tuple[int, ...]]:
    """`gen.validate_layer` with one scalar coin per one-directional request
    in sorted order: the edges, and (reciprocal, one-directional, stub
    edges, dropped requests, dropped stubs)."""
    edges: set[tuple[int, int]] = set()
    reciprocal = one_dir = rejected = 0
    for i, j in sorted(requests):
        if (j, i) in requests:
            if i < j:
                edges.add((i, j))
                reciprocal += 1
        elif rng.random() < alpha:
            edges.add(_norm(i, j))
            one_dir += 1
        else:
            rejected += 1
    stub_edges, dropped = scalar_pair_stubs(stubs, edges, rng)
    return edges, (reciprocal, one_dir, stub_edges, rejected, dropped)


def scalar_propose_layer(window: NeighborWindow, model: LocalModel,
                         bucket: BucketKey, rng: np.random.Generator
                         ) -> ProvisionalLayer:
    """`gen.propose_layer` ego by ego: every ego names its prefix and looks
    it up (egos sharing a prefix share the lookup), one integer vector
    picks all extensions in ego order, each by the distribution's own
    bisection, and tie choices draw in ego order."""
    depth = window.depth
    egos = range(window.lo, window.hi)
    # Egos sharing a prefix share its lookup; each ego is still one lookup
    # in `model.fallback_counts`.
    cells: dict[tuple[int, ...], tuple[ExtensionDistribution | None, str]] = {}
    dists: list[ExtensionDistribution | None] = []
    levels: list[str] = []
    for ego in egos:
        strings = window.strings(ego, depth)
        cell = cells.get(strings)
        if cell is None:
            cell = cells[strings] = lookup_extension(
                model, bucket, depth, EtnSignature(depth, strings))
        dists.append(cell[0])
        levels.append(cell[1])
    model.fallback_counts.update(levels)
    draws = rng.integers(0, [d.total if d is not None else 1 for d in dists]).tolist()
    prov = ProvisionalLayer()
    for ego, dist, r in zip(egos, dists, draws):
        if dist is None:
            continue
        ext = dist.pick(r)
        need: dict[int, int] = {}
        for s in ext.strings:
            if s & 1:
                need[s >> 1] = need.get(s >> 1, 0) + 1
        if not need:
            continue
        by_bits: dict[int, list[int]] = {}
        for u, bits in window.bits(ego).items():
            by_bits.setdefault(bits, []).append(u)
        for pbits in sorted(need):
            cnt = need[pbits]
            if pbits == 0:
                prov.stubs.extend([ego] * cnt)
                continue
            # The extension extends the ego's own prefix (the fallback chain
            # keeps it or drops to the empty prefix, whose strings all have
            # pbits 0), so at least cnt neighbours carry these bits.
            cands = sorted(by_bits[pbits])
            if cnt == len(cands):
                chosen = cands
            else:
                idx = rng.choice(len(cands), size=cnt, replace=False)
                chosen = [cands[i] for i in sorted(idx)]
            for u in chosen:
                prov.requests.add((ego, u))
    return prov


def nx_graph(agg: AggregatedGraph) -> nx.Graph:
    """The aggregated graph in networkx: edge weight, and distance 1/weight
    for weighted betweenness."""
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


# The per-source reference for the shortest-path metrics: one BFS and one
# Dijkstra sweep per source (Brandes 2001), in networkx's node, neighbour, tie
# and summation order, so that every value equals networkx's bit for bit.

@dataclass
class _PathStats:
    """Shortest-path quantities of one aggregated graph. Per-node lists follow
    `nodes`, the node order of its `_Graph`."""

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


def _path_stats(graph: _Graph) -> _PathStats:
    """Unweighted and weighted (distance 1/weight) betweenness, closeness and
    the largest component's average shortest path, from one BFS and one
    Dijkstra per source.

    Every search, tie rule and sum runs in networkx's order (the node and
    neighbour order of `_Graph`), so the values equal networkx's bit for
    bit.
    """
    adj = [list(a) for a in graph.adj]
    wadj = [[(v, 1.0 / w) for v, w in a.items()] for a in graph.adj]
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
    return _PathStats(nodes=graph.labels, betweenness_w=bw, betweenness_u=bu,
                      closeness=closeness,
                      avg_shortest_path=comp_dist_sum[largest] / (size * (size - 1)))


def exact_betweenness_means(agg: AggregatedGraph) -> tuple[Fraction, Fraction]:
    """Node means of normalised weighted and unweighted betweenness as exact
    rationals, from every simple path of the graph (small graphs only).

    A path's weighted length is the float sum of 1/weight added one edge at
    a time from its source, as networkx's Dijkstra accumulates it. A path is
    shortest when it and each of its prefixes has the least such length to
    its own end. The prefix rule is Dijkstra's: it extends only paths that
    are shortest to their end, so where float rounding makes a path tie the
    least length only at its end, it is not counted. With power-of-two
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
            least: dict[int, float] = {}
            shortest: dict[int, list[list[int]]] = {}

            def extend(path: list[int], length: float, keep: bool) -> None:
                # keep=False: record each end's least length over all simple
                # paths; keep=True: collect the paths shortest at every prefix.
                for v, step in adj[path[-1]]:
                    if v in path:
                        continue
                    d = length + step if weighted else length + 1
                    longer = path + [v]
                    if not keep:
                        least[v] = min(d, least.get(v, d))
                    elif d == least[v]:
                        shortest.setdefault(v, []).append(longer)
                    else:
                        continue
                    extend(longer, d, keep)

            extend([s], 0.0, False)
            extend([s], 0.0, True)
            for paths in shortest.values():
                for path in paths:
                    for v in path[1:-1]:
                        through[v] += Fraction(1, len(paths))
        return sum(through.values()) / scale / n

    return mean(True), mean(False)


def nx_report(g: TemporalGraph, louvain_seed: int = 0) -> MetricReport:
    """compute_report with every hour family and the aggregate's
    shortest-path families taken from networkx: hour graph values (the
    path families as node means), then per node (sorted) on the full
    projection. Only the snapshot, duration and edge-strength families come
    from compute_report."""
    samples = dict(compute_report(g, louvain_seed=louvain_seed).samples)
    hourly: dict[str, list[float]] = {
        "s_metric": [], "clustering": [], "assortativity": [],
        "avg_shortest_path": [], "modularity": [], "hour_betweenness_w": [],
        "hour_betweenness_u": [], "hour_closeness": []}
    for agg in hour_slices(g):
        if agg.n_edges == 0:
            continue
        graph = nx_graph(agg)
        hourly["s_metric"].append(nx.s_metric(graph))
        hourly["clustering"].append(float(nx.transitivity(graph)))
        if len({d for _, d in graph.degree()}) > 1:
            r = nx.degree_assortativity_coefficient(graph)
            if not np.isnan(r):
                hourly["assortativity"].append(float(r))
        bw, bu, cl, asp = nx_path_metrics(graph)
        hourly["avg_shortest_path"].append(asp)
        communities = nx.community.louvain_communities(
            graph, weight="weight", seed=louvain_seed)
        hourly["modularity"].append(
            float(nx.community.modularity(graph, communities, weight="weight")))
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


def _lam_key(lam: float) -> int:
    return int(round(lam * 1_000_000))


def sir_per_run(g: TemporalGraph, cfg: DynConfig) -> SirResult:
    """SIR with one `sir_run` per epidemic, each on its own substream keyed
    (seed, sir probe, lambda, run) that also draws the seed node."""
    cfg.validate()
    t_start, connected = _sir_seeds(g, cfg.start_policy)
    horizon = g.n_snapshots - t_start
    cum_infected = np.zeros(horizon, dtype=np.float64)
    samples: list[int] = []
    for run in range(cfg.sir_runs):
        rng = _stream(cfg.seed, _PROBE_SIR, _lam_key(cfg.lam), run)
        seed_node = connected[int(rng.integers(len(connected)))]
        trajectory = sir_run(g, seed_node, t_start, cfg.lam, cfg.mu, rng)
        for step, count in enumerate(trajectory.infected):
            cum_infected[step] += count
        samples.append(trajectory.r0)
    series = [float(x / cfg.sir_runs) for x in cum_infected]
    return SirResult(samples=samples, infected_series=series)
