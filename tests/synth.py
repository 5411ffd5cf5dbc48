"""Synthetic temporal graphs, and generation's windows over them, shared
across the test suite."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from etngen import TemporalGraph
from etngen import gen

MONDAY_EPOCH = 345600  # 1970-01-05 00:00 UTC, a Monday


def er_layers(n: int, m: int, p, rng: np.random.Generator) -> list:
    """Independent G(n,p) edge sets; p may be a scalar or per-layer sequence."""
    iu, ju = np.triu_indices(n, k=1)
    probs = [p] * m if np.isscalar(p) else list(p)
    layers = []
    for t in range(m):
        mask = rng.random(iu.size) < probs[t]
        layers.append(list(zip(iu[mask].tolist(), ju[mask].tolist())))
    return layers


def random_graph(n: int = 8, m: int = 6, p: float = 0.3, gap: int = 300,
                 epoch: int = 0, seed: int = 0) -> TemporalGraph:
    rng = np.random.default_rng(seed)
    return TemporalGraph(n, er_layers(n, m, p, rng), gap, epoch=epoch)


def sinusoidal_graph(n: int = 50, days: int = 2, gap: int = 300,
                     peak_p: float = 0.008, seed: int = 7,
                     epoch: int = MONDAY_EPOCH) -> TemporalGraph:
    """Random temporal graph with a smooth daytime activity bump (7h-21h)."""
    per_day = 86400 // gap
    m = days * per_day
    probs = []
    for t in range(m):
        hour = ((epoch + t * gap) % 86400) / 3600
        if 7.0 <= hour <= 21.0:
            activity = math.sin(math.pi * (hour - 7.0) / 14.0)
        else:
            activity = 0.0
        probs.append(peak_p * activity * activity)
    rng = np.random.default_rng(seed)
    return TemporalGraph(n, er_layers(n, m, probs, rng), gap, epoch=epoch)


def weekly_graph(n: int = 50, weeks: int = 1, gap: int = 3600,
                 weekday_p: float = 0.02, weekend_p: float = 0.004,
                 seed: int = 11, epoch: int = MONDAY_EPOCH) -> TemporalGraph:
    """Flat-rate graph whose edge probability differs on weekends."""
    per_week = 7 * 86400 // gap
    m = weeks * per_week
    probs = []
    for t in range(m):
        dow = ((epoch + t * gap) // 86400 + 3) % 7
        probs.append(weekend_p if dow >= 5 else weekday_p)
    rng = np.random.default_rng(seed)
    return TemporalGraph(n, er_layers(n, m, probs, rng), gap, epoch=epoch)


@st.composite
def layered_graphs(draw, gap: int = 300) -> TemporalGraph:
    """A graph of 0 to 9 nodes over 1 to 7 layers, each drawn as a list of
    pairs in either order with repeats; empty layers and isolated nodes
    occur."""
    n = draw(st.integers(min_value=0, max_value=9))
    m = draw(st.integers(min_value=1, max_value=7))
    if n < 2:
        return TemporalGraph(n, [[]] * m, gap)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    return TemporalGraph(n, [draw(st.lists(pair, max_size=12)) for _ in range(m)], gap)


def layer_edges(g: TemporalGraph) -> list[set[tuple[int, int]]]:
    """Each layer's edges as a set of (i, j) pairs with i < j: the rows
    pairs[offsets[t]:offsets[t + 1]] of the graph's edge table."""
    bounds = g.offsets.tolist()
    rows = list(map(tuple, g.pairs.tolist()))
    return [set(rows[a:b]) for a, b in zip(bounds, bounds[1:])]


def window_of(layers, n: int, k: int | None = None) -> tuple:
    """The window that generation builds over the last min(len(layers), k)
    of `layers` (edge collections, oldest first; k defaults to all) on n
    nodes, as `propose_layer`'s first four arguments: keys, bits, depth, n."""
    recent = [gen._arc_keys(gen._edge_keys(edges, n), n)
              for edges in layers][-(k or len(layers)):]
    return (*gen._window(recent), len(recent), n)


def window_strings(window, ego: int, width: int) -> tuple[int, ...]:
    """The sorted nonzero strings of `ego`'s width-`width` window, read
    from the arrays of a `window_of` window."""
    keys, bits, _, n = window
    mask = (1 << width) - 1
    return tuple(sorted(v for v in (bits[keys // n == ego] & mask).tolist() if v))
