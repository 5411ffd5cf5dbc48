"""Surrogate layer generation: seed, propose, validate.

Layer t proposes directed edge requests by sampling, for every node, an
extension of its current width-min(t,k) neighborhood prefix; requests are
then validated into undirected edges. Unmatched half-edges (stubs), the
seed layer's from its degrees and later layers' from their extensions, are
all paired by one rule, `_pair_stubs`. Every node's prefix is read from a
window in mining's encoding, rebuilt per layer from the arc keys of the
last min(t,k) layers (`_window`); the nodes with a neighbor in it name
theirs all at once, packed and ranked as mining's are (`PrefixKeys.rows`),
and the others share the empty prefix. A finished layer is kept only as its
edge keys i * n + j (i < j), one sorted int64 array, from which its arc
keys and, at the end, the surrogate's edge table are read. One search of
the depth's prefixes in the model's `pick_index` gives every node its
distribution, in the row of the layer's bucket, and one search of its
running count sums picks every extension. All randomness comes from one numpy
generator per surrogate, seeded by the config and drawn in a fixed order:
degree resampling, the seed layer, then each layer's proposal and its
validation, with nodes in node order within a layer. So output depends only
on the model and the config, not on scheduling, and a run of T layers is
the first T layers of any longer run at the same seed.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import IO, Collection, Iterable, Sequence

import numpy as np

from .etn import _or_by_key
from .model import FALLBACK_LEVELS, LocalModel
# Not called here: layers draw all extensions as one vector. The name stays
# importable as gen.sample_extension, which bench/worker.py wraps.
from .model import sample_extension  # noqa: F401
from .tempgraph import MAX_NODES, BucketKey, TemporalGraph, _pack_table, bucket_of

@dataclass
class GenConfig:
    """Generation parameters. `epoch` and `seed_degrees` default to the
    model's own values when None."""

    n_nodes: int
    n_snapshots: int
    k: int = 2
    alpha: float = 0.5
    seed: int = 0
    epoch: int | None = None
    seed_degrees: tuple[int, ...] | None = None

    def validate(self, model_k: int) -> None:
        if not 2 <= self.n_nodes <= MAX_NODES:
            raise ValueError(f"n_nodes must be in [2, {MAX_NODES}], got {self.n_nodes}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k > model_k:
            raise ValueError(f"config k={self.k} exceeds model k={model_k}")
        if self.n_snapshots < self.k + 1:
            raise ValueError(f"n_snapshots must be >= k+1 = {self.k + 1}, "
                             f"got {self.n_snapshots}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")


@dataclass
class ProvisionalLayer:
    """Directed requests plus unmatched half-edges awaiting validation."""

    requests: set[tuple[int, int]] = field(default_factory=set)
    stubs: list[int] = field(default_factory=list)


@dataclass
class LayerDiagnostics:
    layer: int
    reciprocal: int
    one_directional: int
    stub_edges: int
    dropped_requests: int
    dropped_stubs: int


def _norm(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _pair_stubs(stubs: Sequence[int], edges: set[tuple[int, int]],
                rng: np.random.Generator) -> tuple[int, int]:
    """Pair half-edges at random into `edges`, in place; returns (added,
    dropped). An odd count first drops one uniformly chosen stub. Pairs of
    the stubs left are then drawn uniformly, skipping self-loops and
    duplicates, with attempts capped at 10x the stub count; the stubs left
    over are dropped.

    A round shuffles the stubs left once and walks their consecutive pairs,
    one attempt each. Each pair of a uniform shuffle is uniform over the
    stubs its predecessors leave, so the round accepts pairs up to the first
    self-loop or duplicate, and that pair and the ones after it go back for
    the next shuffle. A rejection with no acceptable pair left (one ego
    holds every stub, or every two of their egos are joined) ends the
    pairing: from there every attempt would fail until the budget is spent.
    With no stubs, as in many layers, it returns at once and draws nothing.
    """
    if not stubs:
        return 0, 0
    pool = np.array(stubs, dtype=np.int64)
    dropped = len(pool) % 2
    if dropped:
        pool = np.delete(pool, rng.integers(len(pool)))
    budget = 10 * len(pool)
    added = 0
    while len(pool) >= 2 and budget > 0:
        rng.shuffle(pool)
        ends = pool[:2 * min(len(pool) // 2, budget)].tolist()
        taken = 0
        for i, j in zip(ends[::2], ends[1::2]):
            e = (i, j) if i < j else (j, i)
            if i == j or e in edges:
                break
            edges.add(e)
            taken += 1
        rejected = 2 * taken < len(ends)
        added += taken
        budget -= taken + rejected
        pool = pool[2 * taken:]
        if rejected and all(e in edges for e in combinations(sorted(set(pool.tolist())), 2)):
            break
    return added, dropped + len(pool)


def seed_layer(degrees: Sequence[int], rng: np.random.Generator
               ) -> set[tuple[int, int]]:
    """Configuration-model layer realizing `degrees` as closely as possible,
    as its set of (i, j) edges with i < j.

    Node i contributes degrees[i] stubs, which are paired by the one rule
    every layer's stubs follow (`validate_layer`): an odd sum drops one
    uniformly chosen stub, then uniform random pairs skip self-loops and
    duplicates, drawn from `rng` by `_pair_stubs`' shuffles.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    edges: set[tuple[int, int]] = set()
    _pair_stubs([i for i, d in enumerate(degrees) for _ in range(d)], edges, rng)
    return edges


def _edge_keys(edges: Collection[tuple[int, int]], n: int) -> np.ndarray:
    """The edges (i, j), i < j, of a layer on n nodes as their keys i * n + j,
    ascending: the layer's rows of the edge table, in table order."""
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    keys = ends[::2] * n + ends[1::2]
    keys.sort()
    return keys


def _arc_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Both directions of every edge of a layer on n nodes, given its edge
    keys (`_edge_keys`), as the keys ego * n + neighbor."""
    i, j = np.divmod(keys, n)
    return np.concatenate((keys, j * n + i))


def _window(recent: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The window over the arc keys of the `recent` layers, oldest first:
    its distinct keys, ascending, and their strings, the newest layer in
    bit 0. Over empty layers only, it is the newest one's empty keys."""
    live = [(keys, 1 << age) for age, keys in enumerate(reversed(recent)) if keys.size]
    return _or_by_key(*zip(*live)) if live else (recent[-1], recent[-1])


def propose_layer(keys: np.ndarray, bits: np.ndarray, depth: int, n_nodes: int,
                  model: LocalModel, bucket: BucketKey,
                  rng: np.random.Generator) -> ProvisionalLayer:
    """Sample one extension per ego and turn new-activity bits into requests.

    Every ego's prefix is its window (`_window`) of the last `depth`
    layers: `keys` ego * n_nodes + neighbor, ascending, with `bits`. `rng`
    is the surrogate's one generator: one integer vector drawn from it
    picks all egos' extensions, in ego order (an ego with no distribution
    draws from [0, 1)); tie choices then draw from it in ego order too.
    An extension string whose final bit is set points at a neighbor whose
    window activity equals the string's prefix part, chosen uniformly among
    ties; strings active only in the final bit have no identifiable target
    and become stubs.

    One search of the depth's prefixes in the model's `pick_index` gives
    each ego its column of the depth's answers; the bucket's row holds the
    distribution `lookup_extension` answers with and its fallback level,
    one lookup per ego in `model.fallback_counts`. One search of the
    index's running count sums turns all draws into extensions. So a
    layer's numpy calls do not grow with the egos or the distributions;
    Python work is left to egos whose extension requests a neighbor, each
    found by one search of key // n_nodes.
    """
    index = model.pick_index
    known, position, level = index.answers[depth]
    b = index.bucket_row(bucket)
    ego = keys // n_nodes
    row = known.rows(ego, bits, n_nodes)
    # The bucket's row as a view, then a 1-D take: half the time of a 2-D
    # index, paid twice per layer.
    dist_of = position[b][row]
    levels = np.bincount(level[b][row], minlength=len(FALLBACK_LEVELS)).tolist()
    model.fallback_counts.update({lv: c for lv, c in zip(FALLBACK_LEVELS, levels) if c})
    draws = rng.integers(0, index.total[dist_of])
    picks = index.cum.searchsorted(index.base[dist_of] + draws, side="right")
    prov = ProvisionalLayer(stubs=np.arange(n_nodes).repeat(index.stubs[picks]).tolist())
    asking = index.asks[picks].nonzero()[0]
    for e, pick in zip(asking.tolist(), picks[asking].tolist()):
        a, b = ego.searchsorted((e, e + 1)).tolist()
        by_bits: dict[int, list[int]] = {}
        for key, pbits in zip(keys[a:b].tolist(), bits[a:b].tolist()):
            by_bits.setdefault(pbits, []).append(key - e * n_nodes)
        for pbits, cnt in index.requests[pick]:
            # The extension extends the ego's own prefix (the fallback chain
            # keeps it or drops to the empty prefix, whose strings all have
            # pbits 0), so at least cnt neighbours carry these bits.
            cands = by_bits[pbits]  # ascending, as the keys are
            if cnt == len(cands):
                chosen = cands
            else:
                idx = rng.choice(len(cands), size=cnt, replace=False)
                chosen = [cands[i] for i in sorted(idx)]
            for u in chosen:
                prov.requests.add((e, u))
    return prov


def validate_layer(prov: ProvisionalLayer, alpha: float, rng: np.random.Generator,
                   diag: LayerDiagnostics | None = None) -> set[tuple[int, int]]:
    """Resolve requests into undirected edges, the set of (i, j) with i < j.

    Reciprocal request pairs always become edges; a one-directional request
    survives with probability `alpha` (independent coins, one vector of
    them drawn from `rng` in sorted request order); stubs are then paired
    by `_pair_stubs`, from the same `rng` after the coins, the one rule the
    seed layer's stubs follow too: uniformly at random, skipping self-loops
    and duplicates, with attempts capped at 10x the stub count and the
    remainder discarded.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    reqs = prov.requests
    edges: set[tuple[int, int]] = set()
    singles: list[tuple[int, int]] = []
    reciprocal = 0
    for i, j in sorted(reqs):
        if (j, i) in reqs:
            if i < j:
                edges.add((i, j))
                reciprocal += 1
        else:
            singles.append((i, j))
    one_dir = 0
    for (i, j), coin in zip(singles, rng.random(len(singles)).tolist()):
        if coin < alpha:
            edges.add(_norm(i, j))
            one_dir += 1
    rejected = len(singles) - one_dir

    stub_edges, dropped_stubs = _pair_stubs(prov.stubs, edges, rng)

    if diag is not None:
        diag.reciprocal = reciprocal
        diag.one_directional = one_dir
        diag.stub_edges = stub_edges
        diag.dropped_requests = rejected
        diag.dropped_stubs = dropped_stubs
    return edges


def _resolve_degrees(model: LocalModel, cfg: GenConfig, rng: np.random.Generator
                     ) -> Sequence[int]:
    degrees = cfg.seed_degrees if cfg.seed_degrees is not None else model.seed_degrees
    if not degrees:
        raise ValueError("no seed degree source: config has none and the model "
                         "stores none")
    if len(degrees) != cfg.n_nodes:
        degrees = [int(d) for d in rng.choice(np.asarray(degrees, dtype=np.int64),
                                              size=cfg.n_nodes, replace=True)]
    return degrees


def generate(model: LocalModel, cfg: GenConfig,
             diagnostics: list[LayerDiagnostics] | None = None) -> TemporalGraph:
    """Generate a surrogate temporal graph; deterministic given cfg.seed,
    which seeds the one generator every layer draws from, in layer order.

    Layer 0 is the seed layer; layer t >= 1 grows from a window of the
    min(t, k) layers before it, built from their arc keys. Each layer's edge
    set becomes its sorted edge keys (`_edge_keys`) as soon as it is
    validated, and its arc keys come from those; an empty layer shares one
    empty array and costs no numpy work. The surrogate's edge table is
    built once, from all the layers' keys. The surrogate has the model's
    gap, the one its cells were fitted at."""
    cfg.validate(model.k)
    n = cfg.n_nodes
    epoch = cfg.epoch if cfg.epoch is not None else model.epoch
    rng = np.random.default_rng(cfg.seed)
    none = np.zeros(0, dtype=np.int64)  # the keys of every empty layer
    edges = seed_layer(_resolve_degrees(model, cfg, rng), rng)
    layers = [_edge_keys(edges, n) if edges else none]
    recent = deque([_arc_keys(layers[0], n) if edges else none], maxlen=cfg.k)
    for t in range(1, cfg.n_snapshots):
        bucket = bucket_of(epoch + t * model.gap_seconds, model.periodicity)
        prov = propose_layer(*_window(recent), len(recent), n, model, bucket, rng)
        diag = LayerDiagnostics(t, 0, 0, 0, 0, 0) if diagnostics is not None else None
        edges = validate_layer(prov, cfg.alpha, rng, diag)
        layers.append(_edge_keys(edges, n) if edges else none)
        recent.append(_arc_keys(layers[-1], n) if edges else none)
        if diagnostics is not None:
            diagnostics.append(diag)
    sizes = [keys.size for keys in layers]
    # Each array is dropped once the next is made: at most three sets of
    # 8 bytes per contact are held at once.
    keys = np.concatenate(layers)
    del layers
    i, j = np.divmod(keys, n)
    del keys
    pairs, offsets = _pack_table(i, j, sizes)
    return TemporalGraph._from_table(n, pairs, offsets, model.gap_seconds, epoch=epoch)


def expansion_alpha(n_hat: int, n: int) -> float:
    """One-directional acceptance rate that holds expected density at the
    training level when generating n >= n_hat nodes from an n_hat-node model."""
    if n_hat < 2 or n < 2:
        raise ValueError("node counts must be >= 2")
    return max(0.0, 1.0 - 0.5 * (n_hat * (n_hat - 1)) / (n * (n - 1)))


def write_diagnostics(rows: Iterable[LayerDiagnostics], sink: IO[str]) -> None:
    writer = csv.writer(sink)
    writer.writerow(["layer", "reciprocal", "one_directional", "stub_edges",
                     "dropped_requests", "dropped_stubs"])
    for row in rows:
        writer.writerow([row.layer, row.reciprocal, row.one_directional,
                         row.stub_edges, row.dropped_requests, row.dropped_stubs])
