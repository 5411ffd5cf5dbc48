"""Surrogate layer generation: seed, bootstrap, propose, validate.

Layer t proposes directed edge requests by sampling, for every node, an
extension of its current width-min(t,k) neighborhood prefix; requests are
then validated into undirected edges. Every node's prefix is read from a
rolling window (`etn.NeighborWindow`) that each new layer advances. All
randomness flows through numpy substreams keyed by (phase, layer), and
within a layer nodes draw in node order, so output depends only on the
model and the config, not on scheduling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .etn import EtnSignature, NeighborWindow
from .model import ExtensionDistribution, LocalModel, lookup_extension
# Not called here: layers draw all extensions as one vector. The name stays
# importable as gen.sample_extension, which bench/worker.py wraps.
from .model import sample_extension  # noqa: F401
from .tempgraph import BucketKey, Snapshot, TemporalGraph, bucket_of

PHASE_SEED = 0
PHASE_DEGREES = 1
PHASE_PROPOSE = 2
PHASE_VALIDATE = 3


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass
class GenConfig:
    """Generation parameters. `epoch`, `gap_seconds` and `seed_degrees`
    default to the model's own values when None."""

    n_nodes: int
    n_snapshots: int
    k: int = 2
    alpha: float = 0.5
    seed: int = 0
    epoch: int | None = None
    gap_seconds: int | None = None
    seed_degrees: tuple[int, ...] | None = None

    def validate(self, model_k: int) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k > model_k:
            raise ValueError(f"config k={self.k} exceeds model k={model_k}")
        if self.n_snapshots < self.k + 1:
            raise ValueError(f"n_snapshots must be >= k+1 = {self.k + 1}, "
                             f"got {self.n_snapshots}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if self.gap_seconds is not None and self.gap_seconds <= 0:
            raise ValueError(f"gap_seconds must be positive, got {self.gap_seconds}")


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


def _has_legal_pair(stubs: Sequence[int], edges: set[tuple[int, int]]) -> bool:
    distinct = sorted(set(stubs))
    for a in range(len(distinct)):
        for b in range(a + 1, len(distinct)):
            if (distinct[a], distinct[b]) not in edges:
                return True
    return False


def seed_layer(degrees: Sequence[int], rng: np.random.Generator) -> Snapshot:
    """Configuration-model layer realizing `degrees` as closely as possible.

    Stubs are shuffled and paired in rounds; pairs that would form a
    self-loop or duplicate edge are re-queued for the next round, and the
    leftover is discarded once no legal pair remains. An odd degree sum is
    evened out first by decrementing one uniformly chosen positive degree.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    degrees = list(degrees)
    if sum(degrees) % 2 == 1:
        positive = [i for i, d in enumerate(degrees) if d > 0]
        degrees[positive[int(rng.integers(len(positive)))]] -= 1
    stubs = [i for i, d in enumerate(degrees) for _ in range(d)]
    edges: set[tuple[int, int]] = set()
    stale = 0
    while len(stubs) >= 2:
        rng.shuffle(stubs)
        requeued: list[int] = []
        added = 0
        for a in range(0, len(stubs), 2):
            i, j = stubs[a], stubs[a + 1]
            e = _norm(i, j)
            if i != j and e not in edges:
                edges.add(e)
                added += 1
            else:
                requeued.append(i)
                requeued.append(j)
        stubs = requeued
        if added:
            stale = 0
        else:
            stale += 1
            if stale > 20 or not _has_legal_pair(stubs, edges):
                break
    return Snapshot(edges)


def propose_layer(window: NeighborWindow, model: LocalModel, bucket: BucketKey,
                  rng: np.random.Generator) -> ProvisionalLayer:
    """Sample one extension per ego and turn new-activity bits into requests.

    Every ego's prefix is its window at width `window.depth`. One integer
    vector drawn from `rng` picks all egos' extensions, in ego order; tie
    choices then draw from `rng` in ego order too. An extension string whose
    final bit is set points at a neighbor whose window activity equals the
    string's prefix part, chosen uniformly among ties; strings active only
    in the final bit have no identifiable target and become stubs.
    """
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


def validate_layer(prov: ProvisionalLayer, alpha: float, rng: np.random.Generator,
                   diag: LayerDiagnostics | None = None) -> Snapshot:
    """Resolve requests into undirected edges.

    Reciprocal request pairs always become edges; a one-directional request
    survives with probability `alpha` (independent coins); stubs are paired
    uniformly at random, skipping self-loops and duplicates, with attempts
    capped at 10x the stub count and the remainder discarded.
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
    rejected = 0
    for i, j in singles:
        if rng.random() < alpha:
            edges.add(_norm(i, j))
            one_dir += 1
        else:
            rejected += 1

    stubs = list(prov.stubs)
    dropped_stubs = 0
    if len(stubs) % 2 == 1:
        stubs.pop(int(rng.integers(len(stubs))))
        dropped_stubs += 1
    budget = 10 * len(stubs)
    stub_edges = 0
    while len(stubs) >= 2 and budget > 0:
        budget -= 1
        a = int(rng.integers(len(stubs)))
        b = int(rng.integers(len(stubs) - 1))
        if b >= a:
            b += 1
        i, j = stubs[a], stubs[b]
        if i != j and _norm(i, j) not in edges:
            edges.add(_norm(i, j))
            stub_edges += 1
            for idx in sorted((a, b), reverse=True):
                stubs.pop(idx)
    dropped_stubs += len(stubs)

    if diag is not None:
        diag.reciprocal = reciprocal
        diag.one_directional = one_dir
        diag.stub_edges = stub_edges
        diag.dropped_requests = rejected
        diag.dropped_stubs = dropped_stubs
    return Snapshot(edges)


def _resolve_degrees(model: LocalModel, cfg: GenConfig) -> Sequence[int]:
    degrees = cfg.seed_degrees if cfg.seed_degrees is not None else model.seed_degrees
    if not degrees:
        raise ValueError("no seed degree source: config has none and the model "
                         "stores none")
    if len(degrees) != cfg.n_nodes:
        rng = _stream(cfg.seed, PHASE_DEGREES)
        degrees = [int(d) for d in rng.choice(np.asarray(degrees, dtype=np.int64),
                                              size=cfg.n_nodes, replace=True)]
    return degrees


def _grow(layers: list[Snapshot], window: NeighborWindow, t_stop: int,
          model: LocalModel, cfg: GenConfig, epoch: int, gap: int,
          diagnostics: list[LayerDiagnostics] | None) -> None:
    """Append layers up to `t_stop`; `window` holds the layers so far."""
    for t in range(len(layers), t_stop):
        bucket = bucket_of(epoch + t * gap, model.periodicity)
        prov = propose_layer(window, model, bucket,
                             _stream(cfg.seed, PHASE_PROPOSE, t))
        diag = LayerDiagnostics(t, 0, 0, 0, 0, 0) if diagnostics is not None else None
        snap = validate_layer(prov, cfg.alpha, _stream(cfg.seed, PHASE_VALIDATE, t), diag)
        layers.append(snap)
        window.push(snap.edges)
        if diagnostics is not None:
            diagnostics.append(diag)


def _start(seed_snapshot: Snapshot, cfg: GenConfig) -> tuple[list[Snapshot], NeighborWindow]:
    window = NeighborWindow(cfg.k, 0, cfg.n_nodes)
    window.push(seed_snapshot.edges)
    return [seed_snapshot], window


def bootstrap(seed_snapshot: Snapshot, model: LocalModel, cfg: GenConfig,
              diagnostics: list[LayerDiagnostics] | None = None) -> list[Snapshot]:
    """First k layers: the seed plus layers grown at depths 1..k-1."""
    cfg.validate(model.k)
    epoch = cfg.epoch if cfg.epoch is not None else model.epoch
    gap = cfg.gap_seconds if cfg.gap_seconds is not None else model.gap_seconds
    layers, window = _start(seed_snapshot, cfg)
    _grow(layers, window, cfg.k, model, cfg, epoch, gap, diagnostics)
    return layers


def generate(model: LocalModel, cfg: GenConfig,
             diagnostics: list[LayerDiagnostics] | None = None) -> TemporalGraph:
    """Generate a surrogate temporal graph; deterministic given cfg.seed.

    The first k layers are the `bootstrap` ones."""
    cfg.validate(model.k)
    epoch = cfg.epoch if cfg.epoch is not None else model.epoch
    gap = cfg.gap_seconds if cfg.gap_seconds is not None else model.gap_seconds
    degrees = _resolve_degrees(model, cfg)
    seed_snap = seed_layer(degrees, _stream(cfg.seed, PHASE_SEED))
    layers, window = _start(seed_snap, cfg)
    _grow(layers, window, cfg.n_snapshots, model, cfg, epoch, gap, diagnostics)
    return TemporalGraph(cfg.n_nodes, layers, gap, epoch=epoch)


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
