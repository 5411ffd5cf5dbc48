"""Temporal graph data model: snapshot sequences, ingestion, aggregation, time buckets."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
# 1970-01-01 was a Thursday; shift so Monday = 0.
_EPOCH_WEEKDAY_OFFSET = 3

DAILY = "daily"
WEEKLY = "weekly"
PERIODICITIES = (DAILY, WEEKLY)

HEADER_KEYS = ("snapshots", "gap", "epoch", "nodes")


class ParseError(ValueError):
    """Malformed or inconsistent edge-list input."""


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


class Snapshot:
    """One time layer: an undirected simple graph over integer node ids.

    Edges are stored as a frozenset of (min, max) pairs; adjacency and arcs
    are built lazily and cached.
    """

    __slots__ = ("edges", "_adj", "_arcs")

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        norm = frozenset(_norm_edge(i, j) for i, j in edges)
        for i, j in norm:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
        self.edges = norm
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._arcs: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        if self._adj is None:
            acc: dict[int, list[int]] = {}
            for i, j in self.edges:
                acc.setdefault(i, []).append(j)
                acc.setdefault(j, []).append(i)
            self._adj = {u: tuple(sorted(vs)) for u, vs in acc.items()}
        return self._adj

    @property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions u->v of every edge, as read-only source and
        target arrays sorted by source, then target."""
        if self._arcs is None:
            ends = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp,
                               count=2 * len(self.edges)).reshape(-1, 2)
            src = np.concatenate((ends[:, 0], ends[:, 1]))
            dst = np.concatenate((ends[:, 1], ends[:, 0]))
            order = np.lexsort((dst, src))
            self._arcs = (src[order], dst[order])
            for a in self._arcs:
                a.flags.writeable = False
        return self._arcs

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency.get(u, ())

    def degree(self, u: int) -> int:
        return len(self.adjacency.get(u, ()))

    @property
    def active_nodes(self) -> frozenset[int]:
        return frozenset(self.adjacency)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"Snapshot({sorted(self.edges)!r})"


class TemporalGraph:
    """Immutable sequence of snapshots with wall-clock metadata.

    Node ids are dense integers in [0, node_count); `labels` keeps the
    original input labels by index for export. Equality compares structure
    and timing, not labels.
    """

    __slots__ = ("node_count", "snapshots", "gap_seconds", "epoch", "labels",
                 "dropped_self_loops")

    def __init__(
        self,
        node_count: int,
        snapshots: Sequence[Snapshot | Iterable[tuple[int, int]]],
        gap_seconds: int,
        epoch: int = 0,
        labels: Sequence[str] | None = None,
        dropped_self_loops: int = 0,
    ):
        if gap_seconds <= 0:
            raise ValueError(f"gap_seconds must be positive, got {gap_seconds}")
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        snaps = tuple(s if isinstance(s, Snapshot) else Snapshot(s) for s in snapshots)
        for t, snap in enumerate(snaps):
            for i, j in snap.edges:
                if not (0 <= i < node_count and 0 <= j < node_count):
                    raise ValueError(
                        f"edge ({i},{j}) at layer {t} outside [0,{node_count})")
        if labels is None:
            labels = tuple(str(i) for i in range(node_count))
        else:
            labels = tuple(labels)
            if len(labels) != node_count:
                raise ValueError("labels length must equal node_count")
        self.node_count = node_count
        self.snapshots = snaps
        self.gap_seconds = int(gap_seconds)
        self.epoch = int(epoch)
        self.labels = labels
        self.dropped_self_loops = dropped_self_loops

    @property
    def n_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def n_events(self) -> int:
        return sum(s.n_edges for s in self.snapshots)

    def time_of(self, t: int) -> int:
        """Wall-clock second of the start of layer t."""
        return self.epoch + t * self.gap_seconds

    def first_layer_degrees(self) -> list[int]:
        snap = self.snapshots[0]
        return [snap.degree(u) for u in range(self.node_count)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (self.node_count == other.node_count
                and self.gap_seconds == other.gap_seconds
                and self.epoch == other.epoch
                and self.snapshots == other.snapshots)

    def __hash__(self) -> int:
        return hash((self.node_count, self.gap_seconds, self.epoch, self.snapshots))

    def __repr__(self) -> str:
        return (f"TemporalGraph(n={self.node_count}, m={self.n_snapshots}, "
                f"gap={self.gap_seconds}, epoch={self.epoch})")


class AggregatedGraph:
    """Static weighted projection; weight = number of snapshots carrying the edge."""

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[tuple[int, int], int]):
        norm: dict[tuple[int, int], int] = {}
        for (i, j), w in weights.items():
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if w <= 0:
                raise ValueError(f"non-positive weight {w} on edge ({i},{j})")
            norm[_norm_edge(i, j)] = int(w)
        self.weights = norm

    @property
    def nodes(self) -> list[int]:
        seen: set[int] = set()
        for i, j in self.weights:
            seen.add(i)
            seen.add(j)
        return sorted(seen)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregatedGraph):
            return NotImplemented
        return self.weights == other.weights

    def __repr__(self) -> str:
        return f"AggregatedGraph(edges={self.n_edges}, weight={self.total_weight})"


def _parse_header(lines: list[str]) -> dict[str, int]:
    """Collect `key=value` tokens from comment lines."""
    meta: dict[str, int] = {}
    for line in lines:
        for token in line.lstrip("#").split():
            if "=" not in token:
                continue
            key, _, value = token.partition("=")
            key = key.lstrip("#")
            if key in HEADER_KEYS:
                try:
                    meta[key] = int(value)
                except ValueError as exc:
                    raise ParseError(f"bad header value {token!r}") from exc
    return meta


def parse_edge_list(
    source: IO[str] | Iterable[str],
    gap_seconds: int | None = None,
) -> TemporalGraph:
    """Read a tab-separated `t i j` event stream into a TemporalGraph.

    Comment lines start with `#`; a comment of the form
    `#snapshots=M #gap=G #epoch=E #nodes=N` pins the binning so that a
    written graph parses back identically. Without a header, `gap_seconds`
    is required, the epoch is the earliest event time, and node labels are
    assigned dense indices in order of first appearance. With a `nodes`
    header whose labels are all integers in range, labels are taken as
    indices directly.

    Self-loop events are dropped and counted; duplicate events within a bin
    collapse into one edge.
    """
    comments: list[str] = []
    events: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, "
                             f"got {len(parts)}: {line!r}")
        try:
            t = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad timestamp {parts[0]!r}") from exc
        events.append((t, parts[1], parts[2]))

    meta = _parse_header(comments)
    if gap_seconds is not None and gap_seconds <= 0:
        raise ParseError(f"gap_seconds must be positive, got {gap_seconds}")
    gap = meta.get("gap", gap_seconds)
    if gap is None:
        raise ParseError("no gap: pass gap_seconds or provide a #gap= header")
    if gap_seconds is not None and "gap" in meta and meta["gap"] != gap_seconds:
        raise ParseError(f"gap_seconds={gap_seconds} conflicts with header gap={meta['gap']}")
    if gap <= 0:
        raise ParseError(f"gap must be positive, got {gap}")

    if not events and not meta:
        raise ParseError("no events")

    # Node indexing: round-trip files carry indices; foreign labels are
    # re-indexed densely by first appearance in stream order.
    header_nodes = meta.get("nodes")
    as_indices = False
    if header_nodes is not None:
        as_indices = True
        for _, a, b in events:
            for lab in (a, b):
                try:
                    v = int(lab)
                except ValueError:
                    as_indices = False
                    break
                if not (0 <= v < header_nodes):
                    as_indices = False
                    break
            if not as_indices:
                break

    index: dict[str, int] = {}
    indexed: list[tuple[int, int, int]] = []
    dropped = 0
    for t, a, b in events:
        if a == b:
            dropped += 1
            continue
        if as_indices:
            i, j = int(a), int(b)
        else:
            if a not in index:
                index[a] = len(index)
            if b not in index:
                index[b] = len(index)
            i, j = index[a], index[b]
        if i == j:
            dropped += 1
            continue
        indexed.append((t, i, j))
    if dropped:
        logger.warning("dropped %d self-loop event(s)", dropped)

    if as_indices:
        node_count = header_nodes
        labels = tuple(str(i) for i in range(node_count))
    else:
        node_count = len(index)
        labels = tuple(index)  # insertion order == index order
        if header_nodes is not None and node_count > header_nodes:
            raise ParseError(f"header declares nodes={header_nodes} but "
                             f"{node_count} distinct labels found")
        if header_nodes is not None:
            node_count = header_nodes
            labels = labels + tuple(str(i) for i in range(len(labels), node_count))

    if not indexed and "snapshots" not in meta:
        raise ParseError("no events")

    if "epoch" in meta:
        epoch = meta["epoch"]
    elif indexed:
        epoch = min(t for t, _, _ in indexed)
    else:
        epoch = 0

    bins: dict[int, set[tuple[int, int]]] = {}
    max_bin = -1
    for t, i, j in indexed:
        b = (t - epoch) // gap
        if b < 0:
            raise ParseError(f"event at t={t} precedes header epoch {epoch}")
        bins.setdefault(b, set()).add(_norm_edge(i, j))
        max_bin = max(max_bin, b)

    n_snapshots = max_bin + 1
    if "snapshots" in meta:
        if meta["snapshots"] < n_snapshots:
            raise ParseError(f"header declares snapshots={meta['snapshots']} but "
                             f"events span {n_snapshots}")
        n_snapshots = meta["snapshots"]

    snapshots = [Snapshot(bins.get(b, ())) for b in range(n_snapshots)]
    return TemporalGraph(node_count, snapshots, gap, epoch=epoch, labels=labels,
                         dropped_self_loops=dropped)


def write_edge_list(g: TemporalGraph, sink: IO[str]) -> None:
    """Write `t i j` lines (node indices) plus a binning header.

    The header makes `parse_edge_list` reproduce the graph exactly,
    including empty leading or trailing layers.
    """
    sink.write(f"#snapshots={g.n_snapshots} #gap={g.gap_seconds} "
               f"#epoch={g.epoch} #nodes={g.node_count}\n")
    for t, snap in enumerate(g.snapshots):
        wall = g.time_of(t)
        for i, j in sorted(snap.edges):
            sink.write(f"{wall}\t{i}\t{j}\n")


def aggregate(g: TemporalGraph) -> AggregatedGraph:
    """Sum snapshots into one weighted static graph, its edges in sorted
    (i, j) order: the metrics number nodes in edge order, and a snapshot's
    set order can differ between equal graphs."""
    if g.n_snapshots < 1:
        raise ValueError("cannot aggregate an empty snapshot sequence")
    weights: dict[tuple[int, int], int] = {}
    for snap in g.snapshots:
        for e in snap.edges:
            weights[e] = weights.get(e, 0) + 1
    return AggregatedGraph(dict(sorted(weights.items())))


def require_hour_aligned(gap_seconds: int) -> None:
    """Raise ValueError unless the gap divides 3600 or 3600 divides the gap,
    so that no layer straddles an hour boundary."""
    if SECONDS_PER_HOUR % gap_seconds != 0 and gap_seconds % SECONDS_PER_HOUR != 0:
        raise ValueError(f"gap {gap_seconds} does not align with hour boundaries")


def hour_slices(g: TemporalGraph) -> list[AggregatedGraph]:
    """Aggregate per wall-clock hour, in order; empty hours yield empty graphs.
    Each slice lists its edges in sorted (i, j) order, as `aggregate` does.

    Requires an hour-aligned gap (`require_hour_aligned`).
    """
    require_hour_aligned(g.gap_seconds)
    if g.n_snapshots < 1:
        return []
    first = g.time_of(0) // SECONDS_PER_HOUR
    last = g.time_of(g.n_snapshots - 1) // SECONDS_PER_HOUR
    acc: list[dict[tuple[int, int], int]] = [{} for _ in range(last - first + 1)]
    for t, snap in enumerate(g.snapshots):
        idx = g.time_of(t) // SECONDS_PER_HOUR - first
        weights = acc[idx]
        for e in snap.edges:
            weights[e] = weights.get(e, 0) + 1
    return [AggregatedGraph(dict(sorted(w.items()))) for w in acc]


@dataclass(frozen=True)
class BucketKey:
    """Periodic wall-clock cell: hour of day, plus day of week when weekly.

    `day_of_week` is None under daily periodicity; Monday is 0.
    """

    hour_of_day: int
    day_of_week: int | None = None

    def __post_init__(self):
        if not (0 <= self.hour_of_day < 24):
            raise ValueError(f"hour_of_day out of range: {self.hour_of_day}")
        if self.day_of_week is not None and not (0 <= self.day_of_week < 7):
            raise ValueError(f"day_of_week out of range: {self.day_of_week}")

    @property
    def periodicity(self) -> str:
        return DAILY if self.day_of_week is None else WEEKLY

    def encode(self) -> str:
        if self.day_of_week is None:
            return f"h{self.hour_of_day:02d}"
        return f"d{self.day_of_week}h{self.hour_of_day:02d}"

    @classmethod
    def decode(cls, text: str) -> "BucketKey":
        try:
            if text.startswith("d"):
                return cls(hour_of_day=int(text[3:]), day_of_week=int(text[1:2]))
            if text.startswith("h"):
                return cls(hour_of_day=int(text[1:]))
        except (ValueError, IndexError):
            pass
        raise ValueError(f"bad bucket key {text!r}")


def weekday(wallclock_seconds: int) -> int:
    """Day of week of a Unix timestamp, Monday = 0."""
    return (wallclock_seconds // SECONDS_PER_DAY + _EPOCH_WEEKDAY_OFFSET) % 7


def bucket_of(wallclock_seconds: int, periodicity: str) -> BucketKey:
    """Bucket containing a wall-clock second."""
    hour = (wallclock_seconds // SECONDS_PER_HOUR) % 24
    if periodicity == DAILY:
        return BucketKey(hour_of_day=hour)
    if periodicity == WEEKLY:
        return BucketKey(hour_of_day=hour, day_of_week=weekday(wallclock_seconds))
    raise ValueError(f"unknown periodicity {periodicity!r}")


def resolve_periodicity(g: TemporalGraph) -> str:
    """Pick weekly when the input spans >= 6 distinct days including a weekend day."""
    days = {g.time_of(t) // SECONDS_PER_DAY for t in range(g.n_snapshots)}
    has_weekend = any((d + _EPOCH_WEEKDAY_OFFSET) % 7 >= 5 for d in days)
    if len(days) >= 6 and has_weekend:
        return WEEKLY
    return DAILY
