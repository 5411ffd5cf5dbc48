"""Temporal graph data model: one edge table per graph with snapshot views,
ingestion, aggregation, time buckets."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Mapping, Sequence

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

# Limits that `parse_edge_list` enforces before it allocates per snapshot or
# per node: a bad timestamp or header otherwise asks for billions of
# layers. Node ids are int32 in the edge table.
MAX_SNAPSHOTS = 1 << 24
MAX_NODES = 1 << 31


class ParseError(ValueError):
    """Malformed or inconsistent edge-list input."""


def _int_array(values: Sequence[int]) -> np.ndarray:
    """`values` as int64, or as Python ints (dtype object) where one does
    not fit, so that arithmetic on them stays exact."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _distinct(group: np.ndarray, i: np.ndarray, j: np.ndarray, n_groups: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (group, i, j) triples in sorted order, and how often
    each occurs. Groups lie in [0, n_groups) and node ids are non-negative.

    One `np.unique` of the triples packed into int64 keys; where the key
    would not fit, the (i, j) pairs are ranked first and the rank packed.
    """
    group, i, j = (a.astype(np.int64, copy=False) for a in (group, i, j))
    n = int(max(i.max(), j.max())) + 1 if i.size else 1
    if n_groups * n * n < 1 << 63:
        key, count = np.unique((group * n + i) * n + j, return_counts=True)
        group, pair = np.divmod(key, n * n)
    else:
        pairs, rank = np.unique(i * n + j, return_inverse=True)
        key, count = np.unique(group * pairs.size + rank, return_counts=True)
        group, at = np.divmod(key, pairs.size)
        pair = pairs[at]
    i, j = np.divmod(pair, n)
    return group, i, j, count


def _table(bins: np.ndarray, i: np.ndarray, j: np.ndarray, n_snapshots: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """The edge table of events (bin, i, j), each with i < j and 0 <= bin <
    n_snapshots: the distinct (i, j) rows sorted by (bin, i, j) as a
    read-only int32 array, and the read-only int64 offsets of each bin's
    rows."""
    group, i, j, _ = _distinct(bins, i, j, n_snapshots)
    pairs = np.empty((group.size, 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = i, j
    offsets = np.zeros(n_snapshots + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=n_snapshots), out=offsets[1:])
    pairs.flags.writeable = offsets.flags.writeable = False
    return pairs, offsets


def _edge_table(layers: Sequence[Snapshot | Iterable[tuple[int, int]]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The edge table (`_table`) of a sequence of layers, each a Snapshot
    or an iterable of (i, j) pairs in either order, duplicates allowed.
    Raises ValueError on a self-loop or a node id outside [0, MAX_NODES)."""
    parts = [s.pairs if isinstance(s, Snapshot)
             else np.fromiter(chain.from_iterable(s), dtype=np.int64).reshape(-1, 2)
             for s in layers]
    sizes = [len(p) for p in parts]
    ends = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        raise ValueError(f"self-loop on node {lo[loops[0]]}")
    if lo.size and (lo.min() < 0 or hi.max() >= MAX_NODES):
        raise ValueError(f"node ids must lie in [0, {MAX_NODES})")
    return _table(np.repeat(np.arange(len(parts)), sizes), lo, hi, len(parts))


def _view(pairs: np.ndarray) -> Snapshot:
    """The Snapshot whose edges are the table rows `pairs`."""
    snap = Snapshot.__new__(Snapshot)
    snap.pairs = pairs
    return snap


class Snapshot:
    """One time layer: an undirected simple graph over integer node ids.

    Its edges are `pairs`, a read-only int32 array of (i, j) rows with
    i < j, sorted: in a graph, the layer's slice of the graph's edge table.
    `Snapshot(edges)` builds the same array for a standalone layer. The
    `edges` set, neighbours, degrees and active nodes are computed from
    `pairs` on each call; nothing is cached.
    """

    __slots__ = ("pairs",)

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        self.pairs = _edge_table([edges])[0]

    def __reduce__(self):
        return _view, (self.pairs,)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(*self.pairs.T.tolist()))

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Ascending: the rows (v, u), v < u, precede the rows (u, v)."""
        ends = self.pairs.ravel().tolist()
        return tuple(ends[k ^ 1] for k, v in enumerate(ends) if v == u)

    def degree(self, u: int) -> int:
        return int(np.count_nonzero(self.pairs == u))

    @property
    def active_nodes(self) -> frozenset[int]:
        return frozenset(self.pairs.ravel().tolist())

    @property
    def n_edges(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs)

    def __hash__(self) -> int:
        return hash(self.pairs.tobytes())

    def __repr__(self) -> str:
        return f"Snapshot({sorted(self.edges)!r})"


class TemporalGraph:
    """Immutable sequence of snapshots with wall-clock metadata.

    All edges are held in one table: `pairs`, a read-only int32 array of
    (i, j) rows with i < j, sorted by (snapshot, i, j), and `offsets`, so
    that snapshot t's rows are pairs[offsets[t]:offsets[t + 1]]. The
    `snapshots` are views of those slices, made on first use.

    Node ids are dense integers in [0, node_count); `labels` gives each
    one's input label, the stored labels the input named padded with str(i)
    on access. Equality compares structure and timing, not labels.
    """

    __slots__ = ("node_count", "pairs", "offsets", "gap_seconds", "epoch", "_named",
                 "dropped_self_loops", "_snapshots")

    def __init__(
        self,
        node_count: int,
        snapshots: Sequence[Snapshot | Iterable[tuple[int, int]]],
        gap_seconds: int,
        epoch: int = 0,
        labels: Sequence[str] | None = None,
        dropped_self_loops: int = 0,
    ):
        named = () if labels is None else tuple(labels)
        if labels is not None and len(named) != node_count:
            raise ValueError("labels length must equal node_count")
        self._set(node_count, *_edge_table(snapshots), gap_seconds, epoch, named,
                  dropped_self_loops)

    @classmethod
    def _from_table(cls, node_count: int, pairs: np.ndarray, offsets: np.ndarray,
                    gap_seconds: int, epoch: int = 0, named: tuple[str, ...] = (),
                    dropped_self_loops: int = 0) -> "TemporalGraph":
        """The graph of an edge table as `_table` builds it; `named` labels
        its first nodes."""
        g = cls.__new__(cls)
        g._set(node_count, pairs, offsets, gap_seconds, epoch, named, dropped_self_loops)
        return g

    def _set(self, node_count, pairs, offsets, gap_seconds, epoch, named,
             dropped_self_loops) -> None:
        if gap_seconds <= 0:
            raise ValueError(f"gap_seconds must be positive, got {gap_seconds}")
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        outside = np.flatnonzero(pairs[:, 1] >= node_count)
        if outside.size:
            row = int(outside[0])
            i, j = pairs[row].tolist()
            t = int(np.searchsorted(offsets, row, side="right")) - 1
            raise ValueError(f"edge ({i},{j}) at layer {t} outside [0,{node_count})")
        self.node_count = node_count
        self.pairs = pairs
        self.offsets = offsets
        self.gap_seconds = int(gap_seconds)
        self.epoch = int(epoch)
        self._named = named
        self.dropped_self_loops = dropped_self_loops
        self._snapshots: tuple[Snapshot, ...] | None = None

    def __reduce__(self):
        return TemporalGraph._from_table, (
            self.node_count, self.pairs, self.offsets, self.gap_seconds, self.epoch,
            self._named, self.dropped_self_loops)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._named + tuple(map(str, range(len(self._named), self.node_count)))

    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        if self._snapshots is None:
            bounds = self.offsets.tolist()
            self._snapshots = tuple(_view(self.pairs[a:b])
                                    for a, b in zip(bounds, bounds[1:]))
        return self._snapshots

    @property
    def n_snapshots(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_events(self) -> int:
        return len(self.pairs)

    def time_of(self, t: int) -> int:
        """Wall-clock second of the start of layer t."""
        return self.epoch + t * self.gap_seconds

    def first_layer_degrees(self) -> list[int]:
        first = self.pairs[:self.offsets[1]]
        return np.bincount(first.ravel(), minlength=self.node_count).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (self.node_count == other.node_count
                and self.gap_seconds == other.gap_seconds
                and self.epoch == other.epoch
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.pairs, other.pairs))

    def __hash__(self) -> int:
        return hash((self.node_count, self.gap_seconds, self.epoch,
                     self.offsets.tobytes(), self.pairs.tobytes()))

    def __repr__(self) -> str:
        return (f"TemporalGraph(n={self.node_count}, m={self.n_snapshots}, "
                f"gap={self.gap_seconds}, epoch={self.epoch})")


def layer_arcs(g: TemporalGraph) -> tuple[np.ndarray, np.ndarray]:
    """Both directions of every edge, as source and target arrays sorted by
    (layer, source, target), layer t's at [2 * offsets[t], 2 * offsets[t + 1]).
    A stable argsort of layer * n + source over the rows' arcs j -> i, then
    i -> j, puts a source's lower targets before its higher ones, each in
    row order."""
    i, j = g.pairs.T.astype(np.intp)
    layer = np.repeat(np.arange(g.n_snapshots, dtype=np.intp), np.diff(g.offsets))
    src = np.concatenate((j, i))
    dst = np.concatenate((i, j))
    order = np.argsort(np.tile(layer, 2) * g.node_count + src, kind="stable")
    return src[order], dst[order]


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


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


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


# The strict grammar: leading comment lines, then `t<TAB>i<TAB>j` lines of
# ASCII digits, each ended by `\n`. Fields have at most 18 digits, so they
# fit int64, and labels have no leading zero, so a label's value names its
# text as the per-line path's string keys do.
_HEAD = re.compile(r"(?:#[^\n]*\n)*")
_LABEL = r"(?:0|[1-9][0-9]{0,17})"
_BODY = re.compile(rf"(?:[0-9]{{1,18}}\t{_LABEL}\t{_LABEL}\n)*")
# Characters of body that one `_BODY` match checks. The regex engine keeps a
# backtracking record of about 300 bytes per line that a repeat matches, so
# one match over a 91,000-line body takes 30 MB; chunks of this size take
# about 0.1 MB.
_BODY_CHUNK = 1 << 12

# Events (t, a, b) as a parse reads them: the comment lines, the times, a
# (events x 2) array of label codes, each code's label text, and each
# code's integer value (None unless every label is an integer).
_Fields = tuple[list[str], np.ndarray, np.ndarray, list[str], list[int] | None]


def _read_strict(text: str) -> _Fields | None:
    """The fields of a text in the strict grammar, checked by `_BODY` one
    chunk at a time and converted by one numpy call, or None when the text
    is not in it."""
    head = pos = _HEAD.match(text).end()
    while pos < len(text):
        end = text.find("\n", pos + _BODY_CHUNK) + 1 or len(text)
        if _BODY.fullmatch(text, pos, end) is None:
            return None
        pos = end
    fields = np.fromstring(text[head:], dtype=np.int64, sep="\t").reshape(-1, 3)
    values, codes = np.unique(fields[:, 1:].ravel(), return_inverse=True)
    values = values.tolist()
    return (text[:head].split("\n")[:-1], fields[:, 0], codes.reshape(-1, 2),
            [str(v) for v in values], values)


def _read_lines(source: Iterable[str]) -> _Fields:
    """The fields of any input, line by line; raises ParseError naming the
    first malformed line."""
    comments: list[str] = []
    times: list[int] = []
    ends: list[str] = []
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
            times.append(int(parts[0]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad timestamp {parts[0]!r}") from exc
        ends += parts[1:]
    code: dict[str, int] = {}
    codes = np.array([code.setdefault(label, len(code)) for label in ends],
                     dtype=np.int64).reshape(-1, 2)
    try:
        values = [int(label) for label in code]
    except ValueError:
        values = None
    return comments, _int_array(times), codes, list(code), values


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
    collapse into one edge. More than `MAX_SNAPSHOTS` snapshots, by header
    or by the events' span, or a `nodes` header above `MAX_NODES`, is a
    ParseError.

    A file whose body is in the strict grammar (`_BODY`: ASCII-digit
    fields, labels without leading zeros, every line ended by `\\n`, and
    comments only before the first event) is checked by a regex and
    converted by one numpy call. Any other file, and an iterable of lines, is
    read line by line. Both give the same graph or the same error. A file
    is read whole, and split at `\n` for the per-line path, as a text file
    opened with universal newlines (the default) yields its lines.
    """
    fields = None
    if hasattr(source, "read"):
        text = source.read()
        fields = _read_strict(text)
        if fields is None:
            source = text.split("\n")
    if fields is None:
        fields = _read_lines(source)
    return _bin_events(*fields, gap_seconds)


def _bin_events(comments: list[str], times: np.ndarray, codes: np.ndarray,
                texts: list[str], values: list[int] | None,
                gap_seconds: int | None) -> TemporalGraph:
    """The graph of parsed fields (`_Fields`): header checks, node
    indexing, then binning into the edge table."""
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

    if not times.size and not meta:
        raise ParseError("no events")

    # Node indexing: round-trip files carry indices; foreign labels are
    # re-indexed densely by first appearance in stream order.
    header_nodes = meta.get("nodes")
    if header_nodes is not None and header_nodes > MAX_NODES:
        raise ParseError(f"header declares nodes={header_nodes}, more than the "
                         f"limit of {MAX_NODES}")
    as_indices = (header_nodes is not None and values is not None
                  and all(0 <= v < header_nodes for v in values))
    if as_indices:
        ends = np.array(values, dtype=np.int64)[codes]
        keep = ends[:, 0] != ends[:, 1]
        ends = ends[keep]
    else:
        keep = codes[:, 0] != codes[:, 1]
        # Label codes in order of first appearance among the kept events.
        seen, first = np.unique(codes[keep], return_index=True)
        order = seen[np.argsort(first)]
        rank = np.empty(len(texts), dtype=np.int64)
        rank[order] = np.arange(order.size)
        ends = rank[codes[keep]]
    dropped = int(keep.size - np.count_nonzero(keep))
    if dropped:
        logger.warning("dropped %d self-loop event(s)", dropped)

    if as_indices:
        node_count = header_nodes
        named = ()
    else:
        node_count = order.size
        named = tuple(texts[c] for c in order.tolist())
        if header_nodes is not None and node_count > header_nodes:
            raise ParseError(f"header declares nodes={header_nodes} but "
                             f"{node_count} distinct labels found")
        if header_nodes is not None:
            node_count = header_nodes

    if not ends.size and "snapshots" not in meta:
        raise ParseError("no events")

    times = times[keep]
    if "epoch" in meta:
        epoch = meta["epoch"]
    elif times.size:
        epoch = int(times.min())
    else:
        epoch = 0

    bins = np.empty(0, dtype=np.int64)
    if times.size:
        lo, hi = int(times.min()) - epoch, int(times.max()) - epoch
        if times.dtype == object or not all(-(1 << 63) <= v < 1 << 63
                                            for v in (lo, hi, epoch, gap)):
            times = times.astype(object)  # exact Python-int arithmetic
        bins = (times - epoch) // gap
    early = np.flatnonzero(bins < 0)
    if early.size:
        raise ParseError(f"event at t={int(times[early[0]])} precedes header epoch {epoch}")

    n_snapshots = int(bins.max()) + 1 if bins.size else 0
    if "snapshots" in meta:
        if meta["snapshots"] < n_snapshots:
            raise ParseError(f"header declares snapshots={meta['snapshots']} but "
                             f"events span {n_snapshots}")
        if meta["snapshots"] > MAX_SNAPSHOTS:
            raise ParseError(f"header declares snapshots={meta['snapshots']}, more "
                             f"than the limit of {MAX_SNAPSHOTS}")
        n_snapshots = meta["snapshots"]
    elif n_snapshots > MAX_SNAPSHOTS:
        raise ParseError(f"events span {n_snapshots} snapshots, more than the "
                         f"limit of {MAX_SNAPSHOTS}")

    pairs, offsets = _table(bins.astype(np.int64), ends.min(axis=1), ends.max(axis=1),
                            n_snapshots)
    return TemporalGraph._from_table(node_count, pairs, offsets, gap, epoch=epoch,
                                     named=named, dropped_self_loops=dropped)


# Rows per formatted chunk in `write_edge_list`.
_WRITE_ROWS = 1 << 16


def write_edge_list(g: TemporalGraph, sink: IO[str]) -> None:
    """Write `t i j` lines (node indices) plus a binning header.

    The header makes `parse_edge_list` reproduce the graph exactly,
    including empty leading or trailing layers. Lines follow the edge
    table's (snapshot, i, j) order.
    """
    sink.write(f"#snapshots={g.n_snapshots} #gap={g.gap_seconds} "
               f"#epoch={g.epoch} #nodes={g.node_count}\n")
    walls = np.repeat(_int_array([g.time_of(t) for t in range(g.n_snapshots)]),
                      np.diff(g.offsets))
    for start in range(0, g.n_events, _WRITE_ROWS):
        rows = np.empty((min(_WRITE_ROWS, g.n_events - start), 3), dtype=walls.dtype)
        rows[:, 0] = walls[start:start + len(rows)]
        rows[:, 1:] = g.pairs[start:start + len(rows)]
        sink.write("%d\t%d\t%d\n" * len(rows) % tuple(rows.ravel().tolist()))


def _weighted(group: np.ndarray, i: np.ndarray, j: np.ndarray, count: np.ndarray,
              n_groups: int) -> list[AggregatedGraph]:
    """One AggregatedGraph per group from `_distinct`'s sorted output, its
    edges in sorted (i, j) order."""
    cuts = np.searchsorted(group, np.arange(n_groups + 1)).tolist()
    edges = list(zip(i.tolist(), j.tolist()))
    weights = count.tolist()
    out = []
    for a, b in zip(cuts, cuts[1:]):
        agg = AggregatedGraph.__new__(AggregatedGraph)
        agg.weights = dict(zip(edges[a:b], weights[a:b]))
        out.append(agg)
    return out


def aggregate(g: TemporalGraph) -> AggregatedGraph:
    """Sum snapshots into one weighted static graph, its edges in sorted
    (i, j) order: the metrics number nodes in edge order."""
    if g.n_snapshots < 1:
        raise ValueError("cannot aggregate an empty snapshot sequence")
    i, j = g.pairs.T
    return _weighted(*_distinct(np.zeros(i.size, dtype=np.int64), i, j, 1), 1)[0]


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
    hours = [g.time_of(t) // SECONDS_PER_HOUR - first for t in range(g.n_snapshots)]
    n_hours = hours[-1] + 1
    i, j = g.pairs.T
    hour = np.repeat(np.array(hours, dtype=np.int64), np.diff(g.offsets))
    return _weighted(*_distinct(hour, i, j, n_hours), n_hours)


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
