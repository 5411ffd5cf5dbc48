"""Temporal graph data model: one edge table per graph, ingestion,
aggregation, time buckets."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
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


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of the array begins."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _distinct(group: np.ndarray, i: np.ndarray, j: np.ndarray, n_groups: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (group, i, j) triples in sorted order, and how often
    each occurs. Groups lie in [0, n_groups) and node ids are non-negative.

    One sort of the triples packed into int64 keys; where the key would
    not fit, the (i, j) pairs are ranked first and the rank packed.
    """
    group, i, j = (a.astype(np.int64, copy=False) for a in (group, i, j))
    n = int(max(i.max(), j.max())) + 1 if i.size else 1
    if n_groups * n * n < 1 << 63:
        key = group * n
        key += i
        key *= n
        key += j
        key.sort()  # in place, where np.unique would sort a copy
        first = _run_starts(key)
        count = np.diff(first, append=key.size)
        pair = key[first]
        del key, first  # freed before the keys are split
        group, pair = np.divmod(pair, n * n)
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
    return _pack_table(i, j, np.bincount(group, minlength=n_snapshots))


def _pack_table(i: np.ndarray, j: np.ndarray, sizes: Sequence[int]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The edge table of the rows (i, j), already distinct and sorted by
    (layer, i, j), whose layers hold `sizes` rows each: the rows as a
    read-only int32 array and the read-only int64 offsets of each layer's."""
    pairs = np.empty((len(i), 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = i, j
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    pairs.flags.writeable = offsets.flags.writeable = False
    return pairs, offsets


def _edge_table(layers: Sequence[Iterable[tuple[int, int]]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The edge table (`_table`) of a sequence of layers, each an iterable
    of (i, j) pairs in either order, duplicates allowed. Raises ValueError
    on a self-loop or a node id outside [0, MAX_NODES)."""
    parts = [np.fromiter(chain.from_iterable(s), dtype=np.int64).reshape(-1, 2)
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


class TemporalGraph:
    """Immutable sequence of snapshots with wall-clock metadata.

    All edges are held in one table: `pairs`, a read-only int32 array of
    (i, j) rows with i < j, sorted by (snapshot, i, j), and `offsets`, so
    that snapshot t's rows are pairs[offsets[t]:offsets[t + 1]].

    Node ids are dense integers in [0, node_count); `labels` gives each
    one's input label, the stored labels the input named padded with str(i)
    on access. Equality compares structure and timing, not labels.
    """

    __slots__ = ("node_count", "pairs", "offsets", "gap_seconds", "epoch", "_named",
                 "dropped_self_loops")

    def __init__(
        self,
        node_count: int,
        snapshots: Sequence[Iterable[tuple[int, int]]],
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

    def __reduce__(self):
        return TemporalGraph._from_table, (
            self.node_count, self.pairs, self.offsets, self.gap_seconds, self.epoch,
            self._named, self.dropped_self_loops)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._named + tuple(map(str, range(len(self._named), self.node_count)))

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
_FIELD_DIGITS = 18
_TAB, _NEWLINE, _ZERO, _NINE = b"\t\n09"
# Bytes of body that `_strict_lines` checks at once, which bounds its
# temporaries to a few times as much.
_CHECK_CHUNK = 1 << 16

# Events (t, a, b) as a parse reads them: the comment lines, the times, an
# (events x 2) int64 array of labels, and the label texts. The texts are
# None when the array holds the labels' integer values, each label's text
# being its value in decimal; otherwise the array holds codes into them.
_Fields = tuple[list[str], np.ndarray, np.ndarray, list[str] | None]


def _read_strict(text: str) -> _Fields | None:
    """The fields of a text in the strict grammar, its labels as integer
    values, or None when the text is not in it. The body's ASCII bytes are
    checked by `_strict_lines` one chunk of lines at a time and converted
    by one numpy call."""
    head = _HEAD.match(text).end()
    try:
        body = text[head:].encode("ascii")
    except UnicodeEncodeError:
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    pos = 0
    while pos < raw.size:
        end = body.find(b"\n", pos + _CHECK_CHUNK) + 1 or raw.size
        if not _strict_lines(raw[pos:end]):
            return None
        pos = end
    fields = np.fromstring(body, dtype=np.int64, sep="\t").reshape(-1, 3)
    return text[:head].split("\n")[:-1], fields[:, 0], fields[:, 1:], None


def _strict_lines(raw: np.ndarray) -> bool:
    """Whether the bytes `raw`, at least one, are lines of the strict
    grammar, judged by where their separators lie."""
    if raw.max() > _NINE or raw[-1] != _NEWLINE:
        return False
    # Every byte is now a digit or below '0', a separator: these must run
    # tab, tab, newline on every line.
    sep = np.flatnonzero(raw < _ZERO)
    if sep.size % 3:
        return False
    sep = sep.reshape(-1, 3)
    if not (raw[sep] == (_TAB, _TAB, _NEWLINE)).all():
        return False
    first = np.empty_like(sep)  # where each field begins
    first[0, 0] = 0
    first[1:, 0] = sep[:-1, 2] + 1
    first[:, 1:] = sep[:, :2] + 1
    digits = sep - first
    return bool(digits.min() >= 1 and digits.max() <= _FIELD_DIGITS
                and not ((raw[first[:, 1:]] == _ZERO) & (digits[:, 1:] > 1)).any())


def _read_lines(source: Iterable[str]) -> _Fields:
    """The fields of any input, line by line, its labels as codes in order
    of first appearance; raises ParseError naming the first malformed
    line."""
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
    return comments, _int_array(times), codes, list(code)


def _label_values(texts: list[str], codes: np.ndarray) -> np.ndarray | None:
    """The integer value of each coded label, or None unless every label
    text is an integer."""
    try:
        values = _int_array([int(text) for text in texts])
    except ValueError:
        return None
    return values[codes]


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
    indices directly; they are ranked by first appearance only otherwise.

    Self-loop events are dropped and counted; duplicate events within a bin
    collapse into one edge. More than `MAX_SNAPSHOTS` snapshots, by header
    or by the events' span, or a `nodes` header above `MAX_NODES`, is a
    ParseError.

    A file whose body is in the strict grammar (ASCII-digit fields of at
    most 18 digits, labels without leading zeros, every line ended by
    `\\n`, and comments only before the first event) is checked on its
    bytes and converted by one numpy call. Any other file, and an iterable
    of lines, is read line by line. Both give the same graph or the same
    error. A file is read whole, and split at `\n` for the per-line path,
    as a text file opened with universal newlines (the default) yields its
    lines.
    """
    fields = None
    if hasattr(source, "read"):
        text = source.read()
        fields = _read_strict(text)
        if fields is None:
            source = text.split("\n")
        del text  # freed before binning
    if fields is None:
        fields = _read_lines(source)
    return _bin_events(*fields, gap_seconds)


def _bin_events(comments: list[str], times: np.ndarray, labels: np.ndarray,
                texts: list[str] | None, gap_seconds: int | None) -> TemporalGraph:
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
    values = labels if texts is None else _label_values(texts, labels)
    as_indices = (header_nodes is not None and values is not None
                  and (not values.size or (values.min() >= 0
                                           and values.max() < header_nodes)))
    ends = values.astype(np.int64, copy=False) if as_indices else labels
    keep = ends[:, 0] != ends[:, 1]
    dropped = int(keep.size - np.count_nonzero(keep))
    if dropped:
        logger.warning("dropped %d self-loop event(s)", dropped)
        ends, times = ends[keep], times[keep]

    if as_indices:
        node_count = header_nodes
        named = ()
    else:
        # Labels in order of first appearance among the kept events.
        seen, first, at = np.unique(ends.ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        ends = rank[at].reshape(-1, 2)
        firsts = seen[order].tolist()
        named = tuple(map(str, firsts) if texts is None else (texts[c] for c in firsts))
        node_count = order.size
        if header_nodes is not None and node_count > header_nodes:
            raise ParseError(f"header declares nodes={header_nodes} but "
                             f"{node_count} distinct labels found")
        if header_nodes is not None:
            node_count = header_nodes

    if not ends.size and "snapshots" not in meta:
        raise ParseError("no events")

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

    # Each event as i < j, in place: `ends` is this parse's own array.
    flip = ends[:, 0] > ends[:, 1]
    ends[flip] = ends[flip][:, ::-1]
    pairs, offsets = _table(bins.astype(np.int64, copy=False), ends[:, 0], ends[:, 1],
                            n_snapshots)
    return TemporalGraph._from_table(node_count, pairs, offsets, gap, epoch=epoch,
                                     named=named, dropped_self_loops=dropped)


# Rows per formatted chunk in `write_edge_list`.
_WRITE_ROWS = 1 << 13


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
    """Raise ValueError unless the gap divides 3600 or 3600 divides the gap.
    A layer counts in the hour where it starts (`hour_slices`): with an
    epoch off the hour grid it may straddle an hour boundary (gap 300,
    epoch 100: layer 11 spans 3,400-3,700 s)."""
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
    # Keys of the model's tables, so the hash is taken once. It hashes ints
    # only: hash(None) differs between processes, and an unpickled key keeps
    # the hash it was made with.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.hour_of_day < 24):
            raise ValueError(f"hour_of_day out of range: {self.hour_of_day}")
        if self.day_of_week is not None and not (0 <= self.day_of_week < 7):
            raise ValueError(f"day_of_week out of range: {self.day_of_week}")
        object.__setattr__(self, "_hash", hash(
            (self.hour_of_day, -1 if self.day_of_week is None else self.day_of_week)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def periodicity(self) -> str:
        return DAILY if self.day_of_week is None else WEEKLY

    def encode(self) -> str:
        if self.day_of_week is None:
            return f"h{self.hour_of_day:02d}"
        return f"d{self.day_of_week}h{self.hour_of_day:02d}"

    @classmethod
    def decode(cls, text: str) -> "BucketKey":
        """The key that `encode` writes as `text`. Any other spelling is
        refused (`h8`, `h 8`, `h+8`, `d1x08`), so that each key has one text."""
        key = None
        try:
            if text.startswith("d"):
                key = cls(hour_of_day=int(text[3:]), day_of_week=int(text[1:2]))
            elif text.startswith("h"):
                key = cls(hour_of_day=int(text[1:]))
        except (ValueError, IndexError):
            pass
        if key is None or key.encode() != text:
            raise ValueError(f"bad bucket key {text!r}")
        return key


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
