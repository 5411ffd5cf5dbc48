"""Egocentric temporal neighborhoods: canonical signatures, mining, comparison.

A signature describes what one node's neighborhood did over a window of
consecutive snapshots: one activity bit-string per neighbor, oldest snapshot
first, with neighbor identities discarded by sorting the strings. Signatures
of width k+1 split into a k-wide prefix (the observed window) and a final
bit per string (the extension into the next snapshot).

Mining counts every window of every ego with whole-array operations, after
Longa et al., "An efficient procedure for mining egocentric temporal
motifs" (Data Min. Knowl. Disc. 2022): each contact sets one bit of one
(window end, ego, neighbor) string for each of the k+1 windows it falls
in, strings are sorted into one run per (window end, ego), and runs get
exact ids from their strings packed into int64 chunks, with no hashing.
Time is mined in blocks of `_BLOCK` window ends, which bounds the memory
that these arrays take. `NeighborWindow`, a rolling per-ego window, is the
encoding that generation advances layer by layer; mining does not use it.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping

import numpy as np

from .tempgraph import BucketKey, TemporalGraph, bucket_of

EMPTY_TOKEN = "∅"
_STRING_SEP = "|"


@dataclass(frozen=True)
class EtnSignature:
    """Canonical multiset of per-neighbor activity strings over a window.

    Each string is stored as an integer whose most significant of `width`
    bits is the oldest snapshot; the tuple is sorted ascending, which equals
    lexicographic order on the rendered bit-strings. All-zero strings are
    excluded, so an ego with no active neighbors has an empty tuple.
    """

    width: int
    strings: tuple[int, ...] = ()

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        limit = 1 << self.width
        prev = 0
        for s in self.strings:
            if not (0 < s < limit):
                raise ValueError(f"string {s} out of range for width {self.width}")
            if s < prev:
                raise ValueError("strings must be sorted ascending")
            prev = s

    @property
    def is_empty(self) -> bool:
        return not self.strings

    @classmethod
    def from_bit_strings(cls, strings: Iterable[str]) -> "EtnSignature":
        strs = list(strings)
        if not strs:
            raise ValueError("use EtnSignature(width, ()) for the empty signature")
        widths = {len(s) for s in strs}
        if len(widths) != 1:
            raise ValueError(f"mixed string widths {sorted(widths)}")
        return cls(widths.pop(), tuple(sorted(int(s, 2) for s in strs)))

    def bit_strings(self) -> tuple[str, ...]:
        return tuple(format(s, f"0{self.width}b") for s in self.strings)

    def encode(self) -> str:
        if not self.strings:
            return EMPTY_TOKEN
        return _STRING_SEP.join(self.bit_strings())

    @classmethod
    def decode(cls, text: str, width: int) -> "EtnSignature":
        if text == EMPTY_TOKEN:
            return cls(width, ())
        sig = cls.from_bit_strings(text.split(_STRING_SEP))
        if sig.width != width:
            raise ValueError(f"decoded width {sig.width} != expected {width}")
        return sig

    def __repr__(self) -> str:
        return f"EtnSignature({self.width}, {self.encode()!r})"


# A prefix is structurally a signature one snapshot narrower.
EtnPrefix = EtnSignature


def prefix_of(sig: EtnSignature) -> EtnPrefix:
    """Drop the newest snapshot's bit from every string.

    Strings that become all-zero disappear, so the prefix can have fewer
    neighbors than the signature, never more.
    """
    if sig.width < 2:
        raise ValueError("signature of width 1 has no prefix")
    return EtnSignature(sig.width - 1, tuple(sorted(s >> 1 for s in sig.strings if s >> 1)))


def extract_etn(g: TemporalGraph, ego: int, t_end: int, width: int) -> EtnSignature:
    """Signature of `ego` over the window of `width` snapshots ending at `t_end`."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not (width - 1 <= t_end < g.n_snapshots):
        raise ValueError(f"window of width {width} ending at {t_end} out of range")
    if not (0 <= ego < g.node_count):
        raise ValueError(f"ego {ego} out of range")
    acc: dict[int, int] = {}
    for pos, t in enumerate(range(t_end - width + 1, t_end + 1)):
        bit = 1 << (width - 1 - pos)
        for u in g.snapshots[t].neighbors(ego):
            acc[u] = acc.get(u, 0) | bit
    return EtnSignature(width, tuple(sorted(acc.values())))


@dataclass
class MinedCounts:
    """Signature occurrence counts per (bucket, depth), plus graph metadata.

    `table[bucket][depth]` counts signatures of width depth+1 whose window
    ends in that bucket. Depths run from 1 to k. Metadata travels with the
    counts so a model can be fitted without re-touching the input graph.
    """

    k: int
    periodicity: str
    gap_seconds: int
    epoch: int
    node_count: int
    first_layer_degrees: tuple[int, ...]
    table: dict[BucketKey, dict[int, Counter]] = field(default_factory=dict)

    def aggregate_depth(self, depth: int) -> Counter:
        """Bucket-marginal signature counts at one depth."""
        out: Counter = Counter()
        for per_depth in self.table.values():
            out.update(per_depth.get(depth, {}))
        return out

    def merge_from(self, table: dict[BucketKey, dict[int, Counter]]) -> None:
        """Add another count table, such as one mining worker's part."""
        for bucket, per_depth in table.items():
            mine = self.table.setdefault(bucket, {})
            for depth, ctr in per_depth.items():
                mine.setdefault(depth, Counter()).update(ctr)


class NeighborWindow:
    """Rolling neighborhood window of the egos in [lo, hi), which generation
    advances one layer at a time (mining counts windows from arrays).

    Each ego maps every neighbor seen in the last `width` snapshots to its
    activity bit-string, newest snapshot in bit 0, the order signature
    strings use. `push` ages every string by one snapshot, drops those that
    fall out of the window, and ORs in the new snapshot's edges; after
    pushing snapshots 0..t, `strings(ego, w)` is the ego's width-w window
    ending at t, for any w <= width. `depth` counts the snapshots held, up
    to `width`.

    Only the active egos, those with a neighbor in the window, hold a
    state; `active` lists them in ascending order (do not mutate), and
    `prefixes()` gives their strings at width `depth`. Most egos of a
    sparse network are idle in most layers, so `push` ages only the active
    ones, and every other ego's window is empty.
    """

    __slots__ = ("width", "lo", "hi", "depth", "active", "_mask", "_states")

    def __init__(self, width: int, lo: int, hi: int):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.lo = lo
        self.hi = hi
        self.depth = 0
        self.active: list[int] = []
        self._mask = (1 << width) - 1
        self._states: list[dict[int, int]] = [{} for _ in range(hi - lo)]

    def push(self, edges: Iterable[tuple[int, int]]) -> None:
        states, mask, lo, hi = self._states, self._mask, self.lo, self.hi
        active = []
        for ego in self.active:
            idx = ego - lo
            aged = {u: a for u, bits in states[idx].items()
                    if (a := (bits << 1) & mask)}
            states[idx] = aged
            if aged:
                active.append(ego)
        for i, j in edges:
            if lo <= i < hi:
                state = states[i - lo]
                if not state:
                    active.append(i)
                state[j] = state.get(j, 0) | 1
            if lo <= j < hi:
                state = states[j - lo]
                if not state:
                    active.append(j)
                state[i] = state.get(i, 0) | 1
        active.sort()
        self.active = active
        if self.depth < self.width:
            self.depth += 1

    def bits(self, ego: int) -> dict[int, int]:
        """Neighbor -> activity bits over the full width (do not mutate)."""
        return self._states[ego - self.lo]

    def prefixes(self) -> list[tuple[int, ...]]:
        """`strings(ego, depth)` of every active ego, in `active` order."""
        states, lo = self._states, self.lo
        return [tuple(sorted(states[ego - lo].values())) for ego in self.active]

    def strings(self, ego: int, width: int) -> tuple[int, ...]:
        """Sorted nonzero strings of the width-`width` window, the body of
        that window's signature."""
        state = self._states[ego - self.lo]
        if width >= self.depth:
            return tuple(sorted(state.values()))
        mask = (1 << width) - 1
        return tuple(sorted(v for bits in state.values() if (v := bits & mask)))


# Window ends mined per block of time. A block's temporaries hold about a
# dozen int64 arrays of k+1 entries per arc of its snapshots and of the k
# before it, so a constant block size bounds them however long the
# recording is. With 32 snapshots (under three hours at a 5-minute gap)
# mining's traced peak is about 1 MB on a 126-node, 4-day, k=2 recording
# and 7 MB on a 330-node, 5-day, k=3 one; the whole recording as one block
# takes 8 MB and 72 MB. Smaller blocks save memory for a little more time
# per window.
_BLOCK = 32

# Bits that the packed chunks of window strings may use (`_run_ids`): at
# most 62 // (d+1) strings of width d+1 per int64. The widest window, of
# k+1 snapshots, needs one string per chunk, so mining accepts k <= 61.
_PACK_BITS = 62
MAX_MINING_K = _PACK_BITS - 1


@dataclass(frozen=True)
class _Arcs:
    """Contacts as directed arcs, both directions of every edge, in
    snapshot order: arc i runs from ego[i] to nbr[i], and the arcs of
    snapshot t are [offsets[t], offsets[t + 1]). `of` reads them from the
    graph's edge table, each row (i, j) giving arcs i->j and j->i. `bucket`
    holds each snapshot's index into `keys`, the bucket of its wall-clock
    time."""

    ego: np.ndarray
    nbr: np.ndarray
    offsets: np.ndarray
    node_count: int
    bucket: np.ndarray
    keys: tuple[BucketKey, ...]

    @classmethod
    def of(cls, g: TemporalGraph, periodicity: str) -> "_Arcs":
        index: dict[BucketKey, int] = {}
        bucket = np.array([index.setdefault(bucket_of(g.time_of(t), periodicity),
                                            len(index))
                           for t in range(g.n_snapshots)], dtype=np.int64)
        return cls(ego=g.pairs.ravel(), nbr=g.pairs[:, ::-1].ravel(),
                   offsets=2 * g.offsets, node_count=g.node_count, bucket=bucket,
                   keys=tuple(index))

    def of_egos(self, lo: int, hi: int) -> "_Arcs":
        """The arcs whose ego is in [lo, hi)."""
        keep = (self.ego >= lo) & (self.ego < hi)
        kept = np.zeros(keep.size + 1, dtype=np.int64)  # arcs kept before each
        np.cumsum(keep, out=kept[1:])
        return _Arcs(self.ego[keep], self.nbr[keep], kept[self.offsets],
                     self.node_count, self.bucket, self.keys)


def _window_values(arcs: _Arcs, k: int, lo: int, hi: int, start: int, stop: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Every nonzero width-(k+1) string of the windows ending in
    [start, stop), for the egos in [lo, hi), sorted by window end, ego and
    neighbor, with its group (end - start) * (hi - lo) + ego - lo.

    An arc at snapshot t sets bit o of its (ego, neighbor) string in the
    window ending at t + o, for o = 0..k. The arcs whose windows end in the
    block at offset o are one slice of the block's arcs.
    """
    n = arcs.node_count
    per_end = (hi - lo) * n
    first_t = max(start - k, 0)
    a, b = arcs.offsets[first_t], arcs.offsets[stop]
    key = np.repeat(np.arange(first_t - start, stop - start) * per_end,
                    np.diff(arcs.offsets[first_t:stop + 1]))
    key += (arcs.ego[a:b] - lo).astype(np.int64) * n
    key += arcs.nbr[a:b]
    runs = [key[arcs.offsets[max(start - o, 0)] - a:arcs.offsets[max(stop - o, 0)] - a]
            + o * per_end for o in range(k + 1)]
    bit = np.repeat(np.left_shift(1, np.arange(k + 1, dtype=np.int64)),
                    [r.size for r in runs])
    key = np.concatenate(runs)
    del runs
    order = np.argsort(key)
    key, bit = key[order], bit[order]
    del order
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return key[first] // n, np.bitwise_or.reduceat(bit, first)


def _pair_order(group: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """The order that sorts the pairs by group, then value (below
    2**width): one sort of both packed into an int64 where they fit."""
    if (int(group.max(initial=0)) + 1) << width <= 1 << 63:
        return np.argsort((group << width) | values)
    return np.lexsort((values, group))


def _run_ids(values: np.ndarray, run_start: np.ndarray, width: int) -> np.ndarray:
    """An exact id for each run of `values` (runs begin at `run_start`),
    equal for runs of equal sequences.

    Strings are nonzero and below 2**width, so `_PACK_BITS // width` of
    them pack into one int64 chunk, the first string in the low bits. Runs
    are ranked by their first chunk, then the rank is refined by each
    further chunk, a missing chunk counting as 0, which no real chunk is.
    """
    per_chunk = _PACK_BITS // width
    run_len = np.diff(run_start, append=values.size)
    slot = np.arange(values.size) - np.repeat(run_start, run_len)
    slot %= per_chunk
    packed = np.bitwise_or.reduceat(values << (width * slot),
                                    np.flatnonzero(slot == 0))
    chunks = -(-run_len // per_chunk)
    first = np.cumsum(chunks) - chunks  # index of each run's first chunk
    ids = np.unique(packed[first], return_inverse=True)[1]
    for c in range(1, int(chunks.max(initial=0))):
        chunk = np.zeros(run_start.size, dtype=np.int64)
        longer = chunks > c
        chunk[longer] = packed[first[longer] + c]
        rank = np.unique(chunk, return_inverse=True)[1]
        ids = np.unique(ids * (int(rank.max()) + 1) + rank, return_inverse=True)[1]
    return ids


def _mine_ego_range(arcs: _Arcs, k: int, lo: int, hi: int
                    ) -> dict[BucketKey, dict[int, Counter]]:
    """Count signatures for egos in [lo, hi) across all depths 1..k.

    Time runs in blocks of `_BLOCK` window ends. In each, `_window_values`
    gives every (end, ego, neighbor) string of width k+1 at once, with its
    (end, ego) group; the depth-d string is its low d+1 bits. Per depth,
    the nonzero strings sorted by (group, string) form one run per active
    (end, ego): the body of that window's signature. `_run_ids` names each distinct run,
    the block's names map to one numbering of the depth's string tuples,
    and (bucket, tuple) pairs are counted. The other egos of each window
    end have the empty signature. Each signature is built once per
    distinct tuple.
    """
    n_egos = hi - lo
    n_buckets = len(arcs.keys)
    numbers: dict[int, dict[tuple[int, ...], int]] = {d: {(): 0} for d in range(1, k + 1)}
    tallies: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {
        d: [] for d in range(1, k + 1)}
    for start in range(1, arcs.bucket.size, _BLOCK):
        stop = min(start + _BLOCK, arcs.bucket.size)
        groups, string = _window_values(arcs, k, lo, hi, start, stop)
        for depth in range(1, k + 1):
            values = string & ((1 << (depth + 1)) - 1)
            # windows ending before snapshot `depth` are too short
            live = np.flatnonzero((values != 0) & (groups >= (depth - start) * n_egos))
            values, group = values[live], groups[live]
            order = _pair_order(group, values, depth + 1)
            values, group = values[order], group[order]
            run_start = np.flatnonzero(np.diff(group, prepend=-1))
            ids = _run_ids(values, run_start, depth + 1)
            first = np.empty(int(ids.max(initial=-1)) + 1, dtype=np.int64)
            first[ids] = np.arange(ids.size)  # any run of an id spells its tuple
            run_end = np.append(run_start[1:], values.size)
            number = numbers[depth]
            named = np.array([number.setdefault(tuple(values[a:b].tolist()), len(number))
                              for a, b in zip(run_start[first].tolist(),
                                              run_end[first].tolist())],
                             dtype=np.int64)
            run_end_t = group[run_start] // n_egos
            ends = np.arange(max(start, depth), stop)
            idle = n_egos - np.bincount(run_end_t, minlength=stop - start)[ends - start]
            # cell = tuple number * n_buckets + bucket; the empty tuple is 0
            cell, at = np.unique(np.concatenate((
                named[ids] * n_buckets + arcs.bucket[start + run_end_t],
                arcs.bucket[ends])), return_inverse=True)
            tallies[depth].append((cell, np.bincount(
                at, weights=np.concatenate((np.ones(ids.size), idle)))))
    table: dict[BucketKey, dict[int, Counter]] = {}
    for depth, parts in tallies.items():
        cell, at = np.unique(np.concatenate([c for c, _ in parts]), return_inverse=True)
        count = np.bincount(at, weights=np.concatenate([w for _, w in parts]))
        sigs = [EtnSignature(depth + 1, strings) for strings in numbers[depth]]
        # Each bucket with a window end at this depth gets a counter, empty
        # when the range has no ego. (A set, not np.unique: its hash-table
        # path costs 1.6 MB of resident memory on first use.)
        for b in set((cell % n_buckets).tolist()):
            table.setdefault(arcs.keys[b], {})[depth] = Counter()
        for c, n in zip(cell.tolist(), count.tolist()):
            if n:
                number, b = divmod(c, n_buckets)
                table[arcs.keys[b]][depth][sigs[number]] = int(n)
    return table


def mine_counts(g: TemporalGraph, k: int, periodicity: str,
                threads: int = 1) -> MinedCounts:
    """Count every ego's signature at depths 1..k over all windows.

    A depth-d window spans d+1 consecutive snapshots and is bucketed by the
    wall-clock time of its final snapshot. Every ego contributes to every
    window position, including the empty signature when isolated throughout.
    k is at most `MAX_MINING_K`, the widest window whose strings fit the
    packed int64 chunks. The arcs are read from the graph's edge table;
    with `threads` > 1, each worker process receives the arcs of one
    contiguous ego range, not the graph. Worker counts merge commutatively,
    so the result does not depend on `threads`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_MINING_K:
        raise ValueError(f"k must be <= {MAX_MINING_K}, got {k}")
    if g.n_snapshots < k + 1:
        raise ValueError(f"need at least {k + 1} snapshots, got {g.n_snapshots}")
    counts = MinedCounts(
        k=k,
        periodicity=periodicity,
        gap_seconds=g.gap_seconds,
        epoch=g.epoch,
        node_count=g.node_count,
        first_layer_degrees=tuple(g.first_layer_degrees()),
    )
    arcs = _Arcs.of(g, periodicity)
    n = g.node_count
    threads = max(1, min(threads, n)) if n else 1
    if threads == 1:
        counts.table = _mine_ego_range(arcs, k, 0, n)
        return counts
    bounds = [round(n * w / threads) for w in range(threads + 1)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(_mine_ego_range,
                         [arcs.of_egos(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
                         [k] * threads, bounds[:-1], bounds[1:])
        for part in parts:
            counts.merge_from(part)
    return counts


def write_counts(counts: MinedCounts, sink: IO[str]) -> None:
    """Dump rows `bucket<TAB>depth<TAB>signature<TAB>count`, sorted."""
    rows = []
    for bucket, per_depth in counts.table.items():
        for depth, ctr in per_depth.items():
            for sig, c in ctr.items():
                rows.append((bucket.encode(), depth, sig.encode(), c))
    rows.sort()
    for bucket_s, depth, sig_s, c in rows:
        sink.write(f"{bucket_s}\t{depth}\t{sig_s}\t{c}\n")


def read_counts(source: IO[str] | Iterable[str]) -> dict[BucketKey, dict[int, Counter]]:
    """Inverse of `write_counts`, the writer of `fit --counts-out` files:
    bucket -> depth -> signature counts (metadata is not in the dump)."""
    table: dict[BucketKey, dict[int, Counter]] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        bucket = BucketKey.decode(parts[0])
        depth = int(parts[1])
        sig = EtnSignature.decode(parts[2], depth + 1)
        count = int(parts[3])
        table.setdefault(bucket, {}).setdefault(depth, Counter())[sig] += count
    return table


def etn_cosine_distance(a: Mapping[EtnSignature, int],
                        b: Mapping[EtnSignature, int]) -> float:
    """1 - cosine similarity of signature count vectors (0 = identical mix)."""
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for an all-zero count vector")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(v * large.get(sig, 0) for sig, v in small.items())
    return max(0.0, 1.0 - dot / (na * nb))
