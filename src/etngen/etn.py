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
in, strings are sorted into one run per (window end, ego) and packed into
int64 chunks (`_pack_groups`), and runs get exact ids from their chunks
(`_rank_levels`), with no hashing. Time is mined in blocks of `_BLOCK`
window ends, which bounds the memory that these arrays take.

Generation builds its windows in the same encoding, from the generated
layers' arc keys ego * n + neighbor, by the same sort-and-OR step
(`_or_by_key`), and names every ego's prefix by the same sort-and-pack
step and the same ranker: `PrefixKeys.rows` finds the packed prefixes
among a model's with one search per ranker level.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .tempgraph import (SECONDS_PER_DAY, SECONDS_PER_HOUR, BucketKey, TemporalGraph,
                        _run_starts, bucket_of)

EMPTY_TOKEN = "∅"
_STRING_SEP = "|"
_BITS = frozenset("01")


class _Once(dict):
    """A dict that fills a missing key with `fn(key)`: `fn` runs once per
    distinct key, however often the key recurs."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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
    # Signatures key most of the model's dicts, so the hash is taken once.
    _hash: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_hash", hash((self.width, self.strings)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def _of(cls, width: int, strings: tuple[int, ...]) -> "EtnSignature":
        """`cls(width, strings)` for strings known to be sorted and in
        range, without `__post_init__`'s per-string checks."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "width", width)
        object.__setattr__(sig, "strings", strings)
        object.__setattr__(sig, "_hash", hash((width, strings)))
        return sig

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
        spec = f"0{self.width}b"
        return tuple([format(s, spec) for s in self.strings])

    def encode(self) -> str:
        if not self.strings:
            return EMPTY_TOKEN
        return _STRING_SEP.join(self.bit_strings())

    @classmethod
    def decode(cls, text: str, width: int) -> "EtnSignature":
        """The signature that `encode` writes as `text` at `width`. Any other
        spelling is refused (`01|1` at width 2, `11|01`, `0b1`, `1_1`, `+11`,
        ` 11`, non-ASCII digits), so that each signature has one text."""
        return cls.decode_all((text,), width)[text]

    @classmethod
    def decode_all(cls, texts: Iterable[str], width: int) -> dict[str, "EtnSignature"]:
        """`decode` of each distinct text at `width`, by text. A batch's texts
        share most of their strings, so each distinct string is read once."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        # `encode` writes each string as `width` binary digits, none all
        # zero: any other string reads as 0, which no signature holds.
        value = _Once(lambda part: int(part, 2) if len(part) == width
                      and _BITS.issuperset(part) and "1" in part else 0).__getitem__
        out = {}
        for text in dict.fromkeys(texts):
            if text == EMPTY_TOKEN:
                out[text] = cls._of(width, ())
                continue
            parts = text.split(_STRING_SEP)
            strings = tuple(map(value, parts))
            # ... and in ascending order.
            if 0 in strings or parts != sorted(parts):
                raise ValueError(f"non-canonical signature {text!r} at width {width}")
            out[text] = cls._of(width, strings)
        return out

    def __repr__(self) -> str:
        return f"EtnSignature({self.width}, {self.encode()!r})"


def prefix_of(sig: EtnSignature) -> EtnSignature:
    """Drop the newest snapshot's bit from every string.

    Strings that become all-zero disappear, so the prefix can have fewer
    neighbors than the signature, never more.
    """
    if sig.width < 2:
        raise ValueError("signature of width 1 has no prefix")
    # Shifting keeps the sorted strings sorted and below 2**(width-1).
    return EtnSignature._of(sig.width - 1, tuple([s >> 1 for s in sig.strings if s >> 1]))


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


class PrefixKeys:
    """Exact lookup of window prefixes among `prefixes`, the non-empty
    prefixes of one width, by their packed strings (`_pack`): the levels
    that `_rank_levels` builds for `prefixes` are searched for a query's
    chunks and pairs, and the last level's rank names the prefix.
    """

    def __init__(self, prefixes: Sequence[EtnSignature], width: int):
        self.prefixes = list(prefixes)
        self.width = width
        lengths = np.array([len(p.strings) for p in self.prefixes], dtype=np.int64)
        strings = np.fromiter(chain.from_iterable(p.strings for p in self.prefixes),
                              dtype=np.int64, count=int(lengths.sum()))
        self._levels, rank = _rank_levels(
            *_pack(strings, np.cumsum(lengths) - lengths, width))
        values, pairs = self._levels[-1]
        self._row = np.full((values if pairs is None else pairs).size,
                            len(self.prefixes), dtype=np.int64)
        self._row[rank] = np.arange(len(self.prefixes))

    def rows(self, ego: np.ndarray, bits: np.ndarray, n: int) -> np.ndarray:
        """Each of the n egos' rows: `find` of its prefix for an ego in the
        window (`ego`, ascending, with `bits` below 2**width), -1 for an
        idle one. All prefixes are sorted and packed at once, as mining's
        are (`_pack_groups`)."""
        rows = np.full(n, -1)
        if ego.size:
            _, _, run_ego, packed, chunks = _pack_groups(ego, bits, self.width)
            rows[run_ego] = self.find(packed, chunks)
        return rows

    def find(self, packed: np.ndarray, chunks: np.ndarray) -> np.ndarray:
        """For each run of `packed` (`chunks` per run, as `_pack` gives
        them), the index of its equal prefix in `prefixes`, or
        len(prefixes) when there is none."""
        single = packed.size == chunks.size  # no run takes a second chunk
        first = np.arange(chunks.size) if single else np.cumsum(chunks) - chunks
        found = chunks <= len(self._levels)
        rank = None
        for c, (values, pairs) in enumerate(self._levels):
            chunk = packed if single and not c else _chunk_at(packed, first, chunks, c)
            rank_c = values.searchsorted(chunk)
            found &= values[rank_c] == chunk
            if pairs is not None:
                pair = rank * values.size + rank_c
                rank_c = pairs.searchsorted(pair)
                found &= pairs[rank_c] == pair
            rank = rank_c
        return np.where(found, self._row[rank], len(self.prefixes))


# Window ends mined per block of time. A block's temporaries hold about a
# dozen int64 arrays of k+1 entries per arc of its snapshots and of the k
# before it, so a constant block size bounds them however long the
# recording is. With 32 snapshots (under three hours at a 5-minute gap)
# mining's traced peak is about 1 MB on a 126-node, 4-day, k=2 recording
# and 7 MB on a 330-node, 5-day, k=3 one; the whole recording as one block
# takes 8 MB and 72 MB. Smaller blocks save memory for a little more time
# per window.
_BLOCK = 32

# Bits that the packed chunks of window strings may use (`_pack`): at
# most 62 // (d+1) strings of width d+1 per int64. The widest window, of
# k+1 snapshots, needs one string per chunk, so mining accepts k <= 61.
_PACK_BITS = 62
MAX_MINING_K = _PACK_BITS - 1

# Arc-windows (2 x contacts x k) below which mining runs in one thread.
_THREADED_ARC_WINDOWS = 750_000


@dataclass(frozen=True)
class _Arcs:
    """Contacts as directed arcs, both directions of every edge, in
    snapshot order: arc i runs from ego[i] to nbr[i], and the arcs of
    snapshot t are [offsets[t], offsets[t + 1]). `of` reads them from the
    graph's edge table, each row (i, j) giving arcs i->j and j->i. `bucket`
    holds each snapshot's index into `keys`, the bucket of its wall-clock
    time. The arcs stay unsorted within a snapshot, as `_window_values`
    sorts its keys: `tempgraph.layer_arcs` mines the same counts, but its
    sort takes about 12 ms on a 91,000-edge table, these ravels 3 ms."""

    ego: np.ndarray
    nbr: np.ndarray
    offsets: np.ndarray
    node_count: int
    bucket: np.ndarray
    keys: tuple[BucketKey, ...]

    @classmethod
    def of(cls, g: TemporalGraph, periodicity: str) -> "_Arcs":
        # A snapshot's bucket is set by its hour of the week, counted from
        # a week boundary of Unix time as `bucket_of` counts weekdays; the
        # keys are numbered in order of first appearance.
        week = 7 * SECONDS_PER_DAY
        hour = np.arange(g.n_snapshots, dtype=np.int64) * (g.gap_seconds % week)
        hour += g.epoch % week
        hour %= week
        hour //= SECONDS_PER_HOUR
        seen, first = np.unique(hour, return_index=True)
        index: dict[BucketKey, int] = {}
        number = np.zeros(week // SECONDS_PER_HOUR, dtype=np.int64)
        for h in seen[np.argsort(first)].tolist():
            number[h] = index.setdefault(bucket_of(h * SECONDS_PER_HOUR, periodicity),
                                         len(index))
        return cls(ego=g.pairs.ravel(), nbr=g.pairs[:, ::-1].ravel(),
                   offsets=2 * g.offsets, node_count=g.node_count, bucket=number[hour],
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
    # Passed inline, the list is freed once `_or_by_key` concatenates it.
    key, bits = _or_by_key(
        [key[arcs.offsets[max(start - o, 0)] - a:arcs.offsets[max(stop - o, 0)] - a]
         + o * per_end for o in range(k + 1)],
        [1 << o for o in range(k + 1)])
    return key // n, bits


def _or_by_key(parts: Sequence[np.ndarray], bits: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of the int64 arrays `parts`, ascending, each with
    the OR of `bits[i]` over the parts i that hold it: one sort, then one
    reduction per run. Mining and generation build their windows with it."""
    key = np.concatenate(parts)
    bit = np.repeat(np.asarray(bits, dtype=np.int64), [p.size for p in parts])
    del parts
    order = np.argsort(key)
    key, bit = key[order], bit[order]
    del order
    first = _run_starts(key)
    return key[first], np.bitwise_or.reduceat(bit, first)


def _pack(values: np.ndarray, run_start: np.ndarray, width: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Each run of `values` (runs begin at `run_start`) packed into int64
    chunks: the chunks of every run in run order, and each run's count.

    Strings are nonzero and below 2**width, so `_PACK_BITS // width` of
    them pack into one chunk, the first string in the low bits; no chunk is
    0. Equal runs pack to equal chunks.
    """
    per_chunk = _PACK_BITS // width
    run_len = np.empty_like(run_start)
    run_len[:-1] = run_start[1:]
    run_len[-1:] = values.size
    run_len -= run_start
    slot = np.arange(values.size) - run_start.repeat(run_len)
    slot %= per_chunk
    packed = np.bitwise_or.reduceat(values << (width * slot), (slot == 0).nonzero()[0])
    return packed, -(-run_len // per_chunk)


def _pack_groups(group: np.ndarray, values: np.ndarray, width: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The strings `values` (below 2**width) sorted by group, then value,
    into one run per group, and packed: the sorted strings, where each run
    begins, each run's group, and `_pack`'s chunks and chunk counts. Where
    both fit one int64, one sort of them packed together orders them."""
    if (int(group.max(initial=0)) + 1) << width <= 1 << 63:
        key = np.sort((group << width) | values)
        values, group = key & ((1 << width) - 1), key >> width
    else:
        order = np.lexsort((values, group))
        values, group = values[order], group[order]
    run_start = _run_starts(group)
    return (values, run_start, group[run_start], *_pack(values, run_start, width))


def _rank_levels(packed: np.ndarray, chunks: np.ndarray
                 ) -> tuple[list[tuple[np.ndarray, np.ndarray | None]], np.ndarray]:
    """The lexicographic rank of each run packed by `_pack` (`chunks` per
    run) among the distinct runs, by its chunk sequence padded with 0
    (which no chunk is) to the most any run has: equal runs, and only
    they, get equal ranks.

    Level 0 ranks the first chunks; level c > 0 ranks the pairs (run's
    rank at level c-1, rank of its chunk c among level c's chunks), one
    int64 each. Returns the levels, each the sorted distinct chunks c and
    the sorted distinct pairs (None at level 0), both ending in a sentinel
    above every chunk and pair so that a search never runs off the end;
    and each run's rank at the last level.
    """
    first = np.cumsum(chunks) - chunks  # index of each run's first chunk
    top = (1 << 63) - 1  # the sentinel, the largest int64
    levels = []
    rank = None
    for c in range(int(chunks.max(initial=1))):
        chunk = packed[first] if not c else _chunk_at(packed, first, chunks, c)
        # With return_inverse, np.unique sorts: its hash-table path costs
        # 17 ms and 1.6 MB of resident memory on first use (numpy 2.4).
        values, rank_c = np.unique(chunk, return_inverse=True)
        values = np.append(values, top)
        pairs = None
        if rank is not None:
            pairs, rank_c = np.unique(rank * values.size + rank_c, return_inverse=True)
            pairs = np.append(pairs, top)
        levels.append((values, pairs))
        rank = rank_c
    return levels, rank


def _chunk_at(packed: np.ndarray, first: np.ndarray, chunks: np.ndarray, c: int
              ) -> np.ndarray:
    """Chunk c of every run packed by `_pack` (runs begin at chunk
    `first`), 0 for a run with no chunk c."""
    chunk = np.zeros(chunks.size, dtype=np.int64)
    longer = chunks > c
    chunk[longer] = packed[first[longer] + c]
    return chunk


def _mine_ego_range(arcs: _Arcs, k: int, lo: int, hi: int
                    ) -> dict[BucketKey, dict[int, Counter]]:
    """Count signatures for egos in [lo, hi) across all depths 1..k.

    Time runs in blocks of `_BLOCK` window ends. In each, `_window_values`
    gives every (end, ego, neighbor) string of width k+1 at once, with its
    (end, ego) group; the depth-d string is its low d+1 bits. Per depth,
    the nonzero strings sorted by (group, string) form one run per active
    (end, ego): the body of that window's signature, packed by
    `_pack_groups`. `_rank_levels` names each distinct run, the block's
    names map to one numbering of the depth's string tuples, and (bucket,
    tuple) pairs are counted. The other egos of each window end have the
    empty signature. Each signature is built once per distinct tuple.
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
            values, run_start, run_group, packed, chunks = _pack_groups(
                groups[live], values[live], depth + 1)
            ids = _rank_levels(packed, chunks)[1]
            first = np.empty(int(ids.max(initial=-1)) + 1, dtype=np.int64)
            first[ids] = np.arange(ids.size)  # any run of an id spells its tuple
            run_end = np.append(run_start[1:], values.size)
            number = numbers[depth]
            named = np.array([number.setdefault(tuple(values[a:b].tolist()), len(number))
                              for a, b in zip(run_start[first].tolist(),
                                              run_end[first].tolist())],
                             dtype=np.int64)
            run_end_t = run_group // n_egos
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
        # Each tuple is a run of sorted nonzero strings below 2**(depth+1).
        sigs = [EtnSignature._of(depth + 1, strings) for strings in numbers[depth]]
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
    packed int64 chunks. The arcs are read from the graph's edge table.
    Up to `threads` threads (one below `_THREADED_ARC_WINDOWS`, and never
    more than nodes or usable CPUs) each mine one contiguous ego range, and
    the parts merge in range order, so the result does not depend on the
    count. Threads, not processes as for eval's Python-bound worker: the
    work is numpy's sorts and reductions, which release the GIL.
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
    big = arcs.ego.size * k >= _THREADED_ARC_WINDOWS
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, n, cpus or 1) if big else 1
    if threads <= 1:
        counts.table = _mine_ego_range(arcs, k, 0, n)
        return counts
    bounds = [round(n * w / threads) for w in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(lambda lo, hi: _mine_ego_range(arcs.of_egos(lo, hi), k, lo, hi),
                             bounds[:-1], bounds[1:]):
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
    # The same signatures recur in many buckets: each text is decoded once
    # per width.
    sigs = _Once(lambda key: EtnSignature.decode(*key))
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        bucket = BucketKey.decode(parts[0])
        depth = int(parts[1])
        sig = sigs[parts[2], depth + 1]
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
