"""Egocentric temporal neighborhoods: canonical signatures, mining, comparison.

A signature describes what one node's neighborhood did over a window of
consecutive snapshots: one activity bit-string per neighbor, oldest snapshot
first, with neighbor identities discarded by sorting the strings. Signatures
of width k+1 split into a k-wide prefix (the observed window) and a final
bit per string (the extension into the next snapshot).
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping

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

    def bucket_depth(self, bucket: BucketKey, depth: int) -> Counter:
        return self.table.get(bucket, {}).get(depth, Counter())

    def depth_total(self, depth: int) -> int:
        return sum(sum(per_depth.get(depth, {}).values())
                   for per_depth in self.table.values())

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
    """Rolling neighborhood window of the egos in [lo, hi).

    Each ego maps every neighbor seen in the last `width` snapshots to its
    activity bit-string, newest snapshot in bit 0, the order signature
    strings use. `push` ages every string by one snapshot, drops those that
    fall out of the window, and ORs in the new snapshot's edges; after
    pushing snapshots 0..t, `strings(ego, w)` is the ego's width-w window
    ending at t, for any w <= width. `depth` counts the snapshots held, up
    to `width`.
    """

    __slots__ = ("width", "lo", "hi", "depth", "_mask", "_states")

    def __init__(self, width: int, lo: int, hi: int):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.lo = lo
        self.hi = hi
        self.depth = 0
        self._mask = (1 << width) - 1
        self._states: list[dict[int, int]] = [{} for _ in range(hi - lo)]

    def push(self, edges: Iterable[tuple[int, int]]) -> None:
        states, mask, lo, hi = self._states, self._mask, self.lo, self.hi
        for idx, state in enumerate(states):
            if state:
                states[idx] = {u: aged for u, bits in state.items()
                               if (aged := (bits << 1) & mask)}
        for i, j in edges:
            if lo <= i < hi:
                state = states[i - lo]
                state[j] = state.get(j, 0) | 1
            if lo <= j < hi:
                state = states[j - lo]
                state[i] = state.get(i, 0) | 1
        if self.depth < self.width:
            self.depth += 1

    def bits(self, ego: int) -> dict[int, int]:
        """Neighbor -> activity bits over the full width (do not mutate)."""
        return self._states[ego - self.lo]

    def strings(self, ego: int, width: int) -> tuple[int, ...]:
        """Sorted nonzero strings of the width-`width` window, the body of
        that window's signature."""
        state = self._states[ego - self.lo]
        if width >= self.depth:
            return tuple(sorted(state.values()))
        mask = (1 << width) - 1
        return tuple(sorted(v for bits in state.values() if (v := bits & mask)))


def _mine_ego_range(g: TemporalGraph, k: int, periodicity: str,
                    lo: int, hi: int) -> dict[BucketKey, dict[int, Counter]]:
    """Count signatures for egos in [lo, hi) across all depths 1..k.

    One pass over the snapshots keeps a width-(k+1) window per ego; the
    depth-d signature is that window read at width d+1. Counts are kept
    by string tuple and turned into signatures once per distinct tuple.
    """
    raw: dict[tuple[BucketKey, int], Counter] = {}
    window = NeighborWindow(k + 1, lo, hi)
    egos = range(lo, hi)
    for t in range(g.n_snapshots):
        window.push(g.snapshots[t].edges)
        bucket = bucket_of(g.time_of(t), periodicity)
        for depth in range(1, min(t, k) + 1):
            raw.setdefault((bucket, depth), Counter()).update(
                [window.strings(ego, depth + 1) for ego in egos])
    table: dict[BucketKey, dict[int, Counter]] = {}
    for (bucket, depth), ctr in raw.items():
        table.setdefault(bucket, {})[depth] = Counter(
            {EtnSignature(depth + 1, strings): c for strings, c in ctr.items()})
    return table


def mine_counts(g: TemporalGraph, k: int, periodicity: str,
                threads: int = 1) -> MinedCounts:
    """Count every ego's signature at depths 1..k over all windows.

    A depth-d window spans d+1 consecutive snapshots and is bucketed by the
    wall-clock time of its final snapshot. Every ego contributes to every
    window position, including the empty signature when isolated throughout.
    Worker counts merge commutatively, so the result does not depend on
    `threads`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
    n = g.node_count
    threads = max(1, min(threads, n)) if n else 1
    if threads == 1:
        counts.table = _mine_ego_range(g, k, periodicity, 0, n)
        return counts
    bounds = [round(n * w / threads) for w in range(threads + 1)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(_mine_ego_range, [g] * threads, [k] * threads,
                         [periodicity] * threads, bounds[:-1], bounds[1:])
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
