"""Bucketed extension model: fit from mined counts, sample, save and load.

For every (bucket, depth, prefix) cell the model stores the empirical
distribution of full signatures extending that prefix by one snapshot.
Counts are kept as integers; sampling and serialization stay exact and
reproducible across platforms.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from json.encoder import encode_basestring
from typing import IO, Mapping

import numpy as np

from .etn import MAX_MINING_K, EtnSignature, MinedCounts, PrefixKeys, prefix_of
from .tempgraph import PERIODICITIES, BucketKey

FORMAT_NAME = "etngen-model"
FORMAT_VERSION = 1

# Fallback levels, in query order.
FALLBACK_NONE = "bucket"
FALLBACK_GLOBAL = "global"
FALLBACK_EMPTY_BUCKET = "empty_bucket"
FALLBACK_EMPTY_GLOBAL = "empty_global"
FALLBACK_EMPTY_SIG = "empty_signature"
FALLBACK_LEVELS = (FALLBACK_NONE, FALLBACK_GLOBAL, FALLBACK_EMPTY_BUCKET,
                   FALLBACK_EMPTY_GLOBAL, FALLBACK_EMPTY_SIG)


class ModelFormatError(ValueError):
    """Unreadable, wrong-version or inconsistent model file."""


class FitError(ValueError):
    """Counts insufficient to fit a model."""


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
class ExtensionDistribution:
    """Empirical distribution over signatures sharing one prefix.

    `extensions` pairs each signature with its raw count; `total` is the
    count sum. Sampling is count-proportional using a single integer draw,
    located by bisection over the running count sums.
    """

    extensions: tuple[tuple[EtnSignature, int], ...]
    total: int

    def __post_init__(self):
        counts = [c for _, c in self.extensions]
        if not counts:
            raise ValueError("empty distribution")
        if min(counts) <= 0:
            raise ValueError("non-positive count")
        if self.total != sum(counts):
            raise ValueError("total does not match counts")

    @classmethod
    def from_counter(cls, ctr: Mapping[EtnSignature, int]) -> "ExtensionDistribution":
        dist = cls._of(ctr)
        dist.__post_init__()
        return dist

    @classmethod
    def _of(cls, ctr: Mapping[EtnSignature, int]) -> "ExtensionDistribution":
        """`from_counter(ctr)` for a counter known to hold at least one
        signature, each with a positive count, without `__post_init__`'s
        checks: `fit` and `load_model` build their distributions so."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "extensions",
                           tuple(sorted(ctr.items(), key=lambda kv: kv[0].strings)))
        object.__setattr__(dist, "total", sum(ctr.values()))
        return dist

    def probabilities(self) -> dict[EtnSignature, float]:
        return {sig: c / self.total for sig, c in self.extensions}

    def pick(self, r: int) -> EtnSignature:
        """The signature that the integer draw r in [0, total) selects."""
        running = list(accumulate(c for _, c in self.extensions))
        return self.extensions[bisect_right(running, r)][0]

    def sample(self, rng: np.random.Generator) -> EtnSignature:
        return self.pick(int(rng.integers(self.total)))


TableKey = tuple[BucketKey, int, EtnSignature]
GlobalKey = tuple[int, EtnSignature]


class PickIndex:
    """Every distribution of a model laid end to end, so that one search
    picks the extensions of many draws from many distributions.

    Distribution i (the values of `tables`, then of `global_tables`, then a
    stand-in for "no distribution" of total 1) gets the base `base[i]`, the
    sum of the totals before it. `cum` is the running sum of every
    extension count, the distributions' laid end to end, so for a draw r
    in [0, total[i]), `searchsorted(cum, base[i] + r, side="right")` is the
    global position of the extension that the distribution's `pick(r)`
    returns. Per extension position, `stubs` counts the strings equal to 1
    (contacts new in the last snapshot) and `requests` lists the (prefix
    bits, count) pairs of the other strings whose last bit is set, sorted
    by bits; `asks` marks the positions with requests. The stand-in's one
    extension has neither.

    `prefix_table(bucket, depth)` gives, for every prefix at once, the
    distribution `lookup_extension` answers with; it is built on first use.
    """

    def __init__(self, tables: dict, global_tables: dict):
        self._tables, self._global_tables = tables, global_tables
        self._prefix_keys: dict[int, PrefixKeys] = {}
        self._prefix_tables: dict[tuple[BucketKey, int], PrefixTable] = {}
        dists = [*tables.values(), *global_tables.values()]
        # Holding the distributions keeps their ids unique while the index
        # lives, so `position` can key on them without hashing a table.
        self._dists = dists
        self._position = {id(dist): i for i, dist in enumerate(dists)}
        self.total = np.array([dist.total for dist in dists] + [1], dtype=np.int64)
        self.base = np.cumsum(self.total) - self.total
        parsed: dict[EtnSignature, tuple[int, tuple[tuple[int, int], ...]]] = {}
        counts, stubs, requests = [], [], []
        for dist in dists:
            for sig, count in dist.extensions:
                entry = parsed.get(sig)
                if entry is None:
                    need = Counter(s >> 1 for s in sig.strings if s & 1)
                    entry = parsed[sig] = (need.pop(0, 0), tuple(sorted(need.items())))
                counts.append(count)
                stubs.append(entry[0])
                requests.append(entry[1])
        self.cum = np.cumsum(np.array(counts + [1], dtype=np.int64))
        self.stubs = np.array(stubs + [0], dtype=np.int64)
        self.requests = requests + [()]
        self.asks = np.array([bool(r) for r in self.requests])

    def position(self, dist: ExtensionDistribution | None) -> int:
        """The index of `dist`, one of the model's distributions or None."""
        return len(self._dists) if dist is None else self._position[id(dist)]

    def prefix_table(self, bucket: BucketKey, depth: int) -> "PrefixTable":
        """The lookups of every prefix at (bucket, depth). Its keys are the
        depth's non-empty global prefixes: every bucket cell's prefix is
        one of them, so any other prefix falls back as a miss does."""
        table = self._prefix_tables.get((bucket, depth))
        if table is None:
            keys = self._prefix_keys.get(depth)
            if keys is None:
                keys = self._prefix_keys[depth] = PrefixKeys(
                    [p for d, p in self._global_tables if d == depth and p.strings],
                    depth)
            answers = [_lookup(self._tables, self._global_tables, bucket, depth, p)
                       for p in (*keys.prefixes, None, EtnSignature(depth))]
            table = self._prefix_tables[bucket, depth] = PrefixTable(
                keys,
                np.array([self.position(d) for d, _ in answers], dtype=np.int64),
                np.array([FALLBACK_LEVELS.index(lv) for _, lv in answers],
                         dtype=np.int64))
        return table


@dataclass(frozen=True)
class PrefixTable:
    """`lookup_extension`'s answer for every prefix at one (bucket, depth),
    by row: row i < len(keys.prefixes) answers `keys.prefixes[i]`, the next
    row a prefix that no table holds (the row `keys.find` gives a miss),
    and the last row, -1, the empty prefix. `position` is the answer's
    `PickIndex` position, `level` its index in `FALLBACK_LEVELS`."""

    keys: PrefixKeys
    position: np.ndarray
    level: np.ndarray


@dataclass
class LocalModel:
    """Fitted extension tables plus everything needed to generate.

    `tables` maps (bucket, depth, prefix) to an ExtensionDistribution.
    `global_tables`, derived from `tables` on first read, marginalizes out
    the bucket and backs fallback at generation time; it is not a field, so
    neither `fit`, `load_model` nor `save_model` builds it. `fallback_counts`
    tallies which lookup level served each query; it is diagnostic state,
    not part of model identity. `pick_index`, built on first use, serves
    generation. The tables must not change after either is built.
    """

    k: int
    periodicity: str
    gap_seconds: int
    epoch: int
    node_count: int
    seed_degrees: tuple[int, ...]
    tables: dict[TableKey, ExtensionDistribution]
    fallback_counts: Counter = field(default_factory=Counter, compare=False)

    @cached_property
    def global_tables(self) -> dict[GlobalKey, ExtensionDistribution]:
        """Each (depth, prefix)'s extension counts summed over buckets."""
        acc: dict[GlobalKey, dict[EtnSignature, int]] = {}
        for (_, depth, prefix), dist in self.tables.items():
            ctr = acc.get((depth, prefix))
            if ctr is None:
                acc[depth, prefix] = dict(dist.extensions)
                continue
            for sig, c in dist.extensions:
                ctr[sig] = ctr.get(sig, 0) + c
        return {key: ExtensionDistribution._of(ctr) for key, ctr in acc.items()}

    @cached_property
    def pick_index(self) -> PickIndex:
        return PickIndex(self.tables, self.global_tables)


def _build_model(cells: dict[TableKey, dict[EtnSignature, int]], **meta) -> LocalModel:
    """The model whose (bucket, depth, prefix) cell counts are `cells`, each
    non-empty and positive. `meta` holds the remaining `LocalModel`
    fields."""
    return LocalModel(tables={key: ExtensionDistribution._of(ctr)
                              for key, ctr in cells.items()}, **meta)


def fit(counts: MinedCounts) -> LocalModel:
    """Turn mined counts into per-cell extension distributions, bucketed at
    the periodicity the counts were mined at."""
    if counts.periodicity not in PERIODICITIES:
        raise ValueError(f"unknown periodicity {counts.periodicity!r}")
    # The same signatures recur in many buckets: each prefix is taken once.
    # A signature is counted once per (bucket, depth), so once per cell.
    parents = _Once(prefix_of)
    cells: dict[TableKey, dict[EtnSignature, int]] = {}
    for bucket, per_depth in counts.table.items():
        for depth, ctr in per_depth.items():
            for sig, c in ctr.items():
                key = (bucket, depth, parents[sig])
                cell = cells.get(key)
                if cell is None:
                    cell = cells[key] = {}
                cell[sig] = c
    depths = {depth for _, depth, _ in cells}
    for depth in range(1, counts.k + 1):
        if depth not in depths:
            raise FitError(f"no observations at depth {depth}")
    return _build_model(cells, k=counts.k, periodicity=counts.periodicity,
                        gap_seconds=counts.gap_seconds, epoch=counts.epoch,
                        node_count=counts.node_count,
                        seed_degrees=tuple(counts.first_layer_degrees))


def lookup_extension(model: LocalModel, bucket: BucketKey, depth: int,
                     prefix: EtnSignature) -> tuple[ExtensionDistribution | None, str]:
    """The distribution that answers a query for `prefix`, and its level.

    Lookup falls back in order: exact cell, bucket-marginal, the empty
    prefix in the same bucket, the empty prefix globally, and finally no
    distribution (the empty signature). Nothing is tallied.
    """
    return _lookup(model.tables, model.global_tables, bucket, depth, prefix)


def _lookup(tables: dict, global_tables: dict, bucket: BucketKey, depth: int,
            prefix: EtnSignature | None) -> tuple[ExtensionDistribution | None, str]:
    """`lookup_extension` on the tables; a None prefix is in none of them."""
    dist = tables.get((bucket, depth, prefix))
    if dist is not None:
        return dist, FALLBACK_NONE
    dist = global_tables.get((depth, prefix))
    if dist is not None:
        return dist, FALLBACK_GLOBAL
    empty = EtnSignature(depth)
    dist = tables.get((bucket, depth, empty))
    if dist is not None:
        return dist, FALLBACK_EMPTY_BUCKET
    dist = global_tables.get((depth, empty))
    if dist is not None:
        return dist, FALLBACK_EMPTY_GLOBAL
    return None, FALLBACK_EMPTY_SIG


def sample_extension(model: LocalModel, bucket: BucketKey, depth: int,
                     prefix: EtnSignature, rng: np.random.Generator) -> EtnSignature:
    """Draw a width-(depth+1) signature extending `prefix`.

    The distribution comes from `lookup_extension`; the level used is
    tallied in `model.fallback_counts`.
    """
    dist, level = lookup_extension(model, bucket, depth, prefix)
    model.fallback_counts[level] += 1
    if dist is None:
        return EtnSignature(depth + 1)
    return dist.sample(rng)


def _json_list(items: list[str], indent: int) -> str:
    """The JSON texts `items` as the list that `json.dumps(..., indent=1)`
    writes at nesting level `indent`."""
    if not items:
        return "[]"
    inner = "\n" + " " * (indent + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


def save_model(model: LocalModel, sink: IO[str]) -> None:
    """Serialize to JSON. Counts are integers, ordering canonical, output
    byte-stable for a given model.

    The text is `json.dumps(doc, ensure_ascii=False, indent=1)` of the
    model's document, assembled directly: an indented dump runs json's
    pure-Python encoder, while the same signatures recur in many cells. So
    each distinct code is quoted once, by json's C string encoder, and each
    extension's lines before its count are built once per signature. Cells
    are written one at a time, each as soon as it is formatted."""
    texts = _Once(lambda item: item.encode())
    quoted = _Once(lambda item: encode_basestring(texts[item]))
    heads = _Once(lambda sig: f'{{\n     "sig": {quoted[sig]},\n     "count": ')
    fields = [
        f'"format": {encode_basestring(FORMAT_NAME)}',
        f'"version": {FORMAT_VERSION}',
        f'"k": {model.k}',
        f'"periodicity": {encode_basestring(model.periodicity)}',
        f'"gap": {model.gap_seconds}',
        f'"epoch": {model.epoch}',
        f'"nodes": {model.node_count}',
        f'"seed_degrees": {_json_list([str(d) for d in model.seed_degrees], 1)}',
    ]
    sink.write("{\n " + ",\n ".join(fields) + ',\n "tables": [')
    # The list as `_json_list(cells, 1)` writes it.
    sep = "\n  "
    for (bucket, depth, prefix), dist in sorted(
            model.tables.items(),
            key=lambda kv: (texts[kv[0][0]], kv[0][1], kv[0][2].strings)):
        extensions = [f"{heads[sig]}{c}\n    }}" for sig, c in dist.extensions]
        sink.write(f'{sep}{{\n   "bucket": {quoted[bucket]},\n   "depth": {depth},\n'
                   f'   "prefix": {quoted[prefix]},\n'
                   f'   "extensions": {_json_list(extensions, 3)}\n  }}')
        sep = ",\n  "
    sink.write("\n ]\n}\n" if model.tables else "]\n}\n")


def _check_invariants(model: LocalModel) -> None:
    """Refuse models that `fit` cannot produce and generation would absorb
    silently or fail on late: foreign bucket keys, a seed-degree list that
    does not match the node count, a seed degree no simple graph on the
    model's nodes can carry, a depth with no cell, a gap that is not
    positive."""
    if model.gap_seconds <= 0:
        raise ModelFormatError(f"gap must be positive, got {model.gap_seconds}")
    for bucket, depth, prefix in model.tables:
        if bucket.periodicity != model.periodicity:
            raise ModelFormatError(f"cell {bucket.encode()}/{depth}/{prefix.encode()} "
                                   f"has a {bucket.periodicity} bucket in a "
                                   f"{model.periodicity} model")
    if len(model.seed_degrees) not in (0, model.node_count):
        raise ModelFormatError(f"{len(model.seed_degrees)} seed degrees for "
                               f"{model.node_count} nodes")
    for node, d in enumerate(model.seed_degrees):
        if not 0 <= d < model.node_count:
            raise ModelFormatError(f"seed degree {d} of node {node} outside "
                                   f"0..{model.node_count - 1}")
    # `load_model` keeps every cell's depth in 1..k, so fewer distinct depths
    # than k means one is missing; the first is found without listing 1..k.
    depths = {depth for _, depth, _ in model.tables}
    if len(depths) < model.k:
        missing = next(d for d in range(1, model.k + 1) if d not in depths)
        raise ModelFormatError(f"no cell at depth {missing}")


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list"}


def _typed(value, kind: type, name: str):
    """`value` if it has JSON type `kind`; a bool is not an integer, and
    nothing is converted."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def load_model(source: IO[str]) -> LocalModel:
    """Inverse of `save_model`; global tables are derived on first read.
    Integer fields must be JSON integers and codes JSON strings, each the
    one text that `save_model` writes for its bucket or signature."""
    try:
        doc = json.load(source)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError("not a model file")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {version!r}")
    try:
        k = _typed(doc["k"], int, "k")
        degrees = _typed(doc.get("seed_degrees", []), list, "seed_degrees")
        meta = dict(k=k, periodicity=doc["periodicity"],
                    gap_seconds=_typed(doc["gap"], int, "gap"),
                    epoch=_typed(doc["epoch"], int, "epoch"),
                    node_count=_typed(doc["nodes"], int, "nodes"),
                    seed_degrees=tuple(_typed(d, int, "seed degree") for d in degrees))
        doc_cells = doc["tables"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"missing or bad field: {exc}") from exc
    if meta["periodicity"] not in PERIODICITIES:
        raise ModelFormatError(f"unknown periodicity {meta['periodicity']!r}")
    # Generation packs prefix strings as mining does, so k has mining's cap.
    if k > MAX_MINING_K:
        raise ModelFormatError(f"k={k} exceeds the limit of {MAX_MINING_K}")

    # The same texts recur in many cells (one per bucket), so each distinct
    # text is decoded once per width, and each signature's prefix taken once.
    buckets = _Once(lambda text: BucketKey.decode(_typed(text, str, "bucket")))
    codes = _Once(lambda width: _Once(
        lambda text: EtnSignature.decode(_typed(text, str, "signature"), width)))
    parents = _Once(prefix_of)
    cells: dict[TableKey, dict[EtnSignature, int]] = {}
    try:
        for cell in doc_cells:
            bucket = buckets[cell["bucket"]]
            depth = _typed(cell["depth"], int, "depth")
            if not (1 <= depth <= k):
                raise ModelFormatError(f"depth {depth} outside 1..{k}")
            prefix = codes[depth][cell["prefix"]]
            sigs = codes[depth + 1]
            ctr: dict[EtnSignature, int] = {}
            for ext in cell["extensions"]:
                sig = sigs[ext["sig"]]
                count = _typed(ext["count"], int, "count")
                if count <= 0:
                    raise ModelFormatError(f"non-positive count {count}")
                # Both are decoded at the cell's widths: their strings decide.
                if parents[sig].strings != prefix.strings:
                    raise ModelFormatError(
                        f"extension {sig.encode()} does not extend {cell['prefix']}")
                ctr[sig] = ctr.get(sig, 0) + count
            if not ctr:
                raise ModelFormatError("bad table cell: empty distribution")
            key = (bucket, depth, prefix)
            if key in cells:
                raise ModelFormatError(f"duplicate cell {cell['bucket']}/{depth}/"
                                       f"{cell['prefix']}")
            cells[key] = ctr
        model = _build_model(cells, **meta)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad table cell: {exc}") from exc
    _check_invariants(model)
    return model
