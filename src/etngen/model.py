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
from itertools import accumulate, chain, compress, islice, repeat
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from typing import IO, Iterable, Mapping

import numpy as np

from .etn import EMPTY_TOKEN, MAX_MINING_K, EtnSignature, MinedCounts, PrefixKeys, _Once, prefix_of
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


def _pair_strings(pair: tuple[EtnSignature, int]) -> tuple[int, ...]:
    return pair[0].strings


def _canonical(pairs: Iterable[tuple[EtnSignature, int]]) -> tuple[tuple[EtnSignature, int], ...]:
    """(signature, count) pairs in an `ExtensionDistribution`'s order, by
    the signatures' strings."""
    return tuple(sorted(pairs, key=_pair_strings))


_PAIR_COUNT = itemgetter(1)


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
        dist = cls._of(_canonical(ctr.items()))
        dist.__post_init__()
        return dist

    @classmethod
    def _of(cls, extensions: tuple[tuple[EtnSignature, int], ...]) -> "ExtensionDistribution":
        """The distribution of `extensions`, (signature, count) pairs known
        to be in canonical order (`_canonical`) and to hold at least one
        signature, each once and with a positive count, without
        `__post_init__`'s checks: `fit` and `load_model` build their
        distributions so."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "extensions", extensions)
        object.__setattr__(dist, "total", sum(map(_PAIR_COUNT, extensions)))
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

    `answers[depth]` gives `lookup_extension`'s answer for every (bucket,
    prefix) at a depth in 1..k: the depth's non-empty global prefixes as
    `PrefixKeys`, and two arrays, `position` (the answer's position) and
    `level` (its index in `FALLBACK_LEVELS`), of one row per bucket. Row
    `bucket_row(bucket)` answers a bucket: the model's buckets are numbered
    in order of first appearance among the cells, and the last row answers
    any bucket without a cell. Column c < len(keys.prefixes) answers
    `keys.prefixes[c]`, the next a prefix that no table holds (the column
    `keys.find` gives a miss), and the last, -1, the empty prefix. Every
    bucket cell's prefix is one of the depth's global prefixes, so any
    other prefix falls back as a miss does.
    """

    def __init__(self, tables: dict, global_tables: dict, k: int):
        dists = [*tables.values(), *global_tables.values()]
        # Holding the distributions keeps their ids unique while the index
        # lives, so `position` can key on them without hashing a table.
        self._dists = dists
        self._position = {id(dist): i for i, dist in enumerate(dists)}
        self.total = np.array([dist.total for dist in dists] + [1], dtype=np.int64)
        self.base = np.cumsum(self.total) - self.total
        extensions = list(chain.from_iterable(map(attrgetter("extensions"), dists)))
        self.cum = np.cumsum(np.array([*map(_PAIR_COUNT, extensions), 1], dtype=np.int64))
        # The same signatures recur in many distributions, as one object
        # each where `fit` or `load_model` built them: each object's strings
        # are read once. `at` gives each position its object's slot among
        # them; the stand-in takes the slot after theirs.
        sigs = list(map(itemgetter(0), extensions))
        ids = list(map(id, sigs))
        first = dict(zip(ids, sigs))
        slot = dict(zip(first, range(len(first))))
        needs = [*map(_needs, map(attrgetter("strings"), first.values())), (0, ())]
        at = np.array([*map(slot.__getitem__, ids), len(first)], dtype=np.int64)
        requests = list(map(itemgetter(1), needs))
        self.stubs = np.array(list(map(itemgetter(0), needs)), dtype=np.int64)[at]
        self.requests = list(map(requests.__getitem__, at.tolist()))
        self.asks = np.array(list(map(bool, requests)))[at]
        buckets = dict.fromkeys(bucket for bucket, _, _ in tables)
        self._rows = dict(zip(buckets, range(len(buckets))))
        self.answers = {depth: self._answers(tables, global_tables, depth)
                        for depth in range(1, k + 1)}

    def position(self, dist: ExtensionDistribution | None) -> int:
        """The index of `dist`, one of the model's distributions or None."""
        return len(self._dists) if dist is None else self._position[id(dist)]

    def bucket_row(self, bucket: BucketKey) -> int:
        """The row of `answers` that answers `bucket`."""
        return self._rows.get(bucket, len(self._rows))

    def _answers(self, tables: dict, global_tables: dict, depth: int) -> tuple:
        """`answers[depth]`. A prefix answers from the global tables unless
        its bucket has its cell; only the miss and the empty prefix are
        looked up, once per row."""
        column, at = {}, []
        for i, (d, prefix) in enumerate(global_tables, len(tables)):
            if d == depth and prefix.strings:
                column[prefix] = len(at)
                at.append(i)
        position = np.tile(np.array(at + [0, 0], dtype=np.int64), (len(self._rows) + 1, 1))
        level = np.full(position.shape, FALLBACK_LEVELS.index(FALLBACK_GLOBAL), dtype=np.int64)
        cells = [(self._rows[bucket], column[prefix], i)
                 for i, (bucket, d, prefix) in enumerate(tables) if d == depth and prefix.strings]
        rows, columns, cell_at = np.array(cells, dtype=np.int64).reshape(-1, 3).T
        position[rows, columns] = cell_at
        level[rows, columns] = FALLBACK_LEVELS.index(FALLBACK_NONE)
        for r, bucket in enumerate([*self._rows, None]):
            for c, prefix in ((-2, None), (-1, EtnSignature(depth))):
                dist, lv = _lookup(tables, global_tables, bucket, depth, prefix)
                position[r, c], level[r, c] = self.position(dist), FALLBACK_LEVELS.index(lv)
        return PrefixKeys(list(column), depth), position, level


def _needs(strings: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """An extension's stubs and requests (`PickIndex`) from its strings.
    They are sorted, so the odd strings' request bits come ascending."""
    stubs, requests = 0, []
    for s in strings:
        if s & 1:
            if s == 1:
                stubs += 1
            elif requests and requests[-1][0] == s >> 1:
                requests[-1] = (s >> 1, requests[-1][1] + 1)
            else:
                requests.append((s >> 1, 1))
    return stubs, tuple(requests)


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
        return {key: ExtensionDistribution._of(_canonical(ctr.items()))
                for key, ctr in acc.items()}

    @cached_property
    def pick_index(self) -> PickIndex:
        return PickIndex(self.tables, self.global_tables, self.k)


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
    return LocalModel(tables={key: ExtensionDistribution._of(_canonical(ctr.items()))
                              for key, ctr in cells.items()},
                      k=counts.k, periodicity=counts.periodicity,
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


def _all_typed(values, kind: type, name: str):
    """`values` if each has JSON type `kind` (`_typed`); the first that does
    not is named."""
    if set(map(type, values)) - {kind}:
        for value in values:
            _typed(value, kind, name)
    return values


_BUCKET, _DEPTH, _PREFIX, _EXTENSIONS, _SIG, _COUNT = map(
    itemgetter, ("bucket", "depth", "prefix", "extensions", "sig", "count"))


def _cell_name(cell: dict) -> str:
    return f"{cell['bucket']}/{cell['depth']}/{cell['prefix']}"


def _read_cells(doc_cells: list, k: int) -> dict[TableKey, ExtensionDistribution]:
    """The tables that a model file's `doc_cells` hold, at depths 1..k; a
    cell that `save_model` would not write is refused."""
    # The same texts recur in many cells (one per bucket): each width's
    # distinct texts are decoded in one batch, and which prefix a signature
    # extends is settled once per distinct signature. Each field is then
    # read, and each check made, over all cells or all extensions at once;
    # only a cell's distribution is built by a call of its own.
    buckets = _Once(lambda text: BucketKey.decode(_typed(text, str, "bucket")))
    bucket_keys = list(map(buckets.__getitem__, map(_BUCKET, doc_cells)))
    depths = _all_typed(list(map(_DEPTH, doc_cells)), int, "depth")
    for depth in depths:
        if not 1 <= depth <= k:
            raise ModelFormatError(f"depth {depth} outside 1..{k}")
    prefix_texts = list(map(_PREFIX, doc_cells))
    extension_lists = _all_typed(list(map(_EXTENSIONS, doc_cells)), list, "extensions")
    if not all(extension_lists):
        raise ModelFormatError("bad table cell: empty distribution")
    # The extensions, cell after cell, each with its cell's depth and prefix.
    lengths = list(map(len, extension_lists))
    extensions = list(chain.from_iterable(extension_lists))
    ext_depths = list(chain.from_iterable(map(repeat, depths, lengths)))
    owners = list(chain.from_iterable(map(repeat, prefix_texts, lengths)))
    codes = list(map(_SIG, extensions))
    counts = _all_typed(list(map(_COUNT, extensions)), int, "count")
    if min(counts, default=1) <= 0:
        raise ModelFormatError(f"non-positive count {next(c for c in counts if c <= 0)}")
    texts: dict[int, list] = {}  # by width: the prefixes and extensions
    for depth in set(depths):
        at = list(map(depth.__eq__, depths))
        texts.setdefault(depth, []).extend(compress(prefix_texts, at))
        texts.setdefault(depth + 1, []).extend(
            map(_SIG, chain.from_iterable(compress(extension_lists, at))))
    decoded = {width: EtnSignature.decode_all(_all_typed(seen, str, "signature"), width)
               for width, seen in texts.items()}
    # The text of each signature's prefix (`prefix_of`), None when the
    # file holds no text for it. Only the empty signature's text is valid
    # at several widths, and it extends the empty prefix at each.
    parent = {EMPTY_TOKEN: EMPTY_TOKEN}
    for width, sigs in decoded.items():
        below = {sig.strings: text for text, sig in decoded.get(width - 1, {}).items()}
        parent.update({text: below.get(tuple([s >> 1 for s in sig.strings if s >> 1]))
                       for text, sig in sigs.items() if sig.strings})
    if list(map(parent.__getitem__, codes)) != owners:
        text, prefix = next((t, p) for t, p in zip(codes, owners) if parent[t] != p)
        raise ModelFormatError(f"extension {text} does not extend {prefix}")
    prefixes = map(dict.__getitem__, map(decoded.__getitem__, depths), prefix_texts)
    keys = list(zip(bucket_keys, depths, prefixes))
    # Each cell's (signature, count) pairs, in the file's order.
    width_of = {depth: decoded[depth + 1] for depth in set(depths)}
    sigs = map(dict.__getitem__, map(width_of.__getitem__, ext_depths), codes)
    pairs = zip(sigs, counts)
    dists = [ExtensionDistribution._of(tuple(islice(pairs, n))) for n in lengths]
    # `save_model` lists a cell's signatures in their order: within one
    # width, the order of their texts, except that the empty signature,
    # which extends only the empty prefix, comes first. A cell listed in
    # another order is sorted, unless it lists a signature twice.
    rising = np.fromiter(map(str.__lt__, codes, islice(codes, 1, None)),
                         dtype=bool, count=len(codes) - 1)
    cell_of = np.arange(len(lengths)).repeat(lengths)
    unsorted = set(cell_of[1:][~rising & (cell_of[1:] == cell_of[:-1])].tolist())
    unsorted.update(compress(range(len(lengths)), map(EMPTY_TOKEN.__eq__, prefix_texts)))
    for i in unsorted:
        twice = [text for text, n in Counter(map(_SIG, extension_lists[i])).items() if n > 1]
        if twice:
            raise ModelFormatError(
                f"cell {_cell_name(doc_cells[i])} lists extension {twice[0]} twice")
        dists[i] = ExtensionDistribution._of(_canonical(dists[i].extensions))
    cells = dict(zip(keys, dists))
    if len(cells) < len(keys):
        seen = set()
        for cell, key in zip(doc_cells, keys):
            if key in seen:
                raise ModelFormatError(f"duplicate cell {_cell_name(cell)}")
            seen.add(key)
    return cells


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

    try:
        model = LocalModel(tables=_read_cells(doc_cells, k), **meta)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad table cell: {exc}") from exc
    _check_invariants(model)
    return model
