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
from itertools import accumulate
from typing import IO

import numpy as np

from .etn import EtnPrefix, EtnSignature, MinedCounts, prefix_of
from .tempgraph import DAILY, PERIODICITIES, WEEKLY, BucketKey

FORMAT_NAME = "etngen-model"
FORMAT_VERSION = 1

# Fallback levels, in query order.
FALLBACK_NONE = "bucket"
FALLBACK_GLOBAL = "global"
FALLBACK_EMPTY_BUCKET = "empty_bucket"
FALLBACK_EMPTY_GLOBAL = "empty_global"
FALLBACK_EMPTY_SIG = "empty_signature"


class ModelFormatError(ValueError):
    """Unreadable, wrong-version or inconsistent model file."""


class FitError(ValueError):
    """Counts insufficient to fit a model."""


@dataclass(frozen=True)
class ExtensionDistribution:
    """Empirical distribution over signatures sharing one prefix.

    `extensions` pairs each signature with its raw count; `total` is the
    count sum. Sampling is count-proportional using a single integer draw,
    located by bisection over the running count sums.
    """

    extensions: tuple[tuple[EtnSignature, int], ...]
    total: int
    _cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.extensions:
            raise ValueError("empty distribution")
        if any(c <= 0 for _, c in self.extensions):
            raise ValueError("non-positive count")
        cumulative = tuple(accumulate(c for _, c in self.extensions))
        if self.total != cumulative[-1]:
            raise ValueError("total does not match counts")
        object.__setattr__(self, "_cumulative", cumulative)

    @classmethod
    def from_counter(cls, ctr: Counter) -> "ExtensionDistribution":
        items = sorted(ctr.items(), key=lambda kv: kv[0].strings)
        return cls(tuple(items), sum(ctr.values()))

    def probabilities(self) -> dict[EtnSignature, float]:
        return {sig: c / self.total for sig, c in self.extensions}

    def pick(self, r: int) -> EtnSignature:
        """The signature that the integer draw r in [0, total) selects."""
        return self.extensions[bisect_right(self._cumulative, r)][0]

    def sample(self, rng: np.random.Generator) -> EtnSignature:
        return self.pick(int(rng.integers(self.total)))


TableKey = tuple[BucketKey, int, EtnPrefix]
GlobalKey = tuple[int, EtnPrefix]


@dataclass
class LocalModel:
    """Fitted extension tables plus everything needed to generate.

    `tables` maps (bucket, depth, prefix) to an ExtensionDistribution;
    `global_tables` marginalizes out the bucket and backs fallback at
    generation time. `fallback_counts` tallies which lookup level served
    each query; it is diagnostic state, not part of model identity.
    """

    k: int
    periodicity: str
    gap_seconds: int
    epoch: int
    node_count: int
    seed_degrees: tuple[int, ...]
    tables: dict[TableKey, ExtensionDistribution]
    global_tables: dict[GlobalKey, ExtensionDistribution]
    fallback_counts: Counter = field(default_factory=Counter, compare=False)


def _group_by_prefix(ctr: Counter) -> dict[EtnPrefix, Counter]:
    grouped: dict[EtnPrefix, Counter] = {}
    for sig, c in ctr.items():
        grouped.setdefault(prefix_of(sig), Counter())[sig] += c
    return grouped


def _marginalize_daily(table: dict) -> dict:
    merged: dict[BucketKey, dict[int, Counter]] = {}
    for bucket, per_depth in table.items():
        day_bucket = BucketKey(hour_of_day=bucket.hour_of_day)
        mine = merged.setdefault(day_bucket, {})
        for depth, ctr in per_depth.items():
            mine.setdefault(depth, Counter()).update(ctr)
    return merged


def fit(counts: MinedCounts, periodicity: str | None = None) -> LocalModel:
    """Turn mined counts into per-cell extension distributions.

    `periodicity` defaults to the one the counts were mined at; weekly
    counts may be refit as daily by summing over the day of week, the
    reverse is impossible.
    """
    target = periodicity or counts.periodicity
    if target not in PERIODICITIES:
        raise ValueError(f"unknown periodicity {target!r}")
    table = counts.table
    if target != counts.periodicity:
        if counts.periodicity == WEEKLY and target == DAILY:
            table = _marginalize_daily(table)
        else:
            raise ValueError(f"cannot refit {counts.periodicity} counts as {target}")

    tables: dict[TableKey, ExtensionDistribution] = {}
    global_acc: dict[GlobalKey, Counter] = {}
    depth_totals = {d: 0 for d in range(1, counts.k + 1)}
    for bucket, per_depth in table.items():
        for depth, ctr in per_depth.items():
            depth_totals[depth] = depth_totals.get(depth, 0) + sum(ctr.values())
            for prefix, sub in _group_by_prefix(ctr).items():
                tables[(bucket, depth, prefix)] = ExtensionDistribution.from_counter(sub)
                global_acc.setdefault((depth, prefix), Counter()).update(sub)
    for depth in range(1, counts.k + 1):
        if depth_totals.get(depth, 0) == 0:
            raise FitError(f"no observations at depth {depth}")
    global_tables = {key: ExtensionDistribution.from_counter(ctr)
                     for key, ctr in global_acc.items()}
    return LocalModel(
        k=counts.k,
        periodicity=target,
        gap_seconds=counts.gap_seconds,
        epoch=counts.epoch,
        node_count=counts.node_count,
        seed_degrees=tuple(counts.first_layer_degrees),
        tables=tables,
        global_tables=global_tables,
    )


def lookup_extension(model: LocalModel, bucket: BucketKey, depth: int,
                     prefix: EtnPrefix) -> tuple[ExtensionDistribution | None, str]:
    """The distribution that answers a query for `prefix`, and its level.

    Lookup falls back in order: exact cell, bucket-marginal, the empty
    prefix in the same bucket, the empty prefix globally, and finally no
    distribution (the empty signature). Nothing is tallied.
    """
    dist = model.tables.get((bucket, depth, prefix))
    if dist is not None:
        return dist, FALLBACK_NONE
    dist = model.global_tables.get((depth, prefix))
    if dist is not None:
        return dist, FALLBACK_GLOBAL
    empty = EtnSignature(depth)
    dist = model.tables.get((bucket, depth, empty))
    if dist is not None:
        return dist, FALLBACK_EMPTY_BUCKET
    dist = model.global_tables.get((depth, empty))
    if dist is not None:
        return dist, FALLBACK_EMPTY_GLOBAL
    return None, FALLBACK_EMPTY_SIG


def sample_extension(model: LocalModel, bucket: BucketKey, depth: int,
                     prefix: EtnPrefix, rng: np.random.Generator) -> EtnSignature:
    """Draw a width-(depth+1) signature extending `prefix`.

    The distribution comes from `lookup_extension`; the level used is
    tallied in `model.fallback_counts`.
    """
    dist, level = lookup_extension(model, bucket, depth, prefix)
    model.fallback_counts[level] += 1
    if dist is None:
        return EtnSignature(depth + 1)
    return dist.sample(rng)


def save_model(model: LocalModel, sink: IO[str]) -> None:
    """Serialize to JSON. Counts are integers, ordering canonical, output
    byte-stable for a given model."""
    cells = []
    for (bucket, depth, prefix), dist in sorted(
            model.tables.items(),
            key=lambda kv: (kv[0][0].encode(), kv[0][1], kv[0][2].strings)):
        cells.append({
            "bucket": bucket.encode(),
            "depth": depth,
            "prefix": prefix.encode(),
            "extensions": [{"sig": sig.encode(), "count": c}
                           for sig, c in dist.extensions],
        })
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "k": model.k,
        "periodicity": model.periodicity,
        "gap": model.gap_seconds,
        "epoch": model.epoch,
        "nodes": model.node_count,
        "seed_degrees": list(model.seed_degrees),
        "tables": cells,
    }
    json.dump(doc, sink, ensure_ascii=False, indent=1)
    sink.write("\n")


def _check_invariants(k: int, periodicity: str, gap: int, nodes: int,
                      seed_degrees: tuple[int, ...],
                      tables: dict[TableKey, ExtensionDistribution]) -> None:
    """Refuse models that `fit` cannot produce and generation would absorb
    silently or fail on late: foreign bucket keys, a seed-degree list that
    does not match the node count, a depth with no cell, a gap that is not
    positive."""
    if gap <= 0:
        raise ModelFormatError(f"gap must be positive, got {gap}")
    for bucket, depth, prefix in tables:
        if bucket.periodicity != periodicity:
            raise ModelFormatError(f"cell {bucket.encode()}/{depth}/{prefix.encode()} "
                                   f"has a {bucket.periodicity} bucket in a "
                                   f"{periodicity} model")
    if len(seed_degrees) not in (0, nodes):
        raise ModelFormatError(f"{len(seed_degrees)} seed degrees for {nodes} nodes")
    missing = sorted(set(range(1, k + 1)) - {depth for _, depth, _ in tables})
    if missing:
        raise ModelFormatError(f"no cell at depth {', '.join(map(str, missing))}")


def load_model(source: IO[str]) -> LocalModel:
    """Inverse of `save_model`; global tables are rebuilt by summation."""
    try:
        doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError("not a model file")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        k = int(doc["k"])
        periodicity = doc["periodicity"]
        gap = int(doc["gap"])
        epoch = int(doc["epoch"])
        nodes = int(doc["nodes"])
        seed_degrees = tuple(int(d) for d in doc.get("seed_degrees", []))
        cells = doc["tables"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"missing or bad field: {exc}") from exc
    if periodicity not in PERIODICITIES:
        raise ModelFormatError(f"unknown periodicity {periodicity!r}")

    tables: dict[TableKey, ExtensionDistribution] = {}
    global_acc: dict[GlobalKey, Counter] = {}
    try:
        for cell in cells:
            bucket = BucketKey.decode(cell["bucket"])
            depth = int(cell["depth"])
            if not (1 <= depth <= k):
                raise ModelFormatError(f"depth {depth} outside 1..{k}")
            prefix = EtnSignature.decode(cell["prefix"], depth)
            ctr: Counter = Counter()
            for ext in cell["extensions"]:
                sig = EtnSignature.decode(ext["sig"], depth + 1)
                count = int(ext["count"])
                if count <= 0:
                    raise ModelFormatError(f"non-positive count {count}")
                if not (sig.is_empty and prefix.is_empty) and prefix_of(sig) != prefix:
                    raise ModelFormatError(
                        f"extension {sig.encode()} does not extend {cell['prefix']}")
                ctr[sig] += count
            key = (bucket, depth, prefix)
            if key in tables:
                raise ModelFormatError(f"duplicate cell {cell['bucket']}/{depth}/"
                                       f"{cell['prefix']}")
            tables[key] = ExtensionDistribution.from_counter(ctr)
            global_acc.setdefault((depth, prefix), Counter()).update(ctr)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad table cell: {exc}") from exc

    _check_invariants(k, periodicity, gap, nodes, seed_degrees, tables)
    global_tables = {key: ExtensionDistribution.from_counter(ctr)
                     for key, ctr in global_acc.items()}
    return LocalModel(k=k, periodicity=periodicity, gap_seconds=gap, epoch=epoch,
                      node_count=nodes, seed_degrees=seed_degrees,
                      tables=tables, global_tables=global_tables)
