import hashlib
import io
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etngen import (EtnSignature, FitError, ModelFormatError, fit, load_model,
                    mine_counts, sample_extension, save_model)
from etngen.etn import MAX_MINING_K, MinedCounts
from etngen.model import (FALLBACK_EMPTY_BUCKET, FALLBACK_EMPTY_GLOBAL,
                          FALLBACK_EMPTY_SIG, FALLBACK_GLOBAL, FALLBACK_LEVELS,
                          FALLBACK_NONE, ExtensionDistribution, lookup_extension)
from etngen.tempgraph import BucketKey
from oracles import json_model_text
from synth import random_graph, weekly_graph
from test_gen import without_empty_prefix


def sig(*strings):
    return EtnSignature.from_bit_strings(strings)


def make_counts(table, k=1, periodicity="daily", nodes=4):
    return MinedCounts(k=k, periodicity=periodicity, gap_seconds=300, epoch=0,
                       node_count=nodes, first_layer_degrees=(1,) * nodes,
                       table=table)


H8 = BucketKey(hour_of_day=8)
H9 = BucketKey(hour_of_day=9)


class TestFit:
    def test_mle_normalization(self):
        counts = make_counts({H8: {1: Counter({sig("11"): 7, sig("10"): 3})}})
        model = fit(counts)
        dist = model.tables[(H8, 1, sig("1"))]
        assert dist.probabilities() == {sig("11"): 0.7, sig("10"): 0.3}

    def test_single_extension_probability_one(self):
        counts = make_counts({H8: {1: Counter({sig("01"): 4})}})
        model = fit(counts)
        dist = model.tables[(H8, 1, EtnSignature(1))]
        assert dist.probabilities() == {sig("01"): 1.0}

    def test_depth_with_no_counts_rejected(self):
        counts = make_counts({H8: {1: Counter({sig("11"): 1})}}, k=2)
        with pytest.raises(FitError, match="depth 2"):
            fit(counts)

    def test_prefix_consistency(self):
        g = random_graph(n=8, m=6, seed=4)
        model = fit(mine_counts(g, 2, "daily"))
        from etngen import prefix_of
        for (bucket, depth, prefix), dist in model.tables.items():
            for s, _ in dist.extensions:
                assert prefix_of(s) == prefix
                assert s.width == depth + 1

    def test_probabilities_sum_to_one(self):
        g = random_graph(n=10, m=8, seed=2)
        model = fit(mine_counts(g, 2, "daily"))
        for dist in list(model.tables.values()) + list(model.global_tables.values()):
            assert abs(sum(dist.probabilities().values()) - 1.0) <= 1e-9

    def test_global_tables_marginalize_buckets(self):
        counts = make_counts({
            H8: {1: Counter({sig("11"): 2})},
            H9: {1: Counter({sig("11"): 1, sig("10"): 1})},
        })
        model = fit(counts)
        dist = model.global_tables[(1, sig("1"))]
        assert dict(dist.extensions) == {sig("10"): 1, sig("11"): 3}

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), days=st.integers(1, 9), p=st.floats(0.05, 0.6),
           k=st.integers(1, 2), gap=st.sampled_from([1800, 3600, 7200]),
           epoch=st.integers(0, 2_000_000), seed=st.integers(0, 2**16))
    def test_daily_counts_sum_weekly_over_day_of_week(self, n, days, p, k, gap,
                                                      epoch, seed):
        g = random_graph(n=n, m=k + days * 86400 // gap, p=p, gap=gap,
                         epoch=epoch, seed=seed)
        daily, weekly = (mine_counts(g, k, per) for per in ("daily", "weekly"))
        summed: dict = {}
        for bucket, per_depth in weekly.table.items():
            for depth, ctr in per_depth.items():
                summed.setdefault((bucket.hour_of_day, depth), Counter()).update(ctr)
        assert {key: ctr for key, ctr in summed.items() if +ctr} == {
            (bucket.hour_of_day, depth): ctr
            for bucket, per_depth in daily.table.items()
            for depth, ctr in per_depth.items() if +ctr}
        assert all(bucket.day_of_week is None for bucket in daily.table)
        assert fit(daily).periodicity == "daily"

    def test_metadata_carried_over(self):
        g = random_graph(n=5, m=4, seed=8, gap=600, epoch=777)
        model = fit(mine_counts(g, 1, "daily"))
        assert model.k == 1
        assert model.gap_seconds == 600
        assert model.epoch == 777
        assert model.node_count == 5
        assert model.seed_degrees == tuple(g.first_layer_degrees())


class TestSampling:
    def test_deterministic_single_extension(self):
        counts = make_counts({H8: {1: Counter({sig("11"): 5})}})
        model = fit(counts)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_extension(model, H8, 1, sig("1"), rng) == sig("11")
        assert model.fallback_counts[FALLBACK_NONE] == 10

    def test_monte_carlo_frequencies(self):
        counts = make_counts({H8: {1: Counter({sig("11"): 7, sig("10"): 3})}})
        model = fit(counts)
        rng = np.random.default_rng(42)
        hits = sum(sample_extension(model, H8, 1, sig("1"), rng) == sig("11")
                   for _ in range(100_000))
        assert abs(hits / 100_000 - 0.7) <= 0.01

    def test_fallback_to_global(self):
        counts = make_counts({H8: {1: Counter({sig("11"): 1})}})
        model = fit(counts)
        rng = np.random.default_rng(1)
        assert sample_extension(model, H9, 1, sig("1"), rng) == sig("11")
        assert model.fallback_counts[FALLBACK_GLOBAL] == 1

    def test_fallback_to_empty_prefix(self):
        counts = make_counts({H8: {1: Counter({EtnSignature(2): 3, sig("01"): 1})}})
        model = fit(counts)
        rng = np.random.default_rng(2)
        out = sample_extension(model, H8, 1, sig("1"), rng)
        assert out in (EtnSignature(2), sig("01"))
        assert model.fallback_counts[FALLBACK_EMPTY_BUCKET] == 1

    def test_fallback_to_global_empty_prefix(self):
        counts = make_counts({H8: {1: Counter({EtnSignature(2): 2})}})
        model = fit(counts)
        rng = np.random.default_rng(3)
        out = sample_extension(model, H9, 1, sig("1"), rng)
        assert out == EtnSignature(2)
        assert model.fallback_counts[FALLBACK_EMPTY_GLOBAL] == 1

    def test_terminal_fallback_empty_signature(self):
        counts = make_counts({H8: {1: Counter({sig("11"): 1})}})
        model = fit(counts)
        rng = np.random.default_rng(4)
        out = sample_extension(model, H9, 1, sig("1", "1"), rng)
        assert out == EtnSignature(2)
        assert model.fallback_counts[FALLBACK_EMPTY_SIG] == 1

    def test_same_seed_same_draws(self):
        g = random_graph(n=8, m=6, seed=6)
        model = fit(mine_counts(g, 2, "daily"))
        key = next(iter(model.tables))
        draws_a = [sample_extension(model, key[0], key[1], key[2],
                                    np.random.default_rng(s)) for s in range(20)]
        draws_b = [sample_extension(model, key[0], key[1], key[2],
                                    np.random.default_rng(s)) for s in range(20)]
        assert draws_a == draws_b


class TestExtensionDistribution:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExtensionDistribution((), 0)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            ExtensionDistribution(((sig("11"), 2),), 3)

    @staticmethod
    def linear_pick(dist, r):
        for sig_, c in dist.extensions:
            r -= c
            if r < 0:
                return sig_
        raise AssertionError("draw outside [0, total)")

    def test_bisect_matches_linear_scan_for_every_draw(self):
        rng = np.random.default_rng(12)
        strings = [s_ for s_ in range(1, 8)]
        for _ in range(200):
            n_ext = int(rng.integers(1, 6))
            picked = sorted(rng.choice(strings, size=n_ext, replace=False).tolist())
            ctr = Counter({EtnSignature(3, (s_,)): int(rng.integers(1, 10))
                           for s_ in picked})
            dist = ExtensionDistribution.from_counter(ctr)
            for r in range(dist.total):
                assert dist.pick(r) == self.linear_pick(dist, r)

    def test_sample_is_pick_of_one_integer_draw(self):
        ctr = Counter({sig("01"): 3, sig("10"): 1, sig("11"): 6})
        dist = ExtensionDistribution.from_counter(ctr)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(100):
            assert dist.sample(a) == self.linear_pick(dist, int(b.integers(dist.total)))

    def test_identity_is_extensions_and_total(self):
        ctr = Counter({sig("01"): 3, sig("11"): 6})
        dist = ExtensionDistribution.from_counter(ctr)
        twin = ExtensionDistribution(dist.extensions, dist.total)
        assert dist == twin and dist is not twin
        assert hash(dist) == hash(twin) == hash((dist.extensions, dist.total))
        assert repr(dist) == (f"ExtensionDistribution(extensions={dist.extensions!r}, "
                              f"total={dist.total!r})")

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            ExtensionDistribution(((sig("11"), 0),), 0)


class TestSaveLoad:
    def test_round_trip_exact(self):
        g = random_graph(n=10, m=8, seed=13, gap=300, epoch=5555)
        model = fit(mine_counts(g, 2, "daily"))
        sink = io.StringIO()
        save_model(model, sink)
        back = load_model(io.StringIO(sink.getvalue()))
        assert back == model

    def test_round_trip_weekly(self):
        g = weekly_graph(n=8, weeks=1, gap=3600, seed=3)
        model = fit(mine_counts(g, 2, "weekly"))
        sink = io.StringIO()
        save_model(model, sink)
        assert load_model(io.StringIO(sink.getvalue())) == model

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 7), extra=st.integers(0, 5),
           p=st.floats(0.05, 0.7), k=st.integers(1, 3),
           periodicity=st.sampled_from(["daily", "weekly"]),
           gap=st.sampled_from([300, 3600, 7200]),
           epoch=st.integers(0, 2_000_000), seed=st.integers(0, 2**16))
    def test_round_trip_property(self, n, extra, p, k, periodicity, gap, epoch,
                                 seed):
        g = random_graph(n=n, m=k + 1 + extra, p=p, gap=gap, epoch=epoch,
                         seed=seed)
        model = fit(mine_counts(g, k, periodicity))
        first = io.StringIO()
        save_model(model, first)
        back = load_model(io.StringIO(first.getvalue()))
        assert back == model
        again = io.StringIO()
        save_model(back, again)
        assert again.getvalue() == first.getvalue()
        assert first.getvalue() == json_model_text(model)

    # sha256 of the files that `json.dumps(..., ensure_ascii=False, indent=1)`
    # wrote for these models when it was the writer. Both hold cells whose
    # prefix is the non-ASCII "∅", written raw.
    @pytest.mark.parametrize("graph, k, periodicity, digest", [
        (lambda: random_graph(n=10, m=8, seed=13, gap=300, epoch=5555), 2, "daily",
         "defbc864f92cf8b4fcbc18ed291b079df010756c30006a698b8cda1aac83c6a2"),
        (lambda: weekly_graph(n=8, weeks=1, gap=3600, seed=3), 3, "weekly",
         "dade6c02e8e3e8e28e3b54822721d9337e516b1cc5f0f92a66b562f153fbbbe7")],
        ids=["daily-k2", "weekly-k3"])
    def test_golden_model_bytes(self, graph, k, periodicity, digest):
        model = fit(mine_counts(graph(), k, periodicity))
        sink = io.StringIO()
        save_model(model, sink)
        text = sink.getvalue()
        assert '"prefix": "∅"' in text
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_serialization_is_stable(self):
        g = random_graph(n=6, m=5, seed=21)
        model = fit(mine_counts(g, 2, "daily"))
        a, b = io.StringIO(), io.StringIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()

    def test_truncated_file_rejected(self):
        g = random_graph(n=5, m=4, seed=1)
        model = fit(mine_counts(g, 1, "daily"))
        sink = io.StringIO()
        save_model(model, sink)
        text = sink.getvalue()[: len(sink.getvalue()) // 2]
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(text))

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ModelFormatError, match="not a model file"):
            load_model(io.StringIO("[" * 100_000))

    def test_version_mismatch_rejected(self):
        doc = ('{"format": "etngen-model", "version": 99, "k": 1, '
               '"periodicity": "daily", "gap": 300, "epoch": 0, "nodes": 2, '
               '"seed_degrees": [], "tables": []}')
        with pytest.raises(ModelFormatError, match="version"):
            load_model(io.StringIO(doc))

    def test_not_a_model_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO('{"hello": 1}'))

    def test_inconsistent_extension_rejected(self):
        doc = ('{"format": "etngen-model", "version": 1, "k": 1, '
               '"periodicity": "daily", "gap": 300, "epoch": 0, "nodes": 2, '
               '"seed_degrees": [1, 1], "tables": ['
               '{"bucket": "h08", "depth": 1, "prefix": "1", '
               '"extensions": [{"sig": "01", "count": 2}]}]}')
        with pytest.raises(ModelFormatError, match="does not extend"):
            load_model(io.StringIO(doc))

    @staticmethod
    def saved_doc(k=2):
        model = fit(mine_counts(random_graph(n=8, m=10, p=0.3, seed=6), k, "daily"))
        sink = io.StringIO()
        save_model(model, sink)
        return json.loads(sink.getvalue())

    @staticmethod
    def load_doc(doc):
        return load_model(io.StringIO(json.dumps(doc)))

    def test_saved_doc_loads(self):
        assert self.load_doc(self.saved_doc()).k == 2

    def test_foreign_bucket_periodicity_rejected(self):
        doc = self.saved_doc()
        doc["tables"][0]["bucket"] = "d2" + doc["tables"][0]["bucket"]
        with pytest.raises(ModelFormatError, match="weekly bucket in a daily model"):
            self.load_doc(doc)

    def test_seed_degree_count_must_match_nodes(self):
        doc = self.saved_doc()
        doc["seed_degrees"] = doc["seed_degrees"][:-1]
        with pytest.raises(ModelFormatError, match="7 seed degrees for 8 nodes"):
            self.load_doc(doc)

    def test_no_seed_degrees_allowed(self):
        doc = self.saved_doc()
        doc["seed_degrees"] = []
        assert self.load_doc(doc).seed_degrees == ()

    def test_depth_without_cells_rejected(self):
        doc = self.saved_doc()
        doc["tables"] = [cell for cell in doc["tables"] if cell["depth"] != 1]
        with pytest.raises(ModelFormatError, match="no cell at depth 1"):
            self.load_doc(doc)

    @pytest.mark.parametrize("k, message", [
        (MAX_MINING_K, "no cell at depth 3"),
        (MAX_MINING_K + 1, f"k={MAX_MINING_K + 1} exceeds the limit of {MAX_MINING_K}"),
        (10 ** 9, f"exceeds the limit of {MAX_MINING_K}")])
    def test_k_above_the_packing_limit_rejected(self, k, message):
        doc = self.saved_doc()  # depths 1 and 2
        doc["k"] = k
        with pytest.raises(ModelFormatError, match=message):
            self.load_doc(doc)

    def test_nonpositive_gap_rejected(self):
        doc = self.saved_doc()
        doc["gap"] = 0
        with pytest.raises(ModelFormatError, match="gap must be positive"):
            self.load_doc(doc)

    @pytest.mark.parametrize("degree", [-1, 8, 60])
    def test_seed_degree_outside_node_range_rejected(self, degree):
        doc = self.saved_doc()  # 8 nodes
        doc["seed_degrees"][3] = degree
        with pytest.raises(ModelFormatError,
                           match=f"seed degree {degree} of node 3 outside 0..7"):
            self.load_doc(doc)

    def test_empty_extension_list_rejected(self):
        doc = self.saved_doc()
        doc["tables"][0]["extensions"] = []
        with pytest.raises(ModelFormatError, match="^bad table cell: empty distribution$"):
            self.load_doc(doc)

    @pytest.mark.parametrize("extensions", [None, 5, {"11": 1}])
    def test_extensions_not_a_list_rejected(self, extensions):
        doc = self.saved_doc()
        doc["tables"][0]["extensions"] = extensions
        with pytest.raises(ModelFormatError, match="^bad table cell: extensions must be a list"):
            self.load_doc(doc)

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_count_rejected(self, count):
        doc = self.saved_doc()
        doc["tables"][0]["extensions"][0]["count"] = count
        with pytest.raises(ModelFormatError, match=f"non-positive count {count}"):
            self.load_doc(doc)

    def test_boolean_count_rejected(self):
        doc = self.saved_doc()
        doc["tables"][0]["extensions"][0]["count"] = True
        with pytest.raises(ModelFormatError, match="count must be an integer"):
            self.load_doc(doc)

    def test_duplicate_cell_rejected(self):
        doc = self.canonical_doc()
        doc["tables"].append(json.loads(json.dumps(doc["tables"][1])))
        assert doc["tables"][1]["bucket"] == "h08"
        with pytest.raises(ModelFormatError, match="^duplicate cell h08/1/1$"):
            self.load_doc(doc)

    def test_duplicate_extension_rejected(self):
        # Merging the two would load a model that no fit makes and that
        # saves back to other bytes.
        doc = self.canonical_doc()
        doc["tables"][1]["extensions"].append({"sig": "11", "count": 3})
        with pytest.raises(ModelFormatError,
                           match="^cell h08/1/1 lists extension 11 twice$"):
            self.load_doc(doc)

    def test_extensions_out_of_order_load_to_the_same_model(self):
        model = fit(mine_counts(random_graph(n=8, m=10, p=0.3, seed=6), 2, "daily"))
        sink = io.StringIO()
        save_model(model, sink)
        doc = json.loads(sink.getvalue())
        assert any(len(cell["extensions"]) > 1 for cell in doc["tables"])
        for cell in doc["tables"]:
            cell["extensions"].reverse()
        back = self.load_doc(doc)
        assert back == model
        again = io.StringIO()
        save_model(back, again)
        assert again.getvalue() == sink.getvalue()

    def test_cells_written_one_at_a_time(self):
        model = fit(mine_counts(random_graph(n=8, m=10, p=0.3, seed=6), 2, "daily"))
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        save_model(model, Sink())
        assert "".join(writes) == json_model_text(model)
        assert max(text.count('"bucket"') for text in writes) == 1
        assert sum(text.count('"bucket"') for text in writes) == len(model.tables) > 1

    @pytest.mark.parametrize("path, value", [
        (("epoch",), True), (("k",), 2.0), (("gap",), "300"), (("version",), True),
        (("seed_degrees",), "11111111"), (("seed_degrees", 0), 1.0),
        (("tables", 0, "depth"), 1.5), (("tables", 0, "bucket"), 5),
        (("tables", 0, "extensions", 0, "count"), 2.7)])
    def test_retyped_field_rejected(self, path, value):
        doc = self.saved_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ModelFormatError):
            self.load_doc(doc)

    @staticmethod
    def canonical_doc():
        """A k=2 model document that holds each canonical text that
        `test_non_canonical_code_rejected` respells, in a cell of its own."""
        cells = [("h09", 1, "∅", "01"), ("h08", 1, "1", "11"), ("h09", 1, "1", "11"),
                 ("h09", 2, "∅", "001"), ("h09", 2, "01", "011"),
                 ("h09", 2, "01|11", "011|111")]
        return {"format": "etngen-model", "version": 1, "k": 2,
                "periodicity": "daily", "gap": 300, "epoch": 0, "nodes": 2,
                "seed_degrees": [], "tables": [
                    {"bucket": bucket, "depth": depth, "prefix": prefix,
                     "extensions": [{"sig": sig, "count": 2}]}
                    for bucket, depth, prefix, sig in cells]}

    # Each spelling decodes, through `int(text, 2)` or the bucket's hour
    # field, to the key of the canonical text; loading it would merge two
    # spellings of one code into one count and save another file.
    @pytest.mark.parametrize("field, canonical, spelling", [
        ("sig", "011", "1_1"), ("sig", "011", " 11"), ("sig", "011", "+11"),
        ("sig", "001", "0b1"), ("sig", "11", "\uff11\uff11"),
        ("prefix", "01|11", "11|01"),
        ("bucket", "h08", "h8"), ("bucket", "h08", "h 8"), ("bucket", "h08", "h+8")],
        ids=["sig-underscore", "sig-space", "sig-plus", "sig-0b", "sig-fullwidth",
             "prefix-unsorted", "bucket-h8", "bucket-space", "bucket-plus"])
    def test_non_canonical_code_rejected(self, field, canonical, spelling):
        doc = self.canonical_doc()
        assert self.load_doc(doc).k == 2
        cell = next(cell for cell in doc["tables"] if canonical in (
            cell["bucket"], cell["prefix"], cell["extensions"][0]["sig"]))
        target = cell["extensions"][0] if field == "sig" else cell
        assert target[field] == canonical
        target[field] = spelling
        with pytest.raises(ModelFormatError, match=re.escape(repr(spelling))):
            self.load_doc(doc)

    def test_loaded_model_renormalizes_identically(self):
        g = random_graph(n=9, m=7, seed=17)
        model = fit(mine_counts(g, 2, "daily"))
        sink = io.StringIO()
        save_model(model, sink)
        back = load_model(io.StringIO(sink.getvalue()))
        for key, dist in model.tables.items():
            assert back.tables[key].probabilities() == dist.probabilities()
        assert back.global_tables == model.global_tables


class TestPickIndex:
    @pytest.fixture()
    def model(self):
        return fit(mine_counts(random_graph(n=9, m=10, p=0.4, seed=23), 2, "daily"))

    def test_search_picks_as_each_distribution(self, model):
        index = model.pick_index
        dists = [*model.tables.values(), *model.global_tables.values()]
        for dist in dists:
            i = index.position(dist)
            draws = np.arange(dist.total)
            picks = np.searchsorted(index.cum, index.base[i] + draws, side="right")
            first = picks[0]
            assert [dist.extensions[p - first][0] for p in picks.tolist()] == [
                dist.pick(r) for r in range(dist.total)]
            for p, (ext, _) in zip(range(first, first + len(dist.extensions)),
                                   dist.extensions):
                need = Counter(s >> 1 for s in ext.strings if s & 1)
                assert index.stubs[p] == need.pop(0, 0)
                assert index.requests[p] == tuple(sorted(need.items()))
                assert index.asks[p] == bool(need)
        none = index.position(None)
        assert none == len(dists) and index.total[none] == 1
        pick = np.searchsorted(index.cum, index.base[none], side="right")
        assert index.stubs[pick] == 0 and not index.asks[pick]

    def test_prefix_table_answers_as_lookup(self, model):
        weekly = fit(mine_counts(weekly_graph(n=8, weeks=1, gap=3600, seed=3), 2, "weekly"))
        # With no empty-prefix cell at a depth, its miss and empty rows fall
        # through every level; otherwise the unseen bucket's stop at the
        # global empty prefix.
        for variant, last in ((model, FALLBACK_EMPTY_GLOBAL), (weekly, FALLBACK_EMPTY_GLOBAL),
                              (without_empty_prefix(model, 1), FALLBACK_EMPTY_SIG),
                              (without_empty_prefix(model, 2), FALLBACK_EMPTY_SIG)):
            assert last in self.prefix_table_levels(variant)

    @staticmethod
    def prefix_table_levels(model) -> set[str]:
        """Check every prefix table of `model` against `lookup_extension`,
        and give the levels its miss and empty rows answer at."""
        index = model.pick_index
        buckets = {b for b, _, _ in model.tables}
        # A bucket that holds no window of the graph: every lookup falls back.
        unseen_bucket = next(b for b in (BucketKey(h, d) for d in (
            (None,) if model.periodicity == "daily" else range(7)) for h in range(24))
            if b not in buckets)
        levels = set()
        for bucket in buckets | {unseen_bucket}:
            for depth in range(1, model.k + 1):
                table = index.prefix_table(bucket, depth)
                assert index.prefix_table(bucket, depth) is table
                prefixes = table.keys.prefixes
                assert sorted(prefixes, key=lambda p: p.strings) == sorted(
                    (p for d, p in model.global_tables if d == depth and p.strings),
                    key=lambda p: p.strings)
                unseen = EtnSignature(depth, (1,) * 70)  # no table holds it
                rows = [*prefixes, unseen, EtnSignature(depth)]
                assert len(table.position) == len(table.level) == len(rows)
                for row, prefix in enumerate(rows):
                    dist, level = lookup_extension(model, bucket, depth, prefix)
                    assert table.position[row] == index.position(dist)
                    assert FALLBACK_LEVELS[table.level[row]] == level
                levels.update(FALLBACK_LEVELS[lv] for lv in table.level[-2:].tolist())
        return levels

    def test_global_tables_derived_on_first_read(self, model):
        sink = io.StringIO()
        save_model(model, sink)
        back = load_model(io.StringIO(sink.getvalue()))
        assert "global_tables" not in vars(model) and "global_tables" not in vars(back)
        summed: dict = {}
        for (_, depth, prefix), dist in model.tables.items():
            summed.setdefault((depth, prefix), Counter()).update(dict(dist.extensions))
        assert model.global_tables == {
            key: ExtensionDistribution.from_counter(ctr) for key, ctr in summed.items()}
        assert model.global_tables is model.global_tables
        assert "global_tables" in vars(model) and model == back

    def test_built_on_use_only(self, model):
        sink = io.StringIO()
        save_model(model, sink)
        back = load_model(io.StringIO(sink.getvalue()))
        assert "pick_index" not in vars(model) and "pick_index" not in vars(back)
        before = repr(model)
        model.pick_index
        assert "pick_index" in vars(model)
        assert model == back and repr(model) == before
        again = io.StringIO()
        save_model(model, again)
        assert again.getvalue() == sink.getvalue()
