import io
import json
from collections import Counter

import numpy as np
import pytest

from etngen import (EtnSignature, FitError, ModelFormatError, fit, load_model,
                    mine_counts, sample_extension, save_model)
from etngen.etn import MinedCounts
from etngen.model import (FALLBACK_EMPTY_BUCKET, FALLBACK_EMPTY_GLOBAL,
                          FALLBACK_EMPTY_SIG, FALLBACK_GLOBAL, FALLBACK_NONE,
                          ExtensionDistribution)
from etngen.tempgraph import BucketKey
from synth import random_graph, weekly_graph


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

    def test_weekly_counts_refit_as_daily(self):
        mon8 = BucketKey(hour_of_day=8, day_of_week=0)
        tue8 = BucketKey(hour_of_day=8, day_of_week=1)
        counts = make_counts({
            mon8: {1: Counter({sig("11"): 2})},
            tue8: {1: Counter({sig("11"): 3})},
        }, periodicity="weekly")
        model = fit(counts, periodicity="daily")
        dist = model.tables[(H8, 1, sig("1"))]
        assert dist.total == 5

    def test_daily_counts_cannot_become_weekly(self):
        counts = make_counts({H8: {1: Counter({sig("11"): 1})}})
        with pytest.raises(ValueError):
            fit(counts, periodicity="weekly")

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

    def test_nonpositive_gap_rejected(self):
        doc = self.saved_doc()
        doc["gap"] = 0
        with pytest.raises(ModelFormatError, match="gap must be positive"):
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
