import hashlib
import io
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from etngen import (EtnSignature, GenConfig, LayerDiagnostics, ProvisionalLayer,
                    TemporalGraph, expansion_alpha, fit, generate, mine_counts,
                    propose_layer, seed_layer, validate_layer, write_edge_list)
from etngen import gen
from etngen.etn import MinedCounts, PrefixKeys
from etngen.gen import write_diagnostics
from etngen.model import (FALLBACK_LEVELS, LocalModel, load_model, lookup_extension,
                          save_model)
from etngen.tempgraph import MAX_NODES, BucketKey
from oracles import (extract_etn, pair_stubs_law, scalar_pair_stubs,
                     scalar_propose_layer, scalar_validate_requests)
from synth import (MONDAY_EPOCH, er_layers, layer_edges, random_graph, sinusoidal_graph,
                   window_of, window_strings)

H8 = BucketKey(hour_of_day=8)

EMPTY1 = EtnSignature(1)
EMPTY2 = EtnSignature(2)
EMPTY3 = EtnSignature(3)


def sig(*strings):
    return EtnSignature.from_bit_strings(strings)


def tiny_model(depth2_cells, nodes=4):
    """k=2 model whose depth-2 cells are exactly `depth2_cells`
    (prefix -> Counter of extensions); depth 1 falls through to empty."""
    table = {H8: {1: Counter({EMPTY2: 1}), 2: Counter()}}
    for prefix, counter in depth2_cells.items():
        for ext, c in counter.items():
            assert ext.width == 3
        table[H8][2].update(counter)
    counts = MinedCounts(k=2, periodicity="daily", gap_seconds=300, epoch=0,
                         node_count=nodes, first_layer_degrees=(1,) * nodes,
                         table=table)
    return fit(counts)


class TestSeedLayer:
    def test_pair(self):
        assert seed_layer([1, 1], np.random.default_rng(0)) == {(0, 1)}

    def test_all_zero(self):
        assert not seed_layer([0, 0, 0], np.random.default_rng(0))

    def test_triangle_almost_always_realized(self):
        full = sum(len(seed_layer([2, 2, 2], np.random.default_rng(s))) == 3
                   for s in range(300))
        assert full >= 285

    def test_odd_sum_drops_one_unit(self):
        seen = set()
        for s in range(300):
            edges = seed_layer([1, 1, 1], np.random.default_rng(s))
            assert len(edges) == 1
            seen |= edges
        assert seen == {(0, 1), (0, 2), (1, 2)}

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            seed_layer([1, -1], np.random.default_rng(0))

    def test_realized_degrees_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            degrees = [int(d) for d in rng.integers(0, 5, size=12)]
            edges = seed_layer(degrees, np.random.default_rng(int(rng.integers(1 << 30))))
            realized = Counter(u for e in edges for u in e)
            for node, want in enumerate(degrees):
                assert realized[node] <= want
            for i, j in edges:
                assert i != j

    def test_deterministic(self):
        a = seed_layer([3, 2, 2, 1, 0, 2], np.random.default_rng(9))
        b = seed_layer([3, 2, 2, 1, 0, 2], np.random.default_rng(9))
        assert a == b

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_pairs_stubs_as_validation_does(self, degrees, seed, alpha):
        stubs = [i for i, d in enumerate(degrees) for _ in range(d)]
        edges = seed_layer(degrees, np.random.default_rng(seed))
        want = validate_layer(ProvisionalLayer(stubs=stubs), alpha,
                              np.random.default_rng(seed))
        assert edges == want

    def test_odd_sum_drops_a_uniform_stub(self):
        # Stubs 0, 0, 1: dropping either stub of node 0 (2 in 3) leaves an edge.
        hits = sum(len(seed_layer([2, 1], np.random.default_rng(s)))
                   for s in range(600))
        assert hits / 600 == pytest.approx(2 / 3, abs=0.06)

    def test_hub_sequence_realized(self):
        degrees = [20] + [1] * 20 + [3] * 10  # 35 edges wanted
        edges = [len(seed_layer(degrees, np.random.default_rng(s)))
                 for s in range(300)]
        assert np.mean(edges) >= 32


class TestProposeLayer:
    def test_persistent_neighbor_requested(self):
        model = tiny_model({sig("11"): Counter({sig("111"): 1})}, nodes=2)
        window = window_of([{(0, 1)}, {(0, 1)}], 2)
        prov = propose_layer(*window, model, H8, np.random.default_rng(0))
        assert prov.requests == {(0, 1), (1, 0)}
        assert prov.stubs == []

    def test_fresh_contact_becomes_stub(self):
        model = tiny_model({EMPTY2: Counter({sig("001"): 1})}, nodes=2)
        window = window_of([set(), set()], 2)
        prov = propose_layer(*window, model, H8, np.random.default_rng(0))
        assert prov.requests == set()
        assert sorted(prov.stubs) == [0, 1]

    def test_inactive_tail_bit_proposes_nothing(self):
        model = tiny_model({sig("11"): Counter({sig("110"): 1})}, nodes=2)
        window = window_of([{(0, 1)}, {(0, 1)}], 2)
        prov = propose_layer(*window, model, H8, np.random.default_rng(0))
        assert prov.requests == set()
        assert prov.stubs == []

    def test_tied_candidates_chosen_uniformly(self):
        model = tiny_model({
            sig("01", "01", "01"): Counter({sig("010", "010", "011"): 1}),
            sig("01"): Counter({sig("010"): 1}),
        }, nodes=4)
        window = window_of([set(), {(0, 1), (0, 2), (0, 3)}], 4)
        targets = Counter()
        for trial in range(600):
            prov = propose_layer(*window, model, H8, np.random.default_rng(trial))
            assert len(prov.requests) == 1
            (ego, u), = prov.requests
            assert ego == 0
            targets[u] += 1
        assert set(targets) == {1, 2, 3}
        for u in (1, 2, 3):
            assert abs(targets[u] / 600 - 1 / 3) < 0.1

    def test_requests_target_window_acquaintances(self):
        rng = np.random.default_rng(31)
        g = random_graph(n=12, m=10, p=0.25, seed=14)
        model = fit(mine_counts(g, 2, "daily"))
        for trial in range(20):
            layers = er_layers(12, 2, 0.2, rng)
            active = {ego: {u for layer in layers for e in layer if ego in e
                            for u in e if u != ego}
                      for ego in range(12)}
            prov = propose_layer(*window_of(layers, 12), model, H8,
                                 np.random.default_rng(trial))
            for ego, u in prov.requests:
                assert u in active[ego]
                assert ego != u


def without_empty_prefix(model, depth):
    """`model` with no cell for the empty prefix at `depth`, in the bucket
    tables or the global ones derived from them: there, egos with an unseen
    prefix and idle egos have no distribution."""
    fields = {name: getattr(model, name) for name in (
        "k", "periodicity", "gap_seconds", "epoch", "node_count", "seed_degrees")}
    filtered = LocalModel(
        tables={key: dist for key, dist in model.tables.items()
                if not (key[1] == depth and key[2].is_empty)},
        **fields)
    assert (depth, EtnSignature(depth)) not in filtered.global_tables
    return filtered


class TestProposeMatchesScalar:
    """`propose_layer` against the ego-by-ego oracle on fitted models and
    random windows: the same requests, the same stubs in the same order,
    the same fallback tallies, the same lookups and the same stream."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(3, 9), st.floats(0.05, 0.8), st.data())
    def test_fitted_models(self, k, n, p, data):
        g = random_graph(n=n, m=data.draw(st.integers(k + 1, 10)), p=p,
                         seed=data.draw(st.integers(0, 2 ** 16)))
        model = fit(mine_counts(g, k, "daily"))
        if data.draw(st.booleans()):
            model = without_empty_prefix(model, data.draw(st.integers(1, k)))
        # Hour 0 holds every window of the graph; hour 13 none, so its
        # lookups fall back to the global tables.
        bucket = BucketKey(hour_of_day=data.draw(st.sampled_from([0, 13])))
        nodes = data.draw(st.integers(2, 2 * n))
        # p = 1 makes every ego active; the layer count sets the depth.
        layer_p = data.draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        layers = er_layers(nodes, data.draw(st.integers(1, 4)), layer_p, rng)
        seed = data.draw(st.integers(0, 2 ** 63 - 1))
        assert_matches_scalar(layers, nodes, data.draw(st.integers(1, k)), model,
                              bucket, seed)

    def test_every_ego_active_and_ties(self):
        g = random_graph(n=8, m=12, p=0.6, seed=3)
        model = fit(mine_counts(g, 2, "daily"))
        layers = er_layers(8, 2, 1.0, np.random.default_rng(0))
        keys = window_of(layers, 8)[0]
        assert np.unique(keys // 8).tolist() == list(range(8))
        for seed in range(20):
            assert_matches_scalar(layers, 8, 2, model, BucketKey(hour_of_day=0), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_prefixes_longer_than_one_chunk(self, seed):
        # Complete layers on 26 nodes: every width-3 window holds 25
        # strings, more than the 20 that one packed chunk takes, in the
        # model's cells and in the window.
        g = random_graph(n=26, m=8, p=0.9, seed=seed)
        model = fit(mine_counts(g, 3, "daily"))
        assert max(len(prefix.strings) for _, prefix in model.global_tables) > 20
        hour0 = BucketKey(hour_of_day=0)
        # The graph's own first windows are cells of the model.
        layers = layer_edges(g)[:3]
        window = window_of(layers, 26)
        assert min(len(window_strings(window, ego, 3)) for ego in range(26)) > 20
        assert assert_matches_scalar(layers, 26, 3, model, hour0, seed)["bucket"] == 26
        assert_matches_scalar(layers + [[(0, 1)]], 26, 3, model, hour0, seed)
        layers = er_layers(26, 3, 1.0, np.random.default_rng(seed))
        window = window_of(layers, 26)
        assert all(len(window_strings(window, ego, 3)) == 25 for ego in range(26))
        assert_matches_scalar(layers, 26, 3, model, hour0, seed)

    def test_no_distribution_draws_from_one(self):
        model = without_empty_prefix(
            tiny_model({sig("11"): Counter({sig("111"): 1})}), 2)
        tally = assert_matches_scalar([{(0, 1)}, set()], 4, 2, model, H8, 7)
        assert tally == Counter({"empty_signature": 4})


@contextmanager
def rows_recorded():
    """Record the rows that every `PrefixKeys.rows` call gives, with the
    prefix keys it searched."""
    seen: list[tuple] = []
    real = PrefixKeys.rows

    def prefix_rows(known, ego, bits, n):
        rows = real(known, ego, bits, n)
        seen.append((known, rows))
        return rows

    with mock.patch.object(PrefixKeys, "rows", prefix_rows):
        yield seen


def assert_rows_answer_as_lookup(model, bucket, depth, prefixes, known, rows):
    """Each ego's row of the model's (bucket, depth) prefix table answers
    as `lookup_extension` on the ego's prefix (`prefixes`, in ego order):
    the same distribution and fallback level. Returns each ego's
    distribution."""
    index = model.pick_index
    table = index.prefix_table(bucket, depth)
    assert known is table.keys
    assert len(rows) == len(prefixes)
    dists = []
    for prefix, row in zip(prefixes, rows.tolist()):
        dist, level = lookup_extension(model, bucket, depth, prefix)
        assert table.position[row] == index.position(dist), prefix
        assert FALLBACK_LEVELS[table.level[row]] == level, prefix
        dists.append(dist)
    return dists


def window_prefixes(window):
    """Every ego's prefix, read from the window's arrays."""
    depth, n = window[2:]
    return [EtnSignature(depth, window_strings(window, ego, depth)) for ego in range(n)]


def assert_matches_scalar(layers, n, depth, model, bucket, seed):
    """Propose from the window of the last `depth` of `layers` on n nodes
    with both implementations; returns the tally."""
    window = window_of(layers, n, depth)
    assert window[2] == min(depth, len(layers))
    model.fallback_counts.clear()
    rng = np.random.default_rng(seed)
    with rows_recorded() as seen:
        prov = propose_layer(*window, model, bucket, rng)
    tally = Counter(model.fallback_counts)
    model.fallback_counts.clear()
    ref_rng = np.random.default_rng(seed)
    ref = scalar_propose_layer(layers, n, window[2], model, bucket, ref_rng)
    assert prov.requests == ref.requests
    assert prov.stubs == ref.stubs
    assert tally == model.fallback_counts
    assert sum(tally.values()) == n
    (known, rows), = seen
    assert_rows_answer_as_lookup(model, bucket, window[2], window_prefixes(window),
                                 known, rows)
    assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)
    return tally


class TestValidateLayer:
    def test_reciprocal_always_kept(self):
        prov = ProvisionalLayer(requests={(0, 1), (1, 0)})
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        edges = validate_layer(prov, 0.0, np.random.default_rng(0), diag)
        assert edges == {(0, 1)}
        assert diag.reciprocal == 1
        assert diag.one_directional == 0

    def test_alpha_zero_rejects_singles(self):
        prov = ProvisionalLayer(requests={(0, 1)})
        edges = validate_layer(prov, 0.0, np.random.default_rng(0))
        assert not edges

    def test_alpha_one_keeps_singles(self):
        prov = ProvisionalLayer(requests={(0, 1), (2, 3)})
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        edges = validate_layer(prov, 1.0, np.random.default_rng(0), diag)
        assert edges == {(0, 1), (2, 3)}
        assert diag.one_directional == 2

    def test_alpha_half_acceptance_rate(self):
        n = 50_000
        prov = ProvisionalLayer(requests={(2 * i, 2 * i + 1) for i in range(n)})
        edges = validate_layer(prov, 0.5, np.random.default_rng(7))
        assert abs(len(edges) / n - 0.5) <= 0.01

    def test_stub_pair_forms_edge(self):
        prov = ProvisionalLayer(stubs=[0, 1])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        edges = validate_layer(prov, 0.5, np.random.default_rng(0), diag)
        assert edges == {(0, 1)}
        assert diag.stub_edges == 1
        assert diag.dropped_stubs == 0

    def test_self_loop_stubs_discarded(self):
        prov = ProvisionalLayer(stubs=[0, 0, 0, 1])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        edges = validate_layer(prov, 0.5, np.random.default_rng(3), diag)
        assert edges == {(0, 1)}
        assert diag.stub_edges == 1
        assert diag.dropped_stubs == 2

    def test_stub_duplicate_of_request_edge_discarded(self):
        prov = ProvisionalLayer(requests={(0, 1), (1, 0)}, stubs=[0, 1, 0, 1])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        edges = validate_layer(prov, 0.5, np.random.default_rng(4), diag)
        assert edges == {(0, 1)}
        assert diag.stub_edges == 0
        assert diag.dropped_stubs == 4

    def test_odd_stub_dropped(self):
        prov = ProvisionalLayer(stubs=[0, 1, 2])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        edges = validate_layer(prov, 0.5, np.random.default_rng(0), diag)
        assert len(edges) == 1
        assert diag.stub_edges == 1
        assert diag.dropped_stubs == 1

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            validate_layer(ProvisionalLayer(), 1.5, np.random.default_rng(0))


# Few egos, so that stub lists repeat egos and draws pick self-loops; edges
# already present make some pairs duplicates. Both force rejected pairs.
STUBS = st.lists(st.integers(0, 5), max_size=40)
PRESENT = st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))
                  .filter(lambda e: e[0] < e[1]), max_size=8)
REQUESTS = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))
                   .filter(lambda e: e[0] != e[1]), max_size=20)


def assert_paired(stubs, present, edges, added, dropped):
    """`_pair_stubs`' outcome on `stubs` over the `present` edges: the
    present edges kept, `added` new ones, each between two distinct egos
    and made of two of their stubs, and every stub either paired or
    dropped."""
    assert present <= edges
    new = edges - present
    assert len(new) == added
    assert all(i < j for i, j in new)
    assert not Counter(u for e in new for u in e) - Counter(stubs)
    assert 2 * added + dropped == len(stubs)


class CountingRng:
    """A generator that counts the shuffles asked of it."""

    def __init__(self, seed):
        self.rng, self.shuffles = np.random.default_rng(seed), 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def shuffle(self, x):
        self.shuffles += 1
        self.rng.shuffle(x)


class TestVectorDraws:
    @settings(max_examples=300, deadline=None)
    @given(STUBS, PRESENT, st.integers(0, 2 ** 63 - 1))
    def test_pair_stubs_properties(self, stubs, present, seed):
        edges = set(present)
        added, dropped = gen._pair_stubs(stubs, edges, np.random.default_rng(seed))
        assert_paired(stubs, present, edges, added, dropped)
        again = set(present)
        assert gen._pair_stubs(stubs, again, np.random.default_rng(seed)) == (added, dropped)
        assert again == edges

    @pytest.mark.parametrize("stubs, present", [
        ([3] * 6, set()),
        ([0, 1, 0, 1, 2, 2], {(0, 1), (0, 2), (1, 2)}),
    ], ids=["one_ego", "all_joined"])
    def test_no_acceptable_pair_stops_after_one_shuffle(self, stubs, present):
        rng, edges = CountingRng(11), set(present)
        assert gen._pair_stubs(stubs, edges, rng) == (0, len(stubs))
        assert edges == present
        assert rng.shuffles == 1
        # The one-attempt-at-a-time rule spends its budget to the same end.
        assert pair_stubs_law(stubs, present) == {(frozenset(present), 0, len(stubs)): 1}

    def test_no_stubs_draw_nothing(self):
        rng, edges = np.random.default_rng(5), {(0, 1), (1, 2)}
        state = rng.bit_generator.state
        assert gen._pair_stubs([], edges, rng) == (0, 0)
        assert edges == {(0, 1), (1, 2)}
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("seed", range(5))
    def test_many_stubs(self, seed):
        stubs = [i % 50 for i in range(2001)]
        edges = set()
        added, dropped = gen._pair_stubs(stubs, edges, np.random.default_rng(seed))
        assert_paired(stubs, set(), edges, added, dropped)
        # 40 stubs on each of 50 egos: nearly all of them find a partner.
        assert added >= 990

    @settings(max_examples=200, deadline=None)
    @given(REQUESTS, STUBS, st.floats(0.0, 1.0), st.integers(0, 2 ** 63 - 1))
    def test_validate_layer_matches_scalar_coins(self, requests, stubs, alpha, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        got = validate_layer(ProvisionalLayer(set(requests), list(stubs)), alpha,
                             rng, diag)
        # The coins come first, one per single request, then the pairing
        # draws from the same stream.
        edges, (reciprocal, one_dir, rejected) = scalar_validate_requests(
            requests, alpha, ref)
        stub_edges, dropped = gen._pair_stubs(stubs, edges, ref)
        assert got == edges
        assert (diag.reciprocal, diag.one_directional, diag.stub_edges,
                diag.dropped_requests, diag.dropped_stubs) == (
            reciprocal, one_dir, stub_edges, rejected, dropped)
        assert rng.random() == ref.random()


# The chi-square tests below reject at this level, each on its own.
LAW_LEVEL = 0.001
LAW_RUNS = 4000  # seeds 0 .. LAW_RUNS - 1


def chi_square_p(counts, law, runs):
    """P-value of the outcome `counts` of `runs` runs under `law`. Outcomes
    are pooled, most likely first, into bins that each expect at least 5
    runs; an outcome outside the law's support fails at once."""
    assert set(counts) <= set(law)
    bins, pool = [], [0.0, 0]
    for outcome in sorted(law, key=law.get, reverse=True):
        pool = [pool[0] + runs * float(law[outcome]), pool[1] + counts[outcome]]
        if pool[0] >= 5:
            bins.append(pool)
            pool = [0.0, 0]
    bins[-1] = [bins[-1][0] + pool[0], bins[-1][1] + pool[1]]
    assert len(bins) > 1
    want, seen = zip(*bins)
    return float(chisquare(seen, want).pvalue)


class TestPairingLaw:
    """`_pair_stubs` draws its outcome from the law of the one-attempt-at-a-
    time rule (`scalar_pair_stubs`), enumerated exactly by `pair_stubs_law`:
    a chi-square test over LAW_RUNS fixed seeds at level LAW_LEVEL. The
    scalar rule runs against the enumeration too, to check it."""

    @pytest.mark.parametrize("pair", [gen._pair_stubs, scalar_pair_stubs],
                             ids=["rounds", "scalar"])
    @pytest.mark.parametrize("stubs, present", [
        ([0, 0, 1, 1, 2, 2, 3, 3], set()),
        ([0, 1, 2, 3, 4, 5, 6], set()),  # odd: one uniform stub dropped
        ([0, 0, 0, 1, 2], {(1, 2)}),
        ([0, 0, 0, 0, 1, 1, 2, 3], {(0, 1)}),  # every run stops, 4 or 6 stubs left
        # One acceptable pair, 1-2, a 1 in 28 attempt: the budget of 80
        # attempts runs out before it in about 5.5% of the runs.
        ([0, 0, 0, 0, 0, 0, 1, 2], {(0, 1), (0, 2)}),
        # Most runs stop with two stubs left that cannot pair.
        ([0, 0, 1, 1, 2, 2, 3], {(0, 1), (2, 3)}),
    ])
    def test_outcome_law(self, pair, stubs, present):
        law = pair_stubs_law(stubs, present)
        counts = Counter()
        for seed in range(LAW_RUNS):
            edges = set(present)
            added, dropped = pair(stubs, edges, np.random.default_rng(seed))
            counts[(frozenset(edges), added, dropped)] += 1
        assert chi_square_p(counts, law, LAW_RUNS) > LAW_LEVEL


@pytest.fixture(scope="module")
def model():
    return fit(mine_counts(random_graph(n=10, m=14, p=0.25, seed=5), 2, "daily"))


class TestGenerate:
    def test_deterministic(self, model):
        cfg = GenConfig(n_nodes=10, n_snapshots=12, seed=3)
        assert generate(model, cfg) == generate(model, cfg)

    def test_seed_changes_output(self, model):
        a = generate(model, GenConfig(n_nodes=10, n_snapshots=12, seed=0))
        b = generate(model, GenConfig(n_nodes=10, n_snapshots=12, seed=1))
        assert a != b

    def test_shape_and_metadata(self, model):
        cfg = GenConfig(n_nodes=10, n_snapshots=12, seed=0, epoch=7200)
        g = generate(model, cfg)
        assert g.node_count == 10
        assert g.n_snapshots == 12
        assert g.gap_seconds == model.gap_seconds
        assert g.epoch == 7200

    def test_empty_model_emits_nothing_after_seed(self):
        quiet = random_graph(n=6, m=5, p=0.0, seed=0)
        model = fit(mine_counts(quiet, 2, "daily"))
        cfg = GenConfig(n_nodes=6, n_snapshots=8, seed=2,
                        seed_degrees=(1,) * 6)
        g = generate(model, cfg)
        assert len(layer_edges(g)[0]) == 3
        assert all(len(edges) == 0 for edges in layer_edges(g)[1:])

    def test_node_count_above_limit_fails_before_any_work(self):
        model = fit(mine_counts(random_graph(n=6, m=5, seed=1), 1, "daily"))
        GenConfig(n_nodes=MAX_NODES, n_snapshots=8, k=1).validate(model.k)
        with mock.patch.object(gen, "_resolve_degrees", side_effect=AssertionError), \
                pytest.raises(ValueError, match=f"n_nodes must be in \\[2, {MAX_NODES}\\]"):
            generate(model, GenConfig(n_nodes=MAX_NODES + 1, n_snapshots=8, k=1))

    def test_config_k_cannot_exceed_model_k(self):
        model = fit(mine_counts(random_graph(n=6, m=5, seed=1), 1, "daily"))
        with pytest.raises(ValueError, match="exceeds model k"):
            generate(model, GenConfig(n_nodes=6, n_snapshots=8, k=2))

    def test_no_seed_degrees_anywhere(self):
        counts = MinedCounts(k=1, periodicity="daily", gap_seconds=300,
                             epoch=0, node_count=4, first_layer_degrees=(),
                             table={H8: {1: Counter({EMPTY2: 1})}})
        model = fit(counts)
        with pytest.raises(ValueError, match="seed degree"):
            generate(model, GenConfig(n_nodes=4, n_snapshots=3, k=1))

    @pytest.mark.parametrize("n_nodes", [10, 25])  # 25 resamples degrees
    def test_shorter_run_is_a_prefix_of_a_longer_one(self, model, n_nodes):
        short, long = [], []
        g = generate(model, GenConfig(n_nodes=n_nodes, n_snapshots=12, seed=3), short)
        h = generate(model, GenConfig(n_nodes=n_nodes, n_snapshots=30, seed=3), long)
        assert layer_edges(g) == layer_edges(h)[:12]
        assert short == long[:11]
        assert sum(map(len, layer_edges(g))) > 0

    def test_degree_resampling_for_larger_population(self, model):
        cfg = GenConfig(n_nodes=25, n_snapshots=8, seed=4)
        g = generate(model, cfg)
        assert g.node_count == 25
        assert g == generate(model, cfg)

    def test_snapshot_count_validated(self, model):
        with pytest.raises(ValueError, match="n_snapshots"):
            generate(model, GenConfig(n_nodes=10, n_snapshots=2, k=2))

    def test_diagnostics_account_for_every_edge(self, model):
        diags = []
        cfg = GenConfig(n_nodes=10, n_snapshots=12, seed=6)
        g = generate(model, cfg, diagnostics=diags)
        assert [d.layer for d in diags] == list(range(1, 12))
        for d, edges in zip(diags, layer_edges(g)[1:]):
            assert d.reciprocal + d.one_directional + d.stub_edges == len(edges)

    @pytest.mark.parametrize("k, seed", [(1, 0), (2, 1), (3, 2)])
    def test_loaded_model_generates_the_same(self, k, seed):
        model = fit(mine_counts(random_graph(n=12, m=16, p=0.3, seed=seed), k,
                                "daily"))
        sink = io.StringIO()
        save_model(model, sink)
        loaded = load_model(io.StringIO(sink.getvalue()))
        cfg = GenConfig(n_nodes=15, n_snapshots=20, k=k, seed=seed)
        diags, loaded_diags = [], []
        assert (generate(model, cfg, diags)
                == generate(loaded, cfg, loaded_diags))
        assert diags == loaded_diags
        assert model.fallback_counts == loaded.fallback_counts

    def test_layer_steps_are_called_through_module_attributes(self, model, monkeypatch):
        # The benchmark's traced runs count layers by wrapping these names.
        calls = Counter()
        for name in ("seed_layer", "propose_layer", "validate_layer"):
            def counted(*args, _step=getattr(gen, name), _name=name, **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)
            monkeypatch.setattr(gen, name, counted)
        generate(model, GenConfig(n_nodes=10, n_snapshots=12, seed=0))
        assert calls == {"seed_layer": 1, "propose_layer": 11, "validate_layer": 11}

    def test_traced_peak_is_set_by_the_contacts(self):
        """A surrogate grown tenfold keeps its layers as int64 keys: the
        traced peak of `generate` stays under 64 bytes per contact (Python
        sets of (i, j) tuples traced about 280)."""
        n_hat, n = 300, 3000
        model = fit(mine_counts(sinusoidal_graph(n=n_hat, days=1, peak_p=0.004, seed=1),
                                2, "daily"))
        cfg = GenConfig(n_nodes=n, n_snapshots=168, alpha=expansion_alpha(n_hat, n),
                        seed=1, epoch=MONDAY_EPOCH + 7 * 3600)  # 07:00 to 21:00
        tracemalloc.start()
        try:
            g = generate(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_events > 50_000
        assert peak < 64 * g.n_events

    def test_diagnostics_csv(self, model):
        diags = []
        generate(model, GenConfig(n_nodes=10, n_snapshots=5, seed=0), diags)
        sink = io.StringIO()
        write_diagnostics(diags, sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == ("layer,reciprocal,one_directional,stub_edges,"
                            "dropped_requests,dropped_stubs")
        assert len(lines) == 5


class TestGolden:
    """Surrogate and diagnostics bytes of three small fixed-seed runs,
    pinned when every surrogate came to draw from one generator and pair
    its stubs by shuffled rounds."""

    # Explicit ids keep the names when a declared output change re-pins.
    @pytest.mark.parametrize("k, n_nodes, alpha, seed, surrogate, diagnostics", [
        pytest.param(
            2, 20, 0.5, 7,
            "e26c7302aaac1ebe819fc88e750f87c275ba7f689d9944f5f3e63bb27038e344",
            "f14360312320233c7cc82ee6293b47191af675d8cc4a2f23406da6d1d7dfb4b0",
            id="k2-n20-seed7"),
        pytest.param(
            3, 30, 1.0, 11,
            "bb5fc9235c8fe381f2e5fe9bc12bd8e700bc49d10f1e355b9643f5e4a1ae5aa1",
            "21f953300adf8a8dd88069548b66821135784a54d99699d21a238665bcf4d380",
            id="k3-n30-seed11"),
    ])
    def test_bytes(self, k, n_nodes, alpha, seed, surrogate, diagnostics):
        model = fit(mine_counts(random_graph(n=12, m=40, p=0.25, seed=seed), k,
                                "daily"))
        diags = []
        g = generate(model, GenConfig(n_nodes=n_nodes, n_snapshots=48, k=k,
                                      alpha=alpha, seed=seed), diags)
        edges, rows = io.StringIO(), io.StringIO()
        write_edge_list(g, edges)
        write_diagnostics(diags, rows)
        assert hashlib.sha256(edges.getvalue().encode()).hexdigest() == surrogate
        assert hashlib.sha256(rows.getvalue().encode()).hexdigest() == diagnostics

    def test_bytes_of_prefixes_longer_than_one_chunk(self):
        # A dense k=3 model grows 24 layers, and the 21 width-3 windows hold
        # 25 strings each, more than one packed chunk.
        model = fit(mine_counts(random_graph(n=26, m=12, p=0.9, seed=2), 3, "daily"))
        longest = []
        real = PrefixKeys.rows

        def prefix_rows(known, ego, bits, n):
            if known.width == 3:
                longest.append(int(np.bincount(ego, minlength=1).max()))
            return real(known, ego, bits, n)

        diags = []
        with mock.patch.object(PrefixKeys, "rows", prefix_rows):
            g = generate(model, GenConfig(n_nodes=26, n_snapshots=24, k=3,
                                          alpha=1.0, seed=2), diags)
        assert longest == [25] * 21
        edges, rows = io.StringIO(), io.StringIO()
        write_edge_list(g, edges)
        write_diagnostics(diags, rows)
        assert (hashlib.sha256(edges.getvalue().encode()).hexdigest()
                == "e2c57c53fedb5046c75a321f0fdd02410f1a0051615ffcb550cc832feb7bcd39")
        assert (hashlib.sha256(rows.getvalue().encode()).hexdigest()
                == "8de880ff91d292c34cd33c71b2cf98d28443831f56f436f833eee9fbdfbb9658")


class TestRollingWindow:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prefixes_match_windows_of_graph_so_far(self, monkeypatch, k):
        n, m = 9, 16
        model = fit(mine_counts(random_graph(n=n, m=m, p=0.3, seed=21), k, "daily"))
        prefixes: list[list[EtnSignature]] = []  # per layer, per ego
        layers: list[tuple] = []  # per layer: bucket, depth, prefix keys, rows
        real_propose = gen.propose_layer

        def propose(keys, bits, depth, n, model, bucket, rng):
            prefixes.append(window_prefixes((keys, bits, depth, n)))
            with rows_recorded() as seen:
                prov = real_propose(keys, bits, depth, n, model, bucket, rng)
            (known, rows), = seen
            layers.append((bucket, depth, known, rows))
            return prov

        monkeypatch.setattr(gen, "propose_layer", propose)
        out = generate(model, GenConfig(n_nodes=n, n_snapshots=m, k=k, seed=5))
        assert len(prefixes) == m - 1
        out_layers = layer_edges(out)
        for t in range(1, m):
            partial = TemporalGraph(n, out_layers[:t], out.gap_seconds)
            want = [extract_etn(partial, ego, t - 1, min(t, k)) for ego in range(n)]
            assert prefixes[t - 1] == want, f"layer {t}"
            assert_rows_answer_as_lookup(model, *layers[t - 1][:2], want,
                                         *layers[t - 1][2:])
        assert sum(not p.is_empty for layer in prefixes for p in layer) > m

    def test_one_lookup_tallied_per_ego_and_layer(self, model):
        model.fallback_counts.clear()
        generate(model, GenConfig(n_nodes=10, n_snapshots=12, seed=1))
        assert sum(model.fallback_counts.values()) == 10 * 11


def requests_checked(g, k, gen_k, n_nodes, seed):
    """Generate from a model fitted to `g`, checking the extensions of every
    ego's distribution, which must be the one `lookup_extension` gives its
    prefix: for each nonzero prefix pattern, the strings that request an
    edge to a neighbour with that pattern never outnumber the ego's
    neighbours with it (`propose_layer` then has a target for each).
    Returns the number of requesting strings checked, once per distinct
    prefix of each layer."""
    real_propose = gen.propose_layer
    checked = 0

    def propose(keys, bits, depth, n, model, bucket, rng):
        nonlocal checked
        prefixes = window_prefixes((keys, bits, depth, n))
        with rows_recorded() as seen:
            prov = real_propose(keys, bits, depth, n, model, bucket, rng)
        (known, rows), = seen
        dists = assert_rows_answer_as_lookup(model, bucket, depth, prefixes,
                                             known, rows)
        for prefix, dist in dict(zip(prefixes, dists)).items():
            if dist is not None:
                have = Counter(prefix.strings)
                for ext, _ in dist.extensions:
                    need = Counter(s >> 1 for s in ext.strings if s & 1 and s >> 1)
                    assert need <= have, (prefix, ext)
                    checked += sum(need.values())
        return prov

    model = fit(mine_counts(g, k, "daily"))
    with mock.patch.object(gen, "propose_layer", propose):
        generate(model, GenConfig(n_nodes=n_nodes, n_snapshots=g.n_snapshots,
                                  k=gen_k, seed=seed))
    return checked


class TestEveryRequestHasATarget:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 10), st.integers(4, 14), st.floats(0.05, 0.7),
           st.integers(1, 3), st.data())
    def test_fitted_models(self, n, m, p, k, data):
        g = random_graph(n=n, m=m, p=p, seed=data.draw(st.integers(0, 2**16)))
        requests_checked(g, k, gen_k=data.draw(st.integers(1, k)),
                         n_nodes=data.draw(st.integers(2, 2 * n)),
                         seed=data.draw(st.integers(0, 2**16)))

    def test_dense_graph_requests_many_targets(self):
        assert requests_checked(random_graph(n=10, m=14, p=0.5, seed=4), 3,
                                gen_k=3, n_nodes=15, seed=1) > 100


class TestExpansionAlpha:
    @pytest.mark.parametrize("n_hat,n,want", [
        (38, 126, 0.96), (63, 126, 0.88), (88, 126, 0.76),
        (50, 50, 0.50), (126, 126, 0.50),
    ])
    def test_reference_values(self, n_hat, n, want):
        assert abs(expansion_alpha(n_hat, n) - want) <= 0.005

    def test_shrinking_clamps_to_zero(self):
        assert expansion_alpha(100, 10) == 0.0

    def test_small_counts_rejected(self):
        with pytest.raises(ValueError):
            expansion_alpha(1, 10)
        with pytest.raises(ValueError):
            expansion_alpha(10, 1)

    def test_expected_edges_preserved_under_expansion(self):
        # acceptance mass: reciprocal pairs scale ~ (n_hat/n)^2 relative to
        # singles, and alpha is chosen so request mass * alpha stays flat
        n_hat, n = 40, 120
        a = expansion_alpha(n_hat, n)
        pair_ratio = (n_hat * (n_hat - 1)) / (n * (n - 1))
        assert abs((1 - a) - 0.5 * pair_ratio) <= 1e-12


def test_every_exported_name_resolves():
    import etngen
    assert [name for name in etngen.__all__ if not hasattr(etngen, name)] == []
