import io
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etngen import (EtnSignature, GenConfig, LayerDiagnostics, ProvisionalLayer,
                    Snapshot, TemporalGraph, expansion_alpha, extract_etn, fit,
                    generate, mine_counts, propose_layer, seed_layer,
                    validate_layer)
from etngen import gen
from etngen.etn import MinedCounts, NeighborWindow
from etngen.gen import PHASE_PROPOSE, _stream, bootstrap, write_diagnostics
from etngen.tempgraph import BucketKey
from synth import er_layers, random_graph

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


def window_of(snapshots, n_nodes):
    """Rolling window holding `snapshots`, oldest first."""
    window = NeighborWindow(len(snapshots), 0, n_nodes)
    for snap in snapshots:
        window.push(snap.edges)
    return window


class TestSeedLayer:
    def test_pair(self):
        snap = seed_layer([1, 1], np.random.default_rng(0))
        assert snap.edges == frozenset({(0, 1)})

    def test_all_zero(self):
        snap = seed_layer([0, 0, 0], np.random.default_rng(0))
        assert snap.n_edges == 0

    def test_triangle_almost_always_realized(self):
        full = sum(seed_layer([2, 2, 2], np.random.default_rng(s)).n_edges == 3
                   for s in range(300))
        assert full >= 285

    def test_odd_sum_drops_one_unit(self):
        seen = set()
        for s in range(300):
            snap = seed_layer([1, 1, 1], np.random.default_rng(s))
            assert snap.n_edges == 1
            seen |= set(snap.edges)
        assert seen == {(0, 1), (0, 2), (1, 2)}

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            seed_layer([1, -1], np.random.default_rng(0))

    def test_realized_degrees_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            degrees = [int(d) for d in rng.integers(0, 5, size=12)]
            snap = seed_layer(degrees, np.random.default_rng(int(rng.integers(1 << 30))))
            for node, want in enumerate(degrees):
                assert snap.degree(node) <= want
            for i, j in snap.edges:
                assert i != j

    def test_deterministic(self):
        a = seed_layer([3, 2, 2, 1, 0, 2], np.random.default_rng(9))
        b = seed_layer([3, 2, 2, 1, 0, 2], np.random.default_rng(9))
        assert a == b


class TestProposeLayer:
    def test_persistent_neighbor_requested(self):
        model = tiny_model({sig("11"): Counter({sig("111"): 1})}, nodes=2)
        window = window_of([Snapshot({(0, 1)}), Snapshot({(0, 1)})], 2)
        prov = propose_layer(window, model, H8, np.random.default_rng(0))
        assert prov.requests == {(0, 1), (1, 0)}
        assert prov.stubs == []

    def test_fresh_contact_becomes_stub(self):
        model = tiny_model({EMPTY2: Counter({sig("001"): 1})}, nodes=2)
        window = window_of([Snapshot(set()), Snapshot(set())], 2)
        prov = propose_layer(window, model, H8, np.random.default_rng(0))
        assert prov.requests == set()
        assert sorted(prov.stubs) == [0, 1]

    def test_inactive_tail_bit_proposes_nothing(self):
        model = tiny_model({sig("11"): Counter({sig("110"): 1})}, nodes=2)
        window = window_of([Snapshot({(0, 1)}), Snapshot({(0, 1)})], 2)
        prov = propose_layer(window, model, H8, np.random.default_rng(0))
        assert prov.requests == set()
        assert prov.stubs == []

    def test_tied_candidates_chosen_uniformly(self):
        model = tiny_model({
            sig("01", "01", "01"): Counter({sig("010", "010", "011"): 1}),
            sig("01"): Counter({sig("010"): 1}),
        }, nodes=4)
        snapshots = [Snapshot(set()), Snapshot({(0, 1), (0, 2), (0, 3)})]
        targets = Counter()
        for trial in range(600):
            prov = propose_layer(window_of(snapshots, 4), model, H8,
                                 _stream(trial, PHASE_PROPOSE, 0))
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
            snapshots = [Snapshot(e) for e in layers]
            active = {ego: {u for snap in snapshots for u in snap.neighbors(ego)}
                      for ego in range(12)}
            prov = propose_layer(window_of(snapshots, 12), model, H8,
                                 _stream(trial, PHASE_PROPOSE, 1))
            for ego, u in prov.requests:
                assert u in active[ego]
                assert ego != u


class TestValidateLayer:
    def test_reciprocal_always_kept(self):
        prov = ProvisionalLayer(requests={(0, 1), (1, 0)})
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        snap = validate_layer(prov, 0.0, np.random.default_rng(0), diag)
        assert snap.edges == frozenset({(0, 1)})
        assert diag.reciprocal == 1
        assert diag.one_directional == 0

    def test_alpha_zero_rejects_singles(self):
        prov = ProvisionalLayer(requests={(0, 1)})
        snap = validate_layer(prov, 0.0, np.random.default_rng(0))
        assert snap.n_edges == 0

    def test_alpha_one_keeps_singles(self):
        prov = ProvisionalLayer(requests={(0, 1), (2, 3)})
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        snap = validate_layer(prov, 1.0, np.random.default_rng(0), diag)
        assert snap.edges == frozenset({(0, 1), (2, 3)})
        assert diag.one_directional == 2

    def test_alpha_half_acceptance_rate(self):
        n = 50_000
        prov = ProvisionalLayer(requests={(2 * i, 2 * i + 1) for i in range(n)})
        snap = validate_layer(prov, 0.5, np.random.default_rng(7))
        assert abs(snap.n_edges / n - 0.5) <= 0.01

    def test_stub_pair_forms_edge(self):
        prov = ProvisionalLayer(stubs=[0, 1])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        snap = validate_layer(prov, 0.5, np.random.default_rng(0), diag)
        assert snap.edges == frozenset({(0, 1)})
        assert diag.stub_edges == 1
        assert diag.dropped_stubs == 0

    def test_self_loop_stubs_discarded(self):
        prov = ProvisionalLayer(stubs=[0, 0, 0, 1])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        snap = validate_layer(prov, 0.5, np.random.default_rng(3), diag)
        assert snap.edges == frozenset({(0, 1)})
        assert diag.stub_edges == 1
        assert diag.dropped_stubs == 2

    def test_stub_duplicate_of_request_edge_discarded(self):
        prov = ProvisionalLayer(requests={(0, 1), (1, 0)}, stubs=[0, 1, 0, 1])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        snap = validate_layer(prov, 0.5, np.random.default_rng(4), diag)
        assert snap.edges == frozenset({(0, 1)})
        assert diag.stub_edges == 0
        assert diag.dropped_stubs == 4

    def test_odd_stub_dropped(self):
        prov = ProvisionalLayer(stubs=[0, 1, 2])
        diag = LayerDiagnostics(0, 0, 0, 0, 0, 0)
        snap = validate_layer(prov, 0.5, np.random.default_rng(0), diag)
        assert snap.n_edges == 1
        assert diag.stub_edges == 1
        assert diag.dropped_stubs == 1

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            validate_layer(ProvisionalLayer(), 1.5, np.random.default_rng(0))


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
        cfg = GenConfig(n_nodes=10, n_snapshots=12, seed=0, epoch=7200,
                        gap_seconds=600)
        g = generate(model, cfg)
        assert g.node_count == 10
        assert g.n_snapshots == 12
        assert g.gap_seconds == 600
        assert g.epoch == 7200

    def test_empty_model_emits_nothing_after_seed(self):
        quiet = random_graph(n=6, m=5, p=0.0, seed=0)
        model = fit(mine_counts(quiet, 2, "daily"))
        cfg = GenConfig(n_nodes=6, n_snapshots=8, seed=2,
                        seed_degrees=(1,) * 6)
        g = generate(model, cfg)
        assert g.snapshots[0].n_edges == 3
        assert all(s.n_edges == 0 for s in g.snapshots[1:])

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
        for d, snap in zip(diags, g.snapshots[1:]):
            assert d.reciprocal + d.one_directional + d.stub_edges == snap.n_edges

    def test_diagnostics_csv(self, model):
        diags = []
        generate(model, GenConfig(n_nodes=10, n_snapshots=5, seed=0), diags)
        sink = io.StringIO()
        write_diagnostics(diags, sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == ("layer,reciprocal,one_directional,stub_edges,"
                            "dropped_requests,dropped_stubs")
        assert len(lines) == 5


class TestRollingWindow:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prefixes_match_windows_of_graph_so_far(self, monkeypatch, k):
        n, m = 9, 16
        model = fit(mine_counts(random_graph(n=n, m=m, p=0.3, seed=21), k, "daily"))
        prefixes: list[list[EtnSignature]] = []  # per layer, per ego
        looked_up: list[set[EtnSignature]] = []  # per layer
        real_propose, real_lookup = gen.propose_layer, gen.lookup_extension

        def propose(window, model, bucket, rng):
            prefixes.append([EtnSignature(window.depth, window.strings(ego, window.depth))
                             for ego in range(window.lo, window.hi)])
            looked_up.append(set())
            return real_propose(window, model, bucket, rng)

        def lookup(model, bucket, depth, prefix):
            looked_up[-1].add(prefix)
            return real_lookup(model, bucket, depth, prefix)

        monkeypatch.setattr(gen, "propose_layer", propose)
        monkeypatch.setattr(gen, "lookup_extension", lookup)
        out = generate(model, GenConfig(n_nodes=n, n_snapshots=m, k=k, seed=5))
        assert len(prefixes) == m - 1
        for t in range(1, m):
            partial = TemporalGraph(n, out.snapshots[:t], out.gap_seconds)
            want = [extract_etn(partial, ego, t - 1, min(t, k)) for ego in range(n)]
            assert prefixes[t - 1] == want, f"layer {t}"
            assert looked_up[t - 1] == set(want), f"layer {t}"
        assert sum(not p.is_empty for layer in prefixes for p in layer) > m

    def test_one_lookup_tallied_per_ego_and_layer(self, model):
        model.fallback_counts.clear()
        generate(model, GenConfig(n_nodes=10, n_snapshots=12, seed=1))
        assert sum(model.fallback_counts.values()) == 10 * 11


def requests_checked(g, k, gen_k, n_nodes, seed):
    """Generate from a model fitted to `g`, checking every looked-up
    extension: for each nonzero prefix pattern, the strings that request an
    edge to a neighbour with that pattern never outnumber the ego's
    neighbours with it (`propose_layer` then has a target for each).
    Returns the number of requesting strings checked."""
    real_lookup = gen.lookup_extension
    checked = 0

    def lookup(model, bucket, depth, prefix):
        nonlocal checked
        dist, level = real_lookup(model, bucket, depth, prefix)
        if dist is not None:
            have = Counter(prefix.strings)
            for ext, _ in dist.extensions:
                need = Counter(s >> 1 for s in ext.strings if s & 1 and s >> 1)
                assert need <= have, (prefix, ext)
                checked += sum(need.values())
        return dist, level

    model = fit(mine_counts(g, k, "daily"))
    with mock.patch.object(gen, "lookup_extension", lookup):
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


class TestBootstrap:
    def test_k1_is_seed_only(self):
        model = fit(mine_counts(random_graph(n=6, m=5, seed=2), 1, "daily"))
        seed_snap = Snapshot({(0, 1)})
        layers = bootstrap(seed_snap, model, GenConfig(n_nodes=6, n_snapshots=4, k=1))
        assert layers == [seed_snap]

    def test_k2_adds_depth1_layer(self):
        model = fit(mine_counts(random_graph(n=6, m=8, p=0.4, seed=3), 2, "daily"))
        layers = bootstrap(Snapshot({(0, 1), (2, 3)}), model,
                           GenConfig(n_nodes=6, n_snapshots=6, k=2))
        assert len(layers) == 2


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
