from itertools import product

import numpy as np
import pytest
from scipy.stats import ks_2samp

from etngen import (DynConfig, Snapshot, TemporalGraph, coverage_result,
                    first_peak, mfpt_result, random_walk, resolve_start,
                    run_dynamics, sir_result, sir_run)
from etngen import dynamics
from etngen.dynamics import (_PROBE_RW, _PROBE_SIR, _lam_key, _layer_csr,
                             _sir_lockstep, _sir_seeds, _stream, _walk_lockstep)
from etngen.tempgraph import layer_arcs
from oracles import coverage_per_run, mfpt_per_pair, sir_per_run
from synth import er_layers, random_graph, sinusoidal_graph

# Oracle and lockstep samples come from differently keyed streams, so the
# statistical checks compare distributions, on fixed graphs and seeds.
KS_MIN_P = 0.01
CENSORED_FRACTION_TOL = 0.05


def tg(n, layers, gap=300, epoch=0):
    return TemporalGraph(n, [Snapshot(e) for e in layers], gap, epoch=epoch)


def matching_graph(n=9, m=14, keep=0.7, seed=0):
    """Every layer a matching: each node has at most one neighbor, so every
    walk is deterministic whatever its random stream."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(m):
        perm = rng.permutation(n).tolist()
        pairs = zip(perm[0::2], perm[1::2])
        layers.append({pair for pair in pairs if rng.random() < keep})
    return tg(n, layers)


def walk_traces(g, starts, t_start, rng):
    """Per-walker position lists from the lockstep kernel."""
    steps = [pos.copy() for pos in
             _walk_lockstep(g, np.array(starts), t_start, rng)]
    return [[int(step[w]) for step in steps] for w in range(len(starts))]


ORACLE_CASES = [(graph_seed, policy) for graph_seed in (0, 1)
                for policy in ("half", "first_peak")]


def padded(run, horizon):
    """A `sir_run` infected series with zeros after extinction."""
    return run.infected + [0] * (horizon - len(run.infected))


def sir_rows(g, seeds, t_start, lam, mu, rng):
    """Per-run r0 and infected series over the full horizon, from the
    lockstep kernel."""
    counts, r0 = [], None
    for infected, r0 in _sir_lockstep(g, np.array(seeds), t_start, lam, mu, rng):
        counts.append(infected.sum(axis=1).tolist())
    horizon = g.n_snapshots - t_start
    series = [list(col) + [0] * (horizon - len(counts)) for col in zip(*counts)]
    return r0.tolist(), series


def star(layers=2, leaves=3):
    edges = {(0, i) for i in range(1, leaves + 1)}
    return tg(leaves + 1, [edges] * layers)


class TestFirstPeak:
    def test_earliest_maximum(self):
        g = tg(6, [{(0, 1)}, {(0, 1), (2, 3), (4, 5)},
                   {(0, 1), (2, 3), (0, 2)}, {(0, 1), (2, 3)}])
        assert first_peak(g) == 1

    def test_single_layer(self):
        assert first_peak(tg(2, [{(0, 1)}])) == 0

    def test_monotone_growth_peaks_last(self):
        g = tg(6, [{(0, 1)}, {(0, 1), (2, 3)}, {(0, 1), (2, 3), (4, 5)}])
        assert first_peak(g) == 2

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            first_peak(tg(3, [set(), set()]))


class TestResolveStart:
    def test_policies(self):
        g = tg(4, [{(0, 1)}, set(), {(0, 1), (2, 3)}, set(), set()])
        assert resolve_start(g, "t0") == 0
        assert resolve_start(g, "half") == 2
        assert resolve_start(g, "first_peak") == 2

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            resolve_start(tg(2, [{(0, 1)}]), "late")


class TestRandomWalk:
    def test_two_node_alternation(self):
        g = tg(2, [{(0, 1)}] * 6)
        trace = random_walk(g, 0, 0, np.random.default_rng(0))
        assert trace == [1, 0, 1, 0, 1, 0]

    def test_isolated_walker_waits(self):
        g = tg(3, [{(1, 2)}] * 4)
        assert random_walk(g, 0, 0, np.random.default_rng(0)) == [0, 0, 0, 0]

    def test_trace_length_from_offset(self):
        g = tg(2, [{(0, 1)}] * 5)
        assert len(random_walk(g, 0, 3, np.random.default_rng(0))) == 2
        assert random_walk(g, 0, 5, np.random.default_rng(0)) == []

    def test_out_of_range_start_rejected(self):
        g = tg(2, [{(0, 1)}])
        with pytest.raises(ValueError):
            random_walk(g, 0, 2, np.random.default_rng(0))

    def test_uniform_neighbor_choice(self):
        g = tg(4, [{(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}])
        counts = {1: 0, 2: 0, 3: 0}
        for s in range(10_000):
            pos, = random_walk(g, 0, 0, np.random.default_rng(s))
            counts[pos] += 1
        for u in counts:
            assert abs(counts[u] / 10_000 - 1 / 3) <= 0.02


class TestLayerCsr:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_are_snapshot_neighbors(self, seed):
        rng = np.random.default_rng(seed)
        layers = er_layers(12, 8, [0.0, 0.02, 0.1, 0.3, 0.0, 0.6, 0.05, 1.0], rng)
        g = tg(12, layers)
        assert any(not snap.edges for snap in g.snapshots)
        assert any(0 < len(snap.active_nodes) < 12 for snap in g.snapshots)
        src, dst = layer_arcs(g)
        bounds = (2 * g.offsets).tolist()
        for snap, a, b in zip(g.snapshots, bounds, bounds[1:]):
            deg, off, flat = _layer_csr(src[a:b], dst[a:b], g.node_count)
            assert len(deg) == len(off) == g.node_count
            assert len(flat) == 2 * snap.n_edges
            for u in range(g.node_count):
                row = flat[off[u]:off[u] + deg[u]].tolist()
                assert row == list(snap.neighbors(u))


class TestArcTable:
    def test_one_table_per_probe_call(self, monkeypatch):
        # Each coverage, first-passage and SIR call reads one arc table.
        calls = []

        def counting(g):
            calls.append(g)
            return layer_arcs(g)

        monkeypatch.setattr(dynamics, "layer_arcs", counting)
        g = random_graph(n=10, m=30, p=0.2, seed=5)
        run_dynamics(g, DynConfig(rw_runs=5, mfpt_repeats=1, sir_runs=5),
                     starts=("t0", "half"), lambdas=(0.25, 0.13, 0.01))
        assert len(calls) == 2 * (1 + 1 + 3) and all(c is g for c in calls)


class TestLockstepKernel:
    @pytest.mark.parametrize("t_start", [0, 9])
    def test_single_walker_follows_random_walk(self, t_start):
        g = random_graph(n=10, m=30, p=0.2, seed=5)
        for start in range(10):
            trace, = walk_traces(g, [start], t_start, np.random.default_rng(start))
            assert trace == random_walk(g, start, t_start,
                                        np.random.default_rng(start))

    @pytest.mark.parametrize("t_start", [0, 5])
    def test_matching_walkers_follow_random_walk(self, t_start):
        g = matching_graph(seed=3)
        starts = list(range(9)) * 2
        traces = walk_traces(g, starts, t_start, np.random.default_rng(0))
        for start, trace in zip(starts, traces):
            assert trace == random_walk(g, start, t_start,
                                        np.random.default_rng(1))

    def test_zero_length_horizon(self):
        g = random_graph(n=6, m=4, p=0.5, seed=1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert walk_traces(g, [0, 3], 4, rng) == [[], []]
        assert rng.bit_generator.state == before

    def test_empty_layers_draw_nothing(self):
        g = tg(4, [set(), {(0, 1)}, set(), set()])
        rng = np.random.default_rng(0)
        assert walk_traces(g, [0, 2, 1], 2, rng) == [[0, 0], [2, 2], [1, 1]]
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestCoverage:
    def test_two_node_graph_fully_covered(self):
        g = tg(2, [{(0, 1)}] * 4)
        res = coverage_result(g, DynConfig(rw_runs=50))
        assert res.samples == [2] * 50

    def test_no_edges_coverage_one(self):
        g = tg(5, [set()] * 3)
        res = coverage_result(g, DynConfig(rw_runs=30))
        assert res.samples == [1] * 30
        assert res.visited_series == [1.0, 1.0, 1.0]

    def test_bounds(self):
        g = random_graph(n=9, m=7, p=0.3, seed=6)
        res = coverage_result(g, DynConfig(rw_runs=100))
        for c in res.samples:
            assert 1 <= c <= min(9, 7 + 1)

    def test_series_monotone_and_consistent(self):
        g = random_graph(n=9, m=7, p=0.3, seed=6)
        res = coverage_result(g, DynConfig(rw_runs=100))
        assert len(res.visited_series) == 7
        assert all(a <= b for a, b in
                   zip(res.visited_series, res.visited_series[1:]))
        assert res.visited_series[-1] == pytest.approx(np.mean(res.samples))

    def test_deterministic(self):
        g = random_graph(n=9, m=7, p=0.3, seed=6)
        cfg = DynConfig(rw_runs=40, seed=5)
        assert coverage_result(g, cfg) == coverage_result(g, cfg)

    def test_start_offset_shrinks_horizon(self):
        g = random_graph(n=9, m=8, p=0.3, seed=6)
        res = coverage_result(g, DynConfig(rw_runs=10, start_policy="half"))
        assert len(res.visited_series) == 4

    def test_zero_length_horizon(self):
        res = coverage_result(tg(5, []), DynConfig(rw_runs=7))
        assert res.visited_series == []
        assert res.samples == [1] * 7

    @pytest.mark.parametrize("policy", ["t0", "half"])
    def test_matching_graph_counts_each_walk(self, policy):
        # Deterministic walks: from the starts the stream draws first, each
        # sample and the mean series follow from random_walk alone.
        g = matching_graph(seed=4)
        cfg = DynConfig(start_policy=policy, rw_runs=25, seed=6)
        t_start = resolve_start(g, policy)
        starts = _stream(cfg.seed, _PROBE_RW).integers(0, 9, size=25).tolist()
        seen = []
        for start in starts:
            trace = random_walk(g, start, t_start, np.random.default_rng(0))
            seen.append([len({start, *trace[:k]}) for k in range(1, len(trace) + 1)])
        res = coverage_result(g, cfg)
        assert res.samples == [walk[-1] for walk in seen]
        assert res.visited_series == [sum(col) / 25 for col in zip(*seen)]

    @pytest.mark.parametrize("graph_seed, policy", ORACLE_CASES)
    def test_distribution_matches_per_run_oracle(self, graph_seed, policy):
        g = sinusoidal_graph(n=20, days=1, peak_p=0.04, seed=graph_seed)
        cfg = DynConfig(start_policy=policy, rw_runs=400, seed=0)
        old, new = coverage_per_run(g, cfg), coverage_result(g, cfg)
        assert ks_2samp(old.samples, new.samples).pvalue > KS_MIN_P


class TestMfpt:
    def test_two_nodes_always_hit_in_one(self):
        g = tg(2, [{(0, 1)}] * 4)
        res = mfpt_result(g, DynConfig(mfpt_repeats=3))
        assert res.samples == [1] * 6
        assert res.censored == 0

    def test_disconnected_pairs_censored(self):
        g = tg(4, [{(0, 1), (2, 3)}] * 3)
        res = mfpt_result(g, DynConfig(mfpt_repeats=2))
        assert len(res.samples) == 4 * 2
        assert res.censored == 8 * 2
        assert set(res.samples) == {1}

    def test_accounting_identity(self):
        g = random_graph(n=7, m=6, p=0.25, seed=9)
        res = mfpt_result(g, DynConfig(mfpt_repeats=2))
        assert len(res.samples) + res.censored == 7 * 6 * 2

    def test_deterministic(self):
        g = random_graph(n=6, m=5, p=0.3, seed=2)
        cfg = DynConfig(mfpt_repeats=2, seed=8)
        a, b = mfpt_result(g, cfg), mfpt_result(g, cfg)
        assert a == b

    def test_hit_steps_within_horizon(self):
        g = random_graph(n=6, m=5, p=0.4, seed=3)
        res = mfpt_result(g, DynConfig(mfpt_repeats=1))
        assert all(1 <= s <= 5 for s in res.samples)

    @pytest.mark.parametrize("policy", ["t0", "half", "first_peak"])
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    def test_matching_graph_equals_per_pair_oracle(self, graph_seed, policy):
        g = matching_graph(seed=graph_seed)
        cfg = DynConfig(start_policy=policy, mfpt_repeats=3, seed=graph_seed)
        expected = mfpt_per_pair(g, cfg)
        assert expected.samples and expected.censored
        assert mfpt_result(g, cfg) == expected

    @pytest.mark.parametrize("graph_seed, policy", ORACLE_CASES)
    def test_distribution_matches_per_pair_oracle(self, graph_seed, policy):
        g = sinusoidal_graph(n=20, days=1, peak_p=0.04, seed=graph_seed)
        cfg = DynConfig(start_policy=policy, mfpt_repeats=3, seed=0)
        old, new = mfpt_per_pair(g, cfg), mfpt_result(g, cfg)
        pairs = 20 * 19 * 3
        assert len(new.samples) + new.censored == pairs
        assert ks_2samp(old.samples, new.samples).pvalue > KS_MIN_P
        assert abs(old.censored - new.censored) / pairs <= CENSORED_FRACTION_TOL


class TestSirRun:
    def test_hub_seeded_star_infects_all_leaves(self):
        g = star()
        for s in range(25):
            run = sir_run(g, 0, 0, 1.0, 1.0, np.random.default_rng(s))
            assert run.r0 == 3
            assert run.infected == [3, 0]
            assert run.recovered == [1, 4]

    def test_leaf_seed_infects_only_hub(self):
        g = star()
        run = sir_run(g, 1, 0, 1.0, 1.0, np.random.default_rng(0))
        assert run.r0 == 1

    def test_lambda_zero_never_transmits(self):
        g = star(layers=4)
        run = sir_run(g, 0, 0, 0.0, 1.0, np.random.default_rng(0))
        assert run.r0 == 0
        assert run.infected == [0]
        assert run.recovered == [1]

    def test_mu_zero_keeps_seed_infectious(self):
        g = star(layers=3)
        run = sir_run(g, 0, 0, 0.0, 0.0, np.random.default_rng(0))
        assert run.infected == [1, 1, 1]
        assert run.recovered == [0, 0, 0]

    def test_infection_can_start_mid_sequence(self):
        layers = [set(), {(0, 1), (0, 2), (0, 3)}]
        g = tg(4, layers)
        run = sir_run(g, 0, 1, 1.0, 1.0, np.random.default_rng(0))
        assert run.r0 == 3
        assert len(run.infected) == 1

    def test_compartments_conserved(self):
        g = random_graph(n=12, m=10, p=0.3, seed=4)
        for s in range(40):
            rng = np.random.default_rng(s)
            run = sir_run(g, int(rng.integers(12)), 0,
                          float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), rng)
            assert len(run.infected) == len(run.recovered) <= 10
            for i, r in zip(run.infected, run.recovered):
                assert i >= 0 and r >= 0 and i + r <= 12
            assert all(a <= b for a, b in zip(run.recovered, run.recovered[1:]))
            if len(run.infected) < 10:
                assert run.infected[-1] == 0

    def test_bad_inputs_rejected(self):
        g = star()
        with pytest.raises(ValueError):
            sir_run(g, 0, 2, 0.5, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sir_run(g, 9, 0, 0.5, 0.5, np.random.default_rng(0))


class TestSirResult:
    def test_sample_count_and_determinism(self):
        g = random_graph(n=10, m=8, p=0.3, seed=5)
        cfg = DynConfig(sir_runs=60, lam=0.4, mu=0.1, seed=2)
        res = sir_result(g, cfg)
        assert len(res.samples) == 60
        assert len(res.infected_series) == 8
        assert res == sir_result(g, cfg)

    def test_lambda_monotonicity(self):
        g = random_graph(n=20, m=15, p=0.15, seed=12)
        means = []
        for lam in (0.01, 0.25):
            cfg = DynConfig(sir_runs=200, lam=lam, mu=0.0, seed=3)
            means.append(np.mean(sir_result(g, cfg).samples))
        assert means[1] > means[0]

    def test_different_lambdas_use_distinct_streams(self):
        g = random_graph(n=10, m=8, p=0.3, seed=5)
        a = sir_result(g, DynConfig(sir_runs=50, lam=0.13, mu=0.5, seed=0))
        b = sir_result(g, DynConfig(sir_runs=50, lam=0.13, mu=0.5, seed=0))
        c = sir_result(g, DynConfig(sir_runs=50, lam=0.25, mu=0.5, seed=0))
        assert a == b
        assert a.samples != c.samples

    def test_empty_seeding_layer_rejected(self):
        g = tg(3, [set(), {(0, 1)}])
        with pytest.raises(ValueError, match="t_start=0"):
            sir_result(g, DynConfig(sir_runs=5))


class TestSirLockstep:
    @pytest.mark.parametrize("lam, mu", list(product((0.0, 1.0), repeat=2)))
    @pytest.mark.parametrize("t_start", [0, 5])
    def test_rows_equal_sir_run_where_deterministic(self, lam, mu, t_start):
        # With lam and mu in {0, 1} every draw decides the same way, so each
        # row must equal sir_run from its seed node, whatever the streams.
        seeds = list(range(12)) * 2
        for graph_seed in range(30):
            p = float(np.random.default_rng(graph_seed).uniform(0.05, 0.4))
            g = random_graph(n=12, m=10, p=p, seed=graph_seed)
            r0, series = sir_rows(g, seeds, t_start, lam, mu,
                                  np.random.default_rng(0))
            for run, seed in enumerate(seeds):
                ref = sir_run(g, seed, t_start, lam, mu, np.random.default_rng(1))
                assert (r0[run], series[run]) == (ref.r0, padded(ref, 10 - t_start))

    @pytest.mark.parametrize("mu, draws", [(0.0, 14), (1.0, 6)])
    def test_draws_per_layer(self, mu, draws):
        # Layer 0: run 0 (seed 1) tries 1->0 and 1->2, run 1 (seed 3, alone)
        # tries nothing; both seeds draw a recovery. With mu = 0, layer 1
        # (empty) draws 3 + 1 recoveries, layer 2 tries 2->3 and 3->2, then
        # 3 + 1 recoveries. With mu = 1 all die by layer 1, which draws the
        # recoveries of 0 and 2 and ends the run.
        g = tg(4, [{(0, 1), (1, 2)}, set(), {(2, 3)}])
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        sir_rows(g, [1, 3], 0, 1.0, mu, rng)
        ref.random(draws)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_result_runs_from_the_streams_seed_draw(self):
        g = random_graph(n=12, m=10, p=0.3, seed=3)
        cfg = DynConfig(start_policy="half", sir_runs=40, lam=1.0, mu=1.0, seed=7)
        t_start, connected = _sir_seeds(g, "half")
        draw = _stream(7, _PROBE_SIR, _lam_key(1.0)).integers(len(connected),
                                                              size=40)
        runs = [sir_run(g, connected[i], t_start, 1.0, 1.0,
                        np.random.default_rng(0)) for i in draw]
        res = sir_result(g, cfg)
        assert res.samples == [run.r0 for run in runs]
        assert res.infected_series == [
            sum(col) / 40 for col in zip(*(padded(run, 5) for run in runs))]

    def test_seeds_drawn_among_nodes_with_an_edge_at_start(self):
        # Only the star 0-{1,2,3} has edges at the start; nodes 4-9 get
        # edges later. With lam = mu = 1 a seed's R0 is its start degree:
        # 3 for the hub, 1 for a leaf, 0 for an isolated node.
        g = tg(10, [{(0, 1), (0, 2), (0, 3)}]
               + [{(i, i + 1) for i in range(9)}] * 5)
        res = sir_result(g, DynConfig(sir_runs=200, lam=1.0, mu=1.0, seed=1))
        assert set(res.samples) == {1, 3}

    @pytest.mark.parametrize("policy", ["t0", "half"])
    def test_series_keeps_horizon_when_all_die_at_once(self, policy):
        g = random_graph(n=10, m=8, p=0.5, seed=1)
        res = sir_result(g, DynConfig(start_policy=policy, sir_runs=20,
                                      lam=0.0, mu=1.0))
        horizon = 8 - resolve_start(g, policy)
        assert res.samples == [0] * 20
        assert res.infected_series == [0.0] * horizon

    @pytest.mark.parametrize("graph_seed, policy, lam",
                             [(0, "half", 0.25), (1, "first_peak", 0.13)])
    def test_distribution_matches_per_run_oracle(self, graph_seed, policy, lam):
        g = sinusoidal_graph(n=20, days=1, peak_p=0.04, seed=graph_seed)
        old_r0, new_r0, old_sums, new_sums = [], [], [], []
        for seed in range(15):
            cfg = DynConfig(start_policy=policy, sir_runs=100, lam=lam, seed=seed)
            old, new = sir_per_run(g, cfg), sir_result(g, cfg)
            old_r0 += old.samples
            new_r0 += new.samples
            old_sums.append(sum(old.infected_series))
            new_sums.append(sum(new.infected_series))
        assert ks_2samp(old_r0, new_r0).pvalue > KS_MIN_P
        assert ks_2samp(old_sums, new_sums).pvalue > KS_MIN_P

    def test_start_outside_snapshots_rejected(self):
        with pytest.raises(ValueError, match="t_start=0"):
            _sir_seeds(tg(3, []), "t0")
        with pytest.raises(ValueError, match="t_start=0"):
            sir_result(tg(3, []), DynConfig(sir_runs=2))


class TestDynConfig:
    def test_bad_policy(self):
        with pytest.raises(ValueError):
            DynConfig(start_policy="never").validate()

    def test_bad_run_counts(self):
        with pytest.raises(ValueError):
            DynConfig(rw_runs=0).validate()

    def test_bad_probabilities(self):
        with pytest.raises(ValueError):
            DynConfig(lam=1.5).validate()
        with pytest.raises(ValueError):
            DynConfig(mu=-0.1).validate()


class TestRunDynamics:
    def test_report_shape(self):
        g = random_graph(n=8, m=8, p=0.35, seed=7)
        cfg = DynConfig(rw_runs=20, mfpt_repeats=1, sir_runs=10, mu=0.5)
        report = run_dynamics(g, cfg, starts=("t0", "half"),
                              lambdas=(0.25, 0.01))
        assert set(report.coverage) == {"t0", "half"}
        assert set(report.mfpt) == {"t0", "half"}
        assert set(report.sir) == {("t0", 0.25), ("t0", 0.01),
                                   ("half", 0.25), ("half", 0.01)}

    def test_probe_subset(self):
        g = random_graph(n=8, m=6, p=0.35, seed=7)
        cfg = DynConfig(rw_runs=10, mfpt_repeats=1, sir_runs=5)
        report = run_dynamics(g, cfg, starts=("t0",), probes=("rw",))
        assert set(report.coverage) == {"t0"}
        assert report.mfpt == {}
        assert report.sir == {}
