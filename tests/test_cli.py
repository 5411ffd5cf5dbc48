import io
import json
import os

import numpy as np
import pytest

from etngen import (Snapshot, TemporalGraph, parse_edge_list, read_counts,
                    write_edge_list, write_samples_csv)
from etngen import metrics as metrics_mod
from etngen.cli import main
from synth import er_layers, random_graph


def write_graph(path, g):
    with open(path, "w", encoding="utf-8") as handle:
        write_edge_list(g, handle)
    return str(path)


def load_graph(path):
    with open(path, encoding="utf-8") as handle:
        return parse_edge_list(handle)


def busy_graph(n=8, m=24, seed=10):
    """Every layer nonempty, so dynamics can start anywhere."""
    layers = [set(e) | {(0, 1)}
              for e in er_layers(n, m, 0.25, np.random.default_rng(seed))]
    return TemporalGraph(n, [Snapshot(e) for e in layers], 300, epoch=0)


@pytest.fixture()
def train(tmp_path):
    return write_graph(tmp_path / "train.tsv", busy_graph())


class TestFit:
    def test_happy_path(self, train, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["fit", train, "--out", str(model_path)]) == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "fit: nodes=8 snapshots=24 k=2" in out

    def test_deterministic_output(self, train, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", train, "--out", str(a)]) == 0
        assert main(["fit", train, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_model(self, train, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", train, "--out", str(a), "--threads", "1"]) == 0
        assert main(["fit", train, "--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_counts_dump_readable(self, train, tmp_path):
        counts_path = tmp_path / "counts.tsv"
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--counts-out", str(counts_path)]) == 0
        with open(counts_path, encoding="utf-8") as handle:
            table = read_counts(handle)
        assert table
        assert {depth for per_bucket in table.values()
                for depth in per_bucket} == {1, 2}

    def test_headerless_input_needs_gap(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("0\t0\t1\n299\t1\t2\n600\t0\t2\n900\t1\t2\n")
        assert main(["fit", str(raw), "--out", str(tmp_path / "m.json"),
                     "--gap", "300", "--k", "1"]) == 0

    def test_header_gap_needs_no_flag(self, tmp_path):
        g = TemporalGraph(4, [Snapshot({(0, 1)}), Snapshot({(1, 2)})] * 4, 60)
        path = write_graph(tmp_path / "gap60.tsv", g)
        model_path = tmp_path / "m.json"
        assert main(["fit", path, "--out", str(model_path), "--k", "1"]) == 0
        assert json.loads(model_path.read_text())["gap"] == 60

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("zero\t0\t1\n")
        assert main(["fit", str(bad), "--out", str(tmp_path / "m.json"),
                     "--gap", "300"]) == 2

    def test_zero_k_is_usage_error(self, train, tmp_path):
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--k", "0"]) == 1

    def test_too_few_snapshots_for_k(self, tmp_path):
        g = TemporalGraph(3, [Snapshot({(0, 1)}), Snapshot({(1, 2)})], 300)
        path = write_graph(tmp_path / "tiny.tsv", g)
        assert main(["fit", path, "--out", str(tmp_path / "m.json"),
                     "--k", "2"]) == 2


class TestConfigFile:
    def test_config_sets_defaults(self, train, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"k": 1}))
        model_path = tmp_path / "m.json"
        assert main(["fit", train, "--out", str(model_path),
                     "--config", str(conf)]) == 0
        assert json.loads(model_path.read_text())["k"] == 1

    def test_explicit_flag_beats_config(self, train, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"k": 1}))
        model_path = tmp_path / "m.json"
        assert main(["fit", train, "--out", str(model_path),
                     "--config", str(conf), "--k", "2"]) == 0
        assert json.loads(model_path.read_text())["k"] == 2

    def test_unknown_config_key_is_usage_error(self, train, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"depth": 3}))
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--config", str(conf)]) == 1

    def test_config_not_an_object(self, train, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text("[1, 2]")
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--config", str(conf)]) == 1

    def test_config_bad_json_is_data_error(self, train, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text("{nope")
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--config", str(conf)]) == 2


@pytest.fixture()
def model_path(train, tmp_path):
    path = tmp_path / "model.json"
    assert main(["fit", train, "--out", str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_happy_path(self, model_path, tmp_path, capsys):
        out = tmp_path / "sur.tsv"
        assert main(["generate", model_path, "--out", str(out),
                     "--snapshots", "24"]) == 0
        g = load_graph(out)
        assert g.node_count == 8
        assert g.n_snapshots == 24
        assert "generate: nodes=8 snapshots=24" in capsys.readouterr().out

    def test_deterministic_per_seed(self, model_path, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv"))
        for path in (a, b):
            assert main(["generate", model_path, "--out", str(path),
                         "--snapshots", "12", "--seed", "4"]) == 0
        assert main(["generate", model_path, "--out", str(c),
                     "--snapshots", "12", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_alpha_auto_announced(self, tmp_path, capsys):
        g = random_graph(n=38, m=6, p=0.08, seed=20)
        train38 = write_graph(tmp_path / "train38.tsv", g)
        model = tmp_path / "m38.json"
        assert main(["fit", train38, "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["generate", str(model), "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "6", "--nodes", "126",
                     "--alpha", "auto"]) == 0
        out = capsys.readouterr().out
        assert "alpha=auto resolved to 0.96" in out

    def test_alpha_out_of_range(self, model_path, tmp_path):
        assert main(["generate", model_path, "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12", "--alpha", "1.5"]) == 1

    def test_alpha_not_a_number(self, model_path, tmp_path):
        assert main(["generate", model_path, "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12", "--alpha", "lots"]) == 1

    def test_snapshots_required(self, model_path, tmp_path):
        assert main(["generate", model_path,
                     "--out", str(tmp_path / "s.tsv")]) == 1

    def test_truncated_model_is_data_error(self, model_path, tmp_path):
        text = open(model_path, encoding="utf-8").read()
        broken = tmp_path / "broken.json"
        broken.write_text(text[: len(text) // 2])
        assert main(["generate", str(broken), "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12"]) == 2

    def test_inconsistent_model_is_data_error(self, model_path, tmp_path):
        doc = json.loads(open(model_path, encoding="utf-8").read())
        doc["seed_degrees"].append(1)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["generate", str(broken), "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12"]) == 2

    def test_seed_degrees_file(self, model_path, tmp_path):
        degrees = tmp_path / "deg.txt"
        degrees.write_text("# per-node\n2\n2\n2\n2\n2\n2\n2\n2\n")
        out = tmp_path / "s.tsv"
        assert main(["generate", model_path, "--out", str(out),
                     "--snapshots", "12", "--seed-degrees", str(degrees)]) == 0
        g = load_graph(out)
        assert g.snapshots[0].n_edges == 8

    def test_bad_seed_degrees_file(self, model_path, tmp_path):
        degrees = tmp_path / "deg.txt"
        degrees.write_text("two\n")
        assert main(["generate", model_path, "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12", "--seed-degrees", str(degrees)]) == 2

    def test_diagnostics_written(self, model_path, tmp_path):
        diag = tmp_path / "diag.csv"
        assert main(["generate", model_path, "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12", "--diagnostics", str(diag)]) == 0
        lines = diag.read_text().strip().splitlines()
        assert lines[0].startswith("layer,")
        assert len(lines) == 12


class TestEval:
    def test_graph_against_itself(self, train, tmp_path):
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "distances_topo.csv").read_text().strip().splitlines()
        assert lines[0] == "metric,kind,ks,js,kl,emd"
        assert len(lines) == 18
        assert lines[1] == "density,per-snapshot,0,0,0,0"

    def test_distance_subset(self, train, tmp_path):
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir),
                     "--distances", "ks"]) == 0
        header = (out_dir / "distances_topo.csv").read_text().splitlines()[0]
        assert header == "metric,kind,ks"

    def test_dump_samples(self, train, tmp_path):
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir),
                     "--dump-samples"]) == 0
        for which in ("orig", "gen"):
            assert (out_dir / f"metric_samples_{which}.csv").exists()

    def test_dump_samples_reuses_compared_reports(self, train, tmp_path,
                                                  monkeypatch):
        calls = []
        real = metrics_mod.compute_report

        def counting(graph, louvain_seed=0):
            calls.append(louvain_seed)
            return real(graph, louvain_seed=louvain_seed)

        monkeypatch.setattr(metrics_mod, "compute_report", counting)
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir),
                     "--dump-samples"]) == 0
        assert len(calls) == 2
        sink = io.StringIO()
        write_samples_csv(real(load_graph(train)), sink)
        with open(out_dir / "metric_samples_orig.csv", encoding="utf-8",
                  newline="") as handle:
            assert handle.read() == sink.getvalue()

    def test_sir_outputs_per_start_and_lambda(self, train, tmp_path):
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir),
                     "--dynamics", "sir", "--starts", "t0,half,peak",
                     "--lambdas", "0.25,0.13,0.01", "--sir-runs", "5"]) == 0
        assert (out_dir / "distances_dyn.csv").exists()
        for which in ("orig", "gen"):
            count = sum(1 for name in os.listdir(out_dir)
                        if name.startswith(f"samples_sir_r0_{which}_"))
            assert count == 9
        assert (out_dir / "samples_sir_r0_orig_first_peak_lam0.25.csv").exists()
        assert (out_dir / "series_infected_gen_t0_lam0.01.csv").exists()

    def test_rw_outputs(self, train, tmp_path):
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir),
                     "--dynamics", "rw", "--starts", "t0", "--rw-runs", "20"]) == 0
        assert (out_dir / "samples_coverage_orig_t0.csv").exists()
        assert (out_dir / "series_visited_gen_t0.csv").exists()
        rows = (out_dir / "distances_dyn.csv").read_text().strip().splitlines()
        assert rows[0] == "probe,start,lambda,ks,js,kl,emd,n_a,n_b,mean_a,mean_b"
        assert len(rows) == 2 and rows[1].startswith("coverage,t0,,0,0,0,0,20,20")

    def test_stability_report(self, train, tmp_path):
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir),
                     "--dynamics", "rw", "--starts", "t0",
                     "--rw-runs", "10", "--stability"]) == 0
        assert (out_dir / "distances_dyn_stability.csv").exists()

    def test_walk_probes_deterministic_per_seed(self, train, tmp_path):
        flags = ["--dynamics", "rw,mfpt", "--starts", "t0,half",
                 "--rw-runs", "30", "--mfpt-repeats", "2"]
        runs = {}
        for name, seed in (("a", 4), ("b", 4), ("next", 5)):
            out_dir = tmp_path / name
            extra = ["--stability"] if name == "a" else []
            assert main(["eval", train, train, "--out-dir", str(out_dir),
                         "--seed", str(seed), *flags, *extra]) == 0
            runs[name] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        stability = runs["a"].pop("distances_dyn_stability.csv")
        assert runs["a"] == runs["b"]
        for start in ("t0", "half"):
            for probe in ("coverage", "mfpt"):
                name = f"samples_{probe}_orig_{start}.csv"
                assert runs["a"][name] != runs["next"][name], name
        # --stability re-simulates the original with seed+1.
        means = [row.split(",")[-1] for row in
                 stability.decode().splitlines()[1:]]
        assert means == [row.split(",")[-1] for row in
                         runs["next"]["distances_dyn.csv"].decode().splitlines()[1:]]

    def test_gap_mismatch_is_data_error(self, train, tmp_path):
        slow = TemporalGraph(4, [Snapshot({(0, 1)})] * 3, 600, epoch=0)
        other = write_graph(tmp_path / "slow.tsv", slow)
        assert main(["eval", train, other,
                     "--out-dir", str(tmp_path / "report")]) == 2

    def test_unknown_start_token(self, train, tmp_path):
        assert main(["eval", train, train, "--out-dir", str(tmp_path / "r"),
                     "--starts", "late"]) == 1

    def test_unknown_probe_token(self, train, tmp_path):
        assert main(["eval", train, train, "--out-dir", str(tmp_path / "r"),
                     "--dynamics", "walks"]) == 1

    def test_bad_lambda(self, train, tmp_path):
        assert main(["eval", train, train, "--out-dir", str(tmp_path / "r"),
                     "--dynamics", "sir", "--lambdas", "1.5"]) == 1


@pytest.mark.parametrize("command", ["eval", "pipeline"])
@pytest.mark.parametrize("flag, value", [
    ("--distances", "ks,bogus"), ("--starts", "late"),
    ("--dynamics", "bogus"), ("--lambdas", "1.5")])
def test_bad_eval_flag_fails_before_any_work(train, tmp_path, capsys,
                                             command, flag, value):
    out_dir = tmp_path / "out"
    inputs = [train, train] if command == "eval" else [train]
    assert main([command, *inputs, "--out-dir", str(out_dir), flag, value]) == 1
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "etngen: error:" in captured.err


@pytest.mark.parametrize("command", ["eval", "pipeline"])
def test_gap_off_the_hour_fails_before_any_work(tmp_path, capsys, command):
    g = TemporalGraph(4, [Snapshot({(0, 1)}), Snapshot({(1, 2)})] * 8, 7)
    path = write_graph(tmp_path / "gap7.tsv", g)
    out_dir = tmp_path / "out"
    inputs = [path, path] if command == "eval" else [path]
    assert main([command, *inputs, "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gap 7 does not align with hour boundaries" in captured.err


class TestPipeline:
    def test_end_to_end(self, train, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["pipeline", train, "--out-dir", str(out_dir),
                     "--k", "1"]) == 0
        for name in ("model.json", "surrogate.tsv", "diagnostics.csv",
                     "distances_topo.csv"):
            assert (out_dir / name).exists(), name
        sur = load_graph(out_dir / "surrogate.tsv")
        assert sur.n_snapshots == 24
        assert sur.node_count == 8
        assert "pipeline: fitted" in capsys.readouterr().out

    def test_same_files_as_separate_steps(self, train, tmp_path):
        flags = ["--seed", "3", "--dynamics", "rw,mfpt,sir", "--dump-samples",
                 "--stability", "--rw-runs", "50", "--sir-runs", "20"]
        pipe, steps = tmp_path / "pipe", tmp_path / "steps"
        assert main(["pipeline", train, "--out-dir", str(pipe), *flags]) == 0
        steps.mkdir()
        model, sur = str(steps / "model.json"), str(steps / "surrogate.tsv")
        assert main(["fit", train, "--out", model]) == 0
        assert main(["generate", model, "--out", sur, "--snapshots", "24",
                     "--seed", "3",
                     "--diagnostics", str(steps / "diagnostics.csv")]) == 0
        assert main(["eval", train, sur, "--out-dir", str(steps), *flags]) == 0
        names = sorted(os.listdir(pipe))
        assert names == sorted(os.listdir(steps))
        assert len(names) == 62
        for name in names:
            assert (pipe / name).read_bytes() == (steps / name).read_bytes(), name


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "fit" in capsys.readouterr().out

    def test_unknown_flag(self, train, tmp_path):
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--frobnicate"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_env_var_sets_thread_default(self, train, tmp_path, monkeypatch):
        monkeypatch.setenv("ETNGEN_THREADS", "2")
        a = tmp_path / "a.json"
        assert main(["fit", train, "--out", str(a)]) == 0
        monkeypatch.delenv("ETNGEN_THREADS")
        b = tmp_path / "b.json"
        assert main(["fit", train, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_env_threads_is_usage_error(self, train, tmp_path, monkeypatch,
                                            value):
        monkeypatch.setenv("ETNGEN_THREADS", value)
        assert main(["fit", train, "--out", str(tmp_path / "m.json")]) == 1

    def test_explicit_threads_beats_env(self, train, tmp_path, monkeypatch):
        monkeypatch.setenv("ETNGEN_THREADS", "abc")
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--threads", "2"]) == 0
