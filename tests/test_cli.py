import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etngen import (TemporalGraph, parse_edge_list, read_counts,
                    write_distances_csv, write_edge_list, write_samples_csv)
from etngen import cli, etn
from etngen import dynamics as dyn
from etngen import metrics as metrics_mod
from etngen.cli import build_parser, main
from etngen.etn import MAX_MINING_K
from etngen.tempgraph import MAX_NODES
from synth import er_layers, layer_edges, random_graph, sinusoidal_graph


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
    return TemporalGraph(n, layers, 300, epoch=0)


def stretch_graph(seed, n=10, m=60):
    """Edges in layers t with t % 20 < 12 only, so both the first layer and
    the middle one have some."""
    probs = [0.1 if t % 20 < 12 else 0.0 for t in range(m)]
    return TemporalGraph(n, er_layers(n, m, probs, np.random.default_rng(seed)),
                         300, epoch=0)


# sha256 of every file of `test_golden_dynamics_files`'s eval run.
GOLDEN_DYNAMICS_FILES = {
    "distances_dyn.csv":
        "31bc71de41c7fb3418b3302720e354a80ce6c4f7289bfee8d95e96bd2ccf2b92",
    "distances_dyn_stability.csv":
        "854465df4a10d9c157d21c963c38296e12f793599cdfb37b7ead8c4965e20324",
    "distances_topo.csv":
        "9ab1a8833f8de59da92f746ff8a03d677cf3bf6eca6caea175d22f5e8aacc736",
    "metric_samples_gen.csv":
        "76f8f90513da32d268e9b5bf24ff04afe5a98b32d65e82faf7161e1a77be97ef",
    "metric_samples_orig.csv":
        "7118bef4d466b2c3fbc07ecbae7fcce6c0937123b9410d15fad951223731c86b",
    "samples_coverage_gen_half.csv":
        "e9f6df8d888f67c87a9277d5af3e1e3929600a350155a5d6d46e7e22986d88ef",
    "samples_coverage_gen_t0.csv":
        "e00041902a638ac3d0b8585495639b9e02637c9fa8098fc25fc9627040b8f9cc",
    "samples_coverage_orig_half.csv":
        "a41a0596ddb5ffb849e486610ffc629026dffe0f3b27e6a192907afa8d842fe0",
    "samples_coverage_orig_t0.csv":
        "9c82f5d98857a92d3c0c330b3d7556cb27f9af637e0817af86b687422acfff3e",
    "samples_mfpt_gen_half.csv":
        "525cabba796b4c5ef70c72ab919f08c85ecb881dee5af0f32e501c5dddb679dc",
    "samples_mfpt_gen_t0.csv":
        "6690dd5b3f340ab730d10f373b02f9c831615aa83cfac68273632208a31dbfb3",
    "samples_mfpt_orig_half.csv":
        "4f8a2057e343ad3990d9eb8a72fe80ff0e8a95a30a9acae3a001ba2cc4dd7a4d",
    "samples_mfpt_orig_t0.csv":
        "cd3fcaa4daed7392ff0edf6595d57c120f9681dcefb9127aff6b36603e1e8fb0",
    "samples_sir_r0_gen_half_lam0.01.csv":
        "b6cb727ec5b1316a19b7024c9dcbdb93cd3abde0826155bb4d72bf1a7bd0d7fe",
    "samples_sir_r0_gen_half_lam0.13.csv":
        "0062717b5bb54ca20930008496b27922410fcdfe052a61b84d6cc2c4c64b07c0",
    "samples_sir_r0_gen_half_lam0.25.csv":
        "22f08a0227ef3e693e8feabe45946c37a480815b780773d843c9f0e49e42b379",
    "samples_sir_r0_gen_t0_lam0.01.csv":
        "ba201f8c0a5c5ab334431bc23d5283dd4c9027745be483052413a28f213bb5d1",
    "samples_sir_r0_gen_t0_lam0.13.csv":
        "f07880af701f3744a6e532bcabc6d06b83417d226f7e12f324f95985612b3e23",
    "samples_sir_r0_gen_t0_lam0.25.csv":
        "007da412ab8947a763df2a16e63ed3dc5c84c5e907eda49ef5f7eac97f7d6c2e",
    "samples_sir_r0_orig_half_lam0.01.csv":
        "35a5537d3e0b75c19fe3afc4e5917167c8cf85847dd4247cadf80b6624e93740",
    "samples_sir_r0_orig_half_lam0.13.csv":
        "1e8eb5aa95e99bbccbe685c11e2fde0af89a97131b2b317f4e7271d8e10ed9ea",
    "samples_sir_r0_orig_half_lam0.25.csv":
        "5cd1fc54a384ace45c3457c9f8eaca3bbdffe39e7c05bd3d71fdb684b34d93e6",
    "samples_sir_r0_orig_t0_lam0.01.csv":
        "df65f8049c044540ea874356fa1e31104e4a3dd94ef12fe23cca130e15ab6986",
    "samples_sir_r0_orig_t0_lam0.13.csv":
        "cde0bed0aeadbec46e989c544e68fb6c3a2b3305e8133ec7fbf6fcedc67b139b",
    "samples_sir_r0_orig_t0_lam0.25.csv":
        "f3755035332ead01d92c3f6c9b07295dfbb176e44b4e2c204d31bd1bd3eac058",
    "series_infected_gen_half_lam0.01.csv":
        "8e36238265121e9a82c6fd757d13cb430cbc5543ee0eb60384f4bac5c47eb39f",
    "series_infected_gen_half_lam0.13.csv":
        "f43cff62bb967af11eb48b1da221a11b659adf39006732882720268400464d4f",
    "series_infected_gen_half_lam0.25.csv":
        "f859a4ba3c62c216d96ea128c1b52802849de83b796c416891b5cffbc5230926",
    "series_infected_gen_t0_lam0.01.csv":
        "137647805a01fca889175786a3cffb691d26ec2917291d8db68b2a207dd5a5a2",
    "series_infected_gen_t0_lam0.13.csv":
        "73fd52aeb727e4734847ff98b4fd7f45882f69b41ea4aab7f531a0d1541543d3",
    "series_infected_gen_t0_lam0.25.csv":
        "5254eb90ff58025f14585144611b40e61feeab4b9460fb30609e44b15a35d9d3",
    "series_infected_orig_half_lam0.01.csv":
        "19b687c0fa1bc8ad24f23b3ed069e1ce8a0930dd6679f98332753f1bf6f65391",
    "series_infected_orig_half_lam0.13.csv":
        "669ee7a97e4a62f9f2187b796dfc4649cf55e8c447664cbae55e81113023b683",
    "series_infected_orig_half_lam0.25.csv":
        "ea2f01a7627f9967c620c84ac8fa6291f3b4bc816e34b368630f7c1144bac447",
    "series_infected_orig_t0_lam0.01.csv":
        "325cafbc12871ba11d076a0a696527b08a23fd2bb9c36e9f550f16fedc26ed9b",
    "series_infected_orig_t0_lam0.13.csv":
        "786b6b81081eba52691ab10589171c08902cef9bda4d7a072c2922fc4fd1b190",
    "series_infected_orig_t0_lam0.25.csv":
        "000099f3c2c4c5a536944d41dd903c1990ecd0d8136633d40892435faccba298",
    "series_visited_gen_half.csv":
        "955bd3695dd72800d54740977327465ba2375b82bfb19d400a18a663e8b67479",
    "series_visited_gen_t0.csv":
        "373a0fc8d9604b7968f7e32b288d607690c6170179c6ccade69e4afbf6a7d7b4",
    "series_visited_orig_half.csv":
        "218bf1520e3d1dc49d2fef50af94d82c383844874553ca46e2c762f425fe9a58",
    "series_visited_orig_t0.csv":
        "ad2b09560cb75ca024a2f14e67ac9e4ecfbc91bdf2eb9e524ded359a904d95b0",
}


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

    def test_thread_count_does_not_change_model(self, train, tmp_path, monkeypatch):
        # Workers start at any size, up to three on any host.
        monkeypatch.setattr(etn, "_THREADED_ARC_WINDOWS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        models = []
        for threads in ("1", "2", "3"):
            path = tmp_path / f"m{threads}.json"
            assert main(["fit", train, "--out", str(path), "--threads", threads]) == 0
            models.append(path.read_bytes())
        assert models[1] == models[0] and models[2] == models[0]

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
        g = TemporalGraph(4, [{(0, 1)}, {(1, 2)}] * 4, 60)
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

    def test_far_event_is_data_error(self, tmp_path, capsys):
        # 10**12 one-second snapshots: refused before any is allocated.
        far = tmp_path / "far.tsv"
        far.write_text("#gap=1\n0\ta\tb\n1000000000000\ta\tb\n")
        model_path = tmp_path / "m.json"
        assert main(["fit", str(far), "--out", str(model_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("etngen: error:"), err
        assert "events span 1000000000001 snapshots, more than the limit" in err[0]
        assert not model_path.exists()

    def test_zero_k_is_usage_error(self, train, tmp_path):
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--k", "0"]) == 1

    def test_too_few_snapshots_for_k(self, tmp_path):
        g = TemporalGraph(3, [{(0, 1)}, {(1, 2)}], 300)
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

    def test_config_deeply_nested_is_data_error(self, train, tmp_path, capsys):
        conf = tmp_path / "deep.json"
        conf.write_text("[" * 100_000)
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--config", str(conf)]) == 2
        assert capsys.readouterr().err.count("etngen: error:") == 1
        assert not (tmp_path / "m.json").exists()

    def test_config_not_utf8_is_data_error(self, train, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_bytes(b"\xff\xfe{}")
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--config", str(conf)]) == 2
        assert "etngen: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, conf", [
        ("eval", {"mu": 2}), ("eval", {"rw_runs": 0}),
        ("eval", {"distances": 5}), ("eval", {"stability": "no"}),
        ("fit", {"threads": 0}), ("fit", {"k": 0}), ("fit", {"k": True}),
        ("fit", {"periodicity": "hourly"})])
    def test_bad_config_value_fails_like_its_flag(self, train, tmp_path, capsys,
                                                  command, conf):
        conf_path = tmp_path / "conf.json"
        conf_path.write_text(json.dumps(conf))
        out = tmp_path / "out"
        target = ([train, train, "--out-dir", str(out), "--dynamics", "rw"]
                  if command == "eval" else [train, "--out", str(out)])
        assert main([command, *target, "--config", str(conf_path)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("etngen: error:") == 1

    def test_config_values_equal_flags(self, train, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"lambdas": 0.5, "dump_samples": True,
                                    "stability": None}))
        flags = ["--dynamics", "sir", "--starts", "t0", "--sir-runs", "5"]
        by_conf, by_flags = tmp_path / "conf", tmp_path / "flags"
        assert main(["eval", train, train, "--out-dir", str(by_conf), *flags,
                     "--config", str(conf)]) == 0
        assert main(["eval", train, train, "--out-dir", str(by_flags), *flags,
                     "--lambdas", "0.5", "--dump-samples"]) == 0
        names = sorted(os.listdir(by_conf))
        assert names == sorted(os.listdir(by_flags))
        assert "samples_sir_r0_orig_t0_lam0.5.csv" in names
        assert "metric_samples_orig.csv" in names
        for name in names:
            assert (by_conf / name).read_bytes() == (by_flags / name).read_bytes()


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
        text = Path(model_path).read_text(encoding="utf-8")
        broken = tmp_path / "broken.json"
        broken.write_text(text[: len(text) // 2])
        assert main(["generate", str(broken), "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12"]) == 2

    def test_deeply_nested_model_is_data_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["generate", str(deep), "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12"]) == 2
        err = capsys.readouterr().err
        assert err.count("etngen: error:") == 1 and "internal" not in err

    def test_negative_seed_fails_before_any_work(self, model_path, tmp_path,
                                                  capsys):
        out = tmp_path / "s.tsv"
        assert main(["generate", model_path, "--out", str(out),
                     "--snapshots", "12", "--seed", "-1"]) == 1
        assert not out.exists()
        assert "etngen: error:" in capsys.readouterr().err

    def test_inconsistent_model_is_data_error(self, model_path, tmp_path):
        doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
        doc["seed_degrees"].append(1)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["generate", str(broken), "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12"]) == 2

    def test_huge_k_names_one_missing_depth(self, model_path, tmp_path, capsys):
        doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
        assert {cell["depth"] for cell in doc["tables"]} == {1, 2}
        doc["k"] = MAX_MINING_K  # the largest k a model may declare
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["generate", str(broken), "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200
        assert "no cell at depth 3" in lines[0]

    def test_k_above_the_packing_limit_is_data_error(self, model_path, tmp_path,
                                                     capsys):
        doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
        doc["k"] = MAX_MINING_K + 1
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "s.tsv"
        assert main(["generate", str(broken), "--out", str(out),
                     "--snapshots", "70"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"etngen: error: k={MAX_MINING_K + 1} exceeds the limit "
                         f"of {MAX_MINING_K}"]
        assert not out.exists()

    def test_seed_degrees_file(self, model_path, tmp_path):
        degrees = tmp_path / "deg.txt"
        degrees.write_text("# per-node\n2\n2\n2\n2\n2\n2\n2\n2\n")
        out = tmp_path / "s.tsv"
        assert main(["generate", model_path, "--out", str(out),
                     "--snapshots", "12", "--seed-degrees", str(degrees)]) == 0
        g = load_graph(out)
        assert len(layer_edges(g)[0]) == 8

    def test_bad_seed_degrees_file(self, model_path, tmp_path):
        degrees = tmp_path / "deg.txt"
        degrees.write_text("two\n")
        assert main(["generate", model_path, "--out", str(tmp_path / "s.tsv"),
                     "--snapshots", "12", "--seed-degrees", str(degrees)]) == 2

    @pytest.mark.parametrize("degree", [-1, 8, 60])
    def test_model_seed_degree_outside_node_range(self, model_path, tmp_path,
                                                   capsys, degree):
        doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
        doc["seed_degrees"][0] = degree  # 8 nodes
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "s.tsv"
        assert main(["generate", str(broken), "--out", str(out),
                     "--snapshots", "12"]) == 2
        assert f"seed degree {degree} of node 0 outside 0..7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, nodes, line", [
        ("3\n70\n", ["--nodes", "2"], 1), ("1\n-1\n", ["--nodes", "2"], 2),
        ("# per-node\n2\n8\n", [], 3)])
    def test_seed_degrees_file_outside_node_range(self, model_path, tmp_path,
                                                   capsys, text, nodes, line):
        degrees = tmp_path / "deg.txt"
        degrees.write_text(text)
        out = tmp_path / "s.tsv"
        assert main(["generate", model_path, "--out", str(out), "--snapshots",
                     "12", "--seed-degrees", str(degrees), *nodes]) == 2
        assert f"etngen: error: {degrees}:{line}: degree" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("values", [[], [0], [3, 17, 0, 250000],
                                        [0.5, 1e-05, 2.0, 1 / 3, math.inf]])
    def test_sample_writers_match_csv_writer(self, values, tmp_path):
        def read(path):
            with open(path, encoding="utf-8", newline="") as handle:
                return handle.read()

        column, series = io.StringIO(), io.StringIO()
        csv.writer(column).writerows([["value"], *([v] for v in values)])
        csv.writer(series).writerows([["step", "value"],
                                      *([t, f"{v:.10g}"] for t, v in enumerate(values))])
        cli._write_value_column(str(tmp_path / "column.csv"), values)
        cli._write_series(str(tmp_path / "series.csv"), values)
        assert read(tmp_path / "column.csv") == column.getvalue()
        assert read(tmp_path / "series.csv") == series.getvalue()

    def test_dump_samples_reuses_compared_reports(self, train, tmp_path,
                                                  monkeypatch):
        # The surrogate's report is computed in a worker process, so each
        # call appends a line to a file rather than to a list in this one.
        calls = tmp_path / "calls.txt"
        real = metrics_mod.compute_report

        def counting(graph, louvain_seed=0):
            with open(calls, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(graph, louvain_seed=louvain_seed)

        monkeypatch.setattr(metrics_mod, "compute_report", counting)
        out_dir = tmp_path / "report"
        assert main(["eval", train, train, "--out-dir", str(out_dir),
                     "--dump-samples"]) == 0
        assert len(calls.read_text().splitlines()) == 2
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

    def test_sir_deterministic_per_seed(self, train, tmp_path):
        flags = ["--dynamics", "sir", "--starts", "t0,half",
                 "--lambdas", "0.25,0.13", "--sir-runs", "30"]
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
            for lam in ("0.25", "0.13"):
                for kind in ("samples_sir_r0", "series_infected"):
                    name = f"{kind}_orig_{start}_lam{lam}.csv"
                    assert runs["a"][name] != runs["next"][name], name
        # --stability re-simulates the original with seed+1.
        means = [row.split(",")[-1] for row in
                 stability.decode().splitlines()[1:]]
        assert len(means) == 4
        assert means == [row.split(",")[-1] for row in
                         runs["next"]["distances_dyn.csv"].decode().splitlines()[1:]]

    def test_gap_mismatch_is_data_error(self, train, tmp_path):
        slow = TemporalGraph(4, [{(0, 1)}] * 3, 600, epoch=0)
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

    def test_files_equal_serial_composition(self, tmp_path):
        # The CLI computes the surrogate's side and the --stability re-run
        # in one forked worker; every file must equal one built here from
        # the library calls made one after the other. The graphs are sparse
        # enough that Louvain's partitions depend on the seed.
        def sparse(seed):
            layers = er_layers(16, 24, 0.03, np.random.default_rng(seed))
            return TemporalGraph(16, [set(e) | {(0, 1)} for e in layers], 300,
                                 epoch=0)

        train = write_graph(tmp_path / "train.tsv", sparse(11))
        sur = write_graph(tmp_path / "sur.tsv", sparse(12))
        flags = ["--seed", "4", "--dynamics", "rw,mfpt,sir", "--starts",
                 "t0,half", "--lambdas", "0.25,0.13", "--rw-runs", "30",
                 "--mfpt-repeats", "2", "--sir-runs", "20", "--stability",
                 "--dump-samples"]
        out_dir = tmp_path / "cli"
        assert main(["eval", train, sur, "--out-dir", str(out_dir), *flags]) == 0

        want = tmp_path / "serial"
        want.mkdir()
        g_orig, g_gen = load_graph(train), load_graph(sur)
        topo = {which: metrics_mod.compute_report(g, louvain_seed=4)
                for which, g in (("orig", g_orig), ("gen", g_gen))}
        with open(want / "distances_topo.csv", "w", encoding="utf-8",
                  newline="") as handle:
            write_distances_csv(metrics_mod.compare(topo["orig"], topo["gen"]),
                                handle)
        for which, report in topo.items():
            with open(want / f"metric_samples_{which}.csv", "w",
                      encoding="utf-8", newline="") as handle:
                write_samples_csv(report, handle)
        cfg = dyn.DynConfig(rw_runs=30, mfpt_repeats=2, sir_runs=20, seed=4)
        run_args = ((dyn.START_T0, dyn.START_HALF), (0.25, 0.13),
                    ("rw", "mfpt", "sir"))
        rep_orig = dyn.run_dynamics(g_orig, cfg, *run_args)
        rep_gen = dyn.run_dynamics(g_gen, cfg, *run_args)
        rep_again = dyn.run_dynamics(g_orig, replace(cfg, seed=5), *run_args)
        distances = tuple(metrics_mod.DISTANCE_FUNCS)
        cli._write_dyn_distances(str(want / "distances_dyn.csv"), rep_orig,
                                 rep_gen, distances)
        cli._write_dyn_distances(str(want / "distances_dyn_stability.csv"),
                                 rep_orig, rep_again, distances)
        cli._dump_dyn_outputs(str(want), "orig", rep_orig)
        cli._dump_dyn_outputs(str(want), "gen", rep_gen)

        names = sorted(os.listdir(out_dir))
        assert names == sorted(os.listdir(want))
        for name in names:
            assert (out_dir / name).read_bytes() == (want / name).read_bytes(), name

    def test_golden_dynamics_files(self, tmp_path):
        # Graphs with edges in 12 of every 20 layers and none in the other
        # 8, so the walkers and epidemics cross arc-less stretches from
        # both starts. The digests were recorded when every probe call
        # built its own arc table and every distance its own CDFs and
        # histograms.
        train = write_graph(tmp_path / "train.tsv", stretch_graph(21))
        sur = write_graph(tmp_path / "sur.tsv", stretch_graph(22))
        out_dir = tmp_path / "report"
        assert main(["eval", train, sur, "--out-dir", str(out_dir),
                     "--seed", "3", "--dynamics", "rw,mfpt,sir",
                     "--starts", "t0,half", "--rw-runs", "40",
                     "--mfpt-repeats", "2", "--sir-runs", "25",
                     "--stability", "--dump-samples"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out_dir.iterdir()}
        assert digests == GOLDEN_DYNAMICS_FILES

    @pytest.mark.parametrize("probes", [[], ["--dynamics", "rw", "--starts",
                                              "t0", "--rw-runs", "5"]])
    @pytest.mark.parametrize("which", ["original", "surrogate"])
    def test_side_failure_is_one_data_error(self, train, tmp_path, capsys,
                                            monkeypatch, which, probes):
        # The surrogate's side runs in a forked worker, which inherits the
        # patched function.
        sur_path = write_graph(tmp_path / "sur.tsv", busy_graph(seed=11))
        failing_graph = load_graph(train if which == "original" else sur_path)
        real = metrics_mod.compute_report

        def failing(graph, louvain_seed=0):
            if graph == failing_graph:
                raise ValueError(f"{which} side failed")
            return real(graph, louvain_seed=louvain_seed)

        monkeypatch.setattr(metrics_mod, "compute_report", failing)
        out_dir = tmp_path / "report"
        assert main(["eval", train, sur_path, "--out-dir", str(out_dir),
                     *probes, "--stability"]) == 2
        err = capsys.readouterr().err
        assert err.count("etngen: error:") == 1
        assert f"etngen: error: {which} side failed" in err
        assert os.listdir(out_dir) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["eval", "pipeline"])
    def test_no_worker_left_after_success(self, train, tmp_path, command):
        inputs = [train, train] if command == "eval" else [train]
        assert main([command, *inputs, "--out-dir", str(tmp_path / "out"),
                     "--dynamics", "rw", "--starts", "t0", "--rw-runs", "5",
                     "--stability"]) == 0
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["eval", "pipeline"])
@pytest.mark.parametrize("flag, value", [
    ("--distances", "ks,bogus"), ("--starts", "late"),
    ("--dynamics", "bogus"), ("--lambdas", "1.5"),
    ("--mu", "2"), ("--mu", "nan"), ("--seed", "-1")])
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
@pytest.mark.parametrize("lambdas", ["0.25,0.2500001", "0.1,0.1", "0.5,0.13,0.5"])
def test_lambdas_sharing_a_name_fail_before_any_file_is_read(tmp_path, capsys, command,
                                                              lambdas):
    # Each lambda's files and rows are named by its `{:g}` text: two that
    # print alike would overwrite each other's files. The inputs do not
    # exist, so reading one would be a data error (exit 2).
    out_dir = tmp_path / "out"
    missing = str(tmp_path / "missing.tsv")
    inputs = [missing, missing] if command == "eval" else [missing]
    assert main([command, *inputs, "--out-dir", str(out_dir), "--dynamics", "sir",
                 "--starts", "t0", "--lambdas", lambdas, "--sir-runs", "5"]) == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.count("etngen: error:") == 1 and "--lambdas" in err
    assert "print as " + lambdas.split(",")[0] in err


@pytest.mark.parametrize("command", ["eval", "pipeline"])
def test_gap_off_the_hour_fails_before_any_work(tmp_path, capsys, command):
    g = TemporalGraph(4, [{(0, 1)}, {(1, 2)}] * 8, 7)
    path = write_graph(tmp_path / "gap7.tsv", g)
    out_dir = tmp_path / "out"
    inputs = [path, path] if command == "eval" else [path]
    assert main([command, *inputs, "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gap 7 does not align with hour boundaries" in captured.err


@pytest.mark.parametrize("value", ["2", "lots"])
def test_bad_pipeline_alpha_fails_before_any_work(train, tmp_path, capsys, value):
    out_dir = tmp_path / "out"
    assert main(["pipeline", train, "--out-dir", str(out_dir),
                 "--alpha", value]) == 1
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("etngen: error:") == 1


def _fails_as_usage_error(argv, out, capsys, message):
    """`argv` exits 1 with one error line naming `message`, no stdout and
    nothing at `out`."""
    assert main(argv) == 1
    assert not os.path.exists(out)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("etngen: error:"), lines
    assert message in lines[0]


@pytest.mark.parametrize("nodes", ["1", "0"])
@pytest.mark.parametrize("via_config", [False, True])
def test_bad_generate_node_count_fails_before_loading(model_path, tmp_path, capsys,
                                                      nodes, via_config):
    out = tmp_path / "s.tsv"
    argv = ["generate", model_path, "--out", str(out), "--snapshots", "12"]
    if via_config:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"nodes": int(nodes)}))
        argv += ["--config", str(conf)]
    else:
        argv += ["--nodes", nodes]
    _fails_as_usage_error(argv, out, capsys, f"must be >= 2, got {nodes}")


@pytest.mark.parametrize("command", ["generate", "pipeline"])
@pytest.mark.parametrize("via_config", [False, True])
def test_node_count_above_limit_fails_before_reading(tmp_path, capsys, command,
                                                     via_config):
    # The input does not exist: the count fails first, before any degree
    # vector of that length is drawn.
    nodes = MAX_NODES + 1
    out = tmp_path / "out"
    argv = [command, str(tmp_path / "absent"),
            "--out" if command == "generate" else "--out-dir", str(out)]
    if command == "generate":
        argv += ["--snapshots", "12"]
    if via_config:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"nodes": nodes}))
        argv += ["--config", str(conf)]
    else:
        argv += ["--nodes", str(nodes)]
    _fails_as_usage_error(argv, out, capsys, f"must be <= {MAX_NODES}, got {nodes}")


@pytest.mark.parametrize("via_config", [False, True])
def test_bad_pipeline_node_count_fails_before_fitting(train, tmp_path, capsys,
                                                      via_config):
    out_dir = tmp_path / "out"
    argv = ["pipeline", train, "--out-dir", str(out_dir)]
    if via_config:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"nodes": 1}))
        argv += ["--config", str(conf)]
    else:
        argv += ["--nodes", "1"]
    _fails_as_usage_error(argv, out_dir, capsys, "must be >= 2, got 1")


@pytest.mark.parametrize("k, snapshots", [("2", "2"), ("2", "1"), ("1", "1"),
                                          ("3", "2")])
def test_pipeline_snapshots_not_above_k_fail_before_reading(tmp_path, capsys,
                                                            k, snapshots):
    # The input does not exist: the flags fail first.
    out_dir = tmp_path / "out"
    argv = ["pipeline", str(tmp_path / "absent.tsv"), "--out-dir", str(out_dir),
            "--k", k, "--snapshots", snapshots]
    _fails_as_usage_error(argv, out_dir, capsys,
                          f"--snapshots must be > --k = {k}, got {snapshots}")


def test_pipeline_snapshots_just_above_k_run(train, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["pipeline", train, "--out-dir", str(out_dir), "--k", "2",
                 "--snapshots", "3"]) == 0
    assert load_graph(out_dir / "surrogate.tsv").n_snapshots == 3


@pytest.mark.parametrize("flags, message", [
    (["--snapshots", "2"], "--snapshots must be > --k = 2, got 2"),
    (["--snapshots", "1", "--k", "1"], "--snapshots must be > --k = 1, got 1"),
    (["--snapshots", "24", "--k", "5"], "--k must be <= the model's k = 2, got 5"),
])
def test_generate_k_and_snapshots_out_of_range_are_usage_errors(model_path, tmp_path,
                                                                capsys, flags, message):
    capsys.readouterr()  # the fixture's fit output
    out = tmp_path / "sur.tsv"
    _fails_as_usage_error(["generate", model_path, "--out", str(out), *flags],
                          out, capsys, message)


def test_generate_snapshots_just_above_k_run(model_path, tmp_path):
    out = tmp_path / "sur.tsv"
    assert main(["generate", model_path, "--out", str(out), "--snapshots", "2",
                 "--k", "1"]) == 0
    assert load_graph(out).n_snapshots == 2


def test_sir_start_without_edges_names_the_start(tmp_path, capsys):
    g = TemporalGraph(4, [set()] + [{(0, 1), (2, 3)}] * 11, 300, epoch=0)
    path = write_graph(tmp_path / "late.tsv", g)
    assert main(["eval", path, path, "--out-dir", str(tmp_path / "r"),
                 "--dynamics", "sir", "--starts", "t0", "--sir-runs", "2"]) == 2
    assert ("start 't0' (snapshot t_start=0) has no node with an edge"
            in capsys.readouterr().err)


@pytest.mark.parametrize("probes, start, later, message", [
    ("sir", "t0", {(0, 1)}, "start 't0' (snapshot t_start=0) has no node with an edge"),
    ("rw", "peak", set(), "graph has no edges; first peak undefined")],
    ids=["sir-t0", "rw-peak"])
def test_dynamics_start_checked_before_any_work(tmp_path, capsys, probes, start,
                                                later, message):
    g = TemporalGraph(4, [set()] + [later] * 11, 300, epoch=0)
    path = write_graph(tmp_path / "late.tsv", g)
    out_dir = tmp_path / "out"
    assert main(["eval", path, path, "--out-dir", str(out_dir),
                 "--dynamics", probes, "--starts", start]) == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("etngen: error:") == 1
    assert message in captured.err


@pytest.mark.parametrize("command", ["eval", "pipeline"])
@pytest.mark.parametrize("probes", ["", "sir", "rw,mfpt"])
def test_zero_snapshots_fail_before_any_work(tmp_path, capsys, command, probes):
    path = tmp_path / "empty.tsv"
    path.write_text("#snapshots=0 #gap=300 #epoch=0 #nodes=3\n")
    out_dir = tmp_path / "out"
    inputs = [str(path)] * (2 if command == "eval" else 1)
    assert main([command, *inputs, "--out-dir", str(out_dir),
                 "--dynamics", probes, "--starts", "t0"]) == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("etngen: error:") == 1
    assert f"{path}: need at least one snapshot" in captured.err


def late_graph(n=8, m=24):
    """First snapshot empty, every later one with an edge."""
    return TemporalGraph(n, [set()] + [{(0, 1)}] * (m - 1), 300, epoch=0)


@pytest.mark.parametrize("late_is_original", [True, False])
def test_eval_start_error_names_the_failing_file(train, tmp_path, capsys,
                                                 late_is_original):
    late = write_graph(tmp_path / "late.tsv", late_graph())
    inputs = [late, train] if late_is_original else [train, late]
    out_dir = tmp_path / "out"
    assert main(["eval", *inputs, "--out-dir", str(out_dir),
                 "--dynamics", "sir", "--starts", "t0"]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.count("etngen: error:") == 1
    assert (f"{late}: start 't0' (snapshot t_start=0) has no node with an edge"
            in err)
    assert train not in err


def test_pipeline_start_error_names_the_input(tmp_path, capsys):
    late = write_graph(tmp_path / "late.tsv", late_graph())
    out_dir = tmp_path / "out"
    assert main(["pipeline", late, "--out-dir", str(out_dir),
                 "--dynamics", "sir", "--starts", "t0"]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert f"{late}: start 't0' (snapshot t_start=0)" in err


def test_pipeline_start_error_names_the_surrogate(tmp_path, capsys):
    # One edge among 40 nodes in the first snapshot: the seed degrees of a
    # 3-node surrogate, drawn from the model's 40, make no edge.
    layers = [{(0, 1)}] + [{(i, i + 1) for i in range(0, 40, 2)}] * 23
    g = TemporalGraph(40, layers, 300, epoch=0)
    path = write_graph(tmp_path / "sparse.tsv", g)
    out_dir = tmp_path / "out"
    assert main(["pipeline", path, "--out-dir", str(out_dir), "--nodes", "3",
                 "--dynamics", "sir", "--starts", "t0"]) == 2
    assert not layer_edges(load_graph(out_dir / "surrogate.tsv"))[0]
    err = capsys.readouterr().err
    assert err.count("etngen: error:") == 1
    assert (f"generated surrogate {out_dir / 'surrogate.tsv'}: start 't0' "
            f"(snapshot t_start=0) has no node with an edge" in err)
    assert path not in err


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

    @staticmethod
    def pipeline_and_steps(train, tmp_path, seed, snapshots, flags):
        """Run `pipeline` and fit -> generate -> eval on `train`; check that
        both write the same files and return their names."""
        flags = ["--seed", seed, *flags]
        pipe, steps = tmp_path / "pipe", tmp_path / "steps"
        assert main(["pipeline", train, "--out-dir", str(pipe), *flags]) == 0
        steps.mkdir()
        model, sur = str(steps / "model.json"), str(steps / "surrogate.tsv")
        assert main(["fit", train, "--out", model]) == 0
        assert main(["generate", model, "--out", sur, "--snapshots", snapshots,
                     "--seed", seed,
                     "--diagnostics", str(steps / "diagnostics.csv")]) == 0
        assert main(["eval", train, sur, "--out-dir", str(steps), *flags]) == 0
        names = sorted(os.listdir(pipe))
        assert names == sorted(os.listdir(steps))
        for name in names:
            assert (pipe / name).read_bytes() == (steps / name).read_bytes(), name
        return names

    def test_same_files_as_separate_steps(self, train, tmp_path):
        names = self.pipeline_and_steps(
            train, tmp_path, "3", "24",
            ["--dynamics", "rw,mfpt,sir", "--dump-samples", "--stability",
             "--rw-runs", "50", "--sir-runs", "20"])
        assert len(names) == 62

    def test_same_topology_files_as_separate_steps(self, tmp_path):
        # Large enough that node numbering matters: with aggregates built in
        # snapshot set order, the pipeline's in-memory surrogate and the
        # surrogate read back from its file gave different rows here.
        train = write_graph(tmp_path / "train.tsv",
                            sinusoidal_graph(n=30, days=1, peak_p=0.02, seed=1))
        self.pipeline_and_steps(train, tmp_path, "1", "288", ["--dump-samples"])


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "fit" in capsys.readouterr().out

    def test_unknown_flag(self, train, tmp_path):
        assert main(["fit", train, "--out", str(tmp_path / "m.json"),
                     "--frobnicate"]) == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_module_runs_as_program(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "etngen", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("usage: etngen")


def _config_keys(command):
    """The subcommand's option names, plus keys that are not options."""
    sub = build_parser()[1][command]
    return sorted(action.dest for action in sub._actions
                  if action.dest != "help")


_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(),
    # No digit but 0: a short string must not name a large count.
    st.text(alphabet="abhklmnorstw0.,- ", max_size=5),
    st.sampled_from(["auto", "t0", "half", "peak", "rw", "mfpt", "sir", "ks",
                     "emd", "daily", "weekly", "0.5", "1e-3", ""]),
    st.lists(st.integers(-2, 4), max_size=2))

_CONFIG_CASES = st.sampled_from(["fit", "generate", "eval", "pipeline"]).flatmap(
    lambda command: st.tuples(st.just(command), st.dictionaries(
        st.sampled_from(_config_keys(command)), _CONFIG_VALUES, max_size=4)))


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A 6-node, 12-snapshot recording and its k=2 model."""
    root = tmp_path_factory.mktemp("tiny")
    layers = [set(e) | {(0, 1)}
              for e in er_layers(6, 12, 0.3, np.random.default_rng(3))]
    train = write_graph(root / "train.tsv",
                        TemporalGraph(6, layers, 300, epoch=0))
    model = str(root / "model.json")
    assert main(["fit", train, "--out", model]) == 0
    return train, model


@settings(max_examples=120, deadline=None)
@given(case=_CONFIG_CASES)
@example(case=("eval", {"mu": 2}))
@example(case=("eval", {"rw_runs": 0}))
@example(case=("eval", {"distances": 5}))
@example(case=("eval", {"lambdas": 0.5}))
@example(case=("eval", {"stability": "no"}))
@example(case=("eval", {"mu": math.nan, "dynamics": "sir"}))
@example(case=("fit", {"threads": 0}))
@example(case=("fit", {"k": 0}))
@example(case=("fit", {"k": True}))
@example(case=("fit", {"periodicity": "hourly"}))
@example(case=("pipeline", {"alpha": 2}))
@example(case=("generate", {"alpha": "lots", "k": [1]}))
def test_config_file_exit_codes(tiny_inputs, case):
    """Any config object: exit 0, 1 or 2 (never 3), an error line on failure,
    and no output at all on a usage error."""
    command, conf = case
    train, model = tiny_inputs
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative paths drawn for path options land here
        try:
            conf_path = os.path.join(work, "conf.json")
            with open(conf_path, "w", encoding="utf-8") as handle:
                json.dump(conf, handle)
            out = os.path.join(work, "out")
            target = {"fit": [train, "--out", out],
                      "generate": [model, "--out", out, "--snapshots", "3"],
                      "eval": [train, train, "--out-dir", out],
                      "pipeline": [train, "--out-dir", out]}[command]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([command, *target, "--config", conf_path])
            assert code in (0, 1, 2), stderr.getvalue()
            if code:
                assert "etngen: error:" in stderr.getvalue()
            if code == 1:
                assert stdout.getvalue() == ""
                assert not os.path.exists(out)
        finally:
            os.chdir(cwd)


def _model_field_paths(doc):
    """Every top-level field of a model document, every field of its first
    cell and of that cell's first extension, and its first seed degree."""
    cell = doc["tables"][0]
    return ([(key,) for key in doc]
            + [("tables", 0, key) for key in cell]
            + [("tables", 0, "extensions", 0, key) for key in cell["extensions"][0]]
            + [("seed_degrees", 0)])


def _json_type(value):
    return type(value).__name__  # bool, int and float are distinct types


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=5),
    st.lists(st.integers(-2, 4), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 4), max_size=2))


def _load_doc(model):
    with open(model, encoding="utf-8") as handle:
        return json.load(handle)


def _slot(doc, path):
    """The container and the key of the field at `path` in `doc`."""
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _generate_retyped(model, path, value):
    """generate from the model at `model` with the field at `path` set to
    `value`: exit 2, one error line, no --out file."""
    doc = _load_doc(model)
    target, key = _slot(doc, path)
    target[key] = value
    with tempfile.TemporaryDirectory() as work:
        broken = os.path.join(work, "model.json")
        with open(broken, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(work, "out.tsv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["generate", broken, "--out", out, "--snapshots", "3"])
        assert code == 2, stderr.getvalue()
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("etngen: error:"), lines
        assert not os.path.exists(out)


@pytest.mark.parametrize("path, value", [
    (("tables", 0, "bucket"), 5), (("tables", 0, "prefix"), None),
    (("tables", 0, "extensions", 0, "sig"), 7), (("tables", 0, "depth"), 1.5),
    (("tables", 0, "extensions", 0, "count"), 2.7), (("k",), "2"),
    (("epoch",), False), (("seed_degrees",), "111111"), (("seed_degrees", 0), 1.0)])
def test_retyped_model_field_is_data_error(tiny_inputs, path, value):
    _generate_retyped(tiny_inputs[1], path, value)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_retyped_model_fields_exit_2(tiny_inputs, data):
    """Any one model field given a value of another JSON type: generate
    exits 2 with one error line and writes no surrogate."""
    model = tiny_inputs[1]
    doc = _load_doc(model)
    path = data.draw(st.sampled_from(_model_field_paths(doc)))
    target, key = _slot(doc, path)
    old = target[key]
    value = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    _generate_retyped(model, path, value)
