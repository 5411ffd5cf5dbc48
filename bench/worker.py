"""One benchmark worker, in a fresh process.

Set-up (importing etngen, generating and writing the input TSV) is timed
from the first line of this file. Then the workload's CLI steps run through
`etngen.cli.main` in this process, each followed by checks of its outputs:
each step once, or with --seconds repeated until that many seconds are
used. Set-up and step times are also reported scaled to the reference
speed (refloop.py). With --trace 1 the package's public functions are wrapped (see spans.py)
and per-layer numbers are computed from the spans and from the values the
wrapped functions receive and return. The iteration's record is written as
JSON to --record.
"""

import atexit
import time

T_START = time.perf_counter()

from refloop import HostSpeed  # noqa: E402

SPEED = HostSpeed()
SPEED.start()
# Stopped on every way out: the timer's signal would otherwise end the
# process once the interpreter drops the handler at exit.
atexit.register(SPEED.stop)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

EDGE_RATE_BAND = 0.15  # acceptance criterion 5: surrogate edges per snapshot
TOPO_ROWS = 17
DYN_ROWS_PER_START = 5  # coverage, mfpt and the three default SIR lambdas
# Relative shares of a timed run that the repeated steps get. eval, the
# longest step and most of total_s where it runs, gets the most, so that
# it runs more than once where the run has room.
TIME_SHARE = {"fit": 1.0, "generate": 1.0, "eval": 6.0}


class CheckError(Exception):
    pass


def fail_unless(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_fit(w, model_path: str) -> None:
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fail_unless(doc.get("k") == w.k and doc.get("nodes") == w.nodes,
                f"model k/nodes {doc.get('k')}/{doc.get('nodes')}")
    per_depth = {d: 0 for d in range(1, w.k + 1)}
    for cell in doc["tables"]:
        per_depth[cell["depth"]] += sum(ext["count"] for ext in cell["extensions"])
    # Every ego fills every window, empty neighborhoods included.
    for d, total in per_depth.items():
        expected = w.nodes * (w.snapshots - d)
        fail_unless(total == expected, f"depth {d}: {total} windows, expected {expected}")


def check_generate(w, surrogate_path: str, diag_path: str, input_events: int) -> None:
    with open(surrogate_path, encoding="utf-8") as fh:
        header = dict(tok.lstrip("#").split("=", 1) for tok in fh.readline().split())
        fail_unless(int(header["snapshots"]) == w.snapshots
                    and int(header["nodes"]) == w.nodes,
                    f"surrogate header {header}")
        epoch, gap = int(header["epoch"]), int(header["gap"])
        events = 0
        for line in fh:
            t, i, j = (int(x) for x in line.split("\t"))
            layer, rem = divmod(t - epoch, gap)
            fail_unless(rem == 0 and 0 <= layer < w.snapshots
                        and 0 <= i < w.nodes and 0 <= j < w.nodes and i != j,
                        f"bad surrogate event {line.strip()!r}")
            events += 1
    ratio = events / input_events
    fail_unless(abs(ratio - 1.0) <= EDGE_RATE_BAND,
                f"surrogate edge rate {ratio:.3f} x input, outside +-{EDGE_RATE_BAND}")
    with open(diag_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    fail_unless(len(rows) - 1 == w.snapshots - 1, f"{len(rows) - 1} diagnostics rows")


def check_eval(w, out_dir: str) -> None:
    with open(os.path.join(out_dir, "distances_topo.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fail_unless(len(rows) == TOPO_ROWS, f"{len(rows)} topology rows")
    for row in rows:
        fail_unless(row["ks"] != "" and 0.0 <= float(row["ks"]) <= 1.0,
                    f"{row['metric']}: ks {row['ks']!r}")
    if "--dynamics" in w.eval_args:
        starts = w.eval_args[w.eval_args.index("--starts") + 1].split(",")
        with open(os.path.join(out_dir, "distances_dyn.csv"), encoding="utf-8") as fh:
            n = sum(1 for _ in csv.DictReader(fh))
        fail_unless(n == DYN_ROWS_PER_START * len(starts), f"{n} dynamics rows")


def install_tracer(tracer, state: dict) -> None:
    """Wrap the public functions and read counts from their values."""
    from etngen.model import FALLBACK_NONE
    counts = tracer.counts

    def graph_sizes(graph) -> None:
        counts["tempgraph.events"] += graph.n_events
        counts["tempgraph.snapshots"] += graph.n_snapshots

    def on_parse(graph, args, kwargs) -> None:
        graph_sizes(graph)
        state.setdefault("input_graph", graph)

    def on_mine(mined, args, kwargs) -> None:
        sigs = set()
        for per_depth in mined.table.values():
            for ctr in per_depth.values():
                counts["etn.windows"] += sum(ctr.values())
                sigs.update(ctr)
        counts["etn.distinct_signatures"] += len(sigs)

    def on_fit(model, args, kwargs) -> None:
        counts["model.cells"] += len(model.tables)
        counts["model.prefixes"] += len({(key[1], key[2]) for key in model.tables})

    def on_generate(surrogate, args, kwargs) -> None:
        fallbacks = args[0].fallback_counts
        counts["model.lookups"] += sum(fallbacks.values())
        counts["model.exact_cell_hits"] += fallbacks[FALLBACK_NONE]
        for d in kwargs.get("diagnostics") or ():
            for field in ("reciprocal", "one_directional", "stub_edges",
                          "dropped_requests", "dropped_stubs"):
                counts[f"gen.{field}"] += getattr(d, field)

    def on_propose(prov, args, kwargs) -> None:
        counts["gen.requests"] += len(prov.requests)
        counts["gen.stubs"] += len(prov.stubs)

    def on_hour_slices(slices, args, kwargs) -> None:
        counts["metrics.hours_nonempty"] += sum(1 for agg in slices if agg.n_edges)

    def on_coverage(res, args, kwargs) -> None:
        counts["dynamics.rw_walks"] += len(res.samples)

    def on_mfpt(res, args, kwargs) -> None:
        counts["dynamics.mfpt_walks"] += len(res.samples) + res.censored
        counts["dynamics.mfpt_censored"] += res.censored

    def on_sir(res, args, kwargs) -> None:
        counts["dynamics.sir_runs"] += len(res.samples)

    wraps = [
        ("etngen.cli", "parse_edge_list", "tempgraph.parse_edge_list", on_parse),
        ("etngen.cli", "write_edge_list", "tempgraph.write_edge_list",
         lambda res, args, kw: graph_sizes(args[0])),
        ("etngen.etn", "mine_counts", "etn.mine_counts", on_mine),
        ("etngen.model", "fit", "model.fit", on_fit),
        ("etngen.model", "save_model", "model.save_model", None),
        ("etngen.model", "load_model", "model.load_model", None),
        ("etngen.gen", "generate", "gen.generate", on_generate),
        ("etngen.gen", "seed_layer", "gen.seed_layer", None),
        ("etngen.gen", "propose_layer", "gen.propose_layer", on_propose),
        ("etngen.gen", "validate_layer", "gen.validate_layer", None),
        ("etngen.metrics", "compare", "metrics.compare", None),
        ("etngen.metrics", "compute_report", "metrics.compute_report", None),
        ("etngen.metrics", "snapshot_metrics", "metrics.snapshot_metrics", None),
        ("etngen.metrics", "contact_durations", "metrics.contact_durations", None),
        ("etngen.metrics", "hour_metrics", "metrics.hour_metrics", None),
        ("etngen.metrics", "aggregated_metrics", "metrics.aggregated_metrics", None),
        ("etngen.metrics", "hour_slices", "tempgraph.hour_slices", on_hour_slices),
        ("etngen.metrics", "aggregate", "tempgraph.aggregate", None),
        ("etngen.dynamics", "coverage_result", "dynamics.coverage_result", on_coverage),
        ("etngen.dynamics", "mfpt_result", "dynamics.mfpt_result", on_mfpt),
        ("etngen.dynamics", "sir_result", "dynamics.sir_result", on_sir),
    ]
    for module, attr, name, hook in wraps:
        tracer.wrap(module, attr, name, on_return=hook)
    # About one call per ego per generated layer: counted, not spanned.
    tracer.wrap("etngen.gen", "sample_extension", "model.sample_extension", hot=True)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, model_bytes: int) -> dict[str, float]:
    """Per-layer metric values named as in BENCHMARK.json's per_layer list."""
    self_s = tracer.self_seconds()
    c = tracer.counts
    out = {}
    for name in ("tempgraph.parse_edge_list", "tempgraph.write_edge_list",
                 "tempgraph.hour_slices", "tempgraph.aggregate", "etn.mine_counts",
                 "model.fit", "model.save_model", "model.load_model",
                 "model.sample_extension", "gen.generate", "gen.seed_layer",
                 "gen.propose_layer", "gen.validate_layer", "metrics.compute_report",
                 "metrics.snapshot_metrics", "metrics.contact_durations",
                 "metrics.hour_metrics", "metrics.aggregated_metrics",
                 "dynamics.coverage_result", "dynamics.mfpt_result",
                 "dynamics.sir_result"):
        out[f"{name}_s"] = self_s.get(name, 0.0)
    out["metrics.distances_s"] = self_s.get("metrics.compare", 0.0)
    for step in ("fit", "generate", "eval"):
        out[f"cli.{step}.self_s"] = self_s.get(f"cli.{step}", 0.0)
    for name in ("tempgraph.events", "tempgraph.snapshots", "etn.windows",
                 "etn.distinct_signatures", "model.cells", "model.prefixes",
                 "model.lookups", "gen.requests", "gen.stubs", "gen.reciprocal",
                 "gen.one_directional", "gen.stub_edges", "gen.dropped_requests",
                 "gen.dropped_stubs", "metrics.hours_nonempty", "dynamics.rw_walks",
                 "dynamics.mfpt_walks", "dynamics.sir_runs"):
        out[name] = c[name]
    out["model.file_bytes"] = model_bytes
    out["model.fallback_bucket_ratio"] = ratio(c["model.exact_cell_hits"], c["model.lookups"])
    edges = c["gen.reciprocal"] + c["gen.one_directional"] + c["gen.stub_edges"]
    out["gen.edges"] = edges
    out["gen.edge_yield"] = ratio(edges, c["gen.requests"] + c["gen.stubs"])
    out["dynamics.mfpt_censored_ratio"] = ratio(c["dynamics.mfpt_censored"],
                                                c["dynamics.mfpt_walks"])
    # Wall time of each generated layer: its propose plus its validate call.
    durations = {"gen.propose_layer": [], "gen.validate_layer": []}
    for rec in tracer.spans:
        if rec["name"] in durations:
            durations[rec["name"]].append(rec["end"] - rec["start"])
    layer_ms = [1000.0 * (p + v) for p, v in zip(*durations.values())]
    if len(layer_ms) >= 2:
        cuts = statistics.quantiles(layer_ms, n=100, method="inclusive")
        out["gen.layer_p50_ms"], out["gen.layer_p99_ms"] = cuts[49], cuts[98]
    else:
        out["gen.layer_p50_ms"] = out["gen.layer_p99_ms"] = sum(layer_ms)
    return out


def time_mining_pool(graph, k: int) -> dict[str, float]:
    """mine_counts on the parsed input with one and with two workers."""
    from etngen.etn import mine_counts
    from etngen.tempgraph import resolve_periodicity
    periodicity = resolve_periodicity(graph)
    out = {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        mine_counts(graph, k, periodicity, threads=threads)
        out[f"etn.mine_counts.w{threads}_s"] = time.perf_counter() - t0
    return out


def next_step(steps: list[str], runs: dict[str, list[float]],
              cost: dict[str, float], left_s: float | None) -> str | None:
    """The step to run next, or None when the run is over.

    Every step runs once first, in order. With a time budget, steps then
    repeat while one still fits in the seconds left: each time the step
    that is furthest below its share of the time (TIME_SHARE), so that
    every step's samples spread over the whole run rather than over a few
    seconds of a machine whose speed drifts.
    """
    for step in steps:
        if not runs[step]:
            return step
    if left_s is None:
        return None
    fitting = [s for s in steps if cost[s] <= left_s]
    return min(fitting, key=lambda s: sum(runs[s]) / TIME_SHARE[s], default=None)


def run_steps(cli_main, steps: list[str], commands: dict, seconds: float | None,
              tracer, speed, warm_up: tuple[str, ...] = ()) -> dict:
    """Run and check the steps until next_step ends the run.

    Returns each step's run times, their times at the reference speed
    (empty without `speed`, the host's sampled speed), the failures, the
    runs made and the peak RSS once every step has run. A run stops at its
    first failure. The first run of each step in `warm_up` is checked but
    not timed.
    """
    runs: dict[str, list[float]] = {step: [] for step in steps}
    scaled: dict[str, list[float]] = {step: [] for step in steps}
    cost: dict[str, float] = {}  # longest wall time of a step, its checks included
    errors: list[str] = []
    made: list[str] = []
    cold = set(warm_up)
    peak_rss_mb = None
    while True:
        left_s = seconds - (time.perf_counter() - T_START) if seconds is not None else None
        step = next_step(steps, runs, cost, left_s)
        if step is None:
            break
        argv, check = commands[step]
        made.append(step)
        t0 = time.perf_counter()
        if step in cold:
            cold.discard(step)
            code = cli_main(argv)
        else:
            mark = speed.mark() if speed else None
            with tracer.span(f"cli.{step}") if tracer else nullcontext():
                code = cli_main(argv)
            if speed:
                wall, ref_s = speed.scaled(mark)
                runs[step].append(wall)
                scaled[step].append(ref_s)
            else:
                runs[step].append(time.perf_counter() - t0)
        try:
            fail_unless(code == 0, f"exit code {code}")
            check()
        except (CheckError, OSError, ValueError, KeyError) as exc:
            errors.append(f"{step}: {exc}")
            break
        cost[step] = max(cost.get(step, 0.0), time.perf_counter() - t0)
        # Peak memory after the first round, which every run makes: later
        # repeats, as many as the host's speed allows, grow the heap.
        if peak_rss_mb is None and all(runs.values()):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if peak_rss_mb is None:  # the run failed before every step ran
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"runs": runs, "scaled": scaled, "errors": errors, "made": made,
            "peak_rss_mb": peak_rss_mb}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float,
                    help="repeat steps until this many seconds from process start "
                         "are used (default: run each step once)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import etngen
    import etngen.cli
    if Path(etngen.__file__).resolve().parent != src / "etngen":
        raise SystemExit(f"imported etngen from {etngen.__file__}, not from {src}")
    from workloads import WORKLOADS, contact_layers, write_tsv

    w = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    path = {name: os.path.join(args.workdir, name) for name in
            ("input.tsv", "model.json", "surrogate.tsv", "diagnostics.csv", "eval")}
    input_events = write_tsv(w, contact_layers(w, args.seed), path["input.tsv"])
    setup_raw_s, setup_s = SPEED.scaled((T_START, 0, 0.0))
    if args.setup_only:
        SPEED.stop()
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                       "loop_samples": len(SPEED.samples)}, fh)
        return 0

    seed = str(args.seed)
    commands = {
        "fit": (["fit", path["input.tsv"], "--out", path["model.json"], "--k", str(w.k),
                 "--threads", str(w.threads), "--seed", seed],
                lambda: check_fit(w, path["model.json"])),
        "generate": (["generate", path["model.json"], "--out", path["surrogate.tsv"],
                      "--snapshots", str(w.snapshots), "--seed", seed,
                      "--diagnostics", path["diagnostics.csv"]],
                     lambda: check_generate(w, path["surrogate.tsv"],
                                            path["diagnostics.csv"], input_events)),
    }
    if w.eval_args is not None:
        commands["eval"] = (["eval", path["input.tsv"], path["surrogate.tsv"],
                             "--out-dir", path["eval"], "--seed", seed, *w.eval_args],
                            lambda: check_eval(w, path["eval"]))
    steps = list(commands)  # in dependency order

    tracer = None
    state: dict = {}
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        install_tracer(tracer, state)

    # Step times at the reference speed (refloop.py), each the mean of the
    # step's runs. In a timed run the first fit in the process, 5-15%
    # slower than later ones, is not timed. Per-layer times of a traced run
    # are raw wall times.
    done = run_steps(etngen.cli.main, steps, commands, args.seconds, tracer, SPEED,
                     warm_up=("fit",) if args.seconds is not None else ())
    SPEED.stop()
    steps_s = {step: statistics.mean(t) for step, t in done["scaled"].items() if t}
    runs, errors = done["runs"], done["errors"]
    steps_raw_s = {step: statistics.mean(t) for step, t in runs.items() if t}
    unrun = sum(1 for step in steps if step not in done["made"])

    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        # A step left unrun after a failure counts as failed too.
        "attempted": len(done["made"]) + unrun,
        "failed": len(errors) + unrun,
        "errors": errors,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "step_runs_s": runs,
        "step_scaled_s": done["scaled"],
        "loop_samples": len(SPEED.samples),
        "steps_raw_s": steps_raw_s,
        "steps_s": steps_s,
        "total_s": sum(steps_s.values()),
        "peak_rss_mb": done["peak_rss_mb"],
        "input": {"events": input_events, "snapshots": w.snapshots},
        "versions": {"python": platform.python_version(),
                     "numpy": sys.modules["numpy"].__version__,
                     "networkx": sys.modules["networkx"].__version__},
    }
    if tracer is not None:
        tracer.unwrap_all()
        layers = layer_metrics(tracer, os.path.getsize(path["model.json"])
                               if os.path.exists(path["model.json"]) else 0)
        if "input_graph" in state:
            layers.update(time_mining_pool(state["input_graph"], w.k))
        record["layers"] = layers
        record["spans"] = tracer.dump()
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
