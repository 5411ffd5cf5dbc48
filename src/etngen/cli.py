"""Command-line pipeline: fit a model, generate surrogates, evaluate them.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
inconsistent inputs), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Sequence

from . import dynamics as dyn
from . import etn as etn_mod
from . import gen as gen_mod
from . import metrics as metrics_mod
from . import model as model_mod
from .tempgraph import (MAX_NODES, PERIODICITIES, ParseError, TemporalGraph,
                        parse_edge_list, require_hour_aligned,
                        resolve_periodicity, write_edge_list)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_START_TOKENS = {"t0": dyn.START_T0, "half": dyn.START_HALF,
                 "peak": dyn.START_FIRST_PEAK}
_PROBE_TOKENS = {probe: probe for probe in ("rw", "mfpt", "sir")}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _int_in(text: str, low: int, high: int | None = None) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_in(text, 1)


def non_negative_int(text: str) -> int:
    return _int_in(text, 0)


def node_count(text: str) -> int:
    """A generated node count: a layer needs two nodes for an edge, and a
    temporal graph holds at most `MAX_NODES`."""
    return _int_in(text, 2, MAX_NODES)


def probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a probability in [0,1], "
                                         f"got {text!r}")
    return value


def _alpha(text: str) -> str | float:
    """'auto' (resolved against the model by _generate_stage) or a probability."""
    return text if text == "auto" else probability(text)


def _token(values: dict[str, str]):
    def parse(text: str) -> str:
        if text not in values:
            raise argparse.ArgumentTypeError(
                f"unknown token {text!r} (expected {', '.join(values)})")
        return values[text]
    return parse


def _comma_list(item, allow_empty: bool = False):
    """A `type` for a comma list, each element checked by `item`."""
    def parse(text: str) -> tuple:
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not tokens and not allow_empty:
            raise argparse.ArgumentTypeError("must name at least one value")
        return tuple(map(item, tokens))
    return parse


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="etngen",
                     description="Surrogate temporal networks from egocentric "
                                 "temporal neighborhoods.")
    subs = parser.add_subparsers(dest="command", required=True)
    sub_map: dict[str, _Parser] = {}

    def add_common(p: _Parser) -> None:
        p.add_argument("--seed", type=non_negative_int, default=0,
                       help="rng seed, >= 0 (default 0)")
        p.add_argument("--config", default=None,
                       help="JSON object of option values for this subcommand, "
                            "each checked as its flag; explicit flags win")

    def add_fit_args(p: _Parser) -> None:
        p.add_argument("--gap", type=positive_int, default=None,
                       help="snapshot width in seconds; needed for a headerless "
                            "input, must match a #gap header")
        p.add_argument("--k", type=positive_int, default=2,
                       help="window depth (default 2)")
        p.add_argument("--periodicity", choices=("auto",) + PERIODICITIES,
                       default="auto")
        p.add_argument("--threads", type=positive_int, default=1,
                       help="most mining threads (default 1)")

    def add_eval_args(p: _Parser) -> None:
        # String defaults go through `type` like any given value.
        p.add_argument("--starts", type=_comma_list(_token(_START_TOKENS)),
                       default="t0,half,peak",
                       help="comma list of one or more of t0,half,peak")
        p.add_argument("--distances", default="ks,js,kl,emd",
                       type=_comma_list(_token({name: name for name in
                                                metrics_mod.DISTANCE_FUNCS})),
                       help="comma list of one or more of ks,js,kl,emd")
        p.add_argument("--dynamics", default="",
                       type=_comma_list(_token(_PROBE_TOKENS), allow_empty=True),
                       help="comma list of rw,mfpt,sir (empty: topology only)")
        p.add_argument("--lambdas", type=_comma_list(probability),
                       default="0.25,0.13,0.01",
                       help="comma list of SIR transmission probabilities in [0,1]")
        p.add_argument("--mu", type=probability, default="0.055",
                       help="SIR recovery probability in [0,1]")
        p.add_argument("--rw-runs", type=positive_int, default=1000,
                       help="coverage walks, >= 1")
        p.add_argument("--mfpt-repeats", type=positive_int, default=5,
                       help="first-passage walks per source node; each walk "
                            "gives one sample per target")
        p.add_argument("--sir-runs", type=positive_int, default=100,
                       help="SIR epidemics per start and lambda, >= 1")
        p.add_argument("--stability", action="store_true",
                       help="also compare the original against a re-simulation "
                            "of itself with seed+1")
        p.add_argument("--dump-samples", action="store_true",
                       help="write raw topological metric samples")

    p_fit = subs.add_parser("fit", parents=[], help="mine and fit a model")
    p_fit.add_argument("input", help="edge list (t<TAB>i<TAB>j)")
    p_fit.add_argument("--out", required=True, help="model JSON path")
    p_fit.add_argument("--counts-out", default=None,
                       help="optional raw signature count dump")
    add_fit_args(p_fit)
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)
    sub_map["fit"] = p_fit

    p_gen = subs.add_parser("generate", help="generate a surrogate edge list")
    p_gen.add_argument("model", help="model JSON from fit")
    p_gen.add_argument("--out", required=True, help="surrogate edge list path")
    p_gen.add_argument("--snapshots", type=positive_int, required=True,
                       help="number of layers to generate")
    p_gen.add_argument("--nodes", type=node_count, default=None,
                       help="node count (default: model's native)")
    p_gen.add_argument("--k", type=positive_int, default=None,
                       help="window depth (default: model k)")
    p_gen.add_argument("--alpha", type=_alpha, default="0.5",
                       help="one-directional acceptance in [0,1], or 'auto' "
                            "to preserve training density under expansion")
    p_gen.add_argument("--epoch", type=int, default=None,
                       help="wall-clock start (default: model epoch)")
    p_gen.add_argument("--seed-degrees", default=None,
                       help="file with one seed-layer degree per line")
    p_gen.add_argument("--diagnostics", default=None,
                       help="per-layer validation counts CSV")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)
    sub_map["generate"] = p_gen

    p_eval = subs.add_parser("eval", help="compare original vs surrogate")
    p_eval.add_argument("original")
    p_eval.add_argument("surrogate")
    p_eval.add_argument("--out-dir", required=True)
    p_eval.add_argument("--gap", type=positive_int, default=None,
                        help="snapshot width for headerless inputs")
    add_eval_args(p_eval)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)
    sub_map["eval"] = p_eval

    p_pipe = subs.add_parser("pipeline", help="fit, generate and eval in one go")
    p_pipe.add_argument("input")
    p_pipe.add_argument("--out-dir", required=True)
    p_pipe.add_argument("--nodes", type=node_count, default=None)
    p_pipe.add_argument("--snapshots", type=positive_int, default=None,
                        help="layers to generate (default: input length)")
    p_pipe.add_argument("--alpha", type=_alpha, default="0.5",
                        help="as for generate: a probability in [0,1] or 'auto'")
    add_fit_args(p_pipe)
    add_eval_args(p_pipe)
    add_common(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)
    sub_map["pipeline"] = p_pipe

    return parser, sub_map


def _load_graph(path: str, gap: int | None) -> TemporalGraph:
    with open(path, encoding="utf-8") as handle:
        return parse_edge_list(handle, gap_seconds=gap)


def _load_eval_graph(path: str, gap: int | None) -> TemporalGraph:
    """A graph to evaluate; it needs a snapshot, and its hour slices an
    hour-aligned gap, checked here before any output or fitting."""
    g = _load_graph(path, gap)
    if g.n_snapshots < 1:
        raise ValueError(f"{path}: need at least one snapshot")
    require_hour_aligned(g.gap_seconds)
    return g


def _check_starts(g: TemporalGraph, path: str, args: argparse.Namespace) -> None:
    """`dynamics.check_starts`, its error naming the graph's file."""
    try:
        dyn.check_starts(g, args.starts, args.dynamics)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _fit_stage(g: TemporalGraph, args: argparse.Namespace, model_path: str
               ) -> tuple[etn_mod.MinedCounts, model_mod.LocalModel]:
    """Mine the input at the resolved periodicity, fit and save."""
    periodicity = args.periodicity
    if periodicity == "auto":
        periodicity = resolve_periodicity(g)
    counts = etn_mod.mine_counts(g, args.k, periodicity, threads=args.threads)
    model = model_mod.fit(counts)
    with open(model_path, "w", encoding="utf-8") as handle:
        model_mod.save_model(model, handle)
    return counts, model


def cmd_fit(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.gap)
    counts, model = _fit_stage(g, args, args.out)
    if args.counts_out:
        with open(args.counts_out, "w", encoding="utf-8") as handle:
            etn_mod.write_counts(counts, handle)
    buckets = {key[0] for key in model.tables}
    prefixes = {(key[1], key[2]) for key in model.tables}
    signatures = {sig for dist in model.tables.values()
                  for sig, _ in dist.extensions}
    print(f"fit: nodes={g.node_count} snapshots={g.n_snapshots} k={args.k} "
          f"periodicity={counts.periodicity} buckets={len(buckets)} "
          f"prefixes={len(prefixes)} signatures={len(signatures)} "
          f"-> {args.out}")
    return EXIT_OK


def _read_degrees(path: str, n_nodes: int) -> tuple[int, ...]:
    """One seed-layer degree per line; a simple graph on `n_nodes` nodes
    carries only degrees 0..n_nodes-1."""
    degrees: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                degree = int(line)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad degree {line!r}") from exc
            if not 0 <= degree < n_nodes:
                raise ParseError(f"{path}:{lineno}: degree {degree} outside "
                                 f"0..{n_nodes - 1} for {n_nodes} nodes")
            degrees.append(degree)
    return tuple(degrees)


def _generate_stage(model: model_mod.LocalModel, args: argparse.Namespace,
                    n_snapshots: int, out_path: str, diag_path: str | None,
                    epoch: int | None = None, degrees_path: str | None = None
                    ) -> tuple[TemporalGraph, gen_mod.GenConfig]:
    """Build the config, generate, write the surrogate and, given a path,
    the per-layer diagnostics."""
    n_nodes = args.nodes if args.nodes is not None else model.node_count
    seed_degrees = _read_degrees(degrees_path, n_nodes) if degrees_path else None
    alpha = args.alpha
    if alpha == "auto":
        alpha = gen_mod.expansion_alpha(model.node_count, n_nodes)
        print(f"alpha=auto resolved to {alpha:.2f} "
              f"(model nodes {model.node_count}, target {n_nodes})")
    cfg = gen_mod.GenConfig(
        n_nodes=n_nodes,
        n_snapshots=n_snapshots,
        k=args.k if args.k is not None else model.k,
        alpha=alpha,
        seed=args.seed,
        epoch=epoch,
        seed_degrees=seed_degrees,
    )
    diags: list[gen_mod.LayerDiagnostics] | None = [] if diag_path else None
    surrogate = gen_mod.generate(model, cfg, diagnostics=diags)
    with open(out_path, "w", encoding="utf-8") as handle:
        write_edge_list(surrogate, handle)
    if diag_path:
        with open(diag_path, "w", encoding="utf-8", newline="") as handle:
            gen_mod.write_diagnostics(diags, handle)
    return surrogate, cfg


def cmd_generate(args: argparse.Namespace) -> int:
    with open(args.model, encoding="utf-8") as handle:
        model = model_mod.load_model(handle)
    # GenConfig.validate's limits on k, as usage errors, before generating.
    if args.k is not None and args.k > model.k:
        raise UsageError(f"--k must be <= the model's k = {model.k}, got {args.k}")
    k = args.k if args.k is not None else model.k
    if args.snapshots <= k:
        raise UsageError(f"--snapshots must be > --k = {k}, got {args.snapshots}")
    surrogate, cfg = _generate_stage(model, args, args.snapshots, args.out,
                                     args.diagnostics, args.epoch,
                                     args.seed_degrees)
    print(f"generate: nodes={surrogate.node_count} "
          f"snapshots={surrogate.n_snapshots} events={surrogate.n_events} "
          f"alpha={cfg.alpha:.4g} seed={args.seed} -> {args.out}")
    return EXIT_OK


def _sample_path(out_dir: str, probe: str, which: str, start: str,
                 lam: float | None) -> str:
    suffix = f"_lam{lam:g}" if lam is not None else ""
    return os.path.join(out_dir, f"samples_{probe}_{which}_{start}{suffix}.csv")


def _write_value_column(path: str, values: Sequence[float]) -> None:
    """A one-column CSV of `values` under the header `value`, in one write:
    the bytes `csv.writer` gives, CRLF line ends included."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("value\r\n" + "%s\r\n" * len(values) % tuple(values))


def _write_series(path: str, series: Sequence[float]) -> None:
    """A `step,value` CSV of `series`, values to 10 significant digits, in
    one write: the bytes `csv.writer` gives."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        rows = "".join(f"{step},{v:.10g}\r\n" for step, v in enumerate(series))
        handle.write("step,value\r\n" + rows)


def _dyn_samples(report: dyn.DynReport
                 ) -> dict[tuple[str, str, float | None], list[int]]:
    """Samples per dynamics-table row (probe, start, lambda), in row order;
    lambda is None except for SIR."""
    rows: dict[tuple[str, str, float | None], list[int]] = {}
    rows.update((("coverage", start, None), res.samples)
                for start, res in report.coverage.items())
    rows.update((("mfpt", start, None), res.samples)
                for start, res in report.mfpt.items())
    rows.update((("sir_r0", start, lam), res.samples)
                for (start, lam), res in report.sir.items())
    return rows


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if len(values) else math.nan


def _write_dyn_distances(path: str, rep_a: dyn.DynReport, rep_b: dyn.DynReport,
                         distances: Sequence[str]) -> None:
    rows_b = _dyn_samples(rep_b)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["probe", "start", "lambda", *distances,
                         "n_a", "n_b", "mean_a", "mean_b"])
        for (probe, start, lam), a in _dyn_samples(rep_a).items():
            b = rows_b[(probe, start, lam)]
            writer.writerow([probe, start, "" if lam is None else f"{lam:g}",
                             *map(metrics_mod.format_cell,
                                  metrics_mod.distances_between(distances, a, b)),
                             len(a), len(b), metrics_mod.format_cell(_mean(a)),
                             metrics_mod.format_cell(_mean(b))])


def _dump_dyn_outputs(out_dir: str, which: str, report: dyn.DynReport) -> None:
    for (probe, start, lam), samples in _dyn_samples(report).items():
        _write_value_column(_sample_path(out_dir, probe, which, start, lam), samples)
    for start, cov in report.coverage.items():
        _write_series(os.path.join(out_dir, f"series_visited_{which}_{start}.csv"),
                      cov.visited_series)
    for (start, lam), sir in report.sir.items():
        _write_series(os.path.join(out_dir,
                                   f"series_infected_{which}_{start}_lam{lam:g}.csv"),
                      sir.infected_series)


def _side(graph: TemporalGraph, louvain_seed: int, base: dyn.DynConfig | None,
          run_args: tuple) -> tuple[metrics_mod.MetricReport, dyn.DynReport | None]:
    """One graph's side of an eval: its topology report and, given a
    dynamics config, its dynamics report."""
    report = metrics_mod.compute_report(graph, louvain_seed=louvain_seed)
    if base is None:
        return report, None
    return report, dyn.run_dynamics(graph, base, *run_args)


def _run_eval(g_orig: TemporalGraph, g_gen: TemporalGraph,
              args: argparse.Namespace) -> None:
    """Compare the two graphs and write every output.

    The surrogate's side, then the --stability re-run of the original's
    dynamics, run in one forked worker while this process computes the
    original's side; every output is written afterwards. Each job is a
    serial library call on its own seed, so the bytes do not depend on this.
    The worker is a process, not a thread as mining's are, because a side's
    work is Python-bound; forked, not spawned or served, because a fresh
    interpreter would import this package again, costing more than the side.
    """
    if g_orig.gap_seconds != g_gen.gap_seconds:
        raise ValueError(f"gap mismatch: original {g_orig.gap_seconds}s vs "
                         f"surrogate {g_gen.gap_seconds}s")
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    base = dyn.DynConfig(rw_runs=args.rw_runs, mfpt_repeats=args.mfpt_repeats,
                         sir_runs=args.sir_runs, mu=args.mu,
                         seed=args.seed) if args.dynamics else None
    run_args = (args.starts, args.lambdas, args.dynamics)
    stability = base is not None and args.stability
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        gen_side = pool.submit(_side, g_gen, args.seed, base, run_args)
        if stability:
            orig_again = pool.submit(dyn.run_dynamics, g_orig,
                                     replace(base, seed=args.seed + 1), *run_args)
        topo_orig, rep_orig = _side(g_orig, args.seed, base, run_args)
        topo_gen, rep_gen = gen_side.result()
        rep_orig2 = orig_again.result() if stability else None

    report = metrics_mod.compare(topo_orig, topo_gen, distances=args.distances)
    topo_path = os.path.join(out_dir, "distances_topo.csv")
    with open(topo_path, "w", encoding="utf-8", newline="") as handle:
        metrics_mod.write_distances_csv(report, handle)
    print(f"eval: wrote {topo_path}")

    if args.dump_samples:
        for which, rep in (("orig", topo_orig), ("gen", topo_gen)):
            path = os.path.join(out_dir, f"metric_samples_{which}.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                metrics_mod.write_samples_csv(rep, handle)

    if base is None:
        return
    dyn_path = os.path.join(out_dir, "distances_dyn.csv")
    _write_dyn_distances(dyn_path, rep_orig, rep_gen, args.distances)
    _dump_dyn_outputs(out_dir, "orig", rep_orig)
    _dump_dyn_outputs(out_dir, "gen", rep_gen)
    print(f"eval: wrote {dyn_path}")
    if stability:
        stab_path = os.path.join(out_dir, "distances_dyn_stability.csv")
        _write_dyn_distances(stab_path, rep_orig, rep_orig2, args.distances)
        print(f"eval: wrote {stab_path}")


def cmd_eval(args: argparse.Namespace) -> int:
    g_orig = _load_eval_graph(args.original, args.gap)
    g_gen = _load_eval_graph(args.surrogate, args.gap)
    _check_starts(g_orig, args.original, args)
    _check_starts(g_gen, args.surrogate, args)
    _run_eval(g_orig, g_gen, args)
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    # Generation grows each layer from the k before it (GenConfig.validate);
    # checked here, before reading the input, mining or writing anything.
    if args.snapshots is not None and args.snapshots <= args.k:
        raise UsageError(f"--snapshots must be > --k = {args.k}, "
                         f"got {args.snapshots}")
    g = _load_eval_graph(args.input, args.gap)
    _check_starts(g, args.input, args)
    os.makedirs(args.out_dir, exist_ok=True)
    model_path = os.path.join(args.out_dir, "model.json")
    _, model = _fit_stage(g, args, model_path)
    n_snapshots = args.snapshots if args.snapshots is not None else g.n_snapshots
    surrogate_path = os.path.join(args.out_dir, "surrogate.tsv")
    surrogate, _ = _generate_stage(model, args, n_snapshots, surrogate_path,
                                   os.path.join(args.out_dir, "diagnostics.csv"))
    _check_starts(surrogate, f"generated surrogate {surrogate_path}", args)
    print(f"pipeline: fitted {model_path}, generated {surrogate_path} "
          f"({surrogate.n_events} events)")

    _run_eval(g, surrogate, args)
    return EXIT_OK


def _config_tokens(sub: _Parser, conf: object) -> list[str]:
    """A --config object as option tokens, so that each value meets exactly
    its flag's check: a switch takes a JSON boolean, null keeps the default."""
    if not isinstance(conf, dict):
        raise UsageError("--config file must hold a JSON object")
    options = {action.dest: action for action in sub._actions
               if action.option_strings and action.dest not in ("help", "config")}
    unknown = sorted(set(conf) - set(options))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in conf.items():
        action = options[key]
        flag = action.option_strings[0]
        if value is None:
            continue
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} is a switch: "
                                 f"expected true or false")
            tokens += [flag] if value else []
        elif isinstance(value, (list, dict)):
            raise UsageError(f"config key {key!r} must be a single value")
        else:
            text = value if isinstance(value, str) else json.dumps(value)
            tokens.append(f"{flag}={text}")
    return tokens


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub_map = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            with open(args.config, encoding="utf-8") as handle:
                conf = json.load(handle)
            # Config tokens go before the explicit ones, which win.
            args = parser.parse_args([argv[0], *_config_tokens(
                sub_map[args.command], conf), *argv[1:]])
    except UsageError as exc:
        print(f"etngen: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (OSError, json.JSONDecodeError, RecursionError,
            UnicodeDecodeError) as exc:
        print(f"etngen: error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"etngen: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, model_mod.ModelFormatError, model_mod.FitError,
            ValueError, OSError) as exc:
        print(f"etngen: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"etngen: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
