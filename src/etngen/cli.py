"""Command-line pipeline: fit a model, generate surrogates, evaluate them.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
inconsistent inputs), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from . import dynamics as dyn
from . import etn as etn_mod
from . import gen as gen_mod
from . import metrics as metrics_mod
from . import model as model_mod
from .tempgraph import (PERIODICITIES, ParseError, TemporalGraph,
                        parse_edge_list, require_hour_aligned,
                        resolve_periodicity, write_edge_list)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_START_TOKENS = {"t0": dyn.START_T0, "half": dyn.START_HALF,
                 "peak": dyn.START_FIRST_PEAK}
_PROBE_TOKENS = ("rw", "mfpt", "sir")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _csv_tokens(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="etngen",
                     description="Surrogate temporal networks from egocentric "
                                 "temporal neighborhoods.")
    subs = parser.add_subparsers(dest="command", required=True)
    sub_map: dict[str, _Parser] = {}

    def add_common(p: _Parser) -> None:
        p.add_argument("--seed", type=int, default=0,
                       help="rng seed (default 0)")
        p.add_argument("--config", default=None,
                       help="JSON file with defaults for this subcommand; "
                            "explicit flags win")

    def add_fit_args(p: _Parser) -> None:
        p.add_argument("--gap", type=positive_int, default=None,
                       help="snapshot width in seconds; needed for a headerless "
                            "input, must match a #gap header")
        p.add_argument("--k", type=positive_int, default=2,
                       help="window depth (default 2)")
        p.add_argument("--periodicity", choices=("auto",) + PERIODICITIES,
                       default="auto")
        # argparse runs a string default through `type`, so a bad
        # $ETNGEN_THREADS is a usage error like a bad --threads.
        p.add_argument("--threads", type=positive_int,
                       default=os.environ.get("ETNGEN_THREADS", "1"),
                       help="mining workers (default $ETNGEN_THREADS or 1)")

    def add_eval_args(p: _Parser) -> None:
        p.add_argument("--starts", default="t0,half,peak",
                       help="comma list of t0,half,peak")
        p.add_argument("--distances", default="ks,js,kl,emd")
        p.add_argument("--dynamics", default="",
                       help="comma list of rw,mfpt,sir (empty: topology only)")
        p.add_argument("--lambdas", default="0.25,0.13,0.01",
                       help="SIR transmission probabilities")
        p.add_argument("--mu", type=float, default=0.055)
        p.add_argument("--rw-runs", type=positive_int, default=1000)
        p.add_argument("--mfpt-repeats", type=positive_int, default=5,
                       help="first-passage walks per source node; each walk "
                            "gives one sample per target")
        p.add_argument("--sir-runs", type=positive_int, default=100)
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
    p_gen.add_argument("--nodes", type=positive_int, default=None,
                       help="node count (default: model's native)")
    p_gen.add_argument("--k", type=positive_int, default=None,
                       help="window depth (default: model k)")
    p_gen.add_argument("--alpha", default="0.5",
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
    p_pipe.add_argument("--nodes", type=positive_int, default=None)
    p_pipe.add_argument("--snapshots", type=positive_int, default=None,
                        help="layers to generate (default: input length)")
    p_pipe.add_argument("--alpha", default="0.5")
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
    """A graph to evaluate; its hour slices need an hour-aligned gap, checked
    here before any output or fitting."""
    g = _load_graph(path, gap)
    require_hour_aligned(g.gap_seconds)
    return g


def _resolve_alpha(text: str, model: model_mod.LocalModel, n_nodes: int) -> float:
    if text == "auto":
        alpha = gen_mod.expansion_alpha(model.node_count, n_nodes)
        print(f"alpha=auto resolved to {alpha:.2f} "
              f"(model nodes {model.node_count}, target {n_nodes})")
        return alpha
    try:
        alpha = float(text)
    except ValueError:
        raise UsageError(f"--alpha must be a number or 'auto', got {text!r}")
    if not (0.0 <= alpha <= 1.0):
        raise UsageError(f"--alpha must be in [0,1], got {alpha}")
    return alpha


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


def _read_degrees(path: str) -> tuple[int, ...]:
    degrees: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                degrees.append(int(line))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad degree {line!r}") from exc
    return tuple(degrees)


def _generate_stage(model: model_mod.LocalModel, args: argparse.Namespace,
                    n_snapshots: int, out_path: str, diag_path: str | None,
                    epoch: int | None = None, degrees_path: str | None = None
                    ) -> tuple[TemporalGraph, gen_mod.GenConfig]:
    """Build the config, generate, write the surrogate and, given a path,
    the per-layer diagnostics."""
    n_nodes = args.nodes if args.nodes is not None else model.node_count
    alpha = _resolve_alpha(args.alpha, model, n_nodes)
    seed_degrees = _read_degrees(degrees_path) if degrees_path else None
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
    surrogate, cfg = _generate_stage(model, args, args.snapshots, args.out,
                                     args.diagnostics, args.epoch,
                                     args.seed_degrees)
    print(f"generate: nodes={surrogate.node_count} "
          f"snapshots={surrogate.n_snapshots} events={surrogate.n_events} "
          f"alpha={cfg.alpha:.4g} seed={args.seed} -> {args.out}")
    return EXIT_OK


def _parse_starts(text: str) -> list[str]:
    tokens = _csv_tokens(text)
    if not tokens:
        raise UsageError("--starts must name at least one of t0,half,peak")
    policies = []
    for tok in tokens:
        if tok not in _START_TOKENS:
            raise UsageError(f"unknown start {tok!r} (expected t0, half or peak)")
        policies.append(_START_TOKENS[tok])
    return policies


def _parse_distances(text: str) -> tuple[str, ...]:
    tokens = _csv_tokens(text)
    if not tokens:
        raise UsageError("--distances must name at least one of ks,js,kl,emd")
    for tok in tokens:
        if tok not in metrics_mod.DISTANCE_FUNCS:
            raise UsageError(f"unknown distance {tok!r}")
    return tuple(tokens)


def _parse_probes(text: str) -> tuple[str, ...]:
    tokens = _csv_tokens(text)
    for tok in tokens:
        if tok not in _PROBE_TOKENS:
            raise UsageError(f"unknown dynamics probe {tok!r}")
    return tuple(tokens)


def _parse_lambdas(text: str) -> list[float]:
    try:
        lambdas = [float(tok) for tok in _csv_tokens(text)]
    except ValueError as exc:
        raise UsageError(f"bad --lambdas value: {exc}")
    if not lambdas or any(not 0.0 <= lam <= 1.0 for lam in lambdas):
        raise UsageError("--lambdas must be probabilities in [0,1]")
    return lambdas


@dataclass(frozen=True)
class _EvalFlags:
    """The eval list flags, parsed before any work so a bad one costs none."""

    distances: tuple[str, ...]
    starts: list[str]
    probes: tuple[str, ...]
    lambdas: list[float]


def _parse_eval_flags(args: argparse.Namespace) -> _EvalFlags:
    return _EvalFlags(distances=_parse_distances(args.distances),
                      starts=_parse_starts(args.starts),
                      probes=_parse_probes(args.dynamics),
                      lambdas=_parse_lambdas(args.lambdas))


def _sample_path(out_dir: str, probe: str, which: str, start: str,
                 lam: float | None) -> str:
    suffix = f"_lam{lam:g}" if lam is not None else ""
    return os.path.join(out_dir, f"samples_{probe}_{which}_{start}{suffix}.csv")


def _write_value_column(path: str, values: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value"])
        for v in values:
            writer.writerow([v])


def _write_series(path: str, series: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "value"])
        for step, v in enumerate(series):
            writer.writerow([step, f"{v:.10g}"])


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
                             *(metrics_mod.format_cell(metrics_mod.distance(name, a, b))
                               for name in distances),
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


def _run_eval(g_orig: TemporalGraph, g_gen: TemporalGraph,
              args: argparse.Namespace, flags: _EvalFlags) -> None:
    if g_orig.gap_seconds != g_gen.gap_seconds:
        raise ValueError(f"gap mismatch: original {g_orig.gap_seconds}s vs "
                         f"surrogate {g_gen.gap_seconds}s")
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    reports = {which: metrics_mod.compute_report(graph, louvain_seed=args.seed)
               for which, graph in (("orig", g_orig), ("gen", g_gen))}
    report = metrics_mod.compare(reports["orig"], reports["gen"],
                                 distances=flags.distances)
    topo_path = os.path.join(out_dir, "distances_topo.csv")
    with open(topo_path, "w", encoding="utf-8", newline="") as handle:
        metrics_mod.write_distances_csv(report, handle)
    print(f"eval: wrote {topo_path}")

    if args.dump_samples:
        for which, rep in reports.items():
            path = os.path.join(out_dir, f"metric_samples_{which}.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                metrics_mod.write_samples_csv(rep, handle)

    if not flags.probes:
        return
    base = dyn.DynConfig(rw_runs=args.rw_runs, mfpt_repeats=args.mfpt_repeats,
                         sir_runs=args.sir_runs, mu=args.mu, seed=args.seed)
    run_args = (flags.starts, flags.lambdas, flags.probes)
    rep_orig = dyn.run_dynamics(g_orig, base, *run_args)
    rep_gen = dyn.run_dynamics(g_gen, base, *run_args)
    dyn_path = os.path.join(out_dir, "distances_dyn.csv")
    _write_dyn_distances(dyn_path, rep_orig, rep_gen, flags.distances)
    _dump_dyn_outputs(out_dir, "orig", rep_orig)
    _dump_dyn_outputs(out_dir, "gen", rep_gen)
    print(f"eval: wrote {dyn_path}")
    if args.stability:
        rep_orig2 = dyn.run_dynamics(g_orig, replace(base, seed=args.seed + 1),
                                     *run_args)
        stab_path = os.path.join(out_dir, "distances_dyn_stability.csv")
        _write_dyn_distances(stab_path, rep_orig, rep_orig2, flags.distances)
        print(f"eval: wrote {stab_path}")


def cmd_eval(args: argparse.Namespace) -> int:
    flags = _parse_eval_flags(args)
    g_orig = _load_eval_graph(args.original, args.gap)
    g_gen = _load_eval_graph(args.surrogate, args.gap)
    _run_eval(g_orig, g_gen, args, flags)
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    flags = _parse_eval_flags(args)
    g = _load_eval_graph(args.input, args.gap)
    os.makedirs(args.out_dir, exist_ok=True)
    model_path = os.path.join(args.out_dir, "model.json")
    _, model = _fit_stage(g, args, model_path)
    n_snapshots = args.snapshots if args.snapshots is not None else g.n_snapshots
    surrogate_path = os.path.join(args.out_dir, "surrogate.tsv")
    surrogate, _ = _generate_stage(model, args, n_snapshots, surrogate_path,
                                   os.path.join(args.out_dir, "diagnostics.csv"))
    print(f"pipeline: fitted {model_path}, generated {surrogate_path} "
          f"({surrogate.n_events} events)")

    _run_eval(g, surrogate, args, flags)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, sub_map = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as handle:
                conf = json.load(handle)
            if not isinstance(conf, dict):
                raise UsageError("--config file must hold a JSON object")
            sub = sub_map[args.command]
            dests = {action.dest for action in sub._actions} - {"help", "config"}
            unknown = sorted(set(conf) - dests)
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(unknown)}")
            sub.set_defaults(**conf)
            args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"etngen: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
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
