"""Surrogate temporal networks from egocentric temporal neighborhoods.

Pipeline: parse an interaction edge list into snapshots (`tempgraph`), mine
neighborhood signatures (`etn`), fit bucketed extension distributions
(`model`), generate surrogate snapshot sequences (`gen`), and compare
originals with surrogates topologically (`metrics`) and dynamically
(`dynamics`). The `cli` module binds everything to the `etngen` command.
"""

from .dynamics import (CoverageResult, DynConfig, DynReport, MfptResult,
                       SirResult, SirRun, coverage_result, first_peak,
                       mfpt_result, random_walk, resolve_start, run_dynamics,
                       sir_result, sir_run)
from .etn import (EtnPrefix, EtnSignature, MinedCounts, NeighborWindow,
                  etn_cosine_distance, extract_etn, mine_counts, prefix_of,
                  read_counts, write_counts)
from .gen import (GenConfig, LayerDiagnostics, ProvisionalLayer, bootstrap,
                  expansion_alpha, generate, propose_layer, seed_layer,
                  validate_layer, write_diagnostics)
from .metrics import (DISTANCE_FUNCS, DISTANCE_NAMES, METRIC_KINDS,
                      DistanceReport,
                      MetricReport, aggregated_metrics, compare,
                      compute_report, contact_durations, emd, hour_metrics,
                      js_divergence, kl_divergence, ks_distance,
                      snapshot_metrics, write_distances_csv,
                      write_samples_csv)
from .model import (ExtensionDistribution, FitError, LocalModel,
                    ModelFormatError, fit, load_model, sample_extension,
                    save_model)
from .tempgraph import (AggregatedGraph, BucketKey, ParseError, Snapshot,
                        TemporalGraph, aggregate, bucket_of, hour_slices,
                        parse_edge_list, resolve_periodicity, weekday,
                        write_edge_list)

__version__ = "0.1.0"

__all__ = [
    "AggregatedGraph", "BucketKey", "CoverageResult", "DISTANCE_FUNCS",
    "DISTANCE_NAMES",
    "DistanceReport", "DynConfig", "DynReport", "EtnPrefix", "EtnSignature",
    "ExtensionDistribution", "FitError", "GenConfig", "LayerDiagnostics",
    "LocalModel", "METRIC_KINDS", "MetricReport", "MfptResult", "MinedCounts",
    "ModelFormatError", "NeighborWindow", "ParseError", "ProvisionalLayer",
    "SirResult", "SirRun",
    "Snapshot", "TemporalGraph", "aggregate", "aggregated_metrics",
    "bootstrap", "bucket_of", "compare", "compute_report", "contact_durations",
    "coverage_result", "emd", "etn_cosine_distance", "expansion_alpha",
    "extract_etn", "first_peak", "fit", "generate", "hour_metrics",
    "hour_slices", "js_divergence", "kl_divergence", "ks_distance",
    "load_model", "mfpt_result", "mine_counts", "parse_edge_list",
    "prefix_of", "propose_layer", "random_walk", "read_counts",
    "resolve_periodicity", "resolve_start", "run_dynamics",
    "sample_extension", "save_model", "seed_layer", "sir_result", "sir_run",
    "snapshot_metrics", "validate_layer", "weekday", "write_counts",
    "write_diagnostics", "write_distances_csv", "write_edge_list",
    "write_samples_csv",
]
