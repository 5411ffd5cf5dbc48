"""Benchmark workloads and their seeded input generator.

Every input is a sinusoidal day-activity contact recording: each snapshot is
an independent Erdos-Renyi layer whose edge probability follows
peak_p * sin^2 over 07:00-21:00 wall-clock time and is zero at night. The
generator lives here, not in the test suite, so that test edits cannot shift
the benchmark's inputs. The program receives only the written TSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAP = 300
MONDAY_EPOCH = 345600  # 1970-01-05 00:00 UTC, a Monday
SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    days: int
    peak_p: float
    start_hour: int  # wall-clock hour of the first snapshot, on a Monday
    k: int
    threads: int
    eval_args: tuple[str, ...] | None  # None: the workload runs no eval
    why: str

    @property
    def snapshots(self) -> int:
        return self.days * SECONDS_PER_DAY // GAP

    @property
    def epoch(self) -> int:
        return MONDAY_EPOCH + self.start_hour * 3600

    def params(self) -> dict:
        return {"nodes": self.nodes, "days": self.days, "gap": GAP,
                "peak_p": self.peak_p, "epoch": self.epoch, "k": self.k,
                "threads": self.threads, "snapshots": self.snapshots,
                "eval_args": list(self.eval_args) if self.eval_args is not None
                else None}


WORKLOADS = {w.name: w for w in (
    # Paper scale (the largest SocioPatterns sets). At this size the
    # two-worker mining pool wins, and k=3 makes a model big enough for
    # load/save and per-depth mining to show.
    Workload("fitgen-330", nodes=330, days=5, peak_p=0.004, start_hour=0,
             k=3, threads=2, eval_args=None,
             why="paper scale, fit and generate only: etn, model and gen do "
                 "the work, metrics and dynamics none"),
    # The acceptance-criterion-8 graph; topology eval is most of the run.
    Workload("pipeline-126", nodes=126, days=4, peak_p=0.004, start_hour=0,
             k=2, threads=1, eval_args=(),
             why="acceptance-scale fit, generate and topology eval: metrics "
                 "does most of the work, gen second"),
    # Starts in the daytime, as real recordings do. sir_result refuses a
    # start snapshot with no active node: a midnight start always hits that
    # for t0 and half, a 09:00 start for about 1% of seeds, 10:00 for none
    # of 400 seeds tried. No "peak" start: the busiest snapshot falls on the
    # first or the second day depending on the seed, which makes the walk
    # work from it bimodal (1.6 or 2.8 million mfpt steps per graph); from
    # t0 and half it varies by about 3%.
    Workload("dynamics-50", nodes=50, days=2, peak_p=0.02, start_hour=10,
             k=2, threads=1,
             eval_args=("--dynamics", "rw,mfpt,sir", "--starts", "t0,half"),
             why="small dense graph with rw, mfpt and sir probes from t0 and half: "
                 "dynamics does most of the work, etn and gen almost none"),
)}


def layer_probabilities(w: Workload) -> list[float]:
    probs = []
    for t in range(w.snapshots):
        hour = ((w.epoch + t * GAP) % SECONDS_PER_DAY) / 3600
        activity = math.sin(math.pi * (hour - 7.0) / 14.0) if 7.0 <= hour <= 21.0 else 0.0
        probs.append(w.peak_p * activity * activity)
    return probs


def contact_layers(w: Workload, seed: int) -> list[list[tuple[int, int]]]:
    """One sorted edge list (i < j) per snapshot, drawn from `seed` alone."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(w.nodes, k=1)
    layers = []
    for p in layer_probabilities(w):
        if p <= 0.0:
            layers.append([])
            continue
        mask = rng.random(iu.size) < p
        layers.append(list(zip(iu[mask].tolist(), ju[mask].tolist())))
    return layers


def write_tsv(w: Workload, layers: list[list[tuple[int, int]]], path: str) -> int:
    """Write the headered `t<TAB>i<TAB>j` recording; returns the event count."""
    events = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#snapshots={w.snapshots} #gap={GAP} #epoch={w.epoch} "
                 f"#nodes={w.nodes}\n")
        for t, edges in enumerate(layers):
            wall = w.epoch + t * GAP
            fh.writelines(f"{wall}\t{i}\t{j}\n" for i, j in edges)
            events += len(edges)
    return events
