"""Dynamical probes on temporal graphs: random walks, first-passage, SIR.

Every run draws from a numpy substream keyed by (probe, run identifiers), so
distributions are reproducible bit-exactly from the config seed and do not
depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .tempgraph import TemporalGraph

START_T0 = "t0"
START_HALF = "half"
START_FIRST_PEAK = "first_peak"
START_POLICIES = (START_T0, START_HALF, START_FIRST_PEAK)

_PROBE_RW = 0
_PROBE_MFPT = 1
_PROBE_SIR = 2

_SUSCEPTIBLE, _INFECTED, _RECOVERED = 0, 1, 2


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass
class DynConfig:
    start_policy: str = START_T0
    rw_runs: int = 1000
    mfpt_repeats: int = 5
    sir_runs: int = 100
    lam: float = 0.13
    mu: float = 0.055
    seed: int = 0

    def validate(self) -> None:
        if self.start_policy not in START_POLICIES:
            raise ValueError(f"unknown start policy {self.start_policy!r}")
        if min(self.rw_runs, self.mfpt_repeats, self.sir_runs) < 1:
            raise ValueError("run counts must be >= 1")
        if not (0.0 <= self.lam <= 1.0 and 0.0 <= self.mu <= 1.0):
            raise ValueError("lambda and mu must be probabilities")


@dataclass
class CoverageResult:
    samples: list[int]
    visited_series: list[float]  # mean distinct nodes visited after each step


@dataclass
class MfptResult:
    samples: list[int]
    censored: int  # walks that never reached the target within the horizon


@dataclass
class SirResult:
    samples: list[int]  # R0 per run
    infected_series: list[float]  # mean infected count after each step


@dataclass
class SirRun:
    """Single epidemic trajectory: compartment sizes after each step."""

    r0: int
    infected: list[int]
    recovered: list[int]


@dataclass
class DynReport:
    """Dynamics samples per start policy (and per lambda for SIR)."""

    coverage: dict[str, CoverageResult] = field(default_factory=dict)
    mfpt: dict[str, MfptResult] = field(default_factory=dict)
    sir: dict[tuple[str, float], SirResult] = field(default_factory=dict)


def first_peak(g: TemporalGraph) -> int:
    """Smallest snapshot index with the maximum edge count."""
    counts = [snap.n_edges for snap in g.snapshots]
    if not counts:
        raise ValueError("empty snapshot sequence")
    best = max(counts)
    if best == 0:
        raise ValueError("graph has no edges; first peak undefined")
    return counts.index(best)


def resolve_start(g: TemporalGraph, policy: str) -> int:
    if policy == START_T0:
        return 0
    if policy == START_HALF:
        return g.n_snapshots // 2
    if policy == START_FIRST_PEAK:
        return first_peak(g)
    raise ValueError(f"unknown start policy {policy!r}")


def random_walk(g: TemporalGraph, start_node: int, t_start: int,
                rng: np.random.Generator) -> list[int]:
    """Positions after each snapshot from t_start to the end.

    One jump per snapshot, to a uniform current neighbor; a node with no
    neighbors waits in place, consuming the step. Trace length is
    m - t_start and excludes the start position.
    """
    if not (0 <= t_start <= g.n_snapshots):
        raise ValueError(f"t_start {t_start} out of range")
    cur = start_node
    trace: list[int] = []
    for t in range(t_start, g.n_snapshots):
        nbrs = g.snapshots[t].neighbors(cur)
        if nbrs:
            cur = nbrs[int(rng.integers(len(nbrs)))]
        trace.append(cur)
    return trace


def coverage_result(g: TemporalGraph, cfg: DynConfig) -> CoverageResult:
    """rw_runs walks from uniform start nodes; sample = distinct nodes seen."""
    cfg.validate()
    t_start = resolve_start(g, cfg.start_policy)
    horizon = g.n_snapshots - t_start
    samples: list[int] = []
    cum = np.zeros(horizon, dtype=np.float64)
    for run in range(cfg.rw_runs):
        rng = _stream(cfg.seed, _PROBE_RW, run)
        start = int(rng.integers(g.node_count))
        visited = {start}
        for step, pos in enumerate(random_walk(g, start, t_start, rng)):
            visited.add(pos)
            cum[step] += len(visited)
        samples.append(len(visited))
    series = [float(x / cfg.rw_runs) for x in cum]
    return CoverageResult(samples=samples, visited_series=series)


def mfpt_result(g: TemporalGraph, cfg: DynConfig) -> MfptResult:
    """First-hit steps for every ordered (source, target) pair.

    Each pair is walked mfpt_repeats times from t_start; runs that never
    reach the target are censored and counted, not clamped.
    """
    cfg.validate()
    t_start = resolve_start(g, cfg.start_policy)
    n = g.node_count
    samples: list[int] = []
    censored = 0
    for src in range(n):
        for dst in range(n):
            if dst == src:
                continue
            for rep in range(cfg.mfpt_repeats):
                rng = _stream(cfg.seed, _PROBE_MFPT, src, dst, rep)
                cur = src
                hit = 0
                for step, t in enumerate(range(t_start, g.n_snapshots), start=1):
                    nbrs = g.snapshots[t].neighbors(cur)
                    if nbrs:
                        cur = nbrs[int(rng.integers(len(nbrs)))]
                    if cur == dst:
                        hit = step
                        break
                if hit:
                    samples.append(hit)
                else:
                    censored += 1
    return MfptResult(samples=samples, censored=censored)


def _lam_key(lam: float) -> int:
    return int(round(lam * 1_000_000))


def sir_run(g: TemporalGraph, seed_node: int, t_start: int, lam: float,
            mu: float, rng: np.random.Generator) -> SirRun:
    """One SIR epidemic from a given seed, infections starting at t_start.

    Each step, every infected node tries each currently susceptible neighbor
    independently with probability lam, then recovers with probability mu;
    nodes infected in a step transmit from the next. The series stop once no
    node is infected. r0 counts the seed's direct out-infections.
    """
    if not (0 <= t_start < g.n_snapshots):
        raise ValueError(f"t_start {t_start} out of range")
    if not (0 <= seed_node < g.node_count):
        raise ValueError(f"seed node {seed_node} out of range")
    state = [_SUSCEPTIBLE] * g.node_count
    state[seed_node] = _INFECTED
    infected = [seed_node]
    n_recovered = 0
    r0 = 0
    inf_series: list[int] = []
    rec_series: list[int] = []
    for t in range(t_start, g.n_snapshots):
        snap = g.snapshots[t]
        newly: list[int] = []
        still: list[int] = []
        for u in infected:
            for v in snap.neighbors(u):
                if state[v] == _SUSCEPTIBLE and rng.random() < lam:
                    state[v] = _INFECTED
                    newly.append(v)
                    if u == seed_node:
                        r0 += 1
            if rng.random() < mu:
                state[u] = _RECOVERED
                n_recovered += 1
            else:
                still.append(u)
        infected = still + newly
        inf_series.append(len(infected))
        rec_series.append(n_recovered)
        if not infected:
            break
    return SirRun(r0=r0, infected=inf_series, recovered=rec_series)


def sir_result(g: TemporalGraph, cfg: DynConfig) -> SirResult:
    """sir_runs epidemics seeded uniformly among nodes with an edge at
    t_start; the mean infected series treats extinct epidemics as zero."""
    cfg.validate()
    t_start = resolve_start(g, cfg.start_policy)
    connected = sorted(g.snapshots[t_start].active_nodes)
    if not connected:
        raise ValueError(f"no connected node at t_start={t_start}")
    horizon = g.n_snapshots - t_start
    cum_infected = np.zeros(horizon, dtype=np.float64)
    samples: list[int] = []
    for run in range(cfg.sir_runs):
        rng = _stream(cfg.seed, _PROBE_SIR, _lam_key(cfg.lam), run)
        seed_node = connected[int(rng.integers(len(connected)))]
        trajectory = sir_run(g, seed_node, t_start, cfg.lam, cfg.mu, rng)
        for step, count in enumerate(trajectory.infected):
            cum_infected[step] += count
        samples.append(trajectory.r0)
    series = [float(x / cfg.sir_runs) for x in cum_infected]
    return SirResult(samples=samples, infected_series=series)


def run_dynamics(g: TemporalGraph, cfg: DynConfig,
                 starts: Sequence[str] = START_POLICIES,
                 lambdas: Iterable[float] = (0.25, 0.13, 0.01),
                 probes: Sequence[str] = ("rw", "mfpt", "sir")) -> DynReport:
    """Run the requested probes at every start policy (and lambda for SIR)."""
    report = DynReport()
    for policy in starts:
        run_cfg = DynConfig(start_policy=policy, rw_runs=cfg.rw_runs,
                            mfpt_repeats=cfg.mfpt_repeats, sir_runs=cfg.sir_runs,
                            lam=cfg.lam, mu=cfg.mu, seed=cfg.seed)
        if "rw" in probes:
            report.coverage[policy] = coverage_result(g, run_cfg)
        if "mfpt" in probes:
            report.mfpt[policy] = mfpt_result(g, run_cfg)
        if "sir" in probes:
            for lam in lambdas:
                lam_cfg = DynConfig(start_policy=policy, rw_runs=cfg.rw_runs,
                                    mfpt_repeats=cfg.mfpt_repeats,
                                    sir_runs=cfg.sir_runs, lam=lam, mu=cfg.mu,
                                    seed=cfg.seed)
                report.sir[(policy, lam)] = sir_result(g, lam_cfg)
    return report
