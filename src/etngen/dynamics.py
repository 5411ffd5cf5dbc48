"""Dynamical probes on temporal graphs: random walks, first-passage, SIR.

Every probe call draws from one numpy stream: the random-walk probes
(coverage and first passage) key it by (seed, probe), SIR by (seed, probe,
lambda). All of a call's walkers, or all of its epidemics, advance in
lockstep, one layer at a time, as rows of one state matrix, and each layer's
draws are vectors in row-major (row, item) order. Memory is O(rows x nodes).
Results are reproducible bit-exactly from the config seed. Each probe call
builds the graph's arc table once (`tempgraph.layer_arcs`) and reads every
layer as a slice of it; nothing is cached on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tempgraph import TemporalGraph, layer_arcs

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
    counts = np.diff(g.offsets)
    if not counts.size:
        raise ValueError("empty snapshot sequence")
    if not counts.any():
        raise ValueError("graph has no edges; first peak undefined")
    return int(counts.argmax())


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


def _layers(g: TemporalGraph, t_start: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The arcs (source, target) of layers t_start..m-1, slices of one
    `layer_arcs` table."""
    src, dst = layer_arcs(g)
    bounds = (2 * g.offsets).tolist()
    for a, b in zip(bounds[t_start:], bounds[t_start + 1:]):
        yield src[a:b], dst[a:b]


def _layer_csr(src: np.ndarray, flat: np.ndarray, n: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree, offset and neighbor arrays of the arcs src -> flat over n
    nodes.

    Node u's neighbors are flat[off[u]:off[u] + deg[u]], ascending, the
    order of `Snapshot.neighbors`.
    """
    deg = np.bincount(src, minlength=n)
    off = np.zeros(n, dtype=np.intp)
    np.cumsum(deg[:-1], out=off[1:])
    return deg, off, flat


def _walk_lockstep(g: TemporalGraph, pos: np.ndarray, t_start: int,
                   rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Advance walkers at `pos` through layers t_start..m-1, one jump each.

    `pos` is updated in place and yielded after every layer. Per layer, each
    walker with neighbors jumps to a uniform one, drawn as one integer
    vector in walker order; a walker with no neighbors waits. Empty layers
    draw nothing. A single walker follows `random_walk` with the same
    generator draw for draw.
    """
    n = g.node_count
    for src, dst in _layers(g, t_start):
        if src.size:
            deg, off, flat = _layer_csr(src, dst, n)
            d = deg[pos]
            moving = np.flatnonzero(d)
            pos[moving] = flat[off[pos[moving]] + rng.integers(0, d[moving])]
        yield pos


def coverage_result(g: TemporalGraph, cfg: DynConfig) -> CoverageResult:
    """rw_runs walks from uniform start nodes; sample = distinct nodes seen.

    One stream per call, keyed (seed, rw probe): the start nodes are one
    vector draw, then all walkers move in lockstep on the same stream. The
    visited bitmap takes O(rw_runs x n) memory.
    """
    cfg.validate()
    t_start = resolve_start(g, cfg.start_policy)
    rng = _stream(cfg.seed, _PROBE_RW)
    pos = rng.integers(0, g.node_count, size=cfg.rw_runs)
    rows = np.arange(cfg.rw_runs)
    visited = np.zeros((cfg.rw_runs, g.node_count), dtype=bool)
    visited[rows, pos] = True
    seen = np.ones(cfg.rw_runs, dtype=np.int64)
    cum: list[int] = []
    for pos in _walk_lockstep(g, pos, t_start, rng):
        seen += ~visited[rows, pos]
        visited[rows, pos] = True
        cum.append(int(seen.sum()))
    series = [x / cfg.rw_runs for x in cum]
    return CoverageResult(samples=seen.tolist(), visited_series=series)


def mfpt_result(g: TemporalGraph, cfg: DynConfig) -> MfptResult:
    """First-hit steps for every ordered (source, target) pair.

    mfpt_repeats walks start at each source at t_start, n x mfpt_repeats
    walkers in (source, repeat) order on one stream keyed (seed, mfpt
    probe), moving in lockstep. Each walk records its first hit of every
    other node, so it gives one sample per target, and samples of pairs
    that share a walk are correlated; each pair's first-passage law is that
    of a walk of its own. Samples come in (source, target, repeat) order;
    a target never reached within the horizon is censored and counted, not
    clamped. The first-hit matrix takes O(n x mfpt_repeats x n) memory.
    """
    cfg.validate()
    t_start = resolve_start(g, cfg.start_policy)
    n, reps = g.node_count, cfg.mfpt_repeats
    rng = _stream(cfg.seed, _PROBE_MFPT)
    pos = np.repeat(np.arange(n), reps)
    rows = np.arange(n * reps)
    first = np.zeros((n * reps, n), dtype=np.int32)  # 0: not hit yet
    first[rows, pos] = -1  # a walk's own source is no target
    for step, pos in enumerate(_walk_lockstep(g, pos, t_start, rng), start=1):
        new = first[rows, pos] == 0
        first[rows[new], pos[new]] = step
    per_pair = first.reshape(n, reps, n).transpose(0, 2, 1)
    return MfptResult(samples=per_pair[per_pair > 0].tolist(),
                      censored=int(np.count_nonzero(per_pair == 0)))


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


def _sir_seeds(g: TemporalGraph, policy: str) -> tuple[int, list[int]]:
    """The start snapshot of `policy` and its nodes with an edge, among
    which SIR seeds are drawn; a start past the last snapshot, or with no
    such node, is an error."""
    t_start = resolve_start(g, policy)
    if not 0 <= t_start < g.n_snapshots:
        raise ValueError(f"start {policy!r} (snapshot t_start={t_start}) "
                         f"is outside the {g.n_snapshots} snapshots")
    connected = np.unique(g.pairs[g.offsets[t_start]:g.offsets[t_start + 1]]).tolist()
    if not connected:
        raise ValueError(f"start {policy!r} (snapshot t_start={t_start}) "
                         f"has no node with an edge")
    return t_start, connected


def _sir_lockstep(g: TemporalGraph, seeds: np.ndarray, t_start: int,
                  lam: float, mu: float, rng: np.random.Generator
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One epidemic per entry of `seeds`, all advancing through layers
    t_start..m-1 as rows of a (runs x n) infected matrix.

    Per layer: the arcs u->v with u infected and v susceptible at the start
    of the step each draw one uniform, as one vector in row-major (run,
    arc) order, arcs in `layer_arcs` order; v is infected if any of its
    draws is below lam, and r0 counts the successes whose u is the run's
    seed. Then every node infected at the start of the step draws one
    recovery uniform, in row-major (run, node) order, below mu recovering.
    Only then do the new infections join, so they transmit from the next
    step. Empty layers draw recoveries only. Yields the infected matrix and
    the r0 vector, both updated in place, after each layer, and stops after
    the layer in which the last run dies out. A single run follows
    `sir_run`'s law; wherever lam and mu are 0 or 1 it equals `sir_run`.
    """
    runs, n = len(seeds), g.node_count
    infected = np.zeros((runs, n), dtype=bool)
    infected[np.arange(runs), seeds] = True
    susceptible = ~infected
    # Flat views: entry run * n + node.
    infected_flat, susceptible_flat = infected.reshape(-1), susceptible.reshape(-1)
    r0 = np.zeros(runs, dtype=np.int64)
    for src, dst in _layers(g, t_start):
        new = None
        if src.size:
            tries = np.flatnonzero(infected[:, src] & susceptible[:, dst])
            run, arc = np.divmod(tries[rng.random(tries.size) < lam], src.size)
            r0 += np.bincount(run[src[arc] == seeds[run]], minlength=runs)
            new = run * n + dst[arc]
        ill = np.flatnonzero(infected)
        infected_flat[ill[rng.random(ill.size) < mu]] = False
        if new is not None:
            infected_flat[new] = True
            susceptible_flat[new] = False
        yield infected, r0
        if not infected.any():
            return


def sir_result(g: TemporalGraph, cfg: DynConfig) -> SirResult:
    """sir_runs epidemics seeded uniformly among nodes with an edge at
    t_start; the mean infected series treats extinct epidemics as zero and
    keeps the full horizon.

    One stream per call, keyed (seed, sir probe, lambda): the seed nodes are
    one vector draw, then all epidemics run in lockstep on the same stream,
    transmissions before recoveries in each layer, row-major (run, arc) and
    (run, node) order (`_sir_lockstep`). The state takes O(sir_runs x n)
    memory.
    """
    cfg.validate()
    t_start, connected = _sir_seeds(g, cfg.start_policy)
    rng = _stream(cfg.seed, _PROBE_SIR, _lam_key(cfg.lam))
    seeds = np.asarray(connected)[rng.integers(len(connected), size=cfg.sir_runs)]
    cum_infected = np.zeros(g.n_snapshots - t_start, dtype=np.int64)
    for step, (infected, r0) in enumerate(
            _sir_lockstep(g, seeds, t_start, cfg.lam, cfg.mu, rng)):
        cum_infected[step] = np.count_nonzero(infected)
    series = [float(x / cfg.sir_runs) for x in cum_infected]
    return SirResult(samples=r0.tolist(), infected_series=series)


def check_starts(g: TemporalGraph, starts: Sequence[str],
                 probes: Sequence[str]) -> None:
    """Raise the error that `run_dynamics` would raise for one of `starts`,
    before any probe runs: an undefined start or, for SIR, a start snapshot
    with no node to seed."""
    if not probes:
        return
    for policy in starts:
        if "sir" in probes:
            _sir_seeds(g, policy)
        else:
            resolve_start(g, policy)


def run_dynamics(g: TemporalGraph, cfg: DynConfig,
                 starts: Sequence[str] = START_POLICIES,
                 lambdas: Iterable[float] = (0.25, 0.13, 0.01),
                 probes: Sequence[str] = ("rw", "mfpt", "sir")) -> DynReport:
    """Run the requested probes at every start policy (and lambda for SIR)."""
    report = DynReport()
    for policy in starts:
        run_cfg = replace(cfg, start_policy=policy)
        if "rw" in probes:
            report.coverage[policy] = coverage_result(g, run_cfg)
        if "mfpt" in probes:
            report.mfpt[policy] = mfpt_result(g, run_cfg)
        if "sir" in probes:
            for lam in lambdas:
                report.sir[(policy, lam)] = sir_result(g, replace(run_cfg, lam=lam))
    return report
