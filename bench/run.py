"""etngen benchmark: fit, generate and eval through the CLI on seeded workloads.

    python3 bench/run.py --workload pipeline-126 --seed 1 --seconds 30 --trace 0

Run from a source checkout; etngen is imported from its `src/`. A worker
process (worker.py) generates the workload's input from --seed, runs the
workload's CLI steps, checks their outputs and records its timings. With
--trace 0 one worker runs every step, then repeats steps until --seconds
are used, and each step's time is the mean of its runs; setup_s is the
median over that worker and a few processes that only set up. These times
are scaled to the reference speed (refloop.py), sampled all through each
step: the host's speed drifts too much for raw seconds to compare between
runs. The result carries BENCHMARK.json's end-to-end metrics. With
--trace 1 untraced and traced workers, each running every step once,
alternate, and the result carries the per-layer metrics, the tracing
overhead being the traced minus the untraced median total. The last stdout
line is the JSON result; the full record, environment and spans included,
goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # every run must end within 180 s
SETUP_ONLY_RUNS = 3  # fresh processes that only set up, for setup_s
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_of(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def run_worker(args, index: int, work: Path, deadline: float, *extra: str) -> dict:
    record_path = work / f"iter{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(work / f"iter{index}"), "--record", str(record_path),
           *extra]
    t0 = time.perf_counter()
    # A process group of its own, so that a timeout also stops the mining
    # workers that fit starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"failed_run": "timed out", "wall_s": time.perf_counter() - t0}
    if proc.returncode != 0 or not record_path.exists():
        return {"failed_run": f"worker exit {proc.returncode}: {stderr[-2000:]}",
                "wall_s": time.perf_counter() - t0}
    record = json.loads(record_path.read_text(encoding="utf-8"))
    record["wall_s"] = time.perf_counter() - t0
    return record


def median_of(records: list[dict], key) -> float:
    values = [key(r) for r in records]
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "etngen" / "__init__.py").is_file():
        print(f"bench: no etngen source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    records: list[dict] = []
    setups: list[dict] = []
    try:
        if not args.trace:
            for i in range(SETUP_ONLY_RUNS):
                setups.append(run_worker(args, -1 - i, work, deadline, "--setup-only"))
            # One process repeats the steps until the run's time is used.
            budget = args.seconds - (time.monotonic() - start)
            records.append(run_worker(args, 0, work, deadline, "--seconds", str(budget)))
        while args.trace:
            # Untraced and traced iterations alternate, each running every
            # step once, so that their totals compare like with like.
            trace = len(records) % 2
            rec = run_worker(args, len(records), work, deadline, "--trace", str(trace))
            records.append(rec)
            if "failed_run" in rec or rec["failed"]:
                break
            elapsed = time.monotonic() - start
            longest = max(r["wall_s"] for r in records)
            # At least one untraced and one traced worker; more where
            # --seconds has room.
            if len(records) >= 2 and elapsed + longest > args.seconds:
                break
            if elapsed + longest > DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records if "failed_run" not in r]
    broken = [r for r in setups + records if "failed_run" in r]
    attempted = sum(r["attempted"] for r in ok) + len(broken)
    failed = sum(r["failed"] for r in ok) + len(broken)
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    steps = ("fit", "generate", "eval")

    if args.trace:
        metrics = {name: median_of(traced, lambda r, n=name: r["layers"][n])
                   for name in traced[0]["layers"]} if traced else {}
        metrics["trace.overhead_s"] = (median_of(traced, lambda r: r["total_s"])
                                       - median_of(untraced, lambda r: r["total_s"]))
        metrics["error_rate"] = failed / max(1, attempted)
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": median_of([r for r in setups + ok if "setup_s" in r],
                                        lambda r: r["setup_s"]),
                   "total_s": median_of(untraced, lambda r: r["total_s"]),
                   "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"])}
        for step in steps:
            metrics[f"{step}_s"] = median_of(untraced, lambda r, s=step: r["steps_s"].get(s, 0.0))
        wanted = spec["end_to_end"]

    first = ok[0] if ok else {}
    env = {"workload": w.name, "params": w.params(), "seed": args.seed,
           "commit": commit_of(ROOT), "source_sha256": source_digest(ROOT / "src"),
           **first.get("versions", {}),
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "input_events": first.get("input", {}).get("events"),
           "input_snapshots": first.get("input", {}).get("snapshots"),
           "iterations": len(records), "seconds": args.seconds, "trace": args.trace}
    correct = bool(ok) and failed == 0
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if correct and missing:
        raise SystemExit(f"bench: no value for {', '.join(missing)}")
    result = {"correct": correct, "attempted": max(1, attempted),
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                          for m in wanted}}
    out_dir.mkdir(exist_ok=True)
    record_file = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps({"env": env, "result": result, "setups": setups,
                                       "iterations": records}), encoding="utf-8")
    for rec in setups + records:
        for err in rec.get("errors", []) + [rec.get("failed_run")]:
            if err:
                print(f"bench: {w.name}: {err}", file=sys.stderr)
    print("env: " + json.dumps(env))
    if not args.trace:
        # Every end-to-end number, including the two that BENCHMARK.json
        # cannot bound: eval_s is absent where a workload runs no eval, and
        # error_rate is 0 when nothing fails.
        shown = [f"{name}={metrics[name]:.4g} {unit}" for name, unit in
                 (("setup_s", "s"), ("fit_s", "s"), ("generate_s", "s"),
                  ("eval_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))
                 if name != "eval_s" or w.eval_args is not None]
        shown.append(f"error_rate={failed / max(1, attempted):.4g} ratio "
                     f"({failed}/{attempted} operations)")
        raw = median_of(untraced, lambda r: sum(r["steps_raw_s"].values()))
        shown.append(f"(unscaled total {raw:.4g} s)")
        print(f"{w.name} seed {args.seed}: " + " ".join(shown))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
