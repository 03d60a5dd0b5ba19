"""Benchmark of `mzsim`: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/mzsim`, `experiments`
and `BENCHMARK.json`.  With `--trace 0` the run starts SETUP_SAMPLES
set-up-only processes and then TIMED_PROCESSES timed processes of
S/TIMED_PROCESSES seconds each, and reports the end-to-end metrics of
`BENCHMARK.json`.  With `--trace 1` it runs an untraced process
and a traced process for S/2 seconds each and reports the per-layer
metrics.  Every process is started one after the other and waited for.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it record
the environment and the details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The timed phase is split over this many processes, one after the other,
#: and their latencies are pooled: how fast a process runs varies from
#: process to process by more than the host's speed explains.
TIMED_PROCESSES = 4
SETUP_SAMPLES = 11         # set-up-only processes; the timed processes add theirs
#: The tail latency is the highest percentile, at most TAIL_MAX_PERCENTILE,
#: that has TAIL_OPS ops beyond it.  The cap matters from 200 ops on: above
#: p95, thousands of ops reach the collector's full collections and the
#: host's stalls, which are neither steady nor proportional to its speed.
TAIL_OPS = 10
TAIL_MAX_PERCENTILE = 95
RUN_BUDGET_S = 170.0       # the whole run, all processes included
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker process to its end and return its result object."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", repr(seconds), "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran past the {RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():   # git would search the parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, worker: dict) -> dict:
    """Machine, versions and source identity of this result."""
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [(_read(index / f) or "?").strip() for f in ("level", "type", "size")]
        caches.append("L{} {} {}".format(*fields))
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mzsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu_model": model, "cpu_caches": caches,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": worker["python"], "numpy": worker["numpy"],
            "mzsim": worker["mzsim"], "git_commit": _git_commit(),
            "src_sha256": source.hexdigest()}


def lower_quartile(values) -> float:
    """Set-up times are skewed by the odd slow start; the lower quartile
    of many is steadier than their median."""
    return statistics.quantiles(values, n=4)[0]


def latency_summary(workers: list[dict], scaled: bool = True) -> dict:
    """Ops per second of op time, median and tail latency (nearest rank) of
    the workers' pooled ops, each scaled to reference-machine time unless
    `scaled` is false."""
    key = "scaled_latencies" if scaled else "latencies"
    ordered = sorted(t for w in workers for t in w[key])
    n = len(ordered)
    tail_rank = (min(n - TAIL_OPS, -(-n * TAIL_MAX_PERCENTILE // 100))
                 if n > TAIL_OPS else n)
    return {"ops_per_s": n / sum(ordered), "p50_ms": statistics.median(ordered) * 1e3,
            "tail_ms": ordered[tail_rank - 1] * 1e3,
            "tail_percentile": 100.0 * tail_rank / n, "tail_ops_beyond": n - tail_rank}


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    setups = [spawn(args, "setup", 0.0, deadline) for _ in range(SETUP_SAMPLES)]
    timed = [spawn(args, "timed", args.seconds / TIMED_PROCESSES, deadline)
             for _ in range(TIMED_PROCESSES)]
    setups += timed
    scaled, raw = latency_summary(timed), latency_summary(timed, scaled=False)
    metrics = {"ops_per_s": scaled["ops_per_s"], "latency_p50_ms": scaled["p50_ms"],
               "latency_tail_ms": scaled["tail_ms"],
               "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in timed),
               "setup_s": lower_quartile(w["setup_scaled_s"] for w in setups)}
    details = {"ops": sum(w["ops"] for w in timed),
               "ops_per_process": [w["ops"] for w in timed],
               "latency_tail_percentile": raw["tail_percentile"],
               "latency_tail_ops_beyond": raw["tail_ops_beyond"],
               "peak_rss_after_ops": timed[0]["peak_rss_after_ops"],
               "peak_rss_per_process_mib": [w["peak_rss_mib"] for w in timed],
               "measured": {"ops_per_s": raw["ops_per_s"], "latency_p50_ms": raw["p50_ms"],
                            "latency_tail_ms": raw["tail_ms"],
                            "setup_s": lower_quartile(w["setup_s"] for w in setups)},
               "kernel_ms": [statistics.median(w["speeds_ms"]) for w in timed],
               "setup_samples_s": [w["setup_s"] for w in setups],
               "setup_kernel_ms": [w["kernel_ms"] for w in setups]}
    return metrics, details, timed


def per_layer(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    plain = spawn(args, "timed", args.seconds / 2, deadline)
    traced = spawn(args, "traced", args.seconds / 2, deadline)
    metrics = dict(traced["layers"])
    metrics["setup.import_s"] = statistics.median([plain["import_s"], traced["import_s"]])
    metrics["setup.inputs_s"] = statistics.median([plain["inputs_s"], traced["inputs_s"]])
    metrics["trace.overhead_ratio"] = (latency_summary([traced])["ops_per_s"]
                                       / latency_summary([plain])["ops_per_s"])
    details = {"ops": plain["ops"], "traced_ops": traced["ops"],
               "span_file": traced["span_file"],
               "traced_entry_points": traced["traced_entry_points"],
               "missing_entry_points": traced["missing_entry_points"]}
    return metrics, details, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one mzsim workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        for needed in ("src/mzsim/__init__.py", "experiments", "BENCHMARK.json"):
            if not (ROOT / needed).exists():
                raise BenchError(f"{ROOT} has no {needed}: not an mzsim checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        measure = per_layer if args.trace else end_to_end
        metrics, details, workers = measure(args, deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    attempted = sum(w["ops"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    details["fail_ratio"] = failed / attempted
    env = environment(args, workers[0])
    record = {"env": env, "details": details,
              "failures": [f for w in workers for f in w["failures"]],
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"details {json.dumps(details)}")
    for failure in record["failures"]:
        print(f"failed op {failure[0]}: {failure[1]}")
    for name, m in record["metrics"].items():
        print(f"{args.workload:>15}  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
