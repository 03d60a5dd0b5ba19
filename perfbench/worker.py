"""One benchmark process: set up a workload, then time or trace its ops.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --mode setup|timed|traced --seconds S --spawned-at T

`--spawned-at` is the parent's `time.monotonic()` just before it started
this process (CLOCK_MONOTONIC, shared by all processes on Linux), so the
set-up time covers interpreter start, `import mzsim` and building the
inputs.  The process runs one closed loop: the next op starts when the
previous one has returned and its output has been checked.  Every process
also times `speed.kernel()` and reports its times both as measured and
scaled to reference-machine time.  It prints one JSON object as
the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import speed

#: Ops replayed after the timed phase to check that outputs reproduce.
REPLAYED_OPS = 4
#: Seconds of ops between two host-speed samples (see speed.py).
SPEED_EVERY_S = 1.0
#: The timed process reads its peak RSS after this many ops, so that the
#: figure does not depend on how many ops fit into the run.
MEMORY_OPS = 32


def run_loop(ops, seconds: float, run=None, period: int = 1, min_ops: int = 0) -> dict:
    """Cycle over `ops` until `seconds` have passed; check every output.

    `run(k, call)` runs op k (the traced run passes the tracer's; replays
    get negative k).  The loop stops only after a whole multiple of
    `period` ops and after at least `min_ops` ops; `rss_mib` is the peak
    RSS when `min_ops` ops were done.  Before the first op, after the last
    and every SPEED_EVERY_S in between, it samples the host's speed
    (`speed.sample()`); `scaled_latencies` are the latencies in
    reference-machine time, each scaled by the mean of the two samples
    around its op.  Output checks and speed samples are timed apart from
    the ops.
    """
    run = run or (lambda k, call: call())
    latencies, failed, kept = [], {}, []
    rss_mib = None
    gc.collect()
    speed.kernel()                      # warm-up, not a sample
    speeds, starts = [speed.sample()], [0]
    deadline = time.perf_counter() + seconds
    next_sample = time.perf_counter() + SPEED_EVERY_S
    k = 0
    while True:
        op = ops[k % len(ops)]
        t0 = time.perf_counter()
        try:
            output = run(k, op.call)
            reason = None
        except Exception as exc:  # any error is a failed op, and the run goes on
            output, reason = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if reason is None:
            reason = op.check(output, op.expected)
        if reason is not None:
            failed[k] = f"{op.label}: {reason}"
        if k < REPLAYED_OPS:
            kept.append(output)
        k += 1
        if k == min_ops:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if now >= deadline and k % period == 0 and k >= min_ops:
            break
        if now >= next_sample:
            speeds.append(speed.sample())
            starts.append(k)
            next_sample = time.perf_counter() + SPEED_EVERY_S
    speeds.append(speed.sample())
    starts.append(k)
    scaled = []
    for w in range(len(starts) - 1):
        factor = speed.factor((speeds[w] + speeds[w + 1]) / 2)
        scaled += [t * factor for t in latencies[starts[w]:starts[w + 1]]]
    for i, output in enumerate(kept):
        if i in failed:
            continue
        try:
            again = run(-1 - i, ops[i].call)
        except Exception as exc:
            again = exc
        if again != output:
            failed[i] = f"{ops[i].label}: output differs when the op is replayed"
    return {"latencies": latencies, "scaled_latencies": scaled, "failed": failed,
            "rss_mib": rss_mib, "speeds_ms": [t * 1e3 for t in speeds]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import mzsim
    import numpy
    imported = time.monotonic()
    if Path(mzsim.__file__).resolve().parent != root / "src" / "mzsim":
        sys.stderr.write(f"error: imported mzsim from {mzsim.__file__}, "
                         f"not from {root / 'src'}\n")
        return 2

    import workloads
    work = root / ".bench_work"
    workload = workloads.build(args.workload, args.seed, root,
                               work / "inputs" / f"{args.workload}-{args.seed}")
    ready = time.monotonic()
    result = {"import_s": imported - args.spawned_at, "inputs_s": ready - imported,
              "setup_s": ready - args.spawned_at, "numpy": numpy.__version__,
              "mzsim": mzsim.__version__, "python": sys.version.split()[0]}

    if args.mode == "setup":
        speed.kernel()                  # warm-up, not a sample
        kernel_s = speed.sample()
    elif args.mode == "timed":
        loop = run_loop(workload.ops, args.seconds, min_ops=MEMORY_OPS)
        result.update(peak_rss_mib=loop["rss_mib"], peak_rss_after_ops=MEMORY_OPS)
    else:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        loop = run_loop(workload.ops, args.seconds, tracer.run_op, workload.period)
        # The first pass fills the program's caches; counts repeat from the second.
        n = len(loop["latencies"])
        first = workload.period if n >= 2 * workload.period else 0
        result["layers"] = spans.layer_metrics(tracer, range(first, n))
        result["traced_entry_points"] = tracer.installed
        result["missing_entry_points"] = tracer.missing
        span_file = work / "spans" / f"{args.workload}-{args.seed}.csv"
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(root))
    if args.mode != "setup":
        kernel_s = loop["speeds_ms"][0] / 1e3    # sampled right after set-up
        result.update(latencies=loop["latencies"], scaled_latencies=loop["scaled_latencies"],
                      speeds_ms=loop["speeds_ms"], ops=len(loop["latencies"]),
                      failed=len(loop["failed"]), failures=sorted(loop["failed"].items())[:5])
    result.update(kernel_ms=kernel_s * 1e3,
                  setup_scaled_s=result["setup_s"] * speed.factor(kernel_s))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
