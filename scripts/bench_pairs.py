"""A/B pairs of the mzsim benchmark: a parent checkout against a change.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W
        --seeds 801-810 [--trace 0|1] [--seconds 20] --out BENCH_8.json

For each seed it runs `perfbench/run.py --workload W --seed N --seconds S
--trace T` once in each checkout, one run after the other, alternating
which checkout runs first (the parent at the first seed).  Each checkout
runs its own `perfbench/` and `src/`; keep them in separate directories,
for example a `git clone` of the parent commit and a copy of the change.

The results go into the JSON file `--out`, under `workloads` (`--trace 0`,
the end-to-end metrics) or `traced` (`--trace 1`, the per-layer metrics)
and the workload's name; entries of other workloads already in the file
are kept, so one file collects several invocations.  Per metric it records
both sides' median and quartiles (`statistics.quantiles`, inclusive), the
ratio of the medians, how many pairs the change won (ties count for
neither) and every run's value, with the direction and bound from the
change's BENCHMARK.json.  A traced entry also gives each run's median op
time from its span file (`op_us`), since a layer's share of an op is read
against it.  The file also records the host, the Python and numpy
versions, each checkout's git commit (null outside a git checkout) and the
SHA-256 of its `src/mzsim/*.py` as `perfbench/run.py` reports them.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
HOST_KEYS = ("cpu_model", "cpu_caches", "nproc", "affinity", "python", "numpy")
STATISTICS = ("median and quartiles (statistics.quantiles, inclusive) of the per-run "
              "values over the pairs; change_better_pairs counts pairs where the change's "
              "value is better, ties for neither")


def seed_list(text: str) -> list[int]:
    """'801-810' or '801,805,809' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in `root`: its env line and result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    result = json.loads(lines[-1])
    if trace:
        result["op_us"] = median_op_us(root / ".bench_work" / "spans" / f"{workload}-{seed}.csv")
    return {"env": env, "result": result}


def median_op_us(span_file: Path) -> float:
    """The median duration of the timed ops' `op` spans, in microseconds."""
    with span_file.open(newline="") as fh:
        ops = [float(row["end_s"]) - float(row["start_s"]) for row in csv.DictReader(fh)
               if row["name"] == "op" and int(row["op"]) >= 0]
    return statistics.median(ops) * 1e6


def one_source(pairs: list[dict], side: str) -> str:
    """The source hash of one side's runs, which must not change between runs."""
    hashes = {p[side]["env"]["src_sha256"] for p in pairs}
    if len(hashes) != 1:
        raise SystemExit(f"the {side} checkout's src/mzsim changed during the pairs")
    return hashes.pop()


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(runs: dict[str, list[float]], spec: dict) -> dict:
    """Both sides' statistics of one metric over the pairs."""
    higher = spec["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(runs["parent"], runs["change"]))
    parent, change = summary(runs["parent"]), summary(runs["change"])
    entry = {key: spec[key] for key in ("unit", "better", "bound") if key in spec}
    entry.update(parent=parent, change=change,
                 change_over_parent=(change["median"] / parent["median"]
                                     if parent["median"] else None),
                 change_better_pairs=f"{wins}/{len(runs['parent'])}", runs=runs)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/B pairs of perfbench/run.py.")
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="e.g. 801-810; the pairs run in this order")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--about", help="what the change is, stored as the file's `about`")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(roots[side], args.workload, seed, args.seconds, args.trace)
                for side in order}
        pair["first"] = order[0]
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + "  ".join(
            f"{side} {json.dumps(pair[side]['result']['metrics'])}" for side in SIDES),
            flush=True)

    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in metric_specs:
        name = metric["name"]
        metrics[name] = compare({side: [p[side]["result"]["metrics"][name]["value"]
                                        for p in pairs] for side in SIDES}, metric)
    if args.trace:
        metrics["op_us"] = compare({side: [p[side]["result"]["op_us"] for p in pairs]
                                    for side in SIDES},
                                   {"unit": "us", "better": "lower"})
    entry = {
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed N "
                    f"--seconds {args.seconds:g} --trace {args.trace}"),
        "seeds": args.seeds, "pairs": len(pairs),
        "first_in_pair": [p["first"] for p in pairs],
        "ops": {side: sum(p[side]["result"]["attempted"] for p in pairs) for side in SIDES},
        "failed_ops": {side: sum(p[side]["result"]["failed"] for p in pairs)
                       for side in SIDES},
        "src_sha256": {side: one_source(pairs, side) for side in SIDES},
        "metrics": metrics,
    }

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.about:
        out["about"] = args.about
    env = pairs[0]["change"]["env"]
    out["commits"] = {side: pairs[0][side]["env"]["git_commit"] for side in SIDES}
    out["host"] = {key: env[key] for key in HOST_KEYS}
    out["statistics"] = STATISTICS
    out.setdefault("workloads", {})
    out.setdefault("traced", {})
    out["traced" if args.trace else "workloads"][args.workload] = entry
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
