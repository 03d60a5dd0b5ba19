"""Self-check of the benchmark's input generator and output oracles.

    python3 perfbench/selfcheck.py

For every workload it checks that
  * the same seed writes byte-identical input files, and another seed
    writes different ones (workloads that write generated programs);
  * one pass over the real ops fails no op;
  * the same ops, each with one expected value deliberately made wrong,
    are every one counted as a failed op by the benchmark's own loop.
It prints one line per check and exits 0 only if all hold.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs mzsim on the path)
from worker import run_loop  # noqa: E402

SEED = 7


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.mzx"))}


def check_workload(name: str, work: Path) -> list[tuple[str, bool]]:
    results = []
    first = workloads.build(name, SEED, ROOT, work / f"{name}-a")
    workloads.build(name, SEED, ROOT, work / f"{name}-b")
    workloads.build(name, SEED + 1, ROOT, work / f"{name}-c")
    a, b, c = (_files(work / f"{name}-{x}") for x in "abc")
    if a:   # the workloads that write generated programs
        results.append(("same seed, byte-identical inputs", a == b))
        results.append(("other seed, other inputs", a != c))

    ops = first.ops[:first.period]
    loop = run_loop(ops, 0.0, period=len(ops))
    results.append((f"{len(ops)} real ops, none failed", not loop["failed"]))
    for k, reason in loop["failed"].items():
        print(f"  op {k}: {reason}")

    wrong = [dataclasses.replace(op, expected=first.corrupt(op.expected)) for op in ops]
    loop = run_loop(wrong, 0.0, period=len(wrong))
    results.append((f"{len(wrong)} ops with a wrong expected value, all failed",
                    len(loop["failed"]) == len(wrong)))
    return results


def main() -> int:
    work = ROOT / ".bench_work" / "selfcheck"
    ok = True
    for name in workloads.WORKLOADS:
        for label, passed in check_workload(name, work):
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {label}")
            ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
