"""Host-speed calibration: a fixed reference kernel timed next to the ops.

The machines this benchmark runs on change speed by tens of percent for
seconds at a time, because they share cores with other work.  The kernel
below does the kinds of work `mzsim` does, in about equal shares of time:
building an argparse parser and a JSON round trip (what `cli.main` spends
most of its time on), many small complex matrix products (the walkers), and
one pass over an array of random numbers (shot sampling).  It never calls
`mzsim`.  Timing it between ops gives the host's current speed, and
`factor()` turns a measured time into the time the same work would take on
the reference machine, where one kernel call takes REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

import numpy as np

#: Seconds one `kernel()` call takes on the reference machine (see README).
REFERENCE_KERNEL_S = 0.008
#: Kernel calls per calibration sample; the sample is their median.
CALLS_PER_SAMPLE = 3

_SMALL = (np.arange(64, dtype=np.complex128).reshape(8, 8) + 1j) / 64.0
_EYE = np.eye(4, dtype=np.complex128)
_REPORT = {"branches": [{"record": {"detector": str(i)}, "probability": i / 7}
                        for i in range(8)]}


def kernel() -> float:
    """A fixed amount of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="kernel")
        run = parser.add_subparsers(dest="command").add_parser("run")
        run.add_argument("file")
        run.add_argument("--format", default="text")
        run.add_argument("--given", action="append")
        args = parser.parse_args(["run", "a.mzx", "--format", "json", "--given", "abs=yes"])
        acc += len(json.loads(json.dumps(_REPORT))["branches"]) + len(args.given)
    m = _SMALL
    for _ in range(50):
        m = (m @ _SMALL) * 0.5
        acc += float(np.kron(m[:2, :2], _EYE).real.sum())
    u = np.random.default_rng(12345).random(50_000)
    cdf = np.cumsum(np.full(8, 0.125))
    return acc + float(np.bincount(np.searchsorted(cdf, u), minlength=9).sum())


def sample() -> float:
    """Seconds of one kernel call at the host's current speed.

    The garbage collector is paused meanwhile: samples are taken every so
    many seconds, and a collection they triggered would move the program's
    own collections, and with them its peak memory, with the host's speed.
    """
    times = []
    gc.disable()
    try:
        for _ in range(CALLS_PER_SAMPLE):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[len(times) // 2]


def factor(kernel_s: float) -> float:
    """Multiply a measured time by this to get reference-machine time."""
    return REFERENCE_KERNEL_S / kernel_s
