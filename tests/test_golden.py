"""Byte-for-byte `mzx` output on the shipped experiments.

`golden/cli.json` maps each command line below to the exit code, stdout and
stderr it produced.  Commands run in-process from the repository root with
repo-relative paths, so `meta.file` in the JSON output is stable.  After
checking that a change of output is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each command line whose recorded output differs from the file
it overwrites.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from mzsim import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
FORMATS = ("table", "csv", "json")
FILES = sorted(p.name for p in (ROOT / "experiments").glob("*.mzx"))
ERASER_FILES = [f for f in FILES if f.startswith("eraser")]
PHASE_FILES = [f for f in FILES if f.endswith("_phase.mzx")]
#: The eraser files that run without a parameter.
ERASER_RUN_FILES = [f for f in ERASER_FILES if f not in PHASE_FILES]
SWEEP = ["--param", "phi", "--from", "0", "--to", "2pi", "--steps", "16"]
SWEEP_64 = ["--param", "phi", "--from", "0", "--to", "2pi", "--steps", "64"]
#: Kept beside the golden file so that no benchmark input changes with them.
ETA_FILE = "tests/golden/eraser_eta.mzx"
TREE_FILE = "tests/golden/readout_tree.mzx"
#: A file that breaks seven semantic rules, one diagnostic each.
PROBLEMS_FILE = "tests/golden/validate_problems.mzx"


def commands() -> list[list[str]]:
    out = []
    for fmt in FORMATS:
        for name in FILES:
            out.append(["run", f"experiments/{name}", "--format", fmt])
            out.append(["run", f"experiments/{name}", "--format", fmt,
                        "--shots", "20000", "--seed", "3"])
        for name in ERASER_FILES:
            out.append(["run", f"experiments/{name}", "--format", fmt,
                        "--given", "abs=yes"])
        # Sampled conditionals; eraser_closed never absorbs, so it exits 3.
        for name in ERASER_RUN_FILES:
            out.append(["run", f"experiments/{name}", "--format", fmt,
                        "--shots", "20000", "--seed", "3", "--given", "abs=yes"])
        for name in PHASE_FILES:
            out.append(["sweep", f"experiments/{name}", *SWEEP, "--format", fmt])
        for given in ("abs=yes", "abs=no"):
            out.append(["sweep", "experiments/eraser_phase.mzx", *SWEEP, "--format", fmt,
                        "--given", given])
    for name in PHASE_FILES:
        out.append(["sweep", f"experiments/{name}", *SWEEP_64, "--format", "json"])
    # P(Y) = 0 at phi = 0: conditioning on it exits 3.
    out.append(["sweep", "experiments/baseline_phase.mzx", *SWEEP, "--format", "json",
                "--given", "detector=Y"])
    # eta = 0 is outside (0, 1]: exits 1.
    out.append(["sweep", ETA_FILE, "--param", "eta", "--from", "0", "--to", "1",
                "--steps", "4", "--format", "json"])
    out.append(["sweep", ETA_FILE, "--param", "eta", "--from", "0.25", "--to", "1.25",
                "--steps", "4", "--format", "json", "--given", "abs=yes"])
    # A bad value after valid ones exits 1; with --given ww=A the valid
    # point 0.5 before it has P(given) = 0, and that error comes first (exit 3).
    out.append(["sweep", ETA_FILE, "--param", "eta", "--from", "0.5", "--to", "2",
                "--steps", "4", "--format", "json"])
    out.append(["sweep", ETA_FILE, "--param", "eta", "--from", "0.5", "--to", "2",
                "--steps", "4", "--format", "json", "--given", "ww=A"])
    # Shot counts that cross sampling block boundaries, the largest seed,
    # and a 128-leaf tree.
    out.append(["run", "experiments/whichway_readout.mzx", "--shots", "100003",
                "--seed", "5", "--format", "json"])
    out.append(["run", "experiments/eraser_eta_half.mzx", "--shots", "100003",
                "--seed", "18446744073709551615", "--format", "json", "--given", "abs=yes"])
    # A sampled conditional whose quotient is not 0 or 1.
    out.append(["run", "experiments/eraser_eta_half.mzx", "--format", "json",
                "--shots", "20000", "--seed", "3", "--given", "abs=no"])
    out.append(["run", TREE_FILE, "--format", "table"])
    out.append(["run", TREE_FILE, "--format", "table", "--shots", "70001", "--seed", "9"])
    out += [["validate", f"experiments/{name}"] for name in FILES]
    out.append(["validate", PROBLEMS_FILE])
    return out


def invoke(argv: list[str]) -> dict:
    """Run `mzx argv` in-process from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert list(load_golden()) == [" ".join(argv) for argv in commands()]


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("MZX_SEED", raising=False)
    assert invoke(argv) == load_golden()[" ".join(argv)]


if __name__ == "__main__":
    os.environ.pop("MZX_SEED", None)
    golden = {" ".join(argv): invoke(argv) for argv in commands()}
    old = load_golden() if GOLDEN.exists() else {}
    for line, result in golden.items():
        if old.get(line) != result:
            sys.stdout.write(f"changed: {line}\n")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(golden)} commands to {GOLDEN.relative_to(ROOT)}\n")
