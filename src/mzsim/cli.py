"""Command-line front end (`mzx`).

    mzx run FILE [--shots N] [--seed S] [--format table|csv|json] [--given k=v,...]
    mzx sweep FILE --param NAME --from A --to B --steps K [--format ...] [--given ...]
    mzx validate FILE

Exit codes:

    0  success
    1  parse/validation error (also a bad seed, a non-finite sweep grid, or
       a `--given` pair with an empty key or value or a repeated key)
    2  I/O error; also an argparse usage error, such as a bad `--from`
       number or a missing `--param`, which argparse reports with its usage
    3  conditioning on a zero-probability event
    4  sweep with fewer than 2 steps or more than MAX_SWEEP_STEPS (10**6),
       checked before the grid is built
    5  out of memory: a valid file whose run or sweep needs more memory than
       the process can allocate, reported as one `error: out of memory:` line

Output is deterministic: identical file bytes, flags, and seed produce
byte-identical output.  CSV uses ',' separators, '.' decimal points, LF
line endings, and 17 significant digits; JSON is a single object with keys
in the fixed order meta, branches, conditionals, and (for sweeps)
visibility.  The MZX_SEED environment variable supplies a default seed for
sampled runs (the --seed flag overrides; the fallback seed is 0); seeds lie
in [0, 2**64).

The argument parser is built once per process, when this module is
imported, and `main` reuses it: `parse_args` leaves a parser unchanged, so
one call's flags never reach the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Sequence

from . import dsl, experiment, rng

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_ZERO_CONDITION = 3
EXIT_BAD_GRID = 4
EXIT_OUT_OF_MEMORY = 5
#: Most grid points `mzx sweep` takes: the grid, its results and the whole
#: output text are held in memory.  A 10**5-step sweep of
#: experiments/eraser_phase.mzx peaked at 170 MiB of RSS in JSON and 97 MiB
#: in CSV, against 33 MiB after the import alone (CPython 3.11, numpy 2.4,
#: x86-64 Linux): about 1.4 KiB and 0.65 KiB per point.
MAX_SWEEP_STEPS = 10**6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _num(text: str) -> float:
    """Float flag value, with an optional 'pi' suffix (e.g. 2pi, 0.5pi, -pi)."""
    number, factor = text.strip(), 1.0
    if number.endswith("pi"):
        number, factor = number[:-2], math.pi
        if number in ("", "+", "-"):
            number += "1"
    try:
        return float(number) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _read_source(path: str) -> tuple[bytes, str]:
    """The bytes of the file at `path` and their UTF-8 text."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_IO, f"{path} is not UTF-8 text: {exc}") from None


def _diagnostic(path: str, exc: dsl.ParseError) -> str:
    return f"{path}:{exc.line}:{exc.col}: {exc.category} error: {exc.message}"


def _parse_given(text: str | None) -> dict[str, str]:
    """The record key -> outcome label pairs of a `--given` flag: each key
    and value non-empty, and no key twice."""
    if not text:
        return {}
    pairs = {}
    for chunk in text.split(","):
        key, eq, value = (part.strip() for part in chunk.partition("="))
        if not (eq and key and value):
            raise CliError(EXIT_INVALID,
                           f"--given expects key=value pairs, got {chunk!r}")
        if key in pairs:
            raise CliError(EXIT_INVALID, f"--given repeats the key {key!r}")
        pairs[key] = value
    return pairs


def _given_label(pairs: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in pairs.items())


def _record_label(record: experiment.Record) -> str:
    return " ".join(f"{k}={v}" for k, v in record)


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        seed, source = flag, "--seed"
    else:
        env = os.environ.get("MZX_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "MZX_SEED"
        except ValueError:
            raise CliError(EXIT_INVALID, f"MZX_SEED must be an integer, got {env!r}") from None
    if not 0 <= seed < rng.SEED_LIMIT:
        raise CliError(EXIT_INVALID, f"{source} must lie in [0, 2**64), got {seed}")
    return seed


def _load(path: str) -> tuple[dsl.ExperimentAst, str]:
    raw, src = _read_source(path)
    try:
        ast = dsl.parse_text(src)
    except dsl.ParseError as exc:
        raise CliError(EXIT_INVALID, _diagnostic(path, exc)) from None
    return ast, hashlib.sha256(raw).hexdigest()


def _conditional_rows(records: Sequence[experiment.Record], weights: Sequence[float],
                      given: dict[str, str], message: str) -> list[dict]:
    """P(detector=X | given) and P(detector=Y | given) from the leaves'
    probabilities or the histogram's counts (exact as floats below 2**53,
    so each quotient is the correctly rounded count ratio); `message` is
    the error when the given event has weight zero."""
    if not given:
        return []
    pred = experiment.matches(**given)
    base, *joints = experiment.leaf_sums(
        records, weights, [(pred,)] + [(pred, experiment.matches(detector=outcome))
                                       for outcome in ("X", "Y")]).ravel().tolist()
    if base == 0.0:
        raise CliError(EXIT_ZERO_CONDITION, message)
    return [{"query": f"detector={outcome}|{_given_label(given)}", "value": joint / base}
            for outcome, joint in zip(("X", "Y"), joints)]


def cmd_run(args) -> int:
    ast, digest = _load(args.file)
    given = _parse_given(args.given)
    try:
        pipeline = dsl.compile(ast)
    except dsl.ParseError as exc:
        raise CliError(EXIT_INVALID, _diagnostic(args.file, exc)) from None

    meta = {"file": args.file, "sha256": digest, "given": _given_label(given) or None}
    if args.shots is None:
        dist = experiment.run_analytic(pipeline)
        meta.update(mode="analytic", seed=None, shots=None,
                    prune_threshold=experiment.PRUNE_PROB)
        branches = [{"record": dict(record), "probability": prob}
                    for record, prob in zip(dist.records, dist.probs.tolist())]
        conditionals = _conditional_rows(dist.records, dist.probs, given,
                                         "conditioning event has zero probability")
    else:
        if args.shots < 1:
            raise CliError(EXIT_INVALID, "--shots must be at least 1")
        seed = _resolve_seed(args.seed)
        hist = experiment.run_sampled(pipeline, args.shots, seed)
        meta.update(mode="sampled", seed=seed, shots=args.shots)
        branches = [{"record": dict(record), "count": n,
                     "frequency": n / hist.shots}
                    for record, n in hist.counts.items()]
        conditionals = _conditional_rows(list(hist.counts), list(hist.counts.values()), given,
                                         "conditioning event never occurred")

    _emit_run(meta, branches, conditionals, args.format)
    return EXIT_OK


def _emit_run(meta: dict, branches: list[dict], conditionals: list[dict], fmt: str):
    if fmt == "json":
        obj = {"meta": meta, "branches": branches, "conditionals": conditionals}
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
        return
    sampled = meta["mode"] == "sampled"
    if fmt == "csv":
        lines = ["kind,label,value"]
        lines.append(f"meta,mode,{meta['mode']}")
        lines.append(f"meta,file_sha256,{meta['sha256']}")
        if sampled:
            lines.append(f"meta,seed,{meta['seed']}")
            lines.append(f"meta,shots,{meta['shots']}")
        for row in branches:
            label = _record_label(tuple(row["record"].items()))
            value = row["count"] if sampled else _fmt(row["probability"])
            lines.append(f"branch,{label},{value}")
        for row in conditionals:
            lines.append(f"conditional,{row['query']},{_fmt(row['value'])}")
        sys.stdout.write("\n".join(lines) + "\n")
        return
    # table
    lines = []
    for row in branches:
        label = _record_label(tuple(row["record"].items())) or "(none)"
        if sampled:
            lines.append(f"{label}  {row['count']}  ({row['frequency']:.10g})")
        else:
            lines.append(f"{label}  {row['probability']:.10g}")
    for row in conditionals:
        lines.append(f"{row['query']}  {row['value']:.10g}")
    if sampled:
        lines.append(f"seed: {meta['seed']}  shots: {meta['shots']}")
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise CliError(EXIT_BAD_GRID, "--steps must be at least 2")
    if args.steps > MAX_SWEEP_STEPS:
        raise CliError(EXIT_BAD_GRID, f"--steps must be at most {MAX_SWEEP_STEPS}")
    ast, digest = _load(args.file)
    given = _parse_given(args.given)
    try:
        build = dsl.sweep_template(ast, args.param)
    except dsl.ParseError as exc:
        raise CliError(EXIT_INVALID, f"{args.file}: {exc.message}") from None

    # Endpoint-exclusive grid: from, from + h, ..., to - h with h = span/steps.
    span = args.to - args.from_
    grid = [args.from_ + i * span / args.steps for i in range(args.steps)]
    pred = experiment.matches(**given) if given else None
    try:
        result = experiment.sweep(build, args.param, grid, given=pred)
    except dsl.ParseError as exc:
        raise CliError(EXIT_INVALID, f"{args.file}: {exc.message}") from None
    except experiment.ZeroProbabilityEventError as exc:
        raise CliError(EXIT_ZERO_CONDITION, str(exc)) from None
    except ValueError as exc:  # a non-finite grid value, e.g. --to inf
        raise CliError(EXIT_INVALID, str(exc)) from None

    meta = {"file": args.file, "sha256": digest, "mode": "sweep",
            "parameter": args.param, "from": args.from_, "to": args.to,
            "steps": args.steps, "given": _given_label(given) or None}
    rows = []
    for p in result.points:
        row = {"value": p.value, "prob_x": p.prob_x, "prob_y": p.prob_y}
        if given:
            row["given_x"] = p.cond_x
            row["given_y"] = p.cond_y
        rows.append(row)
    _emit_sweep(meta, rows, result.visibility, args.format, conditioned=bool(given))
    return EXIT_OK


def _emit_sweep(meta: dict, rows: list[dict], visibility: float, fmt: str, conditioned: bool):
    if fmt == "json":
        obj = {"meta": meta, "branches": rows, "conditionals": [], "visibility": visibility}
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
        return
    columns = ["value", "prob_x", "prob_y"] + \
        (["given_x", "given_y"] if conditioned else [])
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        lines.append(f"visibility,{_fmt(visibility)}")
        sys.stdout.write("\n".join(lines) + "\n")
        return
    lines = ["  ".join(columns)]
    for row in rows:
        lines.append("  ".join(f"{row[c]:.10g}" for c in columns))
    lines.append(f"visibility: {visibility:.10g}")
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_validate(args) -> int:
    _, src = _read_source(args.file)
    try:
        problems = dsl.validate(dsl.parse(dsl.tokenize(src)))
    except dsl.ParseError as exc:
        problems = [exc]
    if problems:
        for exc in problems:
            sys.stderr.write(_diagnostic(args.file, exc) + "\n")
        return EXIT_INVALID
    sys.stdout.write("OK\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzx", description="Run interferometer experiment files.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a file analytically or with sampling")
    run.add_argument("file")
    run.add_argument("--shots", type=int, default=None,
                     help="sample this many shots instead of exact enumeration")
    run.add_argument("--seed", type=int, default=None,
                     help="RNG seed for --shots (default: $MZX_SEED, else 0)")
    run.add_argument("--format", choices=("table", "csv", "json"), default="table")
    run.add_argument("--given", default=None,
                     help="condition on record values, e.g. abs=yes or ww=A")
    run.set_defaults(func=cmd_run)

    swp = sub.add_parser("sweep", help="sweep the file's free parameter")
    swp.add_argument("file")
    swp.add_argument("--param", required=True)
    swp.add_argument("--from", dest="from_", type=_num, required=True,
                     metavar="FROM", help="grid start (accepts e.g. 0.5pi)")
    swp.add_argument("--to", type=_num, required=True,
                     help="grid end, excluded (accepts e.g. 2pi)")
    swp.add_argument("--steps", type=int, required=True)
    swp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    swp.add_argument("--given", default=None)
    swp.set_defaults(func=cmd_sweep)

    val = sub.add_parser("validate", help="check a file and report diagnostics")
    val.add_argument("file")
    val.set_defaults(func=cmd_validate)
    return parser


#: The parser `main` uses; built once, never changed after.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        message, code = str(exc), exc.code
    except MemoryError as exc:
        # Written once the handler has let go of the failed walk's frames.
        message, code = f"out of memory: {exc}", EXIT_OUT_OF_MEMORY
    sys.stderr.write(f"error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
