"""Seeded inputs, operations and output oracles of the four workloads.

`build(name, seed, root, workdir)` makes a workload from the benchmark seed
alone: it generates and writes the input files, parses and compiles what the
timed operations do not, and returns a cyclic list of operations.

An `Op` makes one call into `mzsim`'s public functions (`call`) and returns
the output in a form that compares with `==`, so that a replay can check
bit-reproducibility.  `check(output, expected)` returns None when the output
agrees with a closed-form physics oracle and a one-line reason otherwise.
`expected` is plain data, so a deliberately corrupted copy (see
`Workload.corrupt`) must make the same check fail.

All public names are looked up on the `mzsim` modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from mzsim import cli, dsl, experiment

WORKLOADS = ("analytic_suite", "phase_sweep", "shot_sampling", "branch_tree")

#: Absolute tolerance of every probability oracle.
TOL = 1e-12
#: log(1/p) for the per-count false-alarm probability p = 1e-12 of the
#: Bernstein bound on sampled counts.
_SHOT_TAIL_LOG = math.log(1e12)

GENERATED_PROGRAMS = 115      # analytic_suite: 13 hand-written + 115 = 128 ops a pass
SWEEP_POINTS = 64
SAMPLING_SHOTS = 1_000_000
BRANCH_BLOCKS = 10            # 2**(BRANCH_BLOCKS + 1) = 2048 leaves
BRANCH_PROGRAMS = 8
BRANCH_SHOTS = 10_000
OP_LIST_LEN = 4096            # per-op phases and seeds cycle after this many ops


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    expected: Any


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    #: Ops in one pass over the distinct inputs; the traced run measures
    #: whole passes so that its counts repeat exactly.
    period: int
    #: Returns a copy of `expected` with one value made wrong.
    corrupt: Callable[[Any], Any]


def seeded(name: str, seed: int) -> random.Random:
    """The one random source of a workload; str seeds hash with SHA-512."""
    return random.Random(f"mzsim-perfbench/{name}/{seed}")


# --- program generator -------------------------------------------------------

def _phase_text(rng: random.Random) -> str:
    style = rng.randrange(3)
    if style == 0:
        return f"{rng.uniform(-2.0, 2.0):.4f}pi"
    if style == 1:
        return f"{rng.uniform(-6.5, 6.5):.6f}"
    return f"{rng.uniform(1.0, 9.9):.3f}e-1pi"


def generate_program(rng: random.Random, index: int) -> str:
    """A valid `.mzx` program of 5 to 30 directives (grammar: `mzsim.dsl`).

    Its length, whether it has an entangler, and how many measurement
    stages (0 to 2) precede `detect` follow from `index` alone, so that a
    pass over the programs costs about the same for every seed; the seed
    picks the stages, their order and their parameters.  With an entangler
    the measurements are eraser stages after it, which the no-signalling
    oracle removes again; without one they are `wwreadout`.
    """
    n_body = 3 + index % 26
    use_entangler = index % 5 < 3
    n_measure = index // 5 % 3
    source = f"source {rng.choice('AB')}" + (" excited" if rng.random() < 0.5 else "")
    entangler_at = rng.randrange(n_body - n_measure) if use_entangler else -1
    measure_at = set(rng.sample(range(entangler_at + 1, n_body), n_measure))
    lines = [f"# generated program {index}", source]
    for i in range(n_body):
        if i == entangler_at:
            line = "entangler"
        elif i in measure_at and use_entangler:
            line = ("eraser closed", "eraser open",
                    f"eraser open eta={rng.uniform(0.05, 1.0):.4f}")[rng.randrange(3)]
        elif i in measure_at:
            line = "wwreadout"
        else:
            kind = rng.choice(["beamsplitter"] * 3 + ["mirrors"] + ["phase"] * 2)
            line = f"phase {rng.choice('AB')} {_phase_text(rng)}" if kind == "phase" else kind
        if rng.random() < 0.1:
            line += "   # note"
        lines.append(line)
        if rng.random() < 0.05:
            lines.append("")
    lines.append("detect")
    return "\n".join(lines) + "\n"


def strip_erasers(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.lstrip().startswith("eraser"))


def branch_tree_program(rng: random.Random) -> str:
    """10 x (beamsplitter, phase, wwreadout), then beamsplitter, detect.

    Only the phases' arms and values are seeded, so every program has the
    same stages and costs the same to run.
    """
    lines = ["source A"]
    for _ in range(BRANCH_BLOCKS):
        lines.append("beamsplitter")
        lines.append(f"phase {rng.choice('AB')} {_phase_text(rng)}")
        lines.append("wwreadout")
    lines += ["beamsplitter", "detect"]
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(path)


# --- closed-form oracles -------------------------------------------------------

def _cos2(phi: float) -> float:
    return math.cos(phi / 2.0) ** 2


def _sin2(phi: float) -> float:
    return math.sin(phi / 2.0) ** 2


X, Y = (("detector", "X"),), (("detector", "Y"),)


def _with_abs(absorbed: str, det: tuple) -> tuple:
    return (("abs", absorbed),) + det


def _eraser_table(p_yes_x, p_yes_y, p_no_x, p_no_y) -> dict:
    return {_with_abs("yes", X): p_yes_x, _with_abs("yes", Y): p_yes_y,
            _with_abs("no", X): p_no_x, _with_abs("no", Y): p_no_y}


def _readout_table() -> dict:
    return {(("ww", w),) + d: 0.25 for w in "AB" for d in (X, Y)}


#: file -> (branch table as a function of the bound phase, P(X|abs=yes) or None).
#: The values are the ones the files' comments state.
HANDWRITTEN = {
    "baseline.mzx": (lambda phi: {X: 1.0}, None),
    "baseline_phase.mzx": (lambda phi: {X: _cos2(phi), Y: _sin2(phi)}, None),
    "entangler.mzx": (lambda phi: {X: 0.5, Y: 0.5}, None),
    "entangler_phase.mzx": (lambda phi: {X: 0.5, Y: 0.5}, None),
    "eraser.mzx": (lambda phi: _eraser_table(0.5, 0.0, 0.0, 0.5), lambda phi: 1.0),
    "eraser_closed.mzx": (lambda phi: {X: 0.5, Y: 0.5}, None),
    "eraser_early.mzx": (lambda phi: _eraser_table(0.5, 0.0, 0.0, 0.5), lambda phi: 1.0),
    "eraser_eta_half.mzx": (lambda phi: _eraser_table(0.25, 0.0, 0.25, 0.5),
                            lambda phi: 1.0),
    "eraser_phase.mzx": (lambda phi: _eraser_table(_cos2(phi) / 2, _sin2(phi) / 2,
                                                   _sin2(phi) / 2, _cos2(phi) / 2),
                         _cos2),
    "phase_half_pi.mzx": (lambda phi: {X: 0.5, Y: 0.5}, None),
    "phase_pi.mzx": (lambda phi: {Y: 1.0}, None),
    "source_b.mzx": (lambda phi: {Y: 1.0}, None),
    "whichway_readout.mzx": (lambda phi: _readout_table(), None),
}

SWEEP_FILES = {          # file -> (fringe oracle, conditioning)
    "baseline_phase.mzx": (_cos2, None),
    "entangler_phase.mzx": (lambda phi: 0.5, None),
    "eraser_phase.mzx": (_cos2, {"abs": "yes"}),
}

#: Hand-written files with a measurement stage before `detect`.
SAMPLING_FILES = ("whichway_readout.mzx", "eraser.mzx", "eraser_early.mzx",
                  "eraser_eta_half.mzx")


def _table_mismatch(actual: dict, expected: dict) -> str | None:
    for record in sorted(actual.keys() | expected.keys()):
        got, want = actual.get(record, 0.0), expected.get(record, 0.0)
        if not abs(got - want) <= TOL:
            return f"P({record}) = {got!r}, expected {want!r}"
    return None


def _detector_marginal(table: dict, outcome: str) -> float:
    return sum(p for record, p in table.items() if ("detector", outcome) in record)


def count_bounds(shots: int, prob: float) -> tuple[float, float]:
    """Bernstein interval holding a binomial count except with prob < 1e-12."""
    mean = shots * prob
    var = shots * prob * (1.0 - prob)
    width = _SHOT_TAIL_LOG / 3.0 + math.sqrt((_SHOT_TAIL_LOG / 3.0) ** 2
                                             + 2.0 * var * _SHOT_TAIL_LOG)
    return mean - width, mean + width


def _counts_mismatch(counts: tuple, table: dict, shots: int) -> str | None:
    observed = dict(counts)
    if sum(observed.values()) != shots:
        return f"counts sum to {sum(observed.values())}, not {shots}"
    for record in sorted(observed.keys() | table.keys()):
        prob = table.get(record, 0.0)
        low, high = count_bounds(shots, prob)
        n = observed.get(record, 0)
        if prob == 0.0 and n:
            return f"{n} shots drew {record}, which has probability 0"
        if not low <= n <= high:
            return f"count {n} of {record} outside [{low:.1f}, {high:.1f}] for p={prob!r}"
    return None


def _distribution(pipeline) -> dict:
    return {b.record: b.prob for b in experiment.run_analytic(pipeline).branches}


# --- analytic_suite --------------------------------------------------------------

def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_report(output) -> tuple[dict | None, str | None]:
    code, stdout, stderr = output
    if code != 0:
        return None, f"exit code {code}: {stderr.strip()}"
    report = json.loads(stdout)
    table = {tuple(row["record"].items()): row["probability"]
             for row in report["branches"]}
    return {"table": table, "conditionals": report["conditionals"]}, None


def _check_handwritten(output, expected) -> str | None:
    report, error = _cli_report(output)
    if error:
        return error
    mismatch = _table_mismatch(report["table"], expected["table"])
    if mismatch:
        return mismatch
    if expected["p_x_given_abs"] is not None:
        got = {row["query"]: row["value"] for row in report["conditionals"]}
        want = {"detector=X|abs=yes": expected["p_x_given_abs"],
                "detector=Y|abs=yes": 1.0 - expected["p_x_given_abs"]}
        for query, value in want.items():
            if not abs(got.get(query, math.nan) - value) <= TOL:
                return f"{query} = {got.get(query)!r}, expected {value!r}"
    return None


def _check_generated(output, expected) -> str | None:
    report, error = _cli_report(output)
    if error:
        return error
    table = report["table"]
    if len(table) > 8 or any(p < 0.0 for p in table.values()):
        return f"{len(table)} branches or a negative probability"
    total = sum(table.values())
    if not abs(total - 1.0) <= TOL:
        return f"probabilities sum to {total!r}"
    p_x = _detector_marginal(table, "X")
    if not abs(p_x - expected["p_x_without_erasers"]) <= TOL:
        return (f"no-signalling: P(X) = {p_x!r} with erasers, "
                f"{expected['p_x_without_erasers']!r} without")
    return None


def _corrupt_analytic(expected: dict) -> dict:
    if "table" in expected:
        table = dict(expected["table"])
        first = next(iter(table))
        table[first] += 1e-9
        return {**expected, "table": table}
    return {**expected, "p_x_without_erasers": expected["p_x_without_erasers"] + 1e-9}


def _bind_phase(text: str, phi_text: str) -> str:
    return "".join(line.replace(" phi", f" {phi_text}") if line.startswith("phase")
                   else line for line in text.splitlines(keepends=True))


def _analytic_suite(rng: random.Random, root: Path, workdir: Path) -> Workload:
    ops = []
    for name, (table_of, cond_of) in HANDWRITTEN.items():
        path = root / "experiments" / name
        text = path.read_text()
        phi = None
        if "phi" in dsl.parse_text(text).free_parameters:
            # A free phase is bound to a seeded value in a written copy.
            phi_text = f"{rng.uniform(0.0, 2.0 * math.pi):.6f}"
            phi = float(phi_text)
            path = workdir / name
            _write(path, _bind_phase(text, phi_text))
        argv = ["run", str(path), "--format", "json"]
        if cond_of is not None:
            argv += ["--given", "abs=yes"]
        expected = {"table": table_of(phi),
                    "p_x_given_abs": cond_of(phi) if cond_of else None}
        ops.append(Op(name, lambda argv=argv: _run_cli(argv), _check_handwritten,
                      expected))
    for i in range(GENERATED_PROGRAMS):
        text = generate_program(rng, i)
        path = workdir / f"generated_{i:03d}.mzx"
        _write(path, text)
        reference = _distribution(dsl.compile(dsl.parse_text(strip_erasers(text))))
        argv = ["run", str(path), "--format", "json"]
        ops.append(Op(path.name, lambda argv=argv: _run_cli(argv), _check_generated,
                      {"p_x_without_erasers": _detector_marginal(reference, "X")}))
    return Workload(ops, len(ops), _corrupt_analytic)


# --- phase_sweep -------------------------------------------------------------------

def _sweep_call(ast, grid, given):
    pred = experiment.matches(**given) if given else None
    result = experiment.sweep(dsl.sweep_template(ast, "phi"), "phi", grid, given=pred)
    return (tuple((p.value, p.prob_x, p.prob_y, p.cond_x) for p in result.points),
            result.visibility)


def _check_sweep(output, expected) -> str | None:
    points, vis = output
    fringe_of, conditioned, phi0 = expected
    fringe = []
    for i, (value, prob_x, prob_y, cond_x) in enumerate(points):
        phi = phi0 + i * 2.0 * math.pi / SWEEP_POINTS
        want = fringe_of(phi)
        got = cond_x if conditioned else prob_x
        if not abs(got - want) <= TOL:
            return f"P(X) at phi={phi!r} is {got!r}, expected {want!r}"
        if not abs(prob_x + prob_y - 1.0) <= TOL:
            return f"P(X) + P(Y) = {prob_x + prob_y!r} at phi={phi!r}"
        fringe.append(want)
    want_vis = experiment.visibility(fringe)
    if not abs(vis - want_vis) <= 1e-9:
        return f"visibility {vis!r}, expected {want_vis!r}"
    return None


def _phase_sweep(rng: random.Random, root: Path, workdir: Path) -> Workload:
    kinds = []
    for name, (fringe_of, given) in SWEEP_FILES.items():
        ast = dsl.parse_text((root / "experiments" / name).read_text())
        kinds.append((name, ast, fringe_of, given))
    ops = []
    for k in range(OP_LIST_LEN):
        name, ast, fringe_of, given = kinds[k % len(kinds)]
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        grid = [phi0 + i * 2.0 * math.pi / SWEEP_POINTS for i in range(SWEEP_POINTS)]
        ops.append(Op(name, lambda a=ast, g=grid, c=given: _sweep_call(a, g, c),
                      _check_sweep, (fringe_of, given is not None, phi0)))
    return Workload(ops, len(kinds),
                    lambda e: (lambda phi, f=e[0]: f(phi) + 1e-9, e[1], e[2]))


# --- shot_sampling -----------------------------------------------------------------

def _sample_call(pipeline, shots, seed):
    return tuple(experiment.run_sampled(pipeline, shots, seed).counts.items())


def _check_sampled(output, expected) -> str | None:
    table, shots = expected
    return _counts_mismatch(output, table, shots)


def _corrupt_table(table: dict) -> dict:
    table = dict(table)
    first = next(iter(table))
    table[first] += 0.01
    return table


def _shot_sampling(rng: random.Random, root: Path, workdir: Path) -> Workload:
    kinds = []
    for name in SAMPLING_FILES:
        pipeline = dsl.compile(dsl.parse_text((root / "experiments" / name).read_text()))
        kinds.append((name, pipeline, HANDWRITTEN[name][0](None)))
    ops = []
    for k in range(OP_LIST_LEN):
        name, pipeline, table = kinds[k % len(kinds)]
        seed = rng.getrandbits(64)
        ops.append(Op(name, lambda p=pipeline, s=seed: _sample_call(p, SAMPLING_SHOTS, s),
                      _check_sampled, (table, SAMPLING_SHOTS)))
    return Workload(ops, len(kinds),
                    lambda e: (_corrupt_table(e[0]), e[1]))


# --- branch_tree -----------------------------------------------------------------------

def _tree_call(pipeline, seed):
    dist = experiment.run_analytic(pipeline)
    hist = experiment.run_sampled(pipeline, BRANCH_SHOTS, seed)
    return (tuple((b.record, b.prob) for b in dist.branches),
            tuple(hist.counts.items()))


def _check_tree(output, expected) -> str | None:
    leaves, counts = output
    n_leaves, leaf_prob = expected
    if len(leaves) != n_leaves or len({r for r, _ in leaves}) != n_leaves:
        return f"{len(leaves)} leaves, expected {n_leaves} distinct"
    for record, prob in leaves:
        if not abs(prob - leaf_prob) <= TOL:
            return f"leaf {record} has P = {prob!r}, expected {leaf_prob!r}"
    return _counts_mismatch(counts, dict(leaves), BRANCH_SHOTS)


def _branch_tree(rng: random.Random, root: Path, workdir: Path) -> Workload:
    pipelines = []
    for i in range(BRANCH_PROGRAMS):
        path = workdir / f"tree_{i}.mzx"
        _write(path, branch_tree_program(rng))
        pipelines.append((path.name, dsl.compile(dsl.parse_text(path.read_text()))))
    n_leaves = 2 ** (BRANCH_BLOCKS + 1)
    ops = []
    for k in range(OP_LIST_LEN):
        name, pipeline = pipelines[k % len(pipelines)]
        seed = rng.getrandbits(64)
        ops.append(Op(name, lambda p=pipeline, s=seed: _tree_call(p, s), _check_tree,
                      (n_leaves, 1.0 / n_leaves)))
    return Workload(ops, len(pipelines),
                    lambda e: (e[0], e[1] + 1e-9))


_BUILDERS = {"analytic_suite": _analytic_suite, "phase_sweep": _phase_sweep,
             "shot_sampling": _shot_sampling, "branch_tree": _branch_tree}


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate, write and compile the inputs of one workload."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seeded(name, seed), root, workdir)
