"""Pipeline assembly and execution.

A `Pipeline` is an initial state plus an ordered list of stages over one
space.  One breadth-first walk, `_branch_tree`, evolves every measurement
branch of positive probability, one measurement level at a time, as the
rows of a (branches, d) amplitude array, and returns its leaves as arrays.
`run_analytic` reports the leaves exactly: it checks the whole (leaves, d)
block of leaf amplitudes once with `hilbert.check_states`, and a `Branch`
builds its `StateVector` from its row only when `.state` is read.
`run_sampled` draws per-shot outcomes down the same levels with a
counter-based RNG (see `rng`), SHOT_BLOCK shots at a time, so its memory is
O(SHOT_BLOCK x measurement stages) for any shot count.  Exact enumeration
is always the source of truth and sampling is validated against it.

`sweep` evaluates a pipeline per grid point.  A `PipelineFamily` (what
`dsl.sweep_template` returns) runs as a batch: its swept stages are stacked
over the grid and lifted once, and one depth-first walk evolves the
amplitudes of G points (up to SWEEP_CHUNK) as a (G, d) array, reproducing
`_branch_tree`'s arithmetic bit for bit.  Any other pipeline builder runs
point by point through `run_analytic`, the reference the batch is tested
against.

Branch records map a per-stage record key ("ww", "abs", "detector") to an
outcome label; record tuples list the keys in stage order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import rng
from .hilbert import LinearMap, SpaceSpec, StateVector, check_states, label_projector, lift
from .components import EraserKrausPair

#: Branches below this probability are dropped from analytic distributions.
PRUNE_PROB = 1e-14
#: Tolerance on the total probability of a distribution.
ATOL_DIST_SUM = 1e-10
#: Tolerance for distribution equality in the delayed-choice check.
ATOL_DELAYED = 1e-12
#: Grid points per batched sweep walk; a lifted (points, d, d) stage stack
#: then takes at most 9 MiB at d = 24, the largest space `dsl` builds.
SWEEP_CHUNK = 1024
#: Shots per sampling block; a block's draws take SHOT_BLOCK x 8 bytes per
#: measurement stage.
SHOT_BLOCK = 1 << 15

Record = tuple[tuple[str, str], ...]
Predicate = Callable[[Mapping[str, str]], bool]


class PipelineError(ValueError):
    """A pipeline failed validation."""


class ZeroProbabilityEventError(ValueError):
    """Conditioning on an event that has zero probability."""


@dataclass(frozen=True, eq=False)
class Unitary:
    """Apply a unitary to the named target subsystems (identity elsewhere)."""

    op: LinearMap
    targets: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ProjectiveMeasure:
    """Measure one subsystem in its basis and record the outcome.

    `outcome_names` optionally renames basis labels in the record (the
    which-way readout records direction x as "A" and y as "B").
    """

    subsystem: str
    record_key: str
    outcome_names: Mapping[str, str] | None = field(default=None)


@dataclass(frozen=True, eq=False)
class GeneralizedMeasure:
    """Two-outcome Kraus measurement; records "yes" (absorbed) or "no"."""

    kraus: EraserKrausPair
    targets: tuple[str, ...]
    record_key: str


@dataclass(frozen=True, eq=False)
class Detect:
    """Terminal detectors on the direction subsystem: outcomes X and Y."""

    record_key: str = field(default="detector")


Stage = Unitary | ProjectiveMeasure | GeneralizedMeasure | Detect


def unitary_on(op: LinearMap, targets: Sequence[str] | None = None) -> Unitary:
    """Stage wrapper; targets default to the operator's own subsystems."""
    return Unitary(op, tuple(targets) if targets is not None else op.space.names)


@dataclass(frozen=True, eq=False)
class Pipeline:
    """Validated experiment: space, initial state, ordered stages."""

    space: SpaceSpec
    initial: StateVector
    stages: tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        problems = validate_stages(self.space, self.initial, self.stages)
        if problems:
            raise PipelineError("; ".join(problems))


def validate_stages(space: SpaceSpec, initial: StateVector,
                    stages: Sequence[Stage]) -> list[str]:
    """All validation failures for a prospective pipeline (empty if valid)."""
    problems = []
    if initial.space != space:
        problems.append("initial state lives on a different space")
    elif not initial.normalized:
        problems.append("initial state must be normalized")

    detect_positions = [i for i, s in enumerate(stages) if isinstance(s, Detect)]
    if len(detect_positions) != 1:
        problems.append(f"expected exactly one detect stage, found {len(detect_positions)}")
    elif detect_positions[0] != len(stages) - 1:
        problems.append("detect must be the final stage")

    keys = []
    for i, stage in enumerate(stages):
        where = f"stage {i + 1}"
        if isinstance(stage, Unitary):
            try:
                if space.restricted(stage.targets) != stage.op.space:
                    problems.append(f"{where}: operator does not match targets {stage.targets}")
            except Exception as exc:
                problems.append(f"{where}: {exc}")
        elif isinstance(stage, ProjectiveMeasure):
            keys.append(stage.record_key)
            if stage.subsystem not in space.names:
                problems.append(f"{where}: unknown subsystem {stage.subsystem!r}")
        elif isinstance(stage, GeneralizedMeasure):
            keys.append(stage.record_key)
            try:
                if space.restricted(stage.targets) != stage.kraus.space:
                    problems.append(f"{where}: Kraus pair does not match targets {stage.targets}")
            except Exception as exc:
                problems.append(f"{where}: {exc}")
        elif isinstance(stage, Detect):
            keys.append(stage.record_key)
            if "direction" not in space.names:
                problems.append(f"{where}: no direction subsystem to detect")
    if len(set(keys)) != len(keys):
        problems.append(f"record keys must be unique, got {keys}")
    return problems


@dataclass(frozen=True, eq=False)
class SweptStage:
    """A stage that the swept parameter sets.

    `template` is the stage at one valid value; it fixes the stage's kind,
    targets and record key.  `build(value)` is the stage at `value`, and
    `stack(values)` gives its local matrices at every value, in the order
    `_local_operators` lists them for `template`, as (len(values), k, k)
    arrays.
    """

    template: Stage
    build: Callable[[float], Stage]
    stack: Callable[[np.ndarray], Sequence[np.ndarray]]


@dataclass(frozen=True, eq=False)
class PipelineFamily:
    """Pipelines that differ only in the value of one parameter.

    `family(value)` builds the pipeline at one value; `sweep` evolves a
    grid of them as a batch.
    """

    space: SpaceSpec
    initial: StateVector
    stages: tuple[Stage | SweptStage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        problems = validate_stages(self.space, self.initial,
                                   [s.template if isinstance(s, SweptStage) else s
                                    for s in self.stages])
        if problems:
            raise PipelineError("; ".join(problems))

    def __call__(self, value: float) -> Pipeline:
        return Pipeline(self.space, self.initial,
                        tuple(s.build(value) if isinstance(s, SweptStage) else s
                              for s in self.stages))


@dataclass(frozen=True, eq=False)
class Branch:
    """One terminal measurement history: record, probability, residual state.

    `amps` is the branch's read-only row of the leaf block that
    `run_analytic` has already checked; `.state` builds a new, checked
    `StateVector` from it on every access.
    """

    record: Record
    prob: float
    space: SpaceSpec
    amps: np.ndarray

    @property
    def state(self) -> StateVector:
        return StateVector(self.space, self.amps)

    @property
    def outcomes(self) -> dict[str, str]:
        return dict(self.record)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exhaustive set of terminal branches of a pipeline."""

    branches: tuple[Branch, ...]
    prune_threshold: float = field(default=PRUNE_PROB)

    def __post_init__(self):
        total = sum((b.prob for b in self.branches), 0.0)
        if any(b.prob < 0.0 for b in self.branches):
            raise ValueError("negative branch probability")
        if abs(total - 1.0) > ATOL_DIST_SUM:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")


def matches(**pairs: str) -> Predicate:
    """Predicate: every given record key equals the given outcome label."""
    def predicate(record: Mapping[str, str]) -> bool:
        return all(record.get(k) == v for k, v in pairs.items())
    return predicate


def marginal(dist: OutcomeDistribution, of: Predicate) -> float:
    """Total probability of branches whose record satisfies the predicate."""
    return sum((b.prob for b in dist.branches if of(b.outcomes)), 0.0)


def conditional(dist: OutcomeDistribution, given: Predicate, of: Predicate) -> float:
    """P(of | given); raises ZeroProbabilityEventError if P(given) = 0."""
    p_given = marginal(dist, given)
    if p_given == 0.0:
        raise ZeroProbabilityEventError("conditioning event has zero probability")
    joint = sum((b.prob for b in dist.branches
                 if given(b.outcomes) and of(b.outcomes)), 0.0)
    return joint / p_given


def _local_operators(stage: Stage, space: SpaceSpec
                     ) -> tuple[list[int], list[tuple[str | None, np.ndarray]]]:
    """Target axes, and (outcome label, matrix on those axes) per branch;
    label None = unitary."""
    if isinstance(stage, Unitary):
        return [space.axis(t) for t in stage.targets], [(None, stage.op.matrix)]
    if isinstance(stage, GeneralizedMeasure):
        return ([space.axis(t) for t in stage.targets],
                [("yes", stage.kraus.k_abs.matrix), ("no", stage.kraus.k_noabs.matrix)])
    if isinstance(stage, ProjectiveMeasure):
        subsystem, names = stage.subsystem, stage.outcome_names or {}
    elif isinstance(stage, Detect):
        subsystem, names = "direction", {"x": "X", "y": "Y"}
    else:
        raise TypeError(f"unknown stage {stage!r}")
    axis = space.axis(subsystem)
    sub = space.subsystems[axis]
    return [axis], [(names.get(label, label), label_projector(sub, label))
                    for label in sub.labels]


def _stage_operators(stage: Stage, space: SpaceSpec) -> tuple[list[str | None], np.ndarray]:
    """Outcome label per branch (None = unitary) and the branches' full-space
    matrices as one (branches, d, d) stack, lifted in one call."""
    axes, local = _local_operators(stage, space)
    return ([outcome for outcome, _ in local],
            lift(np.array([mat for _, mat in local]), axes, space.dims))


def _record_key(stage: Stage) -> str | None:
    if isinstance(stage, (ProjectiveMeasure, GeneralizedMeasure, Detect)):
        return stage.record_key
    return None


class BranchTree(NamedTuple):
    """What `_branch_tree` returns.

    `levels` holds the (B, n) outcome weights of each measurement level and
    `records` the record of every final row.  The leaves, the final rows
    that no branch below PRUNE_PROB leads to, are arrays in depth-first
    order: their final-row indices `leaves`, probabilities `probs` and
    normalized amplitudes `amps`, one (L, d) block.
    """

    levels: list[np.ndarray]
    records: list[Record]
    leaves: np.ndarray
    probs: np.ndarray
    amps: np.ndarray


def _branch_tree(space: SpaceSpec, initial: StateVector, stages: Sequence[Stage]
                 ) -> BranchTree:
    """Breadth-first exact evolution of every measurement branch.

    The walk holds the live branches of one measurement level as rows of a
    (B, d) amplitude array.  A measurement stage with n outcomes maps them to
    (B, n, d) sub-amplitudes and (B, n) weights, and every outcome of
    positive weight becomes a row of the next level, parent-major and
    outcome-minor, so rows stay in depth-first order and each row's
    arithmetic is that of a walk down its own branch.

    The final rows keep every outcome of positive probability, since any of
    them can be drawn; the leaves are those kept at or above PRUNE_PROB,
    returned as arrays (see `BranchTree`) and not checked here.  Stage order
    is taken as given (the delayed-choice check deliberately runs stage
    lists that would not validate as a user pipeline).
    """
    amps = initial.amps[None, :]
    prob = np.ones(1)
    kept = np.ones(1, dtype=bool)
    records: list[Record] = [()]
    levels: list[np.ndarray] = []
    for stage in stages:
        key, (outcomes, mats) = _record_key(stage), _stage_operators(stage, space)
        if key is None:
            amps = np.matmul(mats[0], amps[..., None])[..., 0]
            continue
        sub = np.matmul(mats, amps[:, None, :, None])[..., 0]
        weights = np.vecdot(sub, sub).real
        levels.append(weights)
        rows, outs = np.nonzero(weights > 0.0)
        weight = weights[rows, outs]
        amps = sub[rows, outs] / np.sqrt(weight)[:, None]
        prob = prob[rows] * weight
        kept = kept[rows] & (prob >= PRUNE_PROB)
        pairs = [((key, outcome),) for outcome in outcomes]
        records = [records[r] + pairs[o] for r, o in zip(rows.tolist(), outs.tolist())]
    leaves = np.flatnonzero(kept)
    return BranchTree(levels, records, leaves, prob[leaves], amps[leaves])


def run_analytic(pipeline: Pipeline) -> OutcomeDistribution:
    """Exact outcome distribution of a pipeline.

    The leaf amplitudes are checked as one block with `check_states`, the
    rule every `StateVector` obeys, and then made read-only; each `Branch`
    keeps its row and builds its `StateVector` only when `.state` is read.
    """
    tree = _branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    check_states(tree.amps)
    tree.amps.setflags(write=False)
    return OutcomeDistribution(tuple(
        Branch(tree.records[i], prob, pipeline.space, amps)
        for i, prob, amps in zip(tree.leaves.tolist(), tree.probs.tolist(), tree.amps)))


@dataclass(frozen=True, eq=False)
class ShotHistogram:
    """Empirical counts per record tuple from seeded sampling."""

    shots: int
    seed: int
    counts: dict[Record, int]

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts do not sum to the shot count")

    def frequency(self, record: Record) -> float:
        return self.counts.get(record, 0) / self.shots


def _shot_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampling table of one level of (B, n) outcome weights.

    Returns the cumulative weights as an (n, B) array and, flattened, a
    (B, n + 1) table of next-level rows: entry [b, c] is the row a shot in
    branch b moves to when c of the branch's cumulative weights are at or
    below its draw.  That is outcome c's row, except that roundoff at the
    top end (c past the last positive outcome) picks the last positive
    outcome.  A zero-weight outcome has no row: -1.
    """
    branches, n = weights.shape
    positive = weights > 0.0
    child = np.where(positive, np.cumsum(positive).reshape(branches, n) - 1, -1)
    last_positive = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    picked = np.minimum(np.arange(n + 1), last_positive[:, None])
    next_row = np.take_along_axis(child, picked, axis=1)
    return np.cumsum(weights, axis=1).T.copy(), next_row.ravel()


def run_sampled(pipeline: Pipeline, shots: int, seed: int) -> ShotHistogram:
    """Monte Carlo shot sampling with per-shot RNG substreams.

    Shot i consumes draws draw_unit(seed, i, k) with k counting the
    measurement stages in pipeline order, so the result is independent of
    evaluation order and reproducible bit for bit for a given
    (pipeline, shots, seed).  `seed` must lie in [0, 2**64).

    Shots walk `_branch_tree`'s levels SHOT_BLOCK at a time: at each level
    a shot takes the first outcome of its branch whose cumulative weight
    exceeds its draw, and moves to that outcome's row of the next level.
    Memory is O(SHOT_BLOCK x measurement stages) whatever the shot count.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if not 0 <= seed < rng.SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    tree = _branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    levels, records = tree.levels, tree.records
    tables = [_shot_table(weights) for weights in levels]
    totals = np.zeros(len(records), dtype=np.int64)
    for start in range(0, shots, SHOT_BLOCK):
        block = min(SHOT_BLOCK, shots - start)
        draws = rng.unit_matrix(seed, block, max(len(levels), 1), start)
        row = np.zeros(block, dtype=np.intp)
        for depth, (cum, next_row) in enumerate(tables):
            u = draws[:, depth]
            # Count the cumulative weights of each shot's branch at or
            # below its draw: searchsorted(cum, u, side="right").
            at = row * (len(cum) + 1)
            for column in cum:
                at += np.take(column, row) <= u
            row = np.take(next_row, at)
            if row.min() < 0:
                raise RuntimeError("drew a zero-probability outcome")
        totals += np.bincount(row, minlength=len(records))
    counts: dict[Record, int] = {}
    for i in np.flatnonzero(totals).tolist():
        counts[records[i]] = counts.get(records[i], 0) + int(totals[i])
    return ShotHistogram(shots=shots, seed=seed, counts=dict(sorted(counts.items())))


@dataclass(frozen=True, eq=False)
class SweepPoint:
    value: float
    prob_x: float
    prob_y: float
    cond_x: float | None = field(default=None)
    cond_y: float | None = field(default=None)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Detection probabilities over a parameter grid plus fringe visibility."""

    parameter: str
    grid: tuple[float, ...]
    points: tuple[SweepPoint, ...]
    visibility: float


def visibility(probs: Sequence[float]) -> float:
    """Fringe contrast (max - min)/(max + min); 0/0 counts as no fringes."""
    hi, lo = max(probs), min(probs)
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def _swept_operators(family: PipelineFamily, values: np.ndarray
                     ) -> list[tuple[str | None, list[tuple[str | None, np.ndarray]]]]:
    """(record key, [(outcome label, full-space matrix)]) per stage of the
    family; a swept stage's matrices carry a leading grid axis."""
    space, out = family.space, []
    for stage in family.stages:
        if isinstance(stage, SweptStage):
            axes, local = _local_operators(stage.template, space)
            ops = [(outcome, lift(mat, axes, space.dims))
                   for (outcome, _), mat in zip(local, stage.stack(values))]
            out.append((_record_key(stage.template), ops))
        else:
            out.append((_record_key(stage), list(zip(*_stage_operators(stage, space)))))
    return out


def _swept_leaves(initial: StateVector, stage_ops, points: int
                  ) -> list[tuple[Record, np.ndarray, np.ndarray]]:
    """`_branch_tree`'s analytic leaves at every grid point at once.

    Amplitudes have shape (points, d).  Each leaf is (record, probability
    per point, mask of the points whose walk keeps it); the arithmetic per
    point is `_branch_tree`'s, operation for operation, so kept values are
    bit for bit the same.  A subtree that no point keeps is not walked.
    """
    leaves = []
    stack = [(0, np.tile(initial.amps, (points, 1)), np.ones(points), (),
              np.ones(points, dtype=bool))]
    while stack:
        depth, amps, prob, record, kept = stack.pop()
        while depth < len(stage_ops) and stage_ops[depth][0] is None:
            amps = np.matmul(stage_ops[depth][1][0][1], amps[..., None])[..., 0]
            depth += 1
        if depth == len(stage_ops):
            leaves.append((record, prob, kept))
            continue
        key, ops = stage_ops[depth]
        pending = []
        for outcome, mat in ops:
            sub = np.matmul(mat, amps[..., None])[..., 0]
            weight = np.vecdot(sub, sub).real
            branch_prob = prob * weight
            live = kept & (branch_prob >= PRUNE_PROB)
            if live.any():
                # Zero-weight points are not kept; they get zeros, not 0/0.
                sub = np.divide(sub, np.sqrt(weight)[:, None], out=np.zeros_like(sub),
                                where=(weight > 0.0)[:, None])
                pending.append((depth + 1, sub, branch_prob, record + ((key, outcome),),
                                live))
        stack.extend(reversed(pending))
    return leaves


def _swept_points(family: PipelineFamily, grid: Sequence[float],
                  given: Predicate | None) -> list[SweepPoint] | None:
    """`sweep`'s points from batched walks over SWEEP_CHUNK grid points at a
    time, or None if a stage rejects a grid value."""
    points: list[SweepPoint] = []
    for start in range(0, len(grid), SWEEP_CHUNK):
        chunk = grid[start:start + SWEEP_CHUNK]
        try:
            stage_ops = _swept_operators(family, np.asarray(chunk, dtype=np.float64))
        except Exception:  # whatever `SweptStage.build` raises for the value
            return None
        points += _chunk_points(family.initial, stage_ops, chunk, given)
    return points


def _chunk_points(initial: StateVector, stage_ops, grid: Sequence[float],
                  given: Predicate | None) -> list[SweepPoint]:
    """The points of one batched walk, equal to the per-point ones."""
    leaves = [(dict(record), prob, kept)
              for record, prob, kept in _swept_leaves(initial, stage_ops, len(grid))]

    def total(of: Predicate) -> np.ndarray:
        """`marginal` at every point: the sum over kept leaves in
        depth-first order."""
        acc = np.zeros(len(grid))
        for outcomes, prob, kept in leaves:
            if of(outcomes):
                acc = acc + np.where(kept, prob, 0.0)
        return acc

    is_x, is_y = matches(detector="X"), matches(detector="Y")
    sums = total(lambda outcomes: True)
    p_given = total(given) if given is not None else np.ones(len(grid))
    # The point-by-point checks of `OutcomeDistribution` and `conditional`,
    # raised for the first point that fails one, as the loop would.
    bad_sum = np.abs(sums - 1.0) > ATOL_DIST_SUM
    failed = np.flatnonzero(bad_sum | (p_given == 0.0))
    if failed.size:
        if bad_sum[failed[0]]:
            raise ValueError(f"branch probabilities sum to {float(sums[failed[0]])!r}, not 1")
        raise ZeroProbabilityEventError("conditioning event has zero probability")
    prob_x, prob_y = total(is_x).tolist(), total(is_y).tolist()
    if given is None:
        return [SweepPoint(*point) for point in zip(grid, prob_x, prob_y)]
    cond_x = (total(lambda o: given(o) and is_x(o)) / p_given).tolist()
    cond_y = (total(lambda o: given(o) and is_y(o)) / p_given).tolist()
    return [SweepPoint(*point) for point in zip(grid, prob_x, prob_y, cond_x, cond_y)]


def sweep(build: Callable[[float], Pipeline], parameter: str,
          grid: Sequence[float], given: Predicate | None = None) -> SweepResult:
    """Run `build(value)` analytically over the grid.

    The visibility is computed from Prob{X} per point, conditioned on
    `given` when provided.  A `PipelineFamily` runs as a batch: per
    SWEEP_CHUNK grid points, each stage is lifted once and one depth-first
    walk evolves those points together, with the per-point results of the
    loop below bit for bit.  Any other callable, and a family with a grid
    value that one of its stages rejects, runs point by point in grid
    order, so errors surface at the first point that raises them.
    """
    if len(grid) == 0:
        raise ValueError("sweep grid must not be empty")
    if any(not math.isfinite(v) for v in grid):
        raise ValueError("sweep grid contains non-finite values")
    points = _swept_points(build, grid, given) if isinstance(build, PipelineFamily) else None
    if points is None:
        # Also where a stage rejects some grid value: the loop raises the
        # error at the first point where it occurs.
        points = []
        for value in grid:
            dist = run_analytic(build(value))
            prob_x = marginal(dist, matches(detector="X"))
            prob_y = marginal(dist, matches(detector="Y"))
            if given is None:
                points.append(SweepPoint(value, prob_x, prob_y))
            else:
                points.append(SweepPoint(
                    value, prob_x, prob_y,
                    conditional(dist, given, matches(detector="X")),
                    conditional(dist, given, matches(detector="Y")),
                ))
    fringe = [p.prob_x if given is None else p.cond_x for p in points]
    return SweepResult(parameter, tuple(grid), tuple(points), visibility(fringe))


def _joint_table(tree: BranchTree) -> dict[Record, float]:
    """Record -> probability of the leaves, with record pairs in key-sorted
    canonical order."""
    table: dict[Record, float] = {}
    for i, prob in zip(tree.leaves.tolist(), tree.probs.tolist()):
        key = tuple(sorted(tree.records[i]))
        table[key] = table.get(key, 0.0) + prob
    return table


def delayed_choice_equivalence(pipeline: Pipeline, tol: float = ATOL_DELAYED) -> bool:
    """Whether erasing after detection changes the joint statistics.

    Moves every generalized (Kraus) measurement stage after the final
    detection and compares the joint record/probability tables of the two
    stage orders.  Returns True when they agree within `tol` (they must,
    whenever the moved stages act on subsystems the detectors do not).
    """
    moved = [s for s in pipeline.stages if isinstance(s, GeneralizedMeasure)]
    if not moved:
        raise PipelineError("pipeline has no generalized-measurement stage to move")
    kept = [s for s in pipeline.stages if not isinstance(s, GeneralizedMeasure)]
    if not isinstance(kept[-1], Detect):
        raise PipelineError("pipeline has no detect stage after the eraser")

    original = _joint_table(_branch_tree(pipeline.space, pipeline.initial, pipeline.stages))
    reordered = _joint_table(_branch_tree(pipeline.space, pipeline.initial,
                                          tuple(kept) + tuple(moved)))
    for key in original.keys() | reordered.keys():
        if abs(original.get(key, 0.0) - reordered.get(key, 0.0)) > tol:
            return False
    return True
