"""Pipeline assembly and execution.

A `Pipeline` is an initial state plus an ordered list of stages over one
space.  One depth-first walk, `_branch_tree`, evolves every measurement
branch of positive probability.  `run_analytic` reports its leaves exactly;
`run_sampled` draws per-shot outcomes down the same tree with a
counter-based RNG (see `rng`), so exact enumeration is always the source of
truth and sampling is validated against it.

Branch records map a per-stage record key ("ww", "abs", "detector") to an
outcome label; record tuples list the keys in stage order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import rng
from .hilbert import LinearMap, SpaceSpec, StateVector, label_projector, lift
from .components import EraserKrausPair

#: Branches below this probability are dropped from analytic distributions.
PRUNE_PROB = 1e-14
#: Tolerance on the total probability of a distribution.
ATOL_DIST_SUM = 1e-10
#: Tolerance for distribution equality in the delayed-choice check.
ATOL_DELAYED = 1e-12

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
class Branch:
    """One terminal measurement history: record, probability, residual state."""

    record: Record
    prob: float
    state: StateVector

    @property
    def outcomes(self) -> dict[str, str]:
        return dict(self.record)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exhaustive set of terminal branches of a pipeline."""

    branches: tuple[Branch, ...]
    prune_threshold: float = field(default=PRUNE_PROB)

    def __post_init__(self):
        total = sum(b.prob for b in self.branches)
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
    return sum(b.prob for b in dist.branches if of(b.outcomes))


def conditional(dist: OutcomeDistribution, given: Predicate, of: Predicate) -> float:
    """P(of | given); raises ZeroProbabilityEventError if P(given) = 0."""
    p_given = marginal(dist, given)
    if p_given == 0.0:
        raise ZeroProbabilityEventError("conditioning event has zero probability")
    joint = sum(b.prob for b in dist.branches
                if given(b.outcomes) and of(b.outcomes))
    return joint / p_given


def _stage_operators(stage: Stage, space: SpaceSpec) -> list[tuple[str | None, np.ndarray]]:
    """(outcome label, full-space matrix) per branch; label None = unitary."""
    dims = space.dims
    if isinstance(stage, Unitary):
        axes = [space.axis(t) for t in stage.targets]
        return [(None, lift(stage.op.matrix, axes, dims))]
    if isinstance(stage, GeneralizedMeasure):
        axes = [space.axis(t) for t in stage.targets]
        return [("yes", lift(stage.kraus.k_abs.matrix, axes, dims)),
                ("no", lift(stage.kraus.k_noabs.matrix, axes, dims))]
    if isinstance(stage, ProjectiveMeasure):
        subsystem, names = stage.subsystem, stage.outcome_names or {}
    elif isinstance(stage, Detect):
        subsystem, names = "direction", {"x": "X", "y": "Y"}
    else:
        raise TypeError(f"unknown stage {stage!r}")
    axis = space.axis(subsystem)
    sub = space.subsystems[axis]
    return [(names.get(label, label), lift(label_projector(sub, label), [axis], dims))
            for label in sub.labels]


def _record_key(stage: Stage) -> str | None:
    if isinstance(stage, (ProjectiveMeasure, GeneralizedMeasure, Detect)):
        return stage.record_key
    return None


@dataclass(slots=True)
class _Node:
    """One measurement stage's outcome weights in the branch tree.

    `children[j]` is the subtree of outcome j: a `_Node`, the leaf's record,
    or None where the outcome has probability 0.
    """

    weights: list[float]
    children: list


Leaf = tuple[Record, float, np.ndarray]


def _branch_tree(space: SpaceSpec, initial: StateVector,
                 stages: Sequence[Stage]) -> tuple[_Node | Record, list[Leaf]]:
    """Depth-first exact evolution of every measurement branch.

    Returns the tree of conditional outcome weights and, in depth-first
    order, the leaves (record, probability, normalized amplitudes) that no
    branch below PRUNE_PROB leads to.  The tree keeps every outcome of
    positive probability, since any of them can be drawn.  Stage order is
    taken as given (the delayed-choice check deliberately runs stage lists
    that would not validate as a user pipeline).
    """
    stage_ops = [(_record_key(s), _stage_operators(s, space)) for s in stages]
    leaves: list[Leaf] = []
    top: list = [None]
    # (stage index, amplitudes, probability, record, above the prune
    # threshold so far, list holding the subtree, slot in that list)
    stack = [(0, initial.amps, 1.0, (), True, top, 0)]
    while stack:
        depth, amps, prob, record, kept, parent, slot = stack.pop()
        while depth < len(stage_ops) and stage_ops[depth][0] is None:
            amps = stage_ops[depth][1][0][1] @ amps
            depth += 1
        if depth == len(stage_ops):
            parent[slot] = record
            if kept:
                leaves.append((record, prob, amps))
            continue
        key, ops = stage_ops[depth]
        weights, children, pending = [], [None] * len(ops), []
        for j, (outcome, mat) in enumerate(ops):
            sub = mat @ amps
            weight = float(np.vdot(sub, sub).real)
            weights.append(weight)
            if weight > 0.0:
                branch_prob = prob * weight
                pending.append((depth + 1, sub / math.sqrt(weight), branch_prob,
                                record + ((key, outcome),),
                                kept and branch_prob >= PRUNE_PROB, children, j))
        parent[slot] = _Node(weights, children)
        stack.extend(reversed(pending))
    return top[0], leaves


def run_analytic(pipeline: Pipeline) -> OutcomeDistribution:
    """Exact outcome distribution of a pipeline."""
    _, leaves = _branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    return OutcomeDistribution(tuple(Branch(record, prob, StateVector(pipeline.space, amps))
                                     for record, prob, amps in leaves))


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


def run_sampled(pipeline: Pipeline, shots: int, seed: int) -> ShotHistogram:
    """Monte Carlo shot sampling with per-shot RNG substreams.

    Shot i consumes draws draw_unit(seed, i, k) with k counting the
    measurement stages in pipeline order, so the result is independent of
    evaluation order and reproducible bit for bit for a given
    (pipeline, shots, seed).
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    root, _ = _branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    n_measurements = sum(1 for s in pipeline.stages if _record_key(s) is not None)
    draws = rng.unit_matrix(seed, shots, max(n_measurements, 1))
    counts: dict[Record, int] = {}
    stack = [(root, np.arange(shots), 0)]
    while stack:
        node, shot_indices, depth = stack.pop()
        if not isinstance(node, _Node):
            counts[node] = counts.get(node, 0) + len(shot_indices)
            continue
        u = draws[shot_indices, depth]
        # First outcome whose cumulative weight exceeds the draw; clamp
        # roundoff at the top end onto the last positive outcome.
        picked = np.searchsorted(np.cumsum(node.weights), u, side="right")
        last_positive = max(j for j, c in enumerate(node.children) if c is not None)
        picked = np.minimum(picked, last_positive)
        for j, child in enumerate(node.children):
            selected = shot_indices[picked == j]
            if len(selected) == 0:
                continue
            assert child is not None, "drew a zero-probability outcome"
            stack.append((child, selected, depth + 1))

    ordered = dict(sorted(counts.items()))
    return ShotHistogram(shots=shots, seed=seed, counts=ordered)


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


def sweep(build: Callable[[float], Pipeline], parameter: str,
          grid: Sequence[float], given: Predicate | None = None) -> SweepResult:
    """Run `build(value)` analytically over the grid.

    The visibility is computed from Prob{X} per point, conditioned on
    `given` when provided.  Grid points are independent of each other; they
    are evaluated in grid order.
    """
    if len(grid) == 0:
        raise ValueError("sweep grid must not be empty")
    if any(not math.isfinite(v) for v in grid):
        raise ValueError("sweep grid contains non-finite values")
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


def _joint_table(leaves: Sequence[Leaf]) -> dict[Record, float]:
    """Record -> probability, with record pairs in key-sorted canonical order."""
    table: dict[Record, float] = {}
    for record, prob, _ in leaves:
        key = tuple(sorted(record))
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

    original = _joint_table(_branch_tree(pipeline.space, pipeline.initial,
                                         pipeline.stages)[1])
    reordered = _joint_table(_branch_tree(pipeline.space, pipeline.initial,
                                          tuple(kept) + tuple(moved))[1])
    for key in original.keys() | reordered.keys():
        if abs(original.get(key, 0.0) - reordered.get(key, 0.0)) > tol:
            return False
    return True
