"""Pipeline assembly and execution.

A `Pipeline` is an initial state plus an ordered list of stages over one
space.  One breadth-first walk, `_branch_tree`, evolves every measurement
branch of positive probability, one measurement level at a time, as the
rows of a (branches, d) amplitude array.  It keeps, per level, the outcome
weights and which parent row and outcome each next row came from, so a
final row's record is read back from those arrays only when it is needed.

Results are columnar.  `run_analytic` returns an `OutcomeDistribution` of
the leaves' records, a `probs` array and one read-only (leaves, d) block of
amplitudes, checked once with `hilbert.check_states`; `marginal`,
`conditional` and the CLI read these columns, and the per-leaf `Branch`
views are built only when `.branches` is first read.  `run_sampled` draws
per-shot outcomes down the same levels with a counter-based RNG (see
`rng`), SHOT_BLOCK shots at a time, so its memory is O(SHOT_BLOCK x
measurement stages) for any shot count; it orders its histogram by one
`np.lexsort` over the hit rows' per-level label ranks.  Exact enumeration
is always the source of truth and sampling is validated against it.

Every sum of leaf weights by a record predicate goes through one function,
`_leaf_sums`: `marginal`, `conditional`, the distribution's sum check, both
kinds of sweep point, and the CLI's conditionals of probabilities and of
shot counts.  It adds the weights with one `np.bincount` over (predicate,
grid point) bins, each bin in leaf order from 0.0, so every sum is a
left-to-right loop's bit for bit, and it calls each predicate once per
distinct record.  The walk drops leaves below PRUNE_PROB and counts the
probability they held (`pruned`), so the sum check reads kept + pruned.

A stage costs what its structure needs.  A projective measurement or the
detectors select: each amplitude is copied to the outcome its label names,
by a cached index array per (axis, dims), with no arithmetic.  Unitary and
Kraus stages are dense matrix products with their lifted stacks, diagonal
phases included, because the stored outputs pin the bits of those BLAS
products and an elementwise product rounds differently (see `_branch_tree`).

`sweep` evaluates a pipeline per grid point.  A `PipelineFamily` (what
`dsl.sweep_template` returns) runs as a batch: `_branch_tree` walks a forest
of one root row per grid point, up to SWEEP_CHUNK of them, with its swept
stages stacked over those points, so each point's leaves and sums are
`run_analytic`'s bit for bit.  Any other pipeline builder runs point by
point through `run_analytic`, the reference the batch is tested against.

Branch records map a per-stage record key ("ww", "abs", "detector") to an
outcome label; record tuples list the keys in stage order.  A valid
pipeline gives distinct outcomes of one stage distinct labels, so every
final row has its own record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import rng
from .hilbert import LinearMap, SpaceSpec, StateVector, check_states, lift
from .components import EraserKrausPair

#: Branches below this probability are dropped from analytic distributions.
PRUNE_PROB = 1e-14
#: Tolerance on the total probability of a distribution.
ATOL_DIST_SUM = 1e-10
#: Tolerance for distribution equality in the delayed-choice check.
ATOL_DELAYED = 1e-12
#: Grid points per batched sweep walk.  Its largest array is a swept stage's
#: lifted (rows, n, d, d) stack for n outcomes, gathered per row after a split:
#: 9 MiB per outcome and row per point at d = 24, the largest space `dsl` builds.
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
            problem = _targets_problem(space, stage.targets, stage.op.space, "operator")
            if problem:
                problems.append(f"{where}: {problem}")
        elif isinstance(stage, ProjectiveMeasure):
            keys.append(stage.record_key)
            if stage.subsystem not in space.names:
                problems.append(f"{where}: unknown subsystem {stage.subsystem!r}")
            else:
                problem = _outcome_names_problem(space.subsystem(stage.subsystem).labels,
                                                 stage.outcome_names or {})
                if problem:
                    problems.append(f"{where}: {problem}")
        elif isinstance(stage, GeneralizedMeasure):
            keys.append(stage.record_key)
            problem = _targets_problem(space, stage.targets, stage.kraus.space, "Kraus pair")
            if problem:
                problems.append(f"{where}: {problem}")
        elif isinstance(stage, Detect):
            keys.append(stage.record_key)
            if "direction" not in space.names:
                problems.append(f"{where}: no direction subsystem to detect")
    if len(set(keys)) != len(keys):
        problems.append(f"record keys must be unique, got {keys}")
    return problems


def _targets_problem(space: SpaceSpec, targets: tuple[str, ...], op_space: SpaceSpec,
                     what: str) -> str | None:
    """Why an operator on `op_space` cannot act on `targets` of `space`, or
    None if `op_space` is `space.restricted(targets)`.

    The targets must be the operator's subsystem names, which are distinct,
    and each of those subsystems must be one of `space`'s.  Only a failing
    check builds the restricted space, to word the problem as `restricted`
    does.
    """
    if op_space.names == tuple(targets) and all(
            sub in space.subsystems for sub in op_space.subsystems):
        return None
    try:
        space.restricted(targets)
    except Exception as exc:
        return str(exc)
    return f"{what} does not match targets {targets}"


def _outcome_names_problem(labels: tuple[str, ...], names: Mapping[str, str]) -> str | None:
    """Why a projective measurement's outcomes would not all record a
    different name, or None if they do."""
    first: dict[str, str] = {}
    for label in labels:
        name = names.get(label, label)
        if name in first:
            return (f"outcomes {first[name]!r} and {label!r} both record the name "
                    f"{name!r}")
        first[name] = label
    return None


@dataclass(frozen=True, eq=False)
class SweptStage:
    """A stage that the swept parameter sets.

    `template` is the stage at one valid value; it fixes the stage's kind,
    targets and record key.  `build(value)` is the stage at `value`, and
    `stack(values)` gives its local matrices at every value, in the order
    `_stage_operators` lists them for `template`, as (len(values), k, k)
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
        Pipeline(self.space, self.initial,   # validates the stages as their templates
                 tuple(s.template if isinstance(s, SweptStage) else s for s in self.stages))

    def __call__(self, value: float) -> Pipeline:
        return Pipeline(self.space, self.initial,
                        tuple(s.build(value) if isinstance(s, SweptStage) else s
                              for s in self.stages))


class Branch:
    """A read-only view of one leaf of an `OutcomeDistribution`: its record,
    probability, space and amplitudes.

    `amps` is the leaf's read-only row of the distribution's checked
    amplitude block; `.state` builds a new, checked `StateVector` from it on
    every access.  Branches compare by identity, and none of their public
    attributes can be assigned.
    """

    __slots__ = ("_record", "_prob", "_space", "_amps")

    def __init__(self, record: Record, prob: float, space: SpaceSpec, amps: np.ndarray):
        self._record, self._prob, self._space, self._amps = record, prob, space, amps

    record = property(attrgetter("_record"), doc="The measurement record.")
    prob = property(attrgetter("_prob"), doc="The branch probability, a float.")
    space = property(attrgetter("_space"), doc="The space of `amps`.")
    amps = property(attrgetter("_amps"), doc="The normalized, read-only amplitudes.")

    @property
    def state(self) -> StateVector:
        return StateVector(self._space, self._amps)

    @property
    def outcomes(self) -> dict[str, str]:
        return dict(self._record)


def _leaf_sums(records: Sequence[Record], weights: np.ndarray | Sequence[float],
               predicates: Sequence[tuple[Predicate, ...]], rows: np.ndarray | None = None,
               points: np.ndarray | None = None, grid: int = 1) -> np.ndarray:
    """The (len(predicates), grid) sums of `weights` by record predicate and
    grid point.

    Weight i has the record `records[rows[i]]` (`records[i]` by default)
    and the grid point `points[i]` (0 by default).  Entry [k, g] adds the
    weights at point g whose record satisfies every predicate of
    `predicates[k]`; the empty tuple takes every weight.  One `np.bincount`
    over the (k, g) bins adds them, each bin in weight order from 0.0, so a
    sum is a left-to-right loop's bit for bit (a left-out weight adds +0.0,
    which changes no bit).  Each distinct predicate is called once per
    record, on the record as a dict.
    """
    outcomes = list(map(dict, records)) if any(predicates) else []
    masks = {of: np.array([bool(of(outcome)) for outcome in outcomes], dtype=bool)
             for of in dict.fromkeys(of for conjunction in predicates for of in conjunction)}
    select = np.ones((len(predicates), len(records)), dtype=bool)
    for k, conjunction in enumerate(predicates):
        for of in conjunction:
            select[k] &= masks[of]
    if rows is not None:
        select = select[:, rows]
    offsets = np.arange(0, len(predicates) * grid, grid)
    bins = offsets.repeat(len(weights)) if points is None else np.add.outer(offsets, points).ravel()
    return np.bincount(bins, np.where(select, weights, 0.0).ravel(),
                       len(predicates) * grid).reshape(len(predicates), grid)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exhaustive set of terminal branches of a pipeline, as columns.

    Leaf i has record `records[i]`, probability `probs[i]` and normalized
    amplitudes `amps[i]`, a row of one read-only (leaves, d) block on
    `space`; leaves are in depth-first order.  `pruned` is the probability
    of the leaves dropped below PRUNE_PROB.  The probabilities are checked
    once, here: the kept ones and `pruned` must sum to 1.  `branches` views
    the same leaves as `Branch` objects, built on its first read and the
    same tuple on every read after.
    """

    records: tuple[Record, ...]
    probs: np.ndarray
    amps: np.ndarray
    space: SpaceSpec
    pruned: float = field(default=0.0)

    def __post_init__(self):
        if not len(self.records) == len(self.probs) == len(self.amps):
            raise ValueError("records, probabilities and amplitudes differ in length")
        if (self.probs < 0.0).any():
            raise ValueError("negative branch probability")
        total = _leaf_sums(self.records, self.probs, [()]).item() + self.pruned
        if abs(total - 1.0) > ATOL_DIST_SUM:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        return tuple(map(Branch, self.records, self.probs.tolist(), repeat(self.space),
                         self.amps))


def matches(**pairs: str) -> Predicate:
    """Predicate: every given record key equals the given outcome label."""
    def predicate(record: Mapping[str, str]) -> bool:
        return all(record.get(k) == v for k, v in pairs.items())
    return predicate


def marginal(dist: OutcomeDistribution, of: Predicate) -> float:
    """Total probability of branches whose record satisfies the predicate,
    summed in leaf order."""
    return _leaf_sums(dist.records, dist.probs, [(of,)]).item()


def conditional(dist: OutcomeDistribution, given: Predicate, of: Predicate) -> float:
    """P(of | given); raises ZeroProbabilityEventError if P(given) = 0."""
    p_given, joint = _leaf_sums(dist.records, dist.probs, [(given,), (given, of)]).ravel().tolist()
    if p_given == 0.0:
        raise ZeroProbabilityEventError("conditioning event has zero probability")
    return joint / p_given


def _stage_operators(stage: Stage, space: SpaceSpec, local: Sequence[np.ndarray] | None = None
                     ) -> tuple[list[str | None], np.ndarray]:
    """Outcome label per branch (None = unitary) and the branches' read-only
    full-space operators.

    A unitary or a Kraus pair gives its (branches, d, d) matrix stack, lifted
    at most once per (axes, dims) into its operator's memo (`_lifted`);
    shared components are one object per process, so every pipeline and
    walk that uses them reads the same array.  Given a swept stage's `local`
    matrices at G grid points (`SweptStage.stack`, in this branch order), the
    stack is theirs, (G, branches, d, d), lifted anew on every call.  A
    projective measurement or the detectors give the (d,) places of the
    amplitudes among their outcomes instead (`_label_places`)."""
    if isinstance(stage, (ProjectiveMeasure, Detect)):
        subsystem, names = ((stage.subsystem, stage.outcome_names or {})
                            if isinstance(stage, ProjectiveMeasure) else
                            ("direction", {"x": "X", "y": "Y"}))
        axis = space.axis(subsystem)
        outcomes = [names.get(label, label) for label in space.subsystems[axis].labels]
        return outcomes, _label_places(axis, space.dims)
    if not isinstance(stage, (Unitary, GeneralizedMeasure)):
        raise TypeError(f"unknown stage {stage!r}")
    owner, outcomes = ((stage.op, [None]) if isinstance(stage, Unitary) else
                       (stage.kraus, ["yes", "no"]))
    axes = tuple(map(space.axis, stage.targets))
    if local is None:
        return outcomes, _lift_once(owner, axes, space.dims)
    return outcomes, lift(np.array(local).swapaxes(0, 1), axes, space.dims)


def _lift_once(owner: LinearMap | EraserKrausPair, axes: tuple[int, ...],
               dims: tuple[int, ...]) -> np.ndarray:
    """The read-only full-space stack of a unitary's matrix, (1, d, d), or of
    a Kraus pair's [k_abs, k_noabs], (2, d, d), at (axes, dims): lifted on
    the first call and kept in the operator's `_lifted` memo after."""
    stack = owner._lifted.get((axes, dims))
    if stack is None:
        mats = (owner.matrix[None] if isinstance(owner, LinearMap) else
                np.array([owner.k_abs.matrix, owner.k_noabs.matrix]))
        stack = owner._lifted[axes, dims] = lift(mats, axes, dims)
        stack.setflags(write=False)
    return stack


@lru_cache(maxsize=32)
def _label_places(axis: int, dims: tuple[int, ...]) -> np.ndarray:
    """Where a projective measurement of the subsystem at `axis`, in a space
    of subsystem dimensions `dims`, puts each amplitude: a read-only (d,)
    array of flat indices into the (labels, d) block of outcome amplitudes.
    Basis state i, whose label there is l, goes to l * d + i, so row l of
    the block, zero elsewhere, is the projector onto label l applied to the
    state.  The key is the structure, as for `hilbert._lift_plan`; an entry
    takes 192 bytes at d = 24, the largest space `dsl` builds."""
    d = math.prod(dims)
    places = np.indices(dims)[axis].ravel() * d + np.arange(d)
    places.setflags(write=False)
    return places


def _record_key(stage: Stage) -> str | None:
    if isinstance(stage, (ProjectiveMeasure, GeneralizedMeasure, Detect)):
        return stage.record_key
    return None


class Level(NamedTuple):
    """One measurement level of `_branch_tree`'s walk.

    The level's B rows have (B, n) outcome `weights`; `pairs` holds the
    (record key, outcome label) of each of the n outcomes, as an object
    array.  Row j of the next level descends from row `rows[j]` by outcome
    `outs[j]`: the positive (row, outcome) entries of `weights`, row-major.
    """

    pairs: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    outs: np.ndarray


class BranchTree(NamedTuple):
    """What `_branch_tree` returns.

    `levels` holds every measurement `Level` in stage order.  The leaves,
    the final rows that no branch below PRUNE_PROB leads to, are arrays in
    grid-point order, depth-first within a point: their final-row indices
    `leaves`, probabilities `probs` and normalized amplitudes `amps`, one
    (L, d) block.  `pruned` holds, per grid point, the probability of the
    final rows that are not leaves.  `outcomes` and `records` read a final
    row's record back from the levels, for the rows asked for.
    """

    levels: list[Level]
    leaves: np.ndarray
    probs: np.ndarray
    amps: np.ndarray
    pruned: np.ndarray

    def outcomes(self, final_rows: np.ndarray) -> list[np.ndarray]:
        """The outcome each of `final_rows` took at every level, one array
        per level in stage order."""
        return _ancestry(self.levels, final_rows)[0]

    def records(self, outcomes: list[np.ndarray]) -> list[Record]:
        """The records of the rows whose `outcomes` are given."""
        return list(zip(*(level.pairs[column].tolist()
                          for level, column in zip(self.levels, outcomes))))


def _ancestry(levels: list[Level], rows: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The outcome each of `rows` (of the level after `levels`) took at every
    level, one array per level in stage order, and the first level's row it
    descends from, which is its grid point: found by walking the rows up."""
    columns = []
    for level in reversed(levels):
        columns.append(level.outs[rows])
        rows = level.rows[rows]
    return columns[::-1], rows


def _branch_tree(space: SpaceSpec, initial: StateVector,
                 stages: Sequence[Stage | tuple[Stage, Sequence[np.ndarray]]],
                 points: int = 1) -> BranchTree:
    """Breadth-first exact evolution of every measurement branch, at each of
    `points` grid points.

    The walk holds the live branches of one measurement level as rows of a
    (B, d) amplitude array, starting from one row of `initial` per point.  A
    measurement stage with n outcomes maps them to (B, n, d) sub-amplitudes
    and (B, n) weights, and every outcome of positive weight becomes a row
    of the next level, parent-major and outcome-minor: rows stay in point
    order, depth-first within a point, and each row's arithmetic is that of
    a walk down its own branch at its own point.

    A projective or detector stage selects: each amplitude is copied to the
    outcome of its label (`_label_places`) and every other entry is +0.0.
    These are the values of the projector's matrix product, made with no
    arithmetic, so every nonzero entry is copied bit for bit.  A unitary or
    Kraus stage stays a dense matrix product, even where its matrix is
    diagonal: a phase applied as an elementwise product differs from the
    BLAS product in the last bit (FMA), and the stored outputs pin those
    bits.

    A swept stage comes as (template stage, `SweptStage.stack` at the
    points), lifted as one (points, n, d, d) stack.  Every point keeps a row
    (its weights sum to 1), so while B equals `points` the rows are the
    points in order; a level with more rows gathers each row's matrices.

    The leaves are the final rows kept at or above PRUNE_PROB (see
    `BranchTree`), not checked here; the others' probability is summed per
    point as `pruned`.  Stage order is taken as given (the
    delayed-choice check runs stage lists that would not validate).
    """
    amps = initial.amps[None, :].repeat(points, axis=0)
    prob = np.ones(points)
    kept = np.ones(points, dtype=bool)
    levels: list[Level] = []
    for stage in stages:
        stage, local = stage if isinstance(stage, tuple) else (stage, None)
        key, (outcomes, mats) = _record_key(stage), _stage_operators(stage, space, local)
        if local is not None and len(amps) > points:
            mats = mats[_ancestry(levels, np.arange(len(amps)))[1]]
        if key is None:
            amps = np.matmul(mats[..., 0, :, :], amps[..., None])[..., 0]
            continue
        if mats.ndim == 1:   # a projective stage's places: copy, no product
            sub = np.zeros((len(amps), len(outcomes) * len(mats)), dtype=amps.dtype)
            sub[:, mats] = amps
            sub = sub.reshape(len(amps), len(outcomes), len(mats))
        else:
            sub = np.matmul(mats, amps[:, None, :, None])[..., 0]
        weights = np.vecdot(sub, sub).real
        rows, outs = np.nonzero(weights > 0.0)
        weight = weights[rows, outs]
        amps = sub[rows, outs] / np.sqrt(weight)[:, None]
        prob = prob[rows] * weight
        kept = kept[rows] & (prob >= PRUNE_PROB)
        # A 1-D object array of the (key, outcome) pairs, tuples kept whole.
        pairs = np.fromiter(((key, outcome) for outcome in outcomes), dtype=object,
                            count=len(outcomes))
        levels.append(Level(pairs, weights, rows, outs))
    leaves, dropped = kept.nonzero()[0], (~kept).nonzero()[0]
    pruned = np.zeros(points)
    if dropped.size:   # rare; their records are not read, so each is the empty one
        pruned = _leaf_sums([()] * len(dropped), prob[dropped], [()],
                            points=_ancestry(levels, dropped)[1], grid=points)[0]
    return BranchTree(levels, leaves, prob[leaves], amps[leaves], pruned)


def run_analytic(pipeline: Pipeline) -> OutcomeDistribution:
    """Exact outcome distribution of a pipeline.

    The leaf amplitudes are checked as one block with `check_states`, the
    rule every `StateVector` obeys, and then made read-only, as are the
    probabilities; no per-leaf object is built here (see
    `OutcomeDistribution.branches`).
    """
    tree = _branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    check_states(tree.amps)
    tree.amps.setflags(write=False)
    tree.probs.setflags(write=False)
    return OutcomeDistribution(tuple(tree.records(tree.outcomes(tree.leaves))), tree.probs,
                               tree.amps, pipeline.space, tree.pruned.item())


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

    The histogram lists the records in sorted order.  A valid pipeline
    gives every final row its own record, and every record lists the same
    keys, so that order is the lexicographic order of the rows' per-level
    label ranks: one `np.lexsort` over the hit rows.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if not 0 <= seed < rng.SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    tree = _branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    levels = tree.levels   # at least the detect stage's
    tables = [_shot_table(level.weights) for level in levels]
    totals = np.zeros(len(levels[-1].rows), dtype=np.int64)
    for start in range(0, shots, SHOT_BLOCK):
        block = min(SHOT_BLOCK, shots - start)
        draws = rng.unit_matrix(seed, block, len(levels), start)
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
        totals += np.bincount(row, minlength=len(totals))
    hit = np.flatnonzero(totals)
    outcomes = tree.outcomes(hit)
    # np.lexsort's primary key is its last: the first level's ranks.
    order = np.lexsort([_label_ranks(level.pairs)[column]
                        for level, column in zip(levels[::-1], outcomes[::-1])])
    counts = dict(zip(tree.records([column[order] for column in outcomes]),
                      totals[hit[order]].tolist()))
    return ShotHistogram(shots=shots, seed=seed, counts=counts)


def _label_ranks(pairs: np.ndarray) -> np.ndarray:
    """The rank of each (record key, outcome label) pair of a level in
    sorted order."""
    ranks = np.empty(len(pairs), dtype=np.intp)
    ranks[sorted(range(len(pairs)), key=pairs.__getitem__)] = np.arange(len(pairs))
    return ranks


class SweepPoint(NamedTuple):
    value: float
    prob_x: float
    prob_y: float
    cond_x: float | None = None
    cond_y: float | None = None


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


def _swept_points(family: PipelineFamily, grid: Sequence[float],
                  given: Predicate | None) -> list[SweepPoint] | None:
    """`sweep`'s points from one `_branch_tree` walk per SWEEP_CHUNK grid
    points, or None if a swept stage rejects a grid value."""
    points: list[SweepPoint] = []
    for start in range(0, len(grid), SWEEP_CHUNK):
        chunk = grid[start:start + SWEEP_CHUNK]
        values = np.asarray(chunk, dtype=np.float64)
        try:
            stages = [(s.template, s.stack(values)) if isinstance(s, SweptStage) else s
                      for s in family.stages]
        except Exception:  # whatever `SweptStage.stack` raises for the value
            return None
        tree = _branch_tree(family.space, family.initial, stages, len(chunk))
        points += _chunk_points(tree, chunk, given)
    return points


def _chunk_points(tree: BranchTree, grid: Sequence[float],
                  given: Predicate | None) -> list[SweepPoint]:
    """The points of one walk over `grid`, equal to the per-point ones: the
    leaves' sums come from one `_leaf_sums` call over their distinct
    records."""
    outcomes, points = _ancestry(tree.levels, tree.leaves)
    # Number the leaves' outcome paths densely, level by level, and read the
    # record of each path once.
    path, paths = np.zeros(len(points), dtype=np.intp), 1
    for level, column in zip(tree.levels, outcomes):
        path = path * len(level.pairs) + column
        seen = np.zeros(paths * len(level.pairs), dtype=bool)
        seen[path] = True
        number = np.cumsum(seen) - 1
        path, paths = number[path], int(number[-1]) + 1
    leaf = np.empty(paths, dtype=np.intp)
    leaf[path] = np.arange(len(path))
    records = tree.records([column[leaf] for column in outcomes])
    return _sweep_points(records, tree.probs, given, grid, tree.pruned, path, points)


def _sweep_points(records: Sequence[Record], probs: np.ndarray, given: Predicate | None,
                  grid: Sequence[float], pruned: np.ndarray | float,
                  rows: np.ndarray | None = None,
                  points: np.ndarray | None = None) -> list[SweepPoint]:
    """Sweep points over `grid` from one `_leaf_sums` call on the leaves
    (`records`, `probs`, `rows` and `points` are its arguments).  A point
    sums all its leaves, X and Y, and then given, given and X, and given
    and Y."""
    detectors = [(matches(detector="X"),), (matches(detector="Y"),)]
    conditions = [] if given is None else [(given,)] + [(given, *of) for of in detectors]
    kept, prob_x, prob_y, *conditioned = _leaf_sums(records, probs, [()] + detectors + conditions,
                                                    rows, points, len(grid))
    p_given = conditioned[0] if conditioned else np.ones(len(grid))
    # The checks of `OutcomeDistribution` and `conditional`, raised for the
    # first point that fails one, as a point-by-point loop would.
    total = kept + pruned
    bad_sum = np.abs(total - 1.0) > ATOL_DIST_SUM
    failed = np.flatnonzero(bad_sum | (p_given == 0.0))
    if failed.size:
        if bad_sum[failed[0]]:
            raise ValueError(f"branch probabilities sum to {float(total[failed[0]])!r}, not 1")
        raise ZeroProbabilityEventError("conditioning event has zero probability")
    conds = [(joint / p_given).tolist() for joint in conditioned[1:]] or [repeat(None)] * 2
    return list(map(SweepPoint._make, zip(grid, prob_x.tolist(), prob_y.tolist(), *conds)))


def sweep(build: Callable[[float], Pipeline], parameter: str,
          grid: Sequence[float], given: Predicate | None = None) -> SweepResult:
    """Run `build(value)` analytically over the grid.

    The visibility is computed from Prob{X} per point, conditioned on
    `given` when provided.  A `PipelineFamily` runs as a batch, one
    `_branch_tree` walk per SWEEP_CHUNK grid points, with the results of the
    loop below bit for bit.  Any other callable, and a family with a grid
    value that a swept stage rejects, runs point by point in grid order, so
    errors surface at the first point that raises them.
    """
    if len(grid) == 0:
        raise ValueError("sweep grid must not be empty")
    if not all(map(math.isfinite, grid)):
        raise ValueError("sweep grid contains non-finite values")
    points = _swept_points(build, grid, given) if isinstance(build, PipelineFamily) else None
    if points is None:
        points = []
        for value in grid:
            dist = run_analytic(build(value))
            points += _sweep_points(dist.records, dist.probs, given, [value], dist.pruned)
    fringe = [p.prob_x if given is None else p.cond_x for p in points]
    return SweepResult(parameter, tuple(grid), tuple(points), visibility(fringe))


def _joint_table(tree: BranchTree) -> dict[Record, float]:
    """Record -> probability of the leaves, with record pairs in key-sorted
    canonical order."""
    table: dict[Record, float] = {}
    for record, prob in zip(tree.records(tree.outcomes(tree.leaves)), tree.probs.tolist()):
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

    original = _joint_table(_branch_tree(pipeline.space, pipeline.initial, pipeline.stages))
    reordered = _joint_table(_branch_tree(pipeline.space, pipeline.initial,
                                          tuple(kept) + tuple(moved)))
    for key in original.keys() | reordered.keys():
        if abs(original.get(key, 0.0) - reordered.get(key, 0.0)) > tol:
            return False
    return True
