"""Pipeline assembly and execution.

A `Pipeline` is an initial state plus an ordered list of stages over one
space.  One breadth-first walk, `_branch_tree`, evolves every measurement
branch of positive probability, one measurement level at a time, as the
rows of a (branches, d) amplitude array.  It keeps, per level, the outcome
weights and which parent row and outcome each next row came from, so a
final row's record is read back from those arrays only when it is needed.
Each row also carries its grid point, so no question about a row's point
walks the levels back up.

Results are columnar.  `run_analytic` returns an `OutcomeDistribution` of
the leaves' records, a `probs` array and one read-only (leaves, d) block of
amplitudes, checked once with `hilbert.check_states`; `marginal`,
`conditional` and the CLI read these columns, and the per-leaf `Branch`
views are built only when `.branches` is first read.  `run_sampled` draws
per-shot outcomes down the same levels with a counter-based RNG (see
`rng`), SHOT_BLOCK shots at a time, on integers only: a draw's 53-bit word
against each cumulative weight's integer threshold, which it reaches
exactly when the float draw reaches the weight.  A level does only the
passes that can change a shot's row: no threshold column past the last
positive outcome, no gather where the next row is the count itself, and
one `np.bincount` for the last level.  Up to two threads walk the blocks
into buffers allocated once, so its memory is O(SHOT_BLOCK x threads) for
any shot count and depth, and it lists its histogram's records in sorted
order.  Exact enumeration is always the source of truth and sampling is
validated against it.

Every sum of leaf weights by a record predicate goes through one function,
`leaf_sums`: `marginal`, `conditional`, the distribution's sum check, both
kinds of sweep point, and the CLI's conditionals of probabilities and of
shot counts.  It adds the weights with one `np.bincount` over (predicate,
grid point) bins, each bin in leaf order from 0.0, so every sum is a
left-to-right loop's bit for bit, and it calls each predicate once per
distinct record.  The walk drops leaves below PRUNE_PROB and counts the
probability they held per grid point (`pruned`, one `np.bincount` in leaf
order from 0.0 as well), so the sum check reads kept + pruned.

Each stage kind checks and applies itself: `Stage.problem` is its
validation message and `Stage.operators` what the walk applies, so neither
`validate_stages` nor `_branch_tree` branches on kind.  A stage costs what
its structure needs.  A projective measurement or the detectors (a
projective measurement of the direction) select: each amplitude is copied
to the outcome its label names, by a cached index array per (axis, dims),
with no arithmetic.  Unitary and Kraus stages (`_Product`) are dense matrix
products with their lifted stacks, diagonal phases included, because the
stored outputs pin the bits of those BLAS products and an elementwise
product rounds differently (see `_branch_tree`).  This module holds the one
memo of those stacks, per operator (see `_Product`); the operators
themselves are plain immutable values.

`sweep` evaluates a pipeline per grid point.  A `PipelineFamily` (what
`dsl.sweep_template` returns) runs as a batch: `_branch_tree` walks a forest
of one root row per grid point, up to SWEEP_CHUNK of them, with its swept
stages stacked over those points, so each point's leaves and sums are
`run_analytic`'s bit for bit.  A chunk is walked up to the first value a
swept stage rejects, and the family at that value then raises the error
the point-by-point loop would.  Any other pipeline builder runs point by
point through `run_analytic`, the reference the batch is tested against.

Branch records map a per-stage record key ("ww", "abs", "detector") to an
outcome label; record tuples list the keys in stage order.  A valid
pipeline gives distinct outcomes of one stage distinct labels, so every
final row has its own record.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
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
#: Shots per sampling block.  A walker's buffers take SHOT_BLOCK x 49 bytes,
#: whatever the number of measurement stages.  On two threads, 2**14 ran
#: about 1.8 times slower than 2**15, and 2**16 at most 4 % faster with
#: 3.1 MiB more of buffers.
SHOT_BLOCK = 1 << 15
#: 2**53: a draw's word m is below it, and u = m / _WORDS.
_WORDS = float(1 << 53)

Record = tuple[tuple[str, str], ...]
Predicate = Callable[[Mapping[str, str]], bool]


class PipelineError(ValueError):
    """A pipeline failed validation."""


class ZeroProbabilityEventError(ValueError):
    """Conditioning on an event that has zero probability."""


class Stage:
    """One step of a pipeline.  Each kind answers for itself:

    - `problem(space)`: why the stage cannot act on `space`, or None;
    - `operators(space, local=None)`: what `_branch_tree` applies, its
      outcome labels (None for a unitary's one branch) and either its
      read-only (branches, d, d) matrix stack (`_Product`) or the (d,)
      places of the amplitudes among its outcomes (`ProjectiveMeasure`).

    `record_key` names the stage's outcomes in a record, None if it records
    none; `terminal` marks the detectors, which must end a pipeline.
    """

    terminal = False


#: The memo of `_Product._lifted_stack`: owner -> {(axes, dims): stack}.
_LIFTED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Product(Stage):
    """A stage applied as dense matrix products, one per outcome, with the
    full-space stack of its local matrices (`local()`) on its `targets`.

    The fixed stack is lifted at most once per (axes, dims) into `_LIFTED`,
    a weak dictionary keyed by the operator that owns the matrices
    (`_owner`, a `LinearMap` or an `EraserKrausPair`, both hashed by
    identity) and holding, per (axes, dims) int tuple, the read-only stack.
    It cannot go stale: the owner is frozen and its matrices read-only, so
    one key always lifts to the same bytes.  An entry dies with its owner,
    by reference count and without the cycle collector, so a phase map made
    by one compile takes its stack with it.  Shared components are one
    object per process, so every pipeline and walk that uses them reads the
    same array.  The largest owners that stay alive are the Kraus pairs in
    `components.eraser_kraus`'s cache: up to 256 pairs, each with one
    (2, 24, 24) complex stack of 18 KiB on the 24-dimensional eraser space,
    so at most 4.5 MiB in all.  A swept stage's `local` matrices at G grid
    points (`SweptStage.stack`, in `local()`'s order) give a
    (G, branches, d, d) stack instead, lifted anew on every call.
    """

    def problem(self, space: SpaceSpec) -> str | None:
        """None if the operator's space is `space.restricted(targets)`: the
        targets are its subsystem names, which are distinct, and each of its
        subsystems is one of `space`'s.  Only a failing check builds the
        restricted space, to word the problem as `restricted` does."""
        own = self._owner.space
        if own.names == tuple(self.targets) and all(
                sub in space.subsystems for sub in own.subsystems):
            return None
        try:
            space.restricted(self.targets)
        except ValueError as exc:
            return str(exc)
        return f"{self._what} does not match targets {self.targets}"

    def operators(self, space: SpaceSpec, local: np.ndarray | None = None
                  ) -> tuple[list[str | None], np.ndarray]:
        axes = tuple(map(space.axis, self.targets))
        if local is None:
            return list(self.outcomes), self._lifted_stack(axes, space.dims)
        return list(self.outcomes), lift(local, axes, space.dims)

    def _lifted_stack(self, axes: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
        memo = _LIFTED.get(self._owner)
        if memo is None:
            memo = _LIFTED[self._owner] = {}
        stack = memo.get((axes, dims))
        if stack is None:
            stack = memo[axes, dims] = lift(np.array(self.local()), axes, dims)
            stack.setflags(write=False)
        return stack


@dataclass(frozen=True, eq=False)
class Unitary(_Product):
    """Apply a unitary to the named target subsystems (identity elsewhere)."""

    op: LinearMap
    targets: tuple[str, ...]
    record_key = None            # a unitary records no outcome
    outcomes = (None,)
    _what = "operator"
    _owner = property(attrgetter("op"))

    def local(self) -> tuple[np.ndarray]:
        return (self.op.matrix,)


@dataclass(frozen=True, eq=False)
class GeneralizedMeasure(_Product):
    """Two-outcome Kraus measurement; records "yes" (absorbed) or "no"."""

    kraus: EraserKrausPair
    targets: tuple[str, ...]
    record_key: str
    outcomes = ("yes", "no")
    _what = "Kraus pair"
    _owner = property(attrgetter("kraus"))

    def local(self) -> tuple[np.ndarray, np.ndarray]:
        return self.kraus.k_abs.matrix, self.kraus.k_noabs.matrix


@dataclass(frozen=True, eq=False)
class ProjectiveMeasure(Stage):
    """Measure one subsystem in its basis and record the outcome.

    `outcome_names` optionally renames basis labels in the record (the
    which-way readout records direction x as "A" and y as "B").  The stage
    selects: its operators are the (d,) places of the amplitudes among its
    outcomes (`_label_places`), not a matrix stack.
    """

    subsystem: str
    record_key: str
    outcome_names: Mapping[str, str] | None = field(default=None)

    def problem(self, space: SpaceSpec) -> str | None:
        """None if the subsystem is `space`'s and its outcomes all record a
        different name."""
        if self.subsystem not in space.names:
            return f"unknown subsystem {self.subsystem!r}"
        first: dict[str, str] = {}
        names = self.outcome_names or {}
        for label in space.subsystem(self.subsystem).labels:
            name = names.get(label, label)
            if name in first:
                return (f"outcomes {first[name]!r} and {label!r} both record the name "
                        f"{name!r}")
            first[name] = label
        return None

    def operators(self, space: SpaceSpec, local: None = None
                  ) -> tuple[list[str], np.ndarray]:
        axis, names = space.axis(self.subsystem), self.outcome_names or {}
        outcomes = [names.get(label, label) for label in space.subsystems[axis].labels]
        return outcomes, _label_places(axis, space.dims)


@dataclass(frozen=True, eq=False)
class Detect(ProjectiveMeasure):
    """Terminal detectors on the direction subsystem: outcomes X and Y."""

    subsystem: str = field(default="direction", init=False)
    record_key: str = field(default="detector")
    outcome_names: Mapping[str, str] | None = field(
        default_factory=lambda: {"x": "X", "y": "Y"}, init=False)
    terminal = True

    def problem(self, space: SpaceSpec) -> str | None:
        return None if "direction" in space.names else "no direction subsystem to detect"


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

    detect_positions = [i for i, s in enumerate(stages) if s.terminal]
    if len(detect_positions) != 1:
        problems.append(f"expected exactly one detect stage, found {len(detect_positions)}")
    elif detect_positions[0] != len(stages) - 1:
        problems.append("detect must be the final stage")

    for i, stage in enumerate(stages):
        problem = stage.problem(space)
        if problem:
            problems.append(f"stage {i + 1}: {problem}")
    keys = [s.record_key for s in stages if s.record_key is not None]
    if len(set(keys)) != len(keys):
        problems.append(f"record keys must be unique, got {keys}")
    return problems


@dataclass(frozen=True, eq=False)
class SweptStage:
    """A stage that the swept parameter sets.

    `template` is the stage at one valid value; it fixes the stage's kind,
    targets and record key.  `build(value)` is the stage at `value`.
    `stack(values)` is `build(value).local()` at the leading n values that
    `build` accepts, all of them or those before the first it rejects, as
    one (n, branches, k, k) array.

    A parameter may also set a value that makes no stage (a closed
    eraser's eta): then `template` is None, `build` only checks the value
    and gives None, and `stack` gives a sequence of length n with no
    matrices, since its length alone counts.
    """

    template: _Product | None
    build: Callable[[float], _Product | None]
    stack: Callable[[np.ndarray], np.ndarray | Sequence[object]]


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
        self._pipeline(attrgetter("template"))   # validates the stages as their templates

    def __call__(self, value: float) -> Pipeline:
        return self._pipeline(lambda swept: swept.build(value))

    def _pipeline(self, stage_of: Callable[[SweptStage], Stage | None]) -> Pipeline:
        """The pipeline with `stage_of(s)` for each swept stage s, less the Nones."""
        stages = (stage_of(s) if isinstance(s, SweptStage) else s for s in self.stages)
        return Pipeline(self.space, self.initial, tuple(s for s in stages if s is not None))


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


def leaf_sums(records: Sequence[Record], weights: np.ndarray | Sequence[float],
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
        total = leaf_sums(self.records, self.probs, [()]).item() + self.pruned
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
    return leaf_sums(dist.records, dist.probs, [(of,)]).item()


def conditional(dist: OutcomeDistribution, given: Predicate, of: Predicate) -> float:
    """P(of | given); raises ZeroProbabilityEventError if P(given) = 0."""
    p_given, joint = leaf_sums(dist.records, dist.probs, [(given,), (given, of)]).ravel().tolist()
    if p_given == 0.0:
        raise ZeroProbabilityEventError("conditioning event has zero probability")
    return joint / p_given


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
    `leaves`, grid `points`, probabilities `probs` and normalized amplitudes
    `amps`, one (L, d) block.  `pruned` holds, per grid point, the
    probability of the final rows that are not leaves.  `outcomes` and
    `records` read a final row's record back from the levels, for the rows
    asked for.
    """

    levels: list[Level]
    leaves: np.ndarray
    points: np.ndarray
    probs: np.ndarray
    amps: np.ndarray
    pruned: np.ndarray

    def outcomes(self, final_rows: np.ndarray) -> list[np.ndarray]:
        """The outcome each of `final_rows` took at every level, one array
        per level in stage order, found by walking the rows up."""
        columns, rows = [], final_rows
        for level in reversed(self.levels):
            columns.append(level.outs[rows])
            rows = level.rows[rows]
        return columns[::-1]

    def records(self, outcomes: list[np.ndarray]) -> list[Record]:
        """The records of the rows whose `outcomes` are given."""
        return list(zip(*(level.pairs[column].tolist()
                          for level, column in zip(self.levels, outcomes))))


def _branch_tree(space: SpaceSpec, initial: StateVector,
                 stages: Sequence[Stage | tuple[Stage, np.ndarray]],
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

    Each row carries its grid point in `point`, which starts as
    `arange(points)` and follows the rows' parents at every level.  A swept
    stage comes as (template stage, `SweptStage.stack` at the points),
    lifted as one (points, n, d, d) stack.  Every point keeps a row (its
    weights sum to 1), so while B equals `points` the rows are the points
    in order; a level with more rows gathers each row's matrices by its
    point.

    The leaves are the final rows kept at or above PRUNE_PROB (see
    `BranchTree`), not checked here; the others' probability is summed per
    point as `pruned`, with one `np.bincount` over their points.  Stage
    order is taken as given (the delayed-choice check runs stage lists that
    would not validate).
    """
    amps = initial.amps[None, :].repeat(points, axis=0)
    prob = np.ones(points)
    kept = np.ones(points, dtype=bool)
    point = np.arange(points)
    levels: list[Level] = []
    for stage in stages:
        stage, local = stage if isinstance(stage, tuple) else (stage, None)
        key, (outcomes, mats) = stage.record_key, stage.operators(space, local)
        if local is not None and len(amps) > points:
            mats = mats[point]
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
        point = point[rows]
        # A 1-D object array of the (key, outcome) pairs, tuples kept whole.
        pairs = np.fromiter(((key, outcome) for outcome in outcomes), dtype=object,
                            count=len(outcomes))
        levels.append(Level(pairs, weights, rows, outs))
    leaves, dropped = kept.nonzero()[0], ~kept
    # Float zeros when nothing is dropped, where an empty bincount gives ints.
    pruned = np.bincount(point[dropped], prob[dropped], points).astype(float)
    return BranchTree(levels, leaves, point[leaves], prob[leaves], amps[leaves], pruned)


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


def _shot_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Sampling table of one level of (B, n) outcome weights.

    A draw u = m * 2**-53 (`rng.draw_words`) is at or above a cumulative
    weight c exactly when m >= ceil(c * 2**53): scaling by a power of two is
    exact, and m is an integer.  Returns three things:
    - those int64 thresholds as a (k, B) array;
    - flattened, a (B, k + 1) table of next-level rows: entry [b, c] is the
      row a shot in branch b moves to when c of the branch's thresholds are
      at or below its word.  That is outcome c's row, except that c past
      the last positive outcome (roundoff at the top end) picks the last
      positive outcome.  A zero-weight outcome has no row: -1;
    - whether that table is the identity, so that the count is the row.

    Column j is kept only while a draw can reach it (some threshold below
    2**53; a cumulative weight never falls along a row) and some row has a
    positive outcome past j: once a count reaches a row's last positive
    outcome, further columns pick that outcome again.  So k is at most
    n - 1, one column for two outcomes, and at least 1, so the walk always
    has a first column to compare.
    """
    branches, n = weights.shape
    positive = weights > 0.0
    child = np.where(positive, np.cumsum(positive).reshape(branches, n) - 1, -1)
    last_positive = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    thresholds = np.ceil(np.cumsum(weights, axis=1).T * _WORDS).astype(np.int64)
    reachable = np.count_nonzero((thresholds < _WORDS).any(axis=1))
    k = max(min(reachable, int(last_positive.max())), 1)
    picked = np.minimum(np.arange(k + 1), last_positive[:, None])
    next_row = np.take_along_axis(child, picked, axis=1).ravel()
    identity = bool((next_row == np.arange(next_row.size)).all())
    return thresholds[:k].copy(), next_row, identity


def _shot_workers(blocks: int) -> int:
    """Threads that walk `blocks` shot blocks: one per block, per CPU this
    process may run on, and at most two."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(blocks, cpus, 2)


def _walk_blocks(tables: list[tuple[np.ndarray, np.ndarray, bool]], seed: int,
                 shots: int, first: int, step: int, stop: threading.Event) -> np.ndarray:
    """The counts of shot blocks first, first + step, ... of `run_sampled`'s
    walk over the levels' `_shot_table`s, per entry of the last level's
    next-row table: entry b * (k + 1) + c counts the shots in that level's
    branch b that reached c of its k thresholds.

    Each level does only the passes whose result can differ between shots.
    The first column's compare writes the count itself, as intp; each
    further column adds its compare.  A level whose next-row table is the
    identity takes the count index as the next row by swapping buffers, and
    the last level is counted with one `np.bincount`, whose bins are checked
    for zero-weight outcomes once per block.  The root has one row, so it
    compares with scalar thresholds and gathers nothing.

    The buffers are allocated once, each of one block's length, and every
    block writes into them: the key bases of the walker's first block, the
    keys, the words, the mixer's scratch (which, once the words are drawn,
    holds the gathered thresholds and the row offsets), the count index,
    the row and the passed flags.  A block's keys are its bases plus its
    offset times `rng.GAMMA`, mixed.  The walk stops after the block in
    progress once `stop` is set, and sets it itself if it fails.
    """
    size = min(SHOT_BLOCK, shots)
    bases = np.arange(first * SHOT_BLOCK, first * SHOT_BLOCK + size, dtype=np.uint64)
    rng.key_bases(seed, bases, bases)
    buffers = (*(np.empty(size, dtype=np.uint64) for _ in range(3)),
               *(np.empty(size, dtype=np.intp) for _ in range(2)), np.empty(size, dtype=bool))
    roots = tables[0][0][:, 0].tolist()
    last = len(tables) - 1
    dead = tables[-1][1] < 0
    totals = np.zeros(len(dead), dtype=np.int64)
    done = False
    try:
        for start in range(first * SHOT_BLOCK, shots, step * SHOT_BLOCK):
            if stop.is_set():
                break
            block = min(SHOT_BLOCK, shots - start)   # short only for the last block
            keys, words, scratch, at, row, passed = (buffer[:block] for buffer in buffers)
            rng.stream_keys(bases[:block], start - first * SHOT_BLOCK, keys, scratch)
            m, gathered = words.view(np.int64), scratch.view(np.int64)
            for depth, (thresholds, next_row, identity) in enumerate(tables):
                rng.draw_words(keys, depth, words, scratch)
                # at = row * (k + 1) + the number of the row's thresholds at
                # or below the word, as searchsorted(..., side="right") counts.
                if depth == 0:   # the one root row: scalar thresholds, no gather
                    np.greater_equal(m, roots[0], out=at)
                    for threshold in roots[1:]:
                        np.greater_equal(m, threshold, out=passed)
                        at += passed
                else:
                    np.take(thresholds[0], row, out=gathered, mode="clip")
                    np.less_equal(gathered, m, out=at)
                    for column in thresholds[1:]:
                        np.take(column, row, out=gathered, mode="clip")
                        np.less_equal(gathered, m, out=passed)
                        at += passed
                    np.multiply(row, len(thresholds) + 1, out=gathered)
                    at += gathered
                if depth == last:
                    counts = np.bincount(at, minlength=len(totals))
                    if counts[dead].any():
                        raise RuntimeError("drew a zero-probability outcome")
                    totals += counts
                elif identity:
                    at, row = row, at
                else:
                    np.take(next_row, at, out=row, mode="clip")
                    if row.min() < 0:
                        raise RuntimeError("drew a zero-probability outcome")
        done = True
    finally:
        if not done:
            stop.set()
    return totals


def run_sampled(pipeline: Pipeline, shots: int, seed: int) -> ShotHistogram:
    """Monte Carlo shot sampling with per-shot RNG substreams.

    Shot i consumes draws draw_unit(seed, i, k) with k counting the
    measurement stages in pipeline order, so the result is independent of
    evaluation order and reproducible bit for bit for a given
    (pipeline, shots, seed).  `seed` must lie in [0, 2**64).

    Shots walk `_branch_tree`'s levels SHOT_BLOCK at a time: at each level
    a shot takes the first outcome of its branch whose cumulative weight
    exceeds its draw, and moves to that outcome's row of the next level.
    The walk compares integers only: each draw is its 53-bit word m
    (`rng.draw_words`), and each cumulative weight the least integer
    threshold that m reaches exactly when the draw reaches the weight
    (`_shot_table`).  Each walker allocates its buffers once, seven arrays
    of one block's length (49 bytes per shot), and every block writes
    into them (`_walk_blocks`).  The walkers count the last level's count
    indices; those counts are mapped to final rows through the last
    next-row table once, here.

    Blocks 0, w, 2w, ... are walked in the calling thread and the others in
    one pool thread, where w, the number of walkers, is the least of the
    block count, the CPUs this process may run on, and 2.  Their int64
    counts are summed, so the histogram does not depend on w; a failure in
    either stops the other after its block, and is raised here.  Memory is
    O(SHOT_BLOCK x w) beyond the tree, whatever the shot count and the
    number of levels.

    The histogram lists the records in sorted order.  A valid pipeline
    gives every final row its own record, and every record lists the same
    keys in stage order, so records compare level by level, as the rows'
    outcome labels do.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if not 0 <= seed < rng.SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    tree = _branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    levels = tree.levels   # at least the detect stage's
    tables = [_shot_table(level.weights) for level in levels]
    workers = _shot_workers(-(-shots // SHOT_BLOCK))
    walk = partial(_walk_blocks, tables, seed, shots, step=workers, stop=threading.Event())
    if workers == 1:
        binned = walk(0)
    else:
        # Imported here: it takes milliseconds, and only sampling uses it.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(1) as pool:
            theirs = pool.submit(walk, 1)
            binned = walk(0) + theirs.result()
    next_row = tables[-1][1]
    kept = next_row >= 0
    totals = np.zeros(len(levels[-1].rows), dtype=np.int64)
    np.add.at(totals, next_row[kept], binned[kept])
    hit = np.flatnonzero(totals)
    counts = dict(sorted(zip(tree.records(tree.outcomes(hit)), totals[hit].tolist())))
    return ShotHistogram(shots=shots, seed=seed, counts=counts)


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
                  given: Predicate | None) -> list[SweepPoint]:
    """`sweep`'s points from one `_branch_tree` walk per SWEEP_CHUNK grid
    points.  A chunk walks its values up to the first that a swept stage
    rejects; `family` at that value then raises what the point-by-point
    loop would, after any error of an earlier point."""
    points: list[SweepPoint] = []
    for start in range(0, len(grid), SWEEP_CHUNK):
        chunk = grid[start:start + SWEEP_CHUNK]
        values = np.asarray(chunk, dtype=np.float64)
        stacks = [s.stack(values) if isinstance(s, SweptStage) else None for s in family.stages]
        n = min((len(local) for local in stacks if local is not None), default=len(chunk))
        if n:
            stages = [s if local is None else (s.template, local[:n])
                      for s, local in zip(family.stages, stacks)
                      if local is None or s.template is not None]
            tree = _branch_tree(family.space, family.initial, stages, n)
            points += _chunk_points(tree, chunk[:n], given)
        if n < len(chunk):
            family(chunk[n])
            raise RuntimeError(f"a swept stage rejected {chunk[n]!r}, which the family accepts")
    return points


def _chunk_points(tree: BranchTree, grid: Sequence[float],
                  given: Predicate | None) -> list[SweepPoint]:
    """The points of one walk over `grid`, equal to the per-point ones: the
    leaves' sums come from one `leaf_sums` call over their distinct
    records."""
    outcomes = tree.outcomes(tree.leaves)
    # Number the leaves' outcome paths densely, level by level, and read the
    # record of each path once.
    path, paths = np.zeros(len(tree.leaves), dtype=np.intp), 1
    for level, column in zip(tree.levels, outcomes):
        path = path * len(level.pairs) + column
        seen = np.zeros(paths * len(level.pairs), dtype=bool)
        seen[path] = True
        number = np.cumsum(seen) - 1
        path, paths = number[path], int(number[-1]) + 1
    leaf = np.empty(paths, dtype=np.intp)
    leaf[path] = np.arange(len(path))
    records = tree.records([column[leaf] for column in outcomes])
    return _sweep_points(records, tree.probs, given, grid, tree.pruned, path, tree.points)


def _sweep_points(records: Sequence[Record], probs: np.ndarray, given: Predicate | None,
                  grid: Sequence[float], pruned: np.ndarray | float,
                  rows: np.ndarray | None = None,
                  points: np.ndarray | None = None) -> list[SweepPoint]:
    """Sweep points over `grid` from one `leaf_sums` call on the leaves
    (`records`, `probs`, `rows` and `points` are its arguments).  A point
    sums all its leaves, X and Y, and then given, given and X, and given
    and Y."""
    detectors = [(matches(detector="X"),), (matches(detector="Y"),)]
    conditions = [] if given is None else [(given,)] + [(given, *of) for of in detectors]
    kept, prob_x, prob_y, *conditioned = leaf_sums(records, probs, [()] + detectors + conditions,
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
    `_branch_tree` walk per SWEEP_CHUNK grid points, with the results and
    errors of the loop below bit for bit.  Any other callable runs point by
    point in grid order, so errors surface at the first point that raises
    them.
    """
    if len(grid) == 0:
        raise ValueError("sweep grid must not be empty")
    if not all(map(math.isfinite, grid)):
        raise ValueError("sweep grid contains non-finite values")
    if isinstance(build, PipelineFamily):
        points = _swept_points(build, grid, given)
    else:
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
