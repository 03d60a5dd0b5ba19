import ast
import gc
import json
import math
import random
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import cli, dsl
from mzsim import components as comp
from mzsim import experiment as exp
from mzsim import hilbert, rng
from mzsim.experiment import (
    Detect,
    GeneralizedMeasure,
    Pipeline,
    PipelineError,
    ProjectiveMeasure,
    ZeroProbabilityEventError,
    conditional,
    delayed_choice_equivalence,
    marginal,
    matches,
    run_analytic,
    run_sampled,
    sweep,
    unitary_on,
)

WW_NAMES = {"x": "A", "y": "B"}


def baseline_pipeline(phi=None):
    space = comp.direction_space()
    stages = [unitary_on(comp.beam_splitter())]
    if phi is not None:
        stages.append(unitary_on(comp.phase_shifter(phi)))
    stages += [unitary_on(comp.mirror_pair()),
               unitary_on(comp.beam_splitter()), Detect()]
    return Pipeline(space, space.basis_state(("x",)), tuple(stages))


def readout_pipeline():
    space = comp.direction_space()
    stages = (unitary_on(comp.beam_splitter()),
              ProjectiveMeasure("direction", "ww", WW_NAMES),
              unitary_on(comp.mirror_pair()),
              unitary_on(comp.beam_splitter()), Detect())
    return Pipeline(space, space.basis_state(("x",)), stages)


def entangler_pipeline(phi=None):
    space = comp.tagged_space()
    stages = [unitary_on(comp.beam_splitter()),
              unitary_on(comp.which_way_entangler())]
    if phi is not None:
        stages.append(unitary_on(comp.phase_shifter(phi)))
    stages += [unitary_on(comp.mirror_pair()),
               unitary_on(comp.beam_splitter()), Detect()]
    return Pipeline(space, space.basis_state(("x", "vac", "e")), tuple(stages))


def eraser_pipeline(eta=1.0, phi=None, open_channel=True, eraser_before_exit=False):
    space = comp.eraser_space()
    stages = [unitary_on(comp.beam_splitter()),
              unitary_on(comp.which_way_entangler())]
    if phi is not None:
        stages.append(unitary_on(comp.phase_shifter(phi)))
    stages.append(unitary_on(comp.mirror_pair()))
    erase = GeneralizedMeasure(comp.eraser_kraus(eta), ("photon", "eraser"), "abs")
    if open_channel and eraser_before_exit:
        stages.append(erase)
    stages.append(unitary_on(comp.beam_splitter()))
    if open_channel and not eraser_before_exit:
        stages.append(erase)
    stages.append(Detect())
    return Pipeline(space, space.basis_state(("x", "vac", "e", "gamma")),
                    tuple(stages))


def table(dist):
    return {b.record: b.prob for b in dist.branches}


class TestRunAnalytic:
    def test_pruned_mass_is_counted(self):
        # 16 readouts that split 1 %/99 % drop more than ATOL_DIST_SUM of
        # probability below PRUNE_PROB.
        block = "beamsplitter\nphase A 0.20033484232311968\nbeamsplitter\nwwreadout\n"
        dist = run_analytic(dsl.compile(dsl.parse_text("source A\n" + block * 16 + "detect\n")))
        assert len(dist.records) == 14893
        assert dist.pruned > exp.ATOL_DIST_SUM
        assert abs(dist.probs.sum() + dist.pruned - 1.0) <= exp.ATOL_DIST_SUM

    def test_nothing_pruned_is_float_zero(self):
        dist = run_analytic(baseline_pipeline())
        assert type(dist.pruned) is float and dist.pruned == 0.0

    def test_unaccounted_probability_is_rejected(self):
        dist = run_analytic(eraser_pipeline(0.6))
        assert dist.pruned < exp.PRUNE_PROB
        with pytest.raises(ValueError, match="sum to"):
            exp.OutcomeDistribution(dist.records, dist.probs, dist.amps, dist.space,
                                    pruned=2 * exp.ATOL_DIST_SUM)

    def test_baseline_single_branch(self):
        dist = run_analytic(baseline_pipeline())
        assert len(dist.branches) == 1
        branch = dist.branches[0]
        assert branch.record == (("detector", "X"),)
        assert abs(branch.prob - 1.0) <= 1e-12
        assert abs(marginal(dist, matches(detector="Y"))) <= 1e-12

    def test_entangler_classical_split(self):
        dist = run_analytic(entangler_pipeline())
        assert abs(marginal(dist, matches(detector="X")) - 0.5) <= 1e-12
        assert abs(marginal(dist, matches(detector="Y")) - 0.5) <= 1e-12

    def test_readout_four_equal_branches(self):
        dist = run_analytic(readout_pipeline())
        probs = table(dist)
        assert len(probs) == 4
        for prob in probs.values():
            assert abs(prob - 0.25) <= 1e-12

    def test_eraser_branch_table(self):
        dist = run_analytic(eraser_pipeline(eta=1.0))
        probs = table(dist)
        assert set(probs) == {(("abs", "yes"), ("detector", "X")),
                              (("abs", "no"), ("detector", "Y"))}
        for prob in probs.values():
            assert abs(prob - 0.5) <= 1e-12

    def test_branch_states_are_normalized(self):
        for pipeline in (baseline_pipeline(), readout_pipeline(),
                         entangler_pipeline(), eraser_pipeline(0.5)):
            for branch in run_analytic(pipeline).branches:
                assert abs(branch.state.norm - 1.0) <= 1e-10

    def test_leaf_states_are_built_on_access(self, monkeypatch):
        pipeline = dsl.compile(dsl.parse_text(READOUT_TREE.read_text()))
        checks = []
        check = hilbert.StateVector.__post_init__

        def counted(state):
            checks.append(state)
            check(state)

        monkeypatch.setattr(hilbert.StateVector, "__post_init__", counted)
        branches = run_analytic(pipeline).branches
        assert len(branches) == 128 and checks == []
        rows = exp._branch_tree(pipeline.space, pipeline.initial, pipeline.stages).amps
        for branch, row in zip(branches, rows, strict=True):
            state = branch.state
            assert checks[-1] is state
            assert type(state) is hilbert.StateVector and state.normalized
            assert state.amps.tobytes() == row.tobytes()
        assert len(checks) == 128

    def test_branches_are_built_on_first_read(self, monkeypatch, capsys):
        pipeline = dsl.compile(dsl.parse_text(READOUT_TREE.read_text()))
        built = []
        init = exp.Branch.__init__

        def counted(branch, *args):
            built.append(branch)
            init(branch, *args)

        monkeypatch.setattr(exp.Branch, "__init__", counted)
        dist = run_analytic(pipeline)
        p_x = marginal(dist, matches(detector="X"))
        p_y_given_a = conditional(dist, matches(ww="A"), matches(detector="Y"))
        assert cli.main(["run", str(READOUT_TREE), "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["branches"]) == 128
        assert built == []
        branches = dist.branches
        assert len(built) == 128 and list(branches) == built
        assert dist.branches is branches
        assert [b.record for b in branches] == list(dist.records)
        assert [b.prob for b in branches] == dist.probs.tolist()
        assert all(b.amps.base is dist.amps and b.space is pipeline.space for b in branches)
        assert p_x == sum((b.prob for b in branches if b.outcomes["detector"] == "X"), 0.0)
        p_a = sum((b.prob for b in branches if b.outcomes["ww"] == "A"), 0.0)
        assert p_y_given_a == sum((b.prob for b in branches if b.outcomes["ww"] == "A"
                                   and b.outcomes["detector"] == "Y"), 0.0) / p_a

    def test_branches_are_read_only(self):
        dist = run_analytic(readout_pipeline())
        branch = dist.branches[0]
        for name, value in [("record", ()), ("prob", 0.5), ("space", None),
                            ("amps", branch.amps), ("state", None), ("outcomes", {})]:
            with pytest.raises(AttributeError):
                setattr(branch, name, value)
        with pytest.raises(ValueError):
            branch.amps[0] = 0.0
        with pytest.raises(ValueError):
            dist.probs[0] = 0.0
        assert branch == branch and branch != dist.branches[1]
        assert branch != exp.Branch(branch.record, branch.prob, branch.space, branch.amps)

    @pytest.mark.parametrize("spoil", [
        lambda row: row + [np.nan, 0.0],
        lambda row: row * (1 + 1e-9),
    ], ids=["nan", "norm"])
    def test_leaf_block_is_checked(self, monkeypatch, spoil):
        pipeline = readout_pipeline()
        walk = exp._branch_tree

        def spoiled(*args):
            tree = walk(*args)
            amps = tree.amps.copy()
            amps[1] = spoil(amps[1])
            return tree._replace(amps=amps)

        bad_row = spoiled(pipeline.space, pipeline.initial, pipeline.stages).amps[1]
        with pytest.raises(ValueError) as from_state:
            hilbert.StateVector(pipeline.space, bad_row)
        monkeypatch.setattr(exp, "_branch_tree", spoiled)
        with pytest.raises(ValueError) as from_run:
            run_analytic(pipeline)
        assert str(from_run.value) == str(from_state.value)

    @pytest.mark.parametrize("make", [
        baseline_pipeline, readout_pipeline, entangler_pipeline,
        lambda: eraser_pipeline(0.3), lambda: eraser_pipeline(1.0, phi=1.1),
    ])
    def test_probabilities_sum_to_one(self, make):
        dist = run_analytic(make())
        assert abs(sum(b.prob for b in dist.branches) - 1.0) <= 1e-10

    def test_global_phase_of_initial_state_is_irrelevant(self):
        base = eraser_pipeline(0.7)
        rotated = Pipeline(
            base.space,
            hilbert.StateVector(base.space, base.initial.amps * np.exp(1.23j)),
            base.stages)
        p1, p2 = table(run_analytic(base)), table(run_analytic(rotated))
        assert set(p1) == set(p2)
        for key in p1:
            assert abs(p1[key] - p2[key]) <= 1e-12

    def test_adjacent_disjoint_unitaries_commute(self):
        space = comp.tagged_space()
        gen = np.random.default_rng(31)
        q = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))[0]
        atom_twist = hilbert.LinearMap(space.restricted(["atom"]), q, unitary=True)
        a = unitary_on(comp.phase_shifter(0.9))
        b = exp.Unitary(atom_twist, ("atom",))
        head = [unitary_on(comp.beam_splitter()),
                unitary_on(comp.which_way_entangler())]
        tail = [unitary_on(comp.mirror_pair()),
                unitary_on(comp.beam_splitter()), Detect()]
        initial = space.basis_state(("x", "vac", "e"))
        d1 = run_analytic(Pipeline(space, initial, (*head, a, b, *tail)))
        d2 = run_analytic(Pipeline(space, initial, (*head, b, a, *tail)))
        t1, t2 = table(d1), table(d2)
        assert set(t1) == set(t2)
        for key in t1:
            assert abs(t1[key] - t2[key]) <= 1e-12


class TestConditionalAndMarginal:
    def test_conditioned_on_absorption(self):
        dist = run_analytic(eraser_pipeline(eta=1.0))
        assert abs(conditional(dist, matches(abs="yes"), matches(detector="X")) - 1.0) <= 1e-12
        assert abs(conditional(dist, matches(abs="yes"), matches(detector="Y"))) <= 1e-12
        assert abs(conditional(dist, matches(abs="no"), matches(detector="Y")) - 1.0) <= 1e-12

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
    def test_no_signalling_marginal(self, eta):
        open_dist = run_analytic(eraser_pipeline(eta=eta))
        closed_dist = run_analytic(eraser_pipeline(eta=eta, open_channel=False))
        p_open = marginal(open_dist, matches(detector="X"))
        p_closed = marginal(closed_dist, matches(detector="X"))
        assert abs(p_open - 0.5) <= 1e-12
        assert abs(p_closed - 0.5) <= 1e-12
        assert abs(p_open - p_closed) <= 1e-12

    def test_trivial_predicate_sums_to_one(self):
        dist = run_analytic(eraser_pipeline(0.4))
        assert abs(marginal(dist, lambda record: True) - 1.0) <= 1e-10

    def test_zero_probability_condition_raises(self):
        dist = run_analytic(baseline_pipeline())
        with pytest.raises(ZeroProbabilityEventError):
            conditional(dist, matches(abs="yes"), matches(detector="X"))

    def test_each_predicate_is_called_once_per_record(self):
        dist = run_analytic(eraser_pipeline(0.6))
        calls = []

        def given(record):
            calls.append(tuple(record.items()))
            return record["abs"] == "yes"

        conditional(dist, given, matches(detector="X"))
        assert sorted(calls) == sorted(dist.records)

    def test_law_of_total_probability(self):
        dist = run_analytic(eraser_pipeline(0.6))
        total = sum(
            conditional(dist, matches(abs=g), matches(detector="X"))
            * marginal(dist, matches(abs=g))
            for g in ("yes", "no"))
        assert abs(total - marginal(dist, matches(detector="X"))) <= 1e-12


def naive_operators(stage, space):
    """(record key, [(outcome, dense full-space matrix)]) for one stage, built
    from the public `hilbert.embed` and `hilbert.projector` only."""
    if isinstance(stage, exp.Unitary):
        return None, [(None, hilbert.embed(stage.op, stage.targets, space).matrix)]
    if isinstance(stage, GeneralizedMeasure):
        return stage.record_key, [
            ("yes", hilbert.embed(stage.kraus.k_abs, stage.targets, space).matrix),
            ("no", hilbert.embed(stage.kraus.k_noabs, stage.targets, space).matrix)]
    if isinstance(stage, ProjectiveMeasure):
        names = stage.outcome_names or {}
        return stage.record_key, [
            (names.get(label, label), hilbert.projector(space, stage.subsystem, label).matrix)
            for label in space.subsystem(stage.subsystem).labels]
    return stage.record_key, [(outcome, hilbert.projector(space, "direction", label).matrix)
                              for outcome, label in (("X", "x"), ("Y", "y"))]


def naive_enumerate(pipeline):
    """Recursive dense reference for `run_analytic`: (record, prob, amps) per
    branch, depth first, dropping branches below PRUNE_PROB."""
    stage_ops = [naive_operators(s, pipeline.space) for s in pipeline.stages]
    leaves = []

    def walk(depth, amps, prob, record):
        if depth == len(stage_ops):
            leaves.append((record, prob, amps))
            return
        key, ops = stage_ops[depth]
        if key is None:
            walk(depth + 1, ops[0][1] @ amps, prob, record)
            return
        for outcome, mat in ops:
            sub = mat @ amps
            weight = float(np.real(np.vdot(sub, sub)))
            if prob * weight >= exp.PRUNE_PROB:
                walk(depth + 1, sub / math.sqrt(weight), prob * weight,
                     record + ((key, outcome),))

    walk(0, pipeline.initial.amps, 1.0, ())
    return leaves


def naive_run_sampled(pipeline, shots, seed):
    """Per-shot state-vector walk; independent of the tree sampler."""
    stage_ops = [naive_operators(s, pipeline.space) for s in pipeline.stages]
    counts = {}
    for shot in range(shots):
        sampler = rng.SubstreamSampler(seed, shot)
        amps = pipeline.initial.amps
        record = ()
        for key, ops in stage_ops:
            if key is None:
                amps = ops[0][1] @ amps
                continue
            weights = []
            for _, mat in ops:
                sub = mat @ amps
                weights.append(float(np.real(np.vdot(sub, sub))))
            cum = np.cumsum(weights)
            u = sampler.next_unit()
            picked = int(np.searchsorted(cum, u, side="right"))
            picked = min(picked, max(j for j, w in enumerate(weights) if w > 0.0))
            sub = ops[picked][1] @ amps
            amps = sub / math.sqrt(weights[picked])
            record += ((key, ops[picked][0]),)
        counts[record] = counts.get(record, 0) + 1
    return dict(sorted(counts.items()))


EXPERIMENTS_DIR = Path(__file__).resolve().parent.parent / "experiments"
READOUT_TREE = Path(__file__).resolve().parent / "golden" / "readout_tree.mzx"
EXPERIMENTS = sorted(EXPERIMENTS_DIR.glob("*.mzx"))


def shipped_pipeline(path):
    """The pipeline of a shipped file, with a free phase bound to 0.7."""
    ast = dsl.parse_text(path.read_text())
    if path.name.endswith("_phase.mzx"):
        return dsl.sweep_template(ast, "phi")(0.7)
    return dsl.compile(ast)


def random_pipeline(seed):
    """Seeded stage list on the 24-dimensional eraser space: random unitaries
    on random ordered subsystem sets, the optical components, projective and
    Kraus measurements, and a random initial state."""
    gen = np.random.default_rng(seed)
    space = comp.eraser_space()
    stages = []
    for k in range(int(gen.integers(3, 9))):
        kind = gen.integers(5)
        if kind == 0:
            names = list(gen.permutation(space.names)[:int(gen.integers(1, 4))])
            d = space.restricted(names).dim
            q = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))[0]
            stages.append(exp.Unitary(hilbert.LinearMap(space.restricted(names), q), tuple(names)))
        elif kind == 1:
            stages.append(unitary_on([comp.beam_splitter(), comp.mirror_pair(),
                                      comp.which_way_entangler()][int(gen.integers(3))]))
        elif kind == 2:
            stages.append(unitary_on(comp.phase_shifter(float(gen.uniform(-4, 4)))))
        elif kind == 3:
            stages.append(ProjectiveMeasure(str(gen.choice(space.names)), f"m{k}"))
        else:
            stages.append(GeneralizedMeasure(comp.eraser_kraus(float(gen.uniform(0.05, 1.0))),
                                             ("photon", "eraser"), f"m{k}"))
    amps = gen.normal(size=space.dim) + 1j * gen.normal(size=space.dim)
    initial = hilbert.StateVector(space, amps / np.linalg.norm(amps))
    return Pipeline(space, initial, (*stages, Detect()))


def assert_matches_naive_enumeration(pipeline):
    got = run_analytic(pipeline).branches
    want = naive_enumerate(pipeline)
    assert [b.record for b in got] == [record for record, _, _ in want]
    for branch, (_, prob, amps) in zip(got, want):
        assert abs(branch.prob - prob) <= 1e-12
        assert np.max(np.abs(branch.state.amps - amps)) <= 1e-12


class TestAgainstDenseReference:
    @pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.name)
    def test_shipped_experiments(self, path):
        assert_matches_naive_enumeration(shipped_pipeline(path))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_stage_lists(self, seed):
        assert_matches_naive_enumeration(random_pipeline(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_stage_lists_sampled(self, seed):
        p = random_pipeline(seed)
        assert run_sampled(p, 300, seed).counts == naive_run_sampled(p, 300, seed)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.name)
    def test_shipped_experiments_sampled_in_small_blocks(self, path, workers, monkeypatch):
        p = shipped_pipeline(path)
        default = run_sampled(p, 101, 2**64 - 1).counts
        monkeypatch.setattr(exp, "SHOT_BLOCK", 7)
        monkeypatch.setattr(exp, "_shot_workers", lambda blocks: workers)
        blocked = run_sampled(p, 101, 2**64 - 1).counts
        assert blocked == default == naive_run_sampled(p, 101, 2**64 - 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_stage_lists_sampled_in_small_blocks(self, seed, workers, monkeypatch):
        p = random_pipeline(seed)
        default = run_sampled(p, 150, seed).counts
        monkeypatch.setattr(exp, "SHOT_BLOCK", 7)
        monkeypatch.setattr(exp, "_shot_workers", lambda blocks: workers)
        blocked = run_sampled(p, 150, seed).counts
        assert blocked == default == naive_run_sampled(p, 150, seed)


def float_table(weights):
    """The float form of a level's sampling table: the (n, B) cumulative
    weights and, flattened, the (B, n + 1) next-level rows, where entry
    [b, c] is outcome c's row, the last positive outcome's past it, and -1
    for a zero-weight outcome."""
    branches, n = weights.shape
    positive = weights > 0.0
    child = np.where(positive, np.cumsum(positive).reshape(branches, n) - 1, -1)
    last_positive = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    picked = np.minimum(np.arange(n + 1), last_positive[:, None])
    return np.cumsum(weights, axis=1).T, np.take_along_axis(child, picked, axis=1).ravel()


def dict_histogram(pipeline, shots, seed):
    """`run_sampled` on float draws with a dict histogram: each shot counts
    the float cumulative weights of its branch (`float_table`) at or below
    its `rng.unit_matrix` draw, the walk's final rows get their records by
    concatenation level by level, the shots are counted per record with
    `dict.get` and the records sorted with `sorted`, with none of
    `_shot_table`'s integer thresholds or `BranchTree`'s record readout."""
    tree = exp._branch_tree(pipeline.space, pipeline.initial, pipeline.stages)
    records = [()]
    for level in tree.levels:
        records = [records[r] + (level.pairs[o],)
                   for r, o in zip(level.rows.tolist(), level.outs.tolist())]
    tables = [float_table(level.weights) for level in tree.levels]
    totals = np.zeros(len(records), dtype=np.int64)
    for start in range(0, shots, exp.SHOT_BLOCK):
        block = min(exp.SHOT_BLOCK, shots - start)
        draws = rng.unit_matrix(seed, block, len(tables), start)
        row = np.zeros(block, dtype=np.intp)
        for depth, (cum, next_row) in enumerate(tables):
            at = row * (len(cum) + 1)
            for column in cum:
                at += np.take(column, row) <= draws[:, depth]
            row = np.take(next_row, at)
        totals += np.bincount(row, minlength=len(records))
    counts = {}
    for i in np.flatnonzero(totals).tolist():
        counts[records[i]] = counts.get(records[i], 0) + int(totals[i])
    return dict(sorted(counts.items()))


def threshold_of(c):
    """`_shot_table`'s threshold of one cumulative weight c: a table keeps at
    least its first column, and c + 2 past it is never reached."""
    return int(exp._shot_table(np.array([[c, 2.0]]))[0][0, 0])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(0.0, 2.0**-1022), st.floats(0.0, 1.0),
                 st.floats(1.0, 4.0), st.integers(0, 2**53).map(lambda k: k * 2.0**-53)),
       st.integers(0, 2**53 - 1), st.sampled_from([-1, 0, None]))
def test_a_threshold_is_the_float_comparison(c, m, offset):
    # A draw u = m * 2**-53 is at or above c exactly when m is at or above
    # the threshold ceil(c * 2**53); `offset` puts m at t - 1 or at t.
    t = threshold_of(c)
    if offset is not None:
        m = min(max(t + offset, 0), 2**53 - 1)
    assert (c <= m * 2.0**-53) == (t <= m)
    if t < 2**53:
        assert t == math.ceil(c * 2**53)


@st.composite
def level_chains(draw):
    """The (B, n) weights of 1 to 4 levels, where level i + 1 has a row per
    positive weight of level i, as `_branch_tree` makes them.  Zero weights
    fall first, in the middle and last, a row may have one positive outcome,
    a row may sum to just under 1 (so its total column is below 2**53) or a
    quarter under it (so draws land past its last positive outcome), and a
    level may be all positive (an identity next-row table)."""
    levels, rows = [], 1
    for _ in range(draw(st.integers(1, 4))):
        n, dense = draw(st.integers(1, 3)), draw(st.booleans())
        weights = []
        for _ in range(rows):
            mask = [True] * n if dense else draw(
                st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
            raw = [draw(st.floats(0.01, 1.0)) if positive else 0.0 for positive in mask]
            under = draw(st.sampled_from([0.0, 0.0, 2.0**-53, 3 * 2.0**-53, 0.25]))
            weights.append([w / sum(raw) * (1.0 - under) for w in raw])
        levels.append(np.array(weights))
        rows = int(np.count_nonzero(levels[-1] > 0.0))
    return levels


@settings(max_examples=300, deadline=None)
@given(level_chains(), st.integers(0, 2**64 - 1), st.integers(1, 4), st.integers(1, 23))
def test_walked_blocks_are_the_float_walk_shot_by_shot(levels, seed, block, shots):
    # The float reference: each shot counts the float cumulative weights of
    # its branch at or below its `rng.unit_matrix` draw, level by level.
    draws = rng.unit_matrix(seed, shots, len(levels))
    row = np.zeros(shots, dtype=np.intp)
    for depth, (cum, next_row) in enumerate(map(float_table, levels)):
        at = row * (len(cum) + 1)
        for column in cum:
            at += np.take(column, row) <= draws[:, depth]
        row = np.take(next_row, at)
        assert row.min() >= 0
    tables = [exp._shot_table(weights) for weights in levels]
    for weights, (thresholds, next_row, identity) in zip(levels, tables):
        n = weights.shape[1]
        assert 1 <= len(thresholds) <= max(n - 1, 1)
        if (weights > 0.0).all() and n > 1:
            assert len(thresholds) == n - 1 and identity
        assert identity == (next_row.tolist() == list(range(len(next_row))))
    next_row = tables[-1][1]
    blocks = -(-shots // block)   # the last one short unless block divides shots
    with mock.patch.object(exp, "SHOT_BLOCK", block):
        for b in range(blocks):   # one walk per block: shot by shot when block is 1
            counts = exp._walk_blocks(tables, seed, shots, b, blocks, threading.Event())
            assert not counts[next_row < 0].any()
            got = np.zeros(np.count_nonzero(levels[-1] > 0.0), dtype=np.int64)
            np.add.at(got, next_row[next_row >= 0], counts[next_row >= 0])
            want = np.bincount(row[b * block:(b + 1) * block], minlength=len(got))
            assert got.tolist() == want.tolist()


def has_eraser(seed):
    return any(isinstance(s, GeneralizedMeasure) for s in random_pipeline(seed).stages)


#: Random stage lists with Kraus levels, whose "yes" is listed before "no".
ERASER_SEEDS = [seed for seed in range(100) if has_eraser(seed)][:8]


class TestHistogramOrder:
    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("make", [
        *[lambda path=path: shipped_pipeline(path) for path in EXPERIMENTS],
        lambda: dsl.compile(dsl.parse_text(READOUT_TREE.read_text())),
        *[lambda s=s: random_pipeline(s) for s in ERASER_SEEDS],
    ], ids=[p.stem for p in EXPERIMENTS] + ["readout_tree"]
       + [f"random{s}" for s in ERASER_SEEDS])
    def test_counts_equal_the_dict_histogram(self, make, seed, block, monkeypatch):
        pipeline = make()
        if block is not None:
            monkeypatch.setattr(exp, "SHOT_BLOCK", block)
        hist = run_sampled(pipeline, 2000, seed)
        want = dict_histogram(pipeline, 2000, seed)
        assert list(hist.counts.items()) == list(want.items())


class TestRunSampled:
    def test_baseline_lands_entirely_in_x(self):
        for seed in (0, 1, 99):
            hist = run_sampled(baseline_pipeline(), 200, seed)
            assert hist.counts == {(("detector", "X"),): 200}

    def test_identical_seed_identical_histogram(self):
        p = eraser_pipeline(0.5)
        a, b = run_sampled(p, 500, 42), run_sampled(p, 500, 42)
        assert a.counts == b.counts
        assert run_sampled(p, 1, 7).counts == run_sampled(p, 1, 7).counts

    def test_different_seeds_differ(self):
        p = entangler_pipeline()
        assert run_sampled(p, 500, 1).counts != run_sampled(p, 500, 2).counts

    def test_entangler_frequency_within_binomial_bound(self):
        hist = run_sampled(entangler_pipeline(), 100_000, 7)
        freq = hist.frequency((("detector", "X"),))
        assert abs(freq - 0.5) <= 5.0 * math.sqrt(0.25 / 100_000)

    def test_matches_naive_per_shot_walk(self):
        for make in (readout_pipeline, lambda: eraser_pipeline(0.5)):
            p = make()
            assert run_sampled(p, 400, 11).counts == naive_run_sampled(p, 400, 11)

    def test_draws_are_freed_without_the_cycle_collector(self):
        p = eraser_pipeline(0.5)
        run_sampled(p, 10, 1)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            run_sampled(p, 100_000, 1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 2**20

    def test_memory_does_not_grow_with_the_shot_count(self):
        p = shipped_pipeline(EXPERIMENTS_DIR / "eraser_eta_half.mzx")
        run_sampled(p, 10, 1)
        tracemalloc.start()
        try:
            hist = run_sampled(p, 2_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.counts.values()) == 2_000_000
        assert peak < 16 * 2**20

    def test_drawing_a_zero_probability_outcome_raises(self, monkeypatch):
        # Source B exits at Y only; a draw below 0 would pick outcome X.
        space = comp.direction_space()
        p = Pipeline(space, space.basis_state(("y",)),
                     (unitary_on(comp.beam_splitter()), unitary_on(comp.mirror_pair()),
                      unitary_on(comp.beam_splitter()), Detect()))
        # A word of -1 as int64 is below every threshold, so every shot
        # would take outcome X.
        monkeypatch.setattr(rng, "draw_words",
                            lambda keys, counter, out, scratch: out.fill(2**64 - 1) or out)
        with pytest.raises(RuntimeError, match="zero-probability"):
            run_sampled(p, 10, 1)

    def test_two_walkers_under_a_short_switch_interval(self, monkeypatch):
        # Thread switches between nearly every bytecode; the counts must
        # still be the one-walker counts, shot for shot.
        p = shipped_pipeline(EXPERIMENTS_DIR / "eraser.mzx")
        monkeypatch.setattr(exp, "SHOT_BLOCK", 64)
        monkeypatch.setattr(exp, "_shot_workers", lambda blocks: 1)
        want = run_sampled(p, 20_011, 5).counts
        monkeypatch.setattr(exp, "_shot_workers", lambda blocks: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_sampled(p, 20_011, 5).counts
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("failing", ["calling", "pool"])
    def test_a_failing_draw_raises_from_either_thread(self, failing, monkeypatch):
        # Source B exits at Y only, so a word of -1 picks the zero-probability X.
        space = comp.direction_space()
        p = Pipeline(space, space.basis_state(("y",)),
                     (unitary_on(comp.beam_splitter()), unitary_on(comp.mirror_pair()),
                      unitary_on(comp.beam_splitter()), Detect()))
        main, words, walk = threading.main_thread(), rng.draw_words, exp._walk_blocks
        calls, stops, waited = [], [], []

        def walk_blocks(*args, stop, **kwargs):
            stops.append(stop)
            return walk(*args, stop=stop, **kwargs)

        def draw_words(keys, counter, out, scratch):
            here = "calling" if threading.current_thread() is main else "pool"
            calls.append(here)
            words(keys, counter, out, scratch)
            if here == failing:
                out.fill(2**64 - 1)
            elif not waited:
                # Go on only once the failing walker has raised and set the
                # walk's stop, so this walker cannot run all its blocks
                # within one switch interval before the failure.
                waited.append(stops[0].wait(timeout=10))
            return out
        monkeypatch.setattr(exp, "_walk_blocks", walk_blocks)
        monkeypatch.setattr(rng, "draw_words", draw_words)
        monkeypatch.setattr(exp, "SHOT_BLOCK", 7)
        monkeypatch.setattr(exp, "_shot_workers", lambda blocks: 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="zero-probability"):
            run_sampled(p, 7 * 4000, 1)
        assert threading.active_count() == before
        # The other walker stopped after a block in progress, well short of
        # its 2000 blocks.
        assert calls.count({"calling": "pool", "pool": "calling"}[failing]) < 2000
        assert calls.count(failing) == 1

    def test_memory_is_blocks_per_walker_not_per_level(self, monkeypatch):
        text = "source A\n" + "beamsplitter\nwwreadout\n" * 10 + "beamsplitter\ndetect\n"
        p = dsl.compile(dsl.parse_text(text))
        monkeypatch.setattr(exp, "_shot_workers", lambda blocks: 2)
        run_sampled(p, 2 * exp.SHOT_BLOCK, 1)   # imports the pool before tracing
        tracemalloc.start()
        try:
            tree = exp._branch_tree(p.space, p.initial, p.stages)
            tables = [exp._shot_table(level.weights) for level in tree.levels]
            tree_peak = tracemalloc.get_traced_memory()[1]
            del tree, tables
            tracemalloc.reset_peak()
            hist = run_sampled(p, 2_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hist.counts) == 2048 and sum(hist.counts.values()) == 2_000_000
        assert peak < 2 * exp.SHOT_BLOCK * 64 + tree_peak

    def test_counts_sum_to_shots(self):
        hist = run_sampled(eraser_pipeline(0.5), 1234, 3)
        assert sum(hist.counts.values()) == 1234

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sampled(baseline_pipeline(), 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            run_sampled(eraser_pipeline(0.5), 10, seed)

    def test_largest_seed_accepted(self):
        hist = run_sampled(eraser_pipeline(0.5), 10, 2**64 - 1)
        assert hist.seed == 2**64 - 1 and sum(hist.counts.values()) == 10

    def test_frequencies_converge_over_seeds(self):
        # 5-sigma binomial bounds per (seed, branch); at most one excursion.
        p = eraser_pipeline(0.5)
        expected = table(run_analytic(p))
        shots = 100_000
        excursions = 0
        for seed in range(10):
            hist = run_sampled(p, shots, seed)
            for record, prob in expected.items():
                bound = 5.0 * math.sqrt(prob * (1.0 - prob) / shots)
                if abs(hist.frequency(record) - prob) > bound:
                    excursions += 1
        assert excursions <= 1


class TestSweep:
    def test_bare_interferometer_has_full_visibility(self):
        grid = [k * 2.0 * math.pi / 64 for k in range(64)]
        result = sweep(baseline_pipeline, "phi", grid)
        assert abs(result.visibility - 1.0) <= 1e-10
        for point in result.points:
            assert abs(point.prob_x - math.cos(point.value / 2.0) ** 2) <= 1e-12

    def test_tagged_interferometer_has_no_fringes(self):
        grid = [k * 2.0 * math.pi / 64 for k in range(64)]
        result = sweep(entangler_pipeline, "phi", grid)
        assert abs(result.visibility) <= 1e-10
        for point in result.points:
            assert abs(point.prob_x - 0.5) <= 1e-12

    def test_conditioned_eraser_restores_fringes(self):
        grid = [k * 2.0 * math.pi / 64 for k in range(64)]
        result = sweep(lambda v: eraser_pipeline(1.0, phi=v), "phi", grid,
                       given=matches(abs="yes"))
        assert abs(result.visibility - 1.0) <= 1e-10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(baseline_pipeline, "phi", [])

    def test_non_finite_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(baseline_pipeline, "phi", [0.0, math.nan])

    def test_visibility_zero_over_zero_is_zero(self):
        assert exp.visibility([0.0, 0.0]) == 0.0


class TestDelayedChoice:
    def test_eraser_after_detection_changes_nothing(self):
        assert delayed_choice_equivalence(eraser_pipeline(1.0))
        assert delayed_choice_equivalence(eraser_pipeline(0.3))

    def test_eraser_before_exit_splitter_changes_nothing(self):
        assert delayed_choice_equivalence(eraser_pipeline(1.0, eraser_before_exit=True))

    def test_requires_a_kraus_stage(self):
        with pytest.raises(PipelineError):
            delayed_choice_equivalence(entangler_pipeline())


class TestPipelineValidation:
    def test_detect_must_be_last(self):
        space = comp.direction_space()
        with pytest.raises(PipelineError, match="final"):
            Pipeline(space, space.basis_state(("x",)),
                     (Detect(), unitary_on(comp.beam_splitter())))

    def test_detect_required(self):
        space = comp.direction_space()
        with pytest.raises(PipelineError, match="detect"):
            Pipeline(space, space.basis_state(("x",)),
                     (unitary_on(comp.beam_splitter()),))

    def test_duplicate_record_keys_rejected(self):
        space = comp.direction_space()
        with pytest.raises(PipelineError, match="unique"):
            Pipeline(space, space.basis_state(("x",)),
                     (ProjectiveMeasure("direction", "detector", None), Detect()))

    @pytest.mark.parametrize("names, message", [
        ({"x": "y"}, "stage 2: outcomes 'x' and 'y' both record the name 'y'"),
        ({"x": "A", "y": "A"}, "stage 2: outcomes 'x' and 'y' both record the name 'A'"),
    ])
    def test_repeated_outcome_names_rejected(self, names, message):
        # Two outcomes under one name would give two leaves one record.
        space = comp.direction_space()
        stages = (unitary_on(comp.beam_splitter()), ProjectiveMeasure("direction", "ww", names),
                  Detect())
        with pytest.raises(PipelineError) as exc:
            Pipeline(space, space.basis_state(("x",)), stages)
        assert str(exc.value) == message
        with pytest.raises(PipelineError) as exc:
            exp.PipelineFamily(space, space.basis_state(("x",)), stages)
        assert str(exc.value) == message

    def test_mismatched_targets_rejected(self):
        space = comp.direction_space()
        with pytest.raises(PipelineError):
            Pipeline(space, space.basis_state(("x",)),
                     (exp.Unitary(comp.beam_splitter(), ("photon",)), Detect()))

    @pytest.mark.parametrize("space, stage, message", [
        (comp.direction_space(), exp.Unitary(comp.beam_splitter(), ("photon",)),
         "stage 1: unknown subsystem 'photon' (have ('direction',))"),
        (comp.tagged_space(), exp.Unitary(comp.beam_splitter(), ("direction", "direction")),
         "stage 1: duplicate subsystem names: ['direction', 'direction']"),
        (comp.tagged_space(), exp.Unitary(comp.beam_splitter(), ("atom",)),
         "stage 1: operator does not match targets ('atom',)"),
        (comp.tagged_space(),
         exp.Unitary(hilbert.LinearMap.diagonal(hilbert.space_of(hilbert.SubsystemSpec(
             "direction", ("y", "x"))), [1.0, 1.0]), ("direction",)),
         "stage 1: operator does not match targets ('direction',)"),
        (comp.eraser_space(), GeneralizedMeasure(comp.eraser_kraus(0.5), ("eraser", "photon"),
                                                 "abs"),
         "stage 1: Kraus pair does not match targets ('eraser', 'photon')"),
        (comp.eraser_space(), GeneralizedMeasure(comp.eraser_kraus(0.5), ("photon", "nosuch"),
                                                 "abs"),
         "stage 1: unknown subsystem 'nosuch' (have ('direction', 'photon', 'atom', 'eraser'))"),
        (comp.eraser_space(), GeneralizedMeasure(comp.eraser_kraus(0.5), ("photon", "photon"),
                                                 "abs"),
         "stage 1: duplicate subsystem names: ['photon', 'photon']"),
        (comp.eraser_space(), exp.Unitary(comp.beam_splitter(), ()),
         "stage 1: operator does not match targets ()"),
    ])
    def test_target_problems_are_worded(self, space, stage, message):
        initial = space.basis_state(tuple(sub.labels[0] for sub in space.subsystems))
        with pytest.raises(PipelineError) as exc:
            Pipeline(space, initial, (stage, Detect()))
        assert str(exc.value) == message

    def test_detect_needs_a_direction_subsystem(self):
        space = hilbert.space_of(hilbert.photon())
        with pytest.raises(PipelineError, match="stage 1: no direction subsystem to detect"):
            Pipeline(space, space.basis_state(("vac",)), (Detect(),))

    def test_initial_state_space_must_match(self):
        space = comp.direction_space()
        other = comp.tagged_space()
        with pytest.raises(PipelineError):
            Pipeline(space, other.basis_state(("x", "vac", "e")), (Detect(),))


def generated_program(seed):
    """A seeded valid `.mzx` program: 3 to 20 beam splitters, mirrors and
    phases, and either an entangler with up to two erasers after it (open
    or closed, eta drawn or left out) or up to two which-way readouts."""
    gen = random.Random(seed)
    body = [gen.choice(["beamsplitter", "beamsplitter", "mirrors",
                        f"phase {gen.choice('AB')} {gen.uniform(-7.0, 7.0)!r}"])
            for _ in range(gen.randint(3, 20))]
    if seed % 3:
        at = gen.randrange(len(body))
        body.insert(at, "entangler")
        for _ in range(gen.randint(0, 2)):
            body.insert(gen.randint(at + 1, len(body)),
                        gen.choice(["eraser closed", "eraser open",
                                    f"eraser open eta={gen.uniform(0.05, 1.0)!r}"]))
    else:
        for _ in range(gen.randint(0, 2)):
            body.insert(gen.randint(0, len(body)), "wwreadout")
    source = f"source {gen.choice('AB')}" + gen.choice(["", " excited"])
    return "\n".join([source, *body, "detect"]) + "\n"


GENERATED = range(60)


def memo_pipeline(which):
    """A shipped file's pipeline, or a generated program's by seed."""
    if isinstance(which, Path):
        return shipped_pipeline(which)
    return dsl.compile(dsl.parse_text(generated_program(which)))


MEMO_INPUTS = [pytest.param(path, id=path.name) for path in (*EXPERIMENTS, READOUT_TREE)] + \
    [pytest.param(seed, id=f"generated-{seed}") for seed in GENERATED]


def dense_projectors(axis, dims):
    """The (labels, d, d) stack of the label projectors of the subsystem at
    `axis`, lifted to a space of subsystem dimensions `dims`: the operators
    a projective stage was applied by, as dense matrix products, before it
    copied each amplitude to its outcome."""
    sub = hilbert.SubsystemSpec("measured", tuple(map(str, range(dims[axis]))))
    mats = np.array([hilbert.label_projector(sub, label) for label in sub.labels])
    return hilbert.lift(mats, (axis,), dims)


def fresh_stack(stage, space):
    """A new lift of a stage's matrices, as `stage.operators` lists them; a
    projective or detector stage's label projectors."""
    if isinstance(stage, exp.Unitary):
        targets, mats = stage.targets, stage.op.matrix[None]
    elif isinstance(stage, GeneralizedMeasure):
        targets = stage.targets
        mats = np.array([stage.kraus.k_abs.matrix, stage.kraus.k_noabs.matrix])
    else:
        subsystem = stage.subsystem if isinstance(stage, ProjectiveMeasure) else "direction"
        return dense_projectors(space.axis(subsystem), space.dims)
    return hilbert.lift(mats, [space.axis(t) for t in targets], space.dims)


def assert_fresh_operators(stage, space, ops):
    """`ops`, a stage's operators from `stage.operators`, are read-only and
    equal a new lift: a matrix stack byte for byte, or, for a projective or
    detector stage, places of the amplitudes among the outcomes that mark
    the diagonals of the lifted label projectors, whose off-diagonal entries
    are all zero: each basis state is placed once, in the row of its label."""
    fresh = fresh_stack(stage, space)
    assert not ops.flags.writeable
    if isinstance(stage, (ProjectiveMeasure, Detect)):
        diagonal = np.eye(space.dim, dtype=bool)
        assert not np.any(fresh[:, ~diagonal])
        assert ops.dtype == np.intp and ops.shape == (space.dim,)
        assert np.array_equal(ops % space.dim, np.arange(space.dim))
        placed = np.zeros(fresh.shape[:2], dtype=complex)
        placed.flat[ops] = 1.0
        assert placed.tobytes() == fresh[:, diagonal].tobytes()
    else:
        assert (ops.dtype, ops.shape) == (fresh.dtype, fresh.shape)
        assert ops.tobytes() == fresh.tobytes()


def lift_every_stage_fresh(monkeypatch):
    """Replace the memo lookups of `stage.operators` by new lifts, and a
    projective stage's places by its dense projector stack, which the walk
    then applies by matrix product."""
    monkeypatch.setattr(exp._Product, "_lifted_stack", lambda stage, axes, dims: hilbert.lift(
        stage.op.matrix[None] if isinstance(stage, exp.Unitary) else
        np.array([stage.kraus.k_abs.matrix, stage.kraus.k_noabs.matrix]), axes, dims))
    monkeypatch.setattr(exp, "_label_places", dense_projectors)


def module_container_sizes():
    """The size of every cache and container at module level in `mzsim`,
    the weak memo of lifted stacks included."""
    sizes = {}
    for module in (hilbert, comp, exp, dsl, cli, rng):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                sizes[module.__name__, name] = value.cache_info().currsize
            elif isinstance(value, (dict, list, set, weakref.WeakKeyDictionary)):
                sizes[module.__name__, name] = len(value)
    return sizes


class TestLiftMemo:
    @pytest.mark.parametrize("which", MEMO_INPUTS)
    def test_stage_stacks_are_read_only_fresh_lifts(self, which):
        pipeline = memo_pipeline(which)
        for stage in pipeline.stages:
            outcomes, stack = stage.operators(pipeline.space)
            assert stage.operators(pipeline.space)[1] is stack
            assert_fresh_operators(stage, pipeline.space, stack)
            assert outcomes == [o for o, _ in naive_operators(stage, pipeline.space)[1]]

    def test_one_shape_at_two_axes_lifts_twice(self):
        # Both spaces have dims (2, 2); direction is first in one, last in
        # the other, so the key must hold the axes as well as the dims.
        spaces = (hilbert.space_of(hilbert.direction(), hilbert.atom()),
                  hilbert.space_of(hilbert.atom(), hilbert.direction()))
        for stage in (unitary_on(comp.beam_splitter()), Detect(),
                      ProjectiveMeasure("direction", "ww", WW_NAMES)):
            stacks = [stage.operators(space)[1] for space in spaces]
            assert stacks[0].tobytes() != stacks[1].tobytes()
            for space, stack in zip(spaces, stacks):
                assert_fresh_operators(stage, space, stack)

    def test_compiles_share_their_layout_and_fixed_stacks(self):
        text = (EXPERIMENTS_DIR / "baseline.mzx").read_text()
        first, second = (dsl.compile(dsl.parse_text(text)) for _ in range(2))
        assert first.space is second.space and first.initial is second.initial
        for index in (0, -1):   # the beam splitter's stack, the detectors' places
            assert first.stages[index].operators(first.space)[1] is \
                second.stages[index].operators(second.space)[1]

    def test_label_places_are_shared_across_pipelines(self):
        # Every projective stage on one (axis, dims) reads one array: the
        # which-way readouts and the detectors of different programs.
        pipelines = [dsl.compile(dsl.parse_text(text)) for text in (
            READOUT_TREE.read_text(), (EXPERIMENTS_DIR / "whichway_readout.mzx").read_text(),
            "source B\nwwreadout\nbeamsplitter\ndetect\n")]
        places = {id(stage.operators(p.space)[1]) for p in pipelines
                  for stage in p.stages if isinstance(stage, (ProjectiveMeasure, Detect))}
        assert len(places) == 1

    def test_distinct_phases_grow_no_module_container(self):
        # Each program's phase shifter is its own map, with its own entry in
        # the memo until it dies; the shared components keep one stack per
        # (axes, dims).
        texts = ["source A\nbeamsplitter\nphase B {}\nmirrors\nbeamsplitter\ndetect\n",
                 "source B\nbeamsplitter\nwwreadout\nphase A {}\nbeamsplitter\ndetect\n",
                 "source A excited\nbeamsplitter\nentangler\nphase B {}\nmirrors\n"
                 "beamsplitter\neraser open eta=0.5\ndetect\n"]
        programs = [texts[k % 3].format(repr(0.001 * k + 0.1)) for k in range(1000)]
        for text in programs[:3]:
            run_analytic(dsl.compile(dsl.parse_text(text)))
        sizes, memo = module_container_sizes(), dict(exp._LIFTED[comp.beam_splitter()])
        assert sizes["mzsim.experiment", "_LIFTED"] > 0
        for text in programs[3:]:
            run_analytic(dsl.compile(dsl.parse_text(text)))
        assert module_container_sizes() == sizes
        assert exp._LIFTED[comp.beam_splitter()].keys() == memo.keys()
        for (axes, dims), stack in memo.items():
            assert stack.shape == (1, math.prod(dims), math.prod(dims))
            assert exp._LIFTED[comp.beam_splitter()][axes, dims] is stack

    def test_a_memo_dies_with_its_operator(self):
        pipeline = dsl.compile(dsl.parse_text(
            "source A\nbeamsplitter\nphase B 0.3\nmirrors\nbeamsplitter\ndetect\n"))
        run_analytic(pipeline)
        phase = pipeline.stages[1].op
        (stack,) = exp._LIFTED[phase].values()
        entries = len(exp._LIFTED)
        refs = weakref.ref(phase), weakref.ref(stack)
        gc.disable()
        try:
            del pipeline, phase, stack   # freed without the cycle collector
            assert [ref() for ref in refs] == [None, None]
            assert len(exp._LIFTED) == entries - 1
        finally:
            gc.enable()

    def test_kraus_cache_keeps_at_most_4_5_mib_of_stacks(self):
        # Each cached pair keeps its (2, 24, 24) stack on the eraser space
        # alive in the memo: 18 KiB, and 256 of them 4.5 MiB.
        ast = dsl.parse_text((Path(__file__).parent / "golden" / "eraser_eta.mzx").read_text())
        for k in range(300):
            run_analytic(dsl.compile(ast, {"eta": (k + 1) / 300}))
        pair = comp.eraser_kraus(1.0)
        stack = exp._LIFTED[pair][(1, 3), (2, 3, 2, 2)]
        assert stack.shape == (2, 24, 24) and stack.nbytes == 18 * 2**10
        info = comp.eraser_kraus.cache_info()
        assert info.currsize <= info.maxsize == 256
        assert info.maxsize * stack.nbytes == 4.5 * 2**20


@pytest.mark.parametrize("which", MEMO_INPUTS)
def test_cold_lifts_equal_the_memoized_run(which, monkeypatch):
    pipeline = memo_pipeline(which)
    warm = [run_analytic(pipeline) for _ in range(2)][1]
    sampled = [list(run_sampled(pipeline, 2000, seed).counts.items())
               for seed in (0, 2**64 - 1)]
    with monkeypatch.context() as cold:
        lift_every_stage_fresh(cold)
        fresh = memo_pipeline(which)   # new phase shifters, with empty memos
        for p in (pipeline, fresh):
            dist = run_analytic(p)
            assert dist.records == warm.records
            assert dist.probs.tobytes() == warm.probs.tobytes()
            assert dist.amps.tobytes() == warm.amps.tobytes()
            assert [list(run_sampled(p, 2000, seed).counts.items())
                    for seed in (0, 2**64 - 1)] == sampled
        assert all(s.op not in exp._LIFTED for s in fresh.stages if isinstance(s, exp.Unitary)
                   and s.op not in (comp.beam_splitter(), comp.mirror_pair(),
                                    comp.which_way_entangler()))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no check in the package may be one.
    package = Path(exp.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"


def test_package_has_no_broad_except():
    # Each handler names the errors it expects, so a fault elsewhere is not
    # caught as one of them.
    package = Path(exp.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        broad = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ExceptHandler) and (node.type is None or any(
                     isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
                     for name in getattr(node.type, "elts", [node.type])))]
        assert broad == [], f"{path.name}: broad except at lines {broad}"


def test_package_takes_into_out_only_with_a_mode():
    # Under the default mode="raise", np.take copies through a buffer when
    # given `out`, about nine times the cost of the take itself; the walks'
    # indices are in range by construction, so they pass a mode.
    package = Path(exp.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        takes = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "take"
                 and {"out"} <= {k.arg for k in node.keywords}
                 and "mode" not in {k.arg for k in node.keywords}]
        assert takes == [], f"{path.name}: np.take with out= and no mode= at lines {takes}"


def test_package_reads_no_private_name_of_another():
    # A name with one leading underscore belongs to its module or object, so
    # it is read only off `self` or `cls`.  NamedTuple's public methods are
    # spelled with an underscore, and are exempt.
    package = Path(exp.__file__).resolve().parent
    public = {"_make", "_replace", "_fields", "_asdict"}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                 and not node.attr.startswith("__") and node.attr not in public
                 and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
        assert reads == [], f"{path.name}: another's private name at lines {reads}"
