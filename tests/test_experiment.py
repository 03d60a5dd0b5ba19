import ast
import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mzsim import components as comp
from mzsim import dsl
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
    p_x, p_y = comp.detector_projectors(space)
    return stage.record_key, [("X", p_x.matrix), ("Y", p_y.matrix)]


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

    @pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.name)
    def test_shipped_experiments_sampled_in_small_blocks(self, path, monkeypatch):
        p = shipped_pipeline(path)
        default = run_sampled(p, 101, 2**64 - 1).counts
        monkeypatch.setattr(exp, "SHOT_BLOCK", 7)
        blocked = run_sampled(p, 101, 2**64 - 1).counts
        assert blocked == default == naive_run_sampled(p, 101, 2**64 - 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stage_lists_sampled_in_small_blocks(self, seed, monkeypatch):
        p = random_pipeline(seed)
        default = run_sampled(p, 150, seed).counts
        monkeypatch.setattr(exp, "SHOT_BLOCK", 7)
        blocked = run_sampled(p, 150, seed).counts
        assert blocked == default == naive_run_sampled(p, 150, seed)


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
        monkeypatch.setattr(rng, "unit_matrix",
                            lambda seed, streams, draws, first=0: np.full((streams, draws), -1.0))
        with pytest.raises(RuntimeError, match="zero-probability"):
            run_sampled(p, 10, 1)

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

    def test_mismatched_targets_rejected(self):
        space = comp.direction_space()
        with pytest.raises(PipelineError):
            Pipeline(space, space.basis_state(("x",)),
                     (exp.Unitary(comp.beam_splitter(), ("photon",)), Detect()))

    def test_initial_state_space_must_match(self):
        space = comp.direction_space()
        other = comp.tagged_space()
        with pytest.raises(PipelineError):
            Pipeline(space, other.basis_state(("x", "vac", "e")), (Detect(),))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no check in the package may be one.
    package = Path(exp.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"
