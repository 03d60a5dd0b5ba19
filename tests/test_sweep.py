"""Batched sweeps of a `PipelineFamily` against the point-by-point loop.

`sweep` runs a family from `dsl.sweep_template` as a batch and any other
callable point by point; the batch must give the same points, value for
value and type for type, and raise the same errors.
"""

import math
import tracemalloc
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import components as comp
from mzsim import dsl
from mzsim import experiment as exp
from mzsim.experiment import matches, sweep

ROOT = Path(__file__).resolve().parent.parent
PHASE_FILES = ("baseline_phase.mzx", "entangler_phase.mzx", "eraser_phase.mzx")
GIVENS = (None, {"abs": "yes"}, {"abs": "no"}, {"detector": "Y"}, {"ww": "A"})


def load(name):
    return dsl.parse_text((ROOT / "experiments" / name).read_text())


def both(ast, parameter, grid, condition=None):
    """(batched, point by point) outcomes of one sweep."""
    family = dsl.sweep_template(ast, parameter)
    pred = matches(**condition) if condition else None

    def run(build):
        try:
            result = sweep(build, parameter, grid, given=pred)
        except Exception as exc:
            return type(exc), str(exc)
        fields = [(type(v), v) for point in result.points
                  for v in (point.value, point.prob_x, point.prob_y,
                            point.cond_x, point.cond_y)]
        return result.parameter, result.grid, fields, result.visibility

    return run(family), run(lambda v: dsl.compile(ast, {parameter: v}))


@st.composite
def templates(draw):
    """A `.mzx` file with one free parameter `p`: a phase on arm A or B, an
    eraser's eta, or both; optional entangler, open or closed eraser, and
    `wwreadout` where the entangler is absent."""
    entangler = draw(st.booleans())
    eraser = draw(st.sampled_from([None, "open", "closed"])) if entangler else None
    free_eta = eraser is not None and draw(st.booleans())
    free_phase = draw(st.booleans()) or not free_eta
    body = ["beamsplitter"]
    if entangler:
        body.append("entangler")
    arm = draw(st.sampled_from("AB"))
    body.append(f"phase {arm} p" if free_phase else f"phase {arm} 0.3pi")
    body += ["mirrors", "beamsplitter"]
    if eraser is not None:
        eta = "eta=p" if free_eta else draw(st.sampled_from(["", "eta=0.5", "eta=1.0"]))
        at = draw(st.integers(2, len(body)))
        body.insert(at, f"eraser {eraser} {eta}".rstrip())
    if not entangler and draw(st.booleans()):
        body.insert(draw(st.integers(1, len(body))), "wwreadout")
    source = f"source {draw(st.sampled_from('AB'))}" + draw(st.sampled_from(["", " excited"]))
    return "\n".join([source, *body, "detect"]) + "\n"


grids = st.lists(st.one_of(st.sampled_from([0, 0.0, math.pi, 0.25, 0.5, 1.0]),
                           st.floats(-7.0, 7.0)),
                 min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(templates(), grids, st.sampled_from(GIVENS))
def test_batch_equals_point_by_point(text, grid, condition):
    batched, reference = both(dsl.parse_text(text), "p", grid, condition)
    assert batched == reference


@settings(max_examples=100, deadline=None)
@given(templates(), st.none() | st.floats(-1e6, 1e6), st.sampled_from(["", "pi"]))
def test_generated_programs_round_trip(text, phase, suffix):
    # A number in place of a free phase, negative ones and `pi` multiples included.
    if phase is not None:
        text = text.replace(" p\n", f" {phase!r}{suffix}\n")
    ast = dsl.parse_text(text)
    printed = dsl.pretty_print(ast)
    assert dsl.parse_text(printed) == ast
    assert dsl.pretty_print(dsl.parse_text(printed)) == printed


@pytest.mark.parametrize("condition", [None, {"abs": "yes"}, {"abs": "no"}])
@pytest.mark.parametrize("name", PHASE_FILES)
def test_shipped_sweeps_equal_point_by_point(name, condition):
    grid = [i * 2.0 * math.pi / 64 for i in range(64)] + [math.pi, 0.0, math.pi]
    batched, reference = both(load(name), "phi", grid, condition)
    assert batched == reference


def test_family_builds_the_compiled_pipeline():
    ast = dsl.parse_text((ROOT / "tests" / "golden" / "eraser_eta.mzx").read_text()
                         .replace("mirrors", "phase A eta\nmirrors"))
    family = dsl.sweep_template(ast, "eta")
    for value in (0.25, 1.0, 0.7):
        built, compiled = family(value), dsl.compile(ast, {"eta": value})
        assert built.space == compiled.space
        assert np.array_equal(built.initial.amps, compiled.initial.amps)
        assert [type(s) for s in built.stages] == [type(s) for s in compiled.stages]
        for a, b in zip(built.stages, compiled.stages):
            assert a.record_key == b.record_key
            outcomes_a, mats_a = a.operators(built.space)
            outcomes_b, mats_b = b.operators(compiled.space)
            assert outcomes_a == outcomes_b
            assert np.array_equal(mats_a, mats_b)


def test_family_raises_what_compile_raises():
    ast = dsl.parse_text((ROOT / "tests" / "golden" / "eraser_eta.mzx").read_text())
    family = dsl.sweep_template(ast, "eta")
    for value in (0.0, 1.5, math.inf):
        with pytest.raises(dsl.ParseError) as batched:
            family(value)
        with pytest.raises(dsl.ParseError) as compiled:
            dsl.compile(ast, {"eta": value})
        assert str(batched.value) == str(compiled.value)


def test_first_bad_eta_raises():
    ast = dsl.parse_text((ROOT / "tests" / "golden" / "eraser_eta.mzx").read_text())
    with pytest.raises(dsl.ParseError, match=r"eta must lie in \(0, 1\], got 0\.0"):
        sweep(dsl.sweep_template(ast, "eta"), "eta", [0.5, 0.0, 2.0])


def test_zero_probability_before_a_bad_eta_raises_first():
    # P(Y) = 0 at every eta: the point-by-point loop meets it at 0.5 first.
    ast = dsl.parse_text("source A excited\nentangler\neraser open eta=p\ndetect\n")
    family = dsl.sweep_template(ast, "p")
    with pytest.raises(exp.ZeroProbabilityEventError):
        sweep(family, "p", [0.5, 0.0], given=matches(detector="Y"))
    with pytest.raises(dsl.ParseError):
        sweep(family, "p", [0.0, 0.5], given=matches(detector="Y"))


def test_batch_neither_compiles_nor_walks_per_point(monkeypatch):
    family = dsl.sweep_template(load("eraser_phase.mzx"), "phi")
    walk, walked = exp._branch_tree, []

    def forbidden(*args, **kwargs):
        raise AssertionError("called per point")

    def counted(space, initial, stages, points=1):
        walked.append(points)
        return walk(space, initial, stages, points)

    monkeypatch.setattr(dsl, "compile", forbidden)
    monkeypatch.setattr(exp, "run_analytic", forbidden)
    monkeypatch.setattr(exp, "_branch_tree", counted)
    result = sweep(family, "phi", [0.0, 1.0, math.pi], given=matches(abs="yes"))
    assert abs(result.visibility - 1.0) <= 1e-12
    assert walked == [3]
    # One walk per SWEEP_CHUNK grid points.
    monkeypatch.setattr(exp, "SWEEP_CHUNK", 2)
    walked.clear()
    sweep(family, "phi", [0.0, 1.0, math.pi, 2.0, 3.0], given=matches(abs="yes"))
    assert walked == [2, 2, 1]


def test_a_rejected_value_neither_falls_back_nor_rewalks(monkeypatch):
    # The values before the rejected 1.5 are walked once, as one batch, and
    # then 1.5 raises its own error; no point runs through `run_analytic`.
    ast = dsl.parse_text((ROOT / "tests" / "golden" / "eraser_eta.mzx").read_text())
    family = dsl.sweep_template(ast, "eta")
    walk, walked = exp._branch_tree, []

    def forbidden(*args, **kwargs):
        raise AssertionError("fell back to the point-by-point loop")

    def counted(space, initial, stages, points=1):
        walked.append(points)
        return walk(space, initial, stages, points)

    monkeypatch.setattr(exp, "run_analytic", forbidden)
    monkeypatch.setattr(exp, "_branch_tree", counted)
    with pytest.raises(dsl.ParseError, match=r"eta must lie in \(0, 1\], got 1\.5"):
        sweep(family, "eta", [0.5, 0.75, 1.5])
    assert walked == [2]
    # A chunk that a value does not reach is never walked; one it ends is
    # walked up to it.
    monkeypatch.setattr(exp, "SWEEP_CHUNK", 2)
    walked.clear()
    with pytest.raises(dsl.ParseError, match=r"got 1\.5"):
        sweep(family, "eta", [0.5, 0.75, 1.0, 1.5, 0.25, 0.5])
    assert walked == [2, 1]


def test_a_stack_that_stops_early_skips_no_point():
    # A stack that stops before a value the family accepts is a fault of the
    # stack, not a rejected value: the sweep raises rather than drop the point.
    family = dsl.sweep_template(load("eraser_phase.mzx"), "phi")
    short = exp.PipelineFamily(family.space, family.initial, [
        exp.SweptStage(s.template, s.build, lambda values, s=s: s.stack(values)[:1])
        if isinstance(s, exp.SweptStage) else s for s in family.stages])
    with pytest.raises(RuntimeError, match="rejected 1.0, which the family accepts"):
        sweep(short, "phi", [0.0, 1.0])


def test_a_failing_walk_is_not_a_rejected_value(monkeypatch):
    # A family never runs point by point; an error in the batched walk
    # itself propagates.
    family = dsl.sweep_template(load("eraser_phase.mzx"), "phi")

    def broken(*args, **kwargs):
        raise RuntimeError("walk failed")

    def forbidden(*args, **kwargs):
        raise AssertionError("fell back to the point-by-point loop")

    monkeypatch.setattr(exp, "_branch_tree", broken)
    monkeypatch.setattr(exp, "run_analytic", forbidden)
    with pytest.raises(RuntimeError, match="walk failed"):
        sweep(family, "phi", [0.0, 1.0])


def test_deep_records_equal_point_by_point():
    # 66 measurement levels: numbering the leaves' outcome paths by their
    # outcomes alone would need 2**66 numbers, more than an int64 holds.
    text = "source A\nbeamsplitter\n" + "wwreadout\n" * 64 + "phase B p\nbeamsplitter\ndetect\n"
    for condition in (None, {"ww64": "B"}):
        batched, reference = both(dsl.parse_text(text), "p", [0.0, 1.0, math.pi], condition)
        assert batched == reference


def test_pruned_points_equal_point_by_point():
    # Each point drops more than ATOL_DIST_SUM below PRUNE_PROB; the batch
    # counts it per point, as each point's distribution does.
    block = "beamsplitter\nphase A 0.20033484232311968\nbeamsplitter\nwwreadout\n"
    text = "source A\nphase B p\n" + block * 16 + "detect\n"
    batched, reference = both(dsl.parse_text(text), "p", [0.0, 1.0], {"ww": "A"})
    assert batched == reference
    assert reference[2]   # points, not an error


def walked_trees(family, grid):
    """Each `_branch_tree` walk that `sweep(family, ...)` makes over `grid`,
    up to the first value a swept stage rejects, with the `run_analytic`
    distributions of its points."""
    trees, walk = [], exp._branch_tree
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exp, "_branch_tree", lambda *args: trees.append(walk(*args)) or trees[-1])
        try:
            sweep(family, "p", grid)
        except dsl.ParseError:
            pass
    return [(tree, [exp.run_analytic(family(value)) for value in grid[:len(tree.pruned)]])
            for tree in trees]


def tree_pruned_dropping(family, grid):
    """Checks that each walked point's pruned mass and leaf probabilities
    are those of `run_analytic` at that point, bit for bit; returns the
    number of points that drop mass."""
    dropping = 0
    for tree, dists in walked_trees(family, grid):
        assert [p.hex() for p in tree.pruned.tolist()] == [d.pruned.hex() for d in dists]
        assert tree.probs.tobytes() == np.concatenate([d.probs for d in dists]).tobytes()
        dropping += np.count_nonzero(tree.pruned)
    return dropping


def check_tree_points(family, grid):
    """Checks that a walk's leaf points list each grid point once per leaf
    of that point, in grid order."""
    for tree, dists in walked_trees(family, grid):
        assert tree.points.tolist() == [g for g, d in enumerate(dists) for _ in d.records]


SHIPPED_DROPPING = [("eraser_phase.mzx", 2), ("baseline_phase.mzx", 1), ("entangler_phase.mzx", 0)]


@pytest.mark.parametrize("name, dropping", SHIPPED_DROPPING)
@pytest.mark.parametrize("steps", [16, 64])
def test_tree_pruned_equals_point_by_point(name, dropping, steps):
    # Roundoff rows are dropped at some points of these grids and not at the
    # others, so each point's pruned sum must come from its own rows.
    grid = [i * 2.0 * math.pi / steps for i in range(steps)]
    family = dsl.sweep_template(load(name), "phi")
    assert tree_pruned_dropping(family, grid) == dropping


@pytest.mark.parametrize("name", [name for name, _ in SHIPPED_DROPPING])
@pytest.mark.parametrize("steps", [16, 64])
def test_tree_points_list_each_point_per_leaf(name, steps):
    grid = [i * 2.0 * math.pi / steps for i in range(steps)]
    check_tree_points(dsl.sweep_template(load(name), "phi"), grid)


@settings(max_examples=100, deadline=None)
@given(templates(), grids)
def test_generated_tree_pruned_equals_point_by_point(text, grid):
    tree_pruned_dropping(dsl.sweep_template(dsl.parse_text(text), "p"), grid)


@settings(max_examples=100, deadline=None)
@given(templates(), grids)
def test_generated_tree_points_list_each_point_per_leaf(text, grid):
    check_tree_points(dsl.sweep_template(dsl.parse_text(text), "p"), grid)


@st.composite
def fringe_programs(draw):
    """A `.mzx` file whose one free parameter `p` is a phase, set by 1 to 3
    `phase A|B p` directives beside one fixed phase, and the number m of
    those directives.  It has an entangler with an open, closed or no
    eraser, or none and up to two `wwreadout`s."""
    entangler = draw(st.booleans())
    body = ["beamsplitter", "mirrors", "beamsplitter"]
    m = draw(st.integers(1, 3))
    phases = [f"phase {draw(st.sampled_from('AB'))} p" for _ in range(m)]
    fixed = repr(draw(st.floats(-7.0, 7.0)))
    for phase in phases + [f"phase {draw(st.sampled_from('AB'))} {fixed}"]:
        body.insert(draw(st.integers(0, len(body))), phase)
    if entangler:
        body.insert(draw(st.integers(0, len(body))), "entangler")
        eraser = draw(st.sampled_from([None, "open", "closed"]))
        if eraser is not None:
            eta = draw(st.sampled_from(["", "eta=0.5", "eta=1.0",
                                        f"eta={draw(st.floats(1e-3, 1.0))!r}"]))
            at = draw(st.integers(body.index("entangler") + 1, len(body)))
            body.insert(at, f"eraser {eraser} {eta}".rstrip())
    else:
        for _ in range(draw(st.integers(0, 2))):
            body.insert(draw(st.integers(0, len(body))), "wwreadout")
    source = f"source {draw(st.sampled_from('AB'))}" + draw(st.sampled_from(["", " excited"]))
    return "\n".join([source, *body, "detect"]) + "\n", m


def fringe_fit(family, degree):
    """The trigonometric polynomial of `degree` in p through `sweep`'s
    (prob_x, prob_y) at 2 degree + 1 equispaced nodes on [0, 2 pi), its
    coefficients taken with an FFT, as a function of an array of p."""
    nodes = 2 * degree + 1
    points = sweep(family, "p", [2.0 * math.pi * j / nodes for j in range(nodes)]).points
    coefficients = np.fft.fft([[p.prob_x, p.prob_y] for p in points], axis=0) / nodes
    k = np.fft.fftfreq(nodes, 1.0 / nodes)   # 0, 1, ..., degree, -degree, ..., -1
    return lambda phis: (np.exp(1j * np.outer(phis, k)) @ coefficients).real


def fringe_miss(family, degree, phis):
    """The largest distance between `sweep` at `phis` and the fit."""
    swept = [[p.prob_x, p.prob_y] for p in sweep(family, "p", list(phis)).points]
    return np.abs(fringe_fit(family, degree)(np.asarray(phis)) - swept).max()


@settings(max_examples=300, deadline=None)
@given(fringe_programs(), st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=8))
def test_fringes_are_trigonometric_polynomials(program, phis):
    # Each `phase ... p` multiplies one arm by e^{ip}, so every unnormalized
    # leaf amplitude is a polynomial of degree <= m in e^{ip} and every
    # detector probability a trigonometric polynomial of degree <= m, which
    # 2m + 1 nodes fix.  The worst miss seen over 300 generated programs
    # was 4.7e-15.
    text, m = program
    assert fringe_miss(dsl.sweep_template(dsl.parse_text(text), "p"), m, phis) <= 1e-12


def test_the_fringe_fit_misses_below_the_degree():
    # Three phases of p on one arm make a fringe of frequency 3, which the
    # nodes of degree 1 and 2 alias to a lower one.
    text = "source A\nbeamsplitter\n" + "phase B p\n" * 3 + "mirrors\nbeamsplitter\ndetect\n"
    family = dsl.sweep_template(dsl.parse_text(text), "p")
    phis = np.linspace(-7.0, 7.0, 64)
    misses = [fringe_miss(family, degree, phis) for degree in (1, 2, 3)]
    assert misses[0] > 0.9 and misses[1] > 0.9
    assert misses[2] <= 1e-12


def test_unmatched_point_reports_float_zero():
    # At phi = 0 no branch reaches detector Y: the loop's empty sum is 0.0.
    result = sweep(dsl.sweep_template(load("baseline_phase.mzx"), "phi"), "phi",
                   [0.0, math.pi / 2])
    assert type(result.points[0].prob_y) is float and result.points[0].prob_y == 0.0
    assert type(result.points[1].prob_y) is float


@pytest.mark.parametrize("condition", [None, {"abs": "yes"}, {"detector": "Y"}])
def test_chunked_batches_equal_point_by_point(monkeypatch, condition):
    monkeypatch.setattr(exp, "SWEEP_CHUNK", 3)
    grid = [0.0, 1.0, 2.0, math.pi, 0.5, math.pi, 0.0, 3.0]
    # The last two sweep a phase after the which-way readout has split every
    # point's row in two, so the walk gathers the phase stack per row.
    asts = [load(name) for name in PHASE_FILES] + [
        dsl.parse_text(f"source A\nbeamsplitter\nwwreadout\nphase {arm} phi\n"
                       "beamsplitter\ndetect\n") for arm in "AB"]
    for ast in asts:
        batched, reference = both(ast, "phi", grid, condition)
        assert batched == reference


def test_long_eta_sweep_leaves_a_bounded_kraus_cache():
    # The batch builds the template's pair, at eta 1, and no pair per point.
    ast = dsl.parse_text((ROOT / "tests" / "golden" / "eraser_eta.mzx").read_text())
    grid = [(k + 1) / 1000 for k in range(1000)]
    before = comp.eraser_kraus.cache_info()
    sweep(dsl.sweep_template(ast, "eta"), "eta", grid)
    after = comp.eraser_kraus.cache_info()
    assert after.misses - before.misses <= 1
    assert after.currsize - before.currsize <= 1


def test_a_wrapper_set_after_the_template_sees_the_eta_stack(monkeypatch):
    ast = dsl.parse_text((ROOT / "tests" / "golden" / "eraser_eta.mzx").read_text())
    family = dsl.sweep_template(ast, "eta")
    calls = []
    stack = comp.eraser_kraus_stack
    monkeypatch.setattr(comp, "eraser_kraus_stack", lambda etas: calls.append(list(etas))
                        or stack(etas))
    sweep(family, "eta", [0.25, 0.5, 1.0])
    assert calls == [[0.25, 0.5, 1.0]]


def test_a_closed_eraser_counts_its_etas_without_building_matrices(monkeypatch):
    text = ("source A excited\nbeamsplitter\nentangler\nmirrors\nbeamsplitter\n"
            "eraser closed eta=p\ndetect\n")
    family = dsl.sweep_template(dsl.parse_text(text), "p")
    points = sweep(family, "p", [0.25, 0.5, 1.0]).points
    monkeypatch.setattr(comp, "eraser_kraus_stack",
                        lambda etas: pytest.fail("a closed eraser built a Kraus stack"))
    (swept,) = [s for s in family.stages if isinstance(s, exp.SweptStage)]
    assert len(swept.stack(np.array([0.5, 1.0, math.nan, 0.7]))) == 2
    assert sweep(family, "p", [0.25, 0.5, 1.0]).points == points
    with pytest.raises(dsl.ParseError, match=r"6:1: semantic error: eta must lie in \(0, 1\], "
                                              r"got 0\.0$"):
        sweep(family, "p", [0.5, 0.0])


def test_long_sweep_memory_is_bounded():
    # 20 000 points of the 24-dim eraser space: one (G, 24, 24) stack would
    # take 176 MiB; chunks keep the walk to a few MiB besides the output.
    grid = [i * 2.0 * math.pi / 20_000 for i in range(20_000)]
    family = dsl.sweep_template(load("eraser_phase.mzx"), "phi")
    tracemalloc.start()
    try:
        result = sweep(family, "phi", grid, given=matches(abs="yes"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(result.visibility - 1.0) <= 1e-12
    assert peak < 64 * 2**20


def loop_total(probs):
    """The left-to-right sum of `probs` from 0.0."""
    return reduce(add, probs, 0.0)


def loop_marginal(dist, of):
    """`marginal` as a left-to-right loop over the leaves: the reference
    for its `np.bincount` sums."""
    return loop_total(prob for record, prob in zip(dist.records, dist.probs.tolist())
                      if of(dict(record)))


def loop_conditional(dist, given, of):
    """`conditional` as a left-to-right loop over the leaves."""
    in_given = [(outcomes, prob) for outcomes, prob
                in zip(map(dict, dist.records), dist.probs.tolist()) if given(outcomes)]
    p_given = loop_total(prob for _, prob in in_given)
    if p_given == 0.0:
        raise exp.ZeroProbabilityEventError("conditioning event has zero probability")
    return loop_total(prob for outcomes, prob in in_given if of(outcomes)) / p_given


def hex_or_error(function, *args):
    try:
        return function(*args).hex()
    except exp.ZeroProbabilityEventError as exc:
        return type(exc), str(exc)


@st.composite
def readout_chains(draw):
    """2 to 6 which-way readouts, each after a beam splitter and a phase, so
    that a sum adds up to 32 leaves of unequal weight and its order shows."""
    blocks = [f"beamsplitter\nphase {draw(st.sampled_from('AB'))} "
              f"{draw(st.sampled_from(['p', repr(draw(st.floats(-3.0, 3.0)))]))}\nwwreadout\n"
              for _ in range(draw(st.integers(2, 6)))]
    return "source A\nphase B p\n" + "".join(blocks) + "beamsplitter\ndetect\n"


@settings(max_examples=50, deadline=None)
@given(st.one_of(templates(), readout_chains()),
       st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 1.0)),
       st.sampled_from(GIVENS))
def test_marginal_and_conditional_equal_the_loop(text, value, condition):
    dist = exp.run_analytic(dsl.compile(dsl.parse_text(text), {"p": value}))
    condition = matches(**condition) if condition else matches()
    for of in (matches(detector="X"), matches(detector="Y"), condition):
        assert exp.marginal(dist, of).hex() == loop_marginal(dist, of).hex()
        assert (hex_or_error(exp.conditional, dist, condition, of)
                == hex_or_error(loop_conditional, dist, condition, of))
