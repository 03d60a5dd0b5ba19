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
            assert exp._record_key(a) == exp._record_key(b)
            outcomes_a, mats_a = exp._stage_operators(a, built.space)
            outcomes_b, mats_b = exp._stage_operators(b, compiled.space)
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


def test_a_failing_walk_is_not_a_rejected_value(monkeypatch):
    # Only a grid value a swept stage rejects selects the point-by-point
    # loop; an error in the batched walk itself propagates.
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
    ast = dsl.parse_text((ROOT / "tests" / "golden" / "eraser_eta.mzx").read_text())
    grid = [(k + 1) / 1000 for k in range(1000)]
    sweep(dsl.sweep_template(ast, "eta"), "eta", grid)
    assert comp.eraser_kraus.cache_info().currsize <= 256


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
