"""Batched sweeps of a `PipelineFamily` against the point-by-point loop.

`sweep` runs a family from `dsl.sweep_template` as a batch and any other
callable point by point; the batch must give the same points, value for
value and type for type, and raise the same errors.
"""

import math
import tracemalloc
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

    def forbidden(*args, **kwargs):
        raise AssertionError("called per point")

    monkeypatch.setattr(dsl, "compile", forbidden)
    monkeypatch.setattr(exp, "run_analytic", forbidden)
    monkeypatch.setattr(exp, "_branch_tree", forbidden)
    result = sweep(family, "phi", [0.0, 1.0, math.pi], given=matches(abs="yes"))
    assert abs(result.visibility - 1.0) <= 1e-12


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
    for name in PHASE_FILES:
        batched, reference = both(load(name), "phi", grid, condition)
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
