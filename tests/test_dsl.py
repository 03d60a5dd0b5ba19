import contextlib
import io
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import cli, dsl, experiment as exp
from mzsim.dsl import ParseError, parse, parse_text, pretty_print, tokenize

EXPERIMENT_DIR = Path(__file__).resolve().parent.parent / "experiments"
CORPUS_FILES = sorted(EXPERIMENT_DIR.glob("*.mzx"))

# Valid snippets beyond the shipped files, to stress less common shapes.
EXTRA_VALID = [
    "source B excited\nbeamsplitter\ndetect\n",
    "source A\nphase A -0.25pi\nbeamsplitter\nmirrors\nbeamsplitter\ndetect\n",
    "source A\nbeamsplitter\nwwreadout\nwwreadout\nbeamsplitter\ndetect\n",
    "source A excited\nbeamsplitter\nentangler\neraser open\ndetect\n",
    "source A excited\nbeamsplitter\nentangler\neraser open eta=2.5e-1\ndetect\n",
    "source A excited\nbeamsplitter\nentangler\neraser closed eta=0.9\ndetect\n",
    "# leading comment\n\nsource A  # trailing comment\nbeamsplitter\ndetect\n",
    "source A\nphase B 3\ndetect\n",
]

INVALID_CASES = [
    # (source text, expected line, category, message fragment)
    ("source A\nbeamsplitter\nphase B 0x5\ndetect\n", 3, "lexical", "invalid number"),
    ("source A\n@beamsplitter\ndetect\n", 2, "lexical", "stray character"),
    ("source A\nbeamsplitter\nmirrors\n", 3, "semantic", "detect required"),
    ("source A\ndetect\nbeamsplitter\n", 3, "semantic", "after detect"),
    ("source A\nsplitter\ndetect\n", 2, "syntactic", "unknown directive"),
    ("source A\nphase B\ndetect\n", 2, "syntactic", "expected phase value"),
    ("source A\nphase C 0.5pi\ndetect\n", 2, "syntactic", "path label"),
    ("source Q\ndetect\n", 1, "syntactic", "path label"),
    ("source A\neraser open eta=1.0\ndetect\n", 2, "semantic", "photon register"),
    ("source A\nbeamsplitter\nentangler\nentangler\ndetect\n", 4, "semantic", "at most once"),
    ("source A\nwwreadout\nentangler\ndetect\n", 3, "semantic", "mutually exclusive"),
    ("source A\nsource B\ndetect\n", 2, "semantic", "duplicate source"),
    ("beamsplitter\nsource A\ndetect\n", 1, "semantic", "must start with the source"),
    ("source A\nphase A phi\nphase B theta\ndetect\n", 3, "semantic", "one free parameter"),
    ("source A\nphase B pi\ndetect\n", 2, "semantic", "parameter name"),
    ("source A\neraser sideways\ndetect\n", 2, "syntactic", "open or closed"),
    ("source A excited extra\ndetect\n", 1, "syntactic", "unexpected"),
    ("source A\nbeamsplitter\nentangler\neraser open eta=1.5\ndetect\n", 4, "semantic", "eta"),
    ("source A\nphase B 1e999\ndetect\n", 2, "lexical", "out of range"),
]

#: (source text, exact `str(ParseError)`) for the diagnostics INVALID_CASES
#: does not reach: each message with its line and column.
EXACT_DIAGNOSTICS = [
    ("source\ndetect\n", "1:7: syntactic error: expected path label A or B"),
    ("source A\neraser\ndetect\n", "2:7: syntactic error: expected open or closed"),
    ("source A\nentangler\neraser open eta\ndetect\n", "3:16: syntactic error: expected '='"),
    ("source A\nentangler\neraser open eta=\ndetect\n",
     "3:17: syntactic error: expected eta value or parameter name"),
    ("source A\nentangler\neraser open foo=1\ndetect\n",
     "3:13: syntactic error: expected eta=..., got 'foo'"),
    ("source A\nentangler\neraser open eta 1\ndetect\n",
     "3:17: syntactic error: expected '=' after eta"),
    ("source A\nbeamsplitter now\ndetect\n",
     "2:14: syntactic error: unexpected 'now' at end of directive"),
    ("source A\nphase B =\ndetect\n",
     "2:9: syntactic error: expected phase value or parameter name, got '='"),
    ("source A\nphase B 1 2\ndetect\n", "2:11: syntactic error: unexpected '2' at end of directive"),
    ("open A\n", "1:1: syntactic error: unknown directive 'open'"),
    ("", "1:1: semantic error: source directive required"),
]


class TestTokenize:
    def test_phase_directive(self):
        toks = tokenize("phase B 0.5pi")
        assert [(t.kind, t.text) for t in toks] == \
            [("keyword", "phase"), ("ident", "B"), ("number", "0.5pi")]
        assert toks[2].value == pytest.approx(0.5 * math.pi, abs=0.0)
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[2].line, toks[2].col) == (1, 9)

    def test_comment_only_line_yields_nothing(self):
        assert tokenize("# comment\n") == []
        assert tokenize("  \n\t\n") == []

    def test_invalid_hex_number(self):
        with pytest.raises(ParseError) as err:
            tokenize("phase B 0x5")
        assert err.value.category == "lexical"
        assert err.value.line == 1

    def test_equals_and_negative_exponent(self):
        toks = tokenize("eraser open eta=2.5e-1")
        kinds = [t.kind for t in toks]
        assert kinds == ["keyword", "keyword", "ident", "symbol", "number"]
        assert toks[-1].value == 0.25

    def test_identifier_with_underscore(self):
        toks = tokenize("phase B my_angle")
        assert toks[-1].kind == "ident" and toks[-1].text == "my_angle"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_lines_end_at_universal_newlines_only(self, end):
        toks = tokenize(end.join(["# a\x0bcomment\x85(kept", "source A", "", "detect"]))
        assert [(t.text, t.line, t.col) for t in toks] == \
            [("source", 2, 1), ("A", 2, 8), ("detect", 4, 1)]

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_other_line_separators_are_stray(self, separator):
        with pytest.raises(ParseError) as err:
            tokenize(f"source A\nbeamsplitter{separator}detect\n")
        assert (err.value.category, err.value.line, err.value.col) == ("lexical", 2, 13)


class TestParse:
    def test_baseline_has_source_and_four_stages(self):
        ast = parse_text(CORPUS_FILES[0].read_text())  # baseline.mzx
        stage_nodes = [d for d in ast.directives
                       if not isinstance(d, dsl.SourceDecl)]
        assert len(stage_nodes) == 4
        assert isinstance(stage_nodes[-1], dsl.DetectStage)

    def test_source_line_records_position(self):
        ast = parse(tokenize("# intro\nsource B excited\ndetect\n"))
        assert ast.directives[0] == dsl.SourceDecl("B", True)
        assert ast.directives[0].line == 2

    def test_free_parameters_collected_once(self):
        ast = parse(tokenize("source A\nphase A phi\nphase B phi\ndetect\n"))
        assert ast.free_parameters == ("phi",)

    @pytest.mark.parametrize("src,line,category,fragment", INVALID_CASES)
    def test_invalid_corpus_positions(self, src, line, category, fragment):
        with pytest.raises(ParseError) as err:
            parse_text(src)
        assert err.value.category == category
        assert err.value.line == line
        assert fragment in err.value.message

    @pytest.mark.parametrize("src,text", EXACT_DIAGNOSTICS)
    def test_exact_diagnostics(self, src, text):
        with pytest.raises(ParseError) as err:
            parse_text(src)
        assert str(err.value) == text

    def test_non_finite_binding_diagnostic(self):
        ast = parse_text((EXPERIMENT_DIR / "baseline_phase.mzx").read_text())
        with pytest.raises(ParseError) as err:
            dsl.compile(ast, {"phi": math.inf})
        assert str(err.value) == "4:1: semantic error: phase must be finite, got inf"

    def test_sweep_of_a_parameter_the_file_lacks_diagnostic(self):
        ast = parse_text((EXPERIMENT_DIR / "baseline_phase.mzx").read_text())
        with pytest.raises(ParseError) as err:
            dsl.sweep_template(ast, "theta")
        assert str(err.value) == ("1:1: semantic error: parameter 'theta' is not a free "
                                  "parameter of this file (free: ['phi'])")

    def test_invalid_corpus_is_large_enough(self):
        assert len(INVALID_CASES) >= 10


class TestRoundTrip:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
    def test_shipped_files_round_trip(self, path):
        ast = parse_text(path.read_text())
        again = parse_text(pretty_print(ast))
        assert again == ast

    @pytest.mark.parametrize("src", EXTRA_VALID)
    def test_extra_snippets_round_trip(self, src):
        ast = parse_text(src)
        again = parse_text(pretty_print(ast))
        assert again == ast

    def test_corpus_size(self):
        assert len(CORPUS_FILES) + len(EXTRA_VALID) >= 12
        assert len(CORPUS_FILES) >= 12


class TestCompile:
    def test_baseline_two_dimensional(self):
        pipeline = dsl.compile(parse_text((EXPERIMENT_DIR / "baseline.mzx").read_text()))
        assert pipeline.space.dim == 2
        dist = exp.run_analytic(pipeline)
        assert abs(exp.marginal(dist, exp.matches(detector="X")) - 1.0) <= 1e-12

    def test_entangler_twelve_dimensional(self):
        pipeline = dsl.compile(parse_text((EXPERIMENT_DIR / "entangler.mzx").read_text()))
        assert pipeline.space.dim == 12
        dist = exp.run_analytic(pipeline)
        assert abs(exp.marginal(dist, exp.matches(detector="X")) - 0.5) <= 1e-12

    def test_eraser_twenty_four_dimensional(self):
        pipeline = dsl.compile(parse_text((EXPERIMENT_DIR / "eraser.mzx").read_text()))
        assert pipeline.space.dim == 24
        dist = exp.run_analytic(pipeline)
        assert abs(exp.conditional(dist, exp.matches(abs="yes"),
                                   exp.matches(detector="X")) - 1.0) <= 1e-12

    def test_closed_eraser_keeps_the_register_but_not_the_stage(self):
        pipeline = dsl.compile(parse_text((EXPERIMENT_DIR / "eraser_closed.mzx").read_text()))
        assert pipeline.space.dim == 24
        assert not any(isinstance(s, exp.GeneralizedMeasure) for s in pipeline.stages)

    def test_source_b_feeds_y(self):
        pipeline = dsl.compile(parse_text((EXPERIMENT_DIR / "source_b.mzx").read_text()))
        dist = exp.run_analytic(pipeline)
        assert abs(exp.marginal(dist, exp.matches(detector="Y")) - 1.0) <= 1e-12

    def test_phase_binding(self):
        ast = parse_text((EXPERIMENT_DIR / "baseline_phase.mzx").read_text())
        dist = exp.run_analytic(dsl.compile(ast, {"phi": math.pi}))
        assert abs(exp.marginal(dist, exp.matches(detector="Y")) - 1.0) <= 1e-12

    def test_unbound_parameter_rejected(self):
        ast = parse_text((EXPERIMENT_DIR / "baseline_phase.mzx").read_text())
        with pytest.raises(ParseError, match="unbound"):
            dsl.compile(ast)

    def test_unknown_binding_rejected(self):
        ast = parse_text((EXPERIMENT_DIR / "baseline.mzx").read_text())
        with pytest.raises(ParseError, match="unknown parameter"):
            dsl.compile(ast, {"psi_angle": 1.0})

    def test_non_finite_binding_rejected(self):
        ast = parse_text((EXPERIMENT_DIR / "baseline_phase.mzx").read_text())
        with pytest.raises(ParseError, match="finite"):
            dsl.compile(ast, {"phi": math.inf})

    def test_compile_is_deterministic(self):
        ast = parse_text((EXPERIMENT_DIR / "eraser_phase.mzx").read_text())
        d1 = exp.run_analytic(dsl.compile(ast, {"phi": 0.7}))
        d2 = exp.run_analytic(dsl.compile(ast, {"phi": 0.7}))
        t1 = {b.record: b.prob for b in d1.branches}
        t2 = {b.record: b.prob for b in d2.branches}
        assert t1 == t2

    def test_sweep_template_rejects_bound_parameter(self):
        ast = parse_text((EXPERIMENT_DIR / "phase_half_pi.mzx").read_text())
        with pytest.raises(ParseError, match="not a free parameter"):
            dsl.sweep_template(ast, "phi")

    def test_sweep_template_builds_pipelines(self):
        ast = parse_text((EXPERIMENT_DIR / "baseline_phase.mzx").read_text())
        build = dsl.sweep_template(ast, "phi")
        grid = [k * 2.0 * math.pi / 16 for k in range(16)]
        result = exp.sweep(build, "phi", grid)
        assert abs(result.visibility - 1.0) <= 1e-10

    @pytest.mark.parametrize("src", [
        "source A\nphase A phi\nbeamsplitter\nmirrors\n",
        "source A\nsource B\nphase A phi\nbeamsplitter\ndetect\n",
        "source A\nphase A phi\nwwreadout\nentangler\ndetect\n",
    ])
    def test_compile_and_sweep_template_validate_a_parsed_ast(self, src):
        ast = parse(tokenize(src))
        want = dsl.validate(ast)[0]
        for build in (lambda: dsl.compile(ast, {"phi": 0.5}),
                      lambda: dsl.sweep_template(ast, "phi")):
            with pytest.raises(ParseError) as exc:
                build()
            assert (exc.value.line, exc.value.message) == (want.line, want.message)
        assert not ast.validated

    def test_parse_text_validates_once(self, monkeypatch):
        calls = []
        check = dsl.validate
        monkeypatch.setattr(dsl, "validate", lambda ast: calls.append(ast) or check(ast))
        ast = parse_text((EXPERIMENT_DIR / "eraser_phase.mzx").read_text())
        dsl.compile(ast, {"phi": 0.5})
        dsl.sweep_template(ast, "phi")
        assert calls == [ast] and ast.validated
        fresh = parse(tokenize((EXPERIMENT_DIR / "eraser_phase.mzx").read_text()))
        assert fresh == ast and not fresh.validated

    def test_validate_collects_multiple_problems(self):
        src = "source A\nsource B\neraser open\nmirrors\n"
        problems = dsl.validate(parse(tokenize(src)))
        assert len(problems) >= 3
        assert all(isinstance(p, ParseError) for p in problems)

    def test_extra_parameters_name_the_files_first(self):
        # One diagnostic per new parameter, each naming the file's first
        # parameter, not the alphabetically first one seen so far.
        src = "source A\nphase A zeta\nphase B theta\nphase A alpha\nphase B theta\ndetect\n"
        problems = dsl.validate(parse(tokenize(src)))
        assert [(p.line, p.message) for p in problems] == [
            (3, "at most one free parameter allowed (already have 'zeta')"),
            (4, "at most one free parameter allowed (already have 'zeta')")]


#: Characters a mutation inserts: the grammar's own, line and space
#: characters Python's `str.splitlines` treats as line breaks, and any
#: other code point but a surrogate.
MUTATION_CHARS = st.one_of(
    st.sampled_from(list("sourcebeamsplitterphasewwreadoutentanglerdetectABxyz"
                         "0123456789.-+eE=_#pi \t\n\r") +
                    ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\x00", "π", "٣"]),
    st.characters(exclude_categories=("Cs",)))


@st.composite
def mutants(draw):
    """A shipped file with a few characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(CORPUS_FILES)).read_text()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "insert":
            text = text[:at] + draw(MUTATION_CHARS) + text[at:]
        elif how == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(MUTATION_CHARS) + text[at + 1:]
    return text


def text_lines(text):
    """The lines of `text` as an editor or Python's universal-newline
    reading counts them: ended by \\n, \\r\\n or \\r."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@settings(max_examples=600, deadline=None)
@given(mutants())
def test_mutated_files_parse_or_raise_a_placed_parse_error(text):
    # Stricter than 1 <= line <= lines + 1: the place is inside the text,
    # at most one column past the end of its line.
    lines = text_lines(text)
    try:
        parse_text(text)
    except ParseError as exc:
        assert 1 <= exc.line <= len(lines), (exc.line, len(lines))
        assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, (exc.line, exc.col)


def test_mzx_validate_exits_0_or_1_on_mutated_files(tmp_path):
    path = tmp_path / "mutant.mzx"

    @settings(max_examples=300, deadline=None)
    @given(mutants())
    def check(text):
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["validate", str(path)])
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()

    check()
