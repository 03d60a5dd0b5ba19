"""Plain-text experiment description language.

One directive per line (lines end at \\n, \\r\\n or \\r), `#` starts a
comment, blank lines are ignored:

    source A [excited]            initial direction (A = x, B = y)
    beamsplitter                  50/50 beam splitter
    mirrors                       the mirror pair
    phase <A|B> <number|param>    extra phase on one arm (e.g. 0.5pi, phi)
    wwreadout                     projective which-way readout
    entangler                     which-way entangler (adds photon + atom)
    eraser <open|closed> [eta=v]  quantum eraser channel (adds eraser atom)
    detect                        terminal detectors (must be last)

Numbers are decimals with an optional exponent and an optional `pi` suffix
meaning multiplication by pi.  An identifier in a number position names a
parameter that must be bound at compile time; a file may use at most one.

Validation rules: the file starts with exactly one source directive;
detect is required, once, as the final stage; entangler appears at most
once; eraser requires an entangler earlier in the file; wwreadout and
entangler are mutually exclusive.

Each directive kind is one class: its keyword, how the rest of its line
parses, its canonical text, the parameter it names, its record-key prefix
and the stage it compiles to (a phase or an eraser also gives the stack of
its matrices over a sweep's values, from which `swept` builds the stage a
sweep sets).  `DIRECTIVES` maps each keyword to its class, so a new kind
takes one class and one entry there; rules that span several directives go
in `validate`.  `tokenize`, `parse`, `validate` and `pretty_print` call
nothing in `experiment` or `components`.  The stage and stack builders
look the component constructors up on `components` when they run, so a
wrapper set on that module sees every call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import ClassVar, Mapping, NamedTuple

from . import components, experiment, hilbert

_PATH_TO_DIRECTION = {"A": "x", "B": "y"}

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(Exception):
    """Lexical, syntactic, or semantic problem at a source position."""

    def __init__(self, line: int, col: int, message: str, category: str):
        super().__init__(f"{line}:{col}: {category} error: {message}")
        self.line = line
        self.col = col
        self.message = message
        self.category = category


def _lexical(line, col, msg):
    return ParseError(line, col, msg, "lexical")


def _syntactic(line, col, msg):
    return ParseError(line, col, msg, "syntactic")


def _semantic(line, col, msg):
    return ParseError(line, col, msg, "semantic")


class Token(NamedTuple):
    kind: str            # "keyword" | "ident" | "number" | "symbol"
    text: str
    line: int
    col: int
    value: float | None = None


def tokenize(src: str) -> list[Token]:
    """Lex the full source; comments and blank lines produce no tokens.

    Lines end at \\n, \\r\\n or \\r, as an editor and Python's
    universal-newline reading count them.  The other separators that
    `str.splitlines` knows (form feed, \\x85, \\u2028, ...) end no line: a
    comment keeps them and elsewhere they are stray characters, so every
    position names the line a reader sees.
    """
    tokens: list[Token] = []
    lines = src.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch == "#":
                break
            if ch in " \t":
                pos += 1
                continue
            col = pos + 1
            if ch == "=":
                tokens.append(Token("symbol", "=", line_no, col))
                pos += 1
                continue
            m = _NUMBER_RE.match(line, pos)
            if m:
                pos = m.end()
                text = m.group()
                value = float(text)
                if line.startswith("pi", pos):
                    value *= math.pi
                    text += "pi"
                    pos += 2
                if pos < len(line) and (line[pos].isalnum() or line[pos] == "_"):
                    raise _lexical(line_no, pos + 1, f"invalid number {text + line[pos]!r}...")
                if not math.isfinite(value):
                    raise _lexical(line_no, col, f"number {text!r} out of range")
                tokens.append(Token("number", text, line_no, col, value))
                continue
            m = _IDENT_RE.match(line, pos)
            if m:
                text = m.group()
                kind = "keyword" if text in KEYWORDS else "ident"
                tokens.append(Token(kind, text, line_no, col))
                pos = m.end()
                continue
            raise _lexical(line_no, col, f"stray character {ch!r}")
    return tokens


# --- AST: one class per directive kind -------------------------------------

@dataclass(frozen=True)
class _Directive:
    """A directive kind.  `keyword` starts its line and `parse` reads the
    rest of the line; `str` prints the directive back in canonical form.
    A kind that takes a number holds it as a literal `value` or a parameter
    name `param`, and gives its stage's matrices over a grid of values as
    `stack(values)` (as `experiment.SweptStage.stack` is) and the `default`
    value at which `swept` builds its template.  A kind whose outcomes are
    recorded gives its record keys' `record_prefix`: the kind's first stage
    records under the prefix, later ones under prefix2, prefix3, ...
    `stage` is what the directive compiles to, or None for no stage."""

    keyword: ClassVar[str]
    record_prefix: ClassVar[str | None] = None
    value = param = None
    line: int = field(compare=False, default=0, kw_only=True)

    @classmethod
    def parse(cls, p: _LineParser, line: int) -> _Directive:
        return cls(line=line)

    def __str__(self) -> str:
        return self.keyword

    def stage(self, key: str | None, bindings: Mapping[str, float]
              ) -> experiment.Stage | None:
        return None

    def swept(self, key: str | None, parameter: str) -> experiment.SweptStage:
        """This directive over the values of `parameter`; the template is the
        stage at `default`, None if the directive makes no stage."""
        def build(value):
            return self.stage(key, {parameter: value})
        return experiment.SweptStage(build(self.default), build, self.stack)

    def _text(self) -> str:
        return self.param if self.param is not None else repr(self.value)

    def _bound(self, bindings: Mapping[str, float], what: str, default=None) -> float:
        """The directive's number: its parameter's value in `bindings`, else
        its literal, else `default`; it must be finite."""
        value = self.value if self.value is not None else default
        if self.param is not None:
            if self.param not in bindings:
                raise _semantic(self.line, 1, f"unbound parameter {self.param!r}")
            value = bindings[self.param]
        if not math.isfinite(value):
            raise _semantic(self.line, 1, f"{what} must be finite, got {value!r}")
        return float(value)


@dataclass(frozen=True)
class SourceDecl(_Directive):
    keyword = "source"
    label: str           # "A" | "B"
    excited: bool

    @classmethod
    def parse(cls, p, line):
        label = p.dirlabel()
        excited = p.peek() is not None and p.peek().text == "excited"
        if excited:
            p.take("excited")
        return cls(label, excited, line=line)

    def __str__(self):
        return f"source {self.label} excited" if self.excited else f"source {self.label}"


@dataclass(frozen=True)
class BeamSplitterStage(_Directive):
    keyword = "beamsplitter"

    def stage(self, key, bindings):
        return experiment.unitary_on(components.beam_splitter())


@dataclass(frozen=True)
class MirrorsStage(_Directive):
    keyword = "mirrors"

    def stage(self, key, bindings):
        return experiment.unitary_on(components.mirror_pair())


@dataclass(frozen=True)
class PhaseStage(_Directive):
    keyword = "phase"
    default = 0.0
    path: str            # "A" | "B"
    value: float | None
    param: str | None

    @classmethod
    def parse(cls, p, line):
        path = p.dirlabel()
        return cls(path, *p.number_or_param("phase value or parameter name"), line=line)

    def __str__(self):
        return f"phase {self.path} {self._text()}"

    def stage(self, key, bindings):
        return experiment.unitary_on(components.phase_shifter(
            self._bound(bindings, "phase"), _PATH_TO_DIRECTION[self.path]))

    def stack(self, values):
        return components.phase_shifter_stack(values, _PATH_TO_DIRECTION[self.path])[:, None]


@dataclass(frozen=True)
class WwReadoutStage(_Directive):
    keyword = "wwreadout"
    record_prefix = "ww"

    def stage(self, key, bindings):
        return experiment.ProjectiveMeasure("direction", key, {"x": "A", "y": "B"})


@dataclass(frozen=True)
class EntanglerStage(_Directive):
    keyword = "entangler"

    def stage(self, key, bindings):
        return experiment.unitary_on(components.which_way_entangler())


@dataclass(frozen=True)
class EraserStage(_Directive):
    keyword = "eraser"
    default = 1.0
    open: bool
    value: float | None = None     # eta; None is eta = 1
    param: str | None = None

    @classmethod
    def parse(cls, p, line):
        mode = p.take("open or closed")
        if mode.text not in ("open", "closed"):
            raise _syntactic(mode.line, mode.col, f"expected open or closed, got {mode.text!r}")
        if p.peek() is None:
            return cls(mode.text == "open", line=line)
        name = p.take("eta setting")
        if name.text != "eta":
            raise _syntactic(name.line, name.col, f"expected eta=..., got {name.text!r}")
        eq = p.take("'='")
        if eq.text != "=":
            raise _syntactic(eq.line, eq.col, "expected '=' after eta")
        return cls(mode.text == "open", *p.number_or_param("eta value or parameter name"),
                   line=line)

    def __str__(self):
        text = "eraser open" if self.open else "eraser closed"
        if self.value is None and self.param is None:
            return text
        return f"{text} eta={self._text()}"

    @property
    def record_prefix(self):
        return "abs" if self.open else None

    def stage(self, key, bindings):
        """An open eraser's Kraus stage; a closed one binds and checks its
        eta as an open one does, but makes no stage: the eraser atom idles
        in gamma."""
        try:
            kraus = components.eraser_kraus(self._bound(bindings, "eta", self.default))
        except ValueError as exc:
            raise _semantic(self.line, 1, str(exc)) from None
        if self.open:
            return experiment.GeneralizedMeasure(kraus, ("photon", "eraser"), key)
        return None

    def stack(self, values):
        """An open eraser's Kraus stack; a closed one's only counts the
        values it accepts, as a range of that length."""
        if self.open:
            return components.eraser_kraus_stack(values)
        return range(components.leading_etas(values))


@dataclass(frozen=True)
class DetectStage(_Directive):
    keyword = "detect"

    def stage(self, key, bindings):
        return experiment.Detect()


DIRECTIVES = {kind.keyword: kind for kind in (
    SourceDecl, BeamSplitterStage, MirrorsStage, PhaseStage, WwReadoutStage,
    EntanglerStage, EraserStage, DetectStage)}
KEYWORDS = tuple(DIRECTIVES) + ("open", "closed", "excited")


@dataclass(frozen=True)
class ExperimentAst:
    """A parsed file.  `validated` is set once `validate` has passed on
    this AST (its directives cannot change), so `compile` and
    `sweep_template` do not check an AST from `parse_text` again."""

    directives: tuple[_Directive, ...]
    end_line: int = field(compare=False, default=1)
    validated: bool = field(default=False, init=False, compare=False, repr=False)

    @property
    def free_parameters(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(d.param for d in self.directives if d.param is not None))


class _LineParser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1]
            raise _syntactic(last.line, last.col + len(last.text), f"expected {what}")
        self.pos += 1
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise _syntactic(tok.line, tok.col, f"unexpected {tok.text!r} at end of directive")

    def dirlabel(self) -> str:
        tok = self.take("path label A or B")
        if tok.text not in ("A", "B"):
            raise _syntactic(tok.line, tok.col, f"expected path label A or B, got {tok.text!r}")
        return tok.text

    def number_or_param(self, what: str) -> tuple[float | None, str | None]:
        """(value, None) for a number, (None, name) for a parameter name."""
        tok = self.take(what)
        if tok.kind not in ("number", "ident"):
            raise _syntactic(tok.line, tok.col, f"expected {what}, got {tok.text!r}")
        return (tok.value, None) if tok.kind == "number" else (None, tok.text)


def parse(tokens: list[Token]) -> ExperimentAst:
    """Token list to AST; raises on the first syntactic error."""
    directives = []
    for _, toks in groupby(tokens, key=attrgetter("line")):
        p = _LineParser(list(toks))
        head = p.take("directive")
        kind = DIRECTIVES.get(head.text)
        if kind is None:
            raise _syntactic(head.line, head.col, f"unknown directive {head.text!r}")
        directives.append(kind.parse(p, head.line))
        p.done()
    return ExperimentAst(tuple(directives), end_line=tokens[-1].line if tokens else 1)


def validate(ast: ExperimentAst) -> list[ParseError]:
    """All semantic rule violations, in file order where possible."""
    problems: list[ParseError] = []
    directives = ast.directives

    sources = [d for d in directives if isinstance(d, SourceDecl)]
    if not sources:
        problems.append(_semantic(1, 1, "source directive required"))
    else:
        if not isinstance(directives[0], SourceDecl):
            problems.append(_semantic(directives[0].line, 1,
                                      "file must start with the source directive"))
        for extra in sources[1:]:
            problems.append(_semantic(extra.line, 1, "duplicate source directive"))

    detects = [i for i, d in enumerate(directives) if isinstance(d, DetectStage)]
    if not detects:
        problems.append(_semantic(ast.end_line, 1, "detect required as final stage"))
    else:
        for d in directives[detects[0] + 1:]:
            problems.append(_semantic(d.line, 1, "no directives allowed after detect"))

    entangler_lines = [d.line for d in directives if isinstance(d, EntanglerStage)]
    for line in entangler_lines[1:]:
        problems.append(_semantic(line, 1, "entangler may appear at most once"))

    ww = [d for d in directives if isinstance(d, WwReadoutStage)]
    if ww and entangler_lines:
        line = max(ww[0].line, entangler_lines[0])
        problems.append(_semantic(line, 1, "wwreadout and entangler are mutually exclusive"))

    seen_entangler = False
    for d in directives:
        seen_entangler |= isinstance(d, EntanglerStage)
        if not isinstance(d, EraserStage):
            continue
        if not seen_entangler:
            problems.append(_semantic(d.line, 1,
                                      "eraser requires photon register (add entangler first)"))
        if d.value is not None and not 0.0 < d.value <= 1.0:
            problems.append(_semantic(d.line, 1, f"eta must lie in (0, 1], got {d.value!r}"))

    seen_params: set[str] = set()
    for d in directives:
        cand = d.param
        if cand is None:
            continue
        if cand == "pi":
            problems.append(_semantic(d.line, 1, "'pi' cannot be used as a parameter name"))
        if cand not in seen_params and seen_params:
            problems.append(_semantic(d.line, 1,
                                      "at most one free parameter allowed "
                                      f"(already have {ast.free_parameters[0]!r})"))
        seen_params.add(cand)
    return problems


def _require_valid(ast: ExperimentAst):
    """Raise the first problem `validate` finds, once per AST."""
    if ast.validated:
        return
    problems = validate(ast)
    if problems:
        raise problems[0]
    object.__setattr__(ast, "validated", True)


def parse_text(src: str) -> ExperimentAst:
    """Tokenize, parse, and validate; raises the first error found."""
    ast = parse(tokenize(src))
    _require_valid(ast)
    return ast


def pretty_print(ast: ExperimentAst) -> str:
    """Canonical text form; reparsing it yields a structurally equal AST."""
    return "\n".join(map(str, ast.directives)) + "\n"


def _layout(ast: ExperimentAst) -> tuple[hilbert.SpaceSpec, hilbert.StateVector]:
    """The space a validated AST needs and its initial basis state.

    Both follow from the source's label and whether the file uses the
    entangler and the eraser, so `_layout_of` builds each of the at most 6
    layouts once; the space and the state are immutable, and every pipeline
    of one layout shares them."""
    kinds = set(map(type, ast.directives))
    return _layout_of(ast.directives[0].label, EntanglerStage in kinds, EraserStage in kinds)


@lru_cache(maxsize=None)
def _layout_of(label: str, entangler: bool, eraser: bool
               ) -> tuple[hilbert.SpaceSpec, hilbert.StateVector]:
    space = (components.eraser_space() if eraser else
             components.tagged_space() if entangler else components.direction_space())
    # The source's direction, then photon vac, atom e and eraser gamma as far
    # as the space has those registers.
    labels = (_PATH_TO_DIRECTION[label], "vac", "e", "gamma")[:len(space.names)]
    return space, space.basis_state(labels)


def _stages(ast: ExperimentAst, build) -> tuple:
    """`build(directive, record key)` for each directive in file order,
    less the Nones of directives that make no stage.  A kind's record keys
    are its prefix, then the prefix numbered from 2."""
    counts: dict[str, int] = {}
    stages = []
    for d in ast.directives:
        key = d.record_prefix
        if key is not None:
            counts[key] = n = counts.get(key, 0) + 1
            key += str(n) if n > 1 else ""
        stage = build(d, key)
        if stage is not None:
            stages.append(stage)
    return tuple(stages)


def compile(ast: ExperimentAst, bindings: Mapping[str, float] | None = None
            ) -> experiment.Pipeline:
    """Build the pipeline an AST describes.

    `bindings` must assign a finite value to every free parameter; unknown
    binding names are rejected.
    """
    bindings = dict(bindings or {})
    _require_valid(ast)
    unknown = set(bindings) - set(ast.free_parameters)
    if unknown:
        raise _semantic(1, 1, f"unknown parameter binding(s) {sorted(unknown)}")
    space, initial = _layout(ast)
    return experiment.Pipeline(space, initial, _stages(
        ast, lambda d, key: d.stage(key, bindings)))


def sweep_template(ast: ExperimentAst, parameter: str) -> experiment.PipelineFamily:
    """The pipelines of the AST over its free parameter `parameter`.

    Validates and compiles the AST once.  Calling the result with a value
    returns the pipeline `compile(ast, {parameter: value})` builds (and
    raises what it raises); `experiment.sweep` runs the family over a whole
    grid as one batch, building each stage the parameter sets as one stack
    of matrices.
    """
    free = ast.free_parameters
    if parameter not in free:
        raise _semantic(1, 1, f"parameter {parameter!r} is not a free parameter "
                              f"of this file (free: {list(free) or 'none'})")
    _require_valid(ast)
    space, initial = _layout(ast)
    return experiment.PipelineFamily(space, initial, _stages(
        ast, lambda d, key: d.swept(key, parameter) if d.param == parameter
        else d.stage(key, {})))
