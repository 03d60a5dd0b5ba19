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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from . import components, experiment, hilbert
from .hilbert import space_of

DIRECTIVE_KEYWORDS = ("source", "beamsplitter", "mirrors", "phase",
                      "wwreadout", "entangler", "eraser", "detect")
KEYWORDS = DIRECTIVE_KEYWORDS + ("open", "closed", "excited")

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
            if m and (ch.isdigit() or (ch == "-" and m.end() > pos + 1)):
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


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class SourceDecl:
    label: str           # "A" | "B"
    excited: bool
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BeamSplitterStage:
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class MirrorsStage:
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PhaseStage:
    path: str            # "A" | "B"
    value: float | None
    param: str | None
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class WwReadoutStage:
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class EntanglerStage:
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class EraserStage:
    open: bool
    eta_value: float | None = None
    eta_param: str | None = None
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class DetectStage:
    line: int = field(compare=False, default=0)


Directive = (SourceDecl | BeamSplitterStage | MirrorsStage | PhaseStage |
             WwReadoutStage | EntanglerStage | EraserStage | DetectStage)


def _parameter(d: Directive) -> str | None:
    """The parameter a directive names, if any."""
    return d.param if isinstance(d, PhaseStage) else \
        d.eta_param if isinstance(d, EraserStage) else None


@dataclass(frozen=True)
class ExperimentAst:
    """A parsed file.  `validated` is set once `validate` has passed on
    this AST (its directives cannot change), so `compile` and
    `sweep_template` do not check an AST from `parse_text` again."""

    directives: tuple[Directive, ...]
    end_line: int = field(compare=False, default=1)
    validated: bool = field(default=False, init=False, compare=False, repr=False)

    @property
    def free_parameters(self) -> tuple[str, ...]:
        names: list[str] = []
        for d in self.directives:
            cand = _parameter(d)
            if cand is not None and cand not in names:
                names.append(cand)
        return tuple(names)

    @property
    def uses_entangler(self) -> bool:
        return any(isinstance(d, EntanglerStage) for d in self.directives)

    @property
    def uses_eraser(self) -> bool:
        return any(isinstance(d, EraserStage) for d in self.directives)


def _group_lines(tokens: list[Token]) -> list[list[Token]]:
    lines: list[list[Token]] = []
    for tok in tokens:
        if lines and lines[-1][0].line == tok.line:
            lines[-1].append(tok)
        else:
            lines.append([tok])
    return lines


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

    def dirlabel(self) -> Token:
        tok = self.take("path label A or B")
        if tok.text not in ("A", "B"):
            raise _syntactic(tok.line, tok.col, f"expected path label A or B, got {tok.text!r}")
        return tok

    def number_or_param(self, what: str) -> Token:
        tok = self.take(what)
        if tok.kind not in ("number", "ident"):
            raise _syntactic(tok.line, tok.col, f"expected {what}, got {tok.text!r}")
        return tok


def parse(tokens: list[Token]) -> ExperimentAst:
    """Token list to AST; raises on the first syntactic error."""
    directives: list[Directive] = []
    end_line = 1
    for toks in _group_lines(tokens):
        head = toks[0]
        end_line = head.line
        p = _LineParser(toks)
        p.take("directive")
        if head.kind != "keyword" or head.text not in DIRECTIVE_KEYWORDS:
            raise _syntactic(head.line, head.col, f"unknown directive {head.text!r}")

        if head.text == "source":
            label = p.dirlabel()
            excited = False
            nxt = p.peek()
            if nxt is not None and nxt.text == "excited":
                p.take("excited")
                excited = True
            p.done()
            directives.append(SourceDecl(label.text, excited, line=head.line))
        elif head.text == "phase":
            label = p.dirlabel()
            arg = p.number_or_param("phase value or parameter name")
            p.done()
            if arg.kind == "number":
                directives.append(PhaseStage(label.text, arg.value, None, line=head.line))
            else:
                directives.append(PhaseStage(label.text, None, arg.text, line=head.line))
        elif head.text == "eraser":
            mode = p.take("open or closed")
            if mode.text not in ("open", "closed"):
                raise _syntactic(mode.line, mode.col,
                                 f"expected open or closed, got {mode.text!r}")
            eta_value, eta_param = None, None
            if p.peek() is not None:
                name = p.take("eta setting")
                if name.text != "eta":
                    raise _syntactic(name.line, name.col,
                                     f"expected eta=..., got {name.text!r}")
                eq = p.take("'='")
                if eq.text != "=":
                    raise _syntactic(eq.line, eq.col, "expected '=' after eta")
                arg = p.number_or_param("eta value or parameter name")
                if arg.kind == "number":
                    eta_value = arg.value
                else:
                    eta_param = arg.text
            p.done()
            directives.append(EraserStage(mode.text == "open", eta_value,
                                          eta_param, line=head.line))
        else:
            p.done()
            simple = {"beamsplitter": BeamSplitterStage, "mirrors": MirrorsStage,
                      "wwreadout": WwReadoutStage, "entangler": EntanglerStage,
                      "detect": DetectStage}
            directives.append(simple[head.text](line=head.line))
    return ExperimentAst(tuple(directives), end_line=max(end_line, 1))


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
        if isinstance(d, EntanglerStage):
            seen_entangler = True
        if isinstance(d, EraserStage) and not seen_entangler:
            problems.append(_semantic(d.line, 1,
                                      "eraser requires photon register (add entangler first)"))
        if isinstance(d, EraserStage) and d.eta_value is not None \
                and not 0.0 < d.eta_value <= 1.0:
            problems.append(_semantic(d.line, 1,
                                      f"eta must lie in (0, 1], got {d.eta_value!r}"))

    seen_params: set[str] = set()
    for d in directives:
        cand = _parameter(d)
        if cand is None:
            continue
        if cand == "pi":
            problems.append(_semantic(d.line, 1, "'pi' cannot be used as a parameter name"))
        if cand not in seen_params and seen_params:
            problems.append(_semantic(d.line, 1,
                                      "at most one free parameter allowed "
                                      f"(already have {sorted(seen_params)[0]!r})"))
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


def _fmt_number(value: float) -> str:
    return repr(value)


def pretty_print(ast: ExperimentAst) -> str:
    """Canonical text form; reparsing it yields a structurally equal AST."""
    lines = []
    for d in ast.directives:
        if isinstance(d, SourceDecl):
            lines.append(f"source {d.label} excited" if d.excited else f"source {d.label}")
        elif isinstance(d, BeamSplitterStage):
            lines.append("beamsplitter")
        elif isinstance(d, MirrorsStage):
            lines.append("mirrors")
        elif isinstance(d, PhaseStage):
            arg = d.param if d.param is not None else _fmt_number(d.value)
            lines.append(f"phase {d.path} {arg}")
        elif isinstance(d, WwReadoutStage):
            lines.append("wwreadout")
        elif isinstance(d, EntanglerStage):
            lines.append("entangler")
        elif isinstance(d, EraserStage):
            text = "eraser open" if d.open else "eraser closed"
            if d.eta_param is not None:
                text += f" eta={d.eta_param}"
            elif d.eta_value is not None:
                text += f" eta={_fmt_number(d.eta_value)}"
            lines.append(text)
        elif isinstance(d, DetectStage):
            lines.append("detect")
    return "\n".join(lines) + "\n"


_PATH_TO_DIRECTION = {"A": "x", "B": "y"}


def _layout(ast: ExperimentAst) -> tuple[hilbert.SpaceSpec, hilbert.StateVector]:
    """The space a validated AST needs and its initial basis state.

    Both follow from the source's label and whether the file uses the
    entangler and the eraser, so `_layout_of` builds each of the at most 8
    layouts once; the space and the state are immutable, and every pipeline
    of one layout shares them."""
    source = next(d for d in ast.directives if isinstance(d, SourceDecl))
    return _layout_of(source.label, ast.uses_entangler, ast.uses_eraser)


@lru_cache(maxsize=None)
def _layout_of(label: str, entangler: bool, eraser: bool
               ) -> tuple[hilbert.SpaceSpec, hilbert.StateVector]:
    subsystems = [hilbert.direction()]
    labels = {"direction": _PATH_TO_DIRECTION[label]}
    if entangler:
        subsystems += [hilbert.photon(), hilbert.atom()]
        labels.update(photon="vac", atom="e")
    if eraser:
        subsystems.append(hilbert.eraser())
        labels["eraser"] = "gamma"
    space = space_of(*subsystems)
    return space, space.basis_state(labels)


def _stage_directives(ast: ExperimentAst) -> list[tuple[Directive, str | None]]:
    """(directive, record key) for every directive that makes a stage."""
    out: list[tuple[Directive, str | None]] = []
    ww_count = abs_count = 0
    for d in ast.directives:
        key = None
        if isinstance(d, SourceDecl):
            continue
        if isinstance(d, EraserStage):
            if not d.open:
                continue  # closed channel: the eraser atom idles in gamma
            abs_count += 1
            key = "abs" if abs_count == 1 else f"abs{abs_count}"
        elif isinstance(d, WwReadoutStage):
            ww_count += 1
            key = "ww" if ww_count == 1 else f"ww{ww_count}"
        out.append((d, key))
    return out


def _stage(d: Directive, key: str | None, bindings: Mapping[str, float]
           ) -> experiment.Stage:
    """The stage of one directive, its parameter taken from `bindings`."""
    def resolve(value, what) -> float:
        param = _parameter(d)
        if param is not None:
            if param not in bindings:
                raise _semantic(d.line, 1, f"unbound parameter {param!r}")
            value = bindings[param]
        if not math.isfinite(value):
            raise _semantic(d.line, 1, f"{what} must be finite, got {value!r}")
        return float(value)

    if isinstance(d, BeamSplitterStage):
        return experiment.unitary_on(components.beam_splitter())
    if isinstance(d, MirrorsStage):
        return experiment.unitary_on(components.mirror_pair())
    if isinstance(d, PhaseStage):
        phi = resolve(d.value, "phase")
        return experiment.unitary_on(components.phase_shifter(phi, _PATH_TO_DIRECTION[d.path]))
    if isinstance(d, WwReadoutStage):
        return experiment.ProjectiveMeasure("direction", key, {"x": "A", "y": "B"})
    if isinstance(d, EntanglerStage):
        return experiment.unitary_on(components.which_way_entangler())
    if isinstance(d, EraserStage):
        eta = resolve(d.eta_value if d.eta_value is not None else 1.0, "eta")
        try:
            kraus = components.eraser_kraus(eta)
        except ValueError as exc:
            raise _semantic(d.line, 1, str(exc)) from None
        return experiment.GeneralizedMeasure(kraus, ("photon", "eraser"), key)
    return experiment.Detect()


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
    return experiment.Pipeline(space, initial, tuple(
        _stage(d, key, bindings) for d, key in _stage_directives(ast)))


def _swept_stage(d: Directive, key: str | None, parameter: str) -> experiment.SweptStage:
    """A phase or open-eraser directive that names `parameter`, as a swept
    stage; its template is the stage at phase 0 or eta 1, which every file
    accepts."""
    def build(value: float) -> experiment.Stage:
        return _stage(d, key, {parameter: value})

    if isinstance(d, PhaseStage):
        path = _PATH_TO_DIRECTION[d.path]
        return experiment.SweptStage(
            build(0.0), build,
            lambda values: (components.phase_shifter_stack(values, path),))

    def stack(values):
        # One Kraus pair per value, so a bad eta raises where `build` would.
        pairs = [build(v).kraus for v in values.tolist()]
        return (np.stack([p.k_abs.matrix for p in pairs]),
                np.stack([p.k_noabs.matrix for p in pairs]))
    return experiment.SweptStage(build(1.0), build, stack)


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
    return experiment.PipelineFamily(space, initial, tuple(
        _swept_stage(d, key, parameter) if _parameter(d) == parameter
        else _stage(d, key, {}) for d, key in _stage_directives(ast)))
