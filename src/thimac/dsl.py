"""The textual model language: parser, canonical serializer, DOT export.

One document describes one static model plus its declared events and
chronologies.  The format is line-oriented and deliberately small:

.. code-block:: text

    # comments run to end of line
    thimac librarian {
      thimac request { create; release; transfer; }
    }
    thimac system {
      thimac request { transfer; receive; process as triage; }
    }
    flow librarian.request.create -> librarian.request.release anchor 1;
    flow librarian.request.transfer -> system.request.transfer
        carries "access request" anchor 2;
    trigger system.request.process => librarian.request.create;
    event request_granted { region [system.request.receive,
                                    system.request.process] time 0..2 }
    behavior main { request_granted -> request_granted_next; }

Names are ASCII letters, digits and underscores, not starting with a
digit.  Numbers (anchors, ticks) are runs of decimal digits: any Unicode
decimal digit counts, so ``٣`` reads as 3, while digit-like characters
that are not decimal, such as ``²``, are unexpected characters.

Two readers share the work.  The statement reader matches one regular
expression per whole statement; it takes well-formed documents (blanks
anywhere a token boundary allows them, comments only between statements,
labels without escapes) and declines anything else.  It declares names,
stages, thimacs and time intervals through the token parser's own
methods, which check reserved words, record source positions and turn
model errors into diagnostics, and it hands over on the first diagnostic
they make.  The token parser then reads the document from the start, a
token at a time as the lexer yields them, so every parse diagnostic
comes from it alone.  Both fill the same pending flows, events and
behaviors, which one late resolution step turns into the result, so a
document reads the same whichever reader takes it.

Parsing never raises for bad input: every problem becomes a
ParseDiagnostic with a 1-based line and column, and a document with any
error yields no model.  A broken statement is reported once and skipped
past its stop token: ``}`` for thimac, event and behavior blocks, ``;``
or ``}`` for flows and triggers.  Inside a block, a broken stage line or
behavior edge is skipped past ``;`` or ``}`` (a ``}`` closes the block),
and a nested thimac without ``{`` past the next ``}``; a stage with a bad
alias is still declared, without one.  A missing ``;`` is reported
without skipping anything.

Serialization is canonical (stages in kind order, flows by anchor then
declaration), so parse-serialize-parse is the identity on models and
re-serialization is byte-stable.  Both renderings, the canonical text and
DOT, build their lines lazily and can write them to a stream a chunk at a
time, so an export never holds its whole text.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, NamedTuple, NoReturn

from . import events as events_mod
from .model import _KINDS, KIND_ORDER, ModelError, StaticModel, _Record
from .model import anchor_order, new_model, reachable
from .events import BehaviorModel, EventDef, TimeSubthimac

STRUCTURE_KEYWORDS = {
    "thimac",
    "flow",
    "trigger",
    "event",
    "behavior",
    "region",
    "time",
    "carries",
    "anchor",
    "as",
}
#: Reserved words: the five generic actions plus the structural keywords.
RESERVED_WORDS = frozenset(_KINDS) | frozenset(STRUCTURE_KEYWORDS)


class SourceDocument(NamedTuple):
    text: str
    path: str = "<string>"


class ParseDiagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str
    line: int
    column: int

    def render(self, path: str = "<string>") -> str:
        return f"{path}:{self.line}:{self.column}: {self.severity}: {self.message}"


class ParseResult(_Record):
    """Everything one document declares; ``model`` is None on any error.

    ``event_lines`` gives each event's declaration line, by id;
    ``edge_lines`` each behavior's edges' lines, by behavior name, then
    ``(predecessor, successor)``.
    """

    __slots__ = _fields = ("model", "events", "behaviors", "diagnostics",
                           "event_lines", "edge_lines")

    def __init__(self, model: StaticModel | None, events: list[EventDef] | None = None,
                 behaviors: dict[str, BehaviorModel] | None = None,
                 diagnostics: list[ParseDiagnostic] | None = None,
                 event_lines: dict[str, int] | None = None,
                 edge_lines: dict[str, dict[tuple[str, str], int]] | None = None):
        self.model = model
        self.events = [] if events is None else events
        self.behaviors = {} if behaviors is None else behaviors
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.event_lines = {} if event_lines is None else event_lines
        self.edge_lines = {} if edge_lines is None else edge_lines

    @property
    def ok(self) -> bool:
        return self.model is not None


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "eof" | the punctuation itself
    value: str
    line: int
    column: int

    @property
    def shown(self) -> str:
        return self.value or self.kind


# Each match in a line: blanks, then a token, a bad character, a comment or
# the line's end.  A backslash in a string escapes only '"' and '\'.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*(?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>\d+)
    | (?P<string>"(?P<body>(?:[^"\\]+|\\["\\]?)*)(?P<closed>")?)
    | (?P<punct>->|=>|\.\.|[{}\[\];,.])
    | \#.* | $
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokens(text: str, diags: list[ParseDiagnostic]) -> Iterator[_Token]:
    """Yield the tokens of ``text``, an eof token last, a line at a time;
    each lexical diagnostic goes to ``diags`` as its line is read."""
    new = tuple.__new__  # skips _Token's own __new__
    lineno, start, size = 1, 0, len(text)
    while True:
        # lines end at "\n" alone, not as splitlines() has it: "\x0b", "\x85"
        # and others are unexpected characters
        end = text.find("\n", start)
        if end < 0:
            end = size
        for m in _TOKEN_RE.finditer(text, start, end):
            kind = m.lastgroup
            if kind is None:
                continue  # a comment or the blanks ending the line
            column = m.start(kind) - start + 1
            if kind == "string":
                if m["closed"] is None:
                    message = "unterminated string"
                    diags.append(ParseDiagnostic("error", message, lineno, column))
                body = m["body"]
                body = _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body
                yield new(_Token, ("string", body, lineno, column))
            elif kind == "bad":
                message = f"unexpected character {m[kind]!r}"
                diags.append(ParseDiagnostic("error", message, lineno, column))
            else:
                word = m[kind]
                yield new(_Token, (word if kind == "punct" else kind, word, lineno, column))
        if end == size:
            break
        lineno, start = lineno + 1, end + 1
    yield new(_Token, ("eof", "", lineno, end - start + 1))


class _PendingArrow(NamedTuple):
    """A flow or a trigger, resolved once every thimac is declared."""

    keyword: _Token  # "flow" or "trigger"; also where diagnostics point
    src: str
    dst: str
    carries: str | None
    anchor: int | None


class _Skip(Exception):
    """A statement is broken; its diagnostic is already recorded."""


class _Parser:
    def __init__(self):
        self.diags: list[ParseDiagnostic] = []
        self.model = new_model()
        self.arrows: list[_PendingArrow] = []
        # (name, stage refs, time) and (name, [(predecessor, successor)])
        self.events: list[tuple[_Token, list[str], TimeSubthimac | None]] = []
        self.behaviors: list[tuple[_Token, list[tuple[_Token, _Token]]]] = []
        # see ParseResult.event_lines and .edge_lines
        self.event_lines: dict[str, int] = {}
        self.edge_lines: dict[str, dict[tuple[str, str], int]] = {}

    # -- token plumbing -------------------------------------------------

    def advance(self) -> _Token:
        tok = self.tok
        if tok.kind != "eof":
            self.tok = next(self.toks)
        return tok

    def error(self, message: str, tok: _Token | None = None) -> None:
        tok = tok or self.tok
        self.diags.append(ParseDiagnostic("error", message, tok.line, tok.column))

    def fail(self, message: str, tok: _Token | None = None) -> NoReturn:
        """Report ``message`` and abandon the statement being read."""
        self.error(message, tok)
        raise _Skip

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.tok
        if tok.kind == kind:  # never "eof", so step past it
            self.tok = next(self.toks)
            return tok
        self.fail(f"expected {what}, found {tok.shown!r}")

    def end(self) -> None:
        """A statement's closing ';': reported when missing, never skipped to."""
        try:  # not contextlib.suppress: this runs once per statement
            self.expect(";", "';'")
        except _Skip:
            pass

    def sync(self, *stops: str) -> bool:
        """Skip to just past one of ``stops``; True iff that was a '}'."""
        while True:
            tok = self.tok
            if tok.kind == "eof":
                return False
            self.advance()
            if tok.kind in stops:
                return tok.kind == "}"

    # -- grammar ---------------------------------------------------------

    def parse_document(self, toks: Iterator[_Token]) -> None:
        """Read the document ``toks`` streams, a token at a time."""
        self.toks = toks
        self.tok = next(toks)  # the token being looked at
        # each statement's parser and the tokens a broken one is skipped past
        statements = {
            "thimac": (self.parse_thimac, ("}",)),
            "flow": (self.parse_arrow, (";", "}")),
            "trigger": (self.parse_arrow, (";", "}")),
            "event": (self.parse_event, ("}",)),
            "behavior": (self.parse_behavior, ("}",)),
        }
        while self.tok.kind != "eof":
            tok = self.tok
            if tok.kind == "ident" and tok.value in statements:
                parse_statement, stops = statements[tok.value]
                try:
                    parse_statement()
                except _Skip:
                    self.sync(*stops)
            else:
                self.error(
                    f"expected thimac, flow, trigger, event, or behavior, "
                    f"found {tok.shown!r}"
                )
                self.sync(";", "}")

    def parse_name(self, what: str) -> _Token:
        return self.named(self.expect("ident", what), what)

    # -- declarations, shared with the statement reader and resolve -------

    def named(self, tok: _Token, what: str) -> _Token:
        """``tok`` if it may name a ``what``; a reserved word fails."""
        if tok.value in RESERVED_WORDS:
            article = "an" if what[0] in "aeiou" else "a"
            self.fail(f"{tok.value!r} is a reserved word and cannot name {article} {what}", tok)
        return tok

    def declare(self, add, tok: _Token, *args) -> str | None:
        """Call a model ``add_*``: the new entity's origin is ``tok``'s line,
        and a ModelError is a diagnostic at ``tok``; returns the id, or None."""
        try:
            eid = add(*args)
        except ModelError as exc:
            self.error(str(exc), tok)
            return None
        self.model.origin[eid] = tok.line
        return eid

    def interval(self, lo: _Token, hi: _Token) -> TimeSubthimac | None:
        """``time lo..hi``, or None with the bad interval reported at ``lo``."""
        try:
            return TimeSubthimac(int(lo.value), int(hi.value))
        except ValueError as exc:
            self.error(str(exc), lo)
            return None

    def parse_thimac(self) -> None:
        """A top-level thimac block with everything nested inside it.

        ``blocks`` holds the open blocks, innermost last, as (keyword,
        thimac id); the id is None when the block could not be built, and
        nothing inside such a block is built either.
        """
        blocks: list[tuple[_Token, str | None]] = []
        self.open_thimac(blocks)
        while blocks:
            kw, tid = blocks[-1]
            tok = self.tok
            if tok.kind == "}":
                self.advance()
                blocks.pop()
            elif tok.kind == "eof":
                self.error("unclosed thimac block (missing '}')", kw)
                blocks.pop()
            elif tok.kind == "ident" and tok.value == "thimac":
                try:
                    self.open_thimac(blocks)
                except _Skip:  # no '{': skip past the next '}', maybe the enclosing one
                    self.sync("}")
            else:
                try:
                    if not (tok.kind == "ident" and tok.value in _KINDS):
                        self.fail(
                            f"{tok.shown!r} is not a generic action (expected create, "
                            "process, release, transfer, or receive)"
                        )
                    self.parse_stage(tid)
                except _Skip:  # skip the stage line; a '}' also ends the block
                    if self.sync(";", "}"):
                        blocks.pop()

    def open_thimac(self, blocks: list[tuple[_Token, str | None]]) -> None:
        """Read ``thimac NAME {`` and push the block it opens."""
        kw = self.advance()  # "thimac"
        parent = blocks[-1][1] if blocks else None
        tid: str | None = None
        try:
            name = self.parse_name("thimac")
            if parent is not None or not blocks:
                tid = self.declare(self.model.add_thimac, name, name.value, parent)
        except _Skip:
            pass  # a bad name still opens a block, which builds nothing
        self.expect("{", "'{'")
        blocks.append((kw, tid))

    def parse_stage(self, owner: str | None) -> None:
        """A stage line; one with a bad alias still declares its stage."""
        kw = self.advance()
        alias: str | None = None
        try:
            if self.tok.kind == "ident" and self.tok.value == "as":
                self.advance()
                alias = self.parse_name("stage alias").value
            self.end()
        finally:
            if owner is not None:
                self.declare(self.model.add_stage, kw, owner, _KINDS[kw.value], alias)

    def parse_stage_ref(self) -> str:
        """Collect a dotted reference; returns its text, resolution later."""
        first = self.expect("ident", "a stage reference")
        parts = [first.value]
        while self.tok.kind == ".":
            self.advance()
            parts.append(self.expect("ident", "a name after '.'").value)
        if len(parts) < 2:
            self.fail("a stage reference needs a thimac path and a stage", first)
        return ".".join(parts)

    def parse_arrow(self) -> None:
        """``flow A -> B [carries "..."] [anchor N];`` or ``trigger A => B;``."""
        kw = self.advance()
        arrow = "->" if kw.value == "flow" else "=>"
        src = self.parse_stage_ref()
        self.expect(arrow, f"'{arrow}'")
        dst = self.parse_stage_ref()
        carries: str | None = None
        anchor: int | None = None
        while (
            kw.value == "flow"
            and self.tok.kind == "ident"
            and self.tok.value in ("carries", "anchor")
        ):
            if self.advance().value == "carries":
                carries = self.expect("string", "a quoted thing label").value
            else:
                anchor = int(self.expect("int", "an anchor number").value)
        self.end()
        self.arrows.append(_PendingArrow(kw, src, dst, carries, anchor))

    def parse_event(self) -> None:
        self.advance()
        name = self.parse_name("event")
        self.expect("{", "'{'")
        tok = self.tok
        if not (tok.kind == "ident" and tok.value == "region"):
            self.fail("an event block starts with 'region'")
        self.advance()
        self.expect("[", "'['")
        refs = [self.parse_stage_ref()]
        while self.tok.kind == ",":
            self.advance()
            refs.append(self.parse_stage_ref())
        self.expect("]", "']'")
        time: TimeSubthimac | None = None
        tok = self.tok
        if tok.kind == "ident" and tok.value == "time":
            self.advance()
            lo = self.expect("int", "a start tick")
            self.expect("..", "'..'")
            time = self.interval(lo, self.expect("int", "an end tick"))
        self.expect("}", "'}'")
        self.events.append((name, refs, time))

    def parse_behavior(self) -> None:
        kw = self.advance()
        name = self.parse_name("behavior")
        self.expect("{", "'{'")
        edges: list[tuple[_Token, _Token]] = []
        while True:
            tok = self.tok
            if tok.kind == "}":
                self.advance()
                break
            if tok.kind == "eof":
                self.fail("unclosed behavior block (missing '}')", kw)
            try:
                pred = self.expect("ident", "an event name")
                self.expect("->", "'->'")
                succ = self.expect("ident", "an event name")
            except _Skip:  # skip this edge; a '}' also ends the block
                if self.sync(";", "}"):
                    break
            else:
                self.end()
                edges.append((pred, succ))
        self.behaviors.append((name, edges))

    # -- late resolution ---------------------------------------------------

    def resolve(self) -> tuple[list[EventDef], dict[str, BehaviorModel]]:
        model = self.model
        # Every flow before every trigger, each kind in declaration order:
        # popped from the end, each pending arrow is freed once declared.
        arrows, self.arrows = self.arrows, []
        arrows.reverse()
        arrows.sort(key=lambda arrow: arrow.keyword.value == "flow")
        while arrows:
            kw, src_ref, dst_ref, carries, anchor = arrows.pop()
            src = model.resolve_stage_ref(src_ref)
            dst = model.resolve_stage_ref(dst_ref)
            if src is None or dst is None:
                missing = src_ref if src is None else dst_ref
                self.error(f"unknown stage reference {missing!r}", kw)
            elif kw.value == "flow":
                self.declare(model.add_flow, kw, src, dst, carries, anchor)
            else:
                self.declare(model.add_trigger, kw, src, dst)

        defined: dict[str, EventDef] = {}
        for name, refs, time in self.events:
            if name.value in defined:
                self.error(f"event {name.value!r} is already declared", name)
                continue
            sids = [model.resolve_stage_ref(ref) for ref in refs]
            for ref, sid in zip(refs, sids):
                if sid is None:
                    self.error(f"unknown stage reference {ref!r}", name)
            if None in sids:
                continue
            try:
                ev = events_mod.define_event(model, name.value, sids, time)
            except (events_mod.EventError, ModelError) as exc:
                self.error(str(exc), name)
                continue
            defined[ev.id] = ev
            self.event_lines[ev.id] = name.line

        behaviors: dict[str, BehaviorModel] = {}
        for name, edges in self.behaviors:
            if name.value in behaviors:
                self.error(f"behavior {name.value!r} is already declared", name)
                continue
            kept: list[tuple[str, str]] = []
            lines = self.edge_lines[name.value] = {}
            for pred, succ in edges:
                unknown = [e for e in (pred.value, succ.value) if e not in defined]
                for end in unknown:
                    self.error(f"unknown event {end!r}", pred)
                if pred.value == succ.value:
                    self.error(f"event {pred.value!r} cannot precede itself", pred)
                elif not unknown:
                    kept.append((pred.value, succ.value))
                    lines.setdefault(kept[-1], pred.line)
            behaviors[name.value] = events_mod.build_behavior(defined.values(), kept)
        return list(defined.values()), behaviors


# ---------------------------------------------------------------------------
# the statement reader: well-formed documents, one match per statement

_B = r"[ \t\r\n]"  # the blanks _TOKEN_RE skips, with the newline it splits on
_NAME_PAT = _NAME_RE.pattern
_REF_PAT = rf"{_NAME_PAT}(?:\.{_NAME_PAT})+"
# Blanks and comments between statements.  A comment runs to the end of
# its line, so each text has one way to match and a failed statement
# costs one backward step per character, not exponential backtracking.
_GAP = rf"(?:{_B}|\#[^\n]*(?![^\n]))*"
# Each alternative is one whole statement; its outer group closes last, so
# ``lastgroup`` names it.  re.ASCII keeps \d to the ASCII digits: a number
# in any other decimal digits is left to the token parser.
_STATEMENT_RE = re.compile(
    rf"""
    {_GAP}(?:
      (?P<thimac>thimac{_B}+(?P<thimac_name>{_NAME_PAT}){_B}*\{{)
    | (?P<close>\}})
    | (?P<stage>(?P<action>{"|".join(_KINDS)})
        (?:{_B}+as{_B}+(?P<alias>{_NAME_PAT}))?{_B}*;)
    | (?P<flow>flow{_B}+(?P<flow_src>{_REF_PAT}){_B}*->{_B}*(?P<flow_dst>{_REF_PAT})
        (?:{_B}+carries{_B}*"(?P<carries>[^"\\\n]*)")?
        (?:{_B}+anchor{_B}+(?P<anchor>\d+))?{_B}*;)
    | (?P<trigger>trigger{_B}+(?P<trigger_src>{_REF_PAT}){_B}*=>
        {_B}*(?P<trigger_dst>{_REF_PAT}){_B}*;)
    | (?P<event>event{_B}+(?P<event_name>{_NAME_PAT}){_B}*\{{{_B}*region{_B}*\[
        {_B}*(?P<refs>{_REF_PAT}(?:{_B}*,{_B}*{_REF_PAT})*){_B}*\]
        (?:{_B}*time{_B}+(?P<lo>\d+){_B}*\.\.{_B}*(?P<hi>\d+))?{_B}*\}})
    | (?P<behavior>behavior{_B}+(?P<behavior_name>{_NAME_PAT}){_B}*\{{)
    | (?P<edge>(?P<pred>{_NAME_PAT}){_B}*->{_B}*(?P<succ>{_NAME_PAT}){_B}*;)
    )
    """,
    re.VERBOSE | re.ASCII,
)
_END_RE = re.compile(rf"{_GAP}\Z")


def _read_statements(text: str) -> _Parser | None:
    """Read a well-formed document a statement at a time, or return None.

    Fills a ``_Parser`` as ``parse_document`` would, tokens at the same
    lines and columns, and declares through the same ``_Parser`` methods,
    so ``resolve`` finishes either.  Anything this reader does not
    recognise, and the first statement that needs a diagnostic, returns
    None, and the token parser reads the document and reports on it.
    """
    parser = _Parser()
    model = parser.model
    new = tuple.__new__
    blocks: list[str] = []  # the open thimac blocks' ids, innermost last
    behavior: tuple[_Token, list[tuple[_Token, _Token]]] | None = None  # an open one
    line, seen = 1, 0  # the line that text[seen] is on

    def token(group: str, value: str | None = None) -> _Token:
        """An ident token at ``group``'s start; never called backwards."""
        nonlocal line, seen
        p = m.start(group)
        line += text.count("\n", seen, p)
        seen = p
        column = p - text.rfind("\n", 0, p)
        return new(_Token, ("ident", value or m[group], line, column))

    pos = 0
    try:
        while not parser.diags and (m := _STATEMENT_RE.match(text, pos)):
            pos = m.end()
            kind = m.lastgroup
            if kind == "edge":
                if behavior is None:
                    return None
                behavior[1].append((token("pred"), token("succ")))
            elif kind == "close":
                if behavior is not None:
                    parser.behaviors.append(behavior)
                    behavior = None
                elif blocks:
                    blocks.pop()
                else:
                    return None
            elif behavior is not None:
                return None
            elif kind == "stage":
                if not blocks:
                    return None
                kw = token("action")
                alias = m["alias"] and parser.named(token("alias"), "stage alias").value
                parser.declare(model.add_stage, kw, blocks[-1], _KINDS[kw.value], alias)
            elif kind == "thimac":
                name = parser.named(token("thimac_name"), "thimac")
                parent = blocks[-1] if blocks else None
                blocks.append(parser.declare(model.add_thimac, name, name.value, parent))
            elif blocks:
                return None
            elif kind == "flow" or kind == "trigger":
                anchor = m["anchor"]
                parser.arrows.append(_PendingArrow(
                    token(kind, kind),
                    m[kind + "_src"],
                    m[kind + "_dst"],
                    m["carries"],
                    None if anchor is None else int(anchor),
                ))
            elif kind == "event":
                name = parser.named(token("event_name"), "event")
                time = m["lo"] and parser.interval(token("lo"), token("hi"))
                refs = [ref.strip(" \t\r\n") for ref in m["refs"].split(",")]
                parser.events.append((name, refs, time))
            else:  # behavior
                behavior = (parser.named(token("behavior_name"), "behavior"), [])
    except _Skip:
        return None
    if parser.diags or blocks or behavior is not None or not _END_RE.match(text, pos):
        return None
    return parser


def parse(doc: SourceDocument | str) -> ParseResult:
    """Parse one document; never raises on malformed input.  One leading
    byte-order mark is dropped."""
    text = (doc if isinstance(doc, str) else doc.text).removeprefix("\ufeff")
    parser = _read_statements(text)
    if parser is None:  # not well-formed: the token parser says why
        lexical: list[ParseDiagnostic] = []
        parser = _Parser()
        parser.parse_document(_tokens(text, lexical))
        parser.diags[:0] = lexical  # every lexical diagnostic comes first
    events, behaviors = parser.resolve()
    if any(d.severity == "error" for d in parser.diags):
        return ParseResult(model=None, diagnostics=parser.diags)
    return ParseResult(
        model=parser.model,
        events=events,
        behaviors=behaviors,
        diagnostics=parser.diags,
        event_lines=parser.event_lines,
        edge_lines=parser.edge_lines,
    )


# ---------------------------------------------------------------------------
# shared by every rendering

_CHUNK = 256  # pieces per write: lines of an export or a trace


def _write_chunks(pieces: Iterator[str], out=None) -> str | None:
    """Join the strings ``pieces``.  Returns the text, or writes it to the
    stream ``out`` ``_CHUNK`` pieces a write and returns None, so the whole
    text is never held."""
    if out is None:
        return "".join(pieces)
    while chunk := list(islice(pieces, _CHUNK)):
        out.write("".join(chunk))
        del chunk  # freed before the next chunk is built, not beside it
    return None


def _nesting(model: StaticModel):
    """Walk the nesting forest depth-first, children in declaration order.

    The forest is read from each thimac's ``parent`` link, the one place
    the model stores it.  Yields ``(tid, depth, True)`` where a thimac's
    block opens and ``(tid, depth, False)`` where it closes.  The walk
    keeps its own stack, so nesting depth is unbounded.  A thimac no root
    reaches (a hand-edited parent) raises ValueError before the first yield.
    """
    children: dict[str | None, list[str]] = {}  # None -> the roots
    for tid, thimac in model.thimacs.items():
        children.setdefault(thimac.parent, []).append(tid)
    reached = reachable(children, [None])
    if lost := [tid for tid in model.thimacs if tid not in reached]:
        raise ValueError(f"no root reaches thimac {', '.join(lost)} through parent links")
    stack = [(tid, 0, True) for tid in reversed(children.get(None, ()))]
    while stack:
        tid, depth, opening = stack.pop()
        yield tid, depth, opening
        if opening:
            stack.append((tid, depth, False))
            stack += [(child, depth + 1, True) for child in reversed(children.get(tid, ()))]


def _stages_in_kind_order(model: StaticModel, tid: str):
    stages = model.thimacs[tid].stages
    return [model.stages[stages[kind]] for kind in KIND_ORDER if kind in stages]


def _escape(text: str) -> str:
    """Backslash-escape a quoted label, in canonical text and DOT alike."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# canonical serialization


def _name(text: str, entity: str) -> str:
    """``text`` if the parser reads it back as a name, else ValueError."""
    if not _NAME_RE.fullmatch(text) or text in RESERVED_WORDS:
        raise ValueError(f"{entity}: {text!r} cannot be written as a name")
    return text


def serialize(model: StaticModel, events=(), behaviors=None, out=None) -> str | None:
    """Render the canonical text for a model and its declarations.

    Canonical means: thimacs depth-first in declaration order, stages in
    the fixed kind order, flows sorted by anchor then declaration, region
    references sorted; the output is a fixed point of parse-serialize.
    Returns the text, or writes it to the stream ``out`` ``_CHUNK`` lines
    a write through ``_write_chunks`` and returns None.  A name, alias or
    label the language cannot spell raises ValueError; with ``out``, the
    chunks before it may already have been written.
    """
    return _write_chunks(_canonical_lines(model, events, behaviors), out)


def _canonical_lines(model: StaticModel, events, behaviors):
    """The canonical text a line at a time: the thimac blocks, the flows,
    the triggers, the events and each behavior, with a blank line between
    two of these sections that have lines."""
    sections = [
        _thimac_lines(model),
        (_flow_line(model, f) for f in sorted(model.flows.values(), key=anchor_order)),
        (f"trigger {model.stage_ref(g.src)} => {model.stage_ref(g.dst)};\n"
         for g in model.triggers.values()),
        (_event_line(model, ev) for ev in events),
        *(_behavior_lines(name, beh) for name, beh in (behaviors or {}).items()),
    ]
    wrote = False  # a blank line goes before each later section with lines
    for lines in sections:
        first = next(lines, None)
        if first is None:
            continue
        if wrote:
            yield "\n"
        wrote = True
        yield first
        yield from lines


def _thimac_lines(model: StaticModel):
    first_root = next(iter(model.thimacs), None)  # the first declared is a root
    for tid, depth, opening in _nesting(model):
        pad = "  " * depth
        if not opening:
            yield f"{pad}}}\n"
            continue
        if depth == 0 and tid != first_root:
            yield "\n"  # between two top-level blocks
        name = _name(model.thimacs[tid].name, f"thimac {tid}")
        yield f"{pad}thimac {name} {{\n"
        for stage in _stages_in_kind_order(model, tid):
            alias = stage.alias and _name(stage.alias, f"alias of stage {stage.id}")
            suffix = f" as {alias}" if alias else ""
            yield f"{pad}  {stage.kind.value}{suffix};\n"


def _flow_line(model: StaticModel, f) -> str:
    line = f"flow {model.stage_ref(f.src)} -> {model.stage_ref(f.dst)}"
    if f.carries is not None:
        if "\n" in f.carries:
            raise ValueError(f"flow {f.id}: a carries label cannot hold a newline")
        line += f' carries "{_escape(f.carries)}"'
    if f.anchor is not None:
        if f.anchor < 0:
            raise ValueError(f"flow {f.id}: anchor {f.anchor} is negative")
        line += f" anchor {f.anchor}"
    return line + ";\n"


def _event_line(model: StaticModel, ev: EventDef) -> str:
    refs = ", ".join(sorted(model.stage_ref(sid) for sid in ev.region))
    time = f" time {ev.time.start}..{ev.time.end}" if ev.time else ""
    return f"event {_name(ev.name, f'event {ev.id}')} {{ region [{refs}]{time} }}\n"


def _behavior_lines(name: str, behavior: BehaviorModel):
    what = f"edge of behavior {name}"
    edges = [f"  {_name(a, what)} -> {_name(b, what)};\n" for a, b in behavior.edges]
    yield f"behavior {_name(name, 'behavior')} {{\n"
    yield from edges
    yield "}\n"


# ---------------------------------------------------------------------------
# DOT export


def emit_dot(model: StaticModel, highlight=None, out=None) -> str | None:
    """Graphviz rendering: nested clusters, solid flows, dashed triggers.

    ``highlight``, a set of stage ids such as an event's ``region``, fills
    those stages so one event can be picked out of the full diagram.
    Returns the text, or writes it to the stream ``out`` ``_CHUNK`` lines
    a write through ``_write_chunks`` and returns None.
    """
    return _write_chunks(_dot_lines(model, highlight or ()), out)


def _dot_lines(model: StaticModel, lit):
    yield "digraph tm {\n"
    yield "  rankdir=LR;\n"
    yield "  compound=true;\n"
    yield "  node [shape=box, fontsize=10];\n"
    for tid, depth, opening in _nesting(model):
        pad = "  " * (depth + 1)
        if not opening:
            yield f"{pad}}}\n"
            continue
        yield f"{pad}subgraph cluster_{tid} {{\n"
        yield f'{pad}  label="{_escape(model.thimacs[tid].name)}";\n'
        for stage in _stages_in_kind_order(model, tid):
            attrs = [f'label="{_escape(stage.alias or stage.kind.value)}"']
            if stage.id in lit:
                attrs.append('style=filled, fillcolor="gold"')
            yield f"{pad}  {stage.id} [{', '.join(attrs)}];\n"

    for f in sorted(model.flows.values(), key=anchor_order):
        parts = []
        if f.anchor is not None:
            parts.append(f"({f.anchor})")
        if f.carries is not None:
            parts.append(f.carries)
        label = f' [label="{_escape(" ".join(parts))}"]' if parts else ""
        yield f"  {f.src} -> {f.dst}{label};\n"
    for g in model.triggers.values():
        yield f"  {g.src} -> {g.dst} [style=dashed];\n"
    yield "}\n"


def emit_behavior_dot(name: str, behavior: BehaviorModel) -> str:
    """Graphviz rendering of a chronology: one ellipse per event, one
    arrow per precedence edge."""
    out = [f"digraph {name} {{", "  node [shape=ellipse, fontsize=10];"]
    out.extend(f'  "{eid}";' for eid in behavior.events)
    out.extend(f'  "{a}" -> "{b}";' for a, b in behavior.edges)
    out.append("}")
    return "\n".join(out) + "\n"
