"""Parser, diagnostics, and the canonical round trip."""

from pathlib import Path

import pytest

from thimac import SourceDocument, emit_dot, parse, serialize, validate
from thimac.dsl import RESERVED_WORDS, _tokens
from thimac.model import ActionKind, new_model

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize(
    "name", ["library", "toast", "picnic", "take", "signal"]
)
def test_corpus_round_trip_is_fixed_point(name):
    first = parse((CORPUS / f"{name}.tm").read_text())
    assert first.ok
    text1 = serialize(first.model, first.events, first.behaviors)
    second = parse(text1)
    assert second.ok, [d.render() for d in second.diagnostics]
    text2 = serialize(second.model, second.events, second.behaviors)
    assert text1 == text2  # byte identical


@pytest.mark.parametrize(
    "name", ["library", "toast", "picnic", "take", "signal"]
)
def test_parses_are_equal_and_canonical_text_reads_back_equal(name):
    text = (CORPUS / f"{name}.tm").read_text()
    first = parse(text)
    assert first == parse(text)
    canonical = parse(serialize(first.model, first.events, first.behaviors))
    again = parse(serialize(canonical.model, canonical.events, canonical.behaviors))
    assert again == canonical


def test_round_trip_preserves_structure(library):
    text = serialize(library.model, library.events, library.behaviors)
    again = parse(text)
    m1, m2 = library.model, again.model
    assert len(m1.thimacs) == len(m2.thimacs)
    assert len(m1.stages) == len(m2.stages)
    assert len(m1.flows) == len(m2.flows)
    assert len(m1.triggers) == len(m2.triggers)
    assert [e.name for e in library.events] == [e.name for e in again.events]
    regions1 = {
        e.name: {m1.stage_ref(s) for s in e.region} for e in library.events
    }
    regions2 = {
        e.name: {m2.stage_ref(s) for s in e.region} for e in again.events
    }
    assert regions1 == regions2
    assert library.behaviors["library"].edges == again.behaviors["library"].edges


def test_empty_document():
    result = parse("")
    assert result.ok
    assert result.model.thimacs == {}
    assert serialize(result.model) == ""


def test_comments_and_whitespace_only():
    assert parse("# nothing here\n   \n\t# more nothing\n").ok


def test_forward_references_allowed():
    # flows, triggers, and events may precede the thimacs they mention
    text = """
    flow a.create -> a.release;
    trigger b.process => a.create;
    event early { region [a.create, a.release] }
    thimac a { create; release; }
    thimac b { transfer; receive; process; }
    flow b.transfer -> b.receive;
    flow b.receive -> b.process;
    """
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    assert [e.name for e in result.events] == ["early"]


def test_alias_declares_and_resolves():
    result = parse("thimac sig { create; process as hold; }")
    assert result.ok
    sid = result.model.resolve_stage_ref("sig.hold")
    assert sid == result.model.resolve_stage_ref("sig.process")


def test_non_action_word_in_stage_position():
    result = parse("thimac x { take; }")
    assert not result.ok
    [diag] = [d for d in result.diagnostics if d.severity == "error"]
    assert "take" in diag.message
    assert "generic action" in diag.message
    assert (diag.line, diag.column) == (1, 12)


@pytest.mark.parametrize("word", ["low", "high", "sell", "put"])
def test_arbitrary_verbs_rejected_as_stage_keywords(word):
    result = parse(f"thimac x {{ {word}; }}")
    assert not result.ok
    assert any("generic action" in d.message for d in result.diagnostics)


@pytest.mark.parametrize("word", sorted(RESERVED_WORDS))
def test_reserved_words_cannot_name_thimacs(word):
    result = parse(f"thimac {word} {{ create; }}")
    assert not result.ok
    assert any("reserved" in d.message for d in result.diagnostics)


def test_duplicate_stage_kind_reported_with_position():
    result = parse("thimac x {\n  create;\n  create;\n}\n")
    assert not result.ok
    [diag] = [d for d in result.diagnostics if d.severity == "error"]
    assert diag.line == 3


def test_duplicate_alias_reported_at_the_stage_keyword():
    """An alias is local to its thimac, so it names one stage there."""
    result = parse("thimac a { process as x; release as x; transfer; }")
    assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
        ("a already has a stage aliased 'x'", 1, 26)
    ]
    assert result.model is None
    assert parse("thimac a { process as x; thimac b { release as x; } }").ok


def test_unknown_stage_reference_in_flow():
    result = parse("thimac a { create; release; }\nflow a.create -> b.receive;")
    assert not result.ok
    assert any("unknown stage reference" in d.message for d in result.diagnostics)


def test_illegal_flow_reported_not_raised():
    result = parse("thimac a { create; transfer; }\nflow a.create -> a.transfer;")
    assert not result.ok
    assert result.model is None


def test_error_recovery_reports_multiple_problems():
    text = "thimac a { create; banana; release; }\nflow a.create -> ;\n"
    result = parse(text)
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert len(errors) >= 2
    assert result.model is None


def test_model_none_iff_errors():
    good = parse("thimac a { create; }")
    assert good.ok and not any(
        d.severity == "error" for d in good.diagnostics
    )
    bad = parse("thimac a { create;")
    assert bad.model is None
    assert any(d.severity == "error" for d in bad.diagnostics)


def test_positions_are_one_based():
    result = parse("?")
    [diag] = result.diagnostics
    assert (diag.line, diag.column) == (1, 1)


def test_unterminated_string():
    result = parse('thimac a { create; }\nflow a.create -> a.create carries "oops;')
    assert not result.ok
    assert any("unterminated string" in d.message for d in result.diagnostics)


def test_carries_and_anchor_round_trip():
    flow_line = (
        'flow a.create -> a.release carries "a \\"quoted\\" thing" anchor 7;'
    )
    result = parse(f"thimac a {{ create; release; }}\n{flow_line}\n")
    assert result.ok
    [flow] = result.model.flows.values()
    assert flow.carries == 'a "quoted" thing'
    assert flow.anchor == 7
    canonical = serialize(result.model)
    assert flow_line in canonical
    assert canonical == (
        "thimac a {\n  create;\n  release;\n}\n\n" + flow_line + "\n"
    )


def _named(name):
    m = new_model()
    m.add_stage(m.add_thimac(name), ActionKind.CREATE)
    return m


def _aliased(alias):
    m = new_model()
    m.add_stage(m.add_thimac("a"), ActionKind.CREATE, alias)
    return m


def _carrying(label, anchor=None):
    m = new_model()
    a = m.add_thimac("a")
    c, r = m.add_stage(a, ActionKind.CREATE), m.add_stage(a, ActionKind.RELEASE)
    m.add_flow(c, r, label, anchor)
    return m


@pytest.mark.parametrize(
    "model, needle",
    [
        (_named("flow"), "thimac t1: 'flow'"),
        (_named("two words"), "thimac t1: 'two words'"),
        (_named("1st"), "thimac t1: '1st'"),
        (_aliased("as"), "alias of stage s1: 'as'"),
        (_carrying("two\nlines"), "flow f1: a carries label cannot hold a newline"),
        (_carrying(None, -1), "flow f1: anchor -1 is negative"),
    ],
)
def test_serialize_rejects_what_parse_cannot_read_back(model, needle):
    with pytest.raises(ValueError) as exc:
        serialize(model)
    assert needle in str(exc.value)


@pytest.mark.parametrize("parent", ["t99", "cycle"])
def test_exports_refuse_a_thimac_no_root_reaches(parent):
    m = parse("thimac a { create; }\nthimac b { transfer; thimac c { receive; } }\n").model
    b, c = m.thimac_at["b"], m.thimac_at["b.c"]
    m.thimacs[b].parent = c if parent == "cycle" else parent
    for export in (serialize, emit_dot):
        with pytest.raises(ValueError, match=f"no root reaches thimac {b}, {c} through"):
            export(m)


def test_event_time_parses_and_validates():
    ok = parse(
        "thimac a { create; }\nevent e { region [a.create] time 2..5 }"
    )
    assert ok.ok
    assert ok.events[0].time.start == 2 and ok.events[0].time.end == 5
    bad = parse(
        "thimac a { create; }\nevent e { region [a.create] time 5..2 }"
    )
    assert not bad.ok


def test_disconnected_event_region_is_an_error():
    text = (
        "thimac a { create; release; }\nthimac b { process; }\n"
        "event e { region [a.create, b.process] }"
    )
    result = parse(text)
    assert not result.ok
    assert any("not connected" in d.message for d in result.diagnostics)


def test_duplicate_event_name():
    text = (
        "thimac a { create; }\n"
        "event e { region [a.create] }\n"
        "event e { region [a.create] }\n"
    )
    result = parse(text)
    assert not result.ok
    assert any("already declared" in d.message for d in result.diagnostics)


def test_behavior_with_unknown_event():
    text = "thimac a { create; }\nbehavior b { x -> y; }"
    result = parse(text)
    assert not result.ok
    assert any("unknown event" in d.message for d in result.diagnostics)


def test_behavior_self_loop_rejected():
    text = (
        "thimac a { create; }\n"
        "event e { region [a.create] }\n"
        "behavior b { e -> e; }\n"
    )
    result = parse(text)
    assert not result.ok
    assert any("cannot precede itself" in d.message for d in result.diagnostics)


def test_parse_accepts_source_document_and_str():
    doc = SourceDocument("thimac a { create; }", path="x.tm")
    assert parse(doc).ok
    assert parse("thimac a { create; }").ok


def test_weird_bytes_do_not_crash():
    for text in ["\x00\x01\x02", "thimac \xe9 {", "{{{{", "}" * 40, '"' * 7]:
        result = parse(text)
        assert result.model is None
        for d in result.diagnostics:
            assert d.line >= 1 and d.column >= 1


@pytest.mark.parametrize(
    "text, tokens, diagnostics",
    [
        (  # escapes: \" and \\ fold, a lone backslash stays
            '"a\\"b" "c\\\\d" "e\\f"',
            [("string", 'a"b', 1, 1), ("string", "c\\d", 1, 8),
             ("string", "e\\f", 1, 15), ("eof", "", 1, 20)],
            [],
        ),
        (  # unterminated at a newline: the next line lexes as usual
            'x "ab\ny',
            [("ident", "x", 1, 1), ("string", "ab", 1, 3), ("ident", "y", 2, 1),
             ("eof", "", 2, 2)],
            [("unterminated string", 1, 3)],
        ),
        (  # unterminated at EOF, after a lone backslash
            '"ab\\',
            [("string", "ab\\", 1, 1), ("eof", "", 1, 5)],
            [("unterminated string", 1, 1)],
        ),
        (  # \r is whitespace that takes a column; only \n starts a line
            "a\r\nb\rc",
            [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("ident", "c", 2, 3),
             ("eof", "", 2, 4)],
            [],
        ),
        (  # a tab is one column
            "\tx\t\ty",
            [("ident", "x", 1, 2), ("ident", "y", 1, 5), ("eof", "", 1, 6)],
            [],
        ),
        (  # names are ASCII
            "xé",
            [("ident", "x", 1, 1), ("eof", "", 1, 3)],
            [("unexpected character 'é'", 1, 2)],
        ),
        (  # a digit that is not decimal ends a number
            "1²",
            [("int", "1", 1, 1), ("eof", "", 1, 3)],
            [("unexpected character '²'", 1, 2)],
        ),
        (  # any Unicode decimal digit makes a number
            "٣ ->",
            [("int", "٣", 1, 1), ("->", "->", 1, 3), ("eof", "", 1, 5)],
            [],
        ),
        (  # the EOF column counts trailing whitespace and comments
            "ab\ncd # note",
            [("ident", "ab", 1, 1), ("ident", "cd", 2, 1), ("eof", "", 2, 10)],
            [],
        ),
    ],
)
def test_tokens_and_diagnostics_are_pinned(text, tokens, diagnostics):
    diags = []
    toks = list(_tokens(text, diags))
    assert [tuple(t) for t in toks] == tokens
    assert [(d.message, d.line, d.column) for d in diags] == diagnostics


A = "thimac a { create; release; }\n"
TOP = "expected thimac, flow, trigger, event, or behavior, found "
NOT_ACTION = " is not a generic action (expected create, process, release, transfer, or receive)"


@pytest.mark.parametrize(
    "text, diagnostics",
    [
        pytest.param(
            "junk 1;\nthimac a { create; }\n}\nflow",
            [(TOP + "'junk'", 1, 1), (TOP + "'}'", 3, 1),
             ("expected a stage reference, found 'eof'", 4, 5)],
            id="top-level junk",
        ),
        pytest.param(  # a bad name still opens a block
            "thimac flow { take; }\nthimac event",
            [("'flow' is a reserved word and cannot name a thimac", 1, 8),
             ("'take'" + NOT_ACTION, 1, 15),
             ("'event' is a reserved word and cannot name a thimac", 2, 8),
             ("expected '{', found 'eof'", 2, 13)],
            id="reserved thimac name",
        ),
        pytest.param(
            "thimac a create; }\nthimac b { create; }",
            [("expected '{', found 'create'", 1, 10)],
            id="no '{' at top level",
        ),
        pytest.param(  # b is skipped past the next '}', then a's block goes on
            "thimac a { thimac b create; } release; }\nthimac b",
            [("expected '{', found 'create'", 1, 21), ("expected '{', found 'eof'", 2, 9)],
            id="no '{' when nested",
        ),
        pytest.param(
            "thimac a { take it; create; sell }\n  thimac b { x }",
            [("'take'" + NOT_ACTION, 1, 12), ("'sell'" + NOT_ACTION, 1, 29),
             ("'x'" + NOT_ACTION, 2, 14)],
            id="non-action word",
        ),
        pytest.param(
            "thimac a { create as flow; release as 3; process as p; }",
            [("'flow' is a reserved word and cannot name a stage alias", 1, 22),
             ("expected stage alias, found '3'", 1, 39)],
            id="bad alias",
        ),
        pytest.param(
            "thimac a { create release\n}",
            [("expected ';', found 'release'", 1, 19), ("expected ';', found '}'", 2, 1)],
            id="stage without ';'",
        ),
        pytest.param(
            "thimac a { thimac b { create;",
            [("unclosed thimac block (missing '}')", 1, 12),
             ("unclosed thimac block (missing '}')", 1, 1)],
            id="unclosed thimac",
        ),
        pytest.param(
            A + "flow a.create -> a.release\nflow a.create -> a.release anchor 1 ?",
            [("unexpected character '?'", 3, 37), ("expected ';', found 'flow'", 3, 1),
             ("expected ';', found 'eof'", 3, 38)],
            id="flow without ';'",
        ),
        pytest.param(
            A + "flow a.create a.release;\ntrigger a.release -> a.create }\nx",
            [("expected '->', found 'a'", 2, 15), ("expected '=>', found '->'", 3, 19),
             (TOP + "'x'", 4, 1)],
            id="arrow without '->' or '=>'",
        ),
        pytest.param(
            A + "flow a -> a.release;\ntrigger a.create => release;\nx",
            [("a stage reference needs a thimac path and a stage", 2, 6),
             ("a stage reference needs a thimac path and a stage", 3, 21),
             (TOP + "'x'", 4, 1)],
            id="one-segment ref",
        ),
        pytest.param(
            A + "flow a. -> a.release;\nflow a.create -> a.;\nx",
            [("expected a name after '.', found '->'", 2, 9),
             ("expected a name after '.', found ';'", 3, 20), (TOP + "'x'", 4, 1)],
            id="'.' without a name",
        ),
        pytest.param(
            A + "flow a.create -> a.release carries 3;\nx",
            [("expected a quoted thing label, found '3'", 2, 36), (TOP + "'x'", 3, 1)],
            id="carries 3",
        ),
        pytest.param(
            A + "flow a.create -> a.release anchor x }\nx",
            [("expected an anchor number, found 'x'", 2, 35), (TOP + "'x'", 3, 1)],
            id="anchor x",
        ),
        pytest.param(
            A + "event e region [a.create] }\nevent flow { }\nx",
            [("expected '{', found 'region'", 2, 9),
             ("'flow' is a reserved word and cannot name an event", 3, 7),
             (TOP + "'x'", 4, 1)],
            id="event without '{'",
        ),
        pytest.param(
            A + "event e { [a.create] }\nx",
            [("an event block starts with 'region'", 2, 11), (TOP + "'x'", 3, 1)],
            id="event without region",
        ),
        pytest.param(
            A + "event e { region a.create] }\nx",
            [("expected '[', found 'a'", 2, 18), (TOP + "'x'", 3, 1)],
            id="event without '['",
        ),
        pytest.param(
            A + "event e { region [a.create; }\nx",
            [("expected ']', found ';'", 2, 27), (TOP + "'x'", 3, 1)],
            id="event without ']'",
        ),
        pytest.param(
            A + "event e { region [a.create, 3] }\nevent f { region [a.create,] }\nx",
            [("expected a stage reference, found '3'", 2, 29),
             ("expected a stage reference, found ']'", 3, 28), (TOP + "'x'", 4, 1)],
            id="bad ref in region",
        ),
        pytest.param(
            A + "event e { region [a.create] time 1 2 }\nevent f { region [a.create] time }\nx",
            [("expected '..', found '2'", 2, 36), ("expected a start tick, found '}'", 3, 34),
             (TOP + "'x'", 4, 1)],
            id="time 1 2",
        ),
        pytest.param(  # reported, and the event is still read to its '}'
            A + "event e { region [a.create] time 5..2 }\nx",
            [("bad time interval 5..2", 2, 34), (TOP + "'x'", 3, 1)],
            id="time 5..2",
        ),
        pytest.param(
            A + "event e { region [a.create] time 1..2 ;\nx }\ny",
            [("expected '}', found ';'", 2, 39), (TOP + "'y'", 4, 1)],
            id="event without '}'",
        ),
        pytest.param(  # the last broken edge ends at the block's '}'
            A + "event e { region [a.create] }\nbehavior b { e e; e -> ; 3 }\nx",
            [("expected '->', found 'e'", 3, 16), ("expected an event name, found ';'", 3, 24),
             ("expected an event name, found '3'", 3, 26), (TOP + "'x'", 4, 1)],
            id="edge without '->'",
        ),
        pytest.param(
            A + "event e { region [a.create] }\nevent f { region [a.release] }\n"
            "behavior b { e -> f f -> e }\nx",
            [("expected ';', found 'f'", 4, 21), ("expected ';', found '}'", 4, 28),
             (TOP + "'x'", 5, 1)],
            id="edge without ';'",
        ),
        pytest.param(
            A + "behavior b e -> f; }\nbehavior 3 { }\nx",
            [("expected '{', found 'e'", 2, 12), ("expected behavior, found '3'", 3, 10),
             (TOP + "'x'", 4, 1)],
            id="behavior without '{'",
        ),
        pytest.param(  # the block is dropped, so its self-loop goes unreported
            A + "event e { region [a.create] }\nbehavior b { e -> e;",
            [("unclosed behavior block (missing '}')", 3, 1)],
            id="unclosed behavior",
        ),
    ],
)
def test_recovery_diagnostics_are_pinned(text, diagnostics):
    """Each broken statement is reported once and skipped past its stop
    token; a missing ';' is reported without skipping anything."""
    result = parse(text)
    assert [(d.message, d.line, d.column) for d in result.diagnostics] == diagnostics
    assert result.model is None


@pytest.mark.parametrize(
    "decl",
    ["flow a.create -> a.release anchor ²;", "event e { region [a.create] time 1..² }"],
)
def test_non_decimal_digit_is_a_diagnostic(decl):
    result = parse(f"thimac a {{ create; release; }}\n{decl}\n")
    assert not result.ok
    assert "unexpected character '²'" in [d.message for d in result.diagnostics]


def test_unicode_decimal_digit_reads_as_its_value():
    result = parse("thimac a { create; release; }\nflow a.create -> a.release anchor ٣;")
    assert [f.anchor for f in result.model.flows.values()] == [3]


def test_deep_nesting_round_trips_and_exports():
    depth = 1500
    opens = [f"{'  ' * d}thimac n{d} {{" for d in range(depth)]
    closes = [f"{'  ' * d}}}" for d in reversed(range(depth))]
    text = "\n".join([*opens, f"{'  ' * depth}create;", *closes]) + "\n"
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics[:3]]
    assert serialize(result.model) == text
    assert emit_dot(result.model).count("subgraph cluster_") == depth
    [dead] = validate(result.model)  # and V4's parent walks stay linear
    assert dead.code == "V5"
    assert dead.subject == ".".join(f"n{d}" for d in range(depth)) + ".create"
