"""The statement reader against the token parser.

``dsl.parse`` reads a document a statement at a time and falls back to the
token parser on anything it does not recognise.  Whichever path reads a
document, the result must be the same; and the documents thimac ships and
benchmarks must never need the fallback, or the reader's speed is lost
without a sign.
"""

import importlib.util
import re
import sys
from contextlib import suppress
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, note, settings
from hypothesis import strategies as st

from thimac import dsl
from thimac.dsl import parse, serialize
from thimac.events import EventError, TimeSubthimac, build_behavior, define_event
from thimac.model import ActionKind, ModelError, new_model

ROOT = Path(__file__).resolve().parent.parent
KINDS = list(ActionKind)


def token_parse(text: str) -> dsl.ParseResult:
    """``parse`` with the statement reader declining everything."""
    with mock.patch.object(dsl, "_read_statements", lambda text: None):
        return parse(text)


def outcome(result: dsl.ParseResult):
    """Everything a parse result tells its callers, in comparable form."""
    diags = [(d.severity, d.message, d.line, d.column) for d in result.diagnostics]
    if result.model is None:
        return diags
    m = result.model
    return (
        diags,
        serialize(m, result.events, result.behaviors),
        m.thimacs, m.stages, m.flows, m.triggers, m.origin,
        result.events, result.behaviors, result.event_lines, result.edge_lines,
    )


# ---------------------------------------------------------------------------
# generated models, re-spaced and mutated

NAMES = ["alpha", "beta", "gamma", "delta", "kappa", "omega", "cell", "arm"]
LABEL = st.text(alphabet="abc XYZ019!?.,:-()[]{}#é", max_size=8)


@st.composite
def generated_documents(draw):
    """Canonical text of a random nested model with events and a behavior."""
    m = new_model()
    tids: list[str] = []
    for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6)):
        parent = draw(st.sampled_from([None, *tids]))
        with suppress(ModelError):  # a name already used at that level
            tids.append(m.add_thimac(name, parent))
    for tid in tids:
        for kind in draw(st.sets(st.sampled_from(KINDS), min_size=1, max_size=5)):
            sid = m.add_stage(tid, kind)
            if draw(st.integers(0, 3)) == 0:
                m.stages[sid].alias = f"{kind.value[:3]}_{tid}"
    sids = sorted(m.stages)
    for _ in range(draw(st.integers(0, 8))):
        src, dst = draw(st.sampled_from(sids)), draw(st.sampled_from(sids))
        carries = draw(st.none() | LABEL | st.just('say "hi" \\o/'))
        anchor = draw(st.none() | st.integers(0, 12))
        with suppress(ModelError):  # an illegal succession
            if draw(st.booleans()):
                m.add_flow(src, dst, carries, anchor)
            else:
                m.add_trigger(src, dst)
    events = []
    for name in draw(st.lists(st.sampled_from(["e1", "e2", "e3"]), unique=True)):
        region = draw(st.lists(st.sampled_from(sids), min_size=1, max_size=3, unique=True))
        time = draw(st.none() | st.tuples(st.integers(0, 9), st.integers(0, 9)))
        with suppress(EventError, ValueError):  # disconnected, or a bad interval
            time = time and TimeSubthimac(*time)
            events.append(define_event(m, name, region, time))
    names = [ev.id for ev in events]
    behaviors = {}
    if len(names) > 1:
        for beh in draw(st.lists(st.sampled_from(["b", "story"]), unique=True)):
            pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
            edges = [(a, b) for a, b in draw(st.lists(pairs, max_size=4)) if a != b]
            behaviors[beh] = build_behavior(events, edges)
    return serialize(m, events, behaviors)


#: What may stand between two statements, and between two tokens.
GAPS = ["\n", "\r\n", "\n\n", " \n\t", "\n# a note\n", "  # é\r\n", "\t\n  "]
BLANKS = [" ", "  ", "\t", "\n ", "\r\n\t"]
#: Mutations: characters the reader declines, statement pieces out of place.
MUTANTS = [
    "#", "\\", "٣", "²", "é", "\x0b", "\u00a0", ";", "}", "{", "]", ".", "->",
    " as x", " as flow", "thimac", " thimac t {", "create;", " time 5..2", " anchor 3",
    ' carries "a\\"b"', "event", "behavior b { e1 -> e2; }", "flow", "x",
]
_STRING_RE = re.compile(r'("(?:[^"\\\n]|\\.)*")')


@st.composite
def respaced(draw, text: str) -> str:
    """``text`` with other blanks and comments between statements, and other
    blanks where a statement already has one (never inside a string)."""
    lines = []
    for line in text.split("\n"):
        parts = _STRING_RE.split(line)
        for i in range(0, len(parts), 2):  # outside the strings
            parts[i] = re.sub(" ", lambda _: draw(st.sampled_from(BLANKS)), parts[i])
        lines.append("".join(parts))
    return "".join(line + draw(st.sampled_from(GAPS)) for line in lines)


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` with one to three edits: a line deleted, repeated or moved,
    a blank taken out, or a piece put in at any character."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["piece", "join", "delete", "repeat", "move"]))
        if edit == "piece":
            at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 3))
            lines = [text[:at] + draw(st.sampled_from(["", *MUTANTS])) + text[at + cut:]]
        elif edit == "join":  # two tokens may become one
            at = draw(st.sampled_from([k for k, c in enumerate(text) if c == " "] or [0]))
            lines = [text[:at] + text[at + 1:]]
        elif edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(j, lines[i])
        else:
            lines.insert(j, lines.pop(i))
        text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_the_reader_and_the_token_parser_agree(data):
    text = data.draw(generated_documents(), label="canonical")
    mutate = data.draw(st.booleans(), label="mutate")
    if mutate:
        text = data.draw(mutated(text), label="mutated")
    text = data.draw(respaced(text), label="text")
    took = dsl._read_statements(text) is not None
    note(f"reader took it: {took}")
    event(f"mutated={mutate} took={took}")
    assert outcome(parse(text)) == outcome(token_parse(text))
    if not mutate:  # escapes in a label are the one thing left to the token parser
        assert took or "\\" in text


A = "thimac a { create; release; }\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("thimac as { create; }", id="reserved thimac name"),
        pytest.param("thimac a { create as flow; }", id="reserved alias"),
        pytest.param(A + "event region { region [a.create] }", id="reserved event name"),
        pytest.param(A + "behavior as { }", id="reserved behavior name"),
        pytest.param("thimac a { create; create; }", id="ModelError"),
        pytest.param("thimac a { create; } thimac a { release; }", id="ModelError at top"),
        pytest.param(A + "flow a.create # why\n -> a.release;", id="comment in a statement"),
        pytest.param(A + "flow a.create ->\u00a0a.release;", id="non-ASCII blank"),
        pytest.param(A + "flow a.create ->\x0ba.release;", id="vertical tab"),
        pytest.param(A + "flow a.create ->\x0ca.release;", id="form feed"),
        pytest.param(A + 'flow a.create -> a.release carries "a\\"b";', id="string escape"),
        pytest.param(A + "flow a.create -> a.release anchor \u0663;", id="non-ASCII digit"),
        pytest.param(A + "event e { region [a.create] time 5..2 }", id="bad time interval"),
        pytest.param("thimac a { create;", id="unclosed block"),
        pytest.param(A + "}", id="stray '}'"),
        pytest.param(A + "flow a . create -> a.release;", id="blanks in a reference"),
    ],
)
def test_the_reader_declines_and_the_token_parser_decides(text):
    assert dsl._read_statements(text) is None
    assert outcome(parse(text)) == outcome(token_parse(text))


#: Every statement form, with every optional part.
EVERY_FORM = """\
thimac a {
  create as start;
  process;
  release;
  transfer;
  thimac b { transfer; receive as r; }
}
thimac z { transfer; receive; }
flow a.create -> a.release carries "x y" anchor 1;
flow a.transfer -> z.transfer;
trigger a.process => a.create;
event e { region [a.create, a.release] time 1..2 }
event f { region [a.transfer] }
behavior k { e -> f; }
"""


def test_every_form_is_read_and_every_blank_matters():
    """Taking out any one blank may join two tokens; both paths must see it."""
    assert dsl._read_statements(EVERY_FORM) is not None
    blanks = [k for k, c in enumerate(EVERY_FORM) if c in " \n"]
    for k in blanks:
        text = EVERY_FORM[:k] + EVERY_FORM[k + 1:]
        assert outcome(parse(text)) == outcome(token_parse(text)), repr(text)


def test_flows_and_triggers_record_their_keywords_position():
    """``model.origin`` holds each flow's and trigger's keyword position,
    whichever reader takes the document."""
    text = (
        "thimac a { create; process; release; }\n"
        "  flow a.create -> a.process;\n"
        "   trigger a.process => a.create;\n"
    )
    assert dsl._read_statements(text) is not None
    for result in (parse(text), token_parse(text)):
        (flow,), (trigger,) = result.model.flows, result.model.triggers
        assert result.model.origin[flow] == (2, 3)
        assert result.model.origin[trigger] == (3, 4)


def _load_workloads():
    """``perfbench/workloads.py``, imported without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up here
    spec.loader.exec_module(module)
    return module


def shipped_documents():
    for path in sorted((ROOT / "corpus").glob("*.tm")):
        yield pytest.param(path, id=path.name)
    workloads = _load_workloads()
    for workload, make in workloads.WORKLOADS.items():
        for seed in (1, 2):
            case = make(seed, ROOT)
            for name, text in case.files.items():
                if name.endswith(".tm"):
                    header = workloads.PASS_HEADER.format(seed)
                    yield pytest.param(header + text, id=f"{workload}-{seed}-{name}")


@pytest.mark.parametrize("doc", shipped_documents())
def test_shipped_and_benchmarked_models_take_the_reader(doc):
    text = doc.read_text() if isinstance(doc, Path) else doc
    assert dsl._read_statements(text) is not None
    assert outcome(parse(text)) == outcome(token_parse(text))
