"""Property-based checks: the parser, the codec, the serializer, hand-edited models."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TAKE_EDITS, parse_corpus
from thimac.dsl import emit_dot, parse, serialize
from thimac.events import (
    AmbiguousReading,
    EventError,
    build_behavior,
    chain_legal,
    decode_actions,
    define_event,
    encode_actions,
)
from thimac.model import ActionKind, Trigger, new_model
from thimac.simulate import ScenarioError, SimulationError, load_scenario, render_trace, run
from thimac.validate import validate

KINDS = list(ActionKind)


# ---------------------------------------------------------------------------
# the parser survives anything


@given(st.text(max_size=200))
def test_parse_never_raises_on_arbitrary_text(text):
    result = parse(text)
    assert result.ok == (result.model is not None)
    for d in result.diagnostics:
        assert d.line >= 1 and d.column >= 1


FRAGMENTS = [
    "thimac", "flow", "trigger", "event", "behavior", "region", "time",
    "carries", "anchor", "as", "create", "process", "release", "transfer",
    "receive", "{", "}", "[", "]", ";", ",", "->", "=>", "..", ".",
    "x", "y", "box", "42", '"text"', '"', "#", "\n", " ",
]


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=60))
def test_parse_never_raises_on_token_soup(parts):
    result = parse(" ".join(parts))
    if result.diagnostics:
        assert all(d.line >= 1 and d.column >= 1 for d in result.diagnostics)
    if any(d.severity == "error" for d in result.diagnostics):
        assert result.model is None


# ---------------------------------------------------------------------------
# the letter codec


@st.composite
def legal_chains(draw):
    length = draw(st.integers(1, 8))
    seq = [draw(st.sampled_from(KINDS))]
    while len(seq) < length:
        seq.append(
            draw(st.sampled_from([k for k in KINDS if chain_legal(seq[-1], k)]))
        )
    return tuple(seq)


@given(legal_chains())
def test_decode_of_encode_is_identity_or_ambiguous(seq):
    code = encode_actions(seq)
    try:
        assert decode_actions(code) == seq
    except AmbiguousReading:
        pass  # several legal readings share this code; seq is one of them


@given(st.text(alphabet="CPRTX", max_size=10))
def test_decode_never_crashes_and_reencodes(code):
    try:
        seq = decode_actions(code)
    except EventError:
        return
    assert encode_actions(seq) == code
    assert all(chain_legal(a, b) for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# serializer round trips for generated models

SAME_MACHINE_PAIRS = [
    (ActionKind.CREATE, ActionKind.PROCESS),
    (ActionKind.CREATE, ActionKind.RELEASE),
    (ActionKind.PROCESS, ActionKind.RELEASE),
    (ActionKind.RELEASE, ActionKind.TRANSFER),
    (ActionKind.TRANSFER, ActionKind.RECEIVE),
    (ActionKind.RECEIVE, ActionKind.PROCESS),
    (ActionKind.RECEIVE, ActionKind.RELEASE),
]

CARRIES_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "\"\\!?.,:-()[]{}"
)


@st.composite
def generated_models(draw):
    m = new_model()
    machines = []
    names = iter(["alpha", "beta", "gamma", "delta", "omega", "kappa"])
    for _ in range(draw(st.integers(1, 3))):
        tid = m.add_thimac(next(names))
        kinds = draw(
            st.sets(st.sampled_from(KINDS), min_size=1, max_size=5)
        )
        stages = {k: m.add_stage(tid, k) for k in sorted(kinds, key=KINDS.index)}
        if ActionKind.PROCESS in stages and draw(st.booleans()):
            m.stages[stages[ActionKind.PROCESS]].alias = "worker"
        machines.append((tid, stages))
    anchor = 0
    for _, stages in machines:
        for frm, to in SAME_MACHINE_PAIRS:
            if frm in stages and to in stages and draw(st.booleans()):
                carries = draw(
                    st.none()
                    | st.text(alphabet=CARRIES_ALPHABET, max_size=12)
                )
                if draw(st.booleans()):
                    anchor += 1
                    m.add_flow(stages[frm], stages[to], carries, anchor)
                else:
                    m.add_flow(stages[frm], stages[to], carries)
    for (t1, s1), (t2, s2) in zip(machines, machines[1:]):
        if (
            ActionKind.TRANSFER in s1
            and ActionKind.TRANSFER in s2
            and draw(st.booleans())
        ):
            anchor += 1
            m.add_flow(
                s1[ActionKind.TRANSFER], s2[ActionKind.TRANSFER], "cargo", anchor
            )
    process_stages = [
        s[ActionKind.PROCESS] for _, s in machines if ActionKind.PROCESS in s
    ]
    create_stages = [
        s[ActionKind.CREATE] for _, s in machines if ActionKind.CREATE in s
    ]
    if process_stages and create_stages and draw(st.booleans()):
        src, dst = process_stages[0], create_stages[-1]
        if src != dst:
            m.add_trigger(src, dst)

    events = []
    event_names = iter(["one", "two"])
    for sid in draw(st.lists(st.sampled_from(sorted(m.stages)), max_size=2, unique=True)):
        events.append(define_event(m, next(event_names), [sid]))
    behaviors = {}
    if len(events) == 2 and draw(st.booleans()):
        behaviors["story"] = build_behavior(events, [("one", "two")])
    return m, events, behaviors


@given(generated_models())
@settings(max_examples=60, deadline=None)
def test_generated_models_round_trip_canonically(built):
    model, events, behaviors = built
    text = serialize(model, events, behaviors)
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    assert result.diagnostics == []
    again = serialize(result.model, result.events, result.behaviors)
    assert again == text
    assert len(result.model.thimacs) == len(model.thimacs)
    assert len(result.model.flows) == len(model.flows)
    assert len(result.model.triggers) == len(model.triggers)
    assert len(result.events) == len(events)


# ---------------------------------------------------------------------------
# hand-edited models: validate reports an error, or every layer copes


def outcome(model, scenario):
    """A run's sorted trace lines and ``truncated``, or the SimulationError
    it raises; lines are sorted because the entries of one tick keep the
    stages' declaration order, which a re-parse may change."""
    try:
        trace = run(model, load_scenario(model, scenario))
    except SimulationError as exc:
        return type(exc), str(exc)
    return sorted(render_trace(model, trace).splitlines()), trace.truncated


def check_hand_edited(model, events=(), behaviors=None):
    """Either ``validate`` reports an error, or the canonical text parses
    back clean to the same bytes, ``emit_dot`` returns, and the edited
    model runs as its re-parsed text does; and a run raises nothing but
    SimulationError, nor rendering a run that returns."""
    scenario = "".join(
        f"inject 0 {model.thimac_path(tid)} x{tid}\n"
        for tid, thimac in model.thimacs.items() if ActionKind.CREATE in thimac.stages
    ) + "max 30\n"
    if any(d.severity == "error" for d in validate(model)):
        try:
            render_trace(model, run(model, load_scenario(model, scenario)))
        except SimulationError:
            pass
        return
    text = serialize(model, events, behaviors)
    result = parse(text)
    assert result.ok and result.diagnostics == [], text
    assert serialize(result.model, result.events, result.behaviors) == text
    emit_dot(model)
    assert outcome(result.model, scenario) == outcome(model, scenario), text


@st.composite
def hand_edited_models(draw):
    """A generated model after one edit of its raw dicts."""
    m, events, behaviors = draw(generated_models())
    stages, thimacs = sorted(m.stages), sorted(m.thimacs)
    arrows = [*m.flows.values(), *m.triggers.values()]
    edits = ["retarget", "reparent", "rename", "alias", "re-own", "self-trigger"]
    edit = draw(st.sampled_from(edits if arrows else edits[1:]))
    if edit == "retarget":
        arrow = draw(st.sampled_from(arrows))
        end = draw(st.sampled_from(["src", "dst"]))
        setattr(arrow, end, draw(st.sampled_from([*stages, "s999"])))
    elif edit == "reparent":
        parent = draw(st.sampled_from([*thimacs, None, "t99"]))
        m.thimacs[draw(st.sampled_from(thimacs))].parent = parent
    elif edit == "rename":
        m.thimacs[draw(st.sampled_from(thimacs))].name = draw(
            st.sampled_from(["alpha", "beta", "zeta"])
        )
    elif edit == "alias":
        aliases = sorted({s.alias for s in m.stages.values() if s.alias} or {"worker"})
        m.stages[draw(st.sampled_from(stages))].alias = draw(st.sampled_from(aliases))
    elif edit == "re-own":
        m.stages[draw(st.sampled_from(stages))].owner = draw(st.sampled_from([*thimacs, "t99"]))
    else:
        sid = draw(st.sampled_from(stages))
        m.triggers["g99"] = Trigger("g99", sid, sid)
        m.triggers_from.setdefault(sid, []).append(m.triggers["g99"])
    return m, events, behaviors


@given(hand_edited_models())
@settings(max_examples=80, deadline=None)
def test_hand_edited_models_are_reported_or_handled(edited):
    check_hand_edited(*edited)


@pytest.mark.parametrize("name", list(TAKE_EDITS))
def test_hand_edits_of_take_are_reported_or_handled(name, take):
    m = parse_corpus("take").model
    TAKE_EDITS[name][0](m)
    check_hand_edited(m, take.events, take.behaviors)


# ---------------------------------------------------------------------------
# scenario loader


SCN_FRAGMENTS = [
    "inject", "choose", "max", "0", "1", "7", "a", "b", "b.transfer",
    "parcel", "8", "999", "# note", "\n", " ", "nonsense",
]


@given(st.lists(st.sampled_from(SCN_FRAGMENTS), max_size=30))
def test_scenario_loader_never_crashes(take, parts):
    text = " ".join(parts)
    try:
        scenario = load_scenario(take.model, text)
    except ScenarioError as exc:
        assert exc.line >= 1
        assert str(exc).startswith(f"line {exc.line}:")
    else:
        assert scenario.max_ticks >= 1
