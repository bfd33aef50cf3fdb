"""Events as regions, letter readings, chronologies, movement."""

import pytest

from thimac.dsl import parse
from thimac.events import (
    BehaviorModel,
    DisconnectedRegion,
    NonLinearRegion,
    SelfLoop,
    TimeSubthimac,
    UnknownEvent,
    build_behavior,
    check_behavior,
    decompose,
    define_event,
    encode_actions,
    event_action_sequence,
    event_moved,
)
from thimac.model import ActionKind, new_model


def by_name(result, name):
    return next(ev for ev in result.events if ev.name == name)


def chain_model():
    m = new_model()
    a = m.add_thimac("a")
    b = m.add_thimac("b")
    ids = {
        "ac": m.add_stage(a, ActionKind.CREATE),
        "ar": m.add_stage(a, ActionKind.RELEASE),
        "at": m.add_stage(a, ActionKind.TRANSFER),
        "bt": m.add_stage(b, ActionKind.TRANSFER),
        "bv": m.add_stage(b, ActionKind.RECEIVE),
        "bp": m.add_stage(b, ActionKind.PROCESS),
    }
    order = ["ac", "ar", "at", "bt", "bv", "bp"]
    for frm, to in zip(order, order[1:]):
        m.add_flow(ids[frm], ids[to])
    return m, ids


# ---------------------------------------------------------------------------
# defining events


def test_define_event_keeps_region_and_name():
    m, ids = chain_model()
    ev = define_event(m, "hop", [ids["ac"], ids["ar"]])
    assert ev.id == "hop" and ev.name == "hop"
    assert ev.region == frozenset({ids["ac"], ids["ar"]})
    assert ev.time is None


def test_define_event_rejects_disconnected_region():
    m, ids = chain_model()
    with pytest.raises(DisconnectedRegion):
        define_event(m, "gap", [ids["ac"], ids["bp"]])


def test_singleton_region_is_trivially_connected():
    m, ids = chain_model()
    ev = define_event(m, "solo", [ids["bp"]])
    assert ev.region == frozenset({ids["bp"]})


def test_trigger_glues_a_region_together():
    m = new_model()
    x = m.add_thimac("x")
    y = m.add_thimac("y")
    xp = m.add_stage(x, ActionKind.PROCESS)
    yc = m.add_stage(y, ActionKind.CREATE)
    m.add_trigger(xp, yc)
    ev = define_event(m, "spark", [xp, yc])
    assert ev.region == frozenset({xp, yc})
    # ...but triggers do not make the region a flow chain
    with pytest.raises(NonLinearRegion):
        event_action_sequence(m, ev)


# ---------------------------------------------------------------------------
# reading a region as a letter chain


def test_full_chain_reads_crttrp():
    m, ids = chain_model()
    ev = define_event(m, "whole", list(ids.values()))
    seq = event_action_sequence(m, ev)
    assert encode_actions(seq) == "CRTTRP"


def test_tail_chain_reads_trp():
    m, ids = chain_model()
    ev = define_event(m, "tail", [ids["bt"], ids["bv"], ids["bp"]])
    assert encode_actions(event_action_sequence(m, ev)) == "TRP"


def test_singleton_reads_one_letter():
    m, ids = chain_model()
    ev = define_event(m, "solo", [ids["ar"]])
    assert event_action_sequence(m, ev) == [ActionKind.RELEASE]


def test_fork_is_not_linear():
    m = new_model()
    x = m.add_thimac("x")
    c = m.add_stage(x, ActionKind.CREATE)
    p = m.add_stage(x, ActionKind.PROCESS)
    r = m.add_stage(x, ActionKind.RELEASE)
    m.add_flow(c, p)
    m.add_flow(c, r)
    ev = define_event(m, "forked", [c, p, r])
    with pytest.raises(NonLinearRegion):
        event_action_sequence(m, ev)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            "thimac a { create; release; transfer; receive; }\n"
            "flow a.create -> a.release; flow a.release -> a.transfer;\n"
            "flow a.transfer -> a.receive; flow a.receive -> a.release;",
            id="the chain runs into a loop",
        ),
        pytest.param(
            "thimac a { create; process; }\nthimac b { release; transfer; receive; }\n"
            "flow a.create -> a.process;\n"
            "flow b.release -> b.transfer; flow b.transfer -> b.receive;\n"
            "flow b.receive -> b.release;\ntrigger a.process => b.release;",
            id="a trigger ties a chain to a loop",
        ),
    ],
)
def test_a_region_holding_a_flow_loop_is_not_linear(text):
    m = parse(text).model
    ev = define_event(m, "whole", list(m.stages))
    with pytest.raises(NonLinearRegion):
        event_action_sequence(m, ev)


def test_flow_cycle_is_not_linear(take):
    m = take.model
    refs = ["b.transfer", "b.receive", "b.hands.process", "b.release"]
    ev = define_event(m, "loop", [m.resolve_stage_ref(r) for r in refs])
    with pytest.raises(NonLinearRegion):
        event_action_sequence(m, ev)


def test_library_request_transaction_reads_crttrp(library):
    ev = by_name(library, "request_transaction")
    seq = event_action_sequence(library.model, ev)
    assert encode_actions(seq) == "CRTTRP"


def test_library_trigger_glued_event_is_not_linear(library):
    ev = by_name(library, "fill_and_submit_record")
    with pytest.raises(NonLinearRegion):
        event_action_sequence(library.model, ev)


# ---------------------------------------------------------------------------
# time subthimacs


def test_time_interval_is_closed_open_and_checked():
    t = TimeSubthimac(0, 5)
    assert (t.start, t.end) == (0, 5)
    TimeSubthimac(5, 5)  # empty interval is allowed
    with pytest.raises(ValueError):
        TimeSubthimac(3, 2)
    with pytest.raises(ValueError):
        TimeSubthimac(-1, 4)


def test_define_event_carries_time():
    m, ids = chain_model()
    ev = define_event(m, "dated", [ids["ac"]], time=TimeSubthimac(2, 9))
    assert ev.time == TimeSubthimac(2, 9)


# ---------------------------------------------------------------------------
# decomposition into generic events


def test_generic_event_decomposes_to_itself():
    m, ids = chain_model()
    ev = define_event(m, "solo", [ids["bp"]])
    [child] = decompose(m, ev)
    assert child is ev


def test_decompose_splits_and_sorts_by_stage_ref():
    m, ids = chain_model()
    ev = define_event(
        m, "whole", list(ids.values()), time=TimeSubthimac(1, 4)
    )
    kids = decompose(m, ev)
    assert [k.id for k in kids] == [
        "whole/a.create",
        "whole/a.release",
        "whole/a.transfer",
        "whole/b.process",
        "whole/b.receive",
        "whole/b.transfer",
    ]
    assert all(len(k.region) == 1 for k in kids)
    assert all(k.time == TimeSubthimac(1, 4) for k in kids)
    # regions partition the parent region
    union = frozenset().union(*(k.region for k in kids))
    assert union == ev.region


# ---------------------------------------------------------------------------
# behavior models


def two_event_fixture():
    m, ids = chain_model()
    e1 = define_event(m, "e1", [ids["ac"], ids["ar"]])
    e2 = define_event(m, "e2", [ids["bt"], ids["bv"], ids["bp"]])
    e3 = define_event(m, "e3", [ids["at"]])
    return m, e1, e2, e3


def test_build_behavior_dedupes_edges():
    _, e1, e2, _ = two_event_fixture()
    b = build_behavior([e1, e2], [("e1", "e2"), ("e1", "e2")])
    assert b.edges == (("e1", "e2"),)
    assert set(b.events) == {"e1", "e2"}


def test_build_behavior_rejects_self_loop_and_unknown():
    _, e1, e2, _ = two_event_fixture()
    with pytest.raises(SelfLoop):
        build_behavior([e1, e2], [("e1", "e1")])
    with pytest.raises(UnknownEvent):
        build_behavior([e1, e2], [("e1", "nope")])


def test_b1_fires_without_a_connecting_arrow():
    m, e1, e2, _ = two_event_fixture()
    # e1 = {a.create, a.release}; e2 = machine b: the only arrow out of
    # e1 lands on a.transfer, not inside e2
    b = build_behavior([e1, e2], [("e1", "e2")])
    diags = check_behavior(m, b)
    assert [(d.code, d.subject) for d in diags] == [("B1", "e1->e2")]
    assert diags[0].severity == "warning"


def test_b1_satisfied_by_flow_or_trigger():
    m, e1, e2, e3 = two_event_fixture()
    # a.release -> a.transfer flows out of e1 into e3: no B1 on that edge
    b = build_behavior([e1, e3, e2], [("e1", "e3"), ("e3", "e2")])
    assert check_behavior(m, b) == []


def test_b2_flags_isolated_event():
    m, e1, e2, e3 = two_event_fixture()
    b = build_behavior([e1, e2, e3], [("e1", "e2")])
    diags = check_behavior(m, b)
    # the e1->e2 edge also lacks an arrow (B1); e3 sits alone (B2)
    assert ("B2", "e3") in [(d.code, d.subject) for d in diags]


def test_mutual_cycle_yields_b2_for_both_and_b3():
    m, e1, e2, e3 = two_event_fixture()
    b = BehaviorModel(
        events={"e1": e1, "e2": e2}, edges=(("e1", "e2"), ("e2", "e1"))
    )
    diags = check_behavior(m, b)
    codes = [d.code for d in diags]
    assert codes == sorted(codes)
    assert codes.count("B2") == 2
    assert codes.count("B3") == 1
    b3 = next(d for d in diags if d.code == "B3")
    assert "->" in b3.subject


def test_toast_chronology_findings_are_the_accepted_two(toast):
    diags = check_behavior(toast.model, toast.behaviors["breakfast"])
    assert [(d.code, d.subject) for d in diags] == [
        ("B1", "toast_arrives->butter_arrives"),
        ("B2", "buttering_the_toast"),
    ]


def test_signal_chronology_edge_is_carried_by_time_alone(signal):
    diags = check_behavior(signal.model, signal.behaviors["wave"])
    assert [(d.code, d.subject) for d in diags] == [
        ("B1", "signal_low->signal_high")
    ]


def test_library_chronology_is_clean(library):
    assert check_behavior(library.model, library.behaviors["library"]) == []


# ---------------------------------------------------------------------------
# movement between regions


def picnic_events(picnic):
    return (
        by_name(picnic, "picnic_in_building"),
        by_name(picnic, "picnic_moving"),
        by_name(picnic, "picnic_in_garden"),
    )


def test_moving_straddles_the_building_door(picnic):
    m = picnic.model
    inside, moving, _ = picnic_events(picnic)
    delta = event_moved(inside, moving)
    ref = m.stage_ref
    assert {ref(s) for s in delta.left} == {"building.create"}
    assert {ref(s) for s in delta.retained} == {"building.process"}
    assert {ref(s) for s in delta.entered} == {
        "building.release",
        "building.transfer",
        "garden.transfer",
        "garden.receive",
    }
    assert delta.fuzzy


def test_clean_move_is_not_fuzzy(picnic):
    inside, _, garden = picnic_events(picnic)
    delta = event_moved(inside, garden)
    assert delta.retained == frozenset()
    assert not delta.fuzzy
    assert delta.left == inside.region
    assert delta.entered == garden.region


def test_moving_into_the_garden_is_fuzzy_too(picnic):
    m = picnic.model
    _, moving, garden = picnic_events(picnic)
    delta = event_moved(moving, garden)
    assert {m.stage_ref(s) for s in delta.retained} == {"garden.receive"}
    assert delta.fuzzy


def test_unmoved_event_has_empty_delta(picnic):
    inside, _, _ = picnic_events(picnic)
    delta = event_moved(inside, inside)
    assert delta.entered == delta.left == frozenset()
    assert delta.retained == inside.region
    assert not delta.fuzzy
