"""Diagram audits V1-V12 and the verb lexicon."""

import importlib
import random
import re
from pathlib import Path

import pytest

from conftest import TAKE_EDITS, parse_corpus
from thimac import check_behavior, parse, validate
from thimac.model import ActionKind, ModelError, StaticModel, new_model
from thimac.validate import (
    _SEVERITY,
    UNVERIFIED_VERBS,
    UnknownVerb,
    VerbLexicon,
    default_lexicon,
)


def codes(diags):
    return sorted(d.code for d in diags)


def hop_model():
    m = new_model()
    a = m.add_thimac("a")
    b = m.add_thimac("b")
    ac = m.add_stage(a, ActionKind.CREATE)
    ar = m.add_stage(a, ActionKind.RELEASE)
    at = m.add_stage(a, ActionKind.TRANSFER)
    bt = m.add_stage(b, ActionKind.TRANSFER)
    bv = m.add_stage(b, ActionKind.RECEIVE)
    bp = m.add_stage(b, ActionKind.PROCESS)
    for src, dst in [(ac, ar), (ar, at), (at, bt), (bt, bv), (bv, bp)]:
        m.add_flow(src, dst)
    return m


def test_clean_model_validates_clean():
    assert validate(hop_model()) == []


@pytest.mark.parametrize(
    "name", ["library", "toast", "picnic", "take", "signal"]
)
def test_corpus_has_no_validation_findings(name, request):
    result = request.getfixturevalue(name)
    assert validate(result.model) == []


def test_v1_duplicate_kind_found_in_raw_model():
    # the constructive API forbids this, so build the clash by hand
    m = hop_model()
    original = m.stages[m.resolve_stage_ref("a.create")]
    rogue = original.__class__(
        id="s99", kind=ActionKind.CREATE, owner=original.owner
    )
    m.stages["s99"] = rogue
    diags = validate(m)
    assert "V1" in codes(diags)
    assert all(d.severity == "error" for d in diags if d.code == "V1")


def test_v2_illegal_succession_found_in_raw_model():
    from thimac.model import Flow

    m = hop_model()
    # create -> transfer inside machine a, bypassing add_flow
    m.flows["f99"] = Flow(
        id="f99",
        src=m.resolve_stage_ref("a.create"),
        dst=m.resolve_stage_ref("a.transfer"),
    )
    diags = validate(m)
    assert "V2" in codes(diags)


def test_v2_dangling_flow_end_is_reported_not_raised():
    from thimac.model import Flow

    m = hop_model()
    lone = m.add_stage(m.add_thimac("c"), ActionKind.TRANSFER)
    m.flows["f99"] = Flow(id="f99", src="s999", dst=lone)
    diags = validate(m)
    assert [(d.code, d.subject) for d in diags] == [("V2", "f99"), ("V6", "c.transfer")]


def test_v3_unpaired_boundary_crossing_found_in_raw_model():
    from thimac.model import Flow

    m = hop_model()
    # release (a) -> receive (b): crosses machines without transfer-transfer
    m.flows["f99"] = Flow(
        id="f99",
        src=m.resolve_stage_ref("a.release"),
        dst=m.resolve_stage_ref("b.receive"),
    )
    diags = validate(m)
    assert "V3" in codes(diags)
    assert "V2" not in codes(diags)


def test_v4_nesting_cycle_found_in_raw_model():
    m = new_model()
    a = m.add_thimac("a")
    b = m.add_thimac("b", a)
    m.add_thimac("c", b)  # hangs off the cycle without being in it
    m.thimacs[a].parent = b  # corrupt the forest
    diags = validate(m)
    assert [(d.code, d.subject) for d in diags] == [("V4", "a"), ("V4", "b")]


def test_flows_inside_a_v4_cycle_get_no_succession_check():
    from thimac.model import Flow

    m = new_model()
    a = m.add_thimac("a")
    b = m.add_thimac("b", a)
    c = m.add_stage(a, ActionKind.CREATE)
    t = m.add_stage(b, ActionKind.TRANSFER)
    m.flows["f99"] = Flow(id="f99", src=c, dst=t)  # V2 while b sits under a
    assert codes(validate(m)) == ["V2"]
    m.thimacs[a].parent = b
    diags = validate(m)
    assert [(d.code, d.subject) for d in diags] == [("V4", "a"), ("V4", "b")]


@pytest.mark.parametrize("name", list(TAKE_EDITS))
def test_each_hand_edit_of_take_gives_one_error(name):
    edit, code = TAKE_EDITS[name]
    m = parse_corpus("take").model
    edit(m)
    assert [d.code for d in validate(m) if d.severity == "error"] == [code]


def test_v11_a_stage_off_its_owners_list_is_reported_and_skipped():
    m = parse_corpus("take").model
    receive = m.resolve_stage_ref("c.receive")
    m.stages[receive].owner = "t99"
    assert [(d.code, d.subject, d.message, d.line) for d in validate(m)] == [
        ("V11", receive, "owner thimac 't99' is missing", 15),
    ]
    m.stages[receive].owner = m.thimac_at["a"]
    assert [(d.code, d.subject, d.message) for d in validate(m)] == [
        ("V11", receive, "a does not list it as its receive stage"),
    ]
    m.stages[receive].owner = m.thimac_at["c"]
    m.thimacs[m.thimac_at["a"]].stages[ActionKind.PROCESS] = "s99"
    assert [(d.code, d.subject, d.message, d.line) for d in validate(m)] == [
        ("V11", "a", "lists 's99' as its process stage, which the model does not hold", 6),
    ]
    m.thimacs[m.thimac_at["a"]].stages[ActionKind.PROCESS] = receive
    assert [(d.code, d.subject, d.message) for d in validate(m)] == [
        ("V11", "a", "lists c.receive as its process stage"),
    ]


def test_v12_an_arrow_the_stage_tables_misfile_is_reported():
    from thimac.model import Trigger

    m = parse_corpus("take").model
    ref = m.resolve_stage_ref
    m.flows["f6"].src = ref("b.receive")
    g = Trigger("g9", ref("b.hands.process"), ref("a.create"))
    m.triggers["g9"] = g  # in no table
    m.triggers_from[ref("b.receive")] = [g]
    found = [(d.code, d.subject, d.message, d.line) for d in validate(m)]
    assert found == [
        ("V12", "f6", f"flows_from lists it under {ref('b.hands.process')!r}; "
                      f"its source is {ref('b.receive')!r}", 22),
        ("V12", "g9", f"triggers_from lists it under {ref('b.receive')!r}; "
                      f"its source is {ref('b.hands.process')!r}", 0),
    ]
    m.triggers_from[ref("b.receive")] = []
    assert validate(m)[1].message == (
        f"triggers_from lists it under no stage; its source is {ref('b.hands.process')!r}"
    )
    del m.flows["f9"]  # c.transfer -> c.receive, still in flows_from
    assert [(d.code, d.message) for d in validate(m) if d.subject == "f9"] == [
        ("V12", f"flows_from lists it under {ref('c.transfer')!r}, "
                "but the model holds no such arrow"),
    ]


def test_arrow_findings_carry_the_builders_exception_text():
    from thimac.model import Flow, Trigger

    m = hop_model()
    ref = m.resolve_stage_ref
    arrows = {
        "f97": (ref("a.create"), "s999"),
        "f98": (ref("a.create"), ref("a.transfer")),
        "f99": (ref("a.release"), ref("b.receive")),
        "g98": ("s999", ref("a.create")),
        "g99": (ref("b.process"), ref("b.process")),
    }
    raised = {}
    for aid, (src, dst) in arrows.items():
        add = m.add_flow if aid[0] == "f" else m.add_trigger
        with pytest.raises(ModelError) as exc:
            add(src, dst)
        raised[aid] = (type(exc.value), str(exc.value))
        arrow = (Flow if aid[0] == "f" else Trigger)(aid, src, dst)
        (m.flows if aid[0] == "f" else m.triggers)[aid] = arrow
    found = {d.subject: d.message for d in validate(m) if d.subject in arrows}
    assert found == {aid: message for aid, (_, message) in raised.items()}
    assert [cls.__name__ for cls, _ in raised.values()] == [
        "UnknownStage", "IllegalSuccession", "UnpairedBoundaryCrossing",
        "UnknownStage", "SelfTrigger",
    ]


def test_v5_untouched_stage_is_a_warning():
    m = hop_model()
    b = m.thimac_at.get("b")
    m.add_stage(b, ActionKind.CREATE)  # nothing touches it
    diags = validate(m)
    assert codes(diags) == ["V5"]
    [d] = diags
    assert d.severity == "warning"
    assert d.subject == "b.create"


def test_v5_satisfied_by_a_trigger():
    m = hop_model()
    b = m.thimac_at.get("b")
    sid = m.add_stage(b, ActionKind.CREATE)
    m.add_trigger(m.resolve_stage_ref("b.process"), sid)
    assert validate(m) == []


def test_v6_inward_facing_transfer_is_a_warning():
    m = new_model()
    a = m.add_thimac("a")
    c = m.add_stage(a, ActionKind.CREATE)
    r = m.add_stage(a, ActionKind.RELEASE)
    t = m.add_stage(a, ActionKind.TRANSFER)
    m.add_flow(c, r)
    m.add_flow(r, t)
    diags = validate(m)
    assert codes(diags) == ["V6"]
    assert diags[0].subject == "a.transfer"


def severity_tables():
    """The code -> severity tables of validate's docstring and the README."""
    doc = importlib.import_module("thimac.validate").__doc__
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    return (
        dict(re.findall(r"^([VB]\d+)\s+(error|warning)\s", doc, re.M)),
        dict(re.findall(r"^\| ([VB]\d+) +\| (error|warning) +\|", readme, re.M)),
    )


def test_the_docstring_and_readme_tables_agree_with_severity():
    doc, readme = severity_tables()
    assert doc == readme == _SEVERITY
    assert list(doc) == list(readme)


def test_every_finding_has_the_severity_the_docstring_tables():
    from thimac.events import BehaviorModel, define_event
    from thimac.model import Flow, Trigger

    table, _ = severity_tables()
    assert list(table) == [
        "V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8", "V9", "V10", "V11", "V12",
        "B1", "B2", "B3",
    ]

    m = hop_model()
    ref = m.resolve_stage_ref
    m.stages["s99"] = m.stages[ref("a.create")].__class__(  # V1, and V11 on it
        id="s99", kind=ActionKind.CREATE, owner=m.thimac_at.get("a")
    )
    m.flows["f98"] = Flow(id="f98", src=ref("a.create"), dst=ref("a.transfer"))  # V2
    m.flows["f99"] = Flow(id="f99", src=ref("a.release"), dst=ref("b.receive"))  # V3
    c = m.add_thimac("c")
    m.thimacs[c].parent = m.add_thimac("d", c)  # V4
    e = m.add_thimac("e")
    release = m.add_stage(e, ActionKind.RELEASE)
    m.add_flow(release, m.add_stage(e, ActionKind.TRANSFER))  # V6
    m.triggers["g98"] = Trigger("g98", ref("b.process"), "s999")  # V7
    m.triggers["g99"] = Trigger("g99", ref("b.process"), ref("b.process"))  # V8
    m.stages[ref("b.receive")].alias = m.stages[ref("b.process")].alias = "x"  # V9
    m.thimacs[e].parent = "t99"  # V10
    m.add_stage(m.thimac_at["b"], ActionKind.CREATE)  # V5
    m.flows["f97"] = Flow(id="f97", src=ref("a.create"), dst=ref("a.release"))  # V12
    found = validate(m)

    e1 = define_event(m, "e1", [ref("b.transfer"), ref("b.receive")])
    e2 = define_event(m, "e2", [ref("b.process")])
    edges = (("e1", "e2"), ("e2", "e1"))
    found += check_behavior(m, BehaviorModel({"e1": e1, "e2": e2}, edges))  # B1-B3

    assert {d.code for d in found} == set(table)
    for d in found:
        assert d.severity == table[d.code], d


def test_diagnostic_render_shape():
    m = parse("thimac a {\n\n  transfer;\n}\n").model
    [d] = [x for x in validate(m) if x.code == "V5"]
    assert d.line == 3
    assert d.render("m.tm").startswith("V5 warning m.tm:3 a.transfer - ")


# ---------------------------------------------------------------------------
# randomized legality: models built only from legal steps never trip V2/V3


def random_legal_model(rng: random.Random) -> StaticModel:
    """Grow a model using only table-legal flows; oracle for V2/V3 silence."""
    m = new_model()
    machines = []
    for i in range(rng.randint(2, 5)):
        tid = m.add_thimac(f"m{i}")
        kinds = rng.sample(list(ActionKind), rng.randint(2, 5))
        stages = {k: m.add_stage(tid, k) for k in kinds}
        machines.append((tid, stages))
    same_pairs = [
        (ActionKind.CREATE, ActionKind.PROCESS),
        (ActionKind.CREATE, ActionKind.RELEASE),
        (ActionKind.PROCESS, ActionKind.RELEASE),
        (ActionKind.RELEASE, ActionKind.TRANSFER),
        (ActionKind.TRANSFER, ActionKind.RECEIVE),
        (ActionKind.RECEIVE, ActionKind.PROCESS),
        (ActionKind.RECEIVE, ActionKind.RELEASE),
    ]
    seen = set()
    for tid, stages in machines:
        for frm, to in same_pairs:
            if frm in stages and to in stages and rng.random() < 0.7:
                m.add_flow(stages[frm], stages[to])
                seen.add((stages[frm], stages[to]))
    for _ in range(rng.randint(0, 6)):
        (t1, s1), (t2, s2) = rng.sample(machines, 2)
        if ActionKind.TRANSFER in s1 and ActionKind.TRANSFER in s2:
            key = (s1[ActionKind.TRANSFER], s2[ActionKind.TRANSFER])
            if key not in seen:
                m.add_flow(*key)
                seen.add(key)
    return m


def test_random_legal_models_have_no_v2_v3():
    rng = random.Random(20260817)
    for _ in range(200):
        m = random_legal_model(rng)
        bad = [d for d in validate(m) if d.code in ("V2", "V3")]
        assert bad == []


# ---------------------------------------------------------------------------
# verb lexicon


def test_default_lexicon_has_the_ten_verbs():
    lex = default_lexicon()
    assert lex.verbs() == sorted(
        [
            "take",
            "put",
            "spread",
            "fold",
            "sell",
            "change",
            "display",
            "give",
            "clean",
            "break",
        ]
    )


def test_every_decomposition_is_a_legal_chain():
    from thimac.model import legal_successor

    lex = default_lexicon()
    for verb in lex.verbs():
        steps = lex.decomposition(verb)
        assert len(steps) >= 1
        for (role_a, kind_a), (role_b, kind_b) in zip(steps, steps[1:]):
            assert legal_successor(kind_a, kind_b, role_a == role_b), verb


def test_take_reads_as_handoff():
    lex = default_lexicon()
    assert [k.letter for _, k in lex.decomposition("take")] == [
        "R",
        "T",
        "T",
        "R",
    ]


def test_put_is_agent_driven():
    lex = default_lexicon()
    roles = [role for role, _ in lex.decomposition("put")]
    assert roles == ["agent", "agent", "sink", "sink"]


def test_unknown_verb_raises():
    lex = default_lexicon()
    with pytest.raises(UnknownVerb):
        lex.decomposition("launch")
    with pytest.raises(UnknownVerb):
        lex.decomposition("low")


def test_unverified_verbs_are_flagged_subset():
    lex = default_lexicon()
    assert UNVERIFIED_VERBS < set(lex.verbs())
    assert "take" not in UNVERIFIED_VERBS


def test_registering_illegal_decomposition_fails_at_load():
    lex = VerbLexicon()
    with pytest.raises(ValueError):
        lex.register(
            "teleport",
            [("agent", ActionKind.CREATE), ("agent", ActionKind.TRANSFER)],
        )
    with pytest.raises(ValueError):
        lex.register("noop", [])
    # role change acts as a machine boundary: release->transfer across
    # roles is not legal even though it is legal within one role
    with pytest.raises(ValueError):
        lex.register(
            "shove",
            [("agent", ActionKind.RELEASE), ("sink", ActionKind.TRANSFER)],
        )


def test_behavior_checks_not_in_validate(library):
    # validate() audits the diagram; chronology findings come separately
    assert validate(library.model) == []
    assert check_behavior(library.model, library.behaviors["library"]) == []
