"""Static-model construction and the succession grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thimac.dsl import _nesting
from thimac.model import (
    ActionKind,
    DottedName,
    DuplicateAlias,
    DuplicateKindInMachine,
    DuplicateSiblingName,
    EmptyRegion,
    IllegalSuccession,
    KIND_ORDER,
    LEGAL_SUCCESSIONS,
    SelfTrigger,
    UnknownParent,
    UnknownStage,
    UnknownThimac,
    UnpairedBoundaryCrossing,
    anchor_order,
    legal_successor,
    new_model,
)


def chain_model():
    """a{c,rel,t} -> b{t,rcv,p}, the minimal two-machine hop."""
    m = new_model()
    a = m.add_thimac("a")
    b = m.add_thimac("b")
    stages = {}
    for kind in (ActionKind.CREATE, ActionKind.RELEASE, ActionKind.TRANSFER):
        stages["a", kind] = m.add_stage(a, kind)
    for kind in (ActionKind.TRANSFER, ActionKind.RECEIVE, ActionKind.PROCESS):
        stages["b", kind] = m.add_stage(b, kind)
    return m, a, b, stages


def test_kind_letters():
    assert [k.letter for k in KIND_ORDER] == ["C", "P", "R", "T", "R"]
    assert str(ActionKind.RECEIVE) == "receive"


def test_legality_table_has_exactly_eight_pairs():
    assert len(LEGAL_SUCCESSIONS) == 8
    same = {(a, b) for a, b, scope in LEGAL_SUCCESSIONS if scope}
    cross = {(a, b) for a, b, scope in LEGAL_SUCCESSIONS if not scope}
    assert cross == {(ActionKind.TRANSFER, ActionKind.TRANSFER)}
    assert (ActionKind.PROCESS, ActionKind.CREATE) not in same


def test_legal_successor_against_golden(golden_dir):
    by_name = {k.value: k for k in ActionKind}
    for line in (golden_dir / "legal_successions.txt").read_text().splitlines():
        frm, to, scope, verdict = line.split()
        got = legal_successor(by_name[frm], by_name[to], scope == "same")
        assert got == (verdict == "yes"), line


def test_add_flow_accepts_legal_chain():
    m, a, b, st = chain_model()
    m.add_flow(st["a", ActionKind.CREATE], st["a", ActionKind.RELEASE])
    m.add_flow(st["a", ActionKind.RELEASE], st["a", ActionKind.TRANSFER])
    m.add_flow(st["a", ActionKind.TRANSFER], st["b", ActionKind.TRANSFER])
    m.add_flow(st["b", ActionKind.TRANSFER], st["b", ActionKind.RECEIVE])
    fid = m.add_flow(st["b", ActionKind.RECEIVE], st["b", ActionKind.PROCESS])
    assert m.flows[fid].src == st["b", ActionKind.RECEIVE]


def test_add_flow_rejects_bad_same_machine_succession():
    m, a, b, st = chain_model()
    with pytest.raises(IllegalSuccession):
        m.add_flow(st["a", ActionKind.CREATE], st["a", ActionKind.TRANSFER])


def test_boundary_check_fires_before_succession_check():
    # create -> receive across machines is wrong twice over; the boundary
    # complaint must win.
    m, a, b, st = chain_model()
    with pytest.raises(UnpairedBoundaryCrossing):
        m.add_flow(st["a", ActionKind.CREATE], st["b", ActionKind.RECEIVE])


def test_cross_machine_release_to_transfer_is_unpaired():
    m, a, b, st = chain_model()
    with pytest.raises(UnpairedBoundaryCrossing):
        m.add_flow(st["a", ActionKind.RELEASE], st["b", ActionKind.TRANSFER])


def test_nested_flows_use_same_machine_grammar():
    m = new_model()
    outer = m.add_thimac("outer")
    inner = m.add_thimac("inner", outer)
    rcv = m.add_stage(outer, ActionKind.RECEIVE)
    rel = m.add_stage(outer, ActionKind.RELEASE)
    p = m.add_stage(inner, ActionKind.PROCESS)
    m.add_flow(rcv, p)  # receive -> process, exempt from the boundary rule
    m.add_flow(p, rel)
    # but transfer -> transfer between nested machines is NOT legal
    t_out = m.add_stage(outer, ActionKind.TRANSFER)
    t_in = m.add_stage(inner, ActionKind.TRANSFER)
    with pytest.raises(IllegalSuccession):
        m.add_flow(t_out, t_in)


def test_duplicate_kind_in_machine():
    m = new_model()
    a = m.add_thimac("a")
    m.add_stage(a, ActionKind.CREATE)
    with pytest.raises(DuplicateKindInMachine):
        m.add_stage(a, ActionKind.CREATE)


def test_duplicate_sibling_name():
    m = new_model()
    m.add_thimac("a")
    with pytest.raises(DuplicateSiblingName):
        m.add_thimac("a")
    parent = m.add_thimac("p")
    m.add_thimac("a", parent)  # same name under another parent is fine
    with pytest.raises(DuplicateSiblingName):
        m.add_thimac("a", parent)


def test_dotted_name_is_rejected_so_every_stage_keeps_its_own_ref():
    m = new_model()
    a = m.add_thimac("a")
    inner = m.add_stage(m.add_thimac("b", a), ActionKind.CREATE)
    with pytest.raises(DottedName):
        m.add_thimac("a.b")  # its create stage would also read a.b.create
    with pytest.raises(DottedName):
        m.add_thimac("b.", a)
    assert len(m.thimacs) == 2
    assert m.resolve_stage_ref("a.b.create") == inner


def test_unknown_parent_and_stage():
    m = new_model()
    with pytest.raises(UnknownParent):
        m.add_thimac("x", "t999")
    a = m.add_thimac("a")
    with pytest.raises(UnknownThimac):
        m.add_stage("t999", ActionKind.CREATE)
    c = m.add_stage(a, ActionKind.CREATE)
    with pytest.raises(UnknownStage):
        m.add_flow(c, "s999")
    with pytest.raises(UnknownStage):
        m.add_trigger("s999", c)


def test_self_trigger_rejected():
    m = new_model()
    a = m.add_thimac("a")
    p = m.add_stage(a, ActionKind.PROCESS)
    with pytest.raises(SelfTrigger):
        m.add_trigger(p, p)


def test_trigger_ignores_flow_grammar():
    # process => create is exactly what triggers are for.
    m, a, b, st = chain_model()
    gid = m.add_trigger(st["b", ActionKind.PROCESS], st["a", ActionKind.CREATE])
    assert m.triggers[gid].dst == st["a", ActionKind.CREATE]


def test_paths_and_refs_round_trip():
    m = new_model()
    outer = m.add_thimac("outer")
    inner = m.add_thimac("inner", outer)
    p = m.add_stage(inner, ActionKind.PROCESS, alias="crunch")
    assert m.thimac_path(inner) == "outer.inner"
    assert m.stage_ref(p) == "outer.inner.process"
    assert m.resolve_stage_ref("outer.inner.process") == p
    assert m.resolve_stage_ref("outer.inner.crunch") == p
    assert m.resolve_stage_ref("outer.inner.transfer") is None
    assert m.resolve_stage_ref("nowhere.process") is None
    assert m.thimac_at.get("outer.inner") == inner


def test_connected_regions():
    m, a, b, st = chain_model()
    m.add_flow(st["a", ActionKind.CREATE], st["a", ActionKind.RELEASE])
    m.add_flow(st["b", ActionKind.RECEIVE], st["b", ActionKind.PROCESS])
    assert m.connected([st["a", ActionKind.CREATE], st["a", ActionKind.RELEASE]])
    assert not m.connected([st["a", ActionKind.CREATE], st["b", ActionKind.PROCESS]])


def test_trigger_counts_for_connectivity():
    m, a, b, st = chain_model()
    m.add_trigger(st["b", ActionKind.PROCESS], st["a", ActionKind.CREATE])
    assert m.connected([st["b", ActionKind.PROCESS], st["a", ActionKind.CREATE]])


def test_connected_rejects_empty_and_unknown():
    m, *_ = chain_model()
    with pytest.raises(EmptyRegion):
        m.connected([])
    with pytest.raises(UnknownStage):
        m.connected(["s999"])


def test_singleton_region_is_connected():
    m, a, b, st = chain_model()
    assert m.connected([st["a", ActionKind.CREATE]])


def test_depth_first_iteration_order():
    m = new_model()
    r1 = m.add_thimac("r1")
    c1 = m.add_thimac("c1", r1)
    m.add_thimac("g1", c1)
    m.add_thimac("c2", r1)
    m.add_thimac("r2")
    walk = [(m.thimacs[t].name, depth, opening) for t, depth, opening in _nesting(m)]
    assert walk == [
        ("r1", 0, True),
        ("c1", 1, True),
        ("g1", 2, True),
        ("g1", 2, False),
        ("c1", 1, False),
        ("c2", 1, True),
        ("c2", 1, False),
        ("r1", 0, False),
        ("r2", 0, True),
        ("r2", 0, False),
    ]


def test_outgoing_flows_declaration_order():
    m = new_model()
    a = m.add_thimac("a")
    b = m.add_thimac("b")
    c = m.add_thimac("c")
    ta = m.add_stage(a, ActionKind.TRANSFER)
    tb = m.add_stage(b, ActionKind.TRANSFER)
    tc = m.add_stage(c, ActionKind.TRANSFER)
    m.add_flow(ta, tb, anchor=9)
    m.add_flow(ta, tc, anchor=4)
    outs = m.flows_from[ta]
    assert [f.anchor for f in outs] == [9, 4]
    assert min(outs, key=anchor_order).anchor == 4  # the lowest anchor leaves first


# ---------------------------------------------------------------------------
# the lookup tables add_* keeps


@st.composite
def built_models(draw):
    """A random model built only through ``add_*``: nesting, names with and
    without dots (a dotted one is rejected), aliases (one used twice in a
    thimac is rejected), anchored and unanchored flows, triggers."""
    m = new_model()
    tids: list[str] = []
    for _ in range(draw(st.integers(1, 8))):
        parent = draw(st.sampled_from([None, *tids]))
        name = draw(st.sampled_from(["a", "b", "c", "a.b", "b.c", ""]))
        if "." in name:
            with pytest.raises(DottedName):
                m.add_thimac(name, parent)
            continue
        try:
            tids.append(m.add_thimac(name, parent))
        except DuplicateSiblingName:
            pass
    stages: list[str] = []
    for tid in tids:
        used = set()
        for kind in draw(st.lists(st.sampled_from(KIND_ORDER), unique=True)):
            alias = draw(st.sampled_from([None, "x", "y", "create"]))
            if alias is not None and alias in used:
                with pytest.raises(DuplicateAlias):
                    m.add_stage(tid, kind, alias)
                continue
            used.add(alias)
            stages.append(m.add_stage(tid, kind, alias))
    if stages:
        ends = st.sampled_from(stages)
        anchors = st.one_of(st.none(), st.integers(-2, 4))
        for _ in range(draw(st.integers(0, 25))):
            try:
                m.add_flow(draw(ends), draw(ends), anchor=draw(anchors))
            except (IllegalSuccession, UnpairedBoundaryCrossing):
                pass
        for _ in range(draw(st.integers(0, 6))):
            try:
                m.add_trigger(draw(ends), draw(ends))
            except SelfTrigger:
                pass
    return m


@settings(max_examples=300, deadline=None)
@given(built_models())
def test_tables_match_a_derivation_from_the_raw_dicts(m):
    def ids(table):
        return {key: [arrow.id for arrow in arrows] for key, arrows in table.items()}

    flows, triggers = list(m.flows.values()), list(m.triggers.values())
    assert ids(m.flows_from) == ids(
        {s: [f for f in flows if f.src == s] for s in {f.src for f in flows}}
    )
    assert ids(m.triggers_from) == ids(
        {s: [g for g in triggers if g.src == s] for s in {g.src for g in triggers}}
    )
    first = {}
    for f in reversed(flows):
        if f.anchor is not None:
            first[f.anchor] = f.id
    assert {anchor: f.id for anchor, f in m.by_anchor.items()} == first

    def path(tid):  # from the raw parent links, not the table under test
        t = m.thimacs[tid]
        return t.name if t.parent is None else f"{path(t.parent)}.{t.name}"

    def ancestors(tid):
        parent = m.thimacs[tid].parent
        return set() if parent is None else {parent} | ancestors(parent)

    assert m.thimac_at == {path(tid): tid for tid in m.thimacs}
    for tid in m.thimacs:
        assert m.thimac_path(tid) == path(tid)
        assert m.thimac_at.get(path(tid)) == tid
        for other in m.thimacs:
            assert m.is_ancestor(other, tid) == (other in ancestors(tid))
    for sid, stage in m.stages.items():
        assert m.resolve_stage_ref(m.stage_ref(sid)) == sid
        if stage.alias not in (None, "create"):  # a kind keyword resolves as the kind
            assert m.resolve_stage_ref(f"{m.thimac_path(stage.owner)}.{stage.alias}") == sid


@settings(max_examples=200, deadline=None)
@given(built_models())
def test_nesting_walks_the_forest_of_parent_links(m):
    def preorder(parent, depth):  # each thimac after its parent, siblings declared order
        for tid, t in m.thimacs.items():
            if t.parent == parent:
                yield tid, depth
                yield from preorder(tid, depth + 1)

    opened, open_now = [], []
    for tid, depth, opening in _nesting(m):
        if opening:
            opened.append((tid, depth))
            open_now.append((tid, depth))
        else:  # closes the innermost open block
            assert open_now.pop() == (tid, depth)
    assert not open_now
    assert opened == list(preorder(None, 0))
