"""Graphviz export: nesting, edge styles, highlighting."""

from thimac import emit_dot, new_model, parse
from thimac.model import ActionKind


def test_take_matches_golden(take, golden_dir):
    want = (golden_dir / "take.dot").read_text()
    assert emit_dot(take.model) == want


def test_empty_model_is_a_valid_digraph():
    out = emit_dot(new_model())
    assert out.startswith("digraph tm {")
    assert out.rstrip().endswith("}")
    assert "subgraph" not in out


def test_nested_thimacs_become_nested_clusters(toast):
    out = emit_dot(toast.model)
    jones = out.index('label="jones"')
    toast_hand = out.index('label="toast_hand"')
    # toast_hand's cluster opens inside jones's block, before it closes
    assert jones < toast_hand
    assert out.count("subgraph cluster_") == len(toast.model.thimacs)


def test_triggers_are_dashed_flows_are_not(toast):
    out = emit_dot(toast.model)
    dashed = [ln for ln in out.splitlines() if "style=dashed" in ln]
    assert len(dashed) == len(toast.model.triggers)
    solid = [
        ln
        for ln in out.splitlines()
        if " -> " in ln and "style=dashed" not in ln
    ]
    assert len(solid) == len(toast.model.flows)


def test_highlight_fills_exactly_the_region(toast):
    ev = next(e for e in toast.events if e.name == "toast_buttered")
    out = emit_dot(toast.model, highlight=ev.region)
    filled = [ln for ln in out.splitlines() if "fillcolor" in ln]
    assert len(filled) == len(ev.region)
    assert emit_dot(toast.model).count("fillcolor") == 0


def test_anchor_and_carries_appear_in_edge_labels(take):
    out = emit_dot(take.model)
    assert '[label="(3) parcel"]' in out


def test_aliases_label_nodes():
    result = parse("thimac sig { create; process as hold; }")
    out = emit_dot(result.model)
    assert 'label="hold"' in out


def test_label_escaping():
    m = new_model()
    a = m.add_thimac('quo"ted')
    m.add_stage(a, ActionKind.CREATE)
    out = emit_dot(m)
    assert 'label="quo\\"ted"' in out
