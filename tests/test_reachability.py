"""Every reachability question the package asks agrees with a brute-force
closure.

A region's connectivity, B2's unreachable events and transitive
conformance each walk a directed graph.  These properties compare each
walk with the transitive closure of an adjacency matrix on random
graphs, cycles and repeated events included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from thimac.events import EventDef, build_behavior, check_behavior
from thimac.model import KIND_ORDER, ActionKind, ModelError, new_model
from thimac.simulate import conforms


def closure(nodes, edges):
    """``paths[a][b]``: a path of one or more edges leads from a to b."""
    paths = {a: {b: (a, b) in edges for b in nodes} for a in nodes}
    for k in nodes:  # Warshall
        for a in nodes:
            if paths[a][k]:
                for b in nodes:
                    paths[a][b] = paths[a][b] or paths[k][b]
    return paths


@st.composite
def digraphs(draw):
    nodes = [f"e{i}" for i in range(draw(st.integers(1, 7)))]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = {(a, b) for a, b in draw(st.lists(pairs, max_size=14)) if a != b}
    return nodes, edges


def behavior_over(nodes, edges):
    """A model with one process stage per node, one event on each, and the
    chronology ``edges``."""
    m = new_model()
    events = []
    for name in nodes:
        sid = m.add_stage(m.add_thimac(name), ActionKind.PROCESS)
        events.append(EventDef(name, name, frozenset({sid})))
    return m, events, build_behavior(events, sorted(edges))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_b2_flags_exactly_the_events_no_source_reaches(graph):
    nodes, edges = graph
    m, _, behavior = behavior_over(nodes, edges)
    paths = closure(nodes, edges)
    heads, tails = {a for a, _ in edges}, {b for _, b in edges}
    sources = heads - tails
    expected = [
        b for b in nodes if b not in sources and not any(paths[s][b] for s in sources)
    ]
    found = [d.subject for d in check_behavior(m, behavior) if d.code == "B2"]
    assert found == sorted(expected)


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.data())
def test_conforms_accepts_exactly_the_pairs_an_edge_or_a_path_joins(graph, data):
    nodes, edges = graph
    _, events, behavior = behavior_over(nodes, edges)
    projected = data.draw(st.lists(st.sampled_from(events), max_size=9))
    ids = [ev.id for ev in projected]
    paths = closure(nodes, edges)
    for transitive in (False, True):
        expected = tuple(
            f"{a} -> {b} is not an allowed succession"
            for a, b in zip(ids, ids[1:])
            if not ((a, b) in edges or transitive and paths[a][b])
        )
        report = conforms(behavior, projected, transitive=transitive)
        assert report.problems == expected
        assert report.ok == (not expected)


@st.composite
def regions(draw):
    """A model whose stages random flows and triggers join, and a stage set."""
    m = new_model()
    stages = []
    for i in range(draw(st.integers(1, 4))):
        tid = m.add_thimac(f"t{i}")
        kinds = draw(st.lists(st.sampled_from(KIND_ORDER), min_size=1, unique=True))
        stages.extend(m.add_stage(tid, kind) for kind in kinds)
    arrows = st.tuples(st.booleans(), st.sampled_from(stages), st.sampled_from(stages))
    for is_flow, a, b in draw(st.lists(arrows, max_size=14)):
        try:
            m.add_flow(a, b) if is_flow else m.add_trigger(a, b)
        except ModelError:
            pass
    return m, draw(st.sets(st.sampled_from(stages), min_size=1))


@settings(max_examples=300, deadline=None)
@given(regions())
def test_connected_exactly_when_every_stage_is_joined(case):
    m, region = case
    nodes = sorted(region)
    arrows = [*m.flows.values(), *m.triggers.values()]
    edges = {(x.src, x.dst) for x in arrows if {x.src, x.dst} <= region}
    paths = closure(nodes, edges | {(b, a) for a, b in edges})
    expected = all(b == nodes[0] or paths[nodes[0]][b] for b in nodes)
    assert m.connected(region) == expected
