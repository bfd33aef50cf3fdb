"""The simulator against the naive engine in ``reference_sim``."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, note, settings
from hypothesis import strategies as st

import reference_sim
from thimac import simulate
from thimac.dsl import parse, serialize
from thimac.events import EventDef
from thimac.model import KIND_ORDER, ActionKind, legal_successor, new_model
from thimac.simulate import ScenarioError, StuckThing, load_scenario, render_trace


@st.composite
def worlds(draw):
    """A random legal model and scenario text for it.

    Nesting, branches with and without anchors, gates, triggers into create
    and other stages, late injections and ``choose`` lines, at most one of
    which names a flow that leaves another stage.  Machine m0 always has a
    create -> process -> release -> transfer spine whose release stage is
    a gate that its process stage wakes, so things queue and leave together.
    The order in which things move shows in a trace only through departure
    numbers and birth labels, hence the many ``choose`` lines at branches.
    """
    m = new_model()
    tids: list[str] = []
    for i in range(draw(st.integers(1, 5))):
        parent = draw(st.sampled_from([None, *tids]))
        tids.append(m.add_thimac(f"m{i}", parent))
    stages = []
    for n, tid in enumerate(tids):
        kinds = draw(st.sets(st.sampled_from(KIND_ORDER), min_size=2))
        if n == 0:
            kinds |= set(KIND_ORDER[:4])
        stages += [m.add_stage(tid, kind) for kind in KIND_ORDER if kind in kinds]
    for a, b in zip(stages[:3], stages[1:4]):
        m.add_flow(a, b)
    m.add_trigger(stages[1], stages[2])

    def legal(a, b):
        sa, sb = m.stages[a], m.stages[b]
        same = sa.owner == sb.owner or m.nesting_related(sa.owner, sb.owner)
        return legal_successor(sa.kind, sb.kind, same)

    flow_pairs = [(a, b) for a in stages for b in stages if a != b and legal(a, b)]
    for a, b in draw(st.lists(st.sampled_from(flow_pairs), max_size=14)) if flow_pairs else ():
        m.add_flow(a, b, anchor=draw(st.none() | st.integers(1, 4)))
    pairs = [(a, b) for a in stages for b in stages if a != b]
    fired = [(a, b) for a, b in pairs if m.stages[a].kind is ActionKind.PROCESS]
    births = [(a, b) for a, b in fired if m.stages[b].kind is ActionKind.CREATE]
    # more gates with a way out, on the path of things injected at m0
    reach, exits = {stages[0]}, {f.src for f in m.flows.values()}
    for _ in stages:
        reach |= {f.dst for f in m.flows.values() if f.src in reach}
    wakes = [(a, b) for a, b in fired if {a, b} <= reach & exits and (a, b) not in births]
    for some in (births, wakes, pairs):
        for a, b in draw(st.lists(st.sampled_from(some), max_size=3)) if some else ():
            m.add_trigger(a, b)

    lines = []
    creators = [m.thimac_path(t) for t in tids if ActionKind.CREATE in m.thimacs[t].stages]
    ticks = st.integers(0, 6) | st.integers(40, 120)
    injected = draw(st.lists(st.tuples(ticks, st.sampled_from(creators)), min_size=1, max_size=8))
    lines += [f"inject {t} {path} p{n}" for n, (t, path) in enumerate(injected)]
    flows = list(m.flows.values())
    choices = {}  # (stage, departure number) -> flow id
    for sid in stages:
        leaving = [f.id for f in flows if f.src == sid]
        if len(leaving) > 1:
            picks = draw(st.lists(st.none() | st.sampled_from(leaving), max_size=6))
            choices.update(((sid, occ), fid) for occ, fid in enumerate(picks) if fid)
    if draw(st.integers(0, 3)) == 0:
        wrong = (draw(st.sampled_from(flows)).src, draw(st.integers(0, 3)))
        choices.setdefault(wrong, draw(st.sampled_from(flows)).id)
    lines += [f"choose {m.stage_ref(sid)} {occ} {fid}" for (sid, occ), fid in choices.items()]
    lines.append(f"max {draw(st.integers(1, 40) | st.integers(150, 200))}")
    return m, "\n".join(lines)


# Thing "old" (born first) takes the long way round, through z and x's
# receive stage; "young" waits at the gate x.process, which y's process
# stage ("bell") wakes.  The two then leave one stage in the same tick,
# where a choice tells them apart: they must go in creation order.
QUEUE = parse(
    """
    thimac x { create; process; release; transfer; receive;
               thimac n { release; transfer; } thimac m { transfer; } }
    thimac y { create; process; }
    thimac z { create; release; transfer; }
    flow z.create -> z.release;
    flow z.release -> z.transfer;
    flow z.transfer -> x.transfer;
    flow x.transfer -> x.receive;
    flow x.create -> x.process;
    flow x.process -> x.release anchor 1;
    flow x.process -> x.n.release anchor 2;
    flow x.release -> x.n.transfer anchor 3;
    flow x.release -> x.m.transfer anchor 4;
    flow x.receive -> x.process anchor 5;
    flow x.receive -> x.release anchor 6;
    flow y.create -> y.process;
    trigger y.process => x.process;
    """
).model
START = "inject 0 z old\ninject 1 x young\nmax 40\n"
# "young" rests at the gate before "old" does; both wake at tick 6
WAKE_TOGETHER = START + "inject 4 y bell\nchoose x.process 0 2\n"
# "old" walks into x.release as "young" is woken into it, at tick 5
MEET_AFTER_WAKING = START + "inject 3 y bell\nchoose x.receive 0 6\nchoose x.release 0 4\n"
# the sleepers woken at tick 6 meet a choice naming x.receive's flow: stuck
WAKE_INTO_BAD_CHOICE = START + "inject 4 y bell\nchoose x.process 0 5\n"
# as above, and "late" leaves z.create by a bad choice in the same tick; an
# awakening goes before a move, so the run is stuck at x.process
WAKE_BEFORE_MOVE = WAKE_INTO_BAD_CHOICE + "inject 5 z late\nchoose z.create 1 5\n"


def outcome(engine, model, scenario, **kwargs):
    """The run's trace, or where it got stuck."""
    try:
        return engine.run(model, scenario, **kwargs)
    except StuckThing as exc:
        return ("stuck", exc.tick, exc.stage_ref, str(exc))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds())
@example((QUEUE, WAKE_TOGETHER))
@example((QUEUE, MEET_AFTER_WAKING))
@example((QUEUE, WAKE_INTO_BAD_CHOICE))
@example((QUEUE, WAKE_BEFORE_MOVE))
def test_simulator_matches_the_reference_engine(world):
    model, text = world
    note(serialize(model))
    scenario = load_scenario(model, text)
    cut = None
    try:
        want = outcome(reference_sim, model, scenario, budget=2000)
    except reference_sim.OverBudget as over:
        # births that feed births: both engines stop at the same tick, so
        # compare them again on the ticks the budget let through
        with mock.patch.object(simulate, "ENTRY_BUDGET", 2000):
            cut = simulate.run(model, scenario)
        assert cut.truncated
        assert len(cut.labels) == over.args[0]
        scenario = scenario._replace(max_ticks=cut.final_tick + 1)
        want = outcome(reference_sim, model, scenario)
    got = outcome(simulate, model, scenario)
    assert got == want
    if isinstance(want, tuple):  # stuck
        return
    assert render_trace(model, got) == reference_sim.render_trace(model, want)
    if cut is not None:
        assert (got.ticks, got.numbers, got.labels) == (cut.ticks, cut.numbers, cut.labels)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds(), st.data())
def test_projection_matches_the_reference(world, data):
    """Random regions, overlapping or not, in random declaration order."""
    model, text = world
    try:
        with mock.patch.object(simulate, "ENTRY_BUDGET", 2000):
            trace = simulate.run(model, load_scenario(model, text))
    except StuckThing:
        return
    regions = st.sets(st.sampled_from(sorted(model.stages)), min_size=1)
    events = [
        EventDef(f"e{n}", f"e{n}", frozenset(region))
        for n, region in enumerate(data.draw(st.lists(regions, max_size=6)))
    ]
    got = simulate.project(model, trace, events)
    assert (got.events, got.uncovered) == reference_sim.project(model, trace, events)


def trace_or_stuck(model, scenario):
    try:
        return simulate.run(model, scenario)
    except StuckThing as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds())
def test_runs_keep_the_engine_invariants(world):
    """Entries sorted by (tick, declaration number, thing), a stage map that
    numbers every stage in declaration order, at most one entry per thing
    per tick, births only at create stages, each step along a flow out of
    the thing's previous stage, a wait of more than one tick only at a gate,
    and an equal trace from a second run of the same scenario."""
    model, text = world
    scenario = load_scenario(model, text)
    with mock.patch.object(simulate, "ENTRY_BUDGET", 2000):
        trace = trace_or_stuck(model, scenario)
        assert trace_or_stuck(model, scenario) == trace
    if isinstance(trace, str):
        return
    entries = list(zip(trace.ticks, trace.numbers, trace.labels))
    assert entries == sorted(entries)
    assert trace.stages == {n: (sid, s.kind) for n, (sid, s) in enumerate(model.stages.items())}
    assert len({(tick, thing) for tick, _, thing in entries}) == len(entries)
    born = {}
    for tick, _, thing in entries:  # entries are sorted by tick
        born.setdefault(thing, tick)
    path = model.thimac_path(scenario.injections[0][1])
    for thing in born.keys() - {label for _, _, label in scenario.injections}:
        with pytest.raises(ScenarioError, match="reserved for trigger-born things"):
            load_scenario(model, f"inject 0 {path} {thing}")  # a trigger bore it
    for tick, n, thing in entries:
        assert (trace.stages[n][1] is ActionKind.CREATE) == (tick == born[thing])
    targets = {g.dst for g in model.triggers.values()}
    gates = {sid for sid in targets if model.stages[sid].kind is not ActionKind.CREATE}
    last = {}  # thing -> (tick, stage) of its previous entry
    for tick, n, thing in entries:
        sid = trace.stages[n][0]
        if thing in last:
            was, src = last[thing]
            assert sid in {f.dst for f in model.flows_from.get(src, ())}
            assert tick - was == 1 or src in gates
        last[thing] = tick, sid
