"""A naive tick engine and projection, kept as the oracle for
:mod:`thimac.simulate`.

Every tick scans every thing and every lookup scans the model, which makes
it slow and easy to check by eye.  Tests run it beside
:func:`thimac.simulate.run` on the same model and scenario and require
identical results.  Its budget on entries lets a test give up on a model
whose births multiply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from thimac.events import TimeSubthimac
from thimac.model import ActionKind, StaticModel
from thimac.simulate import (
    GenericEventInstance,
    Scenario,
    StuckThing,
    ThingInstance,
    Trace,
)


class OverBudget(Exception):
    """The run made more entries than its budget allows."""


def outgoing_flows(model: StaticModel, stage_id: str):
    return [f for f in model.flows.values() if f.src == stage_id]


def render_trace(model: StaticModel, trace: Trace) -> str:
    """One line per entry: ``<tick> <thing> <stage-ref> <kind>``."""
    return "\n".join(
        f"{e.time.start} {e.thing} {model.stage_ref(e.stage)} {e.kind.value}"
        for e in trace.entries
    )


@dataclass
class SimState:
    model: StaticModel
    scenario: Scenario
    time: int = 0
    things: list[ThingInstance] = field(default_factory=list)
    entries: list[GenericEventInstance] = field(default_factory=list)
    births: dict[int, list[tuple[str, str]]] = field(default_factory=dict)
    awakenings: dict[int, list[str]] = field(default_factory=dict)
    departures: dict[str, int] = field(default_factory=dict)
    birth_counts: dict[str, int] = field(default_factory=dict)
    gates: frozenset[str] = frozenset()


def new_state(model: StaticModel, scenario: Scenario) -> SimState:
    state = SimState(model=model, scenario=scenario)
    state.gates = frozenset(
        g.dst
        for g in model.triggers.values()
        if model.stages[g.dst].kind is not ActionKind.CREATE
    )
    for tick, tid, label in scenario.injections:
        create_sid = model.thimacs[tid].stages[ActionKind.CREATE]
        state.births.setdefault(tick, []).append((create_sid, label))
    return state


def _enter(state: SimState, thing: ThingInstance, sid: str, t: int) -> None:
    """Put a thing at a stage for tick t and apply the stage's effects."""
    model = state.model
    thing.stage = sid
    thing.entered_at = t
    stage = model.stages[sid]
    state.entries.append(
        GenericEventInstance(thing.label, sid, stage.kind, TimeSubthimac(t, t + 1))
    )
    if stage.kind is ActionKind.PROCESS:
        for trig in model.triggers.values():
            if trig.src != sid:
                continue
            target = model.stages[trig.dst]
            if target.kind is ActionKind.CREATE:
                name = model.thimacs[target.owner].name
                n = state.birth_counts.get(name, 0) + 1  # numbered per owner name
                state.birth_counts[name] = n
                state.births.setdefault(t + 1, []).append((trig.dst, f"{name}-{n}"))
            else:
                state.awakenings.setdefault(t + 1, []).append(trig.dst)
    if sid in state.gates or not outgoing_flows(model, sid):
        thing.resting = True


def _choose_flow(state: SimState, sid: str, t: int):
    outs = outgoing_flows(state.model, sid)
    occ = state.departures.get(sid, 0)
    state.departures[sid] = occ + 1
    chosen = state.scenario.choices.get((sid, occ))
    if chosen is not None:
        flow = state.model.flows[chosen]
        if flow.src != sid:
            ref = state.model.stage_ref(sid)
            raise StuckThing(
                t,
                ref,
                f"tick {t}: choice for {ref} occurrence {occ} names flow "
                f"{chosen}, which does not leave that stage",
            )
        return flow
    if len(outs) == 1:
        return outs[0]
    anchored = [f for f in outs if f.anchor is not None]
    if anchored:
        return min(anchored, key=lambda f: f.anchor)
    return outs[0]


def step(state: SimState) -> None:
    """Advance one tick: births, awakenings, then ordinary moves."""
    t = state.time
    for sid, label in state.births.pop(t, []):
        thing = ThingInstance(label, None, born_at=t, entered_at=t)
        state.things.append(thing)
        _enter(state, thing, sid, t)
    for sid in state.awakenings.pop(t, []):
        sleepers = [
            th
            for th in state.things
            if th.stage == sid and th.resting and th.entered_at < t
        ]
        if not outgoing_flows(state.model, sid):
            continue  # the awakening lapses: nowhere to go
        for th in sleepers:
            th.resting = False
            flow = _choose_flow(state, sid, t)
            _enter(state, th, flow.dst, t)
    for th in list(state.things):
        if th.resting or th.stage is None or th.entered_at >= t:
            continue
        flow = _choose_flow(state, th.stage, t)
        _enter(state, th, flow.dst, t)
    state.time = t + 1


def _has_pending(state: SimState) -> bool:
    if state.births or state.awakenings:
        return True
    return any(not th.resting for th in state.things)


def run(model: StaticModel, scenario: Scenario, budget: int | None = None) -> Trace:
    """Run to quiescence (or the tick cap) and return the sorted trace;
    OverBudget once the run has made more than ``budget`` entries."""
    state = new_state(model, scenario)
    while state.time < scenario.max_ticks and _has_pending(state):
        step(state)
        if budget is not None and len(state.entries) > budget:
            raise OverBudget(len(state.entries))
    # add_stage numbers ids in declaration order: this is numeric id order
    declared = {sid: n for n, sid in enumerate(model.stages)}
    entries = tuple(
        sorted(
            state.entries,
            key=lambda e: (e.time.start, declared[e.stage], e.thing),
        )
    )
    final = entries[-1].time.start if entries else 0
    return Trace(
        rows=tuple((e.time.start, declared[e.stage], e.thing, e.stage, e.kind) for e in entries),
        things={th.label: th for th in state.things},
        final_tick=final,
        truncated=_has_pending(state),
    )



def project(model: StaticModel, trace: Trace, events) -> tuple[tuple, tuple[str, ...]]:
    """(events, uncovered stage refs) as :func:`thimac.simulate.project`
    describes them: a run of entries grows while some event's region holds
    every stage in it, and closes as the first such event in ``events``."""

    def covering(stages: set[str]) -> list:
        return [ev for ev in events if stages <= ev.region]

    projected, uncovered, stages = [], [], set()
    for entry in trace.entries:
        if stages and covering(stages | {entry.stage}):
            stages.add(entry.stage)
            continue
        if stages:
            projected.append(covering(stages)[0])
        stages = {entry.stage} if covering({entry.stage}) else set()
        ref = model.stage_ref(entry.stage)
        if not stages and ref not in uncovered:
            uncovered.append(ref)
    if stages:
        projected.append(covering(stages)[0])
    return tuple(projected), tuple(uncovered)
