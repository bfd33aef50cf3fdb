"""Deterministic tick engine: things flowing through the stage graph.

The chronology rules, all of them:

* A thing occupies exactly one stage per tick and its stay is the
  interval [t, t+1): one tick per action.
* Things appear at create stages — by scenario injection or because a
  trigger asked for a fresh thing.
* A thing moves one flow per tick.  At a branch the scenario may pin a
  choice per (stage, departure number); otherwise the lowest anchor
  wins, then declaration order.
* A stage that is the target of a trigger (and is not a create stage)
  is a gate: arrivals rest there until a trigger wakes them.
* Entering a process stage fires every trigger sourced at it.  Effects
  land one tick later: a create target births a new thing, any other
  target wakes the things resting there — or lapses if nobody is.  The
  n-th thing born at a thimac called ``name`` is labelled ``name-n``.
* A stage with no outgoing flow is terminal; arrivals rest for good.
* The run ends when nothing can move any more, at the tick cap, or after
  the first tick that leaves the run with more than ``ENTRY_BUDGET``
  entries.  A run the cap stopped with work pending, or the budget
  stopped, is truncated, and ``thimac simulate`` exits 1 for it.

The engine keeps the things in motion and, per stage, the things resting
there.  Idle ticks are skipped: with nothing in motion the clock jumps to
the next birth or awakening.  The trace is bit-for-bit reproducible and
kept as plain rows; ``Trace.entries`` builds entry objects on first read.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from functools import cached_property

from .model import ActionKind, StaticModel, anchor_order, reachable
from .events import TimeSubthimac


#: a run stops after the first tick that leaves it with more entries than
#: this: births that feed births would otherwise grow without bound
ENTRY_BUDGET = 1_000_000


class SimulationError(Exception):
    pass


class ScenarioError(SimulationError):
    """Bad scenario text; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StuckThing(SimulationError):
    """An explicit branch choice named a flow that cannot be taken."""

    def __init__(self, tick: int, stage_ref: str, message: str):
        super().__init__(message)
        self.tick = tick
        self.stage_ref = stage_ref


@dataclass
class ThingInstance:
    label: str
    stage: str | None
    born_at: int
    entered_at: int
    resting: bool = False


@dataclass(frozen=True)
class Scenario:
    """Injections, branch choices, and a tick cap for one run."""

    injections: tuple[tuple[int, str, str], ...]  # (tick, thimac id, label)
    choices: dict[tuple[str, int], str]  # (stage id, departure #) -> flow id
    max_ticks: int = 1000


@dataclass(frozen=True)
class GenericEventInstance:
    """One thing at one stage for one tick — the atom of a trace."""

    thing: str
    stage: str
    kind: ActionKind
    time: TimeSubthimac


@dataclass(frozen=True)
class Trace:
    """Sorted rows and each thing's end state; ``truncated`` marks a run
    the tick cap stopped with a thing in motion or a birth or awakening due,
    or one that made more than ``ENTRY_BUDGET`` entries."""

    #: (tick, stage declaration number, thing, stage id, kind) per entry
    rows: tuple[tuple[int, int, str, str, ActionKind], ...]
    things: dict[str, ThingInstance]
    final_tick: int
    truncated: bool = False

    @cached_property
    def entries(self) -> tuple[GenericEventInstance, ...]:
        """The rows as entry objects, built on first read; one time per tick."""
        times = {t: TimeSubthimac(t, t + 1) for t in {row[0] for row in self.rows}}
        return tuple(GenericEventInstance(*r[2:], times[r[0]]) for r in self.rows)


#: ``<name>-<n>``: the label of the n-th thing born at a create stage of
#: a thimac called ``<name>``
_BIRTH_LABEL = re.compile(r"(.*)-[1-9][0-9]*")


def load_scenario(model: StaticModel, text: str) -> Scenario:
    """Parse scenario text.

    Directives, one per ``"\\n"``-ended line (# comments allowed):

    .. code-block:: text

        inject <tick> <thimac-path> <label>
        choose <stage-ref> <occurrence> <flow-anchor-or-id>
        max <ticks>

    An inject label may not be one a trigger-born thing could get:
    ``<name>-<n>`` where ``<name>`` owns the create stage of a trigger.
    """
    injections: list[tuple[int, str, str]] = []
    labels: set[str] = set()
    choices: dict[tuple[str, int], str] = {}
    max_ticks = 1000
    birth_names = {  # the owners of the create stages triggers lead to
        model.thimacs[target.owner].name
        for target in (model.stages[g.dst] for g in model.triggers.values())
        if target.kind is ActionKind.CREATE
    }
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        word = toks[0]
        if word == "inject":
            if len(toks) != 4:
                raise ScenarioError("expected: inject <tick> <path> <label>", lineno)
            if not toks[1].isdecimal():
                raise ScenarioError(f"bad tick {toks[1]!r}", lineno)
            tid = model.thimac_at.get(toks[2])
            if tid is None:
                raise ScenarioError(f"unknown thimac {toks[2]!r}", lineno)
            if ActionKind.CREATE not in model.thimacs[tid].stages:
                raise ScenarioError(
                    f"thimac {toks[2]!r} has no create stage to inject at", lineno
                )
            if toks[3] in labels:
                raise ScenarioError(f"duplicate inject label {toks[3]!r}", lineno)
            born = _BIRTH_LABEL.fullmatch(toks[3])
            if born and born[1] in birth_names:
                message = f"inject label {toks[3]!r} is reserved for trigger-born things"
                raise ScenarioError(message, lineno)
            labels.add(toks[3])
            injections.append((int(toks[1]), tid, toks[3]))
        elif word == "choose":
            if len(toks) != 4:
                raise ScenarioError(
                    "expected: choose <stage-ref> <occurrence> <flow>", lineno
                )
            sid = model.resolve_stage_ref(toks[1])
            if sid is None:
                raise ScenarioError(f"unknown stage {toks[1]!r}", lineno)
            if not toks[2].isdecimal():
                raise ScenarioError(f"bad occurrence {toks[2]!r}", lineno)
            spec = toks[3]
            if spec.isdecimal():
                anchor = int(spec)
                if anchor not in model.by_anchor:
                    raise ScenarioError(f"no flow has anchor {anchor}", lineno)
                fid = model.by_anchor[anchor].id
            elif spec in model.flows:
                fid = spec
            else:
                raise ScenarioError(f"unknown flow {spec!r}", lineno)
            key = (sid, int(toks[2]))
            if key in choices:
                raise ScenarioError(
                    f"duplicate choice for {toks[1]} occurrence {toks[2]}", lineno
                )
            choices[key] = fid
        elif word == "max":
            if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 1:
                raise ScenarioError("expected: max <ticks>", lineno)
            max_ticks = int(toks[1])
        else:
            raise ScenarioError(f"unknown directive {word!r}", lineno)
    return Scenario(tuple(injections), choices, max_ticks)


def run(model: StaticModel, scenario: Scenario) -> Trace:
    """Run to quiescence (or the tick cap, or past the entry budget) and
    return the sorted trace.

    ``moving`` and each stage's ``resting`` list hold (creation number,
    thing) pairs in creation order, the order things move in, which fixes
    departure counts and birth labels.  ``departure`` holds each stage's
    default way out; stages with none are absent.
    """
    departure = {
        sid: min(outs, key=anchor_order) for sid, outs in model.flows_from.items()
    }
    gates = {
        g.dst
        for g in model.triggers.values()
        if model.stages[g.dst].kind is not ActionKind.CREATE
    }
    # add_stage numbers ids in declaration order: this is numeric id order
    declared = {sid: n for n, sid in enumerate(model.stages)}
    things: list[ThingInstance] = []
    rows: list[tuple[int, int, str, str, ActionKind]] = []
    births: dict[int, list[tuple[str, str]]] = {}
    awakenings: dict[int, list[str]] = {}
    moving: list[tuple[int, ThingInstance]] = []
    resting: dict[str, list[tuple[int, ThingInstance]]] = {}
    departures: dict[str, int] = {}
    birth_counts: dict[str, int] = {}

    def enter(moved: tuple[int, ThingInstance], sid: str, t: int) -> None:
        """Put a thing at a stage for tick t and apply the stage's effects."""
        thing = moved[1]
        thing.stage, thing.entered_at = sid, t
        stage = model.stages[sid]
        rows.append((t, declared[sid], thing.label, sid, stage.kind))
        if stage.kind is ActionKind.PROCESS:
            for trig in model.triggers_from.get(sid, ()):
                target = model.stages[trig.dst]
                if target.kind is ActionKind.CREATE:
                    name = model.thimacs[target.owner].name
                    n = birth_counts.get(name, 0) + 1
                    birth_counts[name] = n
                    births.setdefault(t + 1, []).append((trig.dst, f"{name}-{n}"))
                else:
                    awakenings.setdefault(t + 1, []).append(trig.dst)
        if sid in gates or sid not in departure:
            thing.resting = True
            bisect.insort(resting.setdefault(sid, []), moved)
        else:
            moving.append(moved)

    def move(moved: tuple[int, ThingInstance], t: int) -> None:
        """Take one flow out of the thing's stage: the chosen or the default."""
        sid = moved[1].stage
        occ = departures.get(sid, 0)
        departures[sid] = occ + 1
        chosen = scenario.choices.get((sid, occ))
        if chosen is None:
            flow = departure[sid]
        else:
            flow = model.flows[chosen]
            if flow.src != sid:
                ref = model.stage_ref(sid)
                raise StuckThing(
                    t,
                    ref,
                    f"tick {t}: choice for {ref} occurrence {occ} names flow "
                    f"{chosen}, which does not leave that stage",
                )
        enter(moved, flow.dst, t)

    for tick, tid, label in scenario.injections:
        create_sid = model.thimacs[tid].stages[ActionKind.CREATE]
        births.setdefault(tick, []).append((create_sid, label))
    t = 0
    while moving or births or awakenings:
        if not moving:  # skip the idle ticks up to the next event
            t = min([*births, *awakenings])
        if t >= scenario.max_ticks:
            break
        # one tick: births, awakenings, then ordinary moves
        movers, moving = moving, []
        for sid, label in births.pop(t, ()):
            thing = ThingInstance(label, None, born_at=t, entered_at=t)
            things.append(thing)
            enter((len(things), thing), sid, t)
        for sid in awakenings.pop(t, ()):
            if sid not in departure:
                continue  # the awakening lapses: nowhere to go
            here = resting.get(sid, [])
            resting[sid] = [p for p in here if p[1].entered_at >= t]
            for sleeper in [p for p in here if p[1].entered_at < t]:
                sleeper[1].resting = False
                move(sleeper, t)
        for mover in movers:
            move(mover, t)
        moving.sort()
        t += 1
        if len(rows) > ENTRY_BUDGET:
            break
    rows.sort()  # (tick, thing) is unique, so no two rows compare a kind
    return Trace(
        rows=tuple(rows),
        things={th.label: th for th in things},
        final_tick=rows[-1][0] if rows else 0,
        truncated=bool(moving or births or awakenings) or len(rows) > ENTRY_BUDGET,
    )


def render_trace(model: StaticModel, trace: Trace) -> str:
    """One line per entry: ``<tick> <thing> <stage-ref> <kind>``."""
    ends = {  # "<stage-ref> <kind>", once per stage
        sid: f"{model.stage_ref(sid)} {model.stages[sid].kind.value}"
        for sid in {row[3] for row in trace.rows}
    }
    return "\n".join(f"{t} {thing} {ends[sid]}" for t, _, thing, sid, _ in trace.rows)


# ---------------------------------------------------------------------------
# projection: reading a trace back as a chain of declared events


class UnknownEventInProjection(SimulationError):
    pass


@dataclass(frozen=True)
class ProjectionResult:
    events: tuple  # EventDef, in chronology order
    uncovered: tuple[str, ...]  # stage refs no declared event covers


def project(model: StaticModel, trace: Trace, events) -> ProjectionResult:
    """Collapse a trace into the declared events it walks through.

    Greedy maximal runs: keep absorbing consecutive entries while at
    least one declared region covers everything absorbed so far; when no
    region can take the next entry, close the run as the first-declared
    surviving candidate and start a new run.  Entries no region covers
    at all are reported as uncovered stage references.
    """
    events_at: dict[str, list] = {}  # stage id -> the events holding it, in order
    for ev in events:
        for sid in ev.region:
            events_at.setdefault(sid, []).append(ev)
    projected = []
    uncovered: dict[str, str] = {}  # stage id -> its ref
    candidates: list = []
    for row in trace.rows:
        sid = row[3]
        if candidates:
            narrowed = [ev for ev in candidates if sid in ev.region]
            if narrowed:
                candidates = narrowed
                continue
            projected.append(candidates[0])
            candidates = []
        starters = events_at.get(sid)
        if starters:
            candidates = starters
        elif sid not in uncovered:
            uncovered[sid] = model.stage_ref(sid)
    if candidates:
        projected.append(candidates[0])
    return ProjectionResult(tuple(projected), tuple(uncovered.values()))


@dataclass(frozen=True)
class ConformanceReport:
    ok: bool
    problems: tuple[str, ...]


def conforms(behavior, projected, transitive: bool = False) -> ConformanceReport:
    """Check a projected event sequence against a chronology model.

    Every adjacent pair must be a declared precedence edge; with
    ``transitive`` a pair may also be bridged by a directed path.  A
    repeated event needs an explicit cycle to conform.
    """
    for ev in projected:
        if ev.id not in behavior.events:
            raise UnknownEventInProjection(
                f"projected event {ev.id!r} is not part of the chronology model"
            )
    succ: dict[str, set[str]] = {}
    for a, b in behavior.edges:
        succ.setdefault(a, set()).add(b)
    problems: list[str] = []
    ids = [ev.id for ev in projected]
    for a, b in zip(ids, ids[1:]):
        after = succ.get(a, ())
        if b in after or transitive and b in reachable(succ, after):
            continue
        problems.append(f"{a} -> {b} is not an allowed succession")
    return ConformanceReport(not problems, tuple(problems))
