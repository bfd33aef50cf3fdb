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
* Entering a process stage fires the triggers sourced at it, and no
  other trigger ever acts.  One tick later a create target births a new
  thing, any other target wakes the things resting there — or lapses if
  nobody is.  The n-th thing born at a thimac called ``name`` is ``name-n``.
* A stage with no outgoing flow is terminal; arrivals rest for good.
* The run ends when nothing can move any more, at the tick cap, or after
  the first tick that leaves the run with more than ``ENTRY_BUDGET``
  entries.  A run the cap stopped with work pending, or the budget
  stopped, is truncated, and ``thimac simulate`` exits 1 for it.

A run first reads the model into one table row per stage, so an entry
costs one row lookup.  The engine keeps the things in motion and, per
stage, the things resting there.  Idle ticks are skipped: with nothing in
motion the clock jumps to the next birth or awakening.  The trace is
bit-for-bit reproducible and kept as three parallel columns (ticks, stage
declaration numbers and thing labels), sorted tick by tick as the run
makes them; every reader in this package reads the columns.
``render_trace`` can stream a trace in fixed-size chunks, so printing one
never holds its whole text.
"""

from __future__ import annotations

import bisect
import re
from functools import cached_property
from typing import NamedTuple

from .model import _C, _P, ActionKind, StaticModel, _Record, anchor_order, reachable
from .events import TimeSubthimac
from .dsl import _write_chunks


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


class ThingInstance(_Record):
    __slots__ = _fields = ("label", "stage", "born_at", "entered_at", "resting")

    def __init__(self, label: str, stage: str | None, born_at: int, entered_at: int,
                 resting: bool = False) -> None:
        self.label, self.stage, self.resting = label, stage, resting
        self.born_at, self.entered_at = born_at, entered_at


class Scenario(NamedTuple):
    """Injections, branch choices, and a tick cap for one run."""

    injections: tuple[tuple[int, str, str], ...]  # (tick, thimac id, label)
    choices: dict[tuple[str, int], str]  # (stage id, departure #) -> flow id
    max_ticks: int = 1000


class GenericEventInstance(NamedTuple):
    """One thing at one stage for one tick — the atom of a trace."""

    thing: str
    stage: str
    kind: ActionKind
    time: TimeSubthimac


class Trace(_Record):
    """A run's entries as three parallel columns in (tick, stage declaration
    number, thing) order: ``ticks``, ``numbers`` and ``labels``, with
    ``stages`` mapping every declaration number to its (stage id, kind); and
    each thing's end state.  ``truncated`` marks a run the tick cap stopped
    with a thing in motion or a birth or awakening due, or one that made
    more than ``ENTRY_BUDGET`` entries.  Two traces are equal when these
    six fields are."""

    _fields = ("ticks", "numbers", "labels", "stages", "things", "truncated")

    def __init__(self, ticks: list[int], numbers: list[int], labels: list[str],
                 stages: dict[int, tuple[str, ActionKind]], things: dict[str, ThingInstance],
                 truncated: bool = False) -> None:
        self.ticks, self.numbers, self.labels, self.stages = ticks, numbers, labels, stages
        self.things, self.truncated = things, truncated

    @property
    def final_tick(self) -> int:
        """The last entry's tick, 0 for an empty trace."""
        return self.ticks[-1] if self.ticks else 0

    @cached_property
    def entries(self) -> tuple[GenericEventInstance, ...]:
        """Entry objects, built on first read; only the bench reads them (ROADMAP item 3)."""
        times = {t: TimeSubthimac(t, t + 1) for t in set(self.ticks)}
        stages = self.stages
        return tuple(GenericEventInstance(label, *stages[n], times[t])
                     for t, n, label in zip(self.ticks, self.numbers, self.labels))


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

    An inject label may not be one a fired trigger could give a thing it
    births: ``<name>-<n>`` where ``<name>`` owns the create stage of a
    trigger from a process stage.  One leading byte-order mark is dropped.
    """
    injections: list[tuple[int, str, str]] = []
    labels: set[str] = set()
    choices: dict[tuple[str, int], str] = {}
    max_ticks = 1000
    birth_names = {name for sid in model.triggers_from for _, name in _fired(model, sid)[0]}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
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
            if _C not in model.thimacs[tid].stages:
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


def _fired(model: StaticModel, sid: str) -> tuple[tuple, tuple]:
    """What entering stage ``sid`` fires, (births, wakes): the one trigger
    rule.  Only a process stage fires; a trigger into a create stage births
    there, as (create stage, owner name), and any other wakes its target.
    A target that is no stage, or a create stage of no thimac, in a
    hand-edited model, raises SimulationError.
    """
    born, woken = [], []
    for trig in model.triggers_from.get(sid, ()) if model.stages[sid].kind is _P else ():
        target = model.stages.get(trig.dst)
        if target is None:
            raise SimulationError(f"trigger {trig.id} ends at unknown stage {trig.dst!r}")
        if target.kind is _C:
            if target.owner not in model.thimacs:
                raise SimulationError(f"trigger {trig.id} births at {trig.dst!r}, "
                                      f"whose thimac {target.owner!r} is missing")
            born.append((trig.dst, model.thimacs[target.owner].name))
        else:
            woken.append(trig.dst)
    return tuple(born), tuple(woken)


def _stage_table(model: StaticModel, chosen=()) -> dict[str, list]:
    """A row per stage, [entry, next, default]: the one place that decides
    where arrivals rest and each stage's default departure.  An entry is
    [stage id, declaration number, kind, whether arrivals rest there,
    births, wakes], the last two from :func:`_fired`.  ``default`` is the
    entry of the default next stage, None at a stage with no way out;
    ``next`` is too, but None at a stage in ``chosen``, the only stages
    that count departures.  Rows are lists, as tuples freed at the end
    would stay on CPython's free lists.
    """
    targets = {g.dst for g in model.triggers.values()}
    table: dict[str, list] = {}
    for n, (sid, stage) in enumerate(model.stages.items()):
        kind = stage.kind
        born, woken = _fired(model, sid) if sid in model.triggers_from else ((), ())
        rests = sid not in model.flows_from or sid in targets and kind is not _C
        table[sid] = [[sid, n, kind, rests, born, woken], None, None]
    for flow in model.flows.values():
        if flow.dst not in table:
            raise SimulationError(f"flow {flow.id} ends at unknown stage {flow.dst!r}")
    for sid, outs in model.flows_from.items():  # most stages have one way out
        default = table[(min(outs, key=anchor_order) if len(outs) > 1 else outs[0]).dst][0]
        table[sid][1:] = (None if sid in chosen else default), default
    return table


def run(model: StaticModel, scenario: Scenario) -> Trace:
    """Run to quiescence (or the tick cap, or past the entry budget) and
    return the sorted trace.

    ``table`` is :func:`_stage_table`'s, with the stages a ``choose`` line
    names.  ``moving`` and each stage's ``resting`` list hold (creation
    number, thing) pairs in creation order, the order things move in, which
    fixes departure counts and birth labels.  A tick's entries go onto the
    trace's columns sorted by (declaration number, label), so the columns
    come out in trace order and no tuple is kept per entry.
    """
    choices, max_ticks = scenario.choices, scenario.max_ticks
    table = _stage_table(model, {sid for sid, _ in choices})
    things: list[ThingInstance] = []
    ticks: list[int] = []
    numbers: list[int] = []
    labels: list[str] = []
    births: dict[int, list[tuple[str, str]]] = {}
    awakenings: dict[int, list[str]] = {}
    moving: list[tuple[int, ThingInstance]] = []
    resting: dict[str, list[tuple[int, ThingInstance]]] = {}
    departures: dict[str, int] = {}
    birth_counts: dict[str, int] = {}
    for tick, tid, label in scenario.injections:
        births.setdefault(tick, []).append((model.thimacs[tid].stages[_C], label))
    t = 0
    while moving or births or awakenings:
        if not moving:  # skip the idle ticks up to the next event
            t = min([*births, *awakenings])
        if t >= max_ticks:
            break
        # one tick: births, awakenings, then ordinary moves, all entered by
        # the code below; a thing born now already holds its create stage
        steps = []
        for sid, label in births.pop(t, ()):
            things.append(ThingInstance(label, sid, born_at=t, entered_at=t))
            steps.append((len(things), things[-1]))
        for sid in awakenings.pop(t, ()):
            if sid in model.flows_from:  # else the awakening lapses: nowhere to go
                steps += resting.pop(sid, ())
        steps, moving, entered = steps + moving, [], []
        for moved in steps:
            thing = moved[1]
            src = thing.stage
            if thing.entered_at == t:  # born this tick
                entry = table[src][0]
            else:  # take one flow: the chosen or the default
                entry = table[src][1]
                if entry is None:
                    occ = departures.get(src, 0)
                    departures[src] = occ + 1
                    fid = choices.get((src, occ))
                    if fid is not None and model.flows[fid].src != src:
                        ref = model.stage_ref(src)
                        raise StuckThing(t, ref, f"tick {t}: choice for {ref} occurrence {occ} "
                                         f"names flow {fid}, which does not leave that stage")
                    entry = table[src][2] if fid is None else table[model.flows[fid].dst][0]
            sid, n, _, rests, born, woken = entry
            thing.stage, thing.entered_at, thing.resting = sid, t, rests
            entered.append((n, thing.label))
            if born:
                for at, name in born:
                    count = birth_counts[name] = birth_counts.get(name, 0) + 1
                    births.setdefault(t + 1, []).append((at, f"{name}-{count}"))
            if woken:
                awakenings.setdefault(t + 1, []).extend(woken)
            if rests:
                bisect.insort(resting.setdefault(sid, []), moved)
            else:
                moving.append(moved)
        moving.sort()
        if len(entered) > 1:
            entered.sort()  # a thing enters one stage a tick: no two labels tie
        for n, label in entered:
            ticks.append(t)
            numbers.append(n)
            labels.append(label)
        t += 1
        if len(labels) > ENTRY_BUDGET:
            break
    stages = {entry[1]: (entry[0], entry[2]) for entry, _, _ in table.values()}
    truncated = bool(moving or births or awakenings) or len(labels) > ENTRY_BUDGET
    return Trace(ticks, numbers, labels, stages, {th.label: th for th in things}, truncated)


def render_trace(model: StaticModel, trace: Trace, out=None) -> str | None:
    """One line per entry: ``<tick> <thing> <stage-ref> <kind>``.

    Returns the text, or writes it to the stream ``out`` ``dsl._CHUNK`` lines a
    write, each ending in a newline, through ``dsl._write_chunks`` as the
    model exports do, and returns None.
    """
    ends = {  # "<stage-ref> <kind>", once per stage
        n: f"{model.stage_ref(trace.stages[n][0])} {trace.stages[n][1].value}"
        for n in set(trace.numbers)
    }
    lines = (f"{t} {thing} {ends[n]}\n"
             for t, thing, n in zip(trace.ticks, trace.labels, trace.numbers))
    text = _write_chunks(lines, out)
    return None if text is None else text[:-1]


# ---------------------------------------------------------------------------
# projection: reading a trace back as a chain of declared events


class UnknownEventInProjection(SimulationError):
    pass


class ProjectionResult(NamedTuple):
    events: tuple  # EventDef, in chronology order
    uncovered: tuple[str, ...]  # stage refs no declared event covers


def project(model: StaticModel, trace: Trace, events) -> ProjectionResult:
    """Collapse a trace into the declared events it walks through.

    Greedy maximal runs: keep absorbing consecutive entries while at
    least one declared region covers everything absorbed so far; when no
    region can take the next entry, close the run as the first-declared
    surviving candidate and start a new run.  Entries no region covers
    at all are reported as uncovered stage references.

    The events tuple is built straight from the closed runs, with no list
    of the same length beside it (before Python 3.14, whose ``tuple()``
    fills a list first).
    """
    events, stages = tuple(events), trace.stages
    number = {sid: n for n, (sid, _) in stages.items()}
    held: dict[int, int] = {}  # declaration number -> bit i set when events[i] holds it
    for i, ev in enumerate(events):
        for sid in number.keys() & ev.region:
            held[number[sid]] = held.get(number[sid], 0) | 1 << i
    uncovered: dict[int, str] = {}  # declaration number -> its stage ref

    def closed_runs():  # fills ``uncovered`` as it goes
        candidates = 0  # bit i set while events[i] covers the whole run so far
        for n in trace.numbers:
            here = held.get(n, 0)
            if candidates & here:
                candidates &= here
                continue
            if candidates:  # the lowest bit is the first-declared candidate
                yield events[(candidates & -candidates).bit_length() - 1]
            candidates = here
            if not here and n not in uncovered:
                uncovered[n] = model.stage_ref(stages[n][0])
        if candidates:
            yield events[(candidates & -candidates).bit_length() - 1]

    projected = tuple(closed_runs())
    return ProjectionResult(projected, tuple(uncovered.values()))


class ConformanceReport(NamedTuple):
    ok: bool
    problems: tuple[str, ...]


def conforms(behavior, projected, transitive: bool = False) -> ConformanceReport:
    """Check a projected event sequence against a chronology model.

    Every adjacent pair must be a declared precedence edge; with
    ``transitive`` a pair may also be bridged by a directed path.  A
    repeated event needs an explicit cycle to conform.  A pair that fails
    again repeats its first problem string rather than building another.
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
    said: dict[tuple[str, str], str] = {}  # (a, b) -> its problem string
    ids = [ev.id for ev in projected]
    for a, b in zip(ids, ids[1:]):
        after = succ.get(a, ())
        if b in after or transitive and b in reachable(succ, after):
            continue
        problems.append(said.get((a, b))
                        or said.setdefault((a, b), f"{a} -> {b} is not an allowed succession"))
    return ConformanceReport(not problems, tuple(problems))
