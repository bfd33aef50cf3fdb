"""Events, event chronologies, and the action-letter codec.

An event is a connected region of a static model (a stage set plus the
flows and triggers it induces) optionally paired with a time subthimac.
Generic events are single-stage; anything larger decomposes into them.
A behavior model is a precedence graph over declared events: the
chronology of a model's story.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import ActionKind, StaticModel, legal_successor, reachable
from .validate import Diagnostic


class EventError(Exception):
    """Base class for event-layer errors."""


class DisconnectedRegion(EventError):
    pass


class NonLinearRegion(EventError):
    pass


class UnknownEvent(EventError):
    pass


class SelfLoop(EventError):
    pass


class InvalidLetter(EventError):
    pass


class NoLegalReading(EventError):
    pass


class AmbiguousReading(EventError):
    pass


class TimeSubthimac(NamedTuple("TimeSubthimac", [("start", int), ("end", int)])):
    """Closed-open tick interval [start, end) attached to an event."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if start < 0 or end < start:
            raise ValueError(f"bad time interval {start}..{end}")
        return super().__new__(cls, start, end)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class EventDef(NamedTuple):
    """A named, validated region, optionally scheduled in time.

    ``time`` being None means the event is a template: it describes a
    repeatable episode rather than one dated occurrence.
    """

    id: str
    name: str
    region: frozenset[str]
    time: TimeSubthimac | None = None


def define_event(
    model: StaticModel,
    name: str,
    region,
    time: TimeSubthimac | None = None,
) -> EventDef:
    """Declare an event over ``region`` (stage ids); region must connect."""
    sub = model.subdiagram(region)
    if not sub.connected:
        raise DisconnectedRegion(f"event {name!r}: region is not connected")
    return EventDef(id=name, name=name, region=sub.stages, time=time)


# ---------------------------------------------------------------------------
# letter codec

_DECODINGS: dict[str, tuple[ActionKind, ...]] = {
    "C": (ActionKind.CREATE,),
    "P": (ActionKind.PROCESS,),
    "T": (ActionKind.TRANSFER,),
    "R": (ActionKind.RELEASE, ActionKind.RECEIVE),
}


def chain_legal(a: ActionKind, b: ActionKind) -> bool:
    """Adjacency for abbreviation chains: either scope of the table."""
    return legal_successor(a, b, True) or legal_successor(a, b, False)


def encode_actions(seq) -> str:
    """First-letter code of an action sequence ('' for the empty one)."""
    return "".join(kind.letter for kind in seq)


def decode_actions(code: str) -> tuple[ActionKind, ...]:
    """Invert :func:`encode_actions` by chain legality.

    ``R`` is resolved to release or receive by requiring every adjacent
    pair to be a legal succession; a code whose letters admit no legal
    reading raises NoLegalReading, and one admitting several raises
    AmbiguousReading (a lone ``R`` is the canonical ambiguous case).
    """
    options: list[tuple[ActionKind, ...]] = []
    for ch in code:
        if ch not in _DECODINGS:
            raise InvalidLetter(f"{ch!r} is not a generic-action letter")
        options.append(_DECODINGS[ch])
    if not options:
        return ()
    # Count readings with a forward pass so long codes stay linear.
    ways: list[dict[ActionKind, int]] = [{k: 1 for k in options[0]}]
    for opts in options[1:]:
        prev = ways[-1]
        ways.append(
            {
                k: sum(n for p, n in prev.items() if chain_legal(p, k))
                for k in opts
            }
        )
    ways[-1] = {k: n for k, n in ways[-1].items() if n}
    total = sum(ways[-1].values())
    if total == 0:
        raise NoLegalReading(f"no legal action sequence reads {code!r}")
    if total > 1:
        raise AmbiguousReading(f"{code!r} admits {total} legal readings")
    out = [next(iter(ways[-1]))]
    for i in range(len(options) - 2, -1, -1):
        out.append(next(k for k, n in ways[i].items() if n and chain_legal(k, out[-1])))
    out.reverse()
    return tuple(out)


def iter_legal_chains(max_len: int):
    """Yield every action sequence of length 1..max_len whose adjacent
    pairs are chain-legal, in deterministic order."""
    kinds = list(ActionKind)

    def extend(chain: tuple[ActionKind, ...]):
        if 0 < len(chain) <= max_len:
            yield chain
        if len(chain) >= max_len:
            return
        for k in kinds:
            if not chain or chain_legal(chain[-1], k):
                yield from extend(chain + (k,))

    for k in kinds:
        yield from extend((k,))


# ---------------------------------------------------------------------------
# region readings


def event_action_sequence(model: StaticModel, event: EventDef) -> list[ActionKind]:
    """Read an event region as a single directed chain of flows.

    Triggers do not count toward linearity: a region glued together only
    by a trigger raises NonLinearRegion, as does any fork, join, or cycle.
    """
    stages = event.region
    if len(stages) == 1:
        (sid,) = stages
        return [model.stages[sid].kind]
    succ: dict[str, list[str]] = {sid: [] for sid in stages}
    indeg: dict[str, int] = {sid: 0 for sid in stages}
    for sid in stages:
        for flow in model.flows_from.get(sid, ()):
            if flow.dst in stages:
                succ[sid].append(flow.dst)
                indeg[flow.dst] += 1
    starts = [sid for sid in stages if indeg[sid] == 0]
    if len(starts) != 1 or any(len(nxt) > 1 for nxt in succ.values()):
        raise NonLinearRegion(f"event {event.name!r} is not a single flow chain")
    order = [starts[0]]
    while succ[order[-1]]:
        nxt = succ[order[-1]][0]
        if nxt in order:
            raise NonLinearRegion(f"event {event.name!r} is not a single flow chain")
        order.append(nxt)
    if len(order) != len(stages):
        raise NonLinearRegion(f"event {event.name!r} is not a single flow chain")
    return [model.stages[sid].kind for sid in order]


def decompose(model: StaticModel, event: EventDef) -> list[EventDef]:
    """Split an event into its generic (single-stage) events.

    Children inherit the parent's time; a generic event decomposes to
    itself, making decomposition a fixed point at the generic level.
    """
    if len(event.region) == 1:
        return [event]
    refs = sorted((model.stage_ref(sid), sid) for sid in event.region)
    return [
        EventDef(
            id=f"{event.id}/{ref}",
            name=f"{event.name}/{ref}",
            region=frozenset({sid}),
            time=event.time,
        )
        for ref, sid in refs
    ]


# ---------------------------------------------------------------------------
# behavior models


class BehaviorModel(NamedTuple):
    """Precedence graph over declared events."""

    events: dict[str, EventDef]
    edges: tuple[tuple[str, str], ...]


def build_behavior(events, edges) -> BehaviorModel:
    """Assemble a behavior model; self-loops are rejected, cycles kept
    (check_behavior reports them as warnings)."""
    by_id: dict[str, EventDef] = {ev.id: ev for ev in events}
    seen: set[tuple[str, str]] = set()
    out: list[tuple[str, str]] = []
    for a, b in edges:
        for end in (a, b):
            if end not in by_id:
                raise UnknownEvent(f"behavior edge names unknown event {end!r}")
        if a == b:
            raise SelfLoop(f"event {a!r} cannot precede itself")
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b))
    return BehaviorModel(events=by_id, edges=tuple(out))


def check_behavior(
    model: StaticModel,
    behavior: BehaviorModel,
    event_lines: dict[str, int] | None = None,
    edge_lines: dict[tuple[str, str], int] | None = None,
) -> list[Diagnostic]:
    """Audit a chronology against its static model.

    B1 (warning): a precedence edge with no flow or trigger from the
    predecessor's region into the successor's region.
    B2 (warning): an event with no path from any source event (a source
    has predecessors none and successors some; isolated events qualify
    as unreachable).
    B3 (warning): the precedence graph contains a cycle.

    Given the source lines of the events and edges, B2 carries its event's
    line, B1 its edge's and B3 its cycle's first edge's; otherwise 0.
    """
    event_lines = event_lines or {}
    edge_lines = edge_lines or {}
    out: list[Diagnostic] = []
    regions = {eid: ev.region for eid, ev in behavior.events.items()}

    tables = (model.flows_from, model.triggers_from)
    for a, b in behavior.edges:
        ends = {x.dst for sid in regions[a] for table in tables for x in table.get(sid, ())}
        if ends.isdisjoint(regions[b]):
            out.append(
                Diagnostic(
                    "B1",
                    "warning",
                    f"{a}->{b}",
                    "no flow or trigger leaves the predecessor region into "
                    "the successor region",
                    edge_lines.get((a, b), 0),
                )
            )

    succ: dict[str, list[str]] = {eid: [] for eid in behavior.events}
    indeg: dict[str, int] = {eid: 0 for eid in behavior.events}
    for a, b in behavior.edges:
        succ[a].append(b)
        indeg[b] += 1
    sources = [eid for eid in behavior.events if indeg[eid] == 0 and succ[eid]]
    for eid in sorted(set(behavior.events) - reachable(succ, sources)):
        out.append(
            Diagnostic(
                "B2",
                "warning",
                eid,
                "event is unreachable from any source event",
                event_lines.get(eid, 0),
            )
        )

    cycle = _find_cycle(succ)
    if cycle:
        out.append(
            Diagnostic(
                "B3",
                "warning",
                "->".join(cycle),
                "chronology contains a precedence cycle",
                edge_lines.get((cycle[0], cycle[1]), 0),
            )
        )
    out.sort(key=lambda d: (d.code, d.subject))
    return out


def _find_cycle(succ: dict[str, list[str]]) -> list[str] | None:
    """Return one cycle (as a node list closing on itself), or None."""
    color: dict[str, int] = {}  # 0 seen-open, 1 done
    for root in sorted(succ):
        if root in color:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        path: list[str] = []
        while stack:
            node, idx = stack.pop()
            if idx == 0:
                color[node] = 0
                path.append(node)
            if idx < len(succ[node]):
                stack.append((node, idx + 1))
                nxt = succ[node][idx]
                if nxt not in color:
                    stack.append((nxt, 0))
                elif color[nxt] == 0:
                    return path[path.index(nxt) :] + [nxt]
            else:
                color[node] = 1
                path.pop()
    return None


# ---------------------------------------------------------------------------
# movement between regions


class RegionDelta(NamedTuple):
    """Stage-level difference between two takes of one event."""

    entered: frozenset[str]
    left: frozenset[str]
    retained: frozenset[str]

    @property
    def fuzzy(self) -> bool:
        """A movement straddling its endpoints: partly here, partly there."""
        return bool(self.entered) and bool(self.left) and bool(self.retained)


def event_moved(before: EventDef, after: EventDef) -> RegionDelta:
    """Describe how an event's region changed between two definitions.

    Callers are expected to pass two takes of the *same* conceptual event
    (the thing that moved); the delta partitions the union of both regions.
    """
    b, a = before.region, after.region
    return RegionDelta(entered=a - b, left=b - a, retained=b & a)
