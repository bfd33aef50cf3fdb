"""Whole-model semantic checks and the verb genericity lexicon.

The validator audits a model's raw dicts as they stand, holding a
hand-edited model to the rules the constructive API enforces: each flow
and trigger goes through the rule ``add_flow`` or ``add_trigger`` raises
on, with that exception's text (V2, V3, V7, V8), and the rules no one
arrow decides are checked set-wide (V1, V4, V9, V10, V11).  It adds rules
no ``add_*`` call can see (V5, V6), and it checks that the per-stage
tables a run reads list each arrow where the raw dicts have it (V12).
Each finding carries its entity's source line from ``model.origin``.
Diagnostic codes are stable:

=====  ========  ====================================================
code   severity  meaning
=====  ========  ====================================================
V1     error     two stages of one kind inside one machine
V2     error     flow violates the succession table
V3     error     boundary-crossing flow that is not transfer-transfer
V4     error     thimac nesting contains a cycle (not a forest)
V5     warning   stage with no incident flow and no incident trigger
V6     warning   transfer stage that never faces another machine
V7     error     trigger end that is not a stage
V8     error     stage that triggers itself
V9     error     two stages of one machine that share an alias
V10    error     parent missing, or name and parent off the recorded path
V11    error     stage off its owner's list, or listed by another thimac
V12    error     arrow not listed under its own source alone, or not held
B1     warning   precedence edge with no arrow between the two regions
B2     warning   event unreachable from any source event
B3     warning   precedence graph contains a cycle
=====  ========  ====================================================

Behavior-graph checks (codes B1-B3) live in :mod:`thimac.events`.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .model import _P, _RCV, _REL, _T, ActionKind, StaticModel, legal_successor
from .model import UnknownStage, UnpairedBoundaryCrossing

Severity = Literal["error", "warning"]

#: Each code's severity, as tabled above: the one place it is decided.
_SEVERITY: dict[str, Severity] = {
    **dict.fromkeys(("V1", "V2", "V3", "V4", "V7", "V8", "V9", "V10", "V11", "V12"),
                    "error"),
    **dict.fromkeys(("V5", "V6", "B1", "B2", "B3"), "warning"),
}


class Diagnostic(NamedTuple):
    """One finding; ``subject`` names the offending entity and ``line``
    its source line, 0 when unknown."""

    code: str
    severity: Severity
    subject: str
    message: str
    line: int = 0

    def render(self, path: str = "<model>") -> str:
        return (
            f"{self.code} {self.severity} {path}:{self.line} {self.subject} "
            f"- {self.message}"
        )


def _finding(code: str, subject: str, message: str, line: int) -> Diagnostic:
    return Diagnostic(code, _SEVERITY[code], subject, message, line)


def validate(model: StaticModel) -> list[Diagnostic]:
    """Run every V-check; deterministic order, idempotent, read-only.

    Stages, flows, triggers and parent links are read from the raw dicts,
    so a model whose arrows or parents were edited by hand is audited as
    it stands; names and scopes come from ``add_thimac``'s path record.
    """
    out: list[Diagnostic] = []

    def report(code: str, subject: str, message: str, entity: str) -> None:
        out.append(_finding(code, subject, message, model.origin.get(entity, 0)))

    # V11: each stage's owner exists and lists it, and a thimac lists only
    # stages of its own.  The arrow rules, V5 and V6 read a stage's path,
    # which a stage off its owner's list lacks.
    unplaced: set[str] = set()
    for sid, stage in model.stages.items():
        owner = model.thimacs.get(stage.owner)
        if owner is None or owner.stages.get(stage.kind) != sid:
            unplaced.add(sid)
            message = (f"owner thimac {stage.owner!r} is missing" if owner is None else
                       f"{model.thimac_path(stage.owner)} does not list it as its "
                       f"{stage.kind.value} stage")
            report("V11", sid, message, sid)
    for tid, thimac in model.thimacs.items():
        for kind, sid in thimac.stages.items():
            stage = model.stages.get(sid)
            if stage is None:
                message = f"lists {sid!r} as its {kind.value} stage, which the model does not hold"
            elif sid not in unplaced and (stage.owner != tid or stage.kind is not kind):
                message = f"lists {model.stage_ref(sid)} as its {kind.value} stage"
            else:
                continue  # its own stage, or one V11 reported above
            report("V11", model.thimac_path(tid), message, tid)

    # V1 and V9: the constructive API cannot produce these, but raw models can.
    per_machine: dict[tuple, int] = {}  # (owner, kind or alias) -> stages with it
    for stage in model.stages.values():
        if stage.owner not in model.thimacs:
            continue  # V11: no machine to count it in
        for key in (stage.kind,) if stage.alias is None else (stage.kind, stage.alias):
            per_machine[stage.owner, key] = per_machine.get((stage.owner, key), 0) + 1
    for (owner, key), count in per_machine.items():
        if count > 1:
            what = f"stages aliased {key!r}" if isinstance(key, str) else f"{key.value} stages"
            report("V9" if isinstance(key, str) else "V1", model.thimac_path(owner),
                   f"machine declares {count} {what}", owner)

    # V4 first so V2/V3 can still use ancestry on the sane part of the forest.
    # Each parent walk stops where an earlier one passed: all above is known.
    cyclic: set[str] = set()
    passed: set[str] = set()
    for tid in model.thimacs:
        walk: dict[str, None] = {}  # this walk's thimacs, in order
        cur: str | None = tid
        while cur is not None and cur not in passed:
            if cur in walk:
                order = list(walk)
                cyclic.update(order[order.index(cur) :])
                break
            walk[cur] = None
            cur = model.thimacs[cur].parent if cur in model.thimacs else None
        passed.update(walk)
    for tid in sorted(cyclic):
        message = "thimac nesting is cyclic; models must form a forest"
        report("V4", model.thimacs[tid].name, message, tid)

    # V10: outside a V4 cycle, a thimac's parent exists and, with its name,
    # gives the path add_thimac recorded, by which every reference is read
    for tid, thimac in model.thimacs.items():
        parent, recorded = thimac.parent, model.thimac_path(tid)
        if tid in cyclic:
            continue
        if parent is None or parent in model.thimacs:
            path = thimac.name if parent is None else f"{model.thimac_path(parent)}.{thimac.name}"
            if path != recorded:
                message = f"name and parent give the path {path!r}, not {recorded!r} as built"
                report("V10", recorded, message, tid)
        else:
            report("V10", recorded, f"parent thimac {parent!r} is missing", tid)

    # V12: run reads the arrows leaving a stage from flows_from and
    # triggers_from, so these list each arrow the grammar allows under its
    # own source and nowhere else, and no arrow the raw dicts lack
    misfiled: dict[str, list[str]] = {}  # arrow id -> the other stages listing it
    for table, raw, name in ((model.flows_from, model.flows, "flows_from"),
                             (model.triggers_from, model.triggers, "triggers_from")):
        for sid, arrows in table.items():
            for arrow in arrows:
                if raw.get(arrow.id) is not arrow:
                    report("V12", arrow.id, f"{name} lists it under {sid!r}, "
                           "but the model holds no such arrow", arrow.id)
                elif arrow.src != sid:
                    misfiled.setdefault(arrow.id, []).append(sid)

    def listed(arrow, table: dict[str, list], name: str) -> None:
        home = any(a is arrow for a in table.get(arrow.src, ()))
        where = [arrow.src] * home + misfiled.get(arrow.id, [])
        if where != [arrow.src]:
            under = ", ".join(map(repr, where)) or "no stage"
            report("V12", arrow.id, f"{name} lists it under {under}; its source is {arrow.src!r}",
                   arrow.id)

    # For V5 and V6: the stages any arrow touches, and the ends of flows
    # between two machines (a dangling end is V2's finding, not a machine).
    touched = {end for g in model.triggers.values() for end in (g.src, g.dst)}
    faces_outside: set[str] = set()
    for flow in model.flows.values():
        touched.update((flow.src, flow.dst))
        if flow.src in unplaced or flow.dst in unplaced:
            continue
        src = model.stages.get(flow.src)
        dst = model.stages.get(flow.dst)
        if src is not None and dst is not None:
            if src.owner != dst.owner:
                faces_outside.update((flow.src, flow.dst))
            if src.owner in cyclic or dst.owner in cyclic:
                continue  # ancestry is meaningless inside a V4 cycle
        if error := model.flow_error(flow.src, flow.dst):
            code = "V3" if isinstance(error, UnpairedBoundaryCrossing) else "V2"
            report(code, flow.id, str(error), flow.id)
        else:
            listed(flow, model.flows_from, "flows_from")
    for trigger in model.triggers.values():
        if trigger.src in unplaced or trigger.dst in unplaced:
            continue
        if error := model.trigger_error(trigger.src, trigger.dst):
            code = "V7" if isinstance(error, UnknownStage) else "V8"
            report(code, trigger.id, str(error), trigger.id)
        else:
            listed(trigger, model.triggers_from, "triggers_from")

    for sid, stage in model.stages.items():
        if sid in unplaced:
            continue
        if sid not in touched:
            message = "stage has no incident flow or trigger (dead potentiality)"
            report("V5", model.stage_ref(sid), message, sid)
        if stage.kind is _T and stage.owner not in cyclic and sid not in faces_outside:
            message = "transfer stage never crosses toward another machine"
            report("V6", model.stage_ref(sid), message, sid)

    out.sort(key=lambda d: (len(d.code), d.code, d.subject, d.message))
    return out


# ---------------------------------------------------------------------------
# verb lexicon


class UnknownVerb(Exception):
    pass


#: Decomposition: each step is (role, kind); adjacent steps with equal roles
#: must be same-machine-legal, a role change is a machine boundary.
Decomposition = tuple[tuple[str, ActionKind], ...]


class VerbLexicon:
    """Registry mapping domain verbs to generic-action decompositions.

    Every entry is checked at registration time: instantiated at its roles,
    the decomposition must form a legal succession chain, so an ill-formed
    lexicon fails at load rather than at use.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Decomposition] = {}

    def register(self, verb: str, steps) -> None:
        steps = tuple((role, kind) for role, kind in steps)
        if not steps:
            raise ValueError(f"verb {verb!r}: decomposition cannot be empty")
        for (role_a, kind_a), (role_b, kind_b) in zip(steps, steps[1:]):
            if not legal_successor(kind_a, kind_b, role_a == role_b):
                raise ValueError(
                    f"verb {verb!r}: {kind_a.value}->{kind_b.value} "
                    f"({role_a}->{role_b}) is not a legal succession"
                )
        self._entries[verb] = steps

    def verbs(self) -> list[str]:
        return sorted(self._entries)

    def decomposition(self, verb: str) -> Decomposition:
        try:
            return self._entries[verb]
        except KeyError:
            raise UnknownVerb(f"verb {verb!r} is not in the lexicon") from None


#: Entries whose decompositions are best-effort readings rather than
#: corpus-exercised mappings.
UNVERIFIED_VERBS = frozenset({"sell", "change", "display", "give", "clean", "break"})


def default_lexicon() -> VerbLexicon:
    """The built-in ten-verb lexicon.

    ``take``/``put``/``spread``/``fold`` follow the worked hand-off reading
    (release and transfer on one side, transfer and receive on the other;
    spreading and folding are processing).  The remaining six are
    best-effort: ownership hand-offs mirror ``take``, and verbs that vary a
    thing without making a new one map to a bare processing step.
    """
    lex = VerbLexicon()
    handoff = [("source", _REL), ("source", _T), ("sink", _T), ("sink", _RCV)]
    lex.register("take", handoff)
    lex.register("put", [("agent", _REL), ("agent", _T), ("sink", _T), ("sink", _RCV)])
    lex.register("spread", [("agent", _P)])
    lex.register("fold", [("agent", _P)])
    lex.register("sell", handoff)
    lex.register("give", handoff)
    lex.register("change", [("agent", _P)])
    lex.register("display", [("agent", _REL)])
    lex.register("clean", [("agent", _P)])
    lex.register("break", [("agent", _P)])
    return lex
