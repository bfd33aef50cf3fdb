"""Whole-model semantic checks and the verb genericity lexicon.

The validator re-derives every rule the constructive API enforces (so that
hand-built or deserialized models can be audited), plus the diagram-level
rules that no single ``add_*`` call can see.  Each finding carries its
entity's source line from ``model.origin``.  Diagnostic codes are stable:

=====  ========  ====================================================
code   severity  meaning
=====  ========  ====================================================
V1     error     two stages of one kind inside one machine
V2     error     flow violates the succession table
V3     error     boundary-crossing flow that is not transfer-transfer
V4     error     thimac nesting contains a cycle (not a forest)
V5     warning   stage with no incident flow and no incident trigger
V6     warning   transfer stage that never faces another machine
=====  ========  ====================================================

Behavior-graph checks (codes B1-B3) live in :mod:`thimac.events`.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .model import _T, ActionKind, StaticModel, legal_successor

Severity = Literal["error", "warning"]


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


def validate(model: StaticModel) -> list[Diagnostic]:
    """Run every V-check; deterministic order, idempotent, read-only.

    Stages, flows, triggers and parent links are read from the raw dicts,
    so a model whose arrows or parents were edited by hand is audited as
    it stands; names and scopes come from ``add_thimac``'s path record.
    """
    out: list[Diagnostic] = []

    def line(entity: str) -> int:
        return model.origin.get(entity, (0,))[0]

    # V1: the constructive API cannot produce this, but raw models can.
    per_machine: dict[tuple[str, ActionKind], list[str]] = {}
    for stage in model.stages.values():
        per_machine.setdefault((stage.owner, stage.kind), []).append(stage.id)
    for (owner, kind), sids in per_machine.items():
        if len(sids) > 1:
            out.append(
                Diagnostic(
                    "V1",
                    "error",
                    model.thimac_path(owner),
                    f"machine declares {len(sids)} {kind.value} stages",
                    line(owner),
                )
            )

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
        out.append(
            Diagnostic(
                "V4",
                "error",
                model.thimacs[tid].name,
                "thimac nesting is cyclic; models must form a forest",
                line(tid),
            )
        )

    # For V5 and V6: the stages any arrow touches, and the ends of flows
    # between two machines (a dangling end is V2's finding, not a machine).
    touched = {end for g in model.triggers.values() for end in (g.src, g.dst)}
    faces_outside: set[str] = set()
    for flow in model.flows.values():
        touched.update((flow.src, flow.dst))
        src = model.stages.get(flow.src)
        dst = model.stages.get(flow.dst)
        if src is None or dst is None:
            message = "flow endpoint is not a stage"
            out.append(Diagnostic("V2", "error", flow.id, message, line(flow.id)))
            continue
        if src.owner != dst.owner:
            faces_outside.update((flow.src, flow.dst))
        if src.owner in cyclic or dst.owner in cyclic:
            continue  # ancestry is meaningless inside a V4 cycle
        same_scope = src.owner == dst.owner or model.nesting_related(
            src.owner, dst.owner
        )
        if legal_successor(src.kind, dst.kind, same_scope):
            continue
        if same_scope:
            code = "V2"
            message = f"{src.kind.value} may not flow into {dst.kind.value} here"
        else:  # transfer -> transfer is the only legal step across machines
            code = "V3"
            message = (
                f"{model.stage_ref(flow.src)} -> {model.stage_ref(flow.dst)} "
                "crosses machines without a transfer pair"
            )
        out.append(Diagnostic(code, "error", flow.id, message, line(flow.id)))

    for sid, stage in model.stages.items():
        if sid not in touched:
            out.append(
                Diagnostic(
                    "V5",
                    "warning",
                    model.stage_ref(sid),
                    "stage has no incident flow or trigger (dead potentiality)",
                    line(sid),
                )
            )
        if (
            stage.kind is _T
            and stage.owner not in cyclic
            and sid not in faces_outside
        ):
            out.append(
                Diagnostic(
                    "V6",
                    "warning",
                    model.stage_ref(sid),
                    "transfer stage never crosses toward another machine",
                    line(sid),
                )
            )

    out.sort(key=lambda d: (d.code, d.subject, d.message))
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
    rel, tr, rcv, pr = (
        ActionKind.RELEASE,
        ActionKind.TRANSFER,
        ActionKind.RECEIVE,
        ActionKind.PROCESS,
    )
    handoff = [("source", rel), ("source", tr), ("sink", tr), ("sink", rcv)]
    lex.register("take", handoff)
    lex.register("put", [("agent", rel), ("agent", tr), ("sink", tr), ("sink", rcv)])
    lex.register("spread", [("agent", pr)])
    lex.register("fold", [("agent", pr)])
    lex.register("sell", handoff)
    lex.register("give", handoff)
    lex.register("change", [("agent", pr)])
    lex.register("display", [("agent", rel)])
    lex.register("clean", [("agent", pr)])
    lex.register("break", [("agent", pr)])
    return lex
