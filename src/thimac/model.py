"""In-memory representation of thing/machine (thimac) static models.

A static model is a timeless diagram: a forest of nested thimacs, each
owning at most one stage per generic action kind, wired together by flows
(solid arrows that carry a thing from one potentiality to the next) and
triggers (dashed arrows that activate another machine without moving a
thing).  Construction enforces the structural rules; whole-model semantic
checks live in :mod:`thimac.validate`.  A thimac name may not hold a dot:
dots join the names of a path (``librarian.request``), so every thimac
and stage keeps a reference of its own.

Models are plain data.  Once built (and validated) they are meant to be
treated as immutable; every downstream operation is a pure function of the
model, so sharing a model across threads is safe as long as nobody keeps
calling the ``add_*`` methods.

The nesting forest is stored once, as each thimac's ``parent`` link;
a renderer that walks it builds the child lists from those links.
Besides the raw dicts a model keeps the lookup tables every layer reads:
the flows and triggers leaving each stage, anchor -> flow, and dotted
path -> thimac with its inverse, from which paths and ancestry are read.
``origin`` maps each entity the parser declared to its source line, the
position a finding names.
Only the ``add_*`` methods write the raw dicts and the tables alike, so
a model built through them never holds a stale table.  Code that edits
the raw dicts directly gets a model whose tables no longer match;
:func:`thimac.validate.validate` audits its raw dicts by the rules the
``add_*`` methods apply (arrows through the same ``flow_error`` and
``trigger_error``), each thimac's name and parent against its path, each
stage's owner, and the arrow tables against the arrows.
"""

from __future__ import annotations

from enum import Enum


class ActionKind(Enum):
    """The five generic actions.

    The enumeration is closed: any domain verb a model needs must be
    expressed as a combination of these five.  States such as "low" or
    "high" are values carried by things, never action kinds.
    """

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    #: members are singletons that compare by identity, so an identity hash
    #: serves; ``Enum.__hash__`` is Python code that every keyed lookup runs
    __hash__ = object.__hash__

    @property
    def letter(self) -> str:
        """One-letter abbreviation; release and receive share ``R``."""
        return _LETTERS[self]

    def __str__(self) -> str:
        return self.value


_LETTERS = {kind: kind.value[0].upper() for kind in ActionKind}  # its initial
_KINDS = {kind.value: kind for kind in ActionKind}  # by name

#: Canonical ordering for stages inside one machine: the declaration order.
KIND_ORDER = tuple(ActionKind)

_C = ActionKind.CREATE
_P = ActionKind.PROCESS
_REL = ActionKind.RELEASE
_T = ActionKind.TRANSFER
_RCV = ActionKind.RECEIVE

#: The complete succession table as (from, to, same_machine) triples.
#: Exactly eight triples are legal.  Within one machine a created or
#: received thing may be processed or released, a processed thing may be
#: released, a released thing may be transferred, and an inbound transfer
#: may be received.  The only legal boundary crossing is transfer-to-
#: transfer (output of one machine into the input of another).  Creation
#: is fed by triggers only, so no flow ends at a Create stage.
LEGAL_SUCCESSIONS: frozenset[tuple[ActionKind, ActionKind, bool]] = frozenset(
    {
        (_C, _P, True),
        (_C, _REL, True),
        (_RCV, _P, True),
        (_RCV, _REL, True),
        (_P, _REL, True),
        (_REL, _T, True),
        (_T, _RCV, True),
        (_T, _T, False),
    }
)


def legal_successor(
    from_kind: ActionKind, to_kind: ActionKind, same_machine: bool
) -> bool:
    """True iff a flow from ``from_kind`` to ``to_kind`` is legal.

    ``same_machine`` says whether both stages belong to the same scope: the
    same machine, or a machine and one of its own (transitively) nested
    submachines.  Flows between unrelated machines must pair two Transfer
    stages.
    """
    return (from_kind, to_kind, bool(same_machine)) in LEGAL_SUCCESSIONS


class ModelError(Exception):
    """Base class for structural model-construction errors."""


class UnknownParent(ModelError):
    pass


class DuplicateSiblingName(ModelError):
    pass


class DottedName(ModelError):
    pass


class UnknownThimac(ModelError):
    pass


class DuplicateKindInMachine(ModelError):
    pass


class DuplicateAlias(ModelError):
    pass


class UnknownStage(ModelError):
    pass


class IllegalSuccession(ModelError):
    def __init__(self, from_kind: ActionKind, to_kind: ActionKind, same_machine: bool):
        self.from_kind = from_kind
        self.to_kind = to_kind
        self.same_machine = same_machine
        scope = "within one machine" if same_machine else "across machines"
        super().__init__(
            f"a {from_kind.value} stage may not flow into a {to_kind.value} stage {scope}"
        )


class UnpairedBoundaryCrossing(ModelError):
    def __init__(self, from_ref: str, to_ref: str):
        super().__init__(
            f"flow {from_ref} -> {to_ref} crosses a machine boundary without "
            "pairing two transfer stages"
        )


class SelfTrigger(ModelError):
    pass


class EmptyRegion(ModelError):
    pass


class _Record:
    """Mutable fields, listed in ``_fields`` as a NamedTuple lists its own:
    a record equals one of its class with equal fields; its repr names them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


class Thimac(_Record):
    """A thing/machine: one node of the nesting forest."""

    __slots__ = _fields = ("id", "name", "parent", "stages")

    def __init__(self, id: str, name: str, parent: str | None = None,
                 stages: dict | None = None) -> None:
        self.id, self.name, self.parent = id, name, parent
        self.stages = {} if stages is None else stages


class Stage(_Record):
    """One generic action slot owned by a thimac."""

    __slots__ = _fields = ("id", "kind", "owner", "alias")

    def __init__(self, id: str, kind: ActionKind, owner: str, alias: str | None = None):
        self.id, self.kind, self.owner, self.alias = id, kind, owner, alias


class Flow(_Record):
    """Solid arrow: the thing at ``src`` becomes the thing at ``dst``."""

    __slots__ = _fields = ("id", "src", "dst", "carries", "anchor")

    def __init__(self, id: str, src: str, dst: str, carries: str | None = None,
                 anchor: int | None = None) -> None:
        self.id, self.src, self.dst = id, src, dst
        self.carries, self.anchor = carries, anchor


class Trigger(_Record):
    """Dashed arrow: activation that starts another machine's flow."""

    __slots__ = _fields = ("id", "src", "dst")

    def __init__(self, id: str, src: str, dst: str) -> None:
        self.id, self.src, self.dst = id, src, dst


class StaticModel(_Record):
    """A mutable-while-building container for one static model.  It equals
    a model with equal raw dicts and ``origin`` (the tables derive from
    them), so it is unhashable; its repr lists those fields."""

    _fields = ("thimacs", "stages", "flows", "triggers", "origin")

    def __init__(self) -> None:
        self.thimacs: dict[str, Thimac] = {}
        self.stages: dict[str, Stage] = {}
        self.flows: dict[str, Flow] = {}
        self.triggers: dict[str, Trigger] = {}
        # source lines (entity id -> line), filled by the parser
        self.origin: dict[str, int] = {}
        #: stage id -> flows leaving it / triggers sourced at it, declared order
        self.flows_from: dict[str, list[Flow]] = {}
        self.triggers_from: dict[str, list[Trigger]] = {}
        #: anchor -> the first flow declared with it
        self.by_anchor: dict[int, Flow] = {}
        #: dotted name path -> thimac id
        self.thimac_at: dict[str, str] = {}
        self._path_of: dict[str, str] = {}  # the inverse of thimac_at
        self._counters = {"t": 0, "s": 0, "f": 0, "g": 0}

    # -- construction -------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        self._counters[prefix] += 1
        return f"{prefix}{self._counters[prefix]}"

    def add_thimac(self, name: str, parent: str | None = None) -> str:
        """Add a thimac under ``parent`` (a root when parent is None)."""
        if parent is not None and parent not in self.thimacs:
            raise UnknownParent(f"unknown parent thimac {parent!r}")
        if "." in name:
            raise DottedName(f"thimac name {name!r} may not hold a dot")
        path = name if parent is None else f"{self._path_of[parent]}.{name}"
        if path in self.thimac_at:
            raise DuplicateSiblingName(f"thimac name {name!r} already used at this level")
        tid = self._next_id("t")
        self.thimacs[tid] = Thimac(id=tid, name=name, parent=parent)
        self.thimac_at[path] = tid
        self._path_of[tid] = path
        return tid

    def add_stage(
        self, thimac_id: str, kind: ActionKind, alias: str | None = None
    ) -> str:
        """Add the ``kind`` stage to a thimac; at most one per kind, and an
        alias names at most one stage of its thimac."""
        thimac = self.thimacs.get(thimac_id)
        if thimac is None:
            raise UnknownThimac(f"unknown thimac {thimac_id!r}")
        if kind in thimac.stages:
            raise DuplicateKindInMachine(
                f"{self.thimac_path(thimac_id)} already has a {kind.value} stage"
            )
        if alias is not None:
            if alias in [self.stages[sid].alias for sid in thimac.stages.values()]:
                raise DuplicateAlias(
                    f"{self.thimac_path(thimac_id)} already has a stage aliased {alias!r}"
                )
        sid = self._next_id("s")
        self.stages[sid] = Stage(id=sid, kind=kind, owner=thimac_id, alias=alias)
        thimac.stages[kind] = sid
        return sid

    def add_flow(self, src: str, dst: str, carries: str | None = None,
                 anchor: int | None = None) -> str:
        """Add a flow that :meth:`flow_error` passes."""
        if error := self.flow_error(src, dst):
            raise error
        fid = self._next_id("f")
        flow = self.flows[fid] = Flow(fid, src, dst, carries, anchor)
        self.flows_from.setdefault(src, []).append(flow)
        if anchor is not None:
            self.by_anchor.setdefault(anchor, flow)
        return fid

    def add_trigger(self, src: str, dst: str) -> str:
        """Add a trigger that :meth:`trigger_error` passes."""
        if error := self.trigger_error(src, dst):
            raise error
        gid = self._next_id("g")
        trigger = self.triggers[gid] = Trigger(gid, src, dst)
        self.triggers_from.setdefault(src, []).append(trigger)
        return gid

    def flow_error(self, src: str, dst: str) -> ModelError | None:
        """Why a flow from ``src`` to ``dst`` breaks the grammar, or None:
        both ends are stages, and the succession table allows the pair in
        its scope, where crossing between machines pairs two transfers."""
        a, b = self.stages.get(src), self.stages.get(dst)
        if a is None or b is None:
            return UnknownStage(f"unknown stage {src if a is None else dst!r}")
        same_scope = a.owner == b.owner or self.nesting_related(a.owner, b.owner)
        if legal_successor(a.kind, b.kind, same_scope):
            return None
        if same_scope:
            return IllegalSuccession(a.kind, b.kind, same_scope)
        # transfer -> transfer is the only legal step across machines
        return UnpairedBoundaryCrossing(self.stage_ref(src), self.stage_ref(dst))

    def trigger_error(self, src: str, dst: str) -> ModelError | None:
        """Why a trigger from ``src`` to ``dst`` is not allowed, or None: any
        two kinds may be linked, but only two stages, and not one to itself."""
        if src not in self.stages or dst not in self.stages:
            return UnknownStage(f"unknown stage {dst if src in self.stages else src!r}")
        if src == dst:
            return SelfTrigger(f"stage {self.stage_ref(src)} cannot trigger itself")
        return None

    # -- structure queries --------------------------------------------

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        """True iff ``ancestor`` encloses ``descendant`` (any depth)."""
        # names hold no dot, so a path's dots mark exactly its levels
        return self._path_of[descendant].startswith(self._path_of[ancestor] + ".")

    def nesting_related(self, a: str, b: str) -> bool:
        """True iff one thimac is nested (at any depth) inside the other."""
        return self.is_ancestor(a, b) or self.is_ancestor(b, a)

    def thimac_path(self, thimac_id: str) -> str:
        """Dotted root-to-thimac name path, e.g. ``librarian.request``."""
        return self._path_of[thimac_id]

    def stage_ref(self, stage_id: str) -> str:
        """Dotted reference ending in the stage's kind keyword."""
        stage = self.stages[stage_id]
        return f"{self.thimac_path(stage.owner)}.{stage.kind.value}"

    def resolve_stage_ref(self, ref: str) -> str | None:
        """Resolve ``path.kind`` (or ``path.alias``) to a stage id, or None."""
        path, dot, last = ref.rpartition(".")
        tid = self.thimac_at.get(path) if dot else None
        if tid is None:
            return None
        stages = self.thimacs[tid].stages
        if last in _KINDS:
            return stages.get(_KINDS[last])
        for sid in stages.values():
            if self.stages[sid].alias == last:
                return sid
        return None

    # -- regions -------------------------------------------------------

    def connected(self, stage_ids) -> bool:
        """True iff the flows and triggers with both ends in a stage set
        join it, read as undirected edges.  A single stage is connected."""
        stage_set = frozenset(stage_ids)
        if not stage_set:
            raise EmptyRegion("a region must contain at least one stage")
        for sid in stage_set:
            if sid not in self.stages:
                raise UnknownStage(f"unknown stage {sid!r}")
        adj: dict[str, set[str]] = {sid: set() for sid in stage_set}
        for sid in stage_set:
            leaving = self.flows_from.get(sid, []) + self.triggers_from.get(sid, [])
            for arrow in leaving:
                if arrow.dst in adj:
                    adj[sid].add(arrow.dst)
                    adj[arrow.dst].add(sid)
        seen = reachable(adj, [next(iter(stage_set))])
        return len(seen) == len(stage_set)


def reachable(succ, starts) -> set:
    """Every node reachable from ``starts``, the starts included, along
    ``succ`` (node -> its successors; a node absent from it has none)."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in succ.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def anchor_order(flow: Flow) -> tuple[bool, int]:
    """Sort key: lowest anchor first, unanchored last; ties keep input order."""
    return (flow.anchor is None, flow.anchor or 0)


def new_model() -> StaticModel:
    """Create an empty static model."""
    return StaticModel()
