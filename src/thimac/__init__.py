"""Executable thing/machine diagrams.

A thimac is simultaneously a thing and a machine; a machine handles
things through at most five generic actions (create, process, release,
transfer, receive).  This package parses a textual notation for such
diagrams, audits their action grammar, defines events as timed connected
regions, assembles event chronologies, runs deterministic thing-flow
ticks, and checks runs against a chronology.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .model import (
    ActionKind,
    Flow,
    KIND_ORDER,
    LEGAL_SUCCESSIONS,
    ModelError,
    Stage,
    StaticModel,
    Thimac,
    Trigger,
    legal_successor,
    new_model,
)
from .validate import (
    Diagnostic,
    UNVERIFIED_VERBS,
    UnknownVerb,
    VerbLexicon,
    default_lexicon,
    validate,
)
from .events import (
    AmbiguousReading,
    BehaviorModel,
    EventDef,
    EventError,
    NoLegalReading,
    NonLinearRegion,
    TimeSubthimac,
    build_behavior,
    chain_legal,
    check_behavior,
    decode_actions,
    decompose,
    define_event,
    encode_actions,
    event_action_sequence,
    event_moved,
    iter_legal_chains,
)
from .dsl import (
    ParseDiagnostic,
    ParseResult,
    SourceDocument,
    emit_dot,
    parse,
    serialize,
)
from .simulate import (
    ConformanceReport,
    GenericEventInstance,
    ProjectionResult,
    Scenario,
    ScenarioError,
    SimulationError,
    StuckThing,
    ThingInstance,
    Trace,
    conforms,
    load_scenario,
    project,
    render_trace,
    run,
)

#: every public name above but the submodules, sorted, then the version
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
