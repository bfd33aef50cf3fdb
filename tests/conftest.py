import subprocess
import sys
from pathlib import Path

import pytest

from thimac import SourceDocument, parse
from thimac.model import ActionKind

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"


def parse_corpus(name: str):
    path = CORPUS / f"{name}.tm"
    result = parse(SourceDocument(path.read_text(), str(path)))
    assert result.ok, [d.render(name) for d in result.diagnostics]
    return result


@pytest.fixture(scope="session")
def library():
    return parse_corpus("library")


@pytest.fixture(scope="session")
def toast():
    return parse_corpus("toast")


@pytest.fixture(scope="session")
def picnic():
    return parse_corpus("picnic")


@pytest.fixture(scope="session")
def take():
    return parse_corpus("take")


@pytest.fixture(scope="session")
def signal():
    return parse_corpus("signal")


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN


def chain_texts(relays: int, things: int) -> tuple[str, str]:
    """Model and scenario text of a legal chain: ``things`` things injected
    one tick apart walk ``m0``'s create, release and transfer stages, then
    each relay's transfer, receive and release and its nested ``out``
    transfer, 3 + 4 * ``relays`` entries a thing."""
    path = ["m0.create", "m0.release", "m0.transfer"]
    model = ["thimac m0 { create; release; transfer; }\n"]
    for i in range(1, relays + 1):
        model.append(f"thimac m{i} {{ transfer; receive; release; thimac out {{ transfer; }} }}\n")
        path += [f"m{i}.transfer", f"m{i}.receive", f"m{i}.release", f"m{i}.out.transfer"]
    model += [f"flow {a} -> {b};\n" for a, b in zip(path, path[1:])]
    return "".join(model), "".join(f"inject {j} m0 t{j}\n" for j in range(things))


def chain_events(relays: int) -> str:
    """Declarations for :func:`chain_texts`' model: an event ``e<i>`` over
    each relay's four stages, and a behavior ``relay`` in which ``e<i>`` may
    only be followed by ``e<i+1>``."""
    events = "".join(
        f"event e{i} {{ region [m{i}.transfer, m{i}.receive, m{i}.release, m{i}.out.transfer] }}\n"
        for i in range(1, relays + 1)
    )
    edges = "".join(f"  e{i} -> e{i + 1};\n" for i in range(1, relays))
    return f"{events}behavior relay {{\n{edges}}}\n"


def _retriggered(dst):
    """A legal trigger from ``b.hands.process``, then its target edited to
    the stage ``dst`` names, or to ``dst`` itself when it names none."""
    def edit(m):
        g = m.add_trigger(m.resolve_stage_ref("b.hands.process"), m.resolve_stage_ref("a.create"))
        m.triggers[g].dst = m.resolve_stage_ref(dst) or dst
    return edit


def _copied_alias(m):
    m.stages[m.resolve_stage_ref("b.receive")].alias = "hold"
    m.stages[m.resolve_stage_ref("b.release")].alias = "hold"


def _reparented(path, parent):
    def edit(m):
        m.thimacs[m.thimac_at[path]].parent = m.thimac_at.get(parent, parent)
    return edit


def _reowned(ref, owner):
    def edit(m):
        m.stages[m.resolve_stage_ref(ref)].owner = m.thimac_at.get(owner, owner)
    return edit


def _listed(path, kind, ref):
    """Thimac ``path`` lists the stage ``ref`` names, or ``ref`` itself, as
    its ``kind`` stage."""
    def edit(m):
        m.thimacs[m.thimac_at[path]].stages[kind] = m.resolve_stage_ref(ref) or ref
    return edit


def _moved_src(fid, src):
    def edit(m):
        m.flows[fid].src = m.resolve_stage_ref(src)
    return edit


#: Hand edits of the raw dicts of a freshly parsed ``take.tm``, each with
#: the one error code ``validate`` gives the edited model
TAKE_EDITS = {
    "self-trigger": (_retriggered("b.hands.process"), "V8"),
    "trigger to s999": (_retriggered("s999"), "V7"),
    "flow to s999": (lambda m: setattr(m.flows["f9"], "dst", "s999"), "V2"),
    "alias copied within one machine": (_copied_alias, "V9"),
    "b under missing t99": (_reparented("b", "t99"), "V10"),
    "hands under missing t99": (_reparented("b.hands", "t99"), "V10"),
    "hands made a root": (_reparented("b.hands", None), "V10"),
    "c under a": (_reparented("c", "a"), "V10"),
    "a renamed": (lambda m: setattr(m.thimacs[m.thimac_at["a"]], "name", "z"), "V10"),
    "c.receive owned by missing t99": (_reowned("c.receive", "t99"), "V11"),
    "c.receive owned by a": (_reowned("c.receive", "a"), "V11"),
    "a lists a missing stage": (_listed("a", ActionKind.PROCESS, "s99"), "V11"),
    "a lists c.receive": (_listed("a", ActionKind.RECEIVE, "c.receive"), "V11"),
    # legal as a pair, but flows_from still lists f6 under b.hands.process
    "f6 moved to leave b.receive": (_moved_src("f6", "b.receive"), "V12"),
}


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "thimac", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="session")
def cli():
    return run_cli
