import subprocess
import sys
from pathlib import Path

import pytest

from thimac import SourceDocument, parse

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
