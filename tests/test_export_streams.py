"""``serialize`` and ``emit_dot`` written to a stream: the same text, in chunks."""

import io
import tracemalloc

import pytest
from hypothesis import given, settings

from conftest import chain_events, chain_texts, parse_corpus
from test_model import built_models
from test_simulate import _Discard
from thimac.dsl import _CHUNK, emit_dot, parse, serialize

CORPUS = ["library", "toast", "picnic", "take", "signal"]


class _Writes:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.chunks = []

    def write(self, text: str) -> None:
        self.chunks.append(text)


def streamed(export, *args) -> str:
    """What ``export(*args, out=...)`` writes; it must return None."""
    out = _Writes()
    assert export(*args, out=out) is None
    assert all(out.chunks), "an empty write"
    return "".join(out.chunks)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_exports_write_the_text_they_return(name):
    result = parse_corpus(name)
    m = result.model
    declared = (m, result.events, result.behaviors)
    assert streamed(serialize, *declared) == serialize(*declared)
    for highlight in [None, *(ev.region for ev in result.events)]:
        assert streamed(emit_dot, m, highlight) == emit_dot(m, highlight)


@settings(max_examples=200, deadline=None)
@given(built_models())
def test_built_models_write_the_text_they_return_or_raise_alike(m):
    assert streamed(emit_dot, m) == emit_dot(m)
    try:
        want = serialize(m)
    except ValueError as exc:  # a name or label the language cannot spell
        with pytest.raises(ValueError) as streaming:
            serialize(m, out=io.StringIO())
        assert str(streaming.value) == str(exc)
    else:
        assert streamed(serialize, m) == want


@pytest.mark.parametrize("export", [serialize, emit_dot], ids=lambda f: f.__name__)
def test_streamed_exports_never_hold_their_whole_text(export):
    """The 2,002 flows of a 500-relay chain, with its 500 events and a
    499-edge behavior: written to a stream, each export peaks below 250
    bytes a flow.  Its lines in a list beside the joined text cost about
    450."""
    result = parse(chain_texts(500, 1)[0] + chain_events(500))
    m, flows = result.model, len(result.model.flows)
    args = (m, result.events, result.behaviors) if export is serialize else (m,)
    assert export(*args).count("\n") > 4 * _CHUNK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert export(*args, out=_Discard()) is None
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 250 * flows, peak / flows
