"""The line-by-line lexer against the whole-text lexer in ``reference_lexer``."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_lexer
from thimac.dsl import RESERVED_WORDS, _tokens

#: Line breaks of every kind, blanks, digits decimal or not, quotes,
#: escapes, comments, arrows, keywords and dotted names.
PIECES = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    " ", "\u2028", "\u2029", "  ", "\t", "٣", "²", "7", "é", '"', "\\", "#",
    "->", "=>", "..", ".", ";", ",", "{", "}", "[", "]", "-", "=",
    "x", "a.b.c", "x_1", *sorted(RESERVED_WORDS),
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES) | st.text(max_size=2), max_size=30).map("".join))
@example("")
@example("flow a.b -> c.d;  \n  # note \r\n")
@example('"a\\\\b\\"c\n"open \\\nx')
def test_tokens_and_diagnostics_match_the_reference_lexer(text):
    diags = []
    toks = list(_tokens(text, diags))
    want_toks, want_diags = reference_lexer._tokenize(text)
    assert [tuple(t) for t in toks] == [tuple(t) for t in want_toks]
    assert diags == want_diags
