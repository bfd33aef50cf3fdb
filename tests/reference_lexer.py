"""The regex lexer of :mod:`thimac.dsl` as it was before it read the text
line by line, kept as the oracle for :func:`thimac.dsl._tokens`.

One ``finditer`` over the whole text, a match per blank run, line numbers
counted through every whitespace match.  Tests run it beside the current
lexer on the same text and require identical tokens and diagnostics.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from thimac.dsl import ParseDiagnostic


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "eof" | the punctuation itself
    value: str
    line: int
    column: int

    @property
    def shown(self) -> str:
        return self.value or self.kind


# Every character starts exactly one match, so finditer covers the text.
# A string stops before a newline; a backslash escapes only '"' and '\'.
_TOKEN_RE = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+|\#[^\n]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>\d+)
    | (?P<string>"(?P<body>(?:[^"\\\n]+|\\["\\]?)*)(?P<closed>")?)
    | (?P<punct>->|=>|\.\.|[{}\[\];,.])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')


def _tokenize(text: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    toks: list[_Token] = []
    diags: list[ParseDiagnostic] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, start = m.lastgroup, m.start()
        column = start - line_start + 1
        if kind == "skip":
            last_newline = text.rfind("\n", start, m.end())
            if last_newline >= 0:
                line += text.count("\n", start, m.end())
                line_start = last_newline + 1
        elif kind == "string":
            if m.group("closed") is None:
                message = "unterminated string"
                diags.append(ParseDiagnostic("error", message, line, column))
            body = _ESCAPE_RE.sub(r"\1", m.group("body"))
            toks.append(_Token("string", body, line, column))
        elif kind == "bad":
            message = f"unexpected character {m.group()!r}"
            diags.append(ParseDiagnostic("error", message, line, column))
        else:
            word = m.group()
            toks.append(_Token(word if kind == "punct" else kind, word, line, column))
    toks.append(_Token("eof", "", line, len(text) - line_start + 1))
    return toks, diags
