"""Tokenizer for Java source text.

Produces a flat token stream with byte offsets and 1-based line/column
positions. Comments are emitted as ordinary tokens so the parser can keep
them in the syntax tree (normalization removes them later).

The lexer is one loop over a single compiled master regex, `_TOKEN_RE`.
Its alternatives are named groups, tried in order: whitespace, line
comment, block comment, text block, string, char, number, identifier or
keyword, and the symbols, longest first. Groups that match only the opening
of an unterminated comment, text block, string or char, a word that starts
with a non-ASCII character, and any other single character come after
their well-formed counterparts; the loop turns them into a `ParseError` or,
for a non-ASCII identifier, checks the first character. Lines and columns
are tracked incrementally from the newlines inside the matches that can
hold them: whitespace, block comments, text blocks, and strings or chars
(where a backslash may escape a newline).

Identifiers start with a character for which `str.isalpha` holds, or `_`
or `$`, and continue with characters for which `str.isalnum` holds, which
is exactly what the regex `\\w` matches, plus `$`. A character for which
`str.isdigit` holds but that is not a Unicode decimal digit, such as `²`,
starts a malformed number literal.

One deliberate quirk: `>` is always lexed as a single-character token and
never folded into `>>`, `>>>`, `>>=` or `>>>=`. Generic type closers may
legally be written `>>` or `> >`, and folding would make token streams
whitespace-sensitive. Compound shift operators still lex deterministically
(`x >>= 2` becomes `>`, `>=`) because no whitespace may appear inside them
in valid Java.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseError

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# Longest-match table; see module docstring for why `>>`-family is absent.
_SYMBOLS = [
    "<<=", "...",
    "->", "::", "<<", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "@",
]

IDENTIFIER = "identifier"
KEYWORD = "keyword"
NUMBER = "number_literal"
STRING = "string_literal"
CHAR = "char_literal"
SYMBOL = "symbol"
LINE_COMMENT = "line_comment"
BLOCK_COMMENT = "block_comment"

COMMENT_KINDS = frozenset({LINE_COMMENT, BLOCK_COMMENT})

# A group named after a token kind produces that kind; `tokenize` handles
# the private (underscored) groups itself. Each `_open_*` group matches only
# where the complete form just before it did not, so it marks an
# unterminated comment or literal.
_TOKEN_RE = re.compile(
    r"""
      (?P<_space>[ \t\r\n\f\x0b]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<_open_comment>/\*)
    | (?P<_text_block>"{3}[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"{3})
    | (?P<_open_text_block>"{3})
    | (?P<string_literal>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
    | (?P<_open_string>")
    | (?P<char_literal>'[^'\\\n]*(?:\\.[^'\\\n]*)*')
    | (?P<_open_char>')
    | (?P<number_literal>
        (?: 0[xX][0-9a-fA-F_]+(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?\d+)?
          | 0[bB][01_]+
          | (?:\d[\d_]*)?\.\d[\d_]*(?:[eE][+-]?\d+)?
          | \d[\d_]*\.?(?:[eE][+-]?\d+)?
        )[fFdDlL]?)
    | (?P<_word>[A-Za-z_$][\w$]*)
    | (?P<symbol>"""
    + "|".join(re.escape(s) for s in _SYMBOLS)
    + r""")
    | (?P<_unicode_word>[\w$]+)
    | (?P<_other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# Token kinds whose text may span lines.
_MULTILINE = frozenset({BLOCK_COMMENT, STRING, CHAR})

_UNTERMINATED = {
    "_open_comment": "unterminated block comment",
    "_open_text_block": "unterminated text block",
    "_open_string": "unterminated string literal",
    "_open_char": "unterminated char literal",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int
    end: int
    line: int
    column: int

    @property
    def end_line(self) -> int:
        return self.line + self.text.count("\n")


def tokenize(source: str) -> list[Token]:
    """Tokenize Java source, raising ParseError on lexical problems."""
    out: list[Token] = []
    append = out.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        start = m.start()
        if kind == "_space":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
            continue
        if kind == "_word":
            kind = KEYWORD if text in KEYWORDS else IDENTIFIER
        elif kind[0] == "_":
            kind = _private_kind(kind, text, start, out, line, start - line_start + 1)
        append(Token(kind, text, start, m.end(), line, start - line_start + 1))
        if kind in _MULTILINE and "\n" in text:
            line += text.count("\n")
            line_start = start + text.rfind("\n") + 1
    return out


def _private_kind(
    group: str, text: str, start: int, out: list[Token], line: int, column: int
) -> str:
    """The token kind of a private group's match, or the ParseError it means."""
    if group == "_text_block":
        return STRING
    if group in _UNTERMINATED:
        raise ParseError(_UNTERMINATED[group], line, column)
    first = text[0]
    if group == "_unicode_word" and first.isalpha():
        return IDENTIFIER
    if first.isdigit():
        # A digit outside Unicode Nd, such as `²`, starts a number literal
        # that cannot match; a `.` right before it starts that literal.
        if out and out[-1].text == "." and out[-1].end == start:
            line, column = out[-1].line, out[-1].column
        raise ParseError("malformed number literal", line, column)
    raise ParseError(f"unexpected character {first!r}", line, column)
