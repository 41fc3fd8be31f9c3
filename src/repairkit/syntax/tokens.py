"""Tokenizer for Java source text.

Produces a flat token stream with byte offsets and 1-based line/column
positions. Comments are emitted as ordinary tokens so the parser can keep
them in the syntax tree (normalization removes them later).

A `Token` is a `typing.NamedTuple` of six fields, so it is immutable and
hashable and cheap to build; it also compares equal to a plain tuple of
the same values. A token is also a leaf of the syntax tree: the parser
appends the lexer's own tokens to its interior nodes, so a parse builds
one object per token. For that, `Token` has the leaf side of the tree
interface: `label` (the text), `start_line` and `end_line`, empty
`children`, `is_leaf`, `is_comment`, `walk()` and `leaves()`.

The lexer is one loop over a single compiled master regex, `_TOKEN_RE`,
with one match per token. Each match first skips the whitespace before
the token with a possessive `[ \\t\\r\\n\\f\\x0b]*+`, then tries named
groups in order: identifier or keyword, the symbols (longest first),
line comment, block comment, text block, string, char and number. The
two commonest groups come first so that most tokens are found by the
first or second alternative, and the loop dispatches on `m.lastindex`,
the number of the group that matched, with a branch of its own for each
of those two. That order finds the same token at every position as the
order comments, literals, number, word, symbols: a word starts with a
letter, `_` or `$`, and no comment, literal or number does; a symbol
starts neither a string nor a char, so only `/` (a comment opener) and
`.` (a number such as `.5`) start both a symbol and a group that used to
come before it. The symbol group's guard `(?!//|/\\*|\\.\\d)` refuses
exactly those positions, where `\\d` is the same class the number group
starts with. Groups that match only the opening of an unterminated
comment, text block, string or char, a word that starts with a non-ASCII
character, and any other single character come after their well-formed
counterparts; the loop turns them into a `ParseError` or, for a
non-ASCII identifier, checks the first character. A last, empty `_end`
group matches the end of the input after trailing whitespace, so the
search stops there instead of retrying that whitespace from each of its
positions. Lines and columns are tracked incrementally from the newlines
in the skipped whitespace, which runs from the previous match's end to
the token's start, and inside the tokens that can hold them: block
comments, text blocks, and strings or chars (where a backslash may
escape a newline). Most tokens follow the previous one with no
whitespace between, so the newlines are counted, and the last one
searched for, only inside a non-empty skipped run.

Identifiers start with a character for which `str.isalpha` holds, or `_`
or `$`, and continue with characters for which `str.isalnum` holds, which
is exactly what the regex `\\w` matches, plus `$`. A character for which
`str.isdigit` holds but that is not a Unicode decimal digit, such as `²`,
starts a malformed number literal.

`lex_edit(base, base_tokens, text)` lexes a text that shares most lines
with an already lexed `base`, such as a candidate patch and its reference
fix, only where the two differ. It returns `(first, last, window)` such
that `tokenize(text)` has exactly the texts and kinds of
`base_tokens[:first] + window + base_tokens[last:]`. The window tokens
carry their positions in `text`; the base tokens keep their positions in
`base`, so no token is rebuilt. The window starts at a line start: the
first line that differs. Only a block comment, a text block, or a string
or char escaping a newline can reach past the end of a line, so a token of
`text` crosses an edge of the changed lines only if the base token there
does, or if it does not close within them. `lex_edit` takes one of three
paths:
- the window: the changed lines lex on their own and no base token
  crosses either edge; `window` holds their tokens;
- lex to the end: a base token crosses the end of the changed lines, or
  they do not lex on their own; `window` holds the tokens from the first
  changed line to the end of `text`, and `last = len(base_tokens)`. This is
  exact, since no token crosses the window start, and a `ParseError` it
  raises is the one `tokenize(text)` raises, with the same line and
  column: the lines before lexed in `base`;
- full: a base token crosses the start of the changed lines; `window` is
  `tokenize(text)`, with `first = 0` and `last = len(base_tokens)`.

One deliberate quirk: `>` is always lexed as a single-character token and
never folded into `>>`, `>>>`, `>>=` or `>>>=`. Generic type closers may
legally be written `>>` or `> >`, and folding would make token streams
whitespace-sensitive. Compound shift operators still lex deterministically
(`x >>= 2` becomes `>`, `>=`) because no whitespace may appear inside them
in valid Java.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

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

# A group named after a token kind produces that kind; `_lex` handles the
# private (underscored) groups itself. Each `_open_*` group matches only
# where the complete form just before it did not, so it marks an
# unterminated comment or literal. The whitespace prefix must stay
# possessive: with a plain `*`, trailing whitespace backtracks into `_other`.
# The two commonest groups come first; see the module docstring for why
# that order, with the symbol group's guard, matches what the order
# comments, literals, words, symbols would.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n\f\x0b]*+
    (?:
      (?P<_word>[A-Za-z_$][\w$]*)
    | (?!//|/\*|\.\d)(?P<symbol>"""
    + "|".join(re.escape(s) for s in _SYMBOLS)
    + r""")
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
    | (?P<_unicode_word>[\w$]+)
    | (?P<_other>.)
    | (?P<_end>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# `m.lastindex` of a match, for the groups `_lex` tests by number, and
# the group name of every index.
_WORD_GROUP = _TOKEN_RE.groupindex["_word"]
_SYMBOL_GROUP = _TOKEN_RE.groupindex["symbol"]
_END_GROUP = _TOKEN_RE.groupindex["_end"]
_GROUP_NAMES = {index: name for name, index in _TOKEN_RE.groupindex.items()}

# Token kinds whose text may span lines.
_MULTILINE = frozenset({BLOCK_COMMENT, STRING, CHAR})

_UNTERMINATED = {
    "_open_comment": "unterminated block comment",
    "_open_text_block": "unterminated text block",
    "_open_string": "unterminated string literal",
    "_open_char": "unterminated char literal",
}


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int
    line: int
    column: int

    # The leaf side of the syntax tree interface (see `tree.SyntaxNode`).
    children = ()
    is_leaf = True
    label = property(itemgetter(1), doc="The token text, as a leaf label.")
    start_line = property(itemgetter(4), doc="The token's first line.")

    @property
    def end_line(self) -> int:
        return self.line + self.text.count("\n")

    @property
    def is_comment(self) -> bool:
        return self.kind in COMMENT_KINDS

    def walk(self) -> Iterator["Token"]:
        yield self

    def leaves(self) -> Iterator["Token"]:
        yield self


_START = itemgetter(2)  # a token's start offset


def tokenize(source: str) -> list[Token]:
    """Tokenize Java source, raising ParseError on lexical problems."""
    return _lex(source, 0, len(source), 1)


def lex_edit(
    base: str, base_tokens: list[Token], text: str
) -> tuple[int, int, list[Token]]:
    """`(first, last, window)` with `tokenize(text)` equal in texts and
    kinds to `base_tokens[:first] + window + base_tokens[last:]`.

    `base_tokens` must be `tokenize(base)`. Only the lines where `text`
    differs from `base` are lexed, when that is exact; see the module
    docstring for the three paths. Raises `tokenize(text)`'s ParseError.
    """
    old, new = base.split("\n"), text.split("\n")
    common = min(len(old), len(new))
    prefix = 0
    while prefix < common and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while suffix < common - prefix and old[-1 - suffix] == new[-1 - suffix]:
        suffix += 1
    start = sum(map(len, old[:prefix])) + prefix
    first = bisect_left(base_tokens, start, key=_START)
    if first and base_tokens[first - 1].end > start:
        return 0, len(base_tokens), tokenize(text)
    tail = sum(map(len, old[len(old) - suffix :])) + suffix - 1 if suffix else 0
    base_end = len(base) - tail
    last = bisect_left(base_tokens, base_end, lo=first, key=_START)
    if not (last and base_tokens[last - 1].end > base_end):
        try:
            return first, last, _lex(text, start, len(text) - tail, prefix + 1)
        except ParseError:
            pass
    return first, len(base_tokens), _lex(text, start, len(text), prefix + 1)


def token_key(tokens: Iterable[Token]) -> tuple[str, ...]:
    """The texts of the non-comment tokens, in order: `ast_key` of the
    tree whose leaves they are."""
    return tuple([t.text for t in tokens if t.kind not in COMMENT_KINDS])


def _lex(source: str, pos: int, endpos: int, line: int) -> list[Token]:
    """The tokens of `source[pos:endpos]`, as if `pos` starts line `line`.

    Offsets, lines and columns are those of the whole source, provided
    `pos` is the start of a line there.
    """
    out: list[Token] = []
    append = out.append
    count = source.count
    new_token = tuple.__new__  # skips the NamedTuple's Python-level `__new__`
    line_start = pos  # offset of the current line's first character
    skipped = pos  # where the previous match ended: whitespace starts there
    for m in _TOKEN_RE.finditer(source, pos, endpos):
        group = m.lastindex
        start, end = m.span(group)
        if skipped != start:
            newlines = count("\n", skipped, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", skipped, start) + 1
        skipped = end
        text = source[start:end]
        column = start - line_start + 1
        if group == _WORD_GROUP:
            kind = KEYWORD if text in KEYWORDS else IDENTIFIER
            append(new_token(Token, (kind, text, start, end, line, column)))
        elif group == _SYMBOL_GROUP:
            append(new_token(Token, (SYMBOL, text, start, end, line, column)))
        else:
            kind = _GROUP_NAMES[group]
            if kind[0] == "_":
                if group == _END_GROUP:
                    break
                kind = _private_kind(kind, text, start, out, line, column)
            append(new_token(Token, (kind, text, start, end, line, column)))
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
