"""Tokenizer for Java source text.

`tokenize(source)` returns a `Tokens`: the source's tokens as parallel
sequences, `texts`, `starts` (offsets into the source) and `mask`, a
`bytearray` that is 1 at each comment token. Comments are tokens like any
other, so the parser keeps them in the syntax tree. `len()` is the token
count, and indexing or iterating a `Tokens` builds a `Token` on
demand: a `typing.NamedTuple` of six fields (kind, text, start, end, line,
column), immutable and hashable, which compares equal to a plain tuple of
the same values. A token's kind follows from its text and is found when
its `Token` is built; the newline offsets that lines and columns are
found from by bisect are built on first use. So a source that is lexed
and parsed gets no object per token.
A `Token` also answers the leaf side of the tree interface: `label` (the
text), `start_line` and `end_line`, empty `children`, `is_leaf`,
`is_comment`, `walk()` and `leaves()`.

The lexer is one `findall` of a single compiled master regex, `_TOKEN_RE`,
whose matches are a token and the whitespace after it, from the first
character past the whitespace that starts the window. The whitespace is a
possessive `[ \\t\\r\\n\\f\\x0b]*+`; the token is the first of these
alternatives that matches: identifier or keyword, the symbols (longest
first), line comment, block comment, text block, string, char and number.
The two commonest alternatives come first, which finds the same token at
every position as the order comments, literals, number, word, symbols: a
word starts with a letter, `_` or `$`, and no comment, literal or number
does; a symbol starts neither a string nor a char, so only `/` (a comment
opener) and `.` (a number such as `.5`) start both a symbol and an
alternative that used to come before it. The symbol alternative's guard
`(?!//|/\\*|\\.\\d)` refuses exactly those positions, where `\\d` is the
same class the number alternative starts with. Alternatives that match
only the opening of an unterminated comment, text block, string or char,
a word that starts with a non-ASCII character, and any other single
character come after their well-formed counterparts, so every character
of the input lands in a match.

The offsets are one running sum of the lengths of the matches; the texts
are the matches without their trailing whitespace. A line comment runs to
the end of its line and may itself end in blanks or `\\r`, so its text is
its match cut at the first `\\n` instead. A lexical error is a token that
only the error alternatives produce. In an ASCII source those are a few
texts (`/*`, `\"\"\"`, `"`, `'` and the characters no token may start
with), which one set test against the texts finds; a source with
non-ASCII characters also has each token that starts with one checked:
it must start with a letter or a decimal digit. The first such token gives
the `ParseError`, with the same message, line and column as a scanner that
stops there.

Identifiers start with a character for which `str.isalpha` holds, or `_`
or `$`, and continue with characters for which `str.isalnum` holds, which
is exactly what the regex `\\w` matches, plus `$`. A character for which
`str.isdigit` holds but that is not a Unicode decimal digit, such as `²`,
starts a malformed number literal.

`lex_window(base_tokens, text)` lexes a text that shares most lines with
an already lexed source, such as a candidate patch and its reference fix,
only where the two differ. It returns `(first, last, window)`: the tokens
of `window`, a `Tokens` of `text` that covers the changed lines, replace
`base_tokens[first:last]` in `tokenize(text)`, and the base tokens around
them stay, those after the window moved by the change in length. So a
caller that asks only whether the edit changed a token text, as
`classify` does first, compares the key of `window` with that of
`base_tokens[first:last]` and builds nothing else.
`splice(base_tokens, first, last, window)` builds the whole `Tokens` of
`text` from them, copying the base's texts and mask around the window;
its `starts` are built on first read, which nothing in `classify` does
unless a `ParseError` needs a position. `lex_edit(base_tokens, text)` is
the two in turn, `(first, last, splice(...))`. The base's lines and their
offsets are split once and kept on the base `Tokens`, so the work for an
edit is its window's. Only a block comment, a text block, or a string or
char escaping a newline can reach past the end of a line, so a token of
`text` crosses the end of the changed lines only if the base token there
does, or if it does not close within them. The window starts at the
first line that differs or, while a base token crosses that start, at
the line where that token starts: a line start that no token crosses, as
the text before it is the base's. `lex_window` takes one of two paths:
- the window: it lexes on its own to the end of the changed lines, and
  no base token crosses that end;
- lex to the end: otherwise, the window runs to the end of `text`, and
  `last = len(base_tokens)`. A `ParseError` it raises is the one
  `tokenize(text)` raises, with the same line and column: the lines
  before lexed in the base.

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
from itertools import accumulate, compress, count, repeat
from operator import add, itemgetter
from typing import Iterator, NamedTuple, Optional

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

_WHITESPACE = " \t\r\n\f\x0b"

# One match per token, with the whitespace after it; `_BLANKS` matches the
# whitespace before the first token. The symbols are written as one
# alternative per first character, each trying its longer forms first,
# which matches what `_SYMBOLS` in longest-first order would. Each bare
# opener right after a comment or literal, and the two alternatives after
# the number, match only where a lexical error is; see the module docstring.
_TOKEN_RE = re.compile(
    r"""
    (?: [A-Za-z_$][\w$]*
      | (?!//|/\*|\.\d)
        (?: [(){}\[\];,@?~] | ::? | \.(?:\.\.)? | -[>=-]? | \+[+=]? | <<?=?
          | >=? | ==? | !=? | &[&=]? | \|[|=]? | \^=? | %=? | \*=? | /=? )
      | //[^\n]*
      | /\*.*?\*/ | /\*
      | "{3}[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"{3} | "{3}
      | "[^"\\\n]*(?:\\.[^"\\\n]*)*" | "
      | '[^'\\\n]*(?:\\.[^'\\\n]*)*' | '
      | (?: 0[xX][0-9a-fA-F_]+(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?\d+)?
          | 0[bB][01_]+
          | (?:\d[\d_]*)?\.\d[\d_]*(?:[eE][+-]?\d+)?
          | \d[\d_]*\.?(?:[eE][+-]?\d+)?
        )[fFdDlL]?
      | [\w$]+
      | .
    )
    [ \t\r\n\f\x0b]*+
    """,
    re.VERBOSE | re.DOTALL,
)
_BLANKS = re.compile(r"[ \t\r\n\f\x0b]*+")

_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}

# The texts of the tokens that only a lexical error gives in an ASCII
# source: an unterminated opener, or a character that starts no token.
_ASCII_ERRORS = frozenset(
    [*_UNTERMINATED, "#", "\\", "`", *map(chr, [*range(9), *range(14, 32), 127])]
)

_KINDS = {**dict.fromkeys(_SYMBOLS, SYMBOL), **dict.fromkeys(KEYWORDS, KEYWORD)}

# Where a comment may start: a `/` before a `/` or `*`. The lookahead
# finds both of two openers in a row, as in `/**//**/`.
_COMMENT_OPENER_RE = re.compile(r"/(?=[/*])")

# Turns a comment mask into a selector of the tokens that are not comments.
_INVERT = bytes.maketrans(b"\0\1", b"\1\0")


def _kind(text: str) -> str:
    """The kind of a token that lexed without error, from its text."""
    kind = _KINDS.get(text)
    if kind is not None:
        return kind
    first = text[0]
    if first == "/":
        return LINE_COMMENT if text[1] == "/" else BLOCK_COMMENT
    if first == '"':
        return STRING
    if first == "'":
        return CHAR
    if first == "." or first.isdecimal():
        return NUMBER
    return IDENTIFIER


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


class Tokens:
    """The tokens of `source` as parallel sequences: `texts`, `starts`, and
    `mask`, 1 at each comment token and 0 elsewhere. A token ends at
    `end(i)`, its start plus the length of its text.

    `len()` is the token count; `tokens[i]` (an int, negative allowed) and
    iteration build `Token`s. The source's `lines` and their `newlines`
    offsets are built together on first use. The `starts` of `splice`'s
    tokens are built on first read, from the base's and the window's.
    """

    __slots__ = ("source", "texts", "_starts", "mask", "_splice", "_lines", "_newlines")

    def __init__(
        self,
        source: str,
        texts: list[str],
        starts: Optional[list[int]],
        mask: bytearray,
        splice: Optional[tuple[list[int], int, list[int], int, int]] = None,
    ):
        self.source = source
        self.texts = texts
        self._starts = starts
        self.mask = mask
        # `(base starts, first, window starts, last, shift)` while `starts` is unbuilt.
        self._splice = splice
        self._lines: Optional[list[str]] = None
        self._newlines: Optional[list[int]] = None

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, i: int) -> Token:
        text = self.texts[i]
        start = self.starts[i]
        line, column = self.position(start)
        return Token(_kind(text), text, start, start + len(text), line, column)

    def __iter__(self) -> Iterator[Token]:
        return map(self.__getitem__, range(len(self.texts)))

    @property
    def starts(self) -> list[int]:
        """Each token's offset in the source."""
        if self._starts is None:
            base, first, window, last, shift = self._splice
            self._starts = base[:first] + window + list(map(add, base[last:], repeat(shift)))
            self._splice = None
        return self._starts

    @property
    def lines(self) -> list[str]:
        """The source split at its newlines."""
        if self._lines is None:
            self._lines = self.source.split("\n")
        return self._lines

    @property
    def newlines(self) -> list[int]:
        """The offsets of the source's newlines, in order."""
        if self._newlines is None:
            lengths = map(len, self.lines[:-1])
            self._newlines = list(map(add, accumulate(lengths), count()))
        return self._newlines

    def line_start(self, k: int) -> int:
        """The offset where the source's line `k` (0-based) starts, or
        would start for `k` one past its last line."""
        if not k:
            return 0
        if k == len(self.lines):
            return len(self.source) + 1
        return self.newlines[k - 1] + 1

    def end(self, i: int) -> int:
        """The offset just after token `i`."""
        return self.starts[i] + len(self.texts[i])

    def line(self, offset: int) -> int:
        """The 1-based line of the character at `offset`."""
        return bisect_left(self.newlines, offset) + 1

    def position(self, offset: int) -> tuple[int, int]:
        """The 1-based line and column of the character at `offset`."""
        newlines = self.newlines
        before = bisect_left(newlines, offset)
        return before + 1, offset - (newlines[before - 1] + 1 if before else 0) + 1

    def key(self, lo: int = 0, hi: Optional[int] = None) -> tuple[str, ...]:
        """The texts of the non-comment tokens among `texts[lo:hi]`."""
        texts, mask = self.texts, self.mask
        if hi is None:
            hi = len(texts)
        if mask.find(1, lo, hi) < 0:
            return tuple(texts[lo:hi])
        return tuple(compress(texts[lo:hi], mask[lo:hi].translate(_INVERT)))


def tokenize(source: str) -> Tokens:
    """Tokenize Java source, raising ParseError on lexical problems."""
    return _lex(source, 0, len(source))


def common_affixes(a: list[str], b: list[str]) -> tuple[int, int]:
    """`(prefix, suffix)`: how many leading items `a` and `b` share, then
    how many trailing items they share among those left after the prefix."""
    common = min(len(a), len(b))
    prefix = 0
    while prefix < common and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    while suffix < common - prefix and a[-1 - suffix] == b[-1 - suffix]:
        suffix += 1
    return prefix, suffix


def lex_window(base_tokens: Tokens, text: str) -> tuple[int, int, Tokens]:
    """`(first, last, window)`, where the tokens of `window`, a lexed piece
    of `text`, replace `base_tokens[first:last]` in `tokenize(text)` and
    the base tokens around them stay.

    Only the lines where `text` differs from `base_tokens.source` are
    lexed, and those of a base token crossing into them (see the module
    docstring). The base's lines and offsets are read from `base_tokens`.
    Raises `tokenize(text)`'s ParseError.
    """
    old = base_tokens.lines
    prefix, suffix = common_affixes(old, text.split("\n"))
    starts, end = base_tokens.starts, base_tokens.end
    start = base_tokens.line_start(prefix)
    first = bisect_left(starts, start)
    while first and end(first - 1) > start:  # from the line where that token starts
        start = base_tokens.line_start(base_tokens.line(starts[first - 1]) - 1)
        first = bisect_left(starts, start, hi=first)
    base_end = base_tokens.line_start(len(old) - suffix) if suffix else len(base_tokens.source)
    last = bisect_left(starts, base_end, lo=first)
    if not (last and end(last - 1) > base_end):
        try:
            return first, last, _lex(text, start, base_end + len(text) - len(base_tokens.source))
        except ParseError:
            pass
    return first, len(base_tokens), _lex(text, start, len(text))


def splice(base_tokens: Tokens, first: int, last: int, window: Tokens) -> Tokens:
    """`tokenize(window.source)`, from what `lex_window(base_tokens,
    window.source)` returned: the window's tokens in place of
    `base_tokens[first:last]`. The `starts` are built on first read, so the
    work is copying the base's texts and mask around the window."""
    texts, mask = base_tokens.texts, base_tokens.mask
    shift = len(window.source) - len(base_tokens.source)
    return Tokens(
        window.source,
        texts[:first] + window.texts + texts[last:],
        None,
        mask[:first] + window.mask + mask[last:],
        (base_tokens.starts, first, window.starts, last, shift),
    )


def lex_edit(base_tokens: Tokens, text: str) -> tuple[int, int, Tokens]:
    """`(first, last, tokenize(text))`, where `text` replaces
    `base_tokens[first:last]` and keeps the base tokens around them: the
    window `lex_window` lexes, spliced into the base. Raises
    `tokenize(text)`'s ParseError.
    """
    first, last, window = lex_window(base_tokens, text)
    return first, last, splice(base_tokens, first, last, window)


def _lex(source: str, pos: int, endpos: int) -> Tokens:
    """The tokens of `source[pos:endpos]`, with offsets, lines and columns
    in the whole source, provided `pos` is the start of a line there."""
    pos = _BLANKS.match(source, pos, endpos).end()
    matches = _TOKEN_RE.findall(source, pos, endpos)
    starts = list(accumulate(map(len, matches), initial=pos))
    starts.pop()
    texts = list(map(str.rstrip, matches, repeat(_WHITESPACE)))
    n = len(texts)
    tokens = Tokens(source, texts, starts, bytearray(n))
    if not (_ASCII_ERRORS.isdisjoint(texts) and source.isascii()):
        _check(tokens)
    for m in _COMMENT_OPENER_RE.finditer(source, pos, endpos):
        i = bisect_left(starts, m.start())
        if i < n and starts[i] == m.start():
            tokens.mask[i] = 1
            if texts[i][1] == "/":  # a line comment may end in blanks or `\r`
                texts[i] = matches[i].partition("\n")[0]
    return tokens


def _check(tokens: Tokens) -> None:
    """Raise the ParseError of the first token that only a lexical error
    gives, if there is one."""
    texts, starts = tokens.texts, tokens.starts
    for i, text in enumerate(texts):
        first = text[0]
        if first.isascii():
            if text not in _ASCII_ERRORS:
                continue
            if text in _UNTERMINATED:
                raise ParseError(_UNTERMINATED[text], *tokens.position(starts[i]))
        elif first.isalpha() or first.isdecimal():
            continue
        at = starts[i]
        if first.isdigit():
            # A digit outside Unicode Nd, such as `²`, starts a number
            # literal that cannot match; a `.` right before it starts that
            # literal.
            if i and texts[i - 1] == "." and starts[i - 1] == at - 1:
                at = starts[i - 1]
            raise ParseError("malformed number literal", *tokens.position(at))
        raise ParseError(f"unexpected character {first!r}", *tokens.position(at))
