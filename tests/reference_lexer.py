"""Character-at-a-time Java scanner: the test oracle for `tokenize`.

This is the scanner `repairkit.syntax.tokens` used before it became one
master regex. It is kept here, self-contained apart from the token type, the
kind names and the keyword set, so property tests can check that the regex
lexer gives the same tokens, or the same `ParseError`, on any input.
"""
from __future__ import annotations

import re

from repairkit.errors import ParseError
from repairkit.syntax.tokens import (
    BLOCK_COMMENT,
    CHAR,
    IDENTIFIER,
    KEYWORD,
    KEYWORDS,
    LINE_COMMENT,
    NUMBER,
    STRING,
    SYMBOL,
    Token,
)

# Longest-match table; `>>`-family is absent on purpose.
_SYMBOLS = [
    "<<=", "...",
    "->", "::", "<<", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "{", "}", "[", "]", "@",
]

_NUMBER_RE = re.compile(
    r"""(?: 0[xX][0-9a-fA-F_]+(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?\d+)?
          | 0[bB][01_]+
          | (?:\d[\d_]*)?\.\d[\d_]*(?:[eE][+-]?\d+)?
          | \d[\d_]*\.?(?:[eE][+-]?\d+)?
        )[fFdDlL]?""",
    re.VERBOSE,
)


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def _advance(self, n: int) -> None:
        chunk = self.src[self.pos : self.pos + n]
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.col = n - chunk.rfind("\n")
        else:
            self.col += n
        self.pos += n

    def _token(self, kind: str, length: int) -> Token:
        tok = Token(
            kind,
            self.src[self.pos : self.pos + length],
            self.pos,
            self.pos + length,
            self.line,
            self.col,
        )
        self._advance(length)
        return tok

    def _scan_string(self, quote: str, kind: str) -> Token:
        src, i = self.src, self.pos
        if quote == '"' and src.startswith('"""', i):
            # Text block: ends at the next unescaped triple quote.
            j = i + 3
            while j < len(src):
                if src[j] == "\\":
                    j += 2
                    continue
                if src.startswith('"""', j):
                    return self._token(kind, j + 3 - i)
                j += 1
            raise self.error("unterminated text block")
        j = i + 1
        while j < len(src):
            ch = src[j]
            if ch == "\\":
                j += 2
                continue
            if ch == quote:
                return self._token(kind, j + 1 - i)
            if ch == "\n":
                break
            j += 1
        raise self.error(f"unterminated {kind.replace('_', ' ')}")

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        src = self.src
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r\n\f\x0b":
                self._advance(1)
                continue
            if src.startswith("//", self.pos):
                end = src.find("\n", self.pos)
                length = (end if end != -1 else len(src)) - self.pos
                out.append(self._token(LINE_COMMENT, length))
                continue
            if src.startswith("/*", self.pos):
                end = src.find("*/", self.pos + 2)
                if end == -1:
                    raise self.error("unterminated block comment")
                out.append(self._token(BLOCK_COMMENT, end + 2 - self.pos))
                continue
            if ch == '"':
                out.append(self._scan_string('"', STRING))
                continue
            if ch == "'":
                out.append(self._scan_string("'", CHAR))
                continue
            if ch.isdigit() or (
                ch == "." and self.pos + 1 < len(src) and src[self.pos + 1].isdigit()
            ):
                m = _NUMBER_RE.match(src, self.pos)
                if m is None:  # a digit outside Unicode Nd, such as '²'
                    raise self.error("malformed number literal")
                out.append(self._token(NUMBER, m.end() - self.pos))
                continue
            if _ident_start(ch):
                j = self.pos + 1
                while j < len(src) and _ident_part(src[j]):
                    j += 1
                text = src[self.pos : j]
                kind = KEYWORD if text in KEYWORDS else IDENTIFIER
                out.append(self._token(kind, j - self.pos))
                continue
            for sym in _SYMBOLS:
                if src.startswith(sym, self.pos):
                    out.append(self._token(SYMBOL, len(sym)))
                    break
            else:
                raise self.error(f"unexpected character {ch!r}")
        return out


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize with the old scanner; same contract as `tokenize`."""
    return _Scanner(source).tokens()
