"""Structural parser for Java source fragments.

The grammar is intentionally shallow: declarations, blocks, and control-flow
statements are structured nodes, while expressions and types are kept as
ordered token runs with nested delimiter groups. That is exactly the depth
needed to extract functions with precise line ranges and to compare trees
for equivalence after formatting and comments are discarded; it is not a
semantic analysis.

Anonymous class bodies, lambda bodies, array initializers, and switch bodies
are parsed as raw `{...}` groups, so the declarations inside them never
produce standalone method nodes.

The parser accepts fragments, not just compilation units: a lone method,
statement, or field parses with the corresponding root node.

The parser reads two parallel sequences of a `Tokens`: `texts`, and
`mask`, which marks the comments. Its cursor is a token index, `peek()`
returns the text of a significant token ahead, and a leaf is appended to
its node as that token's index; no `Token` is built unless a `ParseError`
needs a position or the source is a lone token. A node's span and lines
are read from the token lists when asked (see `tree.SyntaxNode`).

Most tokens sit in flat runs: the leaves of a delimiter group, of a
simple statement up to its `;`, or of a declaration's header, member
prefix, method tail, type parameters or enum constants. `_walk` walks a
run and the groups nested in it in one loop with a local index, testing
each token's text only against the texts that end the run or open a
group, and appends the leaves to the node as ranges. A group's node
starts with the comments just before its opener, and a recursive call
walks its inside, so the parser takes one frame per group nesting level
and keeps no stack of its own. A comment just before a `{` that ends a
run goes to the body or block that the `{` opens.

Statements take two frames per block or `if` level: `parse_block` passes
the text of each statement's first significant token to
`parse_statement`. For a statement that starts with a keyword,
`parse_statement` takes the keyword and builds the node, named
`<keyword>_statement`; the keyword's method in `_KEYWORD_STATEMENTS`
only appends what follows the keyword.

Every choice the parser makes reads the texts of the significant tokens
and nothing else: no offset, line or comment. So whether a source parses,
and its tree without comments, follow from its `Tokens.key()`. Where the
grammar needs a token's kind, such as an identifier, the kind follows
from the text.

`parses_edit(tree, first, last, tokens)` decides whether an edit of a
parsed source parses, re-parsing only the statements the edit changed.
The base is `tree.tokens`, which every node of a tree shares, and
`tokens` is the base with `[first:last)` replaced, as `lex_edit` returns
them. `tree` is the base's parse or any subtree of it, such as one
function, and the block is searched inside it: the innermost `block` of
`tree` whose `{` and `}` both lie outside `[first, last)`. It runs that
block's statement loop on `tokens` from the latest statement start with
at least 3 unchanged significant tokens before `first`, or from just
after the `{`. When the loop reaches, at a statement boundary, the token
that followed the edited statements in the base, shifted by the change
in length, the edit parses; a `ParseError` on the way means it does not. This is exact, because a
whole parse of `tokens` takes the same steps:
- Up to the restart point it reads the same tokens as the base's parse,
  and so stands in the same block with the same enclosing constructs. No
  lookahead reaches past a `{` into its block, and none reads more than 2
  significant tokens ahead (`_looks_like_record`: `record` starts a
  declaration only with a name and `(` or `<` after it). So the parse of
  the statements before a boundary reads at most the first token after
  it, for example when it checks for `else`, `catch`, `finally` or
  `while`; the 3 unchanged tokens leave a margin.
- From the restart point on, the loop runs the same statement parses.
- At the boundary where it stops, the rest of the tokens are the base's
  rest, and the base's parse went on from that boundary without error.
When the loop meets a `}` first, or passes that token inside a statement,
or no such block exists, it returns None and the caller parses whole.
Given a subtree, a True verdict also says where the whole parse's tree
changes: only among that block's statements, so inside the subtree.

The parser recurses once per nesting level, so a source nested past
Python's recursion limit raises ParseError ("nesting too deep") in
`parse`, and `parses_edit` leaves it to a whole parse. Where that limit
falls depends on the caller's stack, so it is the one verdict that does
not follow from the token texts alone.
"""
from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from .tokens import IDENTIFIER, KEYWORD, KEYWORDS, Tokens, _kind, tokenize
from .tree import COMPILATION_UNIT, Node, SyntaxNode

MODIFIER_WORDS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

# What may follow a `sealed` or `non-sealed` modifier, besides a modifier.
_SEALED_FOLLOWERS = frozenset({"class", "interface", "@", "sealed", "non"})

_GROUP_KINDS = {"(": "paren_group", "[": "bracket_group", "{": "brace_group"}
_CLOSERS = {"(": ")", "[": "]", "{": "}"}
_CLOSING = frozenset(")]}")
# The ends of the runs `_take_until` and `_finish_simple` walk, each with
# the texts its walk stops at: the ends, a closer and a `;`.
_SEMICOLON = frozenset(";")
_BODY = frozenset("{")
_METHOD_TAIL_ENDS = frozenset({"{", ";", "default"})
_ANGLES = frozenset("<>")
_UNTIL_STOPS = {
    ends: ends | _CLOSING | _SEMICOLON for ends in (_SEMICOLON, _BODY, _METHOD_TAIL_ENDS, _ANGLES)
}
_STATEMENT_STOPS = _UNTIL_STOPS[_SEMICOLON]
# What ends a run of enum constants; a stray `)` or `]` there is a leaf.
_ENUM_CONSTANT_STOPS = frozenset("};")
_PARAMETERS = frozenset("(")
# The texts a walk with the given stops reacts to: its stops and the
# openers of the groups it parses. No comment has one of these texts.
_MARKS = {
    stops: stops.union(_GROUP_KINDS)
    for stops in (_CLOSING, _ENUM_CONSTANT_STOPS, _PARAMETERS, *_UNTIL_STOPS.values())
}
# The texts that end a member's header at delimiter depth 0.
_MEMBER_STOPS = frozenset("(=;{")
_SIMPLE_STATEMENTS = frozenset({"return", "throw", "break", "continue", "assert"})
_TYPE_WORDS = frozenset({"class", "interface", "enum"})
_WORD_KINDS = (IDENTIFIER, KEYWORD)


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.texts = tokens.texts
        self.mask = tokens.mask
        self.n = len(tokens)
        self.i = 0

    # ---- token cursor -------------------------------------------------

    def _eof_error(self, message: str) -> ParseError:
        """The error just past the last token; a source of no tokens parses
        without error, so there is one."""
        last = self.tokens[-1]
        tail = last.text.split("\n")[-1]
        col = len(tail) + (last.column if "\n" not in last.text else 1)
        return ParseError(message, last.end_line, col)

    def error(self, message: str) -> ParseError:
        j = self._next_significant_index()
        if j == self.n:
            return self._eof_error(message)
        tok = self.tokens[j]
        return ParseError(f"{message} (found {tok.text!r})", tok.line, tok.column)

    def peek(self, ahead: int = 0) -> Optional[str]:
        """The text of the ahead-th significant (non-comment) token, not
        consumed."""
        j, n, mask = self.i, self.n, self.mask
        if not ahead and j < n and not mask[j]:
            return self.texts[j]
        seen = 0
        while j < n:
            if not mask[j]:
                if seen == ahead:
                    return self.texts[j]
                seen += 1
            j += 1
        return None

    def take_leaf(self, out: list) -> None:
        """Consume the next significant token as a leaf in `out`, after the
        comment tokens before it."""
        i, n, mask = self.i, self.n, self.mask
        while i < n:
            out.append(i)
            i += 1
            if not mask[i - 1]:
                self.i = i
                return
        self.i = i
        raise self._eof_error("unexpected end of input")

    def expect(self, text: str, out: list) -> None:
        if self.peek() != text:
            raise self.error(f"expected {text!r}")
        self.take_leaf(out)

    def drain_comments(self, out: list) -> None:
        i, n, mask = self.i, self.n, self.mask
        while i < n and mask[i]:
            out.append(i)
            i += 1
        self.i = i

    # ---- delimiter groups ---------------------------------------------

    def parse_group(self, opener: Optional[str] = None) -> SyntaxNode:
        """The delimiter group that opens at the next significant token, which
        must be `opener` if given; the comments before it are its first leaves."""
        texts, mask, n = self.texts, self.mask, self.n
        j = self.i
        while j < n and mask[j]:
            j += 1
        if opener is not None and (j == n or texts[j] != opener):
            raise self.error(f"expected {opener!r}")
        opener = texts[j]
        kids = [j] if j == self.i else list(range(self.i, j + 1))
        self.i = j + 1
        end = self._walk(kids, _CLOSING)
        if end == n or texts[end] != _CLOSERS[opener]:
            raise self._unclosed(opener, end)
        kids.append(end)
        self.i = end + 1
        return SyntaxNode(_GROUP_KINDS[opener], kids, self.tokens)

    def _unclosed(self, opener: str, end: int) -> ParseError:
        """The error for a group whose walk stopped at `end`, not its closer."""
        if end == self.n:
            return self._eof_error(f"unbalanced {opener!r}")
        return self.error(f"mismatched {self.texts[end]!r}")

    def _walk(self, kids: list, stops: frozenset[str]) -> int:
        """Append leaves and groups to `kids` up to the next token outside a
        group whose text is in `stops`, and return its index, or the token
        count. A group's inside is walked by a recursive call. The cursor is
        left at the stop, or at the comments just before it if it opens a
        group, which go with it."""
        texts, mask, n = self.texts, self.mask, self.n
        marks = _MARKS[stops]
        start = self.i
        while True:
            for stop in range(start, n):
                if texts[stop] in marks:
                    break
            else:
                kids += range(start, n)
                self.i = n
                return n
            text = texts[stop]
            j = stop
            if text in _GROUP_KINDS:
                while j > start and mask[j - 1]:
                    j -= 1
            kids += range(start, j)
            if text in stops:
                self.i = j
                return stop
            group = [stop] if j == stop else list(range(j, stop + 1))
            self.i = stop + 1
            end = self._walk(group, _CLOSING)
            if end == n or texts[end] != _CLOSERS[text]:
                raise self._unclosed(text, end)
            group.append(end)
            kids.append(SyntaxNode(_GROUP_KINDS[text], group, self.tokens))
            start = end + 1

    def _take_until(self, kids: list, ends: frozenset[str], message: str) -> str:
        """Append leaves and groups to `kids` up to the next token outside a
        group whose text is in `ends`, and return that text; the token is
        not taken. A closer, or a `;` not in `ends`, raises ParseError with
        `message`, as does the end of input."""
        stop = self._walk(kids, _UNTIL_STOPS[ends])
        if stop == self.n or self.texts[stop] not in ends:
            raise self.error(message)
        return self.texts[stop]

    # ---- statements ----------------------------------------------------

    def parse_block(self) -> SyntaxNode:
        texts, mask, n = self.texts, self.mask, self.n
        i = self.i
        while i < n and mask[i]:
            i += 1
        if i == n or texts[i] != "{":
            raise self.error("expected '{'")
        kids = [i] if i == self.i else list(range(self.i, i + 1))
        self.i = i + 1
        while True:
            i = self.i
            while i < n and mask[i]:
                i += 1
            if i == n:
                raise self._eof_error("expected '}'")
            text = texts[i]
            if text == "}":
                if i > self.i:  # comments before the `}`
                    kids += range(self.i, i)
                kids.append(i)
                self.i = i + 1
                return SyntaxNode("block", kids, self.tokens)
            kids.append(self.parse_statement(text))

    def parse_statement(self, text: Optional[str]) -> SyntaxNode:
        """The statement that starts with `text`, the next significant one."""
        if text is None:
            raise self._eof_error("expected statement")
        if text == "{":
            return self.parse_block()
        if text == ";":
            kids: list = []
            self.take_leaf(kids)
            return SyntaxNode("empty_statement", kids, self.tokens)
        if text in KEYWORDS:
            rest = _KEYWORD_STATEMENTS.get(text)
            if rest is not None:
                kids = []
                self.take_leaf(kids)
                rest(self, kids)
                return SyntaxNode(f"{text}_statement", kids, self.tokens)
            if text in _TYPE_WORDS or (
                text in ("final", "abstract", "static") and self._modifier_run_opens_type()
            ):
                return self.parse_declaration()
        elif text == "record" and self._looks_like_record():
            return self.parse_declaration()  # a local record
        else:
            # A label: a name, then `:`.
            mask, n = self.mask, self.n
            j = self.i
            while mask[j]:
                j += 1
            j += 1
            while j < n and mask[j]:
                j += 1
            if j < n and self.texts[j] == ":" and _kind(text) == IDENTIFIER:
                kids = list(range(self.i, j + 1))
                self.i = j + 1
                kids.append(self.parse_statement(self.peek()))
                return SyntaxNode("labeled_statement", kids, self.tokens)
        kids = []
        self._finish_simple(kids)
        return SyntaxNode("statement", kids, self.tokens)

    def _modifier_run_opens_type(self) -> bool:
        ahead = 0
        while True:
            text = self.peek(ahead)
            if text is None:
                return False
            if text in MODIFIER_WORDS:
                ahead += 1
                continue
            return text in _TYPE_WORDS or (
                text == "record" and self._looks_like_record(ahead)
            )

    def _finish_simple(self, kids: list) -> None:
        """Append a run of tokens and groups up to and including ';'."""
        stop = self._walk(kids, _STATEMENT_STOPS)
        if stop == self.n or self.texts[stop] != ";":
            raise self.error("expected ';'")
        kids.append(stop)
        self.i = stop + 1

    def _parse_if(self, kids: list) -> None:
        kids.append(self.parse_group("("))
        kids.append(self.parse_statement(self.peek()))
        if self.peek() == "else":
            self.take_leaf(kids)
            kids.append(self.parse_statement(self.peek()))

    def _parse_loop(self, kids: list) -> None:
        """The rest of a `while` or `for` statement."""
        kids.append(self.parse_group("("))
        kids.append(self.parse_statement(self.peek()))

    def _parse_do(self, kids: list) -> None:
        kids.append(self.parse_statement(self.peek()))
        self.expect("while", kids)
        kids.append(self.parse_group("("))
        self.expect(";", kids)

    def _parse_switch(self, kids: list) -> None:
        kids.append(self.parse_group("("))
        kids.append(self.parse_group("{"))

    def _parse_try(self, kids: list) -> None:
        if self.peek() == "(":
            kids.append(self.parse_group())
        kids.append(self.parse_block())
        while self.peek() == "catch":
            ckids: list = []
            self.take_leaf(ckids)
            self._parse_guarded_block(ckids)
            kids.append(SyntaxNode("catch_clause", ckids, self.tokens))
        if self.peek() == "finally":
            fkids: list = []
            self.take_leaf(fkids)
            fkids.append(self.parse_block())
            kids.append(SyntaxNode("finally_clause", fkids, self.tokens))

    def _parse_guarded_block(self, kids: list) -> None:
        """A parenthesized group, then a block: the rest of a `synchronized`
        statement or of a catch clause."""
        kids.append(self.parse_group("("))
        kids.append(self.parse_block())

    # ---- declarations --------------------------------------------------

    def parse_declaration(self, fragment: bool = False) -> SyntaxNode:
        kids: list = []
        if fragment and self.peek() in STATEMENT_KEYWORDS:
            return self.parse_statement(self.peek())
        self._parse_annotations_and_modifiers(kids)
        text = self.peek()
        if text is None:
            raise self._eof_error("expected declaration")
        if text in _TYPE_WORDS:
            return self._parse_type_declaration(kids, text)
        if text == "@":  # the modifiers stop at an `@` only before `interface`
            return self._parse_type_declaration(kids, "annotation")
        if text == "record" and self._looks_like_record():
            return self._parse_type_declaration(kids, "record")
        if text == "{":
            kids.append(self.parse_block())
            return SyntaxNode("initializer_block", kids, self.tokens)
        return self._parse_member(kids)

    def _parse_annotations_and_modifiers(self, kids: list) -> None:
        while True:
            text = self.peek()
            if text is None:
                return
            if text == "@":
                if self.peek(1) == "interface":
                    return
                kids.append(self._parse_annotation())
                continue
            if text in MODIFIER_WORDS:
                self.take_leaf(kids)
                continue
            width = self._sealed_width()
            if width:
                for _ in range(width):
                    self.take_leaf(kids)
                continue
            return

    def _sealed_width(self) -> int:
        """Tokens in a `sealed` or `non-sealed` modifier here, else 0.

        Both are contextual: `non-sealed` lexes as `non`, `-`, `sealed`,
        and either counts as a modifier only before another modifier, an
        annotation, `class` or `interface`, so a member named `sealed`
        keeps its meaning. Like every choice here, this reads token texts
        only, so spacing and comments between the three tokens (which javac
        rejects) never change the tree.
        """
        text = self.peek()
        width = 1
        if text == "non":
            if not (self.peek(1) == "-" and self.peek(2) == "sealed"):
                return 0
            width = 3
        elif text != "sealed":
            return 0
        nxt = self.peek(width)
        if nxt is not None and (nxt in _SEALED_FOLLOWERS or nxt in MODIFIER_WORDS):
            return width
        return 0

    def _parse_annotation(self) -> SyntaxNode:
        kids: list = []
        self.expect("@", kids)
        text = self.peek()
        if text is None or _kind(text) not in _WORD_KINDS:
            raise self.error("expected annotation name")
        self.take_leaf(kids)
        while self.peek() == ".":
            self.take_leaf(kids)
            text = self.peek()
            if text is None or _kind(text) != IDENTIFIER:
                raise self.error("expected annotation name")
            self.take_leaf(kids)
        if self.peek() == "(":
            kids.append(self.parse_group())
        return SyntaxNode("annotation", kids, self.tokens)

    def _looks_like_record(self, ahead: int = 0) -> bool:
        name = self.peek(ahead + 1)
        return (
            name is not None
            and _kind(name) == IDENTIFIER
            and self.peek(ahead + 2) in ("<", "(")
        )

    def _parse_type_declaration(self, kids: list, flavor: str) -> SyntaxNode:
        if flavor == "annotation":
            self.expect("@", kids)
            self.expect("interface", kids)
        else:
            self.take_leaf(kids)  # class / interface / enum / record
        text = self.peek()
        if text is None or _kind(text) not in _WORD_KINDS:
            raise self.error("expected type name")
        self.take_leaf(kids)
        self._take_until(kids, _BODY, "expected '{'")
        body: list = []
        self.take_leaf(body)  # '{'
        if flavor == "enum":
            # The constants, up to a `;` or the body's `}`, which
            # `_parse_members` takes.
            stop = self._walk(body, _ENUM_CONSTANT_STOPS)
            if stop == self.n:
                raise self._eof_error("expected '}'")
            if self.texts[stop] == ";":
                self.take_leaf(body)
        kids.append(self._parse_members("enum_body" if flavor == "enum" else "class_body", body))
        kind = "annotation_declaration" if flavor == "annotation" else f"{flavor}_declaration"
        return SyntaxNode(kind, kids, self.tokens)

    def _parse_members(self, kind: str, kids: list) -> SyntaxNode:
        """The members of a class or enum body, through its `}`."""
        while True:
            self.drain_comments(kids)
            text = self.peek()
            if text is None:
                raise self._eof_error("expected '}'")
            if text == "}":
                self.take_leaf(kids)
                return SyntaxNode(kind, kids, self.tokens)
            if text == ";":
                self.take_leaf(kids)
            else:
                kids.append(self.parse_declaration())

    # -- member classification: find the first structural token at
    #    delimiter depth 0 after the current position.
    def _member_shape(self) -> tuple[str, int]:
        texts, mask = self.texts, self.mask
        depth = 0
        for j in range(self.i, self.n):
            if mask[j]:
                continue
            text = texts[j]
            if depth == 0 and text in _MEMBER_STOPS:
                return text, j
            if text in _GROUP_KINDS:
                depth += 1
            elif text in _CLOSING:
                if depth == 0:
                    return "close", j
                depth -= 1
        return "eof", self.n

    def _count_significant(self, upto: int) -> int:
        return upto - self.i - sum(self.mask[self.i : upto])

    def _next_significant_index(self) -> int:
        j, n, mask = self.i, self.n, self.mask
        while j < n and mask[j]:
            j += 1
        return j

    def _parse_member(self, kids: list) -> SyntaxNode:
        if self.peek() == "<":
            kids.append(self._parse_angle_run())
        shape, at = self._member_shape()
        if shape == "(":
            # A constructor has nothing but its name before the parameter
            # list; a method carries return-type tokens in front of it.
            is_ctor = self._count_significant(at) == 1
            self._walk(kids, _PARAMETERS)  # up to `at`, the first `(` at depth 0
            kids.append(self.parse_group())
            self._finish_method_tail(kids)
            kind = "constructor_declaration" if is_ctor else "method_declaration"
            return SyntaxNode(kind, kids, self.tokens)
        if shape in ("=", ";"):
            self._finish_simple(kids)
            return SyntaxNode("field_declaration", kids, self.tokens)
        if shape == "{" and self._count_significant(at) == 1 and _kind(self.peek()) == IDENTIFIER:
            # A record's compact canonical constructor: its name, then its body.
            self.take_leaf(kids)
            kids.append(self.parse_block())
            return SyntaxNode("constructor_declaration", kids, self.tokens)
        raise self.error("expected declaration")

    def _parse_angle_run(self) -> SyntaxNode:
        kids: list = []
        depth = 0
        while True:
            angle = self._take_until(kids, _ANGLES, "unbalanced '<'")
            self.take_leaf(kids)
            depth += 1 if angle == "<" else -1
            if depth == 0:
                return SyntaxNode("type_parameters", kids, self.tokens)

    def _finish_method_tail(self, kids: list) -> None:
        # Most bodies follow the parameter list at once: one call for them.
        end = "{" if self.peek() == "{" else self._take_until(
            kids, _METHOD_TAIL_ENDS, "expected method body or ';'"
        )
        if end == "default":
            # An annotation element's default value; braces there hold
            # an array of values, not a body.
            self.take_leaf(kids)
            end = self._take_until(kids, _SEMICOLON, "expected ';'")
        if end == "{":
            kids.append(self.parse_block())
        else:
            self.take_leaf(kids)

    # ---- entry ----------------------------------------------------------

    def parse_compilation_unit(self) -> Node:
        kids: list = []
        while True:
            self.drain_comments(kids)
            text = self.peek()
            if text is None:
                break
            if text == "package" or text == "import":
                line: list = []
                self.take_leaf(line)
                self._finish_simple(line)
                kids.append(SyntaxNode(f"{text}_declaration", line, self.tokens))
            elif text == ";":
                self.take_leaf(kids)
            else:
                kids.append(self.parse_declaration(fragment=True))
        if len(kids) == 1:
            kid = kids[0]
            return self.tokens[kid] if type(kid) is int else kid
        return SyntaxNode(COMPILATION_UNIT, kids, self.tokens)


# The statements that start with a keyword, each with the method that
# appends what follows its keyword.
_KEYWORD_STATEMENTS = {
    "if": _Parser._parse_if,
    "while": _Parser._parse_loop,
    "do": _Parser._parse_do,
    "for": _Parser._parse_loop,
    "switch": _Parser._parse_switch,
    "try": _Parser._parse_try,
    "synchronized": _Parser._parse_guarded_block,
    **dict.fromkeys(_SIMPLE_STATEMENTS, _Parser._finish_simple),
}

# The keywords that start a statement, not a declaration, in a fragment.
STATEMENT_KEYWORDS = frozenset(_KEYWORD_STATEMENTS).union(("new", "this", "super"))


def parse(source: str, tokens: Optional[Tokens] = None) -> Node:
    """Parse Java source text into a syntax tree.

    Accepts whole files and bare fragments (a single function parses with a
    method-declaration root); the root is a lone token when the source
    holds one token and nothing else. `tokens`, when given, must be
    `tokenize(source)`, or equal to it in texts and mask, and the
    source is not lexed again; their positions show only in the tree and in
    a ParseError. Raises ParseError for invalid source, and for source
    nested too deeply for Python's recursion limit.
    """
    if tokens is None:
        tokens = tokenize(source)
    parser = _Parser(tokens)
    try:
        return parser.parse_compilation_unit()
    except RecursionError:
        raise parser.error("nesting too deep") from None


def parses_edit(tree: Node, first: int, last: int, tokens: Tokens) -> Optional[bool]:
    """Whether `tokens` parses, decided from the statements an edit changed.

    `tree` must be a parse or a subtree of one, and `(first, last, tokens)`
    what `lex_edit(tree.tokens, text)` returns for some text. The
    re-parsed block is searched inside `tree` only.
    Returns None when the edit's statements cannot be re-parsed alone
    there, or nest too deeply; see the module docstring for when that is
    and why the verdict is exact.
    """
    if not isinstance(tree, SyntaxNode) or not 0 < first <= last < len(tree.tokens):
        return None
    base_tokens = tree.tokens
    mask = base_tokens.mask
    block = _enclosing_block(tree, first - 1, last, mask)
    if block is None:
        return None
    # The restart point: the latest statement start with 3 significant
    # tokens before `first`, else just after the block's `{`.
    j, seen = first, 0
    while seen < 3 and j > 0:
        j -= 1
        seen += not mask[j]
    restart = _opener(block, mask) + 1
    stop = block.kids[-1]  # the block's `}`, unless a statement follows
    for statement in block.kids:
        if type(statement) is int:
            continue
        if seen == 3 and statement.first <= j:
            restart = statement.first
        elif statement.first >= last:
            stop = statement.first
            while mask[stop]:
                stop += 1
            break
    target = stop + len(tokens) - len(base_tokens)
    parser = _Parser(tokens)
    parser.i = restart
    try:
        while True:
            at = parser._next_significant_index()
            if at == target:
                return True
            if at > target or tokens.texts[at] == "}":
                return None
            parser.parse_statement(tokens.texts[at])
    except ParseError:
        return False
    except RecursionError:
        return None


def _opener(block: SyntaxNode, mask: bytearray) -> int:
    """The index of a block's `{`, after any comments before it."""
    return next(kid for kid in block.kids if not mask[kid])


def _enclosing_block(
    tree: SyntaxNode, before: int, after: int, mask: bytearray
) -> Optional[SyntaxNode]:
    """The innermost block holding the tokens `before` and `after`, with
    its `{` no later than `before`."""
    found = None
    node = tree
    while True:
        for kid in node.kids:
            if type(kid) is not int and kid.first <= before and after <= kid.last:
                break
        else:
            return found
        node = kid
        if node.kind == "block" and _opener(node, mask) <= before:
            found = node
