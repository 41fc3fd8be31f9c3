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

Most tokens sit in flat runs: the leaves of a delimiter group, or of a
simple statement up to its `;`. `_take_run`, which `parse_group` and
`_take_through_semicolon` share, walks such a run with a local index,
tests each token's text only against the delimiters that end the run, and
appends the run's leaves to the node in one slice; a comment just before a
nested group's opener goes into that group, as its first leaf. It returns
at the delimiter, and the caller parses a nested group by a recursive
call, never with a stack of its own, so the parser still takes one frame
per nesting level.

Every choice the parser makes reads the texts of the significant tokens
and nothing else: no offset, line or comment. So whether a source parses,
and its tree without comments, follow from its `token_key`.

`parses_edit(tree, base_tokens, first, last, tokens)` decides whether an
edit of a parsed source parses, re-parsing only the statements the edit
changed. `tokens` is `base_tokens` with `base_tokens[first:last]`
replaced, as `lex_edit` splices them; since only texts are read, the
positions of the tokens after the edit need not be shifted. `tree` is the
base's parse or any subtree of it, such as one function, and the block is
searched inside it: the innermost `block` of `tree` whose `{` and `}` both
lie outside `[first, last)`. It runs that block's statement loop on
`tokens` from the latest statement start with at least 3 unchanged
significant tokens before `first`, or from just after the `{`. When the
loop reaches, at a statement boundary, the token that followed the edited
statements in the base, shifted by the change in length, the edit parses;
a `ParseError` on the way means it does not. This is exact, because a
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

from bisect import bisect_left
from typing import Optional

from ..errors import ParseError
from .tokens import _START, COMMENT_KINDS, IDENTIFIER, KEYWORD, SYMBOL, Token, tokenize
from .tree import COMPILATION_UNIT, Node, SyntaxNode

MODIFIER_WORDS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

STATEMENT_KEYWORDS = frozenset(
    """if while do for switch try synchronized return throw break continue
    assert new this super""".split()
)

# What may follow a `sealed` or `non-sealed` modifier, besides a modifier.
_SEALED_FOLLOWERS = frozenset({"class", "interface", "@", "sealed", "non"})

_GROUP_KINDS = {"(": "paren_group", "[": "bracket_group", "{": "brace_group"}
_CLOSERS = {"(": ")", "[": "]", "{": "}"}
# The texts that end a flat run of leaves: a group's opener or a closer,
# and for a statement also `;`. No comment has one of these texts.
_DELIMITERS = frozenset("()[]{}")
_STATEMENT_STOPS = _DELIMITERS | {";"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # ---- token cursor -------------------------------------------------

    def _eof_error(self, message: str) -> ParseError:
        if self.toks:
            last = self.toks[-1]
            tail = last.text.split("\n")[-1]
            col = len(tail) + (last.column if "\n" not in last.text else 1)
            return ParseError(message, last.end_line, col)
        return ParseError(message, 1, 1)

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return self._eof_error(message)
        return ParseError(f"{message} (found {tok.text!r})", tok.line, tok.column)

    def peek(self, ahead: int = 0) -> Optional[Token]:
        """The ahead-th significant (non-comment) token, not consumed."""
        j = self.i
        toks = self.toks
        if not ahead and j < len(toks) and toks[j].kind not in COMMENT_KINDS:
            return toks[j]
        seen = 0
        while j < len(toks):
            tok = toks[j]
            if tok.kind not in COMMENT_KINDS:
                if seen == ahead:
                    return tok
                seen += 1
            j += 1
        return None

    def take_leaf(self, out: list[Node]) -> Token:
        """Consume the next significant token as a leaf in `out`, after the
        comment tokens before it."""
        toks = self.toks
        while self.i < len(toks):
            tok = toks[self.i]
            self.i += 1
            out.append(tok)
            if tok.kind not in COMMENT_KINDS:
                return tok
        raise self._eof_error("unexpected end of input")

    def expect(self, text: str, out: list[Node]) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.take_leaf(out)

    def drain_comments(self, out: list[Node]) -> None:
        while self.i < len(self.toks) and self.toks[self.i].kind in COMMENT_KINDS:
            out.append(self.toks[self.i])
            self.i += 1

    # ---- delimiter groups ---------------------------------------------

    def parse_group(self) -> SyntaxNode:
        """The delimiter group that opens at the next significant token.

        The comments before its opener are its first leaves. A nested group
        is parsed by a recursive call, so each nesting level takes one frame.
        """
        toks = self.toks
        j = self.i
        while toks[j].kind in COMMENT_KINDS:
            j += 1
        opener = toks[j].text
        closer = _CLOSERS[opener]
        kids: list[Node] = toks[self.i : j + 1]
        self.i = j + 1
        while True:
            stop = self._take_run(kids, _DELIMITERS)
            if stop == len(toks):
                raise self._eof_error(f"unbalanced {opener!r}")
            text = toks[stop].text
            if text == closer:
                kids.append(toks[stop])
                self.i = stop + 1
                return SyntaxNode(_GROUP_KINDS[opener], kids).seal()
            if text not in _GROUP_KINDS:
                raise self.error(f"mismatched {text!r}")
            kids.append(self.parse_group())

    def _take_run(self, kids: list[Node], stops: frozenset[str]) -> int:
        """Append the leaves before the next token whose text is in `stops`
        to `kids`, and return that token's index, or `len(self.toks)`.

        The cursor is left at the stop, or, when the stop opens a group, at
        the comments just before it, which go into that group. The caller
        takes the stop, so a nested group is parsed in the caller's frame.
        """
        toks = self.toks
        start = j = self.i
        end = len(toks)
        while j < end and toks[j].text not in stops:
            j += 1
        stop = j
        if j < end and toks[j].text in _GROUP_KINDS:
            while j > start and toks[j - 1].kind in COMMENT_KINDS:
                j -= 1
        kids.extend(toks[start:j])
        self.i = j
        return stop

    # ---- statements ----------------------------------------------------

    def parse_block(self) -> SyntaxNode:
        kids: list[Node] = []
        self.expect("{", kids)
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected '}'")
            if tok.text == "}":
                self.drain_comments(kids)
                self.take_leaf(kids)
                return SyntaxNode("block", kids).seal()
            kids.append(self.parse_statement())

    def parse_statement(self) -> SyntaxNode:
        tok = self.peek()
        if tok is None:
            raise self._eof_error("expected statement")
        text = tok.text
        if text == "{":
            return self.parse_block()
        if text == ";":
            kids: list[Node] = []
            self.take_leaf(kids)
            return SyntaxNode("empty_statement", kids).seal()
        if tok.kind == KEYWORD:
            if text == "if":
                return self._parse_if()
            if text == "while":
                return self._parse_while()
            if text == "do":
                return self._parse_do()
            if text == "for":
                return self._parse_for()
            if text == "switch":
                return self._parse_switch()
            if text == "try":
                return self._parse_try()
            if text == "synchronized":
                return self._parse_synchronized()
            if text in ("return", "throw", "break", "continue", "assert"):
                kids = []
                self.take_leaf(kids)
                return self._finish_simple(f"{text}_statement", kids)
            if text in ("class", "interface", "enum"):
                return self.parse_declaration()
            if text in ("final", "abstract", "static"):
                if self._modifier_run_opens_type():
                    return self.parse_declaration()
                return self._finish_simple("statement", [])
        if tok.kind == IDENTIFIER:
            if text == "record" and self._looks_like_record():
                return self.parse_declaration()  # a local record
            colon = self.peek(1)
            if colon is not None and colon.text == ":":
                kids = []
                self.take_leaf(kids)  # label
                self.take_leaf(kids)  # ':'
                kids.append(self.parse_statement())
                return SyntaxNode("labeled_statement", kids).seal()
        return self._finish_simple("statement", [])

    def _modifier_run_opens_type(self) -> bool:
        ahead = 0
        while True:
            tok = self.peek(ahead)
            if tok is None:
                return False
            if tok.text in MODIFIER_WORDS:
                ahead += 1
                continue
            return tok.text in ("class", "interface", "enum") or (
                tok.text == "record" and self._looks_like_record(ahead)
            )

    def _finish_simple(self, kind: str, kids: list[Node]) -> SyntaxNode:
        """Consume a run of tokens and groups up to and including ';'."""
        self._take_through_semicolon(kids)
        return SyntaxNode(kind, kids).seal()

    def _take_through_semicolon(self, kids: list[Node]) -> None:
        """Append leaves and groups to `kids` up to and including ';'."""
        toks = self.toks
        while True:
            stop = self._take_run(kids, _STATEMENT_STOPS)
            if stop == len(toks):
                raise self._eof_error("expected ';'")
            text = toks[stop].text
            if text == ";":
                kids.append(toks[stop])
                self.i = stop + 1
                return
            if text not in _GROUP_KINDS:
                raise self.error("expected ';'")
            kids.append(self.parse_group())

    def _parse_paren(self, kids: list[Node]) -> None:
        tok = self.peek()
        if tok is None or tok.text != "(":
            raise self.error("expected '('")
        kids.append(self.parse_group())

    def _parse_if(self) -> SyntaxNode:
        kids: list[Node] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_statement())
        tok = self.peek()
        if tok is not None and tok.text == "else":
            self.take_leaf(kids)
            kids.append(self.parse_statement())
        return SyntaxNode("if_statement", kids).seal()

    def _parse_while(self) -> SyntaxNode:
        kids: list[Node] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_statement())
        return SyntaxNode("while_statement", kids).seal()

    def _parse_do(self) -> SyntaxNode:
        kids: list[Node] = []
        self.take_leaf(kids)
        kids.append(self.parse_statement())
        tok = self.peek()
        if tok is None or tok.text != "while":
            raise self.error("expected 'while'")
        self.take_leaf(kids)
        self._parse_paren(kids)
        self.expect(";", kids)
        return SyntaxNode("do_statement", kids).seal()

    def _parse_for(self) -> SyntaxNode:
        kids: list[Node] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_statement())
        return SyntaxNode("for_statement", kids).seal()

    def _parse_switch(self) -> SyntaxNode:
        kids: list[Node] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        tok = self.peek()
        if tok is None or tok.text != "{":
            raise self.error("expected '{'")
        kids.append(self.parse_group())
        return SyntaxNode("switch_statement", kids).seal()

    def _parse_try(self) -> SyntaxNode:
        kids: list[Node] = []
        self.take_leaf(kids)
        tok = self.peek()
        if tok is not None and tok.text == "(":
            kids.append(self.parse_group())
        kids.append(self.parse_block())
        while True:
            tok = self.peek()
            if tok is not None and tok.text == "catch":
                ckids: list[Node] = []
                self.take_leaf(ckids)
                self._parse_paren(ckids)
                ckids.append(self.parse_block())
                kids.append(SyntaxNode("catch_clause", ckids).seal())
                continue
            break
        tok = self.peek()
        if tok is not None and tok.text == "finally":
            fkids: list[Node] = []
            self.take_leaf(fkids)
            fkids.append(self.parse_block())
            kids.append(SyntaxNode("finally_clause", fkids).seal())
        return SyntaxNode("try_statement", kids).seal()

    def _parse_synchronized(self) -> SyntaxNode:
        kids: list[Node] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_block())
        return SyntaxNode("synchronized_statement", kids).seal()

    # ---- declarations --------------------------------------------------

    def parse_declaration(self, fragment: bool = False) -> SyntaxNode:
        kids: list[Node] = []
        if fragment:
            tok = self.peek()
            if tok is not None and tok.kind == KEYWORD and tok.text in STATEMENT_KEYWORDS:
                return self.parse_statement()
        self._parse_annotations_and_modifiers(kids)
        tok = self.peek()
        if tok is None:
            raise self._eof_error("expected declaration")
        if tok.text in ("class", "interface", "enum"):
            return self._parse_type_declaration(kids, tok.text)
        if tok.text == "@":
            nxt = self.peek(1)
            if nxt is not None and nxt.text == "interface":
                return self._parse_type_declaration(kids, "annotation")
            raise self.error("expected annotation or declaration")
        if tok.text == "record" and self._looks_like_record():
            return self._parse_type_declaration(kids, "record")
        if tok.text == "{":
            kids.append(self.parse_block())
            return SyntaxNode("initializer_block", kids).seal()
        return self._parse_member(kids)

    def _parse_annotations_and_modifiers(self, kids: list[Node]) -> None:
        while True:
            tok = self.peek()
            if tok is None:
                return
            if tok.text == "@":
                nxt = self.peek(1)
                if nxt is not None and nxt.text == "interface":
                    return
                kids.append(self._parse_annotation())
                continue
            if tok.text in MODIFIER_WORDS:
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
        tok = self.peek()
        width = 1
        if tok.text == "non":
            dash, word = self.peek(1), self.peek(2)
            if not (
                dash is not None and dash.text == "-"
                and word is not None and word.text == "sealed"
            ):
                return 0
            width = 3
        elif tok.text != "sealed":
            return 0
        nxt = self.peek(width)
        if nxt is not None and (
            nxt.text in _SEALED_FOLLOWERS or nxt.text in MODIFIER_WORDS
        ):
            return width
        return 0

    def _parse_annotation(self) -> SyntaxNode:
        kids: list[Node] = []
        self.expect("@", kids)
        tok = self.peek()
        if tok is None or tok.kind not in (IDENTIFIER, KEYWORD):
            raise self.error("expected annotation name")
        self.take_leaf(kids)
        while True:
            tok = self.peek()
            if tok is not None and tok.text == ".":
                self.take_leaf(kids)
                nxt = self.peek()
                if nxt is None or nxt.kind != IDENTIFIER:
                    raise self.error("expected annotation name")
                self.take_leaf(kids)
                continue
            break
        tok = self.peek()
        if tok is not None and tok.text == "(":
            kids.append(self.parse_group())
        return SyntaxNode("annotation", kids).seal()

    def _looks_like_record(self, ahead: int = 0) -> bool:
        name = self.peek(ahead + 1)
        after = self.peek(ahead + 2)
        return (
            name is not None
            and name.kind == IDENTIFIER
            and after is not None
            and after.text in ("<", "(")
        )

    def _parse_type_declaration(self, kids: list[Node], flavor: str) -> SyntaxNode:
        if flavor == "annotation":
            self.expect("@", kids)
            self.expect("interface", kids)
        else:
            self.take_leaf(kids)  # class / interface / enum / record
        tok = self.peek()
        if tok is None or tok.kind not in (IDENTIFIER, KEYWORD):
            raise self.error("expected type name")
        self.take_leaf(kids)
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected '{'")
            if tok.text == "{":
                break
            if tok.text in ("(", "["):
                kids.append(self.parse_group())
            elif tok.text in ")]};":
                raise self.error("expected '{'")
            else:
                self.take_leaf(kids)
        if flavor == "enum":
            kids.append(self._parse_enum_body())
        else:
            kids.append(self._parse_class_body())
        kind = "annotation_declaration" if flavor == "annotation" else f"{flavor}_declaration"
        return SyntaxNode(kind, kids).seal()

    def _parse_class_body(self) -> SyntaxNode:
        kids: list[Node] = []
        self.expect("{", kids)
        while True:
            self.drain_comments(kids)
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected '}'")
            if tok.text == "}":
                self.take_leaf(kids)
                return SyntaxNode("class_body", kids).seal()
            if tok.text == ";":
                self.take_leaf(kids)
                continue
            kids.append(self.parse_declaration())

    def _parse_enum_body(self) -> SyntaxNode:
        kids: list[Node] = []
        self.expect("{", kids)
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected '}'")
            if tok.text == "}":
                self.drain_comments(kids)
                self.take_leaf(kids)
                return SyntaxNode("enum_body", kids).seal()
            if tok.text == ";":
                self.take_leaf(kids)
                break
            if tok.text in _GROUP_KINDS:
                kids.append(self.parse_group())
            else:
                self.take_leaf(kids)
        while True:
            self.drain_comments(kids)
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected '}'")
            if tok.text == "}":
                self.take_leaf(kids)
                return SyntaxNode("enum_body", kids).seal()
            if tok.text == ";":
                self.take_leaf(kids)
                continue
            kids.append(self.parse_declaration())

    # -- member classification: find the first structural token at
    #    delimiter depth 0 after the current position.
    def _member_shape(self) -> tuple[str, int]:
        j = self.i
        depth = 0
        while j < len(self.toks):
            tok = self.toks[j]
            if tok.kind in COMMENT_KINDS:
                j += 1
                continue
            if depth == 0 and tok.kind == SYMBOL and tok.text in "(=;{":
                return tok.text, j
            if tok.text in _GROUP_KINDS:
                depth += 1
            elif tok.text in ")]}":
                if depth == 0:
                    return "close", j
                depth -= 1
            j += 1
        return "eof", j

    def _count_significant(self, upto: int) -> int:
        return sum(
            1 for tok in self.toks[self.i : upto] if tok.kind not in COMMENT_KINDS
        )

    def _next_significant_index(self) -> int:
        j = self.i
        while j < len(self.toks) and self.toks[j].kind in COMMENT_KINDS:
            j += 1
        return j

    def _parse_member(self, kids: list[Node]) -> SyntaxNode:
        if self.peek() is not None and self.peek().text == "<":
            kids.append(self._parse_angle_run())
        shape, at = self._member_shape()
        if shape == "(":
            # A constructor has nothing but its name before the parameter
            # list; a method carries return-type tokens in front of it.
            is_ctor = self._count_significant(at) == 1
            while self._next_significant_index() < at:
                tok = self.peek()
                if tok.text in _GROUP_KINDS:
                    kids.append(self.parse_group())
                else:
                    self.take_leaf(kids)
            kids.append(self.parse_group())  # parameter list
            self._finish_method_tail(kids)
            kind = "constructor_declaration" if is_ctor else "method_declaration"
            return SyntaxNode(kind, kids).seal()
        if shape in ("=", ";"):
            return self._finish_simple("field_declaration", kids)
        if shape == "{" and self._count_significant(at) == 1 and self.peek().kind == IDENTIFIER:
            # A record's compact canonical constructor: its name, then its body.
            self.take_leaf(kids)
            kids.append(self.parse_block())
            return SyntaxNode("constructor_declaration", kids).seal()
        raise self.error("expected declaration")

    def _parse_angle_run(self) -> SyntaxNode:
        kids: list[Node] = []
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error("unbalanced '<'")
            if tok.text == "<":
                depth += 1
                self.take_leaf(kids)
            elif tok.text == ">":
                depth -= 1
                self.take_leaf(kids)
                if depth == 0:
                    return SyntaxNode("type_parameters", kids).seal()
            elif tok.text in _GROUP_KINDS:
                kids.append(self.parse_group())
            elif tok.text in ")]};":
                raise self.error("unbalanced '<'")
            else:
                self.take_leaf(kids)

    def _finish_method_tail(self, kids: list[Node]) -> None:
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected method body or ';'")
            if tok.text == "{":
                kids.append(self.parse_block())
                return
            if tok.text == ";":
                self.take_leaf(kids)
                return
            if tok.text == "default":
                # An annotation element's default value; braces there hold
                # an array of values, not a body.
                self.take_leaf(kids)
                self._take_through_semicolon(kids)
                return
            if tok.text in ("(", "["):
                kids.append(self.parse_group())
            elif tok.text in ")]}":
                raise self.error("expected method body or ';'")
            else:
                self.take_leaf(kids)

    # ---- entry ----------------------------------------------------------

    def parse_compilation_unit(self) -> Node:
        kids: list[Node] = []
        while True:
            self.drain_comments(kids)
            tok = self.peek()
            if tok is None:
                break
            if tok.text == "package":
                pk: list[Node] = []
                self.take_leaf(pk)
                kids.append(self._finish_simple("package_declaration", pk))
            elif tok.text == "import":
                ik: list[Node] = []
                self.take_leaf(ik)
                kids.append(self._finish_simple("import_declaration", ik))
            elif tok.text == ";":
                self.take_leaf(kids)
            else:
                kids.append(self.parse_declaration(fragment=True))
        root = SyntaxNode(COMPILATION_UNIT, kids).seal()
        if len(kids) == 1:
            return kids[0]
        return root


def parse(source: str, tokens: Optional[list[Token]] = None) -> Node:
    """Parse Java source text into a syntax tree.

    Accepts whole files and bare fragments (a single function parses with a
    method-declaration root); the root is a lone token when the source
    holds one token and nothing else. `tokens`, when given, must have the
    texts and kinds of `tokenize(source)`, and the source is not lexed
    again; their positions show only in the tree and in a ParseError.
    Raises ParseError for invalid source, and for source nested too deeply
    for Python's recursion limit.
    """
    if tokens is None:
        tokens = tokenize(source)
    parser = _Parser(tokens)
    try:
        return parser.parse_compilation_unit()
    except RecursionError:
        raise parser.error("nesting too deep") from None


def parses_edit(
    tree: Node, base_tokens: list[Token], first: int, last: int, tokens: list[Token]
) -> Optional[bool]:
    """Whether `tokens` parses, decided from the statements an edit changed.

    `tree` must be the parse of `base_tokens` or a subtree of it, and
    `tokens` must be `base_tokens[:first] + window + base_tokens[last:]`
    for some window. The re-parsed block is searched inside `tree` only.
    Returns None when the edit's statements cannot be re-parsed alone
    there, or nest too deeply; see the module docstring for when that is
    and why the verdict is exact.
    """
    if not 0 < first <= last < len(base_tokens):
        return None
    block = _enclosing_block(tree, base_tokens[first - 1].start, base_tokens[last].start)
    if block is None:
        return None
    # The restart point: the latest statement start with 3 significant
    # tokens before `first`, else just after the block's `{`.
    j, seen = first, 0
    while seen < 3 and j > 0:
        j -= 1
        seen += base_tokens[j].kind not in COMMENT_KINDS
    restart = _index(base_tokens, _opener(block)) + 1
    stop = block.children[-1]  # the block's `}`, unless a statement follows
    for statement in block.children:
        if statement.is_leaf:
            continue
        if seen == 3 and statement.start <= base_tokens[j].start:
            restart = _index(base_tokens, statement)
        elif statement.start >= base_tokens[last].start:
            stop = next(t for t in statement.leaves() if t.kind not in COMMENT_KINDS)
            break
    target = _index(base_tokens, stop) + len(tokens) - len(base_tokens)
    parser = _Parser(tokens)
    parser.i = restart
    try:
        while True:
            at = parser._next_significant_index()
            if at == target:
                return True
            if at > target or tokens[at].text == "}":
                return None
            parser.parse_statement()
    except ParseError:
        return False
    except RecursionError:
        return None


def _index(tokens: list[Token], node: Node) -> int:
    """The index in `tokens` of `node`'s first leaf."""
    return bisect_left(tokens, node.start, key=_START)


def _opener(block: SyntaxNode) -> Token:
    """A block's `{`, after any comments before it."""
    return next(kid for kid in block.children if kid.kind not in COMMENT_KINDS)


def _enclosing_block(tree: Node, before: int, after: int) -> Optional[SyntaxNode]:
    """The innermost block holding the tokens that start at offsets
    `before` and `after`, with its `{` no later than `before`."""
    found = None
    node = tree
    while True:
        for kid in node.children:
            if kid.start <= before and after < kid.end:
                break
        else:
            return found
        node = kid
        if node.kind == "block" and _opener(node).start <= before:
            found = node
