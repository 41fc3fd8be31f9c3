"""The structural parser as it was before its flat token runs were walked
with a local index: `parse_group` and `_take_through_semicolon` make one
`peek()` and one `take_leaf()` call per token. Kept verbatim, apart from
its imports and the name of `reference_parse`, as the oracle for the
differential test in `test_syntax.py`: `parse` must give the same tree,
or the same ParseError, on any input that does not nest past the
recursion limit.

It reads a list of `Token`s, the ones a `Tokens` builds, and its tree is
made of the interior node type of that time, kept below as `SyntaxNode`:
its children are the `Token`s themselves, and `seal` copies a node's span
and lines from its first and last child.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repairkit.errors import ParseError
from repairkit.syntax.tokens import COMMENT_KINDS, IDENTIFIER, KEYWORD, SYMBOL, Token, tokenize
from repairkit.syntax.tree import COMPILATION_UNIT


@dataclass(slots=True)
class SyntaxNode:
    kind: str
    children: list["Node"] = field(default_factory=list)
    start: int = 0
    end: int = 0
    start_line: int = 0
    end_line: int = 0

    label = None
    is_leaf = False

    @property
    def is_comment(self) -> bool:
        return self.kind in COMMENT_KINDS

    def seal(self) -> "SyntaxNode":
        children = self.children
        if children:
            first, last = children[0], children[-1]
            self.start = first.start
            self.end = last.end
            self.start_line = first.start_line
            self.end_line = last.end_line
        return self

    def walk(self) -> Iterator["Node"]:
        yield self
        for child in self.children:
            yield from child.walk()


Node = Union[SyntaxNode, Token]

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
        kids: list[Node] = []
        opener = self.peek()
        assert opener is not None and opener.text in _GROUP_KINDS
        self.take_leaf(kids)
        closer = _CLOSERS[opener.text]
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error(f"unbalanced {opener.text!r}")
            if tok.text == closer:
                self.take_leaf(kids)
                return SyntaxNode(_GROUP_KINDS[opener.text], kids).seal()
            if tok.text in _GROUP_KINDS:
                kids.append(self.parse_group())
            elif tok.text in ")]}":
                raise self.error(f"mismatched {tok.text!r}")
            else:
                self.take_leaf(kids)

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
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected ';'")
            if tok.text == ";":
                self.take_leaf(kids)
                return
            if tok.text in _GROUP_KINDS:
                kids.append(self.parse_group())
            elif tok.text in ")]}":
                raise self.error("expected ';'")
            else:
                self.take_leaf(kids)

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


def reference_parse(source: str, tokens: Optional[list[Token]] = None) -> Node:
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
        tokens = list(tokenize(source))
    parser = _Parser(tokens)
    try:
        return parser.parse_compilation_unit()
    except RecursionError:
        raise parser.error("nesting too deep") from None
