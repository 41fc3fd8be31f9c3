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
"""
from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from .tokens import COMMENT_KINDS, IDENTIFIER, KEYWORD, SYMBOL, Token, tokenize
from .tree import COMPILATION_UNIT, SyntaxNode

MODIFIER_WORDS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

STATEMENT_KEYWORDS = frozenset(
    """if while do for switch try synchronized return throw break continue
    assert new this super""".split()
)

_GROUP_KINDS = {"(": "paren_group", "[": "bracket_group", "{": "brace_group"}
_CLOSERS = {"(": ")", "[": "]", "{": "}"}


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.toks = tokens
        self.i = 0
        self.source = source

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
        seen = 0
        while j < len(self.toks):
            tok = self.toks[j]
            if tok.kind not in COMMENT_KINDS:
                if seen == ahead:
                    return tok
                seen += 1
            j += 1
        return None

    def take(self, out: list[SyntaxNode]) -> Token:
        """Consume the next significant token, emitting skipped comments."""
        while self.i < len(self.toks):
            tok = self.toks[self.i]
            self.i += 1
            if tok.kind in COMMENT_KINDS:
                out.append(SyntaxNode.leaf(tok))
            else:
                return tok
        raise self._eof_error("unexpected end of input")

    def take_leaf(self, out: list[SyntaxNode]) -> SyntaxNode:
        leaf = SyntaxNode.leaf(self.take(out))
        out.append(leaf)
        return leaf

    def expect(self, text: str, out: list[SyntaxNode]) -> SyntaxNode:
        tok = self.peek()
        if tok is None or tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.take_leaf(out)

    def drain_comments(self, out: list[SyntaxNode]) -> None:
        while self.i < len(self.toks) and self.toks[self.i].kind in COMMENT_KINDS:
            out.append(SyntaxNode.leaf(self.toks[self.i]))
            self.i += 1

    # ---- delimiter groups ---------------------------------------------

    def parse_group(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
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
        kids: list[SyntaxNode] = []
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
            kids: list[SyntaxNode] = []
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
            return tok.text in ("class", "interface", "enum")

    def _finish_simple(self, kind: str, kids: list[SyntaxNode]) -> SyntaxNode:
        """Consume a run of tokens and groups up to and including ';'."""
        while True:
            tok = self.peek()
            if tok is None:
                raise self._eof_error("expected ';'")
            if tok.text == ";":
                self.take_leaf(kids)
                return SyntaxNode(kind, kids).seal()
            if tok.text in _GROUP_KINDS:
                kids.append(self.parse_group())
            elif tok.text in ")]}":
                raise self.error("expected ';'")
            else:
                self.take_leaf(kids)

    def _parse_paren(self, kids: list[SyntaxNode]) -> None:
        tok = self.peek()
        if tok is None or tok.text != "(":
            raise self.error("expected '('")
        kids.append(self.parse_group())

    def _parse_if(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_statement())
        tok = self.peek()
        if tok is not None and tok.text == "else":
            self.take_leaf(kids)
            kids.append(self.parse_statement())
        return SyntaxNode("if_statement", kids).seal()

    def _parse_while(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_statement())
        return SyntaxNode("while_statement", kids).seal()

    def _parse_do(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
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
        kids: list[SyntaxNode] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_statement())
        return SyntaxNode("for_statement", kids).seal()

    def _parse_switch(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        tok = self.peek()
        if tok is None or tok.text != "{":
            raise self.error("expected '{'")
        kids.append(self.parse_group())
        return SyntaxNode("switch_statement", kids).seal()

    def _parse_try(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
        self.take_leaf(kids)
        tok = self.peek()
        if tok is not None and tok.text == "(":
            kids.append(self.parse_group())
        kids.append(self.parse_block())
        while True:
            tok = self.peek()
            if tok is not None and tok.text == "catch":
                ckids: list[SyntaxNode] = []
                self.take_leaf(ckids)
                self._parse_paren(ckids)
                ckids.append(self.parse_block())
                kids.append(SyntaxNode("catch_clause", ckids).seal())
                continue
            break
        tok = self.peek()
        if tok is not None and tok.text == "finally":
            fkids: list[SyntaxNode] = []
            self.take_leaf(fkids)
            fkids.append(self.parse_block())
            kids.append(SyntaxNode("finally_clause", fkids).seal())
        return SyntaxNode("try_statement", kids).seal()

    def _parse_synchronized(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
        self.take_leaf(kids)
        self._parse_paren(kids)
        kids.append(self.parse_block())
        return SyntaxNode("synchronized_statement", kids).seal()

    # ---- declarations --------------------------------------------------

    def parse_declaration(self, fragment: bool = False) -> SyntaxNode:
        kids: list[SyntaxNode] = []
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

    def _parse_annotations_and_modifiers(self, kids: list[SyntaxNode]) -> None:
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
            return

    def _parse_annotation(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
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

    def _looks_like_record(self) -> bool:
        name = self.peek(1)
        after = self.peek(2)
        return (
            name is not None
            and name.kind == IDENTIFIER
            and after is not None
            and after.text in ("<", "(")
        )

    def _parse_type_declaration(self, kids: list[SyntaxNode], flavor: str) -> SyntaxNode:
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
        kids: list[SyntaxNode] = []
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
        kids: list[SyntaxNode] = []
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

    def _parse_member(self, kids: list[SyntaxNode]) -> SyntaxNode:
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
        raise self.error("expected declaration")

    def _parse_angle_run(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
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

    def _finish_method_tail(self, kids: list[SyntaxNode]) -> None:
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
            if tok.text in ("(", "["):
                kids.append(self.parse_group())
            elif tok.text in ")]}":
                raise self.error("expected method body or ';'")
            else:
                self.take_leaf(kids)

    # ---- entry ----------------------------------------------------------

    def parse_compilation_unit(self) -> SyntaxNode:
        kids: list[SyntaxNode] = []
        while True:
            self.drain_comments(kids)
            tok = self.peek()
            if tok is None:
                break
            if tok.text == "package":
                pk: list[SyntaxNode] = []
                self.take_leaf(pk)
                kids.append(self._finish_simple("package_declaration", pk))
            elif tok.text == "import":
                ik: list[SyntaxNode] = []
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


def parse_java(source: str) -> SyntaxNode:
    """Parse a Java compilation unit or fragment into a syntax tree."""
    return _Parser(tokenize(source), source).parse_compilation_unit()
