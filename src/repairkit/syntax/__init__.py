"""The Java frontend: function extraction, parsing, AST equivalence.

`tokenize` lexes a source into a `Tokens`, parallel lists of token texts
and offsets, and the parser reads its texts. A tree's interior nodes are
`SyntaxNode`s, and its leaves are token indices, comments included, for
which `children`, `walk()` and `leaves()` build `Token`s on demand; a
source of one token parses to that token alone. The tree without its
comment leaves follows from the texts of the other leaves alone: AST
match compares `ast_key`s.
"""
from __future__ import annotations

from ..errors import ParseError
from ..values import frozen
from .parser import parse, parses_edit
from .tokens import IDENTIFIER, Token, Tokens, _kind, lex_edit, tokenize
from .tree import Node, SyntaxNode, ast_key

__all__ = [
    "SourceFile",
    "SourceFunction",
    "SyntaxNode",
    "Token",
    "Tokens",
    "parse",
    "parses_edit",
    "tokenize",
    "lex_edit",
    "extract_functions",
    "extract_functions_of_edit",
    "ast_key",
    "ast_equal",
    "ParseError",
]

FUNCTION_KINDS = frozenset({"method_declaration", "constructor_declaration"})


@frozen
class SourceFile:
    """A source file with stable 1-based line indexing."""

    path: str
    content: str

    @property
    def lines(self) -> list[str]:
        return self.content.split("\n")

    def slice_lines(self, start_line: int, end_line: int) -> str:
        """The verbatim text of lines start_line..end_line (1-based, inclusive)."""
        return "\n".join(self.content.split("\n", end_line)[start_line - 1 : end_line])


@frozen
class SourceFunction:
    """A single function: the unit of repair.

    `text` is exactly the origin file's lines start_line..end_line joined
    with newlines, so slicing the file by the recorded range reproduces it.
    """

    name: str
    start_line: int
    end_line: int
    text: str

    def __post_init__(self):
        if not (1 <= self.start_line <= self.end_line):
            raise ValueError(
                f"bad function line range {self.start_line}..{self.end_line}"
            )

    @classmethod
    def from_text(cls, text: str, name: str = "fn") -> "SourceFunction":
        return cls(name=name, start_line=1, end_line=text.count("\n") + 1, text=text)

    @property
    def lines(self) -> list[str]:
        return self.text.split("\n")

    @property
    def line_count(self) -> int:
        return len(self.lines)


def extract_functions(file: SourceFile) -> list[SourceFunction]:
    """All method and constructor declarations of a file, in source order.

    Line ranges are exact and round-trip through `SourceFile.slice_lines`.
    Bodies nested inside another function (local classes, anonymous classes,
    lambdas) belong to their enclosing declaration and are not listed.
    """
    return _functions(parse(file.content))


def extract_functions_of_edit(
    before: SourceFile, after: SourceFile
) -> tuple[list[SourceFunction], list[SourceFunction]]:
    """`extract_functions` of both versions of an edited file.

    The before file is lexed and parsed once, and the after file is lexed
    against it only where it changed (`lex_edit`). When the changed tokens
    lie inside one before function F and `parses_edit`, given F's subtree,
    finds that the statements they change still parse, the after file's
    tree is the before file's with those statements replaced inside a
    block of F. Its functions are then the before file's, with F's end and
    every later function moved by the change in line count. Searching
    inside F, not the whole file, is what makes that hold: the block
    re-parsed is F's body or a block nested in it, where no listed
    function can appear, vanish or be renamed. Any other edit, a signature
    edit included, parses the after file whole from the tokens `lex_edit`
    gave. Raises the before file's ParseError, or the one
    `extract_functions(after)` raises.
    """
    tokens = tokenize(before.content)
    nodes = list(_function_nodes(parse(before.content, tokens)))
    before_fns = list(map(_source_function, nodes))
    first, last, edited = lex_edit(tokens, after.content)
    for k, node in enumerate(nodes):
        if node.first < first and last <= node.last:
            if parses_edit(node, first, last, edited):
                return before_fns, _moved(before_fns, k, before, after)
            break
    return before_fns, _functions(parse(after.content, edited))


def _moved(
    fns: list[SourceFunction], k: int, before: SourceFile, after: SourceFile
) -> list[SourceFunction]:
    """`fns` of `before` as functions of `after`, where only the lines
    inside `fns[k]` changed."""
    delta = after.content.count("\n") - before.content.count("\n")
    edited = fns[k]
    end = edited.end_line + delta
    return (
        fns[:k]
        + [
            SourceFunction(
                edited.name, edited.start_line, end, after.slice_lines(edited.start_line, end)
            )
        ]
        + [
            SourceFunction(f.name, f.start_line + delta, f.end_line + delta, f.text)
            for f in fns[k + 1 :]
        ]
    )


def _functions(tree: Node) -> list[SourceFunction]:
    """The functions of a file, whose parse is `tree`."""
    return list(map(_source_function, _function_nodes(tree)))


def _source_function(node: SyntaxNode) -> SourceFunction:
    """The function `node` declares, its text cut from its tokens' lines."""
    return SourceFunction(
        name=_declared_name(node),
        start_line=node.start_line,
        end_line=node.end_line,
        text="\n".join(node.tokens.lines[node.start_line - 1 : node.end_line]),
    )


def _function_nodes(node: Node):
    if not isinstance(node, SyntaxNode):
        return  # a lone token
    if node.kind in FUNCTION_KINDS:
        yield node
        return  # local declarations stay with their enclosing function
    for kid in node.kids:
        if type(kid) is not int:
            yield from _function_nodes(kid)


def _declared_name(node: SyntaxNode) -> str:
    """The last identifier leaf before the parameter list."""
    name = "<anonymous>"
    texts = node.tokens.texts
    for kid in node.kids:
        if type(kid) is int:
            if _kind(texts[kid]) == IDENTIFIER:
                name = texts[kid]
        elif kid.kind == "paren_group":
            break
    return name


def ast_equal(a: str, b: str) -> bool:
    """True iff the two sources have equal trees modulo comments/formatting.

    That is, iff their significant (non-comment) token sequences are equal.
    Token labels are compared verbatim (a renamed identifier or reformatted
    literal is unequal); exact textual equality always implies True.
    Raises ParseError when either input does not parse.
    """
    return ast_key(parse(a)) == ast_key(parse(b))
