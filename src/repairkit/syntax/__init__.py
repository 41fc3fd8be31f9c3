"""The Java frontend: function extraction, parsing, AST equivalence.

`tokenize` lexes a source into a `Tokens`, parallel lists of token texts
and offsets, and the parser reads its texts. A tree's interior nodes are
`SyntaxNode`s, and its leaves are token indices, comments included, for
which `children`, `walk()` and `leaves()` build `Token`s on demand; a
source of one token parses to that token alone. The tree without its
comment leaves follows from the texts of the other leaves alone: AST
match compares `ast_key`s. `changed_functions` pairs the functions an
edit of a file changed, parsing the after file only where it changed
when the edit stays inside one function's body.
"""
from __future__ import annotations

from ..errors import ParseError
from ..values import frozen
from .parser import parse, parses_edit
from .tokens import IDENTIFIER, Token, Tokens, _kind, lex_edit, lex_window, splice, tokenize
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
    "lex_window",
    "splice",
    "extract_functions",
    "changed_functions",
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


def changed_functions(
    before: SourceFile, after: SourceFile
) -> list[tuple[SourceFunction, SourceFunction]] | None:
    """The `(before, after)` pair of each function whose text the edit
    changed, in source order, matched by position.

    None when the edit adds or removes a function, or changes exactly one
    function and also a line outside it. The before file is lexed and
    parsed once, and the after file is lexed against it only where it
    changed (`lex_edit`). When the changed tokens lie inside one before
    function F and `parses_edit`, given F's subtree, finds that the
    statements they change still parse, the after file's tree is the
    before file's with those statements replaced inside a block of F, and
    F's `}` lies in the unchanged lines after the edit: F is the one
    changed function and no line outside it changed. Searching inside F,
    not the whole file, is what makes that hold: the block re-parsed is
    F's body or a block nested in it, where no listed function can
    appear, vanish or be renamed. Any other edit, a signature edit
    included, parses the after file whole from the tokens `lex_edit` gave
    and compares the two lists. Raises the before file's ParseError, or
    the one `extract_functions(after)` raises.
    """
    tokens = tokenize(before.content)
    nodes = list(_function_nodes(parse(before.content, tokens)))
    first, last, edited = lex_edit(tokens, after.content)
    for node in nodes:
        if node.first < first and last <= node.last:
            if parses_edit(node, first, last, edited):
                buggy = _source_function(node)
                end = buggy.end_line + after.content.count("\n") - before.content.count("\n")
                text = after.slice_lines(buggy.start_line, end)
                return [(buggy, SourceFunction(buggy.name, buggy.start_line, end, text))]
            break
    before_fns = list(map(_source_function, nodes))
    after_fns = _functions(parse(after.content, edited))
    if len(before_fns) != len(after_fns):
        return None
    pairs = [(b, a) for b, a in zip(before_fns, after_fns) if b.text != a.text]
    if len(pairs) == 1:
        # The fix must be confined to the one function: replacing its lines
        # inside the before file has to reproduce the after file exactly.
        buggy, fixed = pairs[0]
        lines = before.lines
        spliced = lines[: buggy.start_line - 1] + fixed.lines + lines[buggy.end_line :]
        if "\n".join(spliced) != after.content:
            return None
    return pairs


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
