"""The Java frontend: function extraction, parsing, AST equivalence.

A tree's leaves are the lexer's `Token`s, comments included, and its
interior nodes are `SyntaxNode`s; a source of one token parses to that
token alone. The tree without its comment leaves follows from the texts of
the other leaves alone: AST match compares `ast_key`s.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ParseError
from .parser import parse
from .tokens import Token, token_key, tokenize, tokenize_edit
from .tree import Node, NormalizedNode, SyntaxNode, ast_key, normalize

__all__ = [
    "SourceFile",
    "SourceFunction",
    "SyntaxNode",
    "Token",
    "NormalizedNode",
    "parse",
    "tokenize",
    "tokenize_edit",
    "token_key",
    "extract_functions",
    "extract_functions_of_edit",
    "normalize",
    "ast_key",
    "ast_equal",
    "ParseError",
]

FUNCTION_KINDS = frozenset({"method_declaration", "constructor_declaration"})


@dataclass(frozen=True)
class SourceFile:
    """A source file with stable 1-based line indexing."""

    path: str
    content: str

    @property
    def lines(self) -> list[str]:
        return self.content.split("\n")

    def slice_lines(self, start_line: int, end_line: int) -> str:
        """The verbatim text of lines start_line..end_line (1-based, inclusive)."""
        return "\n".join(self.lines[start_line - 1 : end_line])


@dataclass(frozen=True)
class SourceFunction:
    """A single function: the unit of repair.

    `text` is exactly the origin file's lines start_line..end_line joined
    with newlines, so slicing the file by the recorded range reproduces it.
    """

    name: str
    start_line: int
    end_line: int
    text: str
    file: Optional[SourceFile] = None

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
    tree = parse(file.content)
    lines = file.lines
    return [_source_function(node, lines, file) for node in _function_nodes(tree)]


def extract_functions_of_edit(
    before: SourceFile, after: SourceFile
) -> tuple[list[SourceFunction], list[SourceFunction]]:
    """`extract_functions` of both versions of an edited file.

    The after version is parsed only where it changed when that is exact:
    the changed lines lie inside one before function F, F's lines hold F's
    tokens and nothing else, and the after lines in F's place parse on
    their own to one function F'. Then no token spans a line boundary at
    either end of F, a member's parse never looks past its own tokens, and
    the after file's functions are the before file's with F replaced by F'
    and the later ones shifted. Otherwise the after file is parsed whole.
    """
    tree = parse(before.content)
    old = before.lines
    nodes = list(_function_nodes(tree))
    before_fns = [_source_function(node, old, before) for node in nodes]
    after_fns = _edited_functions(nodes, before_fns, old, after)
    if after_fns is None:
        after_fns = extract_functions(after)
    return before_fns, after_fns


def _edited_functions(
    nodes: list[SyntaxNode],
    before_fns: list[SourceFunction],
    old: list[str],
    after: SourceFile,
) -> Optional[list[SourceFunction]]:
    """The after file's functions from one re-parsed function, or None."""
    new = after.lines
    common = min(len(old), len(new))
    prefix = 0
    while prefix < common and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while suffix < common - prefix and old[-1 - suffix] == new[-1 - suffix]:
        suffix += 1
    # The changed before lines are first..last. A pure insertion has
    # last == first - 1, and F must then hold both lines around it.
    first, last = prefix + 1, len(old) - suffix
    low, high = min(first, last), max(first, last)
    for k, fn in enumerate(before_fns):
        if fn.start_line <= low and high <= fn.end_line:
            break
    else:
        return None
    leaves = list(nodes[k].leaves())
    base = leaves[0].start - leaves[0].column + 1  # offset of F's first line
    shift = fn.start_line - 1
    own = [
        (t.kind, t.text, t.start - base, t.end - base, t.line - shift, t.column)
        for t in leaves
    ]
    delta = len(new) - len(old)
    end = fn.end_line + delta
    text = "\n".join(new[fn.start_line - 1 : end])
    try:
        if tokenize(fn.text) != own:
            return None
        root = parse(text)
    except ParseError:
        return None
    if (
        root.kind not in FUNCTION_KINDS
        or root.start_line != 1
        or root.end_line != end - shift
    ):
        return None
    fixed = SourceFunction(_declared_name(root), fn.start_line, end, text, after)
    return (
        [SourceFunction(f.name, f.start_line, f.end_line, f.text, after) for f in before_fns[:k]]
        + [fixed]
        + [
            SourceFunction(f.name, f.start_line + delta, f.end_line + delta, f.text, after)
            for f in before_fns[k + 1 :]
        ]
    )


def _source_function(node: SyntaxNode, lines: list[str], file: SourceFile) -> SourceFunction:
    return SourceFunction(
        name=_declared_name(node),
        start_line=node.start_line,
        end_line=node.end_line,
        text="\n".join(lines[node.start_line - 1 : node.end_line]),
        file=file,
    )


def _function_nodes(node: Node):
    if node.kind in FUNCTION_KINDS:
        yield node
        return  # local declarations stay with their enclosing function
    for child in node.children:
        yield from _function_nodes(child)


def _declared_name(node: SyntaxNode) -> str:
    name = "<anonymous>"
    for child in node.children:
        if child.kind == "paren_group":
            break
        if child.is_leaf and child.kind == "identifier":
            name = child.label or name
    return name


def ast_equal(a: str, b: str) -> bool:
    """True iff the two sources have equal trees modulo comments/formatting.

    That is, iff their significant (non-comment) token sequences are equal.
    Token labels are compared verbatim (a renamed identifier or reformatted
    literal is unequal); exact textual equality always implies True.
    Raises ParseError when either input does not parse.
    """
    return ast_key(parse(a)) == ast_key(parse(b))
