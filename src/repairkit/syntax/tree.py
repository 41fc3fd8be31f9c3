"""Syntax tree node types, formatting-insensitive normalization and AST keys.

A syntax tree's leaves are the lexer's `Token`s themselves, comments
included, and its interior nodes are `SyntaxNode`s. Both answer the same
tree interface: `kind`, `label`, `children`, `start`, `end`,
`start_line`, `end_line`, `is_leaf`, `is_comment`, `walk()` and
`leaves()`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .tokens import COMMENT_KINDS, Token, token_key

COMPILATION_UNIT = "compilation_unit"


@dataclass(slots=True)
class SyntaxNode:
    """An interior node of the concrete syntax tree.

    It carries a kind tag and its children: tokens (the leaves) and other
    interior nodes. Spans are byte offsets into the parsed source; children
    are ordered, non-overlapping, and contained in the parent span.
    """

    kind: str
    children: list[Node] = field(default_factory=list)
    start: int = 0
    end: int = 0
    start_line: int = 0
    end_line: int = 0

    # Only leaves (tokens) carry a label.
    label = None
    is_leaf = False

    @property
    def is_comment(self) -> bool:
        return self.kind in COMMENT_KINDS

    def seal(self) -> "SyntaxNode":
        """Set this node's span from its children. No-op without children."""
        children = self.children
        if children:
            first, last = children[0], children[-1]
            self.start = first.start
            self.end = last.end
            self.start_line = first.start_line
            self.end_line = last.end_line
        return self

    def walk(self) -> Iterator[Node]:
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator[Token]:
        for node in self.walk():
            if node.is_leaf:
                yield node


# A node of a syntax tree: an interior node or a leaf.
Node = Union[SyntaxNode, Token]


@dataclass(frozen=True)
class NormalizedNode:
    """Tree shape stripped of comments, whitespace, and positions.

    Equality depends only on (kind, label, ordered children), which makes
    it insensitive to formatting by construction.
    """

    kind: str
    label: Optional[str]
    children: tuple["NormalizedNode", ...]

    def walk(self) -> Iterator["NormalizedNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def normalize(node: "Node | NormalizedNode") -> NormalizedNode:
    """Drop comment nodes and positional data; idempotent.

    A compilation unit left with a single child collapses to that child so
    that `int f(){}` and `/* note */ int f(){}` normalize identically.
    """
    normalized = _normalize(node)
    if normalized is None:
        return NormalizedNode(COMPILATION_UNIT, None, ())
    if normalized.kind == COMPILATION_UNIT and len(normalized.children) == 1:
        return normalized.children[0]
    return normalized


def _normalize(node: "Node | NormalizedNode") -> Optional[NormalizedNode]:
    """The normalized tree of `node`, None for a comment. Iterative, so
    that no nesting depth the parser accepts exhausts the stack."""
    if node.kind in COMMENT_KINDS:
        return None
    # One entry per open node: the node, its children still to visit, and
    # its normalized children so far.
    stack = [(node, iter(node.children), [])]
    while True:
        node, pending, kids = stack[-1]
        for child in pending:
            if child.kind not in COMMENT_KINDS:
                stack.append((child, iter(child.children), []))
                break
        else:
            stack.pop()
            normalized = NormalizedNode(node.kind, node.label, tuple(kids))
            if not stack:
                return normalized
            stack[-1][2].append(normalized)


def ast_key(node: Node) -> tuple[str, ...]:
    """The texts of the tree's non-comment leaves, in source order.

    Two trees normalize equal exactly when their keys are equal: the
    normalized tree's leaves, read in order, are this sequence, and the
    parser reads nothing but these texts when it chooses a node, so the
    rest of the normalized tree follows from the same sequence.
    """
    return token_key(node.leaves())
