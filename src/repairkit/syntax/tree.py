"""Syntax tree node types, formatting-insensitive normalization and AST keys."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .tokens import COMMENT_KINDS, Token

COMPILATION_UNIT = "compilation_unit"


@dataclass
class SyntaxNode:
    """A node of the concrete syntax tree.

    Leaves are tokens and carry a label (the token text). Interior nodes
    carry a kind tag only. Spans are byte offsets into the parsed source;
    children are ordered, non-overlapping, and contained in the parent span.
    """

    kind: str
    children: list["SyntaxNode"] = field(default_factory=list)
    label: Optional[str] = None
    start: int = 0
    end: int = 0
    start_line: int = 0
    end_line: int = 0

    @classmethod
    def leaf(cls, token: Token) -> "SyntaxNode":
        return cls(
            kind=token.kind,
            label=token.text,
            start=token.start,
            end=token.end,
            start_line=token.line,
            end_line=token.end_line,
        )

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    @property
    def is_comment(self) -> bool:
        return self.kind in COMMENT_KINDS

    def seal(self) -> "SyntaxNode":
        """Set this node's span from its children. No-op for leaves."""
        if self.children:
            self.start = self.children[0].start
            self.end = self.children[-1].end
            self.start_line = self.children[0].start_line
            self.end_line = self.children[-1].end_line
        return self

    def walk(self) -> Iterator["SyntaxNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator["SyntaxNode"]:
        for node in self.walk():
            if node.is_leaf:
                yield node


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


def normalize(node: "SyntaxNode | NormalizedNode") -> NormalizedNode:
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


def _normalize(node: "SyntaxNode | NormalizedNode") -> Optional[NormalizedNode]:
    if node.kind in COMMENT_KINDS:
        return None
    kids = tuple(c for c in (_normalize(child) for child in node.children) if c)
    return NormalizedNode(node.kind, node.label, kids)


def ast_key(node: SyntaxNode) -> tuple[str, ...]:
    """The labels of the tree's non-comment leaves, in source order.

    Two trees normalize equal exactly when their keys are equal: the
    normalized tree's leaves, read in order, are this sequence, and the
    parser never looks at comments when it chooses a node, so the rest of
    the normalized tree follows from the same sequence.
    """
    labels: list[str] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.label is None:
            stack.extend(reversed(current.children))
        elif current.kind not in COMMENT_KINDS:
            labels.append(current.label)
    return tuple(labels)
