"""Syntax tree nodes and AST keys.

A tree's interior nodes are `SyntaxNode`s, and its leaves are tokens,
comments included. A node holds its children as `kids`: a token's index in
the parsed `Tokens`, or a child node. Every node covers a contiguous run of
tokens, `first` to `last` (indices, inclusive), which are all its leaves,
so its `start`, `end`, `start_line` and `end_line` are read from the token
lists when asked, the lines by bisect in the source's newline offsets.
`children`, `walk()` and `leaves()` build a `Token` for each leaf they
reach, and a `Token` answers the same tree interface as a node: `kind`,
`label`, `children`, `start`, `end`, `start_line`, `end_line`, `is_leaf`,
`is_comment`, `walk()` and `leaves()`. The pipeline reads only `kids` and
the token lists, but this interface stays public: the tests' reference
parser, golden tree dumps and normalization oracle are written against it.
"""
from __future__ import annotations

from typing import Iterator, Union

from .tokens import COMMENT_KINDS, Token, Tokens

COMPILATION_UNIT = "compilation_unit"


class SyntaxNode:
    """An interior node of the concrete syntax tree.

    It carries a kind tag and its kids: token indices (the leaves) and
    other interior nodes, in source order. A node without kids, the empty
    compilation unit, has `first = 0` and `last = -1`, and its span and
    lines are 0.
    """

    __slots__ = ("kind", "kids", "tokens", "first", "last")

    # Only leaves (tokens) carry a label.
    label = None
    is_leaf = False
    is_comment = False

    def __init__(self, kind: str, kids: list, tokens: Tokens):
        self.kind = kind
        self.kids = kids
        self.tokens = tokens
        if kids:
            first, last = kids[0], kids[-1]
            self.first = first if type(first) is int else first.first
            self.last = last if type(last) is int else last.last
        else:
            self.first, self.last = 0, -1

    def __repr__(self) -> str:
        return f"SyntaxNode({self.kind!r}, tokens {self.first}..{self.last})"

    @property
    def start(self) -> int:
        return self.tokens.starts[self.first] if self.kids else 0

    @property
    def end(self) -> int:
        return self.tokens.end(self.last) if self.kids else 0

    @property
    def start_line(self) -> int:
        return self.tokens.line(self.start) if self.kids else 0

    @property
    def end_line(self) -> int:
        # No token ends with a newline, so the line of a token's end offset
        # is that of its last character.
        return self.tokens.line(self.end) if self.kids else 0

    @property
    def children(self) -> list[Node]:
        tokens = self.tokens
        return [tokens[kid] if type(kid) is int else kid for kid in self.kids]

    def walk(self) -> Iterator[Node]:
        yield self
        tokens = self.tokens
        for kid in self.kids:
            if type(kid) is int:
                yield tokens[kid]
            else:
                yield from kid.walk()

    def leaves(self) -> Iterator[Token]:
        return map(self.tokens.__getitem__, range(self.first, self.last + 1))


# A node of a syntax tree: an interior node or a leaf.
Node = Union[SyntaxNode, Token]


def ast_key(node: Node) -> tuple[str, ...]:
    """The texts of the tree's non-comment leaves, in source order.

    Two trees are equal without their comments exactly when their keys are
    equal: the parser reads nothing but these texts when it chooses a node,
    so the rest of the tree follows from the same sequence.
    """
    if isinstance(node, Token):
        return () if node.kind in COMMENT_KINDS else (node.text,)
    return node.tokens.key(node.first, node.last + 1)
