"""Formatting-insensitive tree normalization: the oracle of the `ast_key`
property tests.

A normalized tree keeps each node's kind, label and ordered children, and
drops comments and positions, so its equality ignores formatting by
construction. `ast_key` claims that two trees normalize equal exactly when
their keys are equal; `test_syntax.py` checks that claim against this
module. It reads trees through their public interface only (`kind`,
`label`, `children`), so it takes the tree of any parser.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repairkit.syntax.tokens import COMMENT_KINDS
from repairkit.syntax.tree import COMPILATION_UNIT


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


def normalize(node) -> NormalizedNode:
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


def _normalize(node) -> Optional[NormalizedNode]:
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
