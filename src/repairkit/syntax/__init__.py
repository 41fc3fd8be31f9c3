"""Source-language frontend: function extraction, parsing, AST equivalence.

The frontend is pluggable per language tag. The built-in frontend covers
Java; registering another `LanguageFrontend` makes `parse`, `ast_equal`,
and `extract_functions` work for additional languages without touching the
callers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ParseError, UnsupportedLanguage
from .parser import parse_java
from .tree import NormalizedNode, SyntaxNode, ast_key, normalize

__all__ = [
    "SourceFile",
    "SourceFunction",
    "SyntaxNode",
    "NormalizedNode",
    "LanguageFrontend",
    "register_language",
    "supported_languages",
    "parse",
    "extract_functions",
    "normalize",
    "ast_key",
    "ast_equal",
    "ParseError",
    "UnsupportedLanguage",
]

FUNCTION_KINDS = frozenset({"method_declaration", "constructor_declaration"})


@dataclass(frozen=True)
class SourceFile:
    """A source file with stable 1-based line indexing."""

    path: str
    content: str
    language: str = "java"

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


@dataclass
class LanguageFrontend:
    """Hooks one grammar into the toolkit.

    `parse` must keep every token as a leaf, and the tree without its comment
    leaves must follow from the labels of the other leaves alone, as it does
    for Java: AST match compares `ast_key`s.
    """

    name: str
    parse: Callable[[str], SyntaxNode]


_FRONTENDS: dict[str, LanguageFrontend] = {}


def register_language(frontend: LanguageFrontend) -> None:
    _FRONTENDS[frontend.name] = frontend


def supported_languages() -> list[str]:
    return sorted(_FRONTENDS)


register_language(LanguageFrontend(name="java", parse=parse_java))


def parse(source: str, language: str = "java") -> SyntaxNode:
    """Parse source text into a syntax tree.

    Accepts whole files and bare fragments (a single function parses with a
    method-declaration root). Raises UnsupportedLanguage for unknown tags
    and ParseError for invalid source.
    """
    frontend = _FRONTENDS.get(language)
    if frontend is None:
        raise UnsupportedLanguage(language)
    return frontend.parse(source)


def extract_functions(file: SourceFile) -> list[SourceFunction]:
    """All method and constructor declarations of a file, in source order.

    Line ranges are exact and round-trip through `SourceFile.slice_lines`.
    Bodies nested inside another function (local classes, anonymous classes,
    lambdas) belong to their enclosing declaration and are not listed.
    """
    tree = parse(file.content, file.language)
    out: list[SourceFunction] = []
    for node in _function_nodes(tree):
        name = _declared_name(node)
        out.append(
            SourceFunction(
                name=name,
                start_line=node.start_line,
                end_line=node.end_line,
                text=file.slice_lines(node.start_line, node.end_line),
                file=file,
            )
        )
    return out


def _function_nodes(node: SyntaxNode):
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


def ast_equal(a: str, b: str, language: str = "java") -> bool:
    """True iff the two sources have equal trees modulo comments/formatting.

    That is, iff their significant (non-comment) token sequences are equal.
    Token labels are compared verbatim (a renamed identifier or reformatted
    literal is unequal); exact textual equality always implies True.
    Raises ParseError when either input does not parse.
    """
    return ast_key(parse(a, language)) == ast_key(parse(b, language))
