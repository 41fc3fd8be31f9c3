"""Fault-localization-aware input/output representations of a function.

Inputs mark a suspicious line region inside a buggy function four ways:
verbatim (IR1), fenced by marker comments (IR2), masked by a fill token
(IR3), or masked with the original lines kept as comments (IR4). Outputs
encode the fix as the whole fixed function (OR1), the replacement lines
for the region (OR2), or a unified diff with three (OR3) or one (OR4)
context lines. Only six input/output pairings are coherent; `valid_pair`
is the gatekeeper.

`reconstruct` is the inference-time inverse: it turns a model's raw output
back into a full candidate function.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Iterable

from .config import DEFAULT_STOP_TOKENS, Markers
from .diffs import UnifiedDiff, apply_diff, make_unified_diff
from .errors import InvalidRegion, RegionMismatch
from .syntax import SourceFunction
from .values import frozen


class InputKind(str, Enum):
    IR1 = "IR1"  # buggy function as written
    IR2 = "IR2"  # region fenced by start/end marker comments
    IR3 = "IR3"  # region replaced by the fill token
    IR4 = "IR4"  # region kept as comments, then the fill token


class OutputKind(str, Enum):
    OR1 = "OR1"  # full fixed function
    OR2 = "OR2"  # replacement lines for the region
    OR3 = "OR3"  # unified diff, three context lines
    OR4 = "OR4"  # unified diff, one context line


@frozen
class ReprPair:
    input: InputKind
    output: OutputKind

    def __str__(self) -> str:
        return f"{self.input.value}x{self.output.value}"

    @classmethod
    def parse(cls, tag: str) -> "ReprPair":
        try:
            left, right = tag.split("x")
            return cls(InputKind(left), OutputKind(right))
        except ValueError:
            raise ValueError(f"not a representation pair tag: {tag!r}") from None


VALID_PAIRS: frozenset[ReprPair] = frozenset(
    {
        ReprPair(InputKind.IR1, OutputKind.OR1),
        ReprPair(InputKind.IR1, OutputKind.OR3),
        ReprPair(InputKind.IR1, OutputKind.OR4),
        ReprPair(InputKind.IR2, OutputKind.OR2),
        ReprPair(InputKind.IR3, OutputKind.OR2),
        ReprPair(InputKind.IR4, OutputKind.OR2),
    }
)


def valid_pair(pair: ReprPair) -> bool:
    """True for exactly the six coherent pairings.

    A fixed chunk (OR2) is only applicable when the input carries fault
    localization (IR2/IR3/IR4); a bare function input (IR1) needs an
    output that locates the change itself (OR1/OR3/OR4).
    """
    return pair in VALID_PAIRS


DEFAULT_MARKERS = Markers()

DIFF_APPLY_FUZZ = 3  # mirrors common patch-tool tolerance for OR3/OR4


@frozen
class Region:
    """Contiguous suspicious line span, function-relative and 1-based.

    The span is half-open over lines: [start_line, end_line + 1). A pure
    insertion point before line k is the empty span (k, k - 1).
    """

    start_line: int
    end_line: int

    @property
    def line_count(self) -> int:
        return max(0, self.end_line - self.start_line + 1)

    def validate(self, function_line_count: int) -> None:
        if not 1 <= self.start_line <= function_line_count + 1:
            raise InvalidRegion(
                f"region start {self.start_line} outside 1..{function_line_count + 1}"
            )
        if self.end_line < self.start_line - 1:
            raise InvalidRegion(
                f"region end {self.end_line} before start {self.start_line}"
            )
        if self.end_line > function_line_count:
            raise InvalidRegion(
                f"region end {self.end_line} beyond function line count "
                f"{function_line_count}"
            )


def enumerate_regions(fn: SourceFunction) -> list[Region]:
    """All contiguous non-empty line spans, ordered by (start, end).

    An n-line function yields n*(n+1)/2 regions.
    """
    n = fn.line_count
    return [Region(s, e) for s in range(1, n + 1) for e in range(s, n + 1)]


def _indent_of(line: str) -> str:
    return line[: len(line) - len(line.lstrip())]


@lru_cache(maxsize=16)
def _cut(fn: SourceFunction, region: Region) -> tuple[list[str], list[str], list[str]]:
    """`fn`'s lines before, inside and after `region`, which must fit `fn`.
    Kept for the last 16 calls, as a bug's candidates share them, so the
    lists are shared too: a caller builds new lists and changes none."""
    lines = fn.lines
    region.validate(len(lines))
    start = region.start_line - 1
    return lines[:start], lines[start : region.end_line], lines[region.end_line :]


def _region_indent(before: list[str], span: list[str], after: list[str]) -> str:
    """Indentation for inserted markers: first non-blank affected line,
    falling back to the line after the region, then the line before."""
    for line in chain(span, after, reversed(before)):
        if line.strip():
            return _indent_of(line)
    return ""


def build_input(
    fn: SourceFunction,
    region: Region,
    kind: InputKind,
    markers: Markers = DEFAULT_MARKERS,
) -> str:
    """Render the buggy function in one of the four input representations.

    The region is ignored for IR1 and validated for the others. Inserted
    marker lines copy the indentation of the first non-blank region line
    (or of the following line when the region is empty). An empty region
    renders IR2's two marker comments on adjacent lines and reduces IR4 to
    IR3 (no buggy lines to re-emit, so the header is omitted).
    """
    if kind is InputKind.IR1:
        return fn.text
    before, span, after = _cut(fn, region)
    indent = _region_indent(before, span, after)
    if kind is InputKind.IR2:
        marked = [indent + markers.start_comment, *span, indent + markers.end_comment]
    elif kind is InputKind.IR3:
        marked = [indent + markers.fill_token]
    elif kind is InputKind.IR4:
        commented = [
            (indent + markers.comment_prefix + line.strip()).rstrip() for line in span
        ]
        header = [indent + markers.buggy_header] if span else []
        marked = header + commented + [indent + markers.fill_token]
    else:  # pragma: no cover - closed enumeration
        raise ValueError(f"unknown input kind: {kind}")
    return "\n".join(before + marked + after)


def fixed_region_lines(
    buggy: SourceFunction, fixed: SourceFunction, region: Region
) -> list[str]:
    """The fixed-side counterpart of the buggy region.

    The lines outside the region must be untouched by the fix; otherwise
    the change cannot be expressed as a chunk replacement and
    RegionMismatch is raised rather than silently widening the region.
    """
    prefix, _, suffix = _cut(buggy, region)
    flines = fixed.lines
    if len(flines) < len(prefix) + len(suffix):
        raise RegionMismatch("fix removes lines outside the region")
    if flines[: len(prefix)] != prefix:
        raise RegionMismatch("fix changes lines before the region")
    if suffix and flines[len(flines) - len(suffix) :] != suffix:
        raise RegionMismatch("fix changes lines after the region")
    return flines[len(prefix) : len(flines) - len(suffix)]


def build_output(
    buggy: SourceFunction,
    fixed: SourceFunction,
    region: Region,
    kind: OutputKind,
) -> str:
    """Render the reference fix in one of the four output representations."""
    if kind is OutputKind.OR1:
        return fixed.text
    if kind is OutputKind.OR2:
        return "\n".join(fixed_region_lines(buggy, fixed, region))
    if kind is OutputKind.OR3:
        return make_unified_diff(buggy.text, fixed.text, context=3).render()
    if kind is OutputKind.OR4:
        return make_unified_diff(buggy.text, fixed.text, context=1).render()
    raise ValueError(f"unknown output kind: {kind}")  # pragma: no cover


def clean_model_output(text: str, stop_tokens: Iterable[str] = DEFAULT_STOP_TOKENS) -> str:
    """Truncate at the first stop token, then strip trailing whitespace.

    Leading whitespace is preserved: the first line of a chunk or function
    carries meaningful indentation.
    """
    cut = len(text)
    for token in stop_tokens:
        idx = text.find(token)
        if idx != -1:
            cut = min(cut, idx)
    return text[:cut].rstrip()


def reconstruct(
    fn: SourceFunction,
    region: Region,
    pair: ReprPair,
    model_output: str,
    stop_tokens: Iterable[str] = DEFAULT_STOP_TOKENS,
) -> str:
    """Turn a raw model output into a full candidate function.

    OR1 outputs are the candidate verbatim; OR2 outputs are spliced into
    the region; OR3/OR4 outputs are decoded as unified diffs and applied
    with fuzzy context matching. Raises MalformedOutput, HunkApplyFailure,
    or InvalidRegion.
    """
    if not valid_pair(pair):
        raise ValueError(f"invalid representation pair: {pair}")
    text = clean_model_output(model_output, stop_tokens)
    if pair.output is OutputKind.OR1:
        return text
    if pair.output is OutputKind.OR2:
        before, _, after = _cut(fn, region)
        return "\n".join(before + (text.split("\n") if text else []) + after)
    return apply_diff(UnifiedDiff.parse(text), fn.text, DIFF_APPLY_FUZZ)
