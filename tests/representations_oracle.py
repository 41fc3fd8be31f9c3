"""The region cut and diff hunks as they were before one helper cut every
region and a hunk's lengths were counted from its lines, and `reconstruct`
as it was when it prepared each function in a closure: the oracle of
`test_repr_equivalence.py`.

Each function here splits, validates and slices a function on its own, and
`OracleHunk` stores its header lengths next to its lines, checked by
`validate()` once the parser has read its body. `oracle_reconstruct` is the
closure-building `reconstruct` with its `lru_cache` left out, so every call
prepares afresh. The code is kept as it was, renamed; the public functions
of `repairkit.representations` and `repairkit.diffs` must give the same
bytes, the same hunks, and the same exception class and message.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Callable, Iterable, Sequence

from repairkit.config import DEFAULT_STOP_TOKENS
from repairkit.diffs import UnifiedDiff
from repairkit.errors import HunkApplyFailure, MalformedOutput, RegionMismatch
from repairkit.representations import (
    DEFAULT_MARKERS,
    DIFF_APPLY_FUZZ,
    InputKind,
    Markers,
    OutputKind,
    Region,
    ReprPair,
    clean_model_output,
    valid_pair,
)
from repairkit.syntax import SourceFunction

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_NO_NEWLINE = "\\ No newline at end of file"
_LINE_RE = re.compile(r".*+\n|.++")


def _indent_of(line: str) -> str:
    return line[: len(line) - len(line.lstrip())]


def oracle_region_indent(lines: Sequence[str], region: Region) -> str:
    span = lines[region.start_line - 1 : region.end_line]
    for line in span:
        if line.strip():
            return _indent_of(line)
    empty = region.end_line < region.start_line
    after = lines[region.start_line - 1 :] if empty else lines[region.end_line :]
    for line in after:
        if line.strip():
            return _indent_of(line)
    for line in reversed(lines[: region.start_line - 1]):
        if line.strip():
            return _indent_of(line)
    return ""


def oracle_build_input(
    fn: SourceFunction,
    region: Region,
    kind: InputKind,
    markers: Markers = DEFAULT_MARKERS,
) -> str:
    if kind is InputKind.IR1:
        return fn.text
    lines = fn.lines
    region.validate(len(lines))
    before = lines[: region.start_line - 1]
    span = lines[region.start_line - 1 : region.end_line]
    after = lines[region.end_line :]
    indent = oracle_region_indent(lines, region)
    if kind is InputKind.IR2:
        rendered = (
            before
            + [indent + markers.start_comment]
            + span
            + [indent + markers.end_comment]
            + after
        )
    elif kind is InputKind.IR3:
        rendered = before + [indent + markers.fill_token] + after
    elif kind is InputKind.IR4:
        commented = [
            (indent + markers.comment_prefix + line.strip()).rstrip() for line in span
        ]
        header = [indent + markers.buggy_header] if span else []
        rendered = before + header + commented + [indent + markers.fill_token] + after
    else:
        raise ValueError(f"unknown input kind: {kind}")
    return "\n".join(rendered)


def oracle_fixed_region_lines(
    buggy: SourceFunction, fixed: SourceFunction, region: Region
) -> list[str]:
    blines = buggy.lines
    region.validate(len(blines))
    flines = fixed.lines
    prefix = blines[: region.start_line - 1]
    suffix = blines[region.end_line :]
    if len(flines) < len(prefix) + len(suffix):
        raise RegionMismatch("fix removes lines outside the region")
    if flines[: len(prefix)] != prefix:
        raise RegionMismatch("fix changes lines before the region")
    if suffix and flines[len(flines) - len(suffix) :] != suffix:
        raise RegionMismatch("fix changes lines after the region")
    return flines[len(prefix) : len(flines) - len(suffix)]


def oracle_reconstruct_or2(fn: SourceFunction, region: Region, text: str) -> str:
    """`reconstruct`'s OR2 branch, given the cleaned model output."""
    lines = fn.lines
    region.validate(len(lines))
    chunk = text.split("\n") if text else []
    return "\n".join(lines[: region.start_line - 1] + chunk + lines[region.end_line :])


@dataclass(frozen=True)
class OracleHunk:
    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: tuple[str, ...]

    def old_elements(self) -> list[str]:
        return [line[1:] for line in self.lines if line[0] in " -"]

    def new_elements(self) -> list[str]:
        return [line[1:] for line in self.lines if line[0] in " +"]

    def validate(self) -> None:
        old_n = sum(1 for line in self.lines if line[0] in " -")
        new_n = sum(1 for line in self.lines if line[0] in " +")
        if old_n != self.old_len or new_n != self.new_len:
            raise MalformedOutput(
                f"hunk body ({old_n}/{new_n} lines) does not match header "
                f"(-{self.old_start},{self.old_len} +{self.new_start},{self.new_len})"
            )


def oracle_render(hunks: Sequence[OracleHunk]) -> str:
    parts: list[str] = []
    for hunk in hunks:
        parts.append(
            f"@@ -{_range(hunk.old_start, hunk.old_len)} "
            f"+{_range(hunk.new_start, hunk.new_len)} @@\n"
        )
        for line in hunk.lines:
            parts.append(line if line.endswith("\n") else f"{line}\n{_NO_NEWLINE}\n")
    return "".join(parts)


def oracle_parse(text: str) -> tuple[OracleHunk, ...]:
    lines = text.split("\n")
    i = 0
    while i < len(lines) and not lines[i].strip():
        i += 1
    while i < len(lines) and lines[i].startswith(("--- ", "+++ ", "---", "+++")):
        i += 1
    hunks: list[OracleHunk] = []
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        m = _HUNK_RE.match(lines[i])
        if m is None:
            raise MalformedOutput(f"expected hunk header, got {lines[i]!r}")
        old_start = int(m.group(1))
        old_len = int(m.group(2)) if m.group(2) is not None else 1
        new_start = int(m.group(3))
        new_len = int(m.group(4)) if m.group(4) is not None else 1
        i += 1
        body: list[str] = []
        want_old, want_new = old_len, new_len
        while i < len(lines) and (want_old > 0 or want_new > 0):
            raw = lines[i]
            if raw == _NO_NEWLINE:
                body[-1:] = [body[-1].removesuffix("\n")] if body else []
                i += 1
                continue
            tag = raw[0] if raw else " "
            if tag not in " -+":
                raise MalformedOutput(f"unexpected line in hunk body: {raw!r}")
            if tag in " -":
                want_old -= 1
            if tag in " +":
                want_new -= 1
            body.append((raw or " ") + "\n")
            i += 1
        if want_old > 0 or want_new > 0:
            raise MalformedOutput("hunk body shorter than header counts")
        if i < len(lines) and lines[i] == _NO_NEWLINE and body:
            body[-1] = body[-1].removesuffix("\n")
            i += 1
        hunk = OracleHunk(old_start, old_len, new_start, new_len, tuple(body))
        hunk.validate()
        hunks.append(hunk)
    _check_ordering(hunks)
    return tuple(hunks)


def _range(start: int, length: int) -> str:
    return f"{start}" if length == 1 else f"{start},{length}"


def _check_ordering(hunks: list[OracleHunk]) -> None:
    prev_end = 0
    for hunk in hunks:
        begin = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        if begin < prev_end:
            raise MalformedOutput("hunks overlap or are out of order")
        prev_end = begin + hunk.old_len


def oracle_make_unified_diff(a: str, b: str, context: int = 3) -> tuple[OracleHunk, ...]:
    if context < 0:
        raise ValueError("context must be >= 0")
    al, bl = a.splitlines(keepends=True), b.splitlines(keepends=True)
    matcher = SequenceMatcher(None, al, bl, autojunk=False)
    hunks: list[OracleHunk] = []
    for group in matcher.get_grouped_opcodes(context):
        body: list[str] = []
        for tag, i1, i2, j1, j2 in group:
            if tag == "equal":
                body.extend(" " + el for el in al[i1:i2])
                continue
            if tag in ("replace", "delete"):
                body.extend("-" + el for el in al[i1:i2])
            if tag in ("replace", "insert"):
                body.extend("+" + el for el in bl[j1:j2])
        i1, i2 = group[0][1], group[-1][2]
        j1, j2 = group[0][3], group[-1][4]
        hunks.append(
            OracleHunk(
                old_start=i1 + 1 if i2 > i1 else i1,
                old_len=i2 - i1,
                new_start=j1 + 1 if j2 > j1 else j1,
                new_len=j2 - j1,
                lines=tuple(body),
            )
        )
    return tuple(hunks)


def oracle_apply_diff(hunks: Sequence[OracleHunk], a: str, fuzz: int = 0) -> str:
    src = a.splitlines(keepends=True)
    splices: list[tuple[int, int, list[str]]] = []
    prev_end = 0
    for index, hunk in enumerate(hunks):
        old = hunk.old_elements()
        new = hunk.new_elements()
        want = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        if not old:
            if want < prev_end or want > len(src):
                raise HunkApplyFailure(index, "insertion point out of range")
            splices.append((want, want, new))
            prev_end = want
            continue

        def matches(pos: int) -> bool:
            return prev_end <= pos <= len(src) - len(old) and src[pos : pos + len(old)] == old

        if matches(want):
            found = want
        else:
            found = None
            for dist in range(1, fuzz + 1):
                hits = [p for p in (want - dist, want + dist) if p >= 0 and matches(p)]
                if len(hits) > 1:
                    raise HunkApplyFailure(index, "ambiguous context match")
                if hits:
                    found = hits[0]
                    break
            if found is None:
                raise HunkApplyFailure(index)
        splices.append((found, found + len(old), new))
        prev_end = found + len(old)
    out: list[str] = []
    cursor = 0
    for start, end, new in splices:
        out.extend(src[cursor:start])
        out.extend(new)
        cursor = end
    out.extend(src[cursor:])
    return "".join(out)


def oracle_reconstruct(
    fn: SourceFunction,
    region: Region,
    pair: ReprPair,
    model_output: str,
    stop_tokens: Iterable[str] = DEFAULT_STOP_TOKENS,
) -> str:
    return _oracle_reconstructor(fn, region, pair, tuple(stop_tokens))(model_output)


def _oracle_reconstructor(
    fn: SourceFunction, region: Region, pair: ReprPair, stop_tokens: tuple[str, ...]
) -> Callable[[str], str]:
    if not valid_pair(pair):
        raise ValueError(f"invalid representation pair: {pair}")
    if pair.output is OutputKind.OR1:
        return lambda raw: clean_model_output(raw, stop_tokens)
    if pair.output is OutputKind.OR2:
        lines = fn.lines
        region.validate(len(lines))
        before, after = lines[: region.start_line - 1], lines[region.end_line :]

        def into_region(raw: str) -> str:
            text = clean_model_output(raw, stop_tokens)
            return "\n".join(before + (text.split("\n") if text else []) + after)

        return into_region
    apply = _oracle_applier(fn.text, DIFF_APPLY_FUZZ)
    return lambda raw: apply(UnifiedDiff.parse(clean_model_output(raw, stop_tokens)))


def _oracle_applier(a: str, fuzz: int) -> Callable[[UnifiedDiff], str]:
    src = _LINE_RE.findall(a)

    def apply(diff: UnifiedDiff) -> str:
        splices: list[tuple[int, int, list[str]]] = []
        prev_end = 0
        for index, hunk in enumerate(diff.hunks):
            old = hunk.old_elements()
            new = hunk.new_elements()
            want = hunk.old_start - 1 if old else hunk.old_start
            if not old:
                if want < prev_end or want > len(src):
                    raise HunkApplyFailure(index, "insertion point out of range")
                splices.append((want, want, new))
                prev_end = want
                continue

            def matches(pos: int) -> bool:
                return (
                    prev_end <= pos <= len(src) - len(old)
                    and src[pos : pos + len(old)] == old
                )

            if matches(want):
                found = want
            else:
                found = None
                for dist in range(1, fuzz + 1):
                    hits = [p for p in (want - dist, want + dist) if p >= 0 and matches(p)]
                    if len(hits) > 1:
                        raise HunkApplyFailure(index, "ambiguous context match")
                    if hits:
                        found = hits[0]
                        break
                if found is None:
                    raise HunkApplyFailure(index)
            splices.append((found, found + len(old), new))
            prev_end = found + len(old)
        out: list[str] = []
        cursor = 0
        for start, end, new in splices:
            out.extend(src[cursor:start])
            out.extend(new)
            cursor = end
        out.extend(src[cursor:])
        return "".join(out)

    return apply
