"""Unified diff construction, parsing, and fuzzy application.

The wire format is the standard `@@ -a,b +c,d @@` hunk syntax without file
headers (headers are tolerated on input and skipped). Lines end at "\\n"
only. A hunk line is its tag (' ', '-' or '+') followed by its text, with
its "\\n" if it has one; a line without one is rendered with the
`\\ No newline at end of file` marker after it, so texts that do not end
with a newline round-trip exactly.

Line matching during construction uses difflib's SequenceMatcher; hunk
grouping, rendering, parsing, and application are implemented here.
"""
from __future__ import annotations

import re
from difflib import SequenceMatcher
from functools import lru_cache

from .errors import HunkApplyFailure, MalformedOutput
from .values import frozen

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_NO_NEWLINE = "\\ No newline at end of file"
_LINE_RE = re.compile(r".*+\n|.++")  # a line with its "\n", or the last line without one


@frozen
class Hunk:
    """Start lines and tagged body lines, which the header's lengths count;
    a line's element is `line[1:]`."""

    old_start: int
    new_start: int
    lines: tuple[str, ...]

    @property
    def old_len(self) -> int:
        return sum(line[0] in " -" for line in self.lines)

    @property
    def new_len(self) -> int:
        return sum(line[0] in " +" for line in self.lines)

    def old_elements(self) -> list[str]:
        return [line[1:] for line in self.lines if line[0] in " -"]

    def new_elements(self) -> list[str]:
        return [line[1:] for line in self.lines if line[0] in " +"]


@frozen
class UnifiedDiff:
    hunks: tuple[Hunk, ...] = ()

    def render(self) -> str:
        parts: list[str] = []
        for hunk in self.hunks:
            parts.append(
                f"@@ -{_range(hunk.old_start, hunk.old_len)} "
                f"+{_range(hunk.new_start, hunk.new_len)} @@\n"
            )
            for line in hunk.lines:
                parts.append(line if line.endswith("\n") else f"{line}\n{_NO_NEWLINE}\n")
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> "UnifiedDiff":
        """Decode rendered diff text; raises MalformedOutput on garbage."""
        lines = text.split("\n")
        i = 0
        # Tolerate leading blank lines and optional ---/+++ file headers.
        while i < len(lines) and not lines[i].strip():
            i += 1
        while i < len(lines) and lines[i].startswith(("---", "+++")):
            i += 1
        hunks: list[Hunk] = []
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
            old_n = new_n = 0
            while i < len(lines) and (old_n < old_len or new_n < new_len):
                raw = lines[i]
                if raw == _NO_NEWLINE:
                    body[-1:] = [body[-1].removesuffix("\n")] if body else []
                    i += 1
                    continue
                tag = raw[0] if raw else " "
                if tag not in " -+":
                    raise MalformedOutput(f"unexpected line in hunk body: {raw!r}")
                old_n += tag != "+"
                new_n += tag != "-"
                body.append((raw or " ") + "\n")
                i += 1
            if old_n < old_len or new_n < new_len:
                raise MalformedOutput("hunk body shorter than header counts")
            if old_n != old_len or new_n != new_len:
                raise MalformedOutput(
                    f"hunk body ({old_n}/{new_n} lines) does not match header "
                    f"(-{old_start},{old_len} +{new_start},{new_len})"
                )
            if i < len(lines) and lines[i] == _NO_NEWLINE and body:
                body[-1] = body[-1].removesuffix("\n")
                i += 1
            hunks.append(Hunk(old_start, new_start, tuple(body)))
        _check_ordering(hunks)
        return cls(tuple(hunks))


def _range(start: int, length: int) -> str:
    return f"{start}" if length == 1 else f"{start},{length}"


def _check_ordering(hunks: list[Hunk]) -> None:
    prev_end = 0
    for hunk in hunks:
        old_len = hunk.old_len
        begin = hunk.old_start - 1 if old_len else hunk.old_start
        if begin < prev_end:
            raise MalformedOutput("hunks overlap or are out of order")
        prev_end = begin + old_len


def make_unified_diff(a: str, b: str, context: int = 3) -> UnifiedDiff:
    """Line diff from a to b with the given context width; empty when a == b."""
    if context < 0:
        raise ValueError("context must be >= 0")
    al, bl = _LINE_RE.findall(a), _LINE_RE.findall(b)
    matcher = SequenceMatcher(None, al, bl, autojunk=False)
    hunks: list[Hunk] = []
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
        hunks.append(Hunk(i1 + 1 if i2 > i1 else i1, j1 + 1 if j2 > j1 else j1, tuple(body)))
    return UnifiedDiff(tuple(hunks))


def apply_diff(diff: UnifiedDiff, a: str, fuzz: int = 0) -> str:
    """Apply a unified diff to text `a`.

    Each hunk is tried at its stated position first; on mismatch the old
    window is searched within +/-fuzz lines. A hunk that matches nowhere,
    or equally well at two offsets of the same distance, raises
    HunkApplyFailure with its index; nothing is applied unless every hunk
    applies (the function is pure, so failure simply leaves `a` unused).
    """
    src = _source_lines(a)
    out: list[str] = []
    cursor = 0  # where the last hunk placed ends in `src`
    for index, hunk in enumerate(diff.hunks):
        old = hunk.old_elements()
        want = hunk.old_start - 1 if old else hunk.old_start

        def matches(pos: int) -> bool:
            return cursor <= pos <= len(src) - len(old) and src[pos : pos + len(old)] == old

        if matches(want):
            found = want
        elif not old:
            raise HunkApplyFailure(index, "insertion point out of range")
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
        out.extend(src[cursor:found])
        out.extend(hunk.new_elements())
        cursor = found + len(old)
    out.extend(src[cursor:])
    return "".join(out)


@lru_cache(maxsize=16)
def _source_lines(a: str) -> list[str]:
    """`a` split into the lines hunks match against; kept for the last 16
    texts, since a bug's candidate diffs all apply to one function."""
    return _LINE_RE.findall(a)
