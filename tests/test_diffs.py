"""Unified diff construction, parsing, and fuzzy application."""
import difflib
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit.diffs import UnifiedDiff, apply_diff, make_unified_diff
from repairkit.errors import HunkApplyFailure, MalformedOutput

TEN = "".join(f"line {i}\n" for i in range(1, 11))


def _reference_hunks(a: str, b: str, n: int) -> list[str]:
    """Hunk headers produced by difflib's unified_diff, the reference tool."""
    raw = difflib.unified_diff(
        a.splitlines(keepends=True), b.splitlines(keepends=True), n=n, lineterm=""
    )
    return [line for line in raw if line.startswith("@@")]


class TestMake:
    def test_identical_texts_empty_diff(self):
        assert make_unified_diff(TEN, TEN, 3).hunks == ()
        assert make_unified_diff("", "", 1).hunks == ()

    def test_one_change_context_1_is_three_line_window(self):
        b = TEN.replace("line 5", "LINE 5")
        diff = make_unified_diff(TEN, b, 1)
        assert len(diff.hunks) == 1
        hunk = diff.hunks[0]
        # Window: one context line either side of the changed line.
        assert (hunk.old_start, hunk.old_len) == (4, 3)
        assert len(hunk.old_elements()) == 3
        assert _reference_hunks(TEN, b, 1) == ["@@ -4,3 +4,3 @@"]

    def test_disjoint_changes_ten_lines_apart_two_hunks(self):
        a = "".join(f"row {i}\n" for i in range(1, 16))
        b = a.replace("row 2\n", "ROW 2\n").replace("row 13\n", "ROW 13\n")
        diff = make_unified_diff(a, b, 3)
        assert len(diff.hunks) == 2
        headers = [
            f"@@ -{h.old_start},{h.old_len} +{h.new_start},{h.new_len} @@"
            for h in diff.hunks
        ]
        assert headers == _reference_hunks(a, b, 3)

    def test_close_changes_merge_into_one_hunk(self):
        b = TEN.replace("line 4", "LINE 4").replace("line 7", "LINE 7")
        assert len(make_unified_diff(TEN, b, 3).hunks) == 1

    def test_rendered_body_matches_reference(self):
        edits = [
            TEN.replace("line 5", "LINE 5"),
            TEN.replace("line 1\n", "LINE 1\n").replace("line 9", "LINE 9"),  # two hunks
            TEN.replace("line 4\n", "line 4\nnew a\nnew b\n"),  # insertion only
            TEN.replace("line 6\nline 7\n", ""),  # deletion only
        ]
        for b in edits:
            for context in (0, 1, 3):
                diff = make_unified_diff(TEN, b, context)
                reference = [
                    line.rstrip("\n")
                    for line in difflib.unified_diff(
                        TEN.splitlines(keepends=True), b.splitlines(keepends=True), n=context
                    )
                ][2:]  # drop the ---/+++ file headers
                assert diff.render().splitlines() == reference
                assert len(diff.hunks) == sum(line.startswith("@@") for line in reference)

    def test_negative_context_rejected(self):
        with pytest.raises(ValueError):
            make_unified_diff("a\n", "b\n", -1)


class TestApply:
    def test_round_trip(self):
        b = TEN.replace("line 3", "three").replace("line 9\n", "")
        diff = make_unified_diff(TEN, b, 3)
        assert apply_diff(diff, TEN) == b

    def test_empty_diff_is_identity(self):
        assert apply_diff(UnifiedDiff(), TEN) == TEN

    def test_fuzz_applies_under_two_line_shift(self):
        b = TEN.replace("line 6", "SIX")
        diff = make_unified_diff(TEN, b, 3)
        shifted = "pre 1\npre 2\n" + TEN
        assert apply_diff(diff, shifted, fuzz=3) == "pre 1\npre 2\n" + b
        trimmed = TEN.split("\n", 2)[2]  # two leading lines removed
        assert apply_diff(diff, trimmed, fuzz=3) == b.split("\n", 2)[2]

    def test_without_fuzz_shifted_target_fails(self):
        b = TEN.replace("line 6", "SIX")
        diff = make_unified_diff(TEN, b, 3)
        with pytest.raises(HunkApplyFailure):
            apply_diff(diff, "pre 1\npre 2\n" + TEN, fuzz=0)

    def test_ambiguous_context_fails(self):
        # The window matches at distance 2 both above and below the stated
        # position and nowhere else.
        window = "alpha\nbeta\n"
        target = window + "x\nx\n" + window + "tail\n"
        diff = UnifiedDiff.parse("@@ -3,2 +3,2 @@\n-alpha\n-beta\n+ALPHA\n+BETA\n")
        with pytest.raises(HunkApplyFailure) as err:
            apply_diff(diff, target, fuzz=3)
        assert "ambiguous" in str(err.value)

    def test_unlocatable_context_reports_hunk_index(self):
        diff = UnifiedDiff.parse("@@ -2,1 +2,1 @@\n-missing\n+present\n")
        with pytest.raises(HunkApplyFailure) as err:
            apply_diff(diff, TEN, fuzz=2)
        assert err.value.hunk_index == 0

    def test_fuzz_does_not_place_a_hunk_inside_the_one_before(self):
        # The second hunk's line matches only at distance 2 above its stated
        # position, on a line the first hunk already replaced.
        diff = UnifiedDiff.parse("@@ -1,2 +1,2 @@\n-a\n-b\n+A\n+B\n@@ -4 +4 @@\n-b\n+B\n")
        with pytest.raises(HunkApplyFailure) as err:
            apply_diff(diff, "a\nb\nc\n", fuzz=2)
        assert err.value.hunk_index == 1

    def test_all_hunks_or_nothing(self):
        b = TEN.replace("line 2", "TWO").replace("line 9", "NINE")
        diff = make_unified_diff(TEN, b, 1)
        assert len(diff.hunks) == 2
        broken = TEN.replace("line 9\n", "gone\n")
        with pytest.raises(HunkApplyFailure) as err:
            apply_diff(diff, broken, fuzz=0)
        assert err.value.hunk_index == 1


class TestParseFormat:
    def test_garbage_is_malformed(self):
        with pytest.raises(MalformedOutput):
            UnifiedDiff.parse("this is not a diff")

    def test_empty_text_is_empty_diff(self):
        assert UnifiedDiff.parse("").hunks == ()

    def test_file_headers_tolerated(self):
        text = "--- a/X.java\n+++ b/X.java\n@@ -1,1 +1,1 @@\n-old\n+new\n"
        diff = UnifiedDiff.parse(text)
        assert apply_diff(diff, "old\n") == "new\n"

    def test_body_shorter_than_header_is_malformed(self):
        with pytest.raises(MalformedOutput):
            UnifiedDiff.parse("@@ -1,3 +1,3 @@\n-only\n+one\n")

    def test_overlapping_hunks_rejected(self):
        text = "@@ -2,2 +2,2 @@\n-a\n-b\n+A\n+B\n@@ -3,1 +3,1 @@\n-c\n+C\n"
        with pytest.raises(MalformedOutput):
            UnifiedDiff.parse(text)

    def test_singleton_range_omits_count(self):
        diff = make_unified_diff("a\n", "b\n", 0)
        assert diff.render().startswith("@@ -1 +1 @@")
        assert UnifiedDiff.parse(diff.render()) == diff

    def test_no_trailing_newline_marker(self):
        a, b = "keep\nlast", "keep\nLAST"
        diff = make_unified_diff(a, b, 3)
        rendered = diff.render()
        assert "\\ No newline at end of file" in rendered
        assert apply_diff(UnifiedDiff.parse(rendered), a) == b


_LINES = st.lists(
    st.sampled_from(["x\n", "y\n", "z\n", "same\n", "\n", "  indent\n"]),
    max_size=24,
)


@settings(max_examples=120, deadline=None)
@given(a=_LINES, b=_LINES, context=st.sampled_from([0, 1, 3]))
def test_property_make_apply_round_trip(a, b, context):
    left, right = "".join(a), "".join(b)
    diff = make_unified_diff(left, right, context)
    assert apply_diff(diff, left, fuzz=0) == right
    assert apply_diff(UnifiedDiff.parse(diff.render()), left, fuzz=0) == right


def test_seeded_random_round_trips():
    # Deterministic mass check over messier edit mixes than the property
    # strategy generates, including missing trailing newlines.
    rng = random.Random(20240917)
    for _ in range(250):
        n = rng.randrange(0, 40)
        a_lines = [f"{rng.choice('abcdef')}{rng.randrange(4)}\n" for _ in range(n)]
        b_lines = list(a_lines)
        for _ in range(rng.randrange(0, 8)):
            op = rng.choice("idr")
            if op == "i":
                b_lines.insert(rng.randrange(len(b_lines) + 1), "ins\n")
            elif b_lines and op == "d":
                b_lines.pop(rng.randrange(len(b_lines)))
            elif b_lines:
                b_lines[rng.randrange(len(b_lines))] = "rep\n"
        if rng.random() < 0.25 and b_lines:
            b_lines[-1] = b_lines[-1].rstrip("\n")
        if rng.random() < 0.25 and a_lines:
            a_lines[-1] = a_lines[-1].rstrip("\n")
        a, b = "".join(a_lines), "".join(b_lines)
        for context in (1, 3):
            diff = make_unified_diff(a, b, context)
            assert apply_diff(diff, a) == b
            assert apply_diff(UnifiedDiff.parse(diff.render()), a) == b


def _lf_lines(text: str) -> list[str]:
    """`text` cut after each "\\n", the one line end a diff knows."""
    lines = [line + "\n" for line in text.split("\n")]
    lines[-1] = lines[-1][:-1]
    return lines if lines[-1] else lines[:-1]


# Every terminator str.splitlines splits on that a Java file may hold; all
# but "\n" stay inside a line.
_TERMINATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85"]
_TERMINATED = st.builds(
    str.__add__, st.sampled_from(["a", "b", "c", "", " d"]), st.sampled_from(_TERMINATORS)
)
# The last part is a final line with no terminator, or nothing.
_TEXTS = st.builds(
    lambda lines, last: "".join(lines) + last,
    st.lists(_TERMINATED, max_size=16),
    st.sampled_from(["", "a", "tail"]),
)


@settings(max_examples=300, deadline=None)
@given(a=_TEXTS, b=_TEXTS, context=st.sampled_from([0, 1, 3]))
def test_property_render_is_difflib_body_plus_marker(a, b, context):
    body = list(difflib.unified_diff(_lf_lines(a), _lf_lines(b), n=context))[2:]  # no headers
    diff = make_unified_diff(a, b, context)
    assert diff.render() == "".join(
        line if line.endswith("\n") else f"{line}\n\\ No newline at end of file\n"
        for line in body
    )
    assert UnifiedDiff.parse(diff.render()) == diff
    assert apply_diff(diff, a) == b
    assert apply_diff(UnifiedDiff.parse(diff.render()), a) == b


def test_render_is_difflib_body_with_autojunk_off(monkeypatch):
    """From 200 lines on, difflib's default autojunk stops matching a line
    that fills more than 1% of the new text; `make_unified_diff` matches
    every line."""
    a = "x\n" * 200
    b = "x\n" * 100 + "y\n" + "x\n" * 100

    def body():
        lines = difflib.unified_diff(a.splitlines(keepends=True), b.splitlines(keepends=True))
        return "".join(list(lines)[2:])

    diff = make_unified_diff(a, b, 3)
    assert apply_diff(UnifiedDiff.parse(diff.render()), a) == b
    assert diff.render() != body()
    monkeypatch.setattr(
        difflib, "SequenceMatcher", functools.partial(difflib.SequenceMatcher, autojunk=False)
    )
    assert diff.render() == body()


# Each message lands verbatim in a record's `reconstruct_error`. The window
# alpha/beta occurs twice in the target, two lines either side of line 3.
@pytest.mark.parametrize(
    "output, error",
    [
        ("this is not a diff", "MalformedOutput: expected hunk header, got 'this is not a diff'"),
        (
            "@@ -1,3 +1,3 @@\n-alpha\n+one\n",
            "MalformedOutput: hunk body shorter than header counts",
        ),
        ("@@ -1 +1 @@\n*alpha\n+one\n", "MalformedOutput: unexpected line in hunk body: '*alpha'"),
        (
            "@@ -1 +1 @@\n-alpha\n-beta\n+one\n",
            "MalformedOutput: hunk body (2/1 lines) does not match header (-1,1 +1,1)",
        ),
        (
            "@@ -4 +4 @@\n-x\n+X\n@@ -2 +2 @@\n-beta\n+BETA\n",
            "MalformedOutput: hunks overlap or are out of order",
        ),
        ("@@ -1 +1 @@\n-missing\n+present\n", "HunkApplyFailure: hunk 0: context not found"),
        (
            "@@ -3 +3 @@\n-x\n+X\n@@ -20,0 +21 @@\n+past the end\n",
            "HunkApplyFailure: hunk 1: insertion point out of range",
        ),
        (
            "@@ -3,2 +3,2 @@\n-alpha\n-beta\n+ALPHA\n+BETA\n",
            "HunkApplyFailure: hunk 0: ambiguous context match",
        ),
    ],
)
def test_error_messages(output, error):
    target = "alpha\nbeta\nx\nx\nalpha\nbeta\ntail\n"
    with pytest.raises((MalformedOutput, HunkApplyFailure)) as err:
        apply_diff(UnifiedDiff.parse(output), target, fuzz=3)
    assert f"{type(err.value).__name__}: {err.value}" == error
