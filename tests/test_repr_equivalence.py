"""One region cut and counted hunk lengths give what the code before them
gave: the same rendered inputs, OR2 targets and reconstructions, the same
hunks and diff text, and the same exception class and message, checked
against `representations_oracle.py`. `reconstruct`, which keeps the cut
around a region and the lines a diff applies to for the candidates that
follow, gives what the closure-building `reconstruct` before it gave."""
import operator
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from representations_oracle import (
    _HUNK_RE,
    _NO_NEWLINE,
    oracle_apply_diff,
    oracle_build_input,
    oracle_fixed_region_lines,
    oracle_make_unified_diff,
    oracle_parse,
    oracle_reconstruct,
    oracle_reconstruct_or2,
    oracle_render,
)
from repairkit import diffs, representations
from repairkit.diffs import UnifiedDiff, apply_diff, make_unified_diff
from repairkit.config import DEFAULT_STOP_TOKENS
from repairkit.errors import InvalidRegion, MalformedOutput
from repairkit.representations import (
    DEFAULT_MARKERS,
    VALID_PAIRS,
    InputKind,
    Markers,
    OutputKind,
    Region,
    ReprPair,
    build_input,
    clean_model_output,
    fixed_region_lines,
    reconstruct,
)
from repairkit.syntax import SourceFunction

_CODE = ["x = 1;", "return y;", "}", "if (a) {", "// c", "f(x)"]
_LINE = st.one_of(
    st.just(""),
    st.text(" \t", min_size=1, max_size=3),
    st.builds(operator.add, st.text(" \t", max_size=4), st.sampled_from(_CODE)),
)
_LINES = st.lists(_LINE, min_size=1, max_size=12)
_FUNCTION = _LINES.map(lambda lines: SourceFunction.from_text("\n".join(lines)))
_MARKERS = st.sampled_from([DEFAULT_MARKERS, Markers("??", "/*<", ">*/", "/*!*/", "# ")])


@st.composite
def _function_and_region(draw):
    """A function of 1-12 lines and a region. Three in four regions are
    ones `Region.validate` accepts; the rest start at 0 or past the end,
    end past the last line, or end before start - 1."""
    fn = draw(_FUNCTION)
    n = fn.line_count
    start = draw(st.integers(1, n + 1))
    end = draw(st.integers(start - 1, n))
    if draw(st.integers(0, 3)) == 0:
        start, end = draw(st.sampled_from([(0, end), (n + 2, n), (start, n + 1), (start, start - 2)]))
    return fn, Region(start, end)


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _fn(*lines):
    return SourceFunction.from_text("\n".join(lines))


# The marker indent falls back to the line before the region when the
# region and the lines after it are blank, and to "" when every line is.
BEFORE_FALLBACK = (_fn("  a", "", " \t"), Region(2, 3))
EMPTY_FALLBACK = (_fn("", " ", "\t"), Region(2, 2))


@pytest.mark.parametrize(
    "case, indent", [(BEFORE_FALLBACK, "  "), (EMPTY_FALLBACK, "")], ids=["before", "none"]
)
def test_marker_indent_fallbacks(case, indent):
    fn, region = case
    rendered = build_input(fn, region, InputKind.IR3)
    assert indent + DEFAULT_MARKERS.fill_token in rendered.split("\n")
    assert rendered == oracle_build_input(fn, region, InputKind.IR3)


@settings(max_examples=400, deadline=None)
@given(_function_and_region(), st.sampled_from(list(InputKind)), _MARKERS)
@example(BEFORE_FALLBACK, InputKind.IR2, DEFAULT_MARKERS)
@example(EMPTY_FALLBACK, InputKind.IR4, DEFAULT_MARKERS)
@example((_fn("a", "  b"), Region(2, 1)), InputKind.IR4, DEFAULT_MARKERS)  # empty region
def test_build_input_matches_oracle(case, kind, markers):
    fn, region = case
    assert _outcome(build_input, fn, region, kind, markers) == _outcome(
        oracle_build_input, fn, region, kind, markers
    )


@settings(max_examples=300, deadline=None)
@given(_function_and_region(), _LINES, st.booleans())
def test_fixed_region_lines_matches_oracle(case, chunk, splice):
    """The fixed side is the buggy function with its region replaced, which
    fits, or unrelated lines, which mostly do not."""
    buggy, region = case
    lines = buggy.lines
    if splice:
        lines = lines[: max(region.start_line - 1, 0)] + chunk + lines[max(region.end_line, 0) :]
    fixed = SourceFunction.from_text("\n".join(lines if splice else chunk))
    assert _outcome(fixed_region_lines, buggy, fixed, region) == _outcome(
        oracle_fixed_region_lines, buggy, fixed, region
    )


@settings(max_examples=300, deadline=None)
@given(
    _function_and_region(),
    st.lists(_LINE, max_size=4).map("\n".join),
    st.sampled_from([InputKind.IR2, InputKind.IR3, InputKind.IR4]),
)
def test_or2_reconstruction_matches_oracle(case, chunk, kind):
    fn, region = case
    pair = ReprPair(kind, OutputKind.OR2)
    assert _outcome(reconstruct, fn, region, pair, chunk) == _outcome(
        oracle_reconstruct_or2, fn, region, clean_model_output(chunk)
    )


_TEXT = st.builds(
    operator.add,
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "", " f"]), max_size=14).map("\n".join),
    st.sampled_from(["", "\n"]),
)


def _rows(hunks):
    return [(h.old_start, h.old_len, h.new_start, h.new_len, h.lines) for h in hunks]


@settings(max_examples=300, deadline=None)
@given(_TEXT, _TEXT, st.integers(0, 3))
def test_make_unified_diff_matches_oracle(a, b, context):
    diff, hunks = make_unified_diff(a, b, context), oracle_make_unified_diff(a, b, context)
    assert _rows(diff.hunks) == _rows(hunks)
    assert diff.render() == oracle_render(hunks)


def _index(draw, lines):
    return draw(st.integers(0, len(lines) - 1))


def _drop(draw, lines):
    if lines:
        del lines[_index(draw, lines)]


def _duplicate(draw, lines):
    if lines:
        k = _index(draw, lines)
        lines.insert(k, lines[k])


def _retag(draw, lines):
    if lines:
        k = _index(draw, lines)
        lines[k] = draw(st.sampled_from(" -+x")) + lines[k][1:]


def _move_count(draw, lines):
    headers = [k for k, line in enumerate(lines) if _HUNK_RE.match(line)]
    if headers:
        k = draw(st.sampled_from(headers))
        counts = [int(g) if g is not None else 1 for g in _HUNK_RE.match(lines[k]).groups()]
        side = draw(st.sampled_from([0, 1, 3]))  # the old start, for fuzz to find, or a length
        counts[side] = max(0, counts[side] + draw(st.sampled_from([-1, 1])))
        lines[k] = "@@ -{},{} +{},{} @@".format(*counts)


def _marker(draw, lines):
    lines.insert(draw(st.integers(0, len(lines))), _NO_NEWLINE)


def _double_marker(draw, lines):
    markers = [k for k, line in enumerate(lines) if line == _NO_NEWLINE]
    if markers:
        lines.insert(draw(st.sampled_from(markers)), _NO_NEWLINE)


def _swap_hunks(draw, lines):
    starts = [k for k, line in enumerate(lines) if line.startswith("@@")]
    if len(starts) >= 2:
        bounds = starts + [len(lines)]
        blocks = [lines[s:e] for s, e in zip(bounds, bounds[1:])]
        i, j = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=2, max_size=2, unique=True))
        blocks[i], blocks[j] = blocks[j], blocks[i]
        lines[starts[0] :] = [line for block in blocks for line in block]


_MUTATIONS = [_drop, _duplicate, _retag, _move_count, _marker, _double_marker, _swap_hunks]


@st.composite
def _mutated_diff(draw):
    """A text, and a rendered diff of it against another text, mutated
    zero to three times."""
    a, b = draw(_TEXT), draw(_TEXT)
    lines = make_unified_diff(a, b, draw(st.integers(0, 3))).render().split("\n")
    for mutate in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        mutate(draw, lines)
    return a, "\n".join(lines)


MISCOUNTED_AND_OUT_OF_ORDER = "@@ -5 +5 @@\n-a\n+b\n@@ -1 +1,2 @@\n-c\n-f\n+d\n+e\n"
SECOND_MARKER = f"@@ -1 +1 @@\n-a\n+b\n{_NO_NEWLINE}\n{_NO_NEWLINE}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (MISCOUNTED_AND_OUT_OF_ORDER, "hunk body (2/2 lines) does not match header (-1,1 +1,2)"),
        (SECOND_MARKER, f"expected hunk header, got {_NO_NEWLINE!r}"),
    ],
    ids=["miscounted-and-out-of-order", "second-marker"],
)
def test_input_broken_two_ways_raises_what_it_raised(text, message):
    assert _outcome(UnifiedDiff.parse, text) == _outcome(oracle_parse, text)
    with pytest.raises(MalformedOutput, match=re.escape(message)):
        UnifiedDiff.parse(text)


@settings(max_examples=600, deadline=None)
@given(_mutated_diff(), st.integers(0, 3))
@example(("a\n", MISCOUNTED_AND_OUT_OF_ORDER), 0)
@example(("a\n", SECOND_MARKER), 0)
@example(("a\nb\nc\n", "@@ -3 +3 @@\n-c\n+C\n@@ -1 +1 @@\n-a\n+A\n"), 0)  # swapped
def test_parse_and_apply_match_oracle(case, fuzz):
    a, text = case
    new, old = _outcome(UnifiedDiff.parse, text), _outcome(oracle_parse, text)
    if new[0] != "ok" or old[0] != "ok":
        assert new == old
        return
    assert _rows(new[1].hunks) == _rows(old[1])
    assert new[1].render() == oracle_render(old[1])
    assert _outcome(apply_diff, new[1], a, fuzz) == _outcome(oracle_apply_diff, old[1], a, fuzz)


# --------------------------------------------------------------------------
# reconstruct, with the cut and the diffed lines kept, against a fresh preparation

_PAIRS = sorted(VALID_PAIRS, key=str)
_EVERY_PAIR = [ReprPair(i, o) for i in InputKind for o in OutputKind]
_STOPS = [DEFAULT_STOP_TOKENS, ("x =",), ()]


@st.composite
def _reconstruct_calls(draw):
    """One to twelve `reconstruct` calls that switch between two functions
    at random, as bugs run by two workers interleave. A call has a valid
    pair, or now and then any pair, and a raw output: a chunk for OR1 and
    OR2, a diff against another text, mutated up to twice, for OR3 and OR4,
    and a stop token and text after it now and then; and stop tokens."""
    cases = [draw(_function_and_region()) for _ in range(2)]
    if draw(st.booleans()):  # the one function with two regions
        cases[1] = (cases[0][0], cases[1][1])
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        fn, region = draw(st.sampled_from(cases))
        pair = draw(st.one_of(st.sampled_from(_PAIRS), st.sampled_from(_EVERY_PAIR)))
        if pair.output in (OutputKind.OR3, OutputKind.OR4):
            other = "\n".join(draw(_LINES))
            context = 3 if pair.output is OutputKind.OR3 else 1
            lines = make_unified_diff(fn.text, other, context).render().split("\n")
            for mutate in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2)):
                mutate(draw, lines)
            raw = "\n".join(lines)
        else:
            raw = "\n".join(draw(st.lists(_LINE, max_size=4)))
        raw += draw(st.sampled_from(["", "</s>\nx = 1;"]))
        calls.append((fn, region, pair, raw, draw(st.sampled_from(_STOPS))))
    return calls


def _clear_memos():
    representations._cut.cache_clear()
    diffs._source_lines.cache_clear()


@settings(max_examples=300, deadline=None)
@given(_reconstruct_calls())
def test_memoised_reconstruct_matches_a_fresh_preparation(calls):
    expected = [_outcome(oracle_reconstruct, *call) for call in calls]
    assert [_outcome(reconstruct, *call) for call in calls] == expected  # warm memos
    cold = []
    for call in calls:
        _clear_memos()
        cold.append(_outcome(reconstruct, *call))
    assert cold == expected


def test_a_functions_candidates_share_one_preparation():
    fn = _fn("int f() {", "    return a - b;", "}")
    chunk = ReprPair(InputKind.IR3, OutputKind.OR2)
    diff = ReprPair(InputKind.IR1, OutputKind.OR3)
    _clear_memos()
    texts = [reconstruct(fn, Region(2, 2), chunk, f"    return a + {k};") for k in range(10)]
    assert texts[3] == "int f() {\n    return a + 3;\n}"
    assert representations._cut.cache_info()[:2] == (9, 1)  # hits, misses
    texts = [
        reconstruct(fn, Region(2, 2), diff, f"@@ -2 +2 @@\n-    return a - b;\n+    return a + {k};")
        for k in range(10)
    ]
    assert texts[3] == "int f() {\n    return a + 3;\n}"
    assert diffs._source_lines.cache_info()[:2] == (9, 1)


@pytest.mark.parametrize(
    "region, pair, error, message",
    [
        (Region(2, 2), ReprPair(InputKind.IR1, OutputKind.OR2), ValueError,
         "invalid representation pair: IR1xOR2"),
        (Region(2, 5), ReprPair(InputKind.IR3, OutputKind.OR2), InvalidRegion,
         "region end 5 beyond function line count 3"),
    ],
    ids=["pair", "region"],
)
def test_a_bad_pair_or_region_raises_on_every_candidate(region, pair, error, message):
    fn = _fn("int f() {", "    return a - b;", "}")
    for k in range(3):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            reconstruct(fn, region, pair, f"    return a + {k};")
