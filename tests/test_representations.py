"""Input/output representations, pairing rules, and reconstruction."""
import pytest

from repairkit.corpus import derive_region
from repairkit.errors import (
    HunkApplyFailure,
    InvalidRegion,
    MalformedOutput,
    RegionMismatch,
)
from repairkit.representations import (
    DEFAULT_MARKERS,
    VALID_PAIRS,
    InputKind,
    Markers,
    OutputKind,
    Region,
    ReprPair,
    build_input,
    build_output,
    clean_model_output,
    enumerate_regions,
    reconstruct,
    valid_pair,
)
from repairkit.syntax import SourceFunction

# The infilling walkthrough example: a one-line suspicious region inside a
# six-line predicate helper. Rendering expectations below are byte-exact.
BUGGY = SourceFunction.from_text(
    "static boolean mayBeString(Node n, boolean recurse) {\n"
    "  if (recurse) {\n"
    "    return allResultsMatch(n, MAY_BE_STRING_PREDICATE);\n"
    "  } else {\n"
    "    return mayBeStringHelper(n);\n"
    "  }\n"
    "}",
    "mayBeString",
)
FIXED = SourceFunction.from_text(
    BUGGY.text.replace("allResultsMatch", "anyResultsMatch"), "mayBeString"
)
REGION = Region(3, 3)


class TestValidPair:
    def test_exactly_six_of_sixteen(self):
        matrix = {ReprPair(i, o): valid_pair(ReprPair(i, o)) for i in InputKind for o in OutputKind}
        assert sum(matrix.values()) == 6
        assert {p for p, ok in matrix.items() if ok} == VALID_PAIRS

    @pytest.mark.parametrize("tag", ["IR1xOR1", "IR1xOR3", "IR1xOR4", "IR2xOR2", "IR3xOR2", "IR4xOR2"])
    def test_valid(self, tag):
        assert valid_pair(ReprPair.parse(tag))

    @pytest.mark.parametrize("tag", ["IR1xOR2", "IR2xOR1", "IR3xOR3", "IR4xOR4"])
    def test_invalid(self, tag):
        assert not valid_pair(ReprPair.parse(tag))

    def test_tag_round_trip(self):
        assert str(ReprPair.parse("IR4xOR2")) == "IR4xOR2"
        with pytest.raises(ValueError):
            ReprPair.parse("IR9xOR2")


class TestRegion:
    def test_enumeration_counts(self):
        fn = SourceFunction.from_text("a\nb\nc\nd", "f")
        regions = enumerate_regions(fn)
        assert len(regions) == 10  # n(n+1)/2 for n=4
        assert regions == sorted(regions, key=lambda r: (r.start_line, r.end_line))
        assert all(r.end_line >= r.start_line for r in regions)

    def test_single_line_function(self):
        assert len(enumerate_regions(SourceFunction.from_text("x;", "f"))) == 1

    def test_validation(self):
        Region(1, 1).validate(1)
        Region(2, 1).validate(1)  # insertion point after the last line
        with pytest.raises(InvalidRegion):
            Region(0, 1).validate(3)
        with pytest.raises(InvalidRegion):
            Region(2, 4).validate(3)
        with pytest.raises(InvalidRegion):
            Region(3, 1).validate(3)


class TestBuildInput:
    def test_ir1_is_identity(self):
        assert build_input(BUGGY, REGION, InputKind.IR1) == BUGGY.text

    def test_ir2_fences_the_region(self):
        expected = (
            "static boolean mayBeString(Node n, boolean recurse) {\n"
            "  if (recurse) {\n"
            "    // buggy code starts here\n"
            "    return allResultsMatch(n, MAY_BE_STRING_PREDICATE);\n"
            "    // buggy code ends here\n"
            "  } else {\n"
            "    return mayBeStringHelper(n);\n"
            "  }\n"
            "}"
        )
        assert build_input(BUGGY, REGION, InputKind.IR2) == expected

    def test_ir3_masks_the_region(self):
        expected = (
            "static boolean mayBeString(Node n, boolean recurse) {\n"
            "  if (recurse) {\n"
            "    <FILL_ME>\n"
            "  } else {\n"
            "    return mayBeStringHelper(n);\n"
            "  }\n"
            "}"
        )
        assert build_input(BUGGY, REGION, InputKind.IR3) == expected

    def test_ir4_keeps_buggy_lines_as_comments(self):
        expected = (
            "static boolean mayBeString(Node n, boolean recurse) {\n"
            "  if (recurse) {\n"
            "    // buggy code\n"
            "    // return allResultsMatch(n, MAY_BE_STRING_PREDICATE);\n"
            "    <FILL_ME>\n"
            "  } else {\n"
            "    return mayBeStringHelper(n);\n"
            "  }\n"
            "}"
        )
        assert build_input(BUGGY, REGION, InputKind.IR4) == expected

    def test_three_line_region_replaced_by_single_fill_line(self):
        fn = SourceFunction.from_text(
            "void f() {\n    a();\n    b();\n    c();\n    d();\n}", "f"
        )
        rendered = build_input(fn, Region(2, 4), InputKind.IR3)
        assert rendered == "void f() {\n    <FILL_ME>\n    d();\n}"
        assert rendered.count(DEFAULT_MARKERS.fill_token) == 1

    def test_empty_region_ir4_omits_header(self):
        # Pinned: insertion points re-emit no buggy lines and no header.
        fn = SourceFunction.from_text("a();\nb();\nc();\nd();", "f")
        empty = Region(3, 2)
        assert build_input(fn, empty, InputKind.IR4) == "a();\nb();\n<FILL_ME>\nc();\nd();"
        assert build_input(fn, empty, InputKind.IR4) == build_input(fn, empty, InputKind.IR3)

    def test_empty_region_ir2_adjacent_comments(self):
        fn = SourceFunction.from_text("a();\nb();", "f")
        rendered = build_input(fn, Region(2, 1), InputKind.IR2)
        assert rendered == (
            "a();\n// buggy code starts here\n// buggy code ends here\nb();"
        )

    def test_empty_region_indent_comes_from_following_line(self):
        fn = SourceFunction.from_text("void f() {\n        deep();\n}", "f")
        rendered = build_input(fn, Region(2, 1), InputKind.IR3)
        assert rendered.split("\n")[1] == "        <FILL_ME>"

    def test_invalid_region_raises(self):
        with pytest.raises(InvalidRegion):
            build_input(BUGGY, Region(2, 99), InputKind.IR3)

    def test_region_ignored_for_ir1(self):
        assert build_input(BUGGY, Region(2, 99), InputKind.IR1) == BUGGY.text

    def test_custom_markers(self):
        markers = Markers(fill_token="<MASK>", comment_prefix="//~ ",
                          buggy_header="//~ was:")
        rendered = build_input(BUGGY, REGION, InputKind.IR4, markers)
        assert "<MASK>" in rendered and "<FILL_ME>" not in rendered
        assert "//~ was:" in rendered

    def test_marker_invariants_across_kinds(self):
        fill = DEFAULT_MARKERS.fill_token
        ir1 = build_input(BUGGY, REGION, InputKind.IR1)
        ir2 = build_input(BUGGY, REGION, InputKind.IR2)
        ir3 = build_input(BUGGY, REGION, InputKind.IR3)
        ir4 = build_input(BUGGY, REGION, InputKind.IR4)
        assert fill not in ir1 and fill not in ir2
        assert ir3.count(fill) == 1 and ir4.count(fill) == 1
        # Dropping the two fence lines from IR2 reproduces IR1.
        fences = (DEFAULT_MARKERS.start_comment, DEFAULT_MARKERS.end_comment)
        stripped = "\n".join(
            line for line in ir2.split("\n") if line.strip() not in fences
        )
        assert stripped == ir1
        # Dropping the header and commented lines from IR4 reproduces IR3.
        prefix = DEFAULT_MARKERS.comment_prefix.rstrip()
        reduced = "\n".join(
            line for line in ir4.split("\n") if not line.lstrip().startswith(prefix)
        )
        assert reduced == ir3


class TestBuildOutput:
    def test_or1_is_fixed_function(self):
        assert build_output(BUGGY, FIXED, REGION, OutputKind.OR1) == FIXED.text

    def test_or2_is_fixed_counterpart_of_region(self):
        assert build_output(BUGGY, FIXED, REGION, OutputKind.OR2) == (
            "    return anyResultsMatch(n, MAY_BE_STRING_PREDICATE);"
        )

    def test_identical_pair_or2_echoes_region_or3_empty(self):
        same = SourceFunction.from_text(BUGGY.text, "mayBeString")
        assert build_output(BUGGY, same, REGION, OutputKind.OR2) == BUGGY.lines[2]
        assert build_output(BUGGY, same, REGION, OutputKind.OR3) == ""

    def test_or2_rejects_changes_outside_region(self):
        with pytest.raises(RegionMismatch):
            build_output(BUGGY, FIXED, Region(5, 5), OutputKind.OR2)

    def test_or2_multi_location_chunk_spans_sites(self):
        # Two edit sites in one region produce one chunk covering both
        # plus the unchanged lines between them: 6 fixed lines out.
        buggy = SourceFunction.from_text(
            "int f() {\n    a1();\n    m1();\n    m2();\n    m3();\n    m4();\n    b1();\n}",
            "f",
        )
        fixed = SourceFunction.from_text(
            buggy.text.replace("a1()", "a2()").replace("b1()", "b2()"), "f"
        )
        chunk = build_output(buggy, fixed, Region(2, 7), OutputKind.OR2)
        assert chunk.split("\n") == [
            "    a2();",
            "    m1();",
            "    m2();",
            "    m3();",
            "    m4();",
            "    b2();",
        ]

    def test_or3_or4_context_windows(self):
        or3 = build_output(BUGGY, FIXED, REGION, OutputKind.OR3)
        or4 = build_output(BUGGY, FIXED, REGION, OutputKind.OR4)
        assert or3.startswith("@@ -1,6 +1,6 @@\n")
        assert or4.startswith("@@ -2,3 +2,3 @@\n")
        assert len(or4.split("\n")) < len(or3.split("\n"))


class TestCleanModelOutput:
    def test_stop_token_truncation(self):
        assert clean_model_output("return x;\n</s>garbage") == "return x;"
        assert clean_model_output("return x;<EOT>tail", ("<EOT>",)) == "return x;"

    def test_earliest_stop_token_wins(self):
        assert clean_model_output("a<EOT>b</s>c") == "a"

    def test_leading_indentation_preserved(self):
        assert clean_model_output("    return x;\n") == "    return x;"


class TestReconstruct:
    def test_or2_round_trip(self):
        chunk = build_output(BUGGY, FIXED, REGION, OutputKind.OR2)
        pair = ReprPair.parse("IR3xOR2")
        assert reconstruct(BUGGY, REGION, pair, chunk) == FIXED.text

    def test_or1_noop_candidate_is_kept(self):
        pair = ReprPair.parse("IR1xOR1")
        assert reconstruct(BUGGY, REGION, pair, BUGGY.text) == BUGGY.text

    def test_or3_garbage_is_malformed(self):
        with pytest.raises(MalformedOutput):
            reconstruct(BUGGY, REGION, ReprPair.parse("IR1xOR3"), "total garbage")

    def test_or3_stop_token_residue_stripped(self):
        diff = build_output(BUGGY, FIXED, REGION, OutputKind.OR3)
        out = reconstruct(BUGGY, REGION, ReprPair.parse("IR1xOR3"), diff + "</s>")
        assert out == FIXED.text

    def test_or2_empty_output_deletes_region(self):
        buggy = SourceFunction.from_text("a();\nkill();\nb();", "f")
        pair = ReprPair.parse("IR3xOR2")
        assert reconstruct(buggy, Region(2, 2), pair, "") == "a();\nb();"

    def test_or3_misplaced_hunk_applies_with_fuzz(self):
        fixed_text = BUGGY.text.replace("mayBeStringHelper", "repairedHelper")
        diff = build_output(BUGGY, SourceFunction.from_text(fixed_text, "x"), REGION, OutputKind.OR4)
        shifted = "\n".join(["// banner", "// banner"] + BUGGY.lines)
        shifted_fn = SourceFunction.from_text(shifted, "x")
        out = reconstruct(shifted_fn, REGION, ReprPair.parse("IR1xOR4"), diff)
        assert out.endswith(fixed_text)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(BUGGY, REGION, ReprPair.parse("IR1xOR2"), "x")

    def test_hunk_apply_failure_surfaces(self):
        diff = "@@ -1,1 +1,1 @@\n-not in here\n+replacement\n"
        with pytest.raises(HunkApplyFailure):
            reconstruct(BUGGY, REGION, ReprPair.parse("IR1xOR3"), diff)


# Java takes `\f` as whitespace and allows the others in comments and
# strings; a diff counts lines at "\n" only, as a `Region` does.
@pytest.mark.parametrize(
    "separator", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_diffs_count_lines_at_newline_only(separator):
    buggy = SourceFunction.from_text(
        f"void f() {{\n    int x = 1;{separator} // page\n    int y = 2;\n    return;\n}}", "f"
    )
    fixed = SourceFunction.from_text(buggy.text.replace("2", "3"), "f")
    region = derive_region(buggy, fixed)
    assert region == Region(3, 3) and len(buggy.lines) == 5
    or3 = build_output(buggy, fixed, region, OutputKind.OR3)
    or4 = build_output(buggy, fixed, region, OutputKind.OR4)
    assert or3.startswith("@@ -1,5 +1,5 @@\n") and or3.count("No newline") == 1
    assert or4.startswith("@@ -2,3 +2,3 @@\n") and "No newline" not in or4
    for tag, output in (("IR1xOR3", or3), ("IR1xOR4", or4)):
        assert reconstruct(buggy, region, ReprPair.parse(tag), output) == fixed.text


class TestRoundTripCorpus:
    def test_all_pairs_reproduce_fixed_byte_exactly(self, roundtrip_triples):
        pairs = sorted(VALID_PAIRS, key=str)
        for triple in roundtrip_triples:
            for pair in pairs:
                output = build_output(
                    triple.buggy, triple.fixed, triple.region, pair.output
                )
                rebuilt = reconstruct(triple.buggy, triple.region, pair, output)
                assert rebuilt == triple.fixed.text, (pair, triple.buggy.text)

    def test_corpus_shape(self, roundtrip_triples):
        assert len(roundtrip_triples) >= 50
        assert sum(1 for t in roundtrip_triples if t.multi_location_gap >= 10) >= 5

    def test_insertion_at_function_end(self):
        buggy = SourceFunction.from_text("a();\nb();", "f")
        fixed = SourceFunction.from_text("a();\nb();\nc();", "f")
        region = Region(3, 2)  # empty span after the last line
        for tag in ("IR2xOR2", "IR3xOR2", "IR4xOR2", "IR1xOR3"):
            pair = ReprPair.parse(tag)
            output = build_output(buggy, fixed, region, pair.output)
            assert reconstruct(buggy, region, pair, output) == fixed.text
