"""Corpus ingestion, dedup, leakage exclusion, and dataset emission."""
import json
import logging
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit import corpus, syntax

from repairkit.corpus import (
    CorpusFilterConfig,
    PipelineStats,
    TrainingConfig,
    build_dataset,
    count_tokens,
    dedupe,
    derive_region,
    emit_dataset,
    exclude_leakage,
    export_training_config,
    function_pairs_from_files,
    ingest_diff_corpus,
    load_dataset,
    register_tokenizer,
    render_training_config,
)
from repairkit.errors import CorpusLayoutError, MixedPairDataset, ParseError, UnknownTokenizer
from repairkit.representations import Region, ReprPair, reconstruct
from repairkit.syntax import SourceFile, SourceFunction, extract_functions

from conftest import CORPUS_EXPECTED
from test_parse_golden import SOURCES as GOLDEN_SOURCES


def _fn(text: str) -> SourceFunction:
    return SourceFunction.from_text(text, "f")


class TestDeriveRegion:
    def test_single_line_change(self):
        buggy = _fn("\n".join(f"l{i}" for i in range(1, 11)))
        fixed = _fn(buggy.text.replace("l7", "changed"))
        assert derive_region(buggy, fixed) == Region(7, 7)

    def test_minimal_cover_of_two_sites(self):
        buggy = _fn("\n".join(f"l{i}" for i in range(1, 11)))
        fixed = _fn(buggy.text.replace("l3", "c3").replace("l9", "c9"))
        assert derive_region(buggy, fixed) == Region(3, 9)

    def test_pure_insertion_is_empty_span(self):
        buggy = _fn("a\nb\nc\nd\ne\nf")
        fixed = _fn("a\nb\nc\nd\nNEW\ne\nf")
        region = derive_region(buggy, fixed)
        assert region == Region(5, 4)
        assert region.is_empty

    def test_identical_functions_rejected(self):
        with pytest.raises(ValueError):
            derive_region(_fn("same"), _fn("same"))


class TestSingleFunctionFilter:
    def test_one_changed_function_yields_one_pair(self):
        before = SourceFile("X.java", "class X {\n    int f() {\n        return 1;\n    }\n}\n")
        after = SourceFile("X.java", "class X {\n    int f() {\n        return 2;\n    }\n}\n")
        pairs = function_pairs_from_files(before, after, "p1")
        assert len(pairs) == 1
        assert pairs[0].region == Region(2, 2)
        assert pairs[0].buggy.name == "f"

    def test_two_changed_functions_yield_two(self):
        src = "class X {\n    int f() {\n        return 1;\n    }\n    int g() {\n        return 3;\n    }\n}\n"
        after = src.replace("return 1", "return 2").replace("return 3", "return 4")
        pairs = function_pairs_from_files(SourceFile("X.java", src), SourceFile("X.java", after), "p")
        assert len(pairs) == 2  # the ingest stage rejects multi-function units

    def test_change_outside_function_yields_none(self):
        src = "class X {\n    static int N = 1;\n    int f() {\n        return N;\n    }\n}\n"
        after = src.replace("N = 1", "N = 2")
        assert function_pairs_from_files(SourceFile("X.java", src), SourceFile("X.java", after), "p") == []


class TestIngest:
    def test_tree_layout_counts(self, diff_corpus):
        stats = PipelineStats()
        pairs = list(ingest_diff_corpus(diff_corpus, stats))
        assert stats.units == CORPUS_EXPECTED["units"]
        assert stats.parse_failures == CORPUS_EXPECTED["parse_failures"]
        assert stats.not_single_function == CORPUS_EXPECTED["not_single_function"]
        assert len(pairs) == stats.ingested == CORPUS_EXPECTED["ingested"]
        assert all(pair.buggy.text != pair.fixed.text for pair in pairs)

    def test_diff_file_layout(self, tmp_path):
        root = tmp_path / "mega"
        (root / "before").mkdir(parents=True)
        (root / "after").mkdir()
        before = "class D {\n    int f() {\n        return 1;\n    }\n}\n"
        after = before.replace("return 1", "return 2")
        (root / "before" / "D.java").write_text(before)
        (root / "after" / "D.java").write_text(after)
        (root / "sample-1.diff").write_text(
            "--- a/D.java\n+++ b/D.java\n@@ -3,1 +3,1 @@\n-        return 1;\n+        return 2;\n"
        )
        pairs = list(ingest_diff_corpus(root))
        assert [p.provenance for p in pairs] == ["sample-1"]
        assert pairs[0].id == "sample-1:f"

    def test_multifile_diff_with_out_of_function_edit_rejected(self, tmp_path):
        # One file has a clean single-function fix, but the same diff also
        # touches a field in another file: not a single-function change.
        root = tmp_path / "mega"
        (root / "before").mkdir(parents=True)
        (root / "after").mkdir()
        fn_before = "class A {\n    int f() {\n        return 1;\n    }\n}\n"
        (root / "before" / "A.java").write_text(fn_before)
        (root / "after" / "A.java").write_text(fn_before.replace("return 1", "return 2"))
        field_before = "class B {\n    static int N = 1;\n}\n"
        (root / "before" / "B.java").write_text(field_before)
        (root / "after" / "B.java").write_text(field_before.replace("N = 1", "N = 2"))
        (root / "mixed.diff").write_text(
            "--- a/A.java\n+++ b/A.java\n@@ -3,1 +3,1 @@\n-        return 1;\n+        return 2;\n"
            "--- a/B.java\n+++ b/B.java\n@@ -2,1 +2,1 @@\n-    static int N = 1;\n+    static int N = 2;\n"
        )
        assert list(ingest_diff_corpus(root)) == []

    def test_multifile_diff_with_untouched_second_file_kept(self, tmp_path):
        root = tmp_path / "mega"
        (root / "before").mkdir(parents=True)
        (root / "after").mkdir()
        fn_before = "class A {\n    int f() {\n        return 1;\n    }\n}\n"
        (root / "before" / "A.java").write_text(fn_before)
        (root / "after" / "A.java").write_text(fn_before.replace("return 1", "return 2"))
        same = "class B {\n    static int N = 1;\n}\n"
        (root / "before" / "B.java").write_text(same)
        (root / "after" / "B.java").write_text(same)
        (root / "touch.diff").write_text(
            "--- a/A.java\n+++ b/A.java\n@@ -3,1 +3,1 @@\n-        return 1;\n+        return 2;\n"
            "--- a/B.java\n+++ b/B.java\n"
        )
        assert len(list(ingest_diff_corpus(root))) == 1

    @pytest.mark.parametrize(
        "header,before,after",
        [
            ("--- /dev/null\n+++ b/N.java\n", None, "class N {}\n"),
            ("--- a/N.java\n+++ /dev/null\n", "class N {}\n", None),
        ],
        ids=["added", "deleted"],
    )
    def test_added_or_deleted_file_is_not_single_function(
        self, tmp_path, caplog, header, before, after
    ):
        root = tmp_path / "mega"
        (root / "before").mkdir(parents=True)
        (root / "after").mkdir()
        fn_before = "class A {\n    int f() {\n        return 1;\n    }\n}\n"
        (root / "before" / "A.java").write_text(fn_before)
        (root / "after" / "A.java").write_text(fn_before.replace("return 1", "return 2"))
        if before is not None:
            (root / "before" / "N.java").write_text(before)
        if after is not None:
            (root / "after" / "N.java").write_text(after)
        (root / "u1.diff").write_text(
            "--- a/A.java\n+++ b/A.java\n@@ -3,1 +3,1 @@\n-        return 1;\n+        return 2;\n"
            + header
        )
        stats = PipelineStats()
        with caplog.at_level(logging.WARNING, logger="repairkit.corpus"):
            assert list(ingest_diff_corpus(root, stats)) == []
        assert (stats.units, stats.parse_failures, stats.not_single_function) == (1, 0, 1)
        assert caplog.records == []

    def test_named_missing_file_is_an_io_failure(self, tmp_path, caplog):
        root = tmp_path / "mega"
        (root / "before").mkdir(parents=True)
        (root / "after").mkdir()
        (root / "before" / "M.java").write_text("class M {}\n")
        (root / "u1.diff").write_text("--- a/M.java\n+++ b/M.java\n")
        stats = PipelineStats()
        with caplog.at_level(logging.WARNING, logger="repairkit.corpus"):
            assert list(ingest_diff_corpus(root, stats)) == []
        assert (stats.parse_failures, stats.not_single_function) == (1, 0)
        assert "No such file" in caplog.text

    def test_suffix_pair_layout(self, tmp_path):
        root = tmp_path / "pairs"
        root.mkdir()
        (root / "s1_before.java").write_text("int f() {\n    return 1;\n}\n")
        (root / "s1_after.java").write_text("int f() {\n    return 9;\n}\n")
        pairs = list(ingest_diff_corpus(root))
        assert len(pairs) == 1

    def test_unrecognized_layout(self, tmp_path):
        (tmp_path / "README.txt").write_text("nothing here")
        with pytest.raises(CorpusLayoutError):
            list(ingest_diff_corpus(tmp_path))


# --------------------------------------------------------------------------
# parsing the after file only where it changed, against parsing it whole

def _outcome(call):
    """The comparable result of a call: its pairs, or the error it raised."""
    try:
        pairs = call()
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))
    return [(p.id, p.buggy, p.fixed, p.region) for p in pairs]


def _whole(before: SourceFile, after: SourceFile):
    return extract_functions(before), extract_functions(after)


def _both_paths(before_text: str, after_text: str):
    """(path taken, result, result with the after file parsed whole).

    The path is "fast" when the after file was parsed only where it
    changed, "fallback" when it was parsed whole, and "none" when neither
    (equal texts, or a before file that does not parse).
    """
    before, after = SourceFile("X.java", before_text), SourceFile("X.java", after_text)
    with mock.patch.object(syntax, "extract_functions", wraps=extract_functions) as whole:
        result = _outcome(lambda: function_pairs_from_files(before, after, "p"))
    with mock.patch.object(corpus, "extract_functions_of_edit", _whole):
        reference = _outcome(lambda: function_pairs_from_files(before, after, "p"))
    if whole.call_count:
        path = "fallback"
    elif isinstance(result, list) and before_text != after_text:
        path = "fast"
    else:
        path = "none"
    return path, result, reference


_BASE = (
    "class X {\n"
    "    int f(int a) {\n"
    "        return a + 1;\n"
    "    }\n"
    "\n"
    "    int g(int b) {\n"
    "        return b * 2;\n"
    "    }\n"
    "}\n"
)

# (before, after, path): each pins one side of the fast path's boundary.
_BOUNDARY = {
    "body_edit": (_BASE, _BASE.replace("a + 1", "a + 2"), "fast"),
    "signature_edit": (_BASE, _BASE.replace("int f(int a)", "long f(long a)"), "fast"),
    "insertion_inside": (
        _BASE,
        _BASE.replace("        return a + 1;\n", "        a++;\n        return a + 1;\n"),
        "fast",
    ),
    "deletion_inside": (
        _BASE.replace("        return b * 2;\n", "        b++;\n        return b * 2;\n"),
        _BASE,
        "fast",
    ),
    "annotated_method": (
        _BASE.replace("    int f(", "    @Override\n    @SuppressWarnings(\"x\")\n    int f("),
        _BASE.replace("    int f(", "    @Override\n    @SuppressWarnings(\"x\")\n    int f(").replace(
            "a + 1", "a - 1"
        ),
        "fast",
    ),
    "two_functions": (_BASE, _BASE.replace("a + 1", "a + 2").replace("b * 2", "b * 3"), "fallback"),
    "comment_between_functions": (
        _BASE.replace("\n\n", "\n    // between\n"),
        _BASE.replace("\n\n", "\n    // changed\n"),
        "fallback",
    ),
    "block_comment_closing_on_first_line": (
        _BASE.replace("    int f(", "    /* note\n     */ int f("),
        _BASE.replace("    int f(", "    /* note\n     */ int f(").replace("a + 1", "a + 2"),
        "fallback",
    ),
    "trailing_comment_on_last_line": (
        _BASE.replace("    }\n\n", "    } // end\n\n"),
        _BASE.replace("    }\n\n", "    } // end\n\n").replace("a + 1", "a + 2"),
        "fallback",
    ),
    "next_function_on_last_line": (
        _BASE.replace("    }\n\n    int g(", "    } int g("),
        _BASE.replace("    }\n\n    int g(int b) {\n", "    }\n"),
        "fallback",
    ),
    "synchronized_method": (
        _BASE.replace("    int f(", "    synchronized int f("),
        _BASE.replace("    int f(", "    synchronized int f(").replace("a + 1", "a + 2"),
        "fallback",
    ),
    "insertion_before_function": (
        _BASE,
        _BASE.replace("    int f(", "    @Deprecated\n    int f("),
        "fallback",
    ),
    "insertion_after_function": (
        _BASE,
        _BASE.replace("    }\n\n", "    }\n\n    int h() { return 0; }\n\n"),
        "fallback",
    ),
    "blank_line_between_functions": (_BASE, _BASE.replace("\n\n", "\n\n\n"), "fallback"),
    "unbalanced_braces": (_BASE, _BASE.replace("return a + 1;", "if (a > 0) {"), "fallback"),
}


class TestAfterFileParsedWhereChanged:
    @pytest.mark.parametrize("name", sorted(_BOUNDARY))
    def test_boundary_case_matches_full_parse(self, name):
        before, after, expected_path = _BOUNDARY[name]
        path, result, reference = _both_paths(before, after)
        assert result == reference
        assert path == expected_path

    def test_fast_path_pair(self):
        _, result, _ = _both_paths(*_BOUNDARY["body_edit"][:2])
        [(pair_id, buggy, fixed, region)] = result
        assert pair_id == "p:f"
        assert (fixed.start_line, fixed.end_line) == (2, 4)
        assert fixed.text == "    int f(int a) {\n        return a + 2;\n    }"
        assert region == Region(2, 2)

    def test_unbalanced_after_file_is_a_parse_failure(self, tmp_path):
        before, after, _ = _BOUNDARY["unbalanced_braces"]
        _, result, _ = _both_paths(before, after)
        assert result[0] is ParseError
        root = tmp_path / "trees"
        (root / "before").mkdir(parents=True)
        (root / "after").mkdir()
        (root / "before" / "X.java").write_text(before)
        (root / "after" / "X.java").write_text(after)
        stats = PipelineStats()
        assert list(ingest_diff_corpus(root, stats)) == []
        assert (stats.parse_failures, stats.not_single_function) == (1, 0)

    def test_property_matches_full_parse(self):
        taken: Counter = Counter()

        @settings(max_examples=300, deadline=None, database=None)
        @given(_edited_pairs())
        def check(pair):
            path, result, reference = _both_paths(*pair)
            assert result == reference
            taken[path] += 1

        check()
        assert taken["fast"] and taken["fallback"]


_METHODS = [
    "    int f{n}(int a) {{\n        return a + {n};\n    }}",
    "    @Override\n    public String s{n}() {{\n        return \"{n}\";\n    }}",
    "    synchronized void t{n}() {{\n        count += {n};\n    }}",
    "    /** Doc {n}. */\n    <T> T g{n}(T x) {{\n        if (x == null) {{\n"
    "            return null;\n        }}\n        return x;\n    }}",
    "    X() {{ this({n}); }} // constructor",
    "    void c{n}() {{\n        /* block\n           comment */ run({n});\n    }}",
    "    static final int K{n} = {n};",
    '    String b{n}() {{\n        return """\n            text {n}\n            """;\n    }}',
    "    void a{n}() {{ }} void z{n}() {{ }}",
    "    class In{n} {{\n        void i{n}() {{\n            go({n});\n        }}\n    }}",
]

# Lines an edit may insert, besides lines of the source itself.
_EDIT_LINES = [
    "", "}", "{", "    }", "        return 0;", "        x++; // note", "    /* open", "    */",
    '        String s = """', '        """;', "    synchronized void s() {", "    @Override",
    "    int h() { return 1; }", '        int y = "//".length();', "    void v() {",
    "        // }", "        if (x) {", "package p;", "    ;",
]

# In-line rewrites that mostly keep a line's structure.
_REWRITES = [("+", "-"), ("1", "2"), ("return ", "return -"), ("(", "(1, "), (";", "; y();"), ("a", "b")]


@st.composite
def _generated_class(draw):
    picks = draw(st.lists(st.integers(0, len(_METHODS) - 1), min_size=1, max_size=5))
    members = [_METHODS[k].format(n=n) for n, k in enumerate(picks)]
    return "class X {\n" + "\n\n".join(members) + "\n}\n"


@st.composite
def _edited_pairs(draw):
    """(before, after) from one or two random line edits, in either direction.

    An edit rewrites text inside a line, or replaces, inserts or deletes up
    to three lines.
    """
    source = draw(st.one_of(st.sampled_from(sorted(GOLDEN_SOURCES.values())), _generated_class()))
    lines = source.split("\n")
    for _ in range(draw(st.integers(1, 2))):
        lines = lines or [""]  # the same text, with a line to edit
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["rewrite", "rewrite", "replace", "insert", "delete"]))
        if kind == "rewrite":
            fits = [pair for pair in _REWRITES if pair[0] in lines[at]]
            old, new = draw(st.sampled_from(fits)) if fits else (lines[at], "        y();")
            lines[at] = lines[at].replace(old, new, 1)
            continue
        stop = at if kind == "insert" else draw(st.integers(at + 1, min(len(lines), at + 3)))
        added = [] if kind == "delete" else draw(
            st.lists(st.sampled_from(lines + _EDIT_LINES), min_size=1, max_size=3)
        )
        lines = lines[:at] + added + lines[stop:]
    edited = "\n".join(lines)
    return (source, edited) if draw(st.booleans()) else (edited, source)


class TestDedupe:
    def _pair(self, buggy: str, fixed: str, pid: str):
        from repairkit.corpus import FunctionPair

        b, f = _fn(buggy), _fn(fixed)
        return FunctionPair(pid, b, f, derive_region(b, f), pid)

    def test_identical_pairs_collapse(self):
        pairs = [self._pair("a\nb", "a\nc", "p1"), self._pair("a\nb", "a\nc", "p2")]
        assert [p.id for p in dedupe(pairs)] == ["p1"]

    def test_provenance_is_ignored(self):
        pairs = [self._pair("x", "y", "first"), self._pair("x", "y", "second")]
        assert len(list(dedupe(pairs))) == 1

    def test_trailing_whitespace_insensitive(self):
        pairs = [self._pair("a  \nb", "a  \nc", "p1"), self._pair("a\nb", "a\nc", "p2")]
        assert [p.id for p in dedupe(pairs)] == ["p1"]

    def test_one_character_difference_kept(self):
        pairs = [self._pair("a\nb", "a\nc", "p1"), self._pair("a\nb", "a\nd", "p2")]
        assert len(list(dedupe(pairs))) == 2

    @given(st.lists(st.sampled_from(["a>b", "a>c", "x>y", "x>z"]), max_size=12))
    def test_idempotent(self, specs):
        pairs = [
            self._pair(spec.split(">")[0], spec.split(">")[1], f"p{i}")
            for i, spec in enumerate(specs)
        ]
        once = list(dedupe(pairs))
        assert list(dedupe(once)) == once


class TestExcludeLeakage:
    def _pair(self, fixed_text: str):
        from repairkit.corpus import FunctionPair

        b = _fn(fixed_text.replace("fixme", "bug"))
        f = _fn(fixed_text)
        return FunctionPair("p", b, f, derive_region(b, f), "p")

    def test_empty_denylist_is_identity(self):
        pairs = [self._pair("int f() { fixme(); }")]
        assert list(exclude_leakage(pairs, {})) == pairs

    def test_matching_pair_removed(self):
        patched = "int solve() {\n    fixme();\n}"
        pairs = [self._pair(patched)]
        assert list(exclude_leakage(pairs, {"Math-28": patched})) == []

    def test_non_matching_pair_kept(self):
        pairs = [self._pair("int f() { fixme(); }")]
        kept = list(exclude_leakage(pairs, {"Math-28": "int other() { x(); }"}))
        assert kept == pairs


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_hand_counted_statement(self):
        # "int", " ", "x", ";" under the word/whitespace/punct splitter.
        assert count_tokens("int x;") == 4

    def test_hand_counted_call(self):
        # f ( a , SPACE b ) ; -> 8
        assert count_tokens("f(a, b);") == 8

    def test_whitespace_runs_are_single_tokens(self):
        assert count_tokens("a\n    b") == 3

    def test_unknown_tokenizer(self):
        with pytest.raises(UnknownTokenizer):
            count_tokens("x", "nonexistent")

    def test_registered_tokenizer(self):
        register_tokenizer("chars", len)
        assert count_tokens("abc", "chars") == 3

    def test_external_tokenizer_matches_tool(self, tmp_path):
        # Oracle: the external tool itself (a word counter).
        script = tmp_path / "wc_tokens.py"
        script.write_text("import sys; print(len(sys.stdin.read().split()))")
        import sys

        tokenizer = f"external:{sys.executable} {script}"
        text = "three word tokens"
        assert count_tokens(text, tokenizer) == len(text.split()) == 3


class TestBuildAndEmit:
    def test_over_length_sample_dropped(self):
        from repairkit.corpus import FunctionPair

        big = "\n".join(f"int v{i} = {i};" for i in range(400))
        buggy, fixed = _fn(big), _fn(big.replace("v7 =", "w7 ="))
        pair = FunctionPair("big", buggy, fixed, derive_region(buggy, fixed), "big")
        stats = PipelineStats()
        samples = list(build_dataset([pair], ReprPair.parse("IR3xOR2"), stats=stats))
        assert samples == []
        assert stats.over_length == 1

    def test_ir4_sample_contains_fill_and_commented_lines(self):
        from repairkit.corpus import FunctionPair

        buggy, fixed = _fn("a();\nbug();\nc();"), _fn("a();\nfixed();\nc();")
        pair = FunctionPair("s", buggy, fixed, derive_region(buggy, fixed), "s")
        [sample] = build_dataset([pair], ReprPair.parse("IR4xOR2"))
        assert "<FILL_ME>" in sample.input
        assert "// bug();" in sample.input
        assert sample.output == "fixed()" + ";"
        assert sample.token_count == count_tokens(sample.input) + count_tokens(sample.output)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            list(build_dataset([], ReprPair.parse("IR1xOR2")))

    def test_emitted_samples_reconstruct_to_fixed(self, diff_corpus):
        # Training data must agree with inference-time reconstruction.
        for tag in ("IR2xOR2", "IR3xOR2", "IR4xOR2"):
            pair_kind = ReprPair.parse(tag)
            pairs = {p.id: p for p in dedupe(ingest_diff_corpus(diff_corpus))}
            samples = build_dataset(pairs.values(), pair_kind)
            for sample in samples:
                source = pairs[sample.id]
                rebuilt = reconstruct(source.buggy, source.region, pair_kind, sample.output)
                assert rebuilt == source.fixed.text

    def test_emit_counts_and_determinism(self, tmp_path, diff_corpus):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"

        def run(out: Path) -> int:
            stats = PipelineStats()
            pairs = dedupe(ingest_diff_corpus(diff_corpus, stats), stats)
            samples = build_dataset(pairs, ReprPair.parse("IR4xOR2"), stats=stats)
            return emit_dataset(samples, out)

        count_a, count_b = run(out_a), run(out_b)
        assert count_a == count_b == CORPUS_EXPECTED["emitted"]
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_emit_empty(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert emit_dataset([], out) == 0
        assert out.read_bytes() == b""

    def test_every_emitted_sample_under_cap(self, diff_corpus):
        config = CorpusFilterConfig()
        pairs = dedupe(ingest_diff_corpus(diff_corpus))
        for sample in build_dataset(pairs, ReprPair.parse("IR4xOR2"), config):
            assert sample.token_count < config.max_length

    def test_load_round_trips(self, tmp_path, diff_corpus):
        out = tmp_path / "d.jsonl"
        pairs = dedupe(ingest_diff_corpus(diff_corpus))
        emitted = list(build_dataset(pairs, ReprPair.parse("IR3xOR2")))
        emit_dataset(emitted, out)
        assert load_dataset(out) == emitted


class TestTrainingConfigExport:
    def test_rendering_is_verbatim(self):
        rendered = render_training_config(TrainingConfig())
        assert "learning_rate = 5e-4\n" in rendered
        assert "schedule = cosine\n" in rendered
        assert "epochs = 2\n" in rendered
        assert "batch_size_per_device = 16\n" in rendered
        assert "optimizer = adam-w\n" in rendered
        assert "lora_rank = 8\n" in rendered
        assert "lora_alpha = 16\n" in rendered
        assert "lora_dropout = 0.05\n" in rendered
        assert "target_layers = q_proj,v_proj\n" in rendered
        assert "base_model = codellama-7b\n" in rendered

    def test_mixed_pair_dataset_rejected(self, tmp_path):
        dataset = tmp_path / "mixed.jsonl"
        rows = [
            {"id": "a", "pair": "IR3xOR2", "input": "i", "output": "o", "token_count": 4},
            {"id": "b", "pair": "IR4xOR2", "input": "i", "output": "o", "token_count": 4},
        ]
        dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(MixedPairDataset):
            export_training_config(tmp_path / "cfg.txt", dataset=dataset)

    def test_single_pair_dataset_accepted(self, tmp_path):
        dataset = tmp_path / "one.jsonl"
        dataset.write_text(
            json.dumps({"id": "a", "pair": "IR3xOR2", "input": "i", "output": "o", "token_count": 4})
            + "\n"
        )
        out = tmp_path / "cfg.txt"
        export_training_config(out, dataset=dataset)
        assert out.read_text() == render_training_config()
