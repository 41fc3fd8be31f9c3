"""Lexer, parser, function extraction, normalization, and AST equivalence."""
import random

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from reference_lexer import reference_tokenize
from repairkit.assess import ast_match, classify
from repairkit.errors import ParseError, UnsupportedLanguage
from repairkit.gen import CandidatePatch
from repairkit.syntax import (
    SourceFile,
    ast_equal,
    extract_functions,
    normalize,
    parse,
)
from repairkit.syntax.tokens import (
    COMMENT_KINDS,
    IDENTIFIER,
    LINE_COMMENT,
    NUMBER,
    tokenize,
)

MINIMAL = "int f(){return 1;}"


class TestParse:
    def test_minimal_function_has_method_root(self):
        tree = parse(MINIMAL)
        assert tree.kind == "method_declaration"

    def test_truncated_input_raises_at_end(self):
        with pytest.raises(ParseError):
            parse("int f(){return")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse("int f() { if (x) { y(); }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int f(){return 1}")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("@@@ not java at all @@@")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse('int f(){ String s = "oops; }')

    def test_unknown_language(self):
        with pytest.raises(UnsupportedLanguage):
            parse(MINIMAL, language="cobol")

    def test_empty_source_is_empty_unit(self):
        tree = parse("")
        assert tree.kind == "compilation_unit"
        assert tree.children == []

    def test_leaves_cover_all_tokens(self):
        source = "class A { int f(int x) { return x + 1; } // done\n}"
        leaves = list(parse(source).leaves())
        joined = "".join("".join(leaf.label.split()) for leaf in leaves)
        assert joined == "".join(source.split())
        spans = [(leaf.start, leaf.end) for leaf in leaves]
        assert spans == sorted(spans)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    def test_two_if_statements_in_multi_location_region(self):
        # Shaped like the multi-location bug walkthrough: the suspicious
        # region holds a freshly inserted if block plus a pre-existing if
        # condition further down.
        source = """int addOrUpdate(int index, int item) {
    if (index >= 0) {
        int overwritten = data[index];
        if (overwritten != item) {
            data[index] = item;
        }
        return overwritten;
    }
    return -1;
}"""
        # Independent oracle: count `if` keyword tokens lexically.
        expected = sum(
            1
            for i in range(len(source) - 1)
            if source[i : i + 2] == "if"
            and (i == 0 or not source[i - 1].isalnum())
            and not source[i + 2].isalnum()
        )
        tree = parse(source)
        if_nodes = [n for n in tree.walk() if n.kind == "if_statement"]
        assert len(if_nodes) == expected == 2

    def test_statement_fragments_parse(self):
        assert parse("return a+b;").kind == "return_statement"
        assert parse("if (x) { y(); }").kind == "if_statement"


class TestExtractFunctions:
    def test_two_methods_disjoint_ranges(self):
        src = SourceFile(
            "A.java",
            "class A {\n    int f() {\n        return 1;\n    }\n\n"
            "    int g() {\n        return 2;\n    }\n}\n",
        )
        fns = extract_functions(src)
        assert [f.name for f in fns] == ["f", "g"]
        assert fns[0].end_line < fns[1].start_line

    def test_line_ranges_round_trip(self):
        src = SourceFile(
            "B.java",
            "class B {\n    static String pad(String s, int n) {\n"
            "        while (s.length() < n) {\n            s += \" \";\n        }\n"
            "        return s;\n    }\n}\n",
        )
        for fn in extract_functions(src):
            assert src.slice_lines(fn.start_line, fn.end_line) == fn.text

    def test_anonymous_class_stays_with_outer_method(self):
        # Hand-counted: one extractable function; run() lives inside the
        # anonymous body and is not a standalone declaration.
        src = SourceFile(
            "C.java",
            "class C {\n    Runnable make() {\n        return new Runnable() {\n"
            "            public void run() {\n                work();\n            }\n"
            "        };\n    }\n}\n",
        )
        fns = extract_functions(src)
        assert [f.name for f in fns] == ["make"]

    def test_local_class_stays_with_enclosing_method(self):
        src = SourceFile(
            "D.java",
            "class D {\n    void outer() {\n        class Local {\n"
            "            void inner() { }\n        }\n        new Local().inner();\n"
            "    }\n}\n",
        )
        assert [f.name for f in extract_functions(src)] == ["outer"]

    def test_nested_member_class_methods_are_extracted(self):
        src = SourceFile(
            "E.java",
            "class E {\n    static class Inner {\n        int poke() {\n"
            "            return 1;\n        }\n    }\n}\n",
        )
        assert [f.name for f in extract_functions(src)] == ["poke"]

    def test_constructor_extracted_with_name(self):
        src = SourceFile(
            "F.java",
            "class F {\n    int n;\n\n    F(int n) {\n        this.n = n;\n    }\n}\n",
        )
        fns = extract_functions(src)
        assert [f.name for f in fns] == ["F"]

    def test_empty_file(self):
        assert extract_functions(SourceFile("G.java", "")) == []

    def test_annotated_method_span_starts_at_annotation(self):
        src = SourceFile(
            "H.java",
            "class H {\n    @Override\n    public String toString() {\n"
            "        return \"h\";\n    }\n}\n",
        )
        fn = extract_functions(src)[0]
        assert fn.start_line == 2
        assert fn.text.startswith("    @Override")

    def test_parse_error_propagates(self):
        with pytest.raises(ParseError):
            extract_functions(SourceFile("I.java", "class I { int f( {"))


class TestNormalize:
    def test_formatting_and_comment_insensitive(self):
        a = normalize(parse("int f(){return 1;}"))
        b = normalize(parse("int f() {\n  return 1; // ok\n}"))
        assert a == b

    def test_operand_order_is_structural(self):
        assert normalize(parse("return a+b;")) != normalize(parse("return b+a;"))

    def test_block_elision_is_structural(self):
        # Pinned decision: `{x;}` as an if-branch differs from bare `x;`.
        assert normalize(parse("if(x){y();}")) != normalize(parse("if (x) y();"))

    def test_idempotent(self):
        tree = parse("class A { /* c */ int f() { return 1; } }")
        once = normalize(tree)
        assert normalize(once) == once

    def test_no_comment_nodes_survive(self):
        tree = parse("class A { // one\n /* two */ int f() { return 1; /* three */ } }")
        normalized = normalize(tree)
        assert all("comment" not in n.kind for n in normalized.walk())


class TestAstEqual:
    CASES_EQUAL = [
        (MINIMAL, MINIMAL),  # reflexivity
        (MINIMAL, "int f() {\n    return 1;\n}"),
        (MINIMAL, "int f(){return 1;} // trailing note"),
        ("int f(){int a=g(1,2);return a;}", "int f() { int a = g( 1, 2 ); return a; }"),
        ("List<Map<K,V>> f(){return m;}", "List<Map<K,V> > f(){return m;}"),
    ]
    CASES_UNEQUAL = [
        (MINIMAL, "int f(){return 2;}"),
        (MINIMAL, "int g(){return 1;}"),
        ("int f(){return a+b;}", "int f(){return b+a;}"),
        ("int f(){return 16;}", "int f(){return 0x10;}"),  # labels verbatim
    ]

    @pytest.mark.parametrize("a,b", CASES_EQUAL)
    def test_equal(self, a, b):
        assert ast_equal(a, b)
        assert ast_equal(b, a)

    @pytest.mark.parametrize("a,b", CASES_UNEQUAL)
    def test_unequal(self, a, b):
        assert not ast_equal(a, b)
        assert not ast_equal(b, a)

    def test_parse_error_propagates(self):
        with pytest.raises(ParseError):
            ast_equal(MINIMAL, "int f(){return")


REFORMAT_SOURCES = [
    MINIMAL,
    "class A { int f(int x) { if (x > 0) { return x; } else return -x; } }",
    (
        "class Deep<T extends Comparable<? super T>> {\n"
        "    static final Map<String, List<int[]>> CACHE = new HashMap<>();\n"
        "    <K, V> Map<K, V> zip(List<K> ks, List<V> vs) {\n"
        "        Map<K, V> out = new LinkedHashMap<>();\n"
        "        for (int i = 0; i < Math.min(ks.size(), vs.size()); i++) {\n"
        "            out.put(ks.get(i), vs.get(i));\n"
        "        }\n"
        "        try { return out; } catch (RuntimeException e) { throw e; } finally { }\n"
        "    }\n"
        "}"
    ),
    (
        "class Sw {\n"
        "    int classify(int v) {\n"
        "        switch (v) {\n"
        "            case 0: return 0;\n"
        "            default: break;\n"
        "        }\n"
        "        do { v--; } while (v > 0);\n"
        "        return v >= 0 ? v : ~v;\n"
        "    }\n"
        "}"
    ),
]


def _reformat(source: str, rng: random.Random) -> str:
    """Token-preserving rewrite: arbitrary inter-token whitespace, comments
    dropped and fresh ones injected. Line comments keep a trailing newline
    so they cannot swallow the next token."""
    separators = [" ", "  ", "\n", "\n    ", "\n\t", "\t"]
    parts = []
    for token in tokenize(source):
        if "comment" in token.kind and rng.random() < 0.7:
            continue  # dropped comments must not affect the tree
        parts.append(token.text)
        if token.kind == LINE_COMMENT:
            parts.append("\n")
        else:
            if rng.random() < 0.1:
                parts.append(f" /* pad {rng.randrange(10)} */ ")
            parts.append(rng.choice(separators))
    return "".join(parts)


def test_fuzzed_reformat_preserves_tree_equality():
    rng = random.Random(77)
    for source in REFORMAT_SOURCES:
        for _ in range(25):
            mutated = _reformat(source, rng)
            assert ast_equal(source, mutated), mutated


# --------------------------------------------------------------------------
# the regex lexer against the character-at-a-time reference scanner

def _lex(lexer, source):
    """The token list, or the ParseError text and position."""
    try:
        return lexer(source)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)


BENCH_STYLE_CLASS = (
    "package gen.p1;\n\nimport java.util.List;\n\n"
    "/* Generated class C1, variant 4242. */\n"
    "public class C1 {\n"
    "    private int count = 3;\n\n"
    "    public int m1(int a, int b) {\n"
    "        int v1_1 = a + 17;\n"
    "        if (v1_1 > 40) {\n"
    "            v1_1 = v1_1 - 3; // clamp\n"
    "        }\n"
    "        String s = \"x\\\"y\" + 'c' + '\\n';\n"
    "        return v1_1 >>> 2 >= b ? 0x1F : .5e3 > 1_000L ? 1 : 0;\n"
    "    }\n"
    "}\n"
)

_LEX_PIECES = [
    # Java fragments
    "int", "x", "_tmp$", "class", "return", "(", ")", "{", "}", "[", "]", ";",
    ",", "=", "+", "-", "*", "/", "%", "<", ">", "!", "~", "&&", "||", "->",
    "::", "...", "@", "?", ":", "<<=", ">>=", ">>>", ">>>=", "> >", "x.y",
    "0", "42", ".5", "1.", "1e10", "3.0f", "0x1p3", "0xFF_FFL", "0b1010",
    "1_000", '"str"', "'c'", "'\\''", '"a\\"b"', '"""\ntext\n"""',
    '"""a\\"""b"""', "// line\n", "/* block */", "/* multi\nline */",
    # non-ASCII letters and digits
    "é", "xé", "éx", "²", "x²", "½", "x½", "٣", "x٣", "ß", "\u00a0", "€",
    # unterminated constructs and escaped newlines
    "/*", '"', "'", '"""', '"a\\\nb"', "'\\\n'", "\\",
    # whitespace
    " ", "  ", "\n", "\t", "\r\n", "\f", "\x0b",
]


@st.composite
def _lexer_inputs(draw):
    pieces = draw(st.lists(st.sampled_from(_LEX_PIECES), max_size=24))
    glue = draw(st.lists(st.sampled_from(["", " ", "\n"]), min_size=len(pieces)))
    return "".join(p + g for p, g in zip(pieces, glue))


@st.composite
def _mutated_classes(draw):
    source = BENCH_STYLE_CLASS
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(source)))
        cut = draw(st.integers(0, 3))
        insert = draw(st.sampled_from(["", *_LEX_PIECES]))
        source = source[:at] + insert + source[at + cut :]
    return source


class TestLexerMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(source=st.one_of(_lexer_inputs(), _mutated_classes()))
    @example(source="abcé½ x²")  # an identifier running into non-ASCII
    @example(source="a.²")  # `.` just before a non-decimal Unicode digit
    @example(source="x .½ ..³")
    @example(source=BENCH_STYLE_CLASS)
    def test_same_tokens_or_error(self, source):
        assert _lex(tokenize, source) == _lex(reference_tokenize, source)

    @settings(max_examples=200, deadline=None)
    @given(source=st.text(alphabet="ab1._ \n\"'/*\\\\>=x²½é", max_size=30))
    def test_same_tokens_or_error_on_text(self, source):
        assert _lex(tokenize, source) == _lex(reference_tokenize, source)

    def test_shift_operators_are_never_folded(self):
        texts = [t.text for t in tokenize("a >>>= b >> c >>= 1 << 2 <<= 3")]
        assert texts == [
            "a", ">", ">", ">=", "b", ">", ">", "c", ">", ">=", "1",
            "<<", "2", "<<=", "3",
        ]


# --------------------------------------------------------------------------
# AST match as significant-token equality, against tree normalization

AST_BASES = [*REFORMAT_SOURCES, BENCH_STYLE_CLASS]

_SWAPS = {
    IDENTIFIER: ["a", "b", "v1_1", "tmp"],
    NUMBER: ["0", "1", "17", "0x10"],
    "+": ["+", "-", "*"],
    "<": ["<", "<=", "=="],
}


def _swaps(token):
    return _SWAPS.get(token.kind) or _SWAPS.get(token.text)


@st.composite
def _source_pairs(draw):
    """Two reformatted copies of one source, the second with at most one
    token edit: a token swapped for another of its kind, or an empty
    statement or member added after a `;`."""
    tokens = tokenize(draw(st.sampled_from(AST_BASES)))
    editable = [i for i, t in enumerate(tokens) if _swaps(t) or t.text == ";"]
    edit_at = draw(st.one_of(st.none(), st.sampled_from(editable)))
    return draw(_variant(tokens, None)), draw(_variant(tokens, edit_at))


_SEPARATORS = [" ", "\n", "\t ", " /* note */ ", " // note\n", "\r\n"]


@st.composite
def _variant(draw, tokens, edit_at):
    """The tokens rejoined: each token's roll decides whether a comment is
    dropped and which separator follows."""
    rolls = draw(st.lists(st.integers(0, 99), min_size=len(tokens), max_size=len(tokens)))
    parts = []
    for i, (token, roll) in enumerate(zip(tokens, rolls)):
        if token.kind in COMMENT_KINDS and roll % 2:
            continue
        text = token.text
        if i == edit_at:
            text = draw(st.sampled_from(_swaps(token) or [text + " ;"]))
        parts.append(text)
        parts.append("\n" if token.kind == LINE_COMMENT else _SEPARATORS[roll % len(_SEPARATORS)])
    return "".join(parts)


def _parsable(source):
    try:
        parse(source)
    except ParseError:
        return False
    return True


class TestAstKeyMatchesNormalizedTrees:
    @settings(max_examples=150, deadline=None)
    @given(pair=_source_pairs())
    def test_verdicts_agree(self, pair):
        a, b = pair
        assume(_parsable(a) and _parsable(b))
        expected = normalize(parse(a)) == normalize(parse(b))
        assert ast_equal(a, b) == expected
        assert ast_match(a, b) is expected
        [verdict] = classify("bug", [CandidatePatch("bug", 0, a, reconstructed=a)], b)
        assert verdict.ast == expected

    @pytest.mark.parametrize("equal", [True, False])
    def test_pairs_cover_both_verdicts(self, equal):
        def wanted(pair):
            a, b = pair
            return (
                _parsable(a)
                and _parsable(b)
                and (normalize(parse(a)) == normalize(parse(b))) is equal
            )

        find(
            _source_pairs(),
            wanted,
            settings=settings(database=None, phases=[Phase.generate], max_examples=200),
        )
