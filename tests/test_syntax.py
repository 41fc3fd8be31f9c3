"""Lexer, parser, function extraction, normalization, and AST equivalence."""
import os
import random
from unittest import mock

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from reference_lexer import reference_tokenize
from repairkit.assess import ast_match, classify
from repairkit.errors import ParseError
from repairkit.gen import CandidatePatch
from repairkit.syntax import (
    NormalizedNode,
    SourceFile,
    Token,
    ast_equal,
    ast_key,
    extract_functions,
    lex_edit,
    normalize,
    parse,
    parses_edit,
)
from repairkit.syntax import parser as java_parser
from repairkit.syntax import tokens as token_module
from repairkit.syntax.tokens import (
    COMMENT_KINDS,
    IDENTIFIER,
    LINE_COMMENT,
    NUMBER,
    tokenize,
)
from test_parse_golden import SOURCES as GOLDEN_SOURCES

MINIMAL = "int f(){return 1;}"

SEALED_CASES = [
    ("sealed interface S permits A, B {}", "interface_declaration"),
    ("public sealed abstract class S permits A {}", "class_declaration"),
    ("class C { non-sealed class D extends C {} }", "class_declaration"),
    ("non-sealed @Deprecated interface I extends S {}", "interface_declaration"),
]


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

    def test_given_tokens_are_the_leaves(self):
        tokens = tokenize(MINIMAL)
        with mock.patch.object(java_parser, "tokenize", side_effect=AssertionError("lexed")):
            tree = parse(MINIMAL, tokens)
        assert all(leaf is token for leaf, token in zip(tree.leaves(), tokens, strict=True))

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

    @pytest.mark.parametrize(
        "value,tail",
        [
            ("{1, 2}", ["brace_group", ";"]),
            ("{}", ["brace_group", ";"]),
            ("@A(1)", ["@", "A", "paren_group", ";"]),
        ],
    )
    def test_annotation_element_default_is_a_value(self, value, tail):
        source = f"@interface M {{ int[] n() default {value}; }}"
        [element] = [n for n in parse(source).walk() if n.kind == "method_declaration"]
        labels = [child.label or child.kind for child in element.children]
        assert labels[labels.index("default") + 1 :] == tail
        assert ast_key(parse(source)) == tuple(t.text for t in tokenize(source))

    def test_statement_fragments_parse(self):
        assert parse("return a+b;").kind == "return_statement"
        assert parse("if (x) { y(); }").kind == "if_statement"

    @pytest.mark.parametrize("source,kind", SEALED_CASES)
    def test_sealed_hierarchies_parse(self, source, kind):
        tree = parse(source)
        assert tree.kind == kind
        assert ast_key(tree) == tuple(t.text for t in tokenize(source))

    def test_non_sealed_may_be_spaced(self):
        # javac wants the three tokens adjacent; the parser reads texts only.
        adjacent = "class C { non-sealed class D {} }"
        spaced = "class C { non - sealed class D {} }"
        assert normalize(parse(spaced)) == normalize(parse(adjacent))

    def test_member_named_sealed_keeps_its_meaning(self):
        source = "class K { int sealed = 1; int sealed() { return sealed; } }"
        body = parse(source).children[-1]
        kinds = [child.kind for child in body.children if not child.is_leaf]
        assert kinds == ["field_declaration", "method_declaration"]

    @pytest.mark.parametrize("modifier", ["", "final "])
    def test_local_record_is_a_declaration(self, modifier):
        source = f"void m() {{ {modifier}record P(int x) {{}} int y = 1; }}"
        block = parse(source).children[-1]
        assert [child.kind for child in block.children] == [
            "symbol",
            "record_declaration",
            "statement",
            "symbol",
        ]
        assert [leaf.text for leaf in block.children[2].leaves()] == ["int", "y", "=", "1", ";"]

    def test_local_record_as_last_statement(self):
        assert parse("void m() { record P(int x) {} }").kind == "method_declaration"


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

    @pytest.mark.parametrize("value", ["{1, 2}", "{}", "@A(1)"])
    def test_annotation_element_with_default_is_extracted(self, value):
        src = SourceFile("M.java", f"@interface M {{\n    int[] n() default {value};\n}}\n")
        assert [(f.name, f.start_line, f.end_line) for f in extract_functions(src)] == [
            ("n", 2, 2)
        ]

    @pytest.mark.parametrize("modifier", ["", "public "])
    def test_record_compact_constructor_extracted(self, modifier):
        src = SourceFile(
            "P.java",
            "record P(int x) {\n"
            f"    {modifier}P {{\n        assert x >= 0;\n    }}\n\n"
            "    int twice() { return 2 * x; }\n}\n",
        )
        fns = extract_functions(src)
        assert [(f.name, f.start_line, f.end_line) for f in fns] == [
            ("P", 2, 4),
            ("twice", 6, 6),
        ]
        assert fns[0].text == f"    {modifier}P {{\n        assert x >= 0;\n    }}"

    def test_sealed_hierarchy_functions(self):
        src = SourceFile(
            "S.java",
            "public sealed interface Shape permits Circle, Square {\n"
            "    double area();\n"
            "}\n"
            "final class Circle implements Shape {\n"
            "    public double area() { return 3.14; }\n"
            "}\n"
            "non-sealed class Square implements Shape {\n"
            "    Square() {}\n"
            "    public double area() {\n"
            "        return 1;\n"
            "    }\n"
            "}\n",
        )
        assert [(f.name, f.start_line, f.end_line) for f in extract_functions(src)] == [
            ("area", 2, 2),
            ("area", 5, 5),
            ("Square", 8, 8),
            ("area", 9, 11),
        ]

    def test_local_record_stays_with_enclosing_method(self):
        src = SourceFile(
            "R.java",
            "class R {\n"
            "    int m() {\n"
            "        record P(int x) {\n"
            "            P { assert x > 0; }\n"
            "        }\n"
            "        return new P(1).x();\n"
            "    }\n"
            "    void n() {}\n"
            "}\n",
        )
        assert [(f.name, f.start_line, f.end_line) for f in extract_functions(src)] == [
            ("m", 2, 7),
            ("n", 8, 8),
        ]

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


# --------------------------------------------------------------------------
# the tree's leaves are the lexer's own tokens

def _parse_with_tokens(source):
    """The tree of `source` and the token list its parser read."""
    read = []

    def recording_tokenize(text):
        read.append(tokenize(text))
        return read[-1]

    with mock.patch.object(java_parser, "tokenize", recording_tokenize):
        tree = parse(source)
    [tokens] = read
    return tree, tokens


def _assert_leaves_are_tokens(source):
    tree, tokens = _parse_with_tokens(source)
    leaves = list(tree.leaves())
    assert len(leaves) == len(tokens)
    assert all(leaf is token for leaf, token in zip(leaves, tokens))
    assert list(parse(source).leaves()) == tokenize(source)


class TestLeavesAreTokens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
    def test_golden_sources(self, name):
        _assert_leaves_are_tokens(GOLDEN_SOURCES[name])

    @settings(max_examples=150, deadline=None)
    @given(
        source=st.one_of(
            _mutated_classes(),
            _source_pairs().map(lambda pair: pair[1]),
            st.lists(st.sampled_from(_LEX_PIECES), max_size=3).map("".join),
        )
    )
    def test_token_soups_that_parse(self, source):
        assume(_parsable(source))
        _assert_leaves_are_tokens(source)

    @pytest.mark.parametrize(
        "source,kind,label,key",
        [(";", "symbol", ";", (";",)), ("// c", LINE_COMMENT, "// c", ())],
    )
    def test_lone_token_root(self, source, kind, label, key):
        root = parse(source)
        assert isinstance(root, Token)
        assert (root.kind, root.label, root.children) == (kind, label, ())
        assert (root.start_line, root.end_line, root.is_leaf) == (1, 1, True)
        assert list(root.walk()) == list(root.leaves()) == [root]
        assert ast_key(root) == key
        expected = normalize(parse("")) if root.is_comment else NormalizedNode(kind, label, ())
        assert normalize(root) == expected

    def test_empty_root(self):
        root = parse("")
        assert (root.kind, root.label, root.children) == ("compilation_unit", None, [])
        assert (root.start_line, root.end_line, root.is_leaf) == (0, 0, False)
        assert list(root.walk()) == [root]
        assert list(root.leaves()) == []
        assert ast_key(root) == ()
        assert normalize(root) == NormalizedNode("compilation_unit", None, ())


# --------------------------------------------------------------------------
# the parser reads token texts only

RESPACE_SOURCES = [
    *(source for _, source in sorted(GOLDEN_SOURCES.items())),
    *(source for source, _ in SEALED_CASES),
    "class C { non - sealed class D {} }",
    "class K { int sealed = 1; int sealed() { return sealed; } }",
    "void m() { record P(int x) {} int y = 1; }",
    "void m() { final record P(int x) {} }",
    "void m() { record P(int x) {} }",
    "class R { int m() { record P(int x) { P { assert x > 0; } } return 1; } }",
    # and some that do not parse
    "int f() { return 1 }",
    "class C { non - sealed }",
    "void m() { record P(int x) {} int y = 1 }",
    "class D { sealed sealed x; } }",
]

# Each separator starts and ends with whitespace, so no two tokens merge.
_RESPACINGS = [" ", "\n", "\t", "\r\n", "  \n\n  ", " /* c */ ", " /**/\n", " // c\n"]


def _lexes(source):
    try:
        tokenize(source)
    except ParseError:
        return False
    return True


@st.composite
def _respaced(draw):
    """A source, and its tokens rejoined with other spacing and comments."""
    source = draw(st.sampled_from(RESPACE_SOURCES))
    tokens = tokenize(source)
    picks = draw(st.lists(st.sampled_from(_RESPACINGS), min_size=len(tokens), max_size=len(tokens)))
    parts = []
    for token, separator in zip(tokens, picks):
        parts.append(token.text)
        parts.append(separator if token.kind != LINE_COMMENT or "\n" in separator else "\n")
    return source, "".join(parts)


def _key_or_failure(source):
    try:
        return ast_key(parse(source))
    except ParseError:
        return None


class TestParserReadsTextsOnly:
    @settings(max_examples=200, deadline=None)
    @given(pair=_respaced())
    def test_respacing_keeps_parse_and_key(self, pair):
        source, respaced = pair
        assert _key_or_failure(respaced) == _key_or_failure(source)

    def test_sources_cover_both_outcomes(self):
        outcomes = {_key_or_failure(s) is None for s in RESPACE_SOURCES}
        assert outcomes == {True, False}


# --------------------------------------------------------------------------
# lex_edit against tokenize

# A source whose tokens span lines, so that edits inside them are common.
SPANNING_TOKENS = (
    "/**\n * Doc.\n *\n * More.\n */\nclass T {\n"
    '    String t = """\n        one\n        two\n        """;\n'
    '    String s = "a\\\n    b";\n'
    "    /* x\n       y\n       z */ int f() { return 1; }\n}\n"
)

EDIT_BASES = [*RESPACE_SOURCES, BENCH_STYLE_CLASS, *REFORMAT_SOURCES, SPANNING_TOKENS]

_EDIT_PIECES = [
    *_LEX_PIECES,
    "*/", "\r", " \t", "日本", "/* open", "close */", "// tail",
    'String s = "', "char c = '", "return a + b;",
]


def _edit_lines(draw, source, edits, pieces=_EDIT_PIECES):
    """`source` with that many lines replaced, inserted, deleted or edited in place."""
    lines = source.split("\n")
    for _ in range(edits):
        at = draw(st.integers(0, len(lines)))
        piece = "".join(draw(st.lists(st.sampled_from(pieces), max_size=3)))
        action = draw(st.sampled_from(["insert", "delete", "replace", "splice"]))
        if action == "insert" or at == len(lines):
            lines.insert(at, piece)
        elif action == "delete":
            del lines[at]
        elif action == "replace":
            lines[at] = piece
        else:
            column = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:column] + piece + lines[at][column:]
    return "\n".join(lines)


@st.composite
def _line_edits(draw, bases=EDIT_BASES):
    """A base source that lexes, its tokens, and a copy with one to three
    line edits. The base is itself a known source with up to two edits, so
    stray closers such as `*/` or `"` can sit outside the edited lines."""
    base = _edit_lines(draw, draw(st.sampled_from(bases)), draw(st.integers(0, 2)))
    assume(_lexes(base))
    return base, tokenize(base), _edit_lines(draw, base, draw(st.integers(1, 3)))


def _spliced(base, base_tokens, text):
    """`lex_edit`'s splice, with the tokens after the window moved to
    their place in `text`."""
    first, last, window = lex_edit(base, base_tokens, text)
    shift, lines = len(text) - len(base), text.count("\n") - base.count("\n")
    tail = [
        t._replace(start=t.start + shift, end=t.end + shift, line=t.line + lines)
        for t in base_tokens[last:]
    ]
    return base_tokens[:first] + window + tail


def _window_end(base, text):
    """The offset in `text` where its longest common line suffix with
    `base` starts, not overlapping the common line prefix."""
    old, new = base.split("\n"), text.split("\n")
    prefix = len(os.path.commonprefix([old, new]))
    suffix = len(os.path.commonprefix([old[prefix:][::-1], new[prefix:][::-1]]))
    return len(text) - len("\n".join(new[len(new) - suffix :])) if suffix else len(text)


def _edit_path(base, base_tokens, text):
    """Which way `lex_edit` lexed `text`: its changed lines alone
    ("window"), from their start to the end of `text` ("fallback"), or
    whole ("full")."""
    with mock.patch.object(token_module, "tokenize", wraps=tokenize) as full:
        with mock.patch.object(token_module, "_lex", wraps=token_module._lex) as lex:
            _lex(lambda t: lex_edit(base, base_tokens, t), text)
    if full.called:
        return "full"
    if lex.call_count == 1 and lex.call_args.args[2] == _window_end(base, text):
        return "window"
    return "fallback"


class TestTokenizeEditMatchesTokenize:
    """`lex_edit`'s splice against `tokenize`."""

    @settings(max_examples=400, deadline=None)
    @given(edit=_line_edits())
    def test_same_tokens_or_error(self, edit):
        base, base_tokens, text = edit
        assert _lex(lambda t: _spliced(base, base_tokens, t), text) == _lex(tokenize, text)

    @pytest.mark.parametrize(
        "base,text,path",
        [
            ("a\nb", "a\nx\nb", "window"),
            ("a\nb", "a", "window"),
            ("b", "a\nb", "window"),
            ("a\r\nb", "a\r\n/* c\r\n*/ b", "window"),
            ("a\nb", "a\nb ²", "fallback"),  # a lexical error
            # a base comment across the first changed line's start
            ("int a; /* one\ntwo */ int b;", "int a; /* one\nTWO */ int b;", "full"),
            # a base comment, then a string, across the last changed line's end
            ("int a; /* one\ntwo */ int b;", "int A;\ntwo */ int b;", "fallback"),
            ('String s = "a\\\nb";', 'int x;\nb";', "fallback"),
            # a comment opened in the changed lines closes after them
            ("int f() {\n    return a;\n    y = 2 */ 3;\n}", "int f() {\n    /* a;\n    y = 2 */ 3;\n}", "fallback"),
            # an error after the changed lines, where the full lex finds it
            ("int f() {\n    return a;\n    y = 2 */ 3;\n}", "int f() {\n    /* a;\n    y = 2 */ '3;\n}", "fallback"),
        ],
    )
    def test_edges_of_the_changed_lines(self, base, text, path):
        base_tokens = tokenize(base)
        assert _lex(lambda t: _spliced(base, base_tokens, t), text) == _lex(tokenize, text)
        assert _edit_path(base, base_tokens, text) == path

    @pytest.mark.parametrize("path", ["window", "fallback", "full"])
    def test_edits_take_each_path(self, path):
        find(
            _line_edits([SPANNING_TOKENS]),
            lambda edit: _edit_path(*edit) == path,
            settings=settings(database=None, phases=[Phase.generate], max_examples=300),
        )

    @pytest.mark.parametrize(
        "text,lexed",
        [
            ("int f() {\n    return a - b;\n}", "return a - b ;"),  # one line changed
            ("int f() {\n    int c = 0;\n    return a + b;\n}", "int c = 0 ;"),  # a line inserted
            ("int f() {\n    return a + b;\n}\n", ""),  # a line appended
        ],
    )
    def test_unchanged_lines_keep_their_tokens(self, text, lexed):
        base = "int f() {\n    return a + b;\n}"
        base_tokens = tokenize(base)
        first, last, window = lex_edit(base, base_tokens, text)
        assert " ".join(t.text for t in window) == lexed
        assert _spliced(base, base_tokens, text) == tokenize(text)


# --------------------------------------------------------------------------
# parses_edit against a whole parse

METHOD_PARTS = [
    ["int v = a + 17;"],
    ["if (v > 40) {", "    v = v - 3;", "}"],
    ["if (a < b) {", "    a = b;", "} else {", "    b = a;", "}"],
    ["for (int i = 0; i < b; i++) {", "    a += i; // step", "}"],
    ["try {", "    a = b / v;", "} catch (ArithmeticException e) {", "    a = 0;", "} finally {", "    v++;", "}"],
    ["while (a > b) { a--; }"],
    ['String s = "x" + a + \'c\';'],
    ["/* a note", "   over two lines */"],
    ["outer:", "for (;;) { break outer; }"],
    ["record P(int x) {}"],
    ["Runnable r = () -> { go(); };"],
    ["switch (a) {", "    case 1: b = 2; break;", "    default: b = 0;", "}"],
    ["do {", "    a--;", "} while (a > 0);"],
]

# Whole statements and their pieces: openers and closers of blocks,
# clauses that attach to the statement before them, labels, local
# declarations, comments, and string and comment openers.
_STATEMENT_PIECES = [
    "int x = 1;", "return x;", "x++;", "if (a > 0) {", "if (a) b();", "} else {",
    "else", "else b();", "{", "}", "lbl:", "lbl: while (x) {", "try {",
    "} catch (Exception e) {", "} finally {", "catch (E e) {}", "finally {}",
    "record P(int x) {}", "record", "record R(", "final record Q(int y) {}",
    "class Q { int f() { return 1; } }", "enum E { A, B }", "static {",
    "synchronized (this) {", "do {", "} while (x);", "switch (x) { case 1: break; }",
    "new Runnable() { public void run() {} };", "x -> {", "});", "int y = (a",
    ") + 1;", "@Ann int z;", "// c", "/* c", "*/", "/* c */", '"', "'", ";", "",
]


@st.composite
def _long_methods(draw):
    """A method of 10 to 40 statements built from whole parts."""
    parts = draw(st.lists(st.sampled_from(METHOD_PARTS), min_size=10, max_size=40))
    body = [f"        {line}" for part in parts for line in part]
    return "\n".join(["    public int m(int a, int b) {", *body, "        return a;", "    }"])


_PARSED_BASES = [s for s in EDIT_BASES if _key_or_failure(s) is not None]


@st.composite
def _statement_edits(draw):
    """A source that parses and a copy with one to three statement-level
    line edits."""
    base = draw(st.one_of(st.sampled_from(_PARSED_BASES), _long_methods()))
    text = _edit_lines(draw, base, draw(st.integers(1, 3)), _STATEMENT_PIECES)
    return base, text


def _verdicts(base, text):
    """`parses_edit`'s verdict on `text` as an edit of `base`, and whether
    `text` parses whole; None when `text` does not lex."""
    base_tokens = tokenize(base)
    tree = parse(base, base_tokens)
    try:
        first, last, window = lex_edit(base, base_tokens, text)
    except ParseError:
        return None
    tokens = base_tokens[:first] + window + base_tokens[last:]
    return parses_edit(tree, base_tokens, first, last, tokens), _parsable(text)


class TestParsesEditMatchesParse:
    @settings(max_examples=500, deadline=None)
    @given(edit=_statement_edits())
    def test_decided_verdicts_match_a_whole_parse(self, edit):
        verdicts = _verdicts(*edit)
        assume(verdicts is not None)
        decided, whole = verdicts
        assert decided is None or decided == whole

    @pytest.mark.parametrize("outcome", [True, False, None])
    def test_edits_take_each_outcome(self, outcome):
        find(
            _statement_edits(),
            lambda edit: (_verdicts(*edit) or ("no lex",))[0] is outcome,
            settings=settings(database=None, phases=[Phase.generate], max_examples=300),
        )

    @pytest.mark.parametrize(
        "before,after,verdict",
        [
            # Clauses that attach to the statement before the edit: the
            # re-parse starts at that statement.
            ("if (a) { b(); }\n    c();", "if (a) { b(); }\n    else { c(); }", True),
            ("try { x(); } catch (E e) {}\n    y();", "try { x(); } catch (E e) {}\n    finally {}", True),
            ("do { x(); }\n    while (a);", "do { x(); }\n    while (a && b);", True),
            ("lbl:\n    y();", "lbl:\n    while (a) { y(); }", True),
            ("record\n    P(int x) {}", "record\n    = 1;", True),
            ("y();\n    z();", "y();\n    z(];", False),
            ("y();\n    z();", "y();\n    z();)", False),
            # The edit opens or closes a block: undecided.
            ("y();\n    z();", "y();\n    if (a) {\n    z();", None),
            ("y();\n    z();", "y();\n    }\n    z();", None),
            # The edit changes a block's `{`, with a comment before it
            # inside that block's node: the enclosing block is re-parsed.
            ("if (a) // c\n    {\n    y();\n    }", "if (a) // c\n    () {\n    y();\n    }", None),
        ],
    )
    def test_fixed_edits(self, before, after, verdict):
        def method(body):
            return f"void m() {{\n    int v = 0;\n    {body}\n    v++;\n}}"

        assert _verdicts(method(before), method(after)) == (
            verdict, _parsable(method(after)) if verdict is None else verdict
        )

    def test_edit_outside_any_block_is_undecided(self):
        base = "class C {\n    int x = 1;\n    int y = 2;\n}"
        assert _verdicts(base, "class C {\n    int x = 1;\n    int y = ;\n}") == (None, True)
