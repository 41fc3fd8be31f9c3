"""The Java frontend's trees and parse errors, pinned byte for byte.

`tests/golden/parse_trees.jsonl` holds one line per source below: the
pre-order `(kind, label, start, end, start_line, end_line)` rows of its
tree, or the text, line and column of its `ParseError`. The sources cover
comments and text blocks, generics closed by `>>`, lambdas and anonymous
classes, enum, record and annotation declarations, non-ASCII identifiers,
CRLF line ends and trailing whitespace at the end of the input. Any change
to the lexer or the parser must reproduce the file exactly.
"""
import json
from pathlib import Path

import pytest

from repairkit.errors import ParseError
from repairkit.syntax import parse
from repairkit.syntax.tokens import Token, tokenize

GOLDEN = Path(__file__).parent / "golden" / "parse_trees.jsonl"

SOURCES = {
    "comments_and_text_block": (
        "/** Doc comment with a * star. */\n"
        "class Doc {\n"
        "    // line comment\n"
        '    String s = """\n'
        '        multi "quoted" line\n'
        '        \\""" escaped "" twice\n'
        '        """;\n'
        "    /* block\n"
        "       spanning */ int x = 1; // tail\n"
        "    String t = \"a\\\"b\" + 'c' + '\\n';\n"
        "    int f() { return x; /* inner */ }\n"
        "}\n"
    ),
    "generics_and_shifts": (
        "class G<T extends Comparable<? super T>> {\n"
        "    Map<String, List<Map<K, V>>> m = new HashMap<>();\n"
        "    int f(int a) { return a >> 2 >>> 1 << 3; }\n"
        "    <U extends List<List<U>>> U id(U u) { a >>= 1; a >>>= 2; return u; }\n"
        "}\n"
    ),
    "lambdas_and_anonymous_classes": (
        "class L {\n"
        "    Runnable r = () -> { go(); };\n"
        "    Comparator<String> c = new Comparator<String>() {\n"
        "        @Override public int compare(String a, String b) { return a.compareTo(b); }\n"
        "    };\n"
        "    void run(List<Integer> xs) {\n"
        "        xs.forEach(x -> System.out.println(x));\n"
        "        long n = xs.stream().map(Integer::toString).filter(s -> !s.isEmpty()).count();\n"
        "        new Thread(new Runnable() { public void run() { n++; } }).start();\n"
        "    }\n"
        "}\n"
    ),
    "enum_record_annotation": (
        "@interface Marker { String value() default \"\"; int n() default 1; }\n"
        "enum Color {\n"
        "    RED(\"r\") { int f() { return 1; } }, GREEN(\"g\");\n"
        "    private final String code;\n"
        "    Color(String code) { this.code = code; }\n"
        "}\n"
        "@Marker(value = \"p\", n = {3})\n"
        "public record Point<T>(int x, T y) implements Cloneable {\n"
        "    Point(int x, T y) { assert x >= 0 : \"neg\"; this.x = x; }\n"
        "    static Point<?> origin() { return null; }\n"
        "}\n"
    ),
    "non_ascii_identifiers": (
        "class Größe {\n"
        "    int maß = 0, $x = 1, _y = 0x1F, z = 1_000L;\n"
        "    String café = \"naïve ✓ 🐛\";\n"
        "    double δ(double π) { return π * 2.5e-3 + .5f; }\n"
        "}\n"
    ),
    "crlf_line_ends": (
        "package p;\r\n"
        "import java.util.List;\r\n"
        "class Crlf {\r\n"
        "    /* two\r\n"
        "       lines */\r\n"
        "    int f() {\r\n"
        "        return 1; // done\r\n"
        "    }\r\n"
        "}\r\n"
    ),
    "control_flow_fragment": (
        "int f(int[] xs) {\n"
        "    outer:\n"
        "    for (int i = 0; i < xs.length; i++) {\n"
        "        if (xs[i] > 0) { continue outer; } else if (xs[i] < 0) break; else ;\n"
        "        while (i-- > 0) i--;\n"
        "        do { i++; } while (i < 3);\n"
        "        switch (i) { case 1: return 1; default: break; }\n"
        "        try (R r = open()) { r.use(); } catch (IOException | Error e) { throw e; }"
        " finally { close(); }\n"
        "        synchronized (this) { final class Local {} }\n"
        "    }\n"
        "    return 0;\n"
        "}\n"
    ),
    "trailing_whitespace_at_eof": "int f() { return 1; }  \n\t \n// end   \n   \t",
    "statement_fragment": "if (x) { y(); } else z();\n\n\n",
    "empty": "",
    "whitespace_only": " \t\r\n\f\x0b\n ",
}

MALFORMED = {
    "unterminated_block_comment": "class A {\n    /* never closed\n",
    "unterminated_text_block": 'class A {\n    String s = """\n        open\n',
    "unterminated_string": 'class A { String s = "abc\n"; }',
    "unterminated_char": "class A { char c = 'a; }",
    "non_decimal_digit_after_dot": "class A { int x = a.²; }",
    "non_decimal_digit": "class A {\r\n    int y = 3²;\r\n}",
    "unexpected_character": "class A {\n    int x = 1 # 2;\n}",
    "non_ascii_space": "class A { int\u00a0x; }",
    "eof_after_block_comment": "class A {\n    int f() {\n        /* c\n           d */",
    "eof_after_trailing_whitespace": "class A {\n    int f() {   \n  \t ",
    "mismatched_closer": "int f() { g(]; }",
    "missing_semicolon": "int f() {\n    return 1\n}",
}


def _rows(node):
    for n in node.walk():
        yield [n.kind, n.label, n.start, n.end, n.start_line, n.end_line]


def _outcome(source):
    try:
        return {"tree": list(_rows(parse(source)))}
    except ParseError as exc:
        return {"error": [str(exc), exc.line, exc.column]}


def golden_text():
    lines = [
        json.dumps({"name": name, **_outcome(source)}, ensure_ascii=False)
        for name, source in {**SOURCES, **MALFORMED}.items()
    ]
    return "\n".join(lines) + "\n"


def test_trees_and_errors_match_golden():
    assert golden_text().encode("utf-8") == GOLDEN.read_bytes()


def test_sources_parse_and_malformed_ones_raise():
    assert all("tree" in _outcome(source) for source in SOURCES.values())
    assert all("error" in _outcome(source) for source in MALFORMED.values())


def test_token_is_immutable_and_hashable():
    first, again = tokenize("x")[0], tokenize("x")[0]
    with pytest.raises(AttributeError):
        first.text = "y"
    assert hash(first) == hash(again)
    assert {first, again} == {first}
    assert first == Token("identifier", "x", 0, 1, 1, 1)
