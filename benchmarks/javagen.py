"""Seeded synthetic Java sources with planted one-line bugs.

Nothing here imports repairkit. Every expected outcome the workloads check
is planted by construction, so the oracle never runs the code under test.

A generated method looks like::

    public int m3(int a, int b) {
        int v3_1 = a + 17;
        if (v3_1 > 40) {
            v3_1 = v3_1 - 3;
        }
        int v3_9 = v3_1 + 12;      <- the bug line ('+' where '-' is right)
        ...
        return v3_1;
    }

Variable names carry the method index, so every declaration line is unique
within its file. The bug line sits at least four lines from either end of
the method, so a unified diff of the fix has three full context lines on
both sides.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

BODY = " " * 8
MEMBER = " " * 4


@dataclass(frozen=True)
class Method:
    """One generated method: its lines, where the bug is and its fix."""

    name: str
    lines: tuple[str, ...]  # buggy version, signature to closing brace
    bug: int  # 1-based line of the bug inside the method
    fixed_line: str
    start_line: int = 0  # 1-based line of the signature inside its file

    @property
    def end_line(self) -> int:
        return self.start_line + len(self.lines) - 1

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    @property
    def fixed_lines(self) -> tuple[str, ...]:
        out = list(self.lines)
        out[self.bug - 1] = self.fixed_line
        return tuple(out)

    @property
    def fixed_text(self) -> str:
        return "\n".join(self.fixed_lines)

    @property
    def bug_line(self) -> str:
        return self.lines[self.bug - 1]

    @property
    def bug_terms(self) -> tuple[str, str, str]:
        """(variable, operand, constant) of the bug line `int v = x + c;`."""
        words = self.bug_line.split()
        return words[1], words[3], words[5].rstrip(";")


def _statement(rng: random.Random, tag: str, serial: int, names: list[str]) -> list[str]:
    """One statement of one to three lines, declaring at most one name."""
    # rng.random() rather than rng.choice/randint, which cost several times more.
    a = names[int(rng.random() * len(names))]
    c = 1 + int(rng.random() * 99)
    kind = int(rng.random() * 9)
    if kind == 0:
        v = f"v{tag}_{serial}"
        names.append(v)
        return [f"int {v} = {a} {'+-*'[c % 3]} {c};"]
    if kind == 1:
        return [f"if ({a} > {c}) {{", f"    {a} = {a} - {c % 9 + 1};", "}"]
    if kind == 2:
        i = f"i{tag}_{serial}"
        return [
            f"for (int {i} = 0; {i} < {c}; {i}++) {{",
            f"    {a} += {i} * {c % 8 + 2};",
            "}",
        ]
    if kind == 3:
        return [f'String s{tag}_{serial} = "item {serial} of {tag}";']
    if kind == 4:
        return [f"{a} = Math.max({a}, {c});"]
    if kind == 5:
        lst = f"l{tag}_{serial}"
        return [f"List<Integer> {lst} = new ArrayList<>();", f"{lst}.add({a});"]
    if kind == 6:
        return [f"// step {serial}: adjust {a}"]
    if kind == 7:
        return [f"int[] arr{tag}_{serial} = {{{c}, {c * 7 % 100}, {a}}};"]
    v = f"v{tag}_{serial}"
    names.append(v)
    return [f"int {v} = {a} > {c} ? {a} : {c * 3 % 100};"]


def make_method(rng: random.Random, tag: str, length: int) -> Method:
    """A method of exactly `length` lines (at least 12) with one bug line."""
    if length < 12:
        raise ValueError("methods need at least 12 lines")
    names = ["a", "b"]
    # Body without the bug line: length minus signature, bug, return, brace.
    room = length - 4
    body: list[str] = []
    boundaries: dict[int, int] = {}  # body index -> names declared before it
    serial = 0
    while len(body) < room:
        serial += 1
        declared = len(names)
        stmt = _statement(rng, tag, serial, names)
        if len(body) + len(stmt) > room:
            del names[declared:]
            continue
        boundaries[len(body)] = declared
        body.extend(stmt)
    boundaries[len(body)] = len(names)
    # Method line of body index j is j + 2; the bug must land on 4..length-5.
    legal = [j for j in boundaries if 4 <= j + 2 <= length - 5]
    at = rng.choice(legal)
    src = rng.choice(names[: boundaries[at]])
    const = rng.randint(2, 99)
    var = f"v{tag}_bug"
    body.insert(at, f"int {var} = {src} + {const};")
    fixed = f"{BODY}int {var} = {src} - {const};"
    lines = (
        [f"{MEMBER}public int m{tag}(int a, int b) {{"]
        + [BODY + line for line in body]
        + [f"{BODY}return {rng.choice(names)};", f"{MEMBER}}}"]
    )
    assert len(lines) == length
    return Method(f"m{tag}", tuple(lines), at + 2, fixed)


@dataclass(frozen=True)
class JavaFile:
    package: str
    class_name: str
    head: tuple[str, ...]
    methods: tuple[Method, ...]

    @property
    def lines(self) -> list[str]:
        out = list(self.head)
        for method in self.methods:
            out.extend(method.lines)
            out.append("")
        out.append("}")
        return out

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def with_fixed(self, *names: str) -> str:
        """File text with the named methods' bug lines replaced by fixes."""
        out = self.lines
        for method in self.methods:
            if method.name in names:
                out[method.start_line + method.bug - 2] = method.fixed_line
        return "\n".join(out) + "\n"


def make_file(
    package: str, class_name: str, methods: list[Method], rng: random.Random
) -> JavaFile:
    """A compilation unit holding `methods`, with their start lines set."""
    head = [
        f"package {package};",
        "",
        "import java.util.ArrayList;",
        "import java.util.List;",
        "",
        f"/* Generated class {class_name}, variant {rng.randint(1000, 9999)}. */",
        f"public class {class_name} {{",
        f"{MEMBER}private int count = {rng.randint(0, 9)};",
        "",
    ]
    placed = []
    line = len(head) + 1
    for method in methods:
        placed.append(
            Method(method.name, method.lines, method.bug, method.fixed_line, line)
        )
        line += len(method.lines) + 1
    return JavaFile(package, class_name, tuple(head), tuple(placed))


def filler_class(rng: random.Random, package: str, class_name: str) -> str:
    """A small class that is never edited; it only gives a project its size."""
    fields = "\n".join(
        f"{MEMBER}private int f{i} = {rng.randint(0, 999)};" for i in range(6)
    )
    getters = "\n".join(
        f"{MEMBER}public int get{i}() {{\n{BODY}return f{i} + {rng.randint(1, 9)};\n{MEMBER}}}\n"
        for i in range(6)
    )
    return (
        f"package {package};\n\n/** Filler {class_name}. */\n"
        f"public class {class_name} {{\n{fields}\n\n{getters}}}\n"
    )


# --------------------------------------------------------------------------
# unified diffs, rendered here so that inputs never depend on the code under test


def hunk(method: Method, fixed_line: str, offset: int = 0) -> str:
    """One three-context hunk replacing the bug line of `method`.

    `offset` shifts the stated line numbers, which a fuzzy applier must
    absorb to find the hunk.
    """
    p = method.bug
    lines = method.lines
    start = p - 3 + offset
    body = (
        [" " + line for line in lines[p - 4 : p - 1]]
        + ["-" + lines[p - 1], "+" + fixed_line]
        + [" " + line for line in lines[p : p + 3]]
    )
    return f"@@ -{start},7 +{start},7 @@\n" + "\n".join(body) + "\n"
