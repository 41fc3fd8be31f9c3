"""Shared fixtures: round-trip triples, a synthetic diff corpus, and a
10-bug benchmark of tiny runnable projects."""
from __future__ import annotations

import json
import os
import re
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repairkit.corpus import derive_region
from repairkit.gen import MockBackend
from repairkit.representations import Region
from repairkit.syntax import SourceFunction


# --------------------------------------------------------------------------
# acceptance reporting: one line per criterion on the terminal

_criterion_outcomes: dict[int, set[str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"criterion_(\d+)", report.nodeid)
    if match:
        status = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
        _criterion_outcomes.setdefault(int(match.group(1)), set()).add(status)


def pytest_sessionfinish(session, exitstatus):
    if not _criterion_outcomes:
        return
    sys.stderr.write("\nacceptance criteria:\n")
    for criterion in sorted(_criterion_outcomes):
        outcomes = _criterion_outcomes[criterion]
        status = "FAIL" if "FAIL" in outcomes else ("PASS" if "PASS" in outcomes else "SKIP")
        sys.stderr.write(f"  CRITERION {criterion:2d}: {status}\n")
    sys.stderr.flush()


# --------------------------------------------------------------------------
# (buggy, fixed, region) triples for representation round-trips

@dataclass(frozen=True)
class Triple:
    buggy: SourceFunction
    fixed: SourceFunction
    region: Region
    multi_location_gap: int = 0  # unchanged lines between edit sites, if >1 site


def _fn(lines: list[str]) -> SourceFunction:
    return SourceFunction.from_text("\n".join(lines), "calc")


def make_roundtrip_triples() -> list[Triple]:
    """Deterministic corpus of edit shapes over bodies of varying length.

    Bodies of 15+ lines get a two-site edit with 10+ unchanged lines
    between the sites (the multi-location shape).
    """
    triples: list[Triple] = []

    def add(buggy_lines, fixed_lines, region=None, gap=0):
        buggy, fixed = _fn(buggy_lines), _fn(fixed_lines)
        triples.append(
            Triple(buggy, fixed, region or derive_region(buggy, fixed), gap)
        )

    for n in (4, 6, 8, 15, 16, 18, 20, 26):
        body = [f"        int v{i} = helper{n}({i}, a);" for i in range(n)]
        lines = (
            [f"    static int calc{n}(int a, int b) {{"]
            + body
            + ["        return v0 + b;", "    }"]
        )
        total = len(lines)
        mid = total // 2

        # single-line replacement, derived region
        fixed = list(lines)
        fixed[mid] = "        int mid = repaired(a, b);"
        add(lines, fixed)

        # single-line replacement, caller-widened region
        add(lines, fixed, region=Region(max(2, mid), min(total - 1, mid + 2)))

        # grow: two lines become three
        fixed = lines[: mid - 1] + [
            "        if (a > b) {",
            "            a = b;",
            "        }",
        ] + lines[mid + 1 :]
        add(lines, fixed)

        # deletion: the region's replacement chunk is empty
        fixed = lines[:mid] + lines[mid + 1 :]
        add(lines, fixed, region=Region(mid + 1, mid + 1))

        # pure insertion: empty region before the midpoint line
        fixed = lines[:mid] + ["        guard(a);"] + lines[mid:]
        add(lines, fixed, region=Region(mid + 1, mid))

        # edit at the first body line (context clips at function top)
        fixed = list(lines)
        fixed[1] = "        int v0 = repairedFirst(a);"
        add(lines, fixed)

        # edit at the last body line (context clips at function bottom)
        fixed = list(lines)
        fixed[total - 2] = "        return v1 - b;"
        add(lines, fixed)

        if n >= 15:
            # multi-location: two sites, >= 10 unchanged lines apart
            first, second = 2, 15
            fixed = list(lines)
            fixed[first] = "        int s1 = siteOne(a);"
            fixed[second] = "        int s2 = siteTwo(b);"
            gap = second - first - 1
            add(lines, fixed, gap=gap)
            add(lines, fixed, region=Region(first, second + 2), gap=gap)
    return triples


@pytest.fixture(scope="session")
def roundtrip_triples() -> list[Triple]:
    return make_roundtrip_triples()


# --------------------------------------------------------------------------
# synthetic 20-unit diff corpus (before/ and after/ trees)
#
# Hand-counted expectations, used by the corpus tests and criterion 6:
#   single-function pairs ingested ... 14
#     u01 u02 u03 u04 u05 u06 u07 u13 u14 u16 u17 u18 u19 u20
#   survivors after dedupe ........... 12   (u06 and u07 duplicate u01)
#   dropped over the 1024 cap ........ 1    (u13's function is huge)
#   emitted samples .................. 11
#   units yielding no pair ........... 5    (u08 u09 u10 u12 u15)
#   units skipped as unparsable ...... 1    (u11)

CORPUS_EXPECTED = {
    "units": 20,
    "ingested": 14,
    "deduped": 12,
    "dropped_over_length": 1,
    "emitted": 11,
    "parse_failures": 1,
    "not_single_function": 5,
}

_TWO_METHODS = """class Calc {{
    static int one(int a) {{
        int t = a * 2;
        return {one_return};
    }}

    static int two(int a) {{
        return {two_return};
    }}
}}
"""


def _write_unit(root: Path, name: str, before: str, after: str) -> None:
    for side, content in (("before", before), ("after", after)):
        path = root / side / f"{name}.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


def make_diff_corpus(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)

    base = _TWO_METHODS.format(one_return="t + 1", two_return="a - 7")
    fixed = _TWO_METHODS.format(one_return="t + 2", two_return="a - 7")
    _write_unit(root, "u01", base, fixed)  # pair

    _write_unit(
        root,
        "u02",
        "class Single {\n    int only(int x) {\n        return x * 3;\n    }\n}\n",
        "class Single {\n    int only(int x) {\n        return x * 4;\n    }\n}\n",
    )  # pair

    _write_unit(
        root,
        "u03",
        "class Ins {\n    void run(int n) {\n        work(n);\n    }\n}\n",
        "class Ins {\n    void run(int n) {\n        check(n);\n        work(n);\n    }\n}\n",
    )  # pair: pure insertion

    _write_unit(
        root,
        "u04",
        "class Del {\n    void run(int n) {\n        log(n);\n        work(n);\n    }\n}\n",
        "class Del {\n    void run(int n) {\n        work(n);\n    }\n}\n",
    )  # pair: deletion

    multi_before = (
        "class Multi {\n    int f(int x) {\n        int a = x + 1;\n"
        "        int b = a * 2;\n        int c = b - 3;\n        int d = c / 4;\n"
        "        return d;\n    }\n}\n"
    )
    multi_after = multi_before.replace("x + 1", "x + 9").replace("return d;", "return d + 1;")
    _write_unit(root, "u05", multi_before, multi_after)  # pair: two edit sites

    _write_unit(root, "u06", base, fixed)  # byte-duplicate of u01

    spaced = base.replace("int t = a * 2;", "int t = a * 2;   ")
    spaced_fixed = fixed.replace("int t = a * 2;", "int t = a * 2;   ")
    _write_unit(root, "u07", spaced, spaced_fixed)  # duplicate after trailing trim

    both = _TWO_METHODS.format(one_return="t + 1", two_return="a - 7")
    both_changed = _TWO_METHODS.format(one_return="t + 5", two_return="a - 8")
    _write_unit(root, "u08", both, both_changed)  # two functions changed -> none

    _write_unit(
        root,
        "u09",
        "class Field {\n    static int SIZE = 10;\n    int get() {\n        return SIZE;\n    }\n}\n",
        "class Field {\n    static int SIZE = 20;\n    int get() {\n        return SIZE;\n    }\n}\n",
    )  # change outside any function -> none

    _write_unit(root, "u10", base, base)  # no change -> none

    _write_unit(root, "u11", "class Broken {\n    int f( {\n", "class Broken {\n}\n")  # unparsable

    _write_unit(
        root,
        "u12",
        "class Grow {\n    int a() {\n        return 1;\n    }\n}\n",
        "class Grow {\n    int a() {\n        return 1;\n    }\n\n    int b() {\n        return 2;\n    }\n}\n",
    )  # function added -> none

    huge_body = "\n".join(f"        int q{i} = {i};" for i in range(220))
    huge = f"class Huge {{\n    static int huge(int a) {{\n{huge_body}\n        return q0;\n    }}\n}}\n"
    _write_unit(root, "u13", huge, huge.replace("int q7 = 7;", "int q7 = 70;"))  # over-length pair

    _write_unit(
        root,
        "u14",
        "class Ctor {\n    int n;\n\n    Ctor(int n) {\n        this.n = n;\n    }\n}\n",
        "class Ctor {\n    int n;\n\n    Ctor(int n) {\n        this.n = n + 1;\n    }\n}\n",
    )  # pair: constructor

    noisy = _TWO_METHODS.format(one_return="t + 1", two_return="a - 7 /* note */")
    noisy_changed = _TWO_METHODS.format(one_return="t + 6", two_return="a - 7 /* NOTE */")
    _write_unit(root, "u15", noisy, noisy_changed)  # comment edit counts as a second change -> none

    _write_unit(
        root,
        "u16",
        "class H16 {\n    long g(long v) {\n        return v << 1;\n    }\n}\n",
        "class H16 {\n    long g(long v) {\n        return v << 2;\n    }\n}\n",
    )  # pair

    _write_unit(
        root,
        "u17",
        "class H17 {\n    boolean p(int v) {\n        return v > 0;\n    }\n}\n",
        "class H17 {\n    boolean p(int v) {\n        return v >= 0;\n    }\n}\n",
    )  # pair

    _write_unit(
        root,
        "u18",
        "class Indent {\n    void f(int x) {\n        if (x > 0)\n            emit(x);\n    }\n}\n",
        "class Indent {\n    void f(int x) {\n        if (x > 0)\n                emit(x);\n    }\n}\n",
    )  # pair: indentation-only change

    _write_unit(
        root,
        "u19",
        "class Outer {\n    static class Inner {\n        int poke() {\n            return 1;\n        }\n    }\n}\n",
        "class Outer {\n    static class Inner {\n        int poke() {\n            return 2;\n        }\n    }\n}\n",
    )  # pair: nested class method

    anon = (
        "class Anon {\n    Runnable make(int n) {\n        return new Runnable() {\n"
        "            public void run() {\n                use(n);\n            }\n"
        "        };\n    }\n}\n"
    )
    _write_unit(root, "u20", anon, anon.replace("use(n);", "use(n + 1);"))  # pair: inside anonymous body

    return root


@pytest.fixture()
def diff_corpus(tmp_path) -> Path:
    return make_diff_corpus(tmp_path / "corpus")


# --------------------------------------------------------------------------
# 10-bug benchmark of runnable fixture projects
#
# Each project holds Lib.java (one buggy function returning a - b where the
# intent is a + b) and a checker script that extracts the return expression
# and evaluates it on test vectors. The mock backend answers with the
# reference chunk for bugs 0-5, a commutative variant for 6-7 (passes the
# checker but differs structurally), and garbage for 8-9.

_CHECKER = '''\
import re
import sys

src = open("Lib.java").read()
m = re.search(r"return\\s+([^;]+);", src)
if not m:
    sys.exit(1)
expr = m.group(1).strip()
if not re.fullmatch(r"[ab0-9+\\-*() ]+", expr):
    sys.exit(1)
for a, b in [(1, 2), (3, 5), (10, -4)]:
    try:
        value = eval(expr, {"__builtins__": {}}, {"a": a, "b": b})
    except Exception:
        sys.exit(1)
    if value != a + b:
        sys.exit(1)
sys.exit(0)
'''

REFERENCE_CHUNK = "        return a + b;"
VARIANT_CHUNK = "        return b + a;"
GARBAGE_CHUNK = "%%% broken @@@"


def _lib_java(index: int, expression: str) -> str:
    return (
        "class Lib {\n"
        f"    static int combine{index}(int a, int b) {{\n"
        f"        return {expression};\n"
        "    }\n"
        "}\n"
    )


def _reference_function(index: int) -> str:
    return (
        f"    static int combine{index}(int a, int b) {{\n"
        "        return a + b;\n"
        "    }"
    )


def make_bench_fixture(root: Path) -> tuple[Path, MockBackend, dict[str, str]]:
    """Build the projects and manifest; returns (manifest_path, mock, chunks)."""
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    chunks: dict[str, str] = {}
    for index in range(10):
        bug_id = f"e2e-{index:02d}"
        project = root / bug_id
        project.mkdir()
        (project / "Lib.java").write_text(_lib_java(index, "a - b"), encoding="utf-8")
        (project / "checker.py").write_text(_CHECKER, encoding="utf-8")
        entries.append(
            {
                "bug_id": bug_id,
                "project_root": str(project),
                "file": "Lib.java",
                "function_span": [2, 4],
                "region": [2, 2],
                "reference": _reference_function(index),
                "test_command": f"{shlex.quote(sys.executable)} checker.py",
                "timeout": 60,
            }
        )
        if index < 6:
            chunks[bug_id] = REFERENCE_CHUNK
        elif index < 8:
            chunks[bug_id] = VARIANT_CHUNK
        else:
            chunks[bug_id] = GARBAGE_CHUNK
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(entries, indent=2), encoding="utf-8")

    def resolve(prompt: str):
        match = re.search(r"combine(\d+)\(", prompt)
        return f"e2e-{int(match.group(1)):02d}" if match else None

    mock = MockBackend({bug: [chunk] for bug, chunk in chunks.items()}, resolve=resolve)
    return manifest_path, mock, chunks


@pytest.fixture()
def bench_fixture(tmp_path):
    return make_bench_fixture(tmp_path / "bench")


# --------------------------------------------------------------------------
# loopback backends over http and https

# A self-signed certificate for IP:127.0.0.1, valid until 2126, made by
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -keyout loopback_key.pem -out loopback_cert.pem -days 36500 \
#     -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1
LOOPBACK_CERT = Path(__file__).parent / "loopback_cert.pem"
LOOPBACK_KEY = Path(__file__).parent / "loopback_key.pem"


def serve_over(scheme: str, monkeypatch):
    """What wraps a loopback server's listening socket for `scheme`, http or
    https. An https client trusts LOOPBACK_CERT through SSL_CERT_FILE,
    which each default context reads when it is made."""
    if scheme == "http":
        return lambda sock: sock
    import ssl

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(LOOPBACK_CERT, LOOPBACK_KEY)
    monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_CERT))
    return lambda sock: context.wrap_socket(sock, server_side=True)


# --------------------------------------------------------------------------
# processes a command leaves behind

def _group_running(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # gone in between
            continue
        if int(group) == pgid and state != "Z":
            return True
    return False


def group_left_running(pgid: int, wait: float = 2.0) -> bool:
    """True when a process of group `pgid` is still running, not a zombie,
    after up to `wait` seconds.

    A SIGKILL takes effect when its target next runs, so this polls. The
    group id alone (`os.killpg(pgid, 0)`) cannot tell: a killed child whose
    parent has exited stays a zombie in the group until init reaps it, and
    an init that reaps nothing keeps it there.
    """
    deadline = time.monotonic() + wait
    while _group_running(pgid):
        if time.monotonic() > deadline:
            return True
        time.sleep(0.02)
    return False


# --------------------------------------------------------------------------
# golden files

@pytest.fixture(scope="session")
def golden():
    root = Path(__file__).parent / "golden"

    def load(name: str) -> str:
        return (root / name).read_text(encoding="utf-8")

    return load
