"""Match oracles, plausibility execution, ratings, kappa, and classify."""
import json
import logging
import os
import shlex
import shutil
import signal
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path
from functools import partial
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classify_oracle import oracle_classify
from conftest import group_left_running
from store_oracle import ListRatingStore, oracle_resolve_semantic
from repairkit import assess
from repairkit.assess import (
    CORRECT,
    FAIL,
    FIRST,
    INCORRECT,
    NOT_RUN,
    PASS,
    PENDING,
    TIEBREAK,
    AssessmentVerdict,
    FunctionLocation,
    RatingStore,
    SemanticRating,
    TestRun,
    TestSpec,
    apply_ratings,
    check_plausible,
    classify,
    cohen_kappa,
    exact_match,
    hash_tree,
    resolve_semantic,
)
from repairkit.errors import (
    DuplicateRating,
    InvalidRating,
    NoOverlap,
    ParseError,
    RepairKitError,
    SpliceError,
    StoreError,
)
from repairkit.gen import CandidatePatch
from repairkit.syntax import parser, parses_edit, tokenize
from test_syntax import edits_inside_tokens

PY = shlex.quote(sys.executable)

REFERENCE = "int f() {\n    return a + b;\n}"


class TestExactMatch:
    def test_identical(self):
        assert exact_match(REFERENCE, REFERENCE)

    def test_trailing_space_differs(self):
        assert not exact_match(REFERENCE.replace("a + b;", "a + b; "), REFERENCE)

    def test_crlf_normalized(self):
        assert exact_match(REFERENCE.replace("\n", "\r\n"), REFERENCE)

    def test_indentation_differs(self):
        assert not exact_match(REFERENCE.replace("    ", "  "), REFERENCE)


def _running(pid: int) -> bool:
    """True while the process exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A killed child whose parent is gone stays a zombie until reaped.
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:  # gone in between
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _project(tmp_path, expression="a - b"):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "Lib.java").write_text(
        "class Lib {\n"
        "    static int combine(int a, int b) {\n"
        f"        return {expression};\n"
        "    }\n"
        "}\n",
        encoding="utf-8",
    )
    checker = project / "checker.py"
    checker.write_text(
        "import re, sys\n"
        "src = open('Lib.java').read()\n"
        "m = re.search(r'return\\s+([^;]+);', src)\n"
        "if not m: sys.exit(1)\n"
        "expr = m.group(1).strip()\n"
        "if not re.fullmatch(r'[ab0-9+\\-*() ]+', expr): sys.exit(1)\n"
        "for a, b in [(1, 2), (3, 5)]:\n"
        "    if eval(expr, {'__builtins__': {}}, {'a': a, 'b': b}) != a + b: sys.exit(1)\n"
        "sys.exit(0)\n",
        encoding="utf-8",
    )
    location = FunctionLocation("Lib.java", 2, 4)
    spec = TestSpec(command=f"{PY} checker.py", timeout=30)
    return project, location, spec


GOOD = "    static int combine(int a, int b) {\n        return a + b;\n    }"
BAD = "    static int combine(int a, int b) {\n        return a * b;\n    }"


class TestCheckPlausible:
    def test_reference_candidate_passes(self, tmp_path):
        project, location, spec = _project(tmp_path)
        run = check_plausible(project, location, GOOD, spec)
        assert run.outcome == PASS

    def test_buggy_candidate_fails(self, tmp_path):
        project, location, spec = _project(tmp_path)
        run = check_plausible(project, location, BAD, spec)
        assert run.outcome == FAIL

    def test_tree_restored_bit_identical(self, tmp_path):
        project, location, spec = _project(tmp_path)
        before = hash_tree(project)
        check_plausible(project, location, GOOD, spec)
        check_plausible(project, location, BAD, spec)
        assert hash_tree(project) == before

    def test_timeout_outcome(self, tmp_path):
        project, location, _ = _project(tmp_path)
        spec = TestSpec(command=f"{PY} -c 'import time; time.sleep(60)'", timeout=0.5)
        started = time.monotonic()
        run = check_plausible(project, location, GOOD, spec)
        assert run.outcome == "timeout"
        assert time.monotonic() - started < 30

    def test_timeout_kills_the_commands_children(self, tmp_path):
        # The shell waits on a child that would outlive the timeout; killing
        # only the shell would leave that child running.
        project, location, _ = _project(tmp_path)
        pid_file = tmp_path / "child.pid"
        command = (
            f"{PY} -c 'import time; time.sleep(30)' & "
            f"echo $! > {shlex.quote(str(pid_file))}; wait"
        )
        run = check_plausible(project, location, GOOD, TestSpec(command=command, timeout=1.0))
        assert run.outcome == "timeout"
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)

    def test_timeout_output_is_text(self, tmp_path):
        project, location, _ = _project(tmp_path)
        spec = TestSpec(command="echo started; sleep 30", timeout=1.0)
        run = check_plausible(project, location, GOOD, spec)
        assert (run.outcome, run.output) == ("timeout", "started\n")

    @pytest.mark.parametrize(
        "command, timeout, outcome",
        [("printf 'ok \\377'; exit 1", 30.0, "fail"), ("printf 'ok \\377'; sleep 30", 1.0, "timeout")],
    )
    def test_output_that_is_not_utf8_is_replaced(self, tmp_path, command, timeout, outcome):
        project, location, _ = _project(tmp_path)
        spec = TestSpec(command=command, timeout=timeout)
        run = check_plausible(project, location, GOOD, spec)
        assert (run.outcome, run.output) == (outcome, "ok \ufffd")

    def test_default_timeout_is_300s(self):
        assert TestSpec(command="x").timeout == 300.0

    def test_stale_line_range(self, tmp_path):
        project, location, spec = _project(tmp_path)
        stale = FunctionLocation("Lib.java", 2, 4, expected_text="something else")
        with pytest.raises(SpliceError):
            check_plausible(project, stale, GOOD, spec)

    def test_crlf_project_gets_the_lf_verdicts(self, tmp_path):
        lf_project, _, spec = _project(tmp_path)
        (tmp_path / "crlf").mkdir()
        crlf_project, _, _ = _project(tmp_path / "crlf")
        lib = crlf_project / "Lib.java"
        lib.write_bytes(lib.read_bytes().replace(b"\n", b"\r\n"))
        before = lib.read_bytes()
        # The function text as the manifest loader reads it: universal newlines.
        text = "\n".join(lib.read_text(encoding="utf-8").split("\n")[1:4])
        location = FunctionLocation("Lib.java", 2, 4, expected_text=text)
        outcomes = [
            check_plausible(project, location, candidate, spec).outcome
            for project in (lf_project, crlf_project)
            for candidate in (GOOD, BAD)
        ]
        assert outcomes == [PASS, FAIL, PASS, FAIL]
        assert lib.read_bytes() == before

    def test_artifact_writing_suite_keeps_project_clean(self, tmp_path):
        project, location, _ = _project(tmp_path)
        writer = f"{PY} -c \"open('build.log', 'w').write('x')\""
        run = check_plausible(project, location, GOOD, TestSpec(command=writer, timeout=30))
        assert run.outcome == PASS
        assert not (project / "build.log").exists()

    def test_range_outside_file(self, tmp_path):
        project, _, spec = _project(tmp_path)
        with pytest.raises(SpliceError):
            check_plausible(project, FunctionLocation("Lib.java", 2, 400), GOOD, spec)

    def test_missing_file(self, tmp_path):
        project, _, spec = _project(tmp_path)
        with pytest.raises(SpliceError):
            check_plausible(project, FunctionLocation("Gone.java", 1, 1), GOOD, spec)

    def test_a_project_that_cannot_be_copied_is_named_by_its_own_path(self, tmp_path):
        # copytree's error lists each file with the path of its copy, which
        # lies in a fresh temporary directory on every call.
        project, location, spec = _project(tmp_path)
        pipe = project / "pipe"
        os.mkfifo(pipe)
        with pytest.raises(shutil.Error) as info:
            check_plausible(project, location, GOOD, spec)
        assert str(info.value) == f"{pipe}: `{pipe}` is a named pipe"


class TestRunner:
    """What `check_plausible`'s runner leaves behind: nothing."""

    def test_detached_child_is_gone_when_the_verdict_returns(self, tmp_path):
        project, location, _ = _project(tmp_path)
        pgid = tmp_path / "pgid"
        command = f"sleep 30 >/dev/null 2>&1 & echo $$ > {shlex.quote(str(pgid))}; exit 0"
        run = check_plausible(project, location, GOOD, TestSpec(command=command, timeout=30))
        assert run.outcome == PASS
        assert not group_left_running(int(pgid.read_text()))

    def test_child_holding_stdout_does_not_hold_the_verdict(self, tmp_path):
        project, location, _ = _project(tmp_path)
        pgid = tmp_path / "pgid"
        command = f"sleep 30 & echo $$ > {shlex.quote(str(pgid))}; exit 0"
        started = time.monotonic()
        run = check_plausible(project, location, GOOD, TestSpec(command=command, timeout=5))
        assert (run.outcome, time.monotonic() - started < 1) == (PASS, True)
        assert not group_left_running(int(pgid.read_text()))

    def test_suite_that_reads_stdin_gets_end_of_file(self, tmp_path):
        project, location, _ = _project(tmp_path)
        spec = TestSpec(command="cat; echo read to the end", timeout=30)
        started = time.monotonic()
        run = check_plausible(project, location, GOOD, spec)
        assert (run.outcome, run.output) == (PASS, "read to the end\n")
        assert time.monotonic() - started < 5

    def test_interrupt_while_waiting_kills_the_group(self, tmp_path):
        pgid = tmp_path / "pgid"
        command = "sleep 30 & echo $$ > pgid.tmp && mv pgid.tmp pgid; wait"
        waiting = threading.get_ident()

        def interrupt():  # a Ctrl-C, which reaches the waiting thread
            give_up = time.monotonic() + 10
            while not pgid.exists() and time.monotonic() < give_up:
                time.sleep(0.01)
            signal.pthread_kill(waiting, signal.SIGINT)

        thread = threading.Thread(target=interrupt)
        thread.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                assess._run(command, tmp_path, 30)
        finally:
            thread.join()
        assert not group_left_running(int(pgid.read_text()))


class TestVerdictInvariants:
    def test_exact_implies_ast(self):
        with pytest.raises(ValueError):
            AssessmentVerdict(0, True, PASS, exact=True, ast=False)

    def test_exact_cannot_be_semantically_incorrect(self):
        with pytest.raises(ValueError):
            AssessmentVerdict(0, True, PASS, True, True, semantic=INCORRECT)

    @pytest.mark.parametrize("rank", [-1, -3, -0.5])
    def test_negative_rank_rejected(self, rank):
        with pytest.raises(ValueError, match="candidate ranks start at 0"):
            AssessmentVerdict(rank, True, PASS, True, True)
        with pytest.raises(ValueError, match="candidate ranks start at 0"):
            CandidatePatch(rank, "x", reconstructed="x")


class TestClassify:
    def _candidate(self, text, rank=0):
        return CandidatePatch(rank, text, reconstructed=text)

    def test_exact_candidate_skips_test_run(self, tmp_path):
        # The test command would fail loudly if executed.
        project, location, _ = _project(tmp_path)
        spec = TestSpec(command=f"{PY} -c 'raise SystemExit(1)'")
        test = partial(check_plausible, str(project), location, spec=spec)
        fn_text = (
            "    static int combine(int a, int b) {\n        return a - b;\n    }"
        )
        [verdict] = classify([self._candidate(fn_text)], fn_text, test)
        assert verdict.exact and verdict.ast
        assert verdict.plausible == PASS  # by fiat, without running the tests

    def test_reformatted_reference_is_plausible_ast_not_exact(self, tmp_path):
        project, location, spec = _project(tmp_path)
        test = partial(check_plausible, str(project), location, spec=spec)
        reformatted = "    static int combine(int a, int b) { return a + b; }"
        [verdict] = classify([self._candidate(reformatted)], GOOD, test)
        assert verdict.plausible == PASS
        assert not verdict.exact
        assert verdict.ast

    def test_failing_candidate_skips_ast(self, tmp_path):
        project, location, spec = _project(tmp_path)
        test = partial(check_plausible, str(project), location, spec=spec)
        [verdict] = classify([self._candidate(BAD)], GOOD, test)
        assert verdict.plausible == FAIL
        assert not verdict.ast  # tier gating: AST applies to plausible patches

    def test_reconstruction_failure_scores_nothing(self):
        broken = CandidatePatch(0, "raw", reconstruct_error="MalformedOutput")
        [verdict] = classify([broken], GOOD, None)
        assert (verdict.parse_ok, verdict.plausible, verdict.exact, verdict.ast) == (
            False,
            NOT_RUN,
            False,
            False,
        )

    def test_unparsable_plausible_candidate_records_parse_failure(self, tmp_path):
        # Tests are ground truth: a candidate our parser rejects still runs.
        project, location, spec = _project(tmp_path)
        test = partial(check_plausible, str(project), location, spec=spec)
        weird = "    static int combine(int a, int b) {\n        return a + b;\n    }}}"
        [verdict] = classify([self._candidate(weird)], GOOD, test)
        assert not verdict.parse_ok
        assert not verdict.ast

    def test_deep_nesting_is_a_parse_failure(self):
        # The parser recurses once per nesting level.
        deep = REFERENCE.replace("a + b", "(" * 5000 + "a - b" + ")" * 5000)
        other = REFERENCE.replace("a + b", "b + a")
        verdicts = classify([self._candidate(deep), self._candidate(other, 1)], REFERENCE)
        assert [v.parse_ok for v in verdicts] == [False, True]
        assert [v.ast for v in verdicts] == [False, False]

    def test_no_plan_leaves_plausibility_not_run(self):
        reformatted = "int f() { return a + b; }"
        [verdict] = classify([self._candidate(reformatted)], REFERENCE, None)
        assert verdict.plausible == NOT_RUN
        assert verdict.ast  # still computable offline

    def test_deterministic(self, tmp_path):
        project, location, spec = _project(tmp_path)
        test = partial(check_plausible, str(project), location, spec=spec)
        candidates = [self._candidate(GOOD, 0), self._candidate(BAD, 1)]
        first = classify(candidates, GOOD, test)
        second = classify(candidates, GOOD, test)
        assert first == second

    @pytest.fixture
    def work(self, monkeypatch):
        """The texts classify lexes in full, those it lexes against the
        reference, those whose tokens it splices, the sources it parses
        whole, and the verdicts of `parses_edit`, in order.

        A parse that lexes its source again would show in `lexed` too.
        """
        work = SimpleNamespace(lexed=[], edited=[], spliced=[], parsed=[], decided=[])

        def logged(fn, log, position, read=lambda arg: arg):
            def wrapper(*args):
                log.append(read(args[position]))
                return fn(*args)

            return wrapper

        def deciding(*args):
            work.decided.append(parses_edit(*args))
            return work.decided[-1]

        monkeypatch.setattr(assess, "tokenize", logged(assess.tokenize, work.lexed, 0))
        monkeypatch.setattr(assess, "lex_window", logged(assess.lex_window, work.edited, 1))
        spliced = logged(assess.splice, work.spliced, 3, lambda window: window.source)
        monkeypatch.setattr(assess, "splice", spliced)
        monkeypatch.setattr(parser, "tokenize", logged(parser.tokenize, work.lexed, 0))
        monkeypatch.setattr(assess, "parse", logged(assess.parse, work.parsed, 0))
        monkeypatch.setattr(assess, "parses_edit", deciding)
        return work

    def test_parses_each_source_once(self, work):
        reformatted = "int f() { return a + b; }"
        renamed = "int f() {\n    return a + c;\n}"
        unbalanced = "int f() {\n    return a + b);\n}"
        commented = REFERENCE + " // done"
        truncated = "int f() {\n    return a + b;"
        unlexable = 'int f() {\n    return "a + b;\n}'
        candidates = [
            self._candidate(REFERENCE, 0),
            self._candidate(reformatted, 1),
            self._candidate(renamed, 2),
            self._candidate(unbalanced, 3),
            self._candidate(commented, 4),
            self._candidate(truncated, 5),
            self._candidate(unlexable, 6),
            CandidatePatch(7, "raw", reconstruct_error="MalformedOutput"),
        ]
        verdicts = classify(candidates, REFERENCE, None)
        assert [v.ast for v in verdicts] == [True, True, False, False, True, False, False, False]
        assert [v.parse_ok for v in verdicts] == [True, True, True, False, True, False, False, False]
        # The reference is lexed in full once, each candidate once against it.
        assert work.lexed == [REFERENCE]
        assert work.edited == [reformatted, renamed, unbalanced, commented, truncated, unlexable]
        # Only the candidates whose tokens differ from the reference's are
        # spliced; those token-equal to it, and the one that does not lex, never.
        assert work.spliced == [renamed, unbalanced, truncated]
        # The reference is parsed whole once. Of the candidates whose tokens
        # differ from the reference's, only the one whose edit cannot be
        # re-parsed alone is parsed whole; one that does not lex never is.
        assert work.parsed == [REFERENCE, truncated]
        assert work.decided == [True, False, None]

    def test_reference_parsed_only_when_needed(self, work):
        renamed = "int f() {\n    return a + c;\n}"
        candidates = [
            self._candidate(REFERENCE, 0),
            self._candidate(renamed, 1),
            CandidatePatch(2, "raw", reconstruct_error="MalformedOutput"),
        ]
        classify(candidates, REFERENCE, None)
        assert (work.lexed, work.edited, work.parsed) == ([REFERENCE], [renamed], [REFERENCE])
        assert work.spliced == [renamed] and work.decided == [True]
        work.lexed.clear()
        work.edited.clear()
        work.spliced.clear()
        work.parsed.clear()
        classify([candidates[0], candidates[2]], REFERENCE, None)
        assert work.lexed == work.edited == work.spliced == work.parsed == []

    def test_token_equal_candidates_are_tested_once(self, tmp_path):
        project, location, spec = _project(tmp_path)
        tested = []

        def counting_test(candidate):
            tested.append(candidate)
            return check_plausible(project, location, candidate, spec)

        reformatted = "    static int combine(int a, int b) { return a + b; }"
        unlexable = "    static int combine(int a, int b) {\n        return a + b; /*\n    }"
        candidates = [
            self._candidate(reformatted, 0),
            self._candidate(reformatted + " // same tokens", 1),
            self._candidate(BAD, 2),
            self._candidate(BAD.replace("a * b", "a*b"), 3),
            self._candidate(unlexable, 4),
            self._candidate(unlexable, 5),  # tested on its own: it does not lex
            self._candidate(GOOD, 6),  # exact: not tested
        ]
        verdicts = classify(candidates, GOOD, counting_test)
        assert tested == [reformatted, BAD, unlexable, unlexable]
        assert [v.plausible for v in verdicts] == [PASS, PASS, FAIL, FAIL, PASS, PASS, PASS]
        assert [v.ast for v in verdicts] == [True, True, False, False, False, False, True]

    def test_unparsable_reference_raises_once_needed(self):
        unparsable = "int broken("
        exact = self._candidate(unparsable, 0)
        assert classify([exact], unparsable, None)[0].exact
        with pytest.raises(ParseError):
            classify([exact, self._candidate(REFERENCE, 1)], unparsable, None)


# --------------------------------------------------------------------------
# classify against the implementation that lexed and parsed every candidate

ORACLE_REFERENCES = [
    REFERENCE,
    GOOD,
    "class K {\n    /* note */\n    int g(String s) {\n        return s.length();\n    }\n}",
    "int f() {\n    String t = \"\"\"\n        block\n        \"\"\";\n    return t.length();\n}",
    "int broken(",  # lexes, does not parse
    "int f() {\n    return a + b;\n}}",
    'int f() {\n    return "a + b;\n}',  # does not lex
    "int f() {\n    /* open\n}",
]

_EDIT_PIECES = [
    "", "return a - b;", "return a + b;", "}", "{", "/*", "*/", "// c", '"', "'",
    '"""', "\\", "\r", " ", "\t", "é", "int c = 0;", "if (a) b();", "a + c",
]


@st.composite
def _candidate_text(draw, reference):
    """An exact, CRLF, re-spaced, commented or line-edited copy of the
    reference, or another reference."""
    kind = draw(st.sampled_from(["exact", "crlf", "respaced", "comment", "edit", "other"]))
    if kind == "exact":
        return reference
    if kind == "crlf":
        return reference.replace("\n", "\r\n")
    if kind == "respaced":
        return reference.replace(" ", draw(st.sampled_from(["  ", "\n", "\t"])))
    if kind == "comment":
        return reference + draw(st.sampled_from([" // c", "\n/* c */", " "]))
    if kind == "other":
        return draw(st.sampled_from(ORACLE_REFERENCES))
    lines = reference.split("\n")
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        piece = "".join(draw(st.lists(st.sampled_from(_EDIT_PIECES), max_size=2)))
        action = draw(st.sampled_from(["insert", "delete", "replace", "splice"]))
        if action == "insert":
            lines.insert(at, piece)
        elif action == "delete" and len(lines) > 1:
            del lines[at]
        elif action == "replace":
            lines[at] = piece
        else:
            column = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:column] + piece + lines[at][column:]
    return "\n".join(lines)


@st.composite
def _classify_inputs(draw):
    reference = draw(st.sampled_from(ORACLE_REFERENCES))
    texts = draw(st.lists(st.one_of(st.none(), _candidate_text(reference)), max_size=8))
    candidates = [
        CandidatePatch(rank, "raw", reconstructed=text)
        if text is not None
        else CandidatePatch(rank, "raw", reconstruct_error="MalformedOutput")
        for rank, text in enumerate(texts)
    ]
    return candidates, reference, _fake_test if draw(st.booleans()) else None


def _fake_test(candidate):
    """A suite whose outcome, or SpliceError, follows from the candidate's
    token texts when it lexes, else from its text."""
    try:
        basis = "\0".join(tokenize(candidate).key())
    except ParseError:
        basis = candidate
    digest = zlib.crc32(basis.encode())
    if digest % 13 == 0:
        raise SpliceError(f"stale line range ({digest})")
    return TestRun(PASS if digest % 3 else FAIL, "")


def _classified(classify_fn, candidates, reference, test):
    try:
        return classify_fn(candidates, reference, test)
    except RepairKitError as exc:
        return type(exc), str(exc)


# References with comments on the lines next to an edit, at their starts
# and ends, and across lines, in LF and CRLF forms.
COMMENTED_REFERENCES = [
    base.replace("\n", eol)
    for eol in ["\n", "\r\n"]
    for base in [
        "int f() {\n    // lead\n    int a = 1; /* mid */\n    return a + b; // tail\n}",
        "/* head */ int f() { // open\n    /* one\n       two */ return a;\n    // last\n}",
        "// only\nint f() {\n    return a; }  // end  ",
        "int f() {\n    /* a */ int c = 0; /* b */\n    // c\n    return c; /* d\n */ }\n",
    ]
]

_COMMENT_PIECES = ["// c", "// d ", "/* c */", "/* d */", " ", "\t", "/*", "*/"]


@st.composite
def _recommented(draw, reference):
    """The reference with its comments changed, removed or added on some
    lines, and maybe a line edit, in the reference's line endings or the
    other's."""
    eol = "\r\n" if "\r\n" in reference else "\n"
    lines = reference.split(eol)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        action = draw(st.sampled_from(["strip", "recomment", "append", "prepend", "edit"]))
        if action == "strip" and "//" in line:
            lines[at] = line[: line.index("//")]
        elif action == "recomment":
            lines[at] = line.replace("/* mid */", "/* other */").replace("// ", "//x ")
        elif action == "append":
            lines[at] = line + " " + draw(st.sampled_from(_COMMENT_PIECES))
        elif action == "prepend":
            lines[at] = draw(st.sampled_from(_COMMENT_PIECES)) + " " + line
        else:
            piece = draw(st.sampled_from([*_EDIT_PIECES, *_COMMENT_PIECES]))
            column = draw(st.integers(0, len(line)))
            lines[at] = line[:column] + piece + line[column:]
    return draw(st.sampled_from([eol, "\n", "\r\n"])).join(lines)


@st.composite
def _commented_classify_inputs(draw):
    reference = draw(st.sampled_from(COMMENTED_REFERENCES))
    texts = draw(st.lists(_recommented(reference), min_size=1, max_size=6))
    candidates = [CandidatePatch(rank, "raw", reconstructed=text) for rank, text in enumerate(texts)]
    return candidates, reference, _fake_test if draw(st.booleans()) else None


# References with a block comment, a text block, a string escaping a
# newline, and a comment that starts on a line another one ends on.
SPANNING_REFERENCES = [
    "int f() {\n    /* one\n       two */ int a = 1;\n    return a + b;\n}",
    'int f() {\n    String t = """\n        one\n        two\n        """;\n    return t.length();\n}',
    'int f() {\n    String s = "a\\\n    b";\n    return s.length();\n}',
    "/** Doc.\n *\n */ int f() { /* a\n */ /* b\n c */\n    return a;\n}",
]


@st.composite
def _spanning_classify_inputs(draw):
    """Candidates whose first changed line starts inside a reference token."""
    reference = draw(st.sampled_from(SPANNING_REFERENCES))
    edits = edits_inside_tokens(st.just(reference), _EDIT_PIECES)
    texts = draw(st.lists(edits.map(itemgetter(1)), min_size=1, max_size=4))
    candidates = [CandidatePatch(rank, "raw", reconstructed=text) for rank, text in enumerate(texts)]
    return candidates, reference, _fake_test if draw(st.booleans()) else None


class TestClassifyMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_classify_inputs())
    def test_same_verdicts_or_error(self, inputs):
        assert _classified(classify, *inputs) == _classified(oracle_classify, *inputs)

    @settings(max_examples=300, deadline=None)
    @given(inputs=_commented_classify_inputs())
    def test_comments_at_the_edges_of_the_edit(self, inputs):
        assert _classified(classify, *inputs) == _classified(oracle_classify, *inputs)

    @settings(max_examples=200, deadline=None)
    @given(inputs=_spanning_classify_inputs())
    def test_edits_inside_tokens(self, inputs):
        assert _classified(classify, *inputs) == _classified(oracle_classify, *inputs)


class TestRatings:
    def test_record_and_resolve_agreement(self):
        store = RatingStore()
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        assert resolve_semantic(store, "b", 0) == PENDING  # one rating only
        store.add(SemanticRating("b", 0, "bob", CORRECT))
        assert resolve_semantic(store, "b", 0) == CORRECT

    def test_disagreement_needs_tiebreak(self):
        store = RatingStore()
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        store.add(SemanticRating("b", 0, "bob", INCORRECT))
        assert resolve_semantic(store, "b", 0) == PENDING
        store.add(SemanticRating("b", 0, "carol", INCORRECT, round=TIEBREAK))
        assert resolve_semantic(store, "b", 0) == INCORRECT

    def test_duplicate_rejected(self):
        store = RatingStore()
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        with pytest.raises(DuplicateRating):
            store.add(SemanticRating("b", 0, "alice", INCORRECT))

    def test_tiebreak_without_disagreement_rejected(self):
        store = RatingStore()
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        store.add(SemanticRating("b", 0, "bob", CORRECT))
        with pytest.raises(InvalidRating):
            store.add(SemanticRating("b", 0, "carol", INCORRECT, round=TIEBREAK))

    def test_negative_rank_rejected(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        store = RatingStore(path)
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        before = path.read_bytes()
        with pytest.raises(InvalidRating):
            store.add(SemanticRating("b", -5, "alice", CORRECT))
        assert path.read_bytes() == before
        assert len(store) == 1

    def test_file_backing_round_trips(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        store = RatingStore(path)
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        store.add(SemanticRating("b", 0, "bob", INCORRECT))
        reloaded = RatingStore(path)
        assert len(reloaded) == 2
        assert resolve_semantic(reloaded, "b", 0) == PENDING

    def test_failed_write_leaves_no_rating_and_can_be_retried(self, tmp_path):
        path = tmp_path / "missing" / "ratings.jsonl"
        store = RatingStore(path)
        rating = SemanticRating("b", 0, "alice", CORRECT)
        with pytest.raises(FileNotFoundError):
            store.add(rating)
        assert len(store) == 0
        path.parent.mkdir()
        store.add(rating)
        assert len(RatingStore(path)) == 1

    def test_torn_last_line_is_skipped_then_cut(self, tmp_path, caplog):
        path = tmp_path / "ratings.jsonl"
        RatingStore(path).add(SemanticRating("b", 0, "alice", CORRECT))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"bug_id": "b", "rank": 0, "ra')  # a crash mid-append
        with caplog.at_level(logging.WARNING, logger="repairkit.jsonl"):
            store = RatingStore(path)
        assert "torn last line" in caplog.text
        assert [r.rater for r in store] == ["alice"]
        store.add(SemanticRating("b", 0, "bob", CORRECT))
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 3  # one line per rating, no fragment
        assert resolve_semantic(RatingStore(path), "b", 0) == CORRECT

    def test_bad_line_mid_file_still_raises(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        RatingStore(path).add(SemanticRating("b", 0, "alice", CORRECT))
        path.write_text('{"bug_id": "b", "ra\n' + path.read_text(encoding="utf-8"))
        with pytest.raises(ValueError):
            RatingStore(path)

    def test_second_rating_by_one_rater_in_a_file_is_a_store_error(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        RatingStore(path).add(SemanticRating("b", 0, "alice", CORRECT))
        path.write_bytes(path.read_bytes() * 2)  # as two `rate` runs started together write
        with pytest.raises(StoreError) as info:
            RatingStore(path)
        assert (info.value.path, info.value.line) == (path, 2)
        assert str(info.value).endswith(": DuplicateRating: alice already rated b#0 (first round)")

    def test_apply_ratings_fills_resolved_labels(self):
        store = RatingStore()
        for rater in ("alice", "bob"):
            store.add(SemanticRating("b", 1, rater, CORRECT))
        verdicts = [
            AssessmentVerdict(0, True, PASS, False, False),
            AssessmentVerdict(1, True, PASS, False, False),
        ]
        updated = apply_ratings("b", verdicts, store)
        assert updated[0].semantic == "unlabeled"
        assert updated[1].semantic == CORRECT


BUGS, RANKS = ("a", "b"), (0, 1)

_ratings = st.lists(
    st.builds(
        SemanticRating,
        bug_id=st.sampled_from(BUGS),
        rank=st.sampled_from(RANKS),
        rater=st.sampled_from(["r1", "r2", "r3"]),
        label=st.sampled_from([CORRECT, INCORRECT]),
        round=st.sampled_from([FIRST, TIEBREAK]),
        timestamp=st.sampled_from([0.0, 1.5]),
    ),
    max_size=30,
)


def _fields(ratings):
    return [(r.bug_id, r.rank, r.rater, r.label, r.round) for r in ratings]


def _outcome(store, rating):
    try:
        store.add(rating)
    except (DuplicateRating, InvalidRating) as exc:
        return type(exc)
    return "accepted"


def _stored_rating(rank, rater, label, stage="first", bug_id="b", timestamp=1.0):
    return json.dumps(
        {"bug_id": bug_id, "label": label, "rank": rank, "rater": rater, "round": stage,
         "timestamp": timestamp}
    )


# Files that `add` could not have written, and the line a load refuses.
REFUSED_AT_LOAD = {
    "negative-rank": (
        [_stored_rating(-3, "alice", CORRECT), _stored_rating(-3, "carol", INCORRECT, TIEBREAK)],
        1,
        "InvalidRating: rank -3 of b: candidate ranks start at 0",
    ),
    "tiebreak-after-agreement": (
        [_stored_rating(0, "alice", CORRECT), _stored_rating(0, "bob", CORRECT),
         _stored_rating(0, "carol", INCORRECT, TIEBREAK)],
        3,
        "InvalidRating: tiebreak ratings only exist where first-round raters disagree",
    ),
    "tiebreak-after-one-rating": (
        [_stored_rating(0, "alice", CORRECT), _stored_rating(0, "carol", INCORRECT, TIEBREAK)],
        2,
        "InvalidRating: tiebreak ratings only exist where first-round raters disagree",
    ),
    # Both would index as candidate #1 and resolve it as correct.
    "bool-rank": (
        [_stored_rating(True, "alice", CORRECT), _stored_rating(1.0, "bob", CORRECT)],
        1,
        "InvalidRating: rank True of b: candidate ranks are integers",
    ),
    "float-rank": (
        [_stored_rating(1, "alice", CORRECT), _stored_rating(1.0, "bob", CORRECT)],
        2,
        "InvalidRating: rank 1.0 of b: candidate ranks are integers",
    ),
    # Neither would match a string bug id or rater.
    "int-bug-id": (
        [_stored_rating(0, "alice", CORRECT, bug_id=5)],
        1,
        "TypeError: bug_id must be a string, not 5",
    ),
    "int-rater": (
        [_stored_rating(0, "alice", CORRECT), _stored_rating(0, 7, CORRECT)],
        2,
        "TypeError: rater must be a string, not 7",
    ),
    # Each would load, and `kappa` would read the store.
    "text-timestamp": (
        [_stored_rating(0, "alice", CORRECT), _stored_rating(0, "bob", CORRECT, timestamp="now")],
        2,
        "TypeError: timestamp must be a number, not 'now'",
    ),
    "null-timestamp": (
        [_stored_rating(0, "alice", CORRECT, timestamp=None)],
        1,
        "TypeError: timestamp must be a number, not None",
    ),
    "bool-timestamp": (
        [_stored_rating(0, "alice", CORRECT, timestamp=True)],
        1,
        "TypeError: timestamp must be a number, not True",
    ),
}


class TestRatingRulesAtLoad:
    @pytest.mark.parametrize("kind", sorted(REFUSED_AT_LOAD))
    def test_row_that_add_refuses_is_a_store_error(self, tmp_path, kind):
        lines, line, reason = REFUSED_AT_LOAD[kind]
        path = tmp_path / "ratings.jsonl"
        path.write_text("".join(f"{text}\n" for text in lines), encoding="utf-8")
        with pytest.raises(StoreError) as info:
            RatingStore(path)
        assert (info.value.path, info.value.line) == (path, line)
        assert str(info.value).endswith(f": {reason}")

    def test_tiebreak_after_disagreement_loads(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        lines = [_stored_rating(0, "alice", CORRECT), _stored_rating(0, "bob", INCORRECT),
                 _stored_rating(0, "carol", INCORRECT, TIEBREAK)]
        path.write_text("".join(f"{text}\n" for text in lines), encoding="utf-8")
        assert resolve_semantic(RatingStore(path), "b", 0) == INCORRECT

    def test_refused_or_failed_add_leaves_the_index_as_it_was(self, tmp_path):
        store = RatingStore(tmp_path / "ratings.jsonl")
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        index = {key: list(raters) for key, raters in store._by_round.items()}
        for rating, error in [
            (SemanticRating("b", -1, "bob", CORRECT), InvalidRating),
            (SemanticRating("b", 0, "alice", INCORRECT), DuplicateRating),
            (SemanticRating("b", 0, "carol", INCORRECT, round=TIEBREAK), InvalidRating),
            (SemanticRating("b", 3, "carol", INCORRECT, round=TIEBREAK), InvalidRating),
            (SemanticRating("b", "0", "bob", CORRECT), TypeError),
            (SemanticRating("b", False, "bob", CORRECT), InvalidRating),
            (SemanticRating("b", 0.0, "bob", CORRECT), InvalidRating),
            (SemanticRating(5, 0, "bob", CORRECT), TypeError),
            (SemanticRating("b", 0, 7, CORRECT), TypeError),
            (SemanticRating("b", 0, "bob", CORRECT, timestamp="yesterday"), TypeError),
            (SemanticRating("b", 0, "bob", CORRECT, timestamp=None), TypeError),
        ]:
            with pytest.raises(error):
                store.add(rating)
        assert store._by_round == index
        unwritable = RatingStore(tmp_path / "missing" / "ratings.jsonl")
        with pytest.raises(FileNotFoundError):
            unwritable.add(SemanticRating("b", 0, "alice", CORRECT))
        assert unwritable._by_round == {}


class TestRatingStoreMatchesOracle:
    """The indexed store against a list scan of the old store."""

    @settings(max_examples=200, deadline=None)
    @given(ratings=_ratings)
    def test_same_outcomes_rounds_and_resolution(self, ratings):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ratings.jsonl"
            store, oracle = RatingStore(path), ListRatingStore()
            for rating in ratings:
                assert _outcome(store, rating) == _outcome(oracle, rating)
            assert all(r.timestamp != 0.0 for r in store)
            for current in (store, RatingStore(path)):  # as added, and reloaded
                assert _fields(current) == _fields(oracle.ratings)
                # Each round's index entry holds what the oracle's scan finds,
                # in order, and the index holds no rating twice.
                assert sum(map(len, current._by_round.values())) == len(current)
                for bug_id in BUGS:
                    for rank in RANKS:
                        rounds = ((FIRST, oracle.first_round), (TIEBREAK, oracle.tiebreaks))
                        for stage, scan in rounds:
                            indexed = current._by_round.get((bug_id, rank, stage), [])
                            assert _fields(indexed) == _fields(scan(bug_id, rank))
                        assert resolve_semantic(current, bug_id, rank) == (
                            oracle_resolve_semantic(oracle, bug_id, rank)
                        )


class TestCohenKappa:
    def _store(self, pairs):
        store = RatingStore()
        for index, (a_label, b_label) in enumerate(pairs):
            store.add(SemanticRating(f"bug{index}", 0, "a", a_label))
            store.add(SemanticRating(f"bug{index}", 0, "b", b_label))
        return store

    def test_perfect_agreement_mixed_labels(self):
        store = self._store([(CORRECT, CORRECT), (INCORRECT, INCORRECT)])
        result = cohen_kappa(store, "a", "b")
        assert result.kappa == 1.0
        assert result.observed_agreement == 1.0

    def test_chance_level_agreement_is_zero(self):
        # Independent 50/50 raters agreeing half the time: p_o = p_e = 0.5.
        store = self._store(
            [
                (CORRECT, CORRECT),
                (CORRECT, INCORRECT),
                (INCORRECT, CORRECT),
                (INCORRECT, INCORRECT),
            ]
        )
        assert cohen_kappa(store, "a", "b").kappa == pytest.approx(0.0)

    def test_symmetry(self):
        store = self._store([(CORRECT, INCORRECT), (CORRECT, CORRECT), (INCORRECT, INCORRECT)])
        assert cohen_kappa(store, "a", "b").kappa == pytest.approx(
            cohen_kappa(store, "b", "a").kappa
        )

    def test_self_comparison_is_one(self):
        store = RatingStore()
        store.add(SemanticRating("b", 0, "a", CORRECT))
        assert cohen_kappa(store, "a", "a").kappa == 1.0

    def test_no_overlap(self):
        store = RatingStore()
        store.add(SemanticRating("b1", 0, "a", CORRECT))
        store.add(SemanticRating("b2", 0, "b", CORRECT))
        with pytest.raises(NoOverlap):
            cohen_kappa(store, "a", "b")

    def test_single_label_raters_in_full_agreement(self):
        # Both marginals are 100% "correct", so p_e = 1; that is only
        # reachable when p_o = 1 as well (p_e = 1 forces both raters onto
        # the same single label), and the defined value there is 1.
        store = self._store([(CORRECT, CORRECT), (CORRECT, CORRECT)])
        assert cohen_kappa(store, "a", "b").kappa == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([CORRECT, INCORRECT]), st.sampled_from([CORRECT, INCORRECT])),
            min_size=1,
            max_size=12,
        )
    )
    def test_kappa_is_defined_for_every_overlap(self, pairs):
        # Chance agreement reaches 1 only when both raters gave every item
        # one and the same label, and then they agree on every item.
        result = cohen_kappa(self._store(pairs), "a", "b")
        n = len(pairs)
        chance = sum(
            sum(a == label for a, _ in pairs) / n * (sum(b == label for _, b in pairs) / n)
            for label in (CORRECT, INCORRECT)
        )
        assert result.items == n
        assert result.observed_agreement == sum(a == b for a, b in pairs) / n
        if chance == 1.0:
            assert (result.kappa, result.observed_agreement) == (1.0, 1.0)
        else:
            assert -1.0 <= result.kappa <= 1.0
