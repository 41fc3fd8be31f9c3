"""Match oracles, plausibility execution, ratings, kappa, and classify."""
import shlex
import sys
import time
from collections import Counter

import pytest

from repairkit.assess import (
    CORRECT,
    FAIL,
    INCORRECT,
    NOT_RUN,
    PASS,
    PENDING,
    TIEBREAK,
    AssessmentVerdict,
    FunctionLocation,
    ParseFailure,
    PlausibilityPlan,
    RatingStore,
    SemanticRating,
    TestSpec,
    apply_ratings,
    ast_match,
    check_plausible,
    classify,
    cohen_kappa,
    exact_match,
    hash_tree,
    record_rating,
    resolve_semantic,
)
from repairkit.errors import (
    DegenerateMarginals,
    DuplicateRating,
    InvalidRating,
    NoOverlap,
    ParseError,
    SpliceError,
)
from repairkit.gen import CandidatePatch
from repairkit.syntax import parser

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


class TestAstMatch:
    def test_reformatted_candidate_matches(self):
        candidate = "int f() { return a + b; }"
        assert ast_match(candidate, REFERENCE) is True

    def test_comment_only_difference_matches(self):
        assert ast_match(REFERENCE + " // done", REFERENCE) is True

    def test_renamed_identifier_differs(self):
        assert ast_match(REFERENCE.replace("a + b", "a + c"), REFERENCE) is False

    def test_unparsable_candidate_is_falsy_parse_failure(self):
        verdict = ast_match("int f() { return", REFERENCE)
        assert isinstance(verdict, ParseFailure)
        assert not verdict

    def test_unparsable_reference_raises(self):
        with pytest.raises(ParseError):
            ast_match(REFERENCE, "int broken(")


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

    def test_default_timeout_is_300s(self):
        assert TestSpec(command="x").timeout == 300.0

    def test_build_error_outcome(self, tmp_path):
        project, location, _ = _project(tmp_path)
        spec = TestSpec(
            command=f"{PY} checker.py",
            build_command=f"{PY} -c 'raise SystemExit(2)'",
            timeout=30,
        )
        run = check_plausible(project, location, GOOD, spec)
        assert run.outcome == "build-error"

    def test_stale_line_range(self, tmp_path):
        project, location, spec = _project(tmp_path)
        stale = FunctionLocation("Lib.java", 2, 4, expected_text="something else")
        with pytest.raises(SpliceError):
            check_plausible(project, stale, GOOD, spec)

    def test_env_denylist_strips_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SENSITIVE_TOKEN", "secret")
        project, location, _ = _project(tmp_path)
        probe = (
            f"{PY} -c \"import os, sys; sys.exit(0 if 'SENSITIVE_TOKEN' not in os.environ else 1)\""
        )
        run = check_plausible(
            project, location, GOOD,
            TestSpec(command=probe, timeout=30, env_denylist=("SENSITIVE_TOKEN",)),
        )
        assert run.outcome == PASS

    def test_flaky_retry_count(self, tmp_path):
        # The command fails until a marker file exists, then passes; one
        # retry turns the flake into a pass. Default is zero retries, and
        # the marker never leaks out of the discarded clone.
        project, location, _ = _project(tmp_path)
        flaky = (
            f"{PY} -c \"import os, sys; p='marker';"
            " (os.path.exists(p) and sys.exit(0));"
            " open(p, 'w').close(); sys.exit(1)\""
        )
        run = check_plausible(
            project, location, GOOD, TestSpec(command=flaky, timeout=30, retries=1)
        )
        assert run.outcome == PASS
        run = check_plausible(
            project, location, GOOD, TestSpec(command=flaky, timeout=30)
        )
        assert run.outcome == FAIL
        assert not (project / "marker").exists()

    def test_in_place_isolation_restores_bytes(self, tmp_path):
        project, location, spec = _project(tmp_path)
        in_place = TestSpec(
            command=spec.command, timeout=30, isolation="in-place"
        )
        before = (project / "Lib.java").read_bytes()
        run = check_plausible(project, location, GOOD, in_place)
        assert run.outcome == PASS
        assert run.workdir == str(project)  # ran against the tree itself
        assert (project / "Lib.java").read_bytes() == before

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


class TestVerdictInvariants:
    def test_exact_implies_ast(self):
        with pytest.raises(ValueError):
            AssessmentVerdict("b", 0, True, PASS, exact=True, ast=False)

    def test_exact_cannot_be_semantically_incorrect(self):
        with pytest.raises(ValueError):
            AssessmentVerdict("b", 0, True, PASS, True, True, semantic=INCORRECT)


class TestClassify:
    def _candidate(self, text, rank=0):
        return CandidatePatch("bug", rank, text, reconstructed=text)

    def test_exact_candidate_skips_test_run(self, tmp_path):
        # The plan's command would fail loudly if executed.
        project, location, _ = _project(tmp_path)
        plan = PlausibilityPlan(
            str(project), location, TestSpec(command=f"{PY} -c 'raise SystemExit(1)'")
        )
        fn_text = (
            "    static int combine(int a, int b) {\n        return a - b;\n    }"
        )
        [verdict] = classify("bug", [self._candidate(fn_text)], fn_text, plan)
        assert verdict.exact and verdict.ast
        assert verdict.plausible == PASS  # by fiat, without running the tests

    def test_reformatted_reference_is_plausible_ast_not_exact(self, tmp_path):
        project, location, spec = _project(tmp_path)
        plan = PlausibilityPlan(str(project), location, spec)
        reformatted = "    static int combine(int a, int b) { return a + b; }"
        [verdict] = classify("bug", [self._candidate(reformatted)], GOOD, plan)
        assert verdict.plausible == PASS
        assert not verdict.exact
        assert verdict.ast

    def test_failing_candidate_skips_ast(self, tmp_path):
        project, location, spec = _project(tmp_path)
        plan = PlausibilityPlan(str(project), location, spec)
        [verdict] = classify("bug", [self._candidate(BAD)], GOOD, plan)
        assert verdict.plausible == FAIL
        assert not verdict.ast  # tier gating: AST applies to plausible patches

    def test_reconstruction_failure_scores_nothing(self):
        broken = CandidatePatch("bug", 0, "raw", reconstruct_error="MalformedOutput")
        [verdict] = classify("bug", [broken], GOOD, None)
        assert (verdict.parse_ok, verdict.plausible, verdict.exact, verdict.ast) == (
            False,
            NOT_RUN,
            False,
            False,
        )

    def test_unparsable_plausible_candidate_records_parse_failure(self, tmp_path):
        # Tests are ground truth: a candidate our parser rejects still runs.
        project, location, spec = _project(tmp_path)
        plan = PlausibilityPlan(str(project), location, spec)
        weird = "    static int combine(int a, int b) {\n        return a + b;\n    }}}"
        [verdict] = classify("bug", [self._candidate(weird)], GOOD, plan)
        assert not verdict.parse_ok
        assert not verdict.ast

    def test_no_plan_leaves_plausibility_not_run(self):
        reformatted = "int f() { return a + b; }"
        [verdict] = classify("bug", [self._candidate(reformatted)], REFERENCE, None)
        assert verdict.plausible == NOT_RUN
        assert verdict.ast  # still computable offline

    def test_deterministic(self, tmp_path):
        project, location, spec = _project(tmp_path)
        plan = PlausibilityPlan(str(project), location, spec)
        candidates = [self._candidate(GOOD, 0), self._candidate(BAD, 1)]
        first = classify("bug", candidates, GOOD, plan)
        second = classify("bug", candidates, GOOD, plan)
        assert first == second

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Every source the Java frontend parses, in order of parsing."""
        seen = []
        tokenize = parser.tokenize

        def counting_tokenize(source):
            seen.append(source)
            return tokenize(source)

        monkeypatch.setattr(parser, "tokenize", counting_tokenize)
        return seen

    def test_parses_each_source_once(self, parsed):
        reformatted = "int f() { return a + b; }"
        renamed = "int f() { return a + c; }"
        commented = REFERENCE + " // done"
        broken = "int f() { return"
        candidates = [
            self._candidate(REFERENCE, 0),
            self._candidate(reformatted, 1),
            self._candidate(renamed, 2),
            self._candidate(commented, 3),
            self._candidate(broken, 4),
            CandidatePatch("bug", 5, "raw", reconstruct_error="MalformedOutput"),
        ]
        verdicts = classify("bug", candidates, REFERENCE, None)
        assert [v.ast for v in verdicts] == [True, True, False, True, False, False]
        assert [v.parse_ok for v in verdicts] == [True, True, True, True, False, False]
        # One parse per reconstructed, non-exact candidate; one of the reference.
        assert Counter(parsed) == Counter(
            [REFERENCE, reformatted, renamed, commented, broken]
        )

    def test_reference_parsed_only_for_an_ast_verdict(self, parsed):
        broken = "int f() { return"
        candidates = [
            self._candidate(REFERENCE, 0),
            self._candidate(broken, 1),
            CandidatePatch("bug", 2, "raw", reconstruct_error="MalformedOutput"),
        ]
        classify("bug", candidates, REFERENCE, None)
        assert parsed == [broken]
        parsed.clear()
        classify("bug", [candidates[0], candidates[2]], REFERENCE, None)
        assert parsed == []

    def test_unparsable_reference_raises_once_needed(self):
        unparsable = "int broken("
        exact = self._candidate(unparsable, 0)
        assert classify("bug", [exact], unparsable, None)[0].exact
        with pytest.raises(ParseError):
            classify("bug", [exact, self._candidate(REFERENCE, 1)], unparsable, None)


class TestRatings:
    def test_record_and_resolve_agreement(self):
        store = RatingStore()
        record_rating(store, SemanticRating("b", 0, "alice", CORRECT))
        assert resolve_semantic(store, "b", 0) == PENDING  # one rating only
        record_rating(store, SemanticRating("b", 0, "bob", CORRECT))
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

    def test_file_backing_round_trips(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        store = RatingStore(path)
        store.add(SemanticRating("b", 0, "alice", CORRECT))
        store.add(SemanticRating("b", 0, "bob", INCORRECT))
        reloaded = RatingStore(path)
        assert len(reloaded) == 2
        assert resolve_semantic(reloaded, "b", 0) == PENDING

    def test_apply_ratings_fills_resolved_labels(self):
        store = RatingStore()
        for rater in ("alice", "bob"):
            store.add(SemanticRating("b", 1, rater, CORRECT))
        verdicts = [
            AssessmentVerdict("b", 0, True, PASS, False, False),
            AssessmentVerdict("b", 1, True, PASS, False, False),
        ]
        updated = apply_ratings(verdicts, store)
        assert updated[0].semantic == "unlabeled"
        assert updated[1].semantic == CORRECT


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

    def test_degenerate_marginals_error_is_guarded(self):
        # p_e = 1 with p_o < 1 cannot arise from a consistent two-rater
        # store; the branch exists defensively and raises this error type.
        assert issubclass(DegenerateMarginals, Exception)
