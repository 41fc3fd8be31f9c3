"""Four-tier candidate-patch assessment.

A candidate is plausible when the bug's test command passes with the
candidate spliced in, exact when byte-identical to the reference (modulo
line endings), AST-matched when its tree equals the reference tree after
comment/formatting normalization, and semantic-matched when human raters
judge it equivalent. Exact match implies AST match; exact-match candidates
are marked plausible without running tests, since the reference patch is
the ground truth that passes the suite.

Semantic judgments are recorded, never inferred: two first-round raters
per candidate, a third rater breaking ties, with Cohen's kappa reported
over the first round.
"""
from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import (
    DegenerateMarginals,
    DuplicateRating,
    InvalidRating,
    NoOverlap,
    ParseError,
    SpliceError,
)
from .gen import CandidatePatch
from .jsonl import append_line, mend_tail, read_rows
from .syntax import Node, Tokens, lex_edit, parse, parses_edit, token_key, tokenize

PASS = "pass"
FAIL = "fail"
NOT_RUN = "not-run"

UNLABELED = "unlabeled"
CORRECT = "correct"
INCORRECT = "incorrect"

FIRST = "first"
TIEBREAK = "tiebreak"

DEFAULT_TEST_TIMEOUT = 300.0  # seconds per candidate; benchmark suites vary widely


def exact_match(candidate: str, reference: str) -> bool:
    """Byte equality after normalizing line endings to \\n; spaces and all
    other formatting stay significant."""
    return _normalize_eol(candidate) == _normalize_eol(reference)


def _normalize_eol(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


# --------------------------------------------------------------------------
# plausibility by test execution

@dataclass(frozen=True)
class TestSpec:
    """How to run a bug's test suite: a command and its time limit.

    `command` runs through the shell when given as a string, and its exit
    status decides pass or fail. It inherits this process's environment.
    """

    __test__ = False  # not a pytest class, despite the name

    command: str | Sequence[str]
    timeout: float = DEFAULT_TEST_TIMEOUT


@dataclass(frozen=True)
class FunctionLocation:
    """Where a function lives inside a project file."""

    file: str  # project-relative path
    start_line: int
    end_line: int
    expected_text: Optional[str] = None  # guards against stale line ranges


@dataclass(frozen=True)
class TestRun:
    """The result of one test run: pass, fail or timeout, and what the
    command printed on stdout and stderr."""

    __test__ = False  # not a pytest class, despite the name

    outcome: str
    output: str


def hash_tree(root: Path | str) -> str:
    """Order-independent content hash of a directory tree."""
    import hashlib

    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _run(command, workdir: Path, timeout: float) -> tuple[str, str]:
    """Run a command; on timeout, kill every process it started.

    The command leads a session of its own, so killing its process group
    also ends the children a shell or a build tool left running.
    """
    import signal
    import subprocess

    with subprocess.Popen(
        command,
        shell=isinstance(command, str),
        cwd=workdir,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        errors="replace",  # a suite may print bytes its locale cannot decode
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException as exc:
            # Also on an interrupt: a terminal's Ctrl-C no longer reaches
            # the command's own session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole group had already exited
                pass
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            stdout, stderr = proc.communicate()
            return "timeout", stdout + stderr
    outcome = PASS if proc.returncode == 0 else FAIL
    return outcome, stdout + stderr


def _splice(original: str, location: FunctionLocation, candidate: str) -> str:
    lines = original.split("\n")
    if not 1 <= location.start_line <= location.end_line <= len(lines):
        raise SpliceError(
            f"line range {location.start_line}..{location.end_line} outside "
            f"{location.file} ({len(lines)} lines)"
        )
    current = "\n".join(lines[location.start_line - 1 : location.end_line])
    if location.expected_text is not None and current != location.expected_text:
        raise SpliceError(f"stale line range for {location.file}")
    return "\n".join(
        lines[: location.start_line - 1]
        + candidate.split("\n")
        + lines[location.end_line :]
    )


def check_plausible(
    project_root: Path | str,
    location: FunctionLocation,
    candidate: str,
    spec: TestSpec,
) -> TestRun:
    """Run the bug's tests with the candidate spliced into a fresh copy of
    the project.

    The target file is read as `bench.load_function` reads it, with
    universal newlines, so a file with CRLF line endings matches the
    function text taken from it; the spliced copy ends its lines with \\n.
    The copy is deleted afterwards, so build outputs never reach the
    project. The spliced file is written only inside the copy: a symlink
    at the target in the copy is replaced by a regular file, and a target
    whose directory resolves outside the copy (an absolute path, `..`, a
    symlinked directory) is refused. The project tree is hashed before and
    after, and must be bit-identical. Raises SpliceError when the file is
    missing or outside the copy, the line range is stale, or the tree
    changed.
    """
    import shutil
    import tempfile

    project_root = Path(project_root)
    target = project_root / location.file
    if not target.is_file():
        raise SpliceError(f"no such file: {target}")
    spliced = _splice(target.read_text(encoding="utf-8"), location, candidate)
    before_hash = hash_tree(project_root)
    with tempfile.TemporaryDirectory(prefix="repairkit-plausible-") as tmp:
        workdir = Path(tmp) / project_root.name
        shutil.copytree(project_root, workdir, symlinks=True)
        copy = workdir / location.file
        if not copy.parent.resolve().is_relative_to(workdir.resolve()):
            raise SpliceError(f"{location.file} is outside the project")
        if copy.is_symlink():
            copy.unlink()
        copy.write_text(spliced, encoding="utf-8")
        outcome, output = _run(spec.command, workdir, spec.timeout)
    if hash_tree(project_root) != before_hash:
        raise SpliceError(f"project tree changed under {project_root}")
    return TestRun(outcome, output)


# --------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class AssessmentVerdict:
    """One candidate's four tiers.

    `parse_ok` means structurally parsable: the grammar is lenient by
    design, so some sources javac rejects still parse (javac rejected 492
    of 1,650 token-level mutants of valid sources that this accepted).
    """

    bug_id: str
    rank: int
    parse_ok: bool
    plausible: str  # pass / fail / not-run
    exact: bool
    ast: bool
    semantic: str = UNLABELED

    def __post_init__(self):
        if self.exact and not self.ast:
            raise ValueError("exact match implies AST match")
        if self.exact and self.semantic == INCORRECT:
            raise ValueError("an exact match cannot be semantically incorrect")
        if self.plausible not in (PASS, FAIL, NOT_RUN):
            raise ValueError(f"bad plausibility state: {self.plausible}")
        if self.semantic not in (UNLABELED, CORRECT, INCORRECT):
            raise ValueError(f"bad semantic state: {self.semantic}")


@dataclass(frozen=True)
class PlausibilityPlan:
    """Everything classify() needs to run a bug's tests."""

    project_root: str
    location: FunctionLocation
    spec: TestSpec


class _Reference:
    """The reference fix of one `classify` call: lexed at most once and
    parsed at most once, each on first need."""

    def __init__(self, text: str):
        self.text = text
        self._lexed = False
        self._parsed = False
        self.tokens: Optional[Tokens] = None  # None when it does not lex
        self.key: Optional[tuple[str, ...]] = None
        self.tree: Optional[Node] = None  # None when it does not parse
        self.error: Optional[ParseError] = None

    def lex(self) -> Optional[Tokens]:
        """The reference's tokens, or None when it does not lex."""
        if not self._lexed:
            self._lexed = True
            try:
                self.tokens = tokenize(self.text)
            except ParseError as exc:
                self.error = exc
            else:
                self.key = token_key(self.tokens)
        return self.tokens

    def parse(self) -> Optional[Node]:
        """The reference's tree, or None when it does not lex or parse."""
        if not self._parsed:
            self._parsed = True
            if self.lex() is not None:
                try:
                    self.tree = parse(self.text, self.tokens)
                except ParseError as exc:
                    self.error = exc
        return self.tree


def classify(
    bug_id: str,
    candidates: Sequence[CandidatePatch],
    reference: str,
    plan: Optional[PlausibilityPlan] = None,
) -> list[AssessmentVerdict]:
    """Score each candidate on the assessment tiers, cheapest check first.

    Exact matches skip test execution (plausible by fiat) and imply AST
    match. Other candidates run the tests when a plan is given; AST match
    is evaluated only for parsable candidates that did not fail the tests,
    and then the reference must parse (its ParseError propagates).
    Candidates that failed reconstruction score negative on every tier.
    Semantic labels stay unlabeled here; they come from the rating store.

    Each candidate is assessed as an edit of the reference. The reference
    is lexed at most once per call, parsed at most once, and keeps its
    tree. Each other reconstructed candidate is lexed once, before its test
    run, by `lex_edit` against the reference, so only the lines where it
    differs are lexed. Its key, the texts of its non-comment tokens, is the
    reference's key with the edited tokens' part replaced. The key decides
    the rest:
    - A candidate whose key equals that of a candidate tested earlier in
      the call shares that candidate's test verdict and is not tested.
      This assumes a suite's outcome ignores comments and whitespace.
    - A candidate whose key equals the reference's is parsable exactly
      when the reference is, since the parser reads token texts only, and
      is not parsed itself.
    - Any other candidate that lexes is parsable as `parses_edit` decides
      by re-parsing the statements it changed in the reference's tree, or,
      when that cannot decide or the reference does not parse, as a whole
      parse of its tokens finds.
    """
    verdicts = []
    ref = _Reference(reference)
    tested: dict[tuple[str, ...], str] = {}  # key -> plausible verdict
    for candidate in candidates:
        if candidate.reconstructed is None:
            verdicts.append(
                AssessmentVerdict(bug_id, candidate.rank, False, NOT_RUN, False, False)
            )
            continue
        text = candidate.reconstructed
        if exact_match(text, reference):
            verdicts.append(
                AssessmentVerdict(bug_id, candidate.rank, True, PASS, True, True)
            )
            continue
        base = ref.lex()
        try:
            if base is None:
                tokens = tokenize(text)
                key = token_key(tokens)
            else:
                first, last, window = lex_edit(reference, base, text)
                key = (
                    ref.key[: base.significant(first)]
                    + token_key(window)
                    + ref.key[base.significant(last) :]
                )
        except ParseError:
            key = None
        if plan is None:
            plausible = NOT_RUN
        elif key in tested:
            plausible = tested[key]
        else:
            run = check_plausible(plan.project_root, plan.location, text, plan.spec)
            plausible = PASS if run.outcome == PASS else FAIL
            if key is not None:
                tested[key] = plausible
        if key is None:
            parse_ok = False
        elif key == ref.key:
            parse_ok = ref.parse() is not None
        else:
            parse_ok = None
            if base is not None:
                tokens = base.splice(first, last, window)
                if ref.parse() is not None:
                    parse_ok = parses_edit(ref.tree, base, first, last, tokens)
            if parse_ok is None:
                try:
                    parse(text, tokens)
                    parse_ok = True
                except ParseError:
                    parse_ok = False
        ast = False
        if parse_ok and plausible != FAIL:
            if ref.parse() is None:
                raise ref.error
            ast = key == ref.key
        verdicts.append(
            AssessmentVerdict(bug_id, candidate.rank, parse_ok, plausible, False, ast)
        )
    return verdicts


# --------------------------------------------------------------------------
# semantic ratings

@dataclass(frozen=True)
class SemanticRating:
    bug_id: str
    rank: int
    rater: str
    label: str  # correct / incorrect
    round: str = FIRST  # first / tiebreak
    timestamp: float = 0.0

    def __post_init__(self):
        if self.label not in (CORRECT, INCORRECT):
            raise ValueError(f"bad label: {self.label}")
        if self.round not in (FIRST, TIEBREAK):
            raise ValueError(f"bad round: {self.round}")


_encode_rating = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call


class RatingStore:
    """Append-only store of semantic ratings, optionally file-backed, kept
    in insertion order and indexed by `(bug_id, rank, round)`.

    Each `add` appends one line with a single write, then indexes the
    rating, so an `add` whose write fails leaves no rating and can be
    retried; no file is held open between adds. A crash mid-append can
    leave an unterminated last line: loading skips it with a warning and
    the first `add` cuts it off.
    """

    def __init__(self, path: Optional[Path | str] = None):
        self.path = Path(path) if path is not None else None
        self._ratings: list[SemanticRating] = []
        self._by_round: dict[tuple[str, int, str], list[SemanticRating]] = {}
        self._tail_checked = False
        if self.path is not None and self.path.exists():
            for rating in read_rows(self.path, lambda row: SemanticRating(**row)):
                self._index(rating)

    def _index(self, rating: SemanticRating) -> None:
        self._ratings.append(rating)
        self._by_round.setdefault((rating.bug_id, rating.rank, rating.round), []).append(rating)

    def __len__(self) -> int:
        return len(self._ratings)

    def __iter__(self):
        return iter(self._ratings)

    def first_round(self, bug_id: str, rank: int) -> list[SemanticRating]:
        return list(self._by_round.get((bug_id, rank, FIRST), ()))

    def tiebreaks(self, bug_id: str, rank: int) -> list[SemanticRating]:
        return list(self._by_round.get((bug_id, rank, TIEBREAK), ()))

    def add(self, rating: SemanticRating) -> None:
        bug_id, rank, rater, stage = rating.bug_id, rating.rank, rating.rater, rating.round
        if any(r.rater == rater for r in self._by_round.get((bug_id, rank, stage), ())):
            raise DuplicateRating(f"{rater} already rated {bug_id}#{rank} ({stage} round)")
        if stage == TIEBREAK:
            labels = {r.label for r in self._by_round.get((bug_id, rank, FIRST), ())}
            if len(labels) < 2:
                raise InvalidRating(
                    "tiebreak ratings only exist where first-round raters disagree"
                )
        if rating.timestamp == 0.0:
            rating = SemanticRating(bug_id, rank, rater, rating.label, stage, time.time())
        if self.path is not None:
            if not self._tail_checked:
                mend_tail(self.path)
                self._tail_checked = True
            append_line(self.path, _encode_rating(vars(rating)))
        self._index(rating)


PENDING = "pending"


def resolve_semantic(store: RatingStore, bug_id: str, rank: int) -> str:
    """correct/incorrect per the two-rater protocol, else pending.

    Two agreeing first-round raters decide; a disagreement defers to the
    tiebreak rating when present. Fewer than two first-round ratings leave
    the candidate pending.
    """
    first = store.first_round(bug_id, rank)
    if len(first) < 2:
        return PENDING
    labels = {r.label for r in first}
    if len(labels) == 1:
        return labels.pop()
    tiebreaks = store.tiebreaks(bug_id, rank)
    if tiebreaks:
        return tiebreaks[-1].label
    return PENDING


# --------------------------------------------------------------------------
# inter-rater agreement

@dataclass(frozen=True)
class KappaResult:
    kappa: float
    observed_agreement: float
    items: int

    def __float__(self) -> float:
        return self.kappa


def cohen_kappa(store: RatingStore, rater_a: str, rater_b: str) -> KappaResult:
    """Cohen's kappa over the items both raters labeled in the first round.

    kappa = (p_o - p_e) / (1 - p_e), with p_o the observed agreement and
    p_e the chance agreement from each rater's marginal label frequencies.
    Perfect agreement with degenerate marginals (p_e = 1) returns 1;
    imperfect agreement with p_e = 1 is undefined and raises.
    """
    by_item: dict[tuple[str, int], dict[str, str]] = {}
    for rating in store:
        if rating.round != FIRST or rating.rater not in (rater_a, rater_b):
            continue
        by_item.setdefault((rating.bug_id, rating.rank), {})[rating.rater] = rating.label
    pairs = [
        (labels[rater_a], labels[rater_b])
        for labels in by_item.values()
        if rater_a in labels and rater_b in labels
    ]
    if not pairs:
        raise NoOverlap(f"{rater_a} and {rater_b} share no co-rated items")
    n = len(pairs)
    observed = sum(1 for a, b in pairs if a == b) / n
    marg_a = Counter(a for a, _ in pairs)
    marg_b = Counter(b for _, b in pairs)
    expected = sum(
        (marg_a[label] / n) * (marg_b[label] / n) for label in set(marg_a) | set(marg_b)
    )
    if expected >= 1.0:
        if observed == 1.0:
            return KappaResult(1.0, 1.0, n)
        raise DegenerateMarginals(
            f"chance agreement is 1 but observed agreement is {observed:.4f}"
        )
    kappa = (observed - expected) / (1.0 - expected)
    return KappaResult(kappa, observed, n)


def apply_ratings(
    verdicts: Iterable[AssessmentVerdict], store: RatingStore
) -> list[AssessmentVerdict]:
    """Fill verdict semantic labels from resolved ratings.

    Only resolved labels are copied; pending candidates stay unlabeled. A
    resolved 'incorrect' on an exact-match candidate contradicts ground
    truth and raises.
    """
    out = []
    for verdict in verdicts:
        resolved = resolve_semantic(store, verdict.bug_id, verdict.rank)
        if resolved == PENDING:
            out.append(verdict)
        else:
            out.append(
                AssessmentVerdict(
                    verdict.bug_id, verdict.rank, verdict.parse_ok, verdict.plausible,
                    verdict.exact, verdict.ast, resolved,
                )
            )
    return out
