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

import hashlib
import json
import os
import shutil
import signal
import subprocess
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
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
from .jsonl import mend_tail, read_rows
from .syntax import Token, ast_key, lex_edit, parse, parses_edit, token_key, tokenize
from .syntax.tokens import COMMENT_KINDS
from .syntax.tree import Node

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


class ParseFailure:
    """Returned by ast_match for unparsable candidates; falsy, so it scores
    as a non-match wherever a boolean is expected."""

    def __init__(self, message: str):
        self.message = message

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"ParseFailure({self.message!r})"


def ast_match(candidate: str, reference: str) -> "bool | ParseFailure":
    """Tree equivalence against the reference, comments/formatting ignored.

    The reference must parse (ParseError propagates); a candidate that does
    not parse yields a falsy ParseFailure instead of an exception.
    """
    reference_key = ast_key(parse(reference))  # reference errors propagate
    try:
        candidate_key = ast_key(parse(candidate))
    except ParseError as exc:
        return ParseFailure(str(exc))
    return candidate_key == reference_key


# --------------------------------------------------------------------------
# plausibility by test execution

@dataclass(frozen=True)
class TestSpec:
    """How to exercise a bug's test suite.

    `command` runs through the shell when given as a string. A nonzero
    build command exit is reported as build-error; the test command's exit
    status decides pass/fail.
    """

    __test__ = False  # not a pytest class, despite the name

    command: str | Sequence[str]
    timeout: float = DEFAULT_TEST_TIMEOUT
    build_command: Optional[str | Sequence[str]] = None
    env_denylist: tuple[str, ...] = ()
    retries: int = 0  # re-runs of a failing test command (flaky suites)
    isolation: str = "clone"  # "clone" runs in a discarded copy; "in-place" splices and restores

    def __post_init__(self):
        if self.isolation not in ("clone", "in-place"):
            raise ValueError(f"bad isolation mode: {self.isolation}")


@dataclass(frozen=True)
class FunctionLocation:
    """Where a function lives inside a project file."""

    file: str  # project-relative path
    start_line: int
    end_line: int
    expected_text: Optional[str] = None  # guards against stale line ranges


@dataclass(frozen=True)
class TestRun:
    __test__ = False  # not a pytest class, despite the name

    command: str
    workdir: str
    timeout: float
    outcome: str  # pass / fail / timeout / build-error
    output: str


def hash_tree(root: Path | str) -> str:
    """Order-independent content hash of a directory tree."""
    digest = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _run(command, workdir: Path, timeout: float, env: dict) -> tuple[str, str]:
    """Run a command; on timeout, kill every process it started.

    The command leads a session of its own, so killing its process group
    also ends the children a shell or a build tool left running.
    """
    with subprocess.Popen(
        command,
        shell=isinstance(command, str),
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
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


def _execute(spec: TestSpec, workdir: Path, env: dict) -> tuple[str, str]:
    outcome, output = PASS, ""
    if spec.build_command is not None:
        outcome, output = _run(spec.build_command, workdir, spec.timeout, env)
        if outcome == FAIL:
            outcome = "build-error"
    if outcome == PASS:
        for _attempt in range(spec.retries + 1):
            outcome, output = _run(spec.command, workdir, spec.timeout, env)
            if outcome == PASS:
                break
    return outcome, output


def check_plausible(
    project_root: Path | str,
    location: FunctionLocation,
    candidate: str,
    spec: TestSpec,
) -> TestRun:
    """Splice the candidate into the project, run the tests, clean up.

    In the default "clone" isolation the tests run inside a discarded copy
    of the project, so build artifacts never touch the original tree. With
    "in-place" isolation the target file is rewritten and byte-restored
    afterwards. Either way the project tree ends bit-identical to its
    pre-call state, checked by hashing it before and after. Raises
    SpliceError when the recorded line range is stale or the tree changed.
    """
    project_root = Path(project_root)
    target = project_root / location.file
    if not target.is_file():
        raise SpliceError(f"no such file: {target}")
    original = target.read_bytes()
    spliced = _splice(original.decode("utf-8"), location, candidate)
    env = {k: v for k, v in os.environ.items() if k not in spec.env_denylist}
    before_hash = hash_tree(project_root)
    if spec.isolation == "clone":
        with tempfile.TemporaryDirectory(prefix="repairkit-plausible-") as tmp:
            workdir = Path(tmp) / project_root.name
            shutil.copytree(project_root, workdir, symlinks=True)
            (workdir / location.file).write_text(spliced, encoding="utf-8")
            outcome, output = _execute(spec, workdir, env)
    else:
        workdir = project_root
        try:
            target.write_text(spliced, encoding="utf-8")
            outcome, output = _execute(spec, workdir, env)
        finally:
            target.write_bytes(original)
    if hash_tree(project_root) != before_hash:
        raise SpliceError(f"project tree not restored under {project_root}")
    return TestRun(str(spec.command), str(workdir), spec.timeout, outcome, output)


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
        self.tokens: Optional[list[Token]] = None  # None when it does not lex
        self.key: Optional[tuple[str, ...]] = None
        self.keyed: list[int] = []  # keyed[i]: key length of tokens[:i]
        self.tree: Optional[Node] = None  # None when it does not parse
        self.error: Optional[ParseError] = None

    def lex(self) -> Optional[list[Token]]:
        """The reference's tokens, or None when it does not lex."""
        if not self._lexed:
            self._lexed = True
            try:
                self.tokens = tokenize(self.text)
            except ParseError as exc:
                self.error = exc
            else:
                self.key = token_key(self.tokens)
                significant = (t.kind not in COMMENT_KINDS for t in self.tokens)
                self.keyed = list(accumulate(significant, initial=0))
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
                keyed = ref.keyed
                key = ref.key[: keyed[first]] + token_key(window) + ref.key[keyed[last] :]
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
                tokens = base[:first] + window + base[last:]
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


class RatingStore:
    """Append-only store of semantic ratings, optionally file-backed, kept
    in insertion order and indexed by candidate `(bug_id, rank)`.

    A crash mid-append can leave an unterminated last line: loading skips
    it with a warning and the first `add` cuts it off.
    """

    def __init__(self, path: Optional[Path | str] = None):
        self.path = Path(path) if path is not None else None
        self._ratings: list[SemanticRating] = []
        self._by_item: dict[tuple[str, int], list[SemanticRating]] = {}
        self._tail_checked = False
        if self.path is not None and self.path.exists():
            for row in read_rows(self.path):
                self._index(SemanticRating(**row))

    def _index(self, rating: SemanticRating) -> None:
        self._ratings.append(rating)
        self._by_item.setdefault((rating.bug_id, rating.rank), []).append(rating)

    def __len__(self) -> int:
        return len(self._ratings)

    def __iter__(self):
        return iter(self._ratings)

    def _round(self, bug_id: str, rank: int, stage: str) -> list[SemanticRating]:
        return [r for r in self._by_item.get((bug_id, rank), ()) if r.round == stage]

    def first_round(self, bug_id: str, rank: int) -> list[SemanticRating]:
        return self._round(bug_id, rank, FIRST)

    def tiebreaks(self, bug_id: str, rank: int) -> list[SemanticRating]:
        return self._round(bug_id, rank, TIEBREAK)

    def add(self, rating: SemanticRating) -> None:
        same_round = self._round(rating.bug_id, rating.rank, rating.round)
        if any(r.rater == rating.rater for r in same_round):
            raise DuplicateRating(
                f"{rating.rater} already rated {rating.bug_id}#{rating.rank} "
                f"({rating.round} round)"
            )
        if rating.round == TIEBREAK:
            labels = {r.label for r in self.first_round(rating.bug_id, rating.rank)}
            if len(labels) < 2:
                raise InvalidRating(
                    "tiebreak ratings only exist where first-round raters disagree"
                )
        if rating.timestamp == 0.0:
            rating = replace(rating, timestamp=time.time())
        self._index(rating)
        if self.path is not None:
            if not self._tail_checked:
                mend_tail(self.path)
                self._tail_checked = True
            with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(vars(rating), sort_keys=True) + "\n")


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
            out.append(replace(verdict, semantic=resolved))
    return out
