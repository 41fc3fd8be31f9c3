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
from json.encoder import encode_basestring_ascii as _text
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .config import decode
from .errors import (
    DuplicateRating,
    InvalidRating,
    NoOverlap,
    ParseError,
    SpliceError,
)
from .gen import CandidatePatch
from .jsonl import Appender, read_rows
from .syntax import lex_window, parse, parses_edit, splice, tokenize
from .values import frozen

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

@frozen
class TestSpec:
    """How to run a bug's test suite: a command and its time limit.

    `command` runs through the shell when given as a string, and its exit
    status decides pass or fail. It inherits this process's environment.
    """

    __test__ = False  # not a pytest class, despite the name

    command: str | Sequence[str]
    timeout: float = DEFAULT_TEST_TIMEOUT


@frozen
class FunctionLocation:
    """Where a function lives inside a project file."""

    file: str  # project-relative path
    start_line: int
    end_line: int
    expected_text: Optional[str] = None  # guards against stale line ranges


@frozen
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


def _run(
    command, workdir: Optional[Path], timeout: float, input: Optional[str] = None
) -> tuple[Optional[int], str, str]:
    """Run `command`: its exit status (None if still running after `timeout`
    seconds), stdout and stderr, decoded as UTF-8 with universal newlines.

    A string runs through the shell. The command leads a session of its
    own, reads `input` or else `/dev/null`, and writes to unnamed temporary
    files, so no full pipe can stall it and no child that holds its output
    can hold the caller. Once it exits, times out or an exception such as
    an interrupt arrives, its whole process group is killed before it is
    reaped, while the group id is still its own. Needs Linux 5.3 or later
    for the pidfd that waits; elsewhere it raises OSError.
    """
    import select
    import signal
    import subprocess
    import tempfile

    if not hasattr(os, "pidfd_open"):
        raise OSError("running a command needs Linux (os.pidfd_open)")
    with (
        open(os.devnull, "w+b") if input is None else tempfile.TemporaryFile() as stdin,
        tempfile.TemporaryFile() as stdout,
        tempfile.TemporaryFile() as stderr,
    ):
        stdin.write((input or "").encode("utf-8"))
        stdin.seek(0)
        proc = subprocess.Popen(
            command, shell=isinstance(command, str), cwd=workdir, start_new_session=True,
            stdin=stdin, stdout=stdout, stderr=stderr,
        )
        try:  # a pidfd polls readable once the command exits, and leaves it unreaped
            with open(os.pidfd_open(proc.pid), "rb", buffering=0) as pidfd:
                watch = select.poll()
                watch.register(pidfd, select.POLLIN)
                exited = bool(watch.poll(max(timeout, 0) * 1000))  # a negative one waits for good
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        output = []
        for file in (stdout, stderr):
            file.seek(0)
            output.append(_normalize_eol(file.read().decode("utf-8", "replace")))
    return (proc.returncode if exited else None), *output


def _output(command, timeout: float, input: Optional[str] = None) -> str:
    """The stdout of `command` as `_run` runs it in the current directory;
    ValueError if it is still running after `timeout` seconds or exits non-zero."""
    status, stdout, _ = _run(command, None, timeout, input)
    if status is None:
        raise ValueError(f"still running after {timeout:g} s")
    if status:
        raise ValueError(f"exited with status {status}")
    return stdout


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
    changed. A project that cannot be copied raises `shutil.Error` with a
    `source: reason` for each file that failed, joined by "; ".

    The suite runs as `_run` runs a command: stdin is `/dev/null`, and
    when the command exits or `spec.timeout` passes, every process left in
    its group is killed before the copy is deleted. The outcome is
    "timeout" in the second case, else pass or fail by the exit status.
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
        try:
            shutil.copytree(project_root, workdir, symlinks=True)
        except shutil.Error as exc:
            # copytree lists (source, copy, reason); the copy's path is random
            raise shutil.Error(
                "; ".join(f"{src}: {str(why).replace(dst, src)}" for src, dst, why in exc.args[0])
            ) from None
        copy = workdir / location.file
        if not copy.parent.resolve().is_relative_to(workdir.resolve()):
            raise SpliceError(f"{location.file} is outside the project")
        if copy.is_symlink():
            copy.unlink()
        copy.write_text(spliced, encoding="utf-8")
        status, stdout, stderr = _run(spec.command, workdir, spec.timeout)
    if hash_tree(project_root) != before_hash:
        raise SpliceError(f"project tree changed under {project_root}")
    outcome = "timeout" if status is None else PASS if status == 0 else FAIL
    return TestRun(outcome, stdout + stderr)


# --------------------------------------------------------------------------
# verdicts

@frozen
class AssessmentVerdict:
    """One candidate's four tiers.

    `parse_ok` means structurally parsable: the grammar is lenient by
    design, so some sources javac rejects still parse (javac rejected 492
    of 1,650 token-level mutants of valid sources that this accepted).
    """

    rank: int
    parse_ok: bool
    plausible: str  # pass / fail / not-run
    exact: bool
    ast: bool
    semantic: str = UNLABELED

    def __post_init__(self):
        if isinstance(self.rank, (int, float)) and self.rank < 0:
            raise ValueError(f"rank {self.rank}: candidate ranks start at 0")
        if self.exact and not self.ast:
            raise ValueError("exact match implies AST match")
        if self.exact and self.semantic == INCORRECT:
            raise ValueError("an exact match cannot be semantically incorrect")
        if self.plausible not in (PASS, FAIL, NOT_RUN):
            raise ValueError(f"bad plausibility state: {self.plausible}")
        if self.semantic not in (UNLABELED, CORRECT, INCORRECT):
            raise ValueError(f"bad semantic state: {self.semantic}")


def classify(
    candidates: Sequence[CandidatePatch],
    reference: str,
    test: Optional[Callable[[str], TestRun]] = None,
) -> list[AssessmentVerdict]:
    """Score each candidate on the assessment tiers, cheapest check first.

    `test` runs the bug's suite on one candidate text, as a
    `functools.partial` of `check_plausible` does; a verdict has the rank
    of its candidate, and the bug id stays with the caller's record.
    Exact matches skip test execution (plausible by fiat) and imply AST
    match. Other candidates run the tests when `test` is given; AST match
    is evaluated only for parsable candidates that did not fail the tests,
    and then the reference must parse (its ParseError propagates).
    Candidates that failed reconstruction score negative on every tier.
    Semantic labels stay unlabeled here; they come from the rating store.

    Each candidate is assessed as an edit of the reference. The
    reference's line endings are normalized once per call for the exact
    check, and it is lexed and parsed once per call, at the first
    candidate that is neither failed nor an exact match, and never when
    there is none. Each such candidate is lexed once, before its test run,
    by `lex_window` against the reference, so only the lines where it
    differs are lexed, and the other tokens are the reference's. It is
    token-equal to the reference when the texts of the window's
    non-comment tokens are those of the reference tokens they replace;
    only a candidate that is not has its tokens spliced (`splice`). The
    texts of the non-comment tokens, its key, decide the rest:
    - A candidate whose key equals that of a candidate tested earlier in
      the call shares that candidate's test verdict and is not tested.
      This assumes a suite's outcome ignores comments and whitespace.
    - A candidate token-equal to the reference is parsable exactly when
      the reference is, since the parser reads token texts only, and is
      not parsed itself.
    - Any other candidate that lexes is parsable as `parses_edit` decides
      by re-parsing the statements it changed in the reference's tree, or,
      when that cannot decide or the reference does not parse, as a whole
      parse of its tokens finds.
    """
    verdicts = []
    ref_lf = _normalize_eol(reference)
    ref_read = False
    ref_tokens = ref_tree = ref_error = None
    tested: dict[tuple[str, ...], str] = {}  # key -> plausible verdict
    for candidate in candidates:
        if candidate.reconstructed is None:
            verdicts.append(
                AssessmentVerdict(candidate.rank, False, NOT_RUN, False, False)
            )
            continue
        text = candidate.reconstructed
        if _normalize_eol(text) == ref_lf:
            verdicts.append(
                AssessmentVerdict(candidate.rank, True, PASS, True, True)
            )
            continue
        if not ref_read:
            ref_read = True
            try:
                ref_tokens = tokenize(reference)
                ref_tree = parse(reference, ref_tokens)
            except ParseError as exc:
                ref_error = exc
        tokens = None  # the candidate's, unless it does not lex or is token-equal
        same = False  # token-equal to the reference
        try:
            if ref_tokens is None:
                tokens = tokenize(text)
            else:
                first, last, window = lex_window(ref_tokens, text)
                same = window.key() == ref_tokens.key(first, last)
                if not same:
                    tokens = splice(ref_tokens, first, last, window)
        except ParseError:
            pass
        if test is None:
            plausible = NOT_RUN
        else:
            if same:
                key = ref_tokens.key()
            else:
                key = None if tokens is None else tokens.key()
            if key in tested:
                plausible = tested[key]
            else:
                plausible = PASS if test(text).outcome == PASS else FAIL
                if key is not None:
                    tested[key] = plausible
        if same:
            parse_ok = ref_tree is not None
        elif tokens is None:
            parse_ok = False
        else:
            parse_ok = None
            if ref_tree is not None:
                parse_ok = parses_edit(ref_tree, first, last, tokens)
            if parse_ok is None:
                try:
                    parse(text, tokens)
                    parse_ok = True
                except ParseError:
                    parse_ok = False
        ast = False
        if parse_ok and plausible != FAIL:
            if ref_tree is None:
                raise ref_error
            ast = same
        verdicts.append(
            AssessmentVerdict(candidate.rank, parse_ok, plausible, False, ast)
        )
    return verdicts


# --------------------------------------------------------------------------
# semantic ratings

@frozen
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


def _rating_line(r: SemanticRating) -> str:
    """`_encode_rating(r._asdict())`, written out directly when the four
    text fields are exactly `str`, `rank` exactly `int` and `timestamp` a
    finite `float`."""
    if (
        type(r.bug_id) is type(r.rater) is type(r.label) is type(r.round) is str
        and type(r.rank) is int
        and type(r.timestamp) is float
        and not r.timestamp - r.timestamp  # NaN or an infinity, which the encoder writes as a name
    ):
        try:
            return (
                f'{{"bug_id": {_text(r.bug_id)}, "label": {_text(r.label)}, '
                f'"rank": {int.__repr__(r.rank)}, "rater": {_text(r.rater)}, '
                f'"round": {_text(r.round)}, "timestamp": {float.__repr__(r.timestamp)}}}'
            )
        except ValueError:  # an int past str()'s digit limit
            pass
    return _encode_rating(r._asdict())


class RatingStore:
    """Append-only store of semantic ratings, optionally file-backed, kept
    in insertion order and indexed by `(bug_id, rank, round)`.

    Each `add` appends one line with a single write, then indexes the
    rating, so an `add` whose write fails leaves no rating and can be
    retried. The store opens its file at its first `add` and closes it when
    the store is dropped, so the file must not be replaced while a live
    store holds it. A crash mid-append can leave an unterminated last line:
    loading skips it with a warning and the first `add` cuts it off. A
    load admits each stored rating by `add`'s rules, so a bug id or rater
    that is not a string, a timestamp that is not a number, a rank that is
    not an int or is negative, a second rating by one rater of one
    candidate in one round, or a tiebreak where the first round did not
    disagree is a `StoreError` at its line. A row becomes its rating
    through `SemanticRating._from_row`, so exactly as `SemanticRating(**row)`.
    """

    def __init__(self, path: Optional[Path | str] = None):
        self.path = Path(path) if path is not None else None
        self._ratings: list[SemanticRating] = []
        self._by_round: dict[tuple[str, int, str], list[SemanticRating]] = {}
        if self.path is not None:
            self._appender = Appender(self.path)
            if self.path.exists():
                self._ratings = list(read_rows(self.path, self._load))

    def _load(self, row: dict) -> SemanticRating:
        rating = SemanticRating._from_row(row)
        self._by_round.setdefault(self._admit(rating), []).append(rating)
        return rating

    def _admit(self, rating: SemanticRating) -> tuple[str, int, str]:
        """The index key of `rating`, once it passes `add`'s rules: a string
        bug id and rater, a number for a timestamp, an int rank of at least
        0, one rating per rater of a candidate in a round, and a tiebreak
        only where the first round disagreed."""
        bug_id, rank, stage = rating.bug_id, rating.rank, rating.round
        if type(bug_id) is not str or type(rating.rater) is not str:
            decode(str, bug_id, "bug_id")  # which words the refusal
            decode(str, rating.rater, "rater")
        if type(rating.timestamp) not in (int, float):  # so not a bool either
            decode(float, rating.timestamp, "timestamp")
        if rank < 0:
            raise InvalidRating(f"rank {rank} of {bug_id}: candidate ranks start at 0")
        if type(rank) is not int:  # True and 1.0 would index as candidate #1
            raise InvalidRating(f"rank {rank!r} of {bug_id}: candidate ranks are integers")
        key = (bug_id, rank, stage)
        for r in self._by_round.get(key, ()):
            if r.rater == rating.rater:
                raise DuplicateRating(
                    f"{rating.rater} already rated {bug_id}#{rank} ({stage} round)"
                )
        if stage == TIEBREAK:
            labels = {r.label for r in self._by_round.get((bug_id, rank, FIRST), ())}
            if len(labels) < 2:
                raise InvalidRating(
                    "tiebreak ratings only exist where first-round raters disagree"
                )
        return key

    def __len__(self) -> int:
        return len(self._ratings)

    def __iter__(self):
        return iter(self._ratings)

    def add(self, rating: SemanticRating) -> None:
        key = self._admit(rating)
        if rating.timestamp == 0.0:
            rating = SemanticRating(
                rating.bug_id, rating.rank, rating.rater, rating.label, rating.round, time.time()
            )
        if self.path is not None:
            self._appender.append(_rating_line(rating))
        self._by_round.setdefault(key, []).append(rating)
        self._ratings.append(rating)


PENDING = "pending"


def resolve_semantic(store: RatingStore, bug_id: str, rank: int) -> str:
    """correct/incorrect per the two-rater protocol, else pending.

    Two agreeing first-round raters decide; a disagreement defers to the
    tiebreak rating when present. Fewer than two first-round ratings leave
    the candidate pending.
    """
    by_round = store._by_round  # read in place: one call per candidate in a report
    first = by_round.get((bug_id, rank, FIRST), ())
    if len(first) < 2:
        return PENDING
    labels = {r.label for r in first}
    if len(labels) == 1:
        return labels.pop()
    tiebreaks = by_round.get((bug_id, rank, TIEBREAK))
    if tiebreaks:
        return tiebreaks[-1].label
    return PENDING


# --------------------------------------------------------------------------
# inter-rater agreement

@frozen
class KappaResult:
    kappa: float
    observed_agreement: float
    items: int


def cohen_kappa(store: RatingStore, rater_a: str, rater_b: str) -> KappaResult:
    """Cohen's kappa over the items both raters labeled in the first round.

    kappa = (p_o - p_e) / (1 - p_e), with p_o the observed agreement and
    p_e the chance agreement from each rater's marginal label frequencies.
    p_e is 1 only when both raters gave every co-rated item one and the
    same label, so that p_o is 1 too, and kappa is 1 there.
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
        return KappaResult(1.0, observed, n)
    kappa = (observed - expected) / (1.0 - expected)
    return KappaResult(kappa, observed, n)


def apply_ratings(
    bug_id: str, verdicts: Iterable[AssessmentVerdict], store: RatingStore
) -> list[AssessmentVerdict]:
    """Fill the semantic labels of one bug's verdicts from the ratings
    resolved for `(bug_id, verdict.rank)`.

    Only resolved labels are copied; pending candidates stay unlabeled. A
    resolved 'incorrect' on an exact-match candidate contradicts ground
    truth and raises InvalidRating.
    """
    out = []
    for verdict in verdicts:
        resolved = resolve_semantic(store, bug_id, verdict.rank)
        if resolved == PENDING:
            out.append(verdict)
        else:
            try:
                out.append(
                    AssessmentVerdict(
                        verdict.rank, verdict.parse_ok, verdict.plausible, verdict.exact,
                        verdict.ast, resolved,
                    )
                )
            except ValueError as exc:  # the one rule a label can break: exact rated incorrect
                raise InvalidRating(f"{bug_id}#{verdict.rank}: {exc}") from None
    return out
