"""Benchmark harness: drive the pipeline over a bug manifest.

A manifest is a JSON list of bug entries (project, file, function span,
region, reference fix, test command). For every bug the harness builds the
input representation, requests ranked candidates, reconstructs each one,
and classifies it; records are appended to a JSONL store as they complete
so interrupted runs resume without re-querying finished bugs. A bug counts
toward a metric when any of its candidates satisfies it.
"""
from __future__ import annotations

import functools
import json
import logging
import operator
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .assess import (
    CORRECT,
    DEFAULT_TEST_TIMEOUT,
    NOT_RUN,
    PASS,
    UNLABELED,
    AssessmentVerdict,
    FunctionLocation,
    RatingStore,
    TestSpec,
    _output,
    apply_ratings,
    check_plausible,
    classify,
)
from .config import DEFAULT_LEAKAGE_BUGS, PROFILES, REPORT_FORMATS  # re-exported
from .config import check_timeout, decode
from .errors import (
    AggregateInvariantError,
    BackendError,
    BackendTimeout,
    BackendUnreachable,
    ConfigError,
    HunkApplyFailure,
    InvalidRegion,
    MalformedOutput,
    ManifestError,
    ManifestFileError,
    RepairKitError,
)
from .gen import CandidatePatch, GenerationConfig, request_candidates
from .jsonl import Appender, encode_row, read_rows
from .representations import (
    DEFAULT_MARKERS,
    Markers,
    Region,
    ReprPair,
    build_input,
    reconstruct,
    valid_pair,
)
from .syntax import SourceFunction
from .values import frozen, with_asdict

log = logging.getLogger(__name__)


@frozen
class BugManifestEntry:
    bug_id: str
    project_root: str
    file: str
    function_span: tuple[int, int]  # first and last line in the file
    region: tuple[int, int]  # function-relative
    reference: str  # the developer-provided fixed function
    test_command: str
    checkout: Optional[str] = None  # shell command that materializes the project
    timeout: Union[float, str, None] = None  # seconds; a load reads a string as its number


def load_manifest(
    path: Path | str, profile: Optional[str] = None
) -> list[BugManifestEntry]:
    """Load and validate a JSON manifest; duplicate ids and bad spans fail.

    Selecting a profile applies its denylist (e.g. the leakage-excluded
    Defects4J bugs) at load time.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestFileError(path, f"unreadable: {exc}")
    if not isinstance(raw, list):
        raise ManifestFileError(path, "must be a JSON list")
    if profile is not None and profile not in PROFILES:
        raise ManifestFileError(path, f"unknown profile: {profile}")
    denylist = frozenset(PROFILES[profile]) if profile else frozenset()
    entries: list[BugManifestEntry] = []
    seen: set[str] = set()
    for index, item in enumerate(raw):
        entry = _parse_entry(index, item)
        if entry.bug_id in seen:
            raise ManifestError(index, f"duplicate bug_id {entry.bug_id!r}")
        seen.add(entry.bug_id)
        if entry.bug_id in denylist:
            log.info("dropping denylisted bug %s", entry.bug_id)
            continue
        entries.append(entry)
    return entries


def _parse_entry(index: int, item: object) -> BugManifestEntry:
    try:
        entry = decode(BugManifestEntry, item)
        if isinstance(entry.timeout, str):  # "60" reads as 60.0
            entry = replace(entry, timeout=float(entry.timeout))
        if entry.timeout is not None:
            check_timeout(entry.timeout)
    except (TypeError, ValueError) as exc:
        raise ManifestError(index, str(exc))
    file = Path(entry.file)
    if file.is_absolute() or ".." in file.parts:
        raise ManifestError(index, f"file must be a path inside project_root: {entry.file!r}")
    start, end = entry.function_span
    if not 1 <= start <= end:
        raise ManifestError(index, "bad function span")
    try:
        Region(*entry.region).validate(end - start + 1)
    except InvalidRegion as exc:
        raise ManifestError(index, f"region outside function span: {exc}")
    if not entry.test_command.strip():
        raise ManifestError(index, "empty test command")
    if not entry.reference.strip():
        raise ManifestError(index, "missing reference function")
    return entry


# --------------------------------------------------------------------------
# run records

@with_asdict
@dataclass(slots=True)
class RunRecord:
    bug_id: str
    pair: str
    prompt: str
    candidates: list[CandidatePatch]
    verdicts: list[AssessmentVerdict]
    timings: dict = field(default_factory=dict)
    error: Optional[str] = None

    def __post_init__(self):
        if len(self.candidates) != len(self.verdicts):
            raise ValueError("one verdict per candidate required")


def _record_to_json(record: RunRecord) -> dict:
    # _asdict(), not dataclasses.asdict(): that deep-copies every value, 8x slower per record
    return {
        **record._asdict(),
        "candidates": [c._asdict() for c in record.candidates],
        "verdicts": [v._asdict() for v in record.verdicts],
    }


def _record_from_json(data: dict, shared: dict) -> RunRecord:
    """The record of one decoded row; `shared` maps each verdict row seen
    before, by content, to the verdict decoded from it."""
    data["candidates"] = list(map(CandidatePatch._from_row, data["candidates"]))
    verdicts = []
    for row in data["verdicts"]:
        try:
            # Keys, values, then each value's type, so 1 never matches True;
            # the length fixes where each part starts.
            key = (*row, *row.values(), *map(type, row.values()))
            verdict = shared[key]
        except (KeyError, AttributeError, TypeError):
            # a new row; `decode` refuses one that is not an object or cannot be hashed
            verdict = shared[key] = decode(AssessmentVerdict, row)
        verdicts.append(verdict)
    data["verdicts"] = verdicts
    record = RunRecord._from_row(data)
    if type(record.bug_id) is not str or type(record.pair) is not str:  # `decode` costs 0.7 µs
        decode(str, record.bug_id, "bug_id")  # which refuses the first that is not a string
        decode(str, record.pair, "pair")
    return record


class RecordStore:
    """Append-only JSONL store of run records; safe for threaded appends.

    The store opens its file at its first `append`, writes each record as
    one line in one write, and closes the file when the store is dropped,
    so the file must not be replaced while a live store holds it. A crash
    mid-append can leave an unterminated last line: `load` skips it with a
    warning and the first `append` cuts it off, so a fragment is never
    followed by another line. Each `load` builds one verdict per distinct
    verdict row and shares it among the records that hold that row, and
    builds every candidate and record at load by their `_from_row`.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._appender = Appender(self.path)

    def load(self) -> dict[str, RunRecord]:
        records: dict[str, RunRecord] = {}
        if self.path.exists():
            make = functools.partial(_record_from_json, shared={})
            for record in read_rows(self.path, make):
                records[record.bug_id] = record
        return records

    def append(self, record: RunRecord) -> None:
        line = encode_row(_record_to_json(record))
        with self._lock:
            self._appender.append(line)


# --------------------------------------------------------------------------
# the benchmark loop

_RECONSTRUCT_ERRORS = (MalformedOutput, HunkApplyFailure, InvalidRegion)


def load_function(entry: BugManifestEntry) -> SourceFunction:
    """The bug's function; ManifestError if its span runs past the end of the file."""
    content = (Path(entry.project_root) / entry.file).read_text(encoding="utf-8")
    start, end = entry.function_span
    lines = content.split("\n", end)  # the whole file when it has at most `end` lines
    if end > len(lines):
        raise ManifestError(
            entry.bug_id,
            f"function span {start}..{end} runs past the end of {entry.file} ({len(lines)} lines)",
        )
    return SourceFunction(entry.bug_id, start, end, "\n".join(lines[start - 1 : end]))


# A Defects4J or HumanEval-Java checkout copies or clones one project in
# seconds to minutes; one still running after half an hour is taken as hung.
CHECKOUT_TIMEOUT = 1800.0
_checkout_locks: dict[str, threading.Lock] = {}  # one per project root


def _ensure_checkout(entry: BugManifestEntry) -> None:
    """Run the checkout of a missing project root once; bugs that share the
    root wait for it. A checkout that fails or hangs leaves no root behind."""
    root = entry.project_root
    if not entry.checkout or Path(root).exists():
        return
    with _checkout_locks.setdefault(root, threading.Lock()):
        if not Path(root).exists():  # unless a checkout made it while this bug waited
            try:
                _output(entry.checkout, CHECKOUT_TIMEOUT)
            except ValueError as exc:
                shutil.rmtree(root, ignore_errors=True)  # a partial tree is no project
                raise ManifestError(entry.bug_id, f"checkout {exc}") from None


def run_bug(
    entry: BugManifestEntry,
    pair: ReprPair,
    gen_config: GenerationConfig,
    markers: Markers = DEFAULT_MARKERS,
    run_tests: bool = True,
) -> RunRecord:
    """Generate, reconstruct, and classify candidates for one bug.

    Failures (unreachable backend, missing or unreadable project file,
    malformed outputs) are captured in the record, never raised. Every raw
    output is kept in the record, failed reconstructions included.
    """
    started = time.monotonic()
    try:
        _ensure_checkout(entry)
        fn = load_function(entry)
    except (OSError, UnicodeDecodeError, ManifestError) as exc:
        return RunRecord(
            entry.bug_id, str(pair), "", [], [], error=f"project setup failed: {exc}"
        )
    region = Region(*entry.region)
    prompt = build_input(fn, region, pair.input, markers)
    try:
        outputs = request_candidates(gen_config, prompt)
    except (BackendUnreachable, BackendError, BackendTimeout) as exc:
        return RunRecord(
            entry.bug_id, str(pair), prompt, [], [], error=f"{type(exc).__name__}: {exc}"
        )
    generated = time.monotonic()
    candidates = []
    for rank, raw in enumerate(outputs):
        try:
            text = reconstruct(fn, region, pair, raw, gen_config.stop_tokens)
            candidates.append(CandidatePatch(rank, raw, reconstructed=text))
        except _RECONSTRUCT_ERRORS as exc:
            candidates.append(
                CandidatePatch(rank, raw, reconstruct_error=f"{type(exc).__name__}: {exc}")
            )
    test = None
    if run_tests:
        location = FunctionLocation(entry.file, *entry.function_span, fn.text)
        timeout = entry.timeout if entry.timeout is not None else DEFAULT_TEST_TIMEOUT
        spec = TestSpec(entry.test_command, timeout)
        test = functools.partial(check_plausible, entry.project_root, location, spec=spec)
    try:
        verdicts = classify(candidates, entry.reference, test)
        error = None
    except (RepairKitError, OSError) as exc:  # OSError: the project could not be copied
        verdicts = [AssessmentVerdict(c.rank, False, NOT_RUN, False, False) for c in candidates]
        error = f"{type(exc).__name__}: {exc}"
    finished = time.monotonic()
    return RunRecord(
        entry.bug_id,
        str(pair),
        prompt,
        candidates,
        verdicts,
        timings={
            "generate_s": round(generated - started, 4),
            "assess_s": round(finished - generated, 4),
        },
        error=error,
    )


def run_benchmark(
    manifest: Sequence[BugManifestEntry],
    pair: ReprPair,
    gen_config: GenerationConfig,
    store: Optional[RecordStore] = None,
    markers: Markers = DEFAULT_MARKERS,
    workers: int = 1,
    run_tests: bool = True,
) -> list[RunRecord]:
    """Run every bug, resuming from the record store when one is given.

    Completed bugs are never re-queried; per-bug failures are recorded and
    do not abort the run. Bug-level parallelism is bounded by `workers`;
    records are appended as bugs finish. A store holding a manifest bug
    under another pair is a ConfigError.
    """
    if not valid_pair(pair):
        raise ValueError(f"invalid representation pair: {pair}")
    done = store.load() if store is not None else {}
    records: dict[str, RunRecord] = {e.bug_id: done[e.bug_id] for e in manifest if e.bug_id in done}
    for record in records.values():
        if record.pair != str(pair):
            raise ConfigError(f"store {store.path} holds {record.pair} records, not {pair}")
    todo = [e for e in manifest if e.bug_id not in records]

    def _one(entry: BugManifestEntry) -> RunRecord:
        record = run_bug(entry, pair, gen_config, markers, run_tests)
        if store is not None:
            store.append(record)
        return record

    if workers <= 1:
        fresh = [_one(entry) for entry in todo]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            fresh = list(pool.map(_one, todo))
    for record in fresh:
        records[record.bug_id] = record
    return [records[e.bug_id] for e in manifest if e.bug_id in records]


# --------------------------------------------------------------------------
# aggregation

@frozen
class AggregateRow:
    label: str
    universe: int
    plausible: int
    exact: int
    ast: int
    semantic: int
    pending: int

    def check(self) -> None:
        """Raise unless exact <= ast <= semantic <= universe and plausible <= universe."""
        ordered = self.exact <= self.ast <= self.semantic <= self.universe
        if not (ordered and self.plausible <= self.universe):
            raise AggregateInvariantError(
                f"{self.label}: exact={self.exact} ast={self.ast} "
                f"semantic={self.semantic} plausible={self.plausible} "
                f"universe={self.universe}"
            )


@frozen
class AggregateTable:
    rows: tuple[AggregateRow, ...]


def aggregate(
    records: Iterable[RunRecord],
    ratings: Optional[RatingStore] = None,
    universe: Optional[int] = None,
) -> AggregateTable:
    """Bug-level any-candidate counts per representation pair.

    The semantic column counts bugs with an AST-matching or rated-correct
    candidate; bugs whose best candidates are plausible but unrated are
    reported separately as pending. A row that breaks the exact <= ast <=
    semantic <= universe ordering, as a `universe` below the counts does,
    raises AggregateInvariantError (`AggregateRow.check`).
    """
    by_pair: dict[str, list[RunRecord]] = {}
    for record in records:
        by_pair.setdefault(record.pair, []).append(record)
    # an unrated bug's verdicts all resolve to pending, which leaves them as they are
    rated = {bug_id for bug_id, _, _ in ratings._by_round} if ratings is not None else ()
    rows = []
    for pair_tag in sorted(by_pair):
        group = by_pair[pair_tag]
        plausible = exact = ast = semantic = pending = 0
        for record in group:
            verdicts = record.verdicts
            if rated and record.bug_id in rated:
                verdicts = apply_ratings(record.bug_id, verdicts, ratings)
            has_plausible = has_exact = has_ast = has_semantic = has_pending = False
            for v in verdicts:
                if v.plausible == PASS:
                    has_plausible = True
                    if not v.ast and v.semantic == UNLABELED:
                        has_pending = True
                if v.exact:
                    has_exact = True
                if v.ast:
                    has_ast = has_semantic = True
                elif v.semantic == CORRECT:
                    has_semantic = True
            plausible += has_plausible
            exact += has_exact
            ast += has_ast
            semantic += has_semantic
            pending += has_pending and not has_semantic
        row = AggregateRow(
            label=pair_tag,
            universe=universe if universe is not None else len(group),
            plausible=plausible,
            exact=exact,
            ast=ast,
            semantic=semantic,
            pending=pending,
        )
        row.check()
        rows.append(row)
    return AggregateTable(tuple(rows))


def rank_curve(
    records: Iterable[RunRecord], metric: str = "exact", max_rank: int = 10
) -> list[int]:
    """Bugs satisfied within the top k candidates, for k = 1..max_rank.

    Candidate order is the backend's preference order, so the curve shows
    how much of the benchmark each extra candidate buys.
    """
    if metric not in ("exact", "ast", "plausible"):
        raise ValueError(f"unknown metric: {metric!r}")
    value = operator.attrgetter(metric)
    passing = metric == "plausible"
    counts = [0] * max_rank
    for record in records:
        best = None  # the lowest rank that hits, as min() finds it
        for v in record.verdicts:
            if (value(v) == PASS if passing else value(v)) and (best is None or v.rank < best):
                best = v.rank
        if best is not None:
            for k in range(best, max_rank):
                counts[k] += 1
    return counts


# --------------------------------------------------------------------------
# reporting

_COLUMNS = ("label", "universe", "plausible", "exact", "ast", "semantic", "pending")
_HEADERS = ("Representation", "Bugs", "Plausible", "Exact", "AST", "Semantic", "Pending")


def report(table: AggregateTable, fmt: str = "plain") -> str:
    """Deterministic rendering of an aggregate table. `aggregate` refuses a
    row that breaks the metric ordering, so a table is rendered as it is."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format: {fmt!r} (expected {REPORT_FORMATS})")
    cells = [
        [str(getattr(row, column)) for column in _COLUMNS] for row in table.rows
    ]
    if fmt == "delimited":
        lines = [",".join(_HEADERS)] + [",".join(row) for row in cells]
        return "\n".join(lines) + "\n"
    widths = [
        max([len(header)] + [len(row[i]) for row in cells])
        for i, header in enumerate(_HEADERS)
    ]
    padded = [[c.ljust(w) for c, w in zip(row, widths)] for row in [_HEADERS, *cells]]
    if fmt == "markdown-table":
        lines = ["| " + " | ".join(row) + " |" for row in padded]
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    else:
        lines = ["  ".join(row) for row in padded]
    return "\n".join(lines) + "\n"
