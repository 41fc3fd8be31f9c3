"""Benchmark harness: drive the pipeline over a bug manifest.

A manifest is a JSON list of bug entries (project, file, function span,
region, reference fix, test command). For every bug the harness builds the
input representation, requests ranked candidates, reconstructs each one,
and classifies it; records are appended to a JSONL store as they complete
so interrupted runs resume without re-querying finished bugs. A bug counts
toward a metric when any of its candidates satisfies it.
"""
from __future__ import annotations

import json
import logging
import math
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .assess import (
    CORRECT,
    DEFAULT_TEST_TIMEOUT,
    PASS,
    UNLABELED,
    AssessmentVerdict,
    FunctionLocation,
    PlausibilityPlan,
    RatingStore,
    TestSpec,
    apply_ratings,
    classify,
)
from .config import DEFAULT_LEAKAGE_BUGS, PROFILES, REPORT_FORMATS  # the first is re-exported
from .errors import (
    AggregateInvariantError,
    BackendError,
    BackendTimeout,
    BackendUnreachable,
    HunkApplyFailure,
    InvalidRegion,
    MalformedOutput,
    ManifestError,
    RepairKitError,
)
from .gen import CandidatePatch, GenerationConfig, request_candidates
from .jsonl import append_line, mend_tail, read_rows
from .representations import (
    DEFAULT_MARKERS,
    Markers,
    Region,
    ReprPair,
    build_input,
    reconstruct,
    valid_pair,
)
from .syntax import SourceFile, SourceFunction

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BugManifestEntry:
    bug_id: str
    project_root: str
    file: str
    function_start: int
    function_end: int
    region: Region  # function-relative
    reference: str  # the developer-provided fixed function
    test_command: str
    checkout: Optional[str] = None  # shell command that materializes the project
    timeout: Optional[float] = None
    tags: tuple[str, ...] = ()


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
        raise ManifestError(str(path), f"unreadable manifest: {exc}")
    if not isinstance(raw, list):
        raise ManifestError(str(path), "manifest must be a JSON list")
    if profile is not None and profile not in PROFILES:
        raise ManifestError(str(path), f"unknown profile: {profile}")
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


def _parse_entry(index: int, item: dict) -> BugManifestEntry:
    if not isinstance(item, dict):
        raise ManifestError(index, "entry must be an object")
    try:
        span = item["function_span"]
        region = item["region"]
        timeout = item.get("timeout")
        entry = BugManifestEntry(
            bug_id=item["bug_id"],
            project_root=item["project_root"],
            file=item["file"],
            function_start=int(span[0]),
            function_end=int(span[1]),
            region=Region(int(region[0]), int(region[1])),
            reference=item["reference"],
            test_command=item["test_command"],
            checkout=item.get("checkout"),
            timeout=None if timeout is None else float(timeout),
            tags=tuple(item.get("tags", ())),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ManifestError(index, f"malformed entry: {exc}")
    for name in ("bug_id", "project_root", "file", "reference", "test_command", "checkout"):
        value = getattr(entry, name)
        if not (isinstance(value, str) or (value is None and name == "checkout")):
            raise ManifestError(index, f"{name} must be a string, not {value!r}")
    file = Path(entry.file)
    if file.is_absolute() or ".." in file.parts:
        raise ManifestError(index, f"file must be a path inside project_root: {entry.file!r}")
    if entry.timeout is not None and not 0 < entry.timeout < math.inf:
        raise ManifestError(index, f"timeout must be positive and finite: {timeout!r}")
    if not 1 <= entry.function_start <= entry.function_end:
        raise ManifestError(index, "bad function span")
    span_lines = entry.function_end - entry.function_start + 1
    try:
        entry.region.validate(span_lines)
    except InvalidRegion as exc:
        raise ManifestError(index, f"region outside function span: {exc}")
    if not entry.test_command.strip():
        raise ManifestError(index, "empty test command")
    if not entry.reference.strip():
        raise ManifestError(index, "missing reference function")
    return entry


# --------------------------------------------------------------------------
# run records

@dataclass
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


def _row(item: CandidatePatch | AssessmentVerdict) -> dict:
    return {k: v for k, v in vars(item).items() if k != "bug_id"}  # stored once per record


def _record_to_json(record: RunRecord) -> dict:
    # vars(), not asdict(): asdict deep-copies every value, 8x slower per record
    return {
        **vars(record),
        "candidates": [_row(c) for c in record.candidates],
        "verdicts": [_row(v) for v in record.verdicts],
    }


def _record_from_json(data: dict) -> RunRecord:
    bug_id = data["bug_id"]
    data["candidates"] = [CandidatePatch(bug_id=bug_id, **row) for row in data["candidates"]]
    data["verdicts"] = [AssessmentVerdict(bug_id=bug_id, **row) for row in data["verdicts"]]
    return RunRecord(**data)


_encode_record = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


class RecordStore:
    """Append-only JSONL store of run records; safe for threaded appends.

    Each `append` writes one line with a single write; no file is held open
    between appends. A crash mid-append can leave an unterminated last
    line: `load` skips it with a warning and the first `append` cuts it
    off, so a fragment is never followed by another line.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._tail_checked = False

    def load(self) -> dict[str, RunRecord]:
        records: dict[str, RunRecord] = {}
        if self.path.exists():
            for record in read_rows(self.path, _record_from_json):
                records[record.bug_id] = record
        return records

    def append(self, record: RunRecord) -> None:
        line = _encode_record(_record_to_json(record))
        with self._lock:
            if not self._tail_checked:
                mend_tail(self.path)
                self._tail_checked = True
            append_line(self.path, line)


# --------------------------------------------------------------------------
# the benchmark loop

_RECONSTRUCT_ERRORS = (MalformedOutput, HunkApplyFailure, InvalidRegion)


def load_function(entry: BugManifestEntry) -> SourceFunction:
    """The bug's function; ManifestError if its span runs past the end of the file."""
    source = SourceFile(
        entry.file,
        (Path(entry.project_root) / entry.file).read_text(encoding="utf-8"),
    )
    line_count = source.content.count("\n") + 1
    if entry.function_end > line_count:
        raise ManifestError(
            entry.bug_id,
            f"function span {entry.function_start}..{entry.function_end} runs past "
            f"the end of {entry.file} ({line_count} lines)",
        )
    text = source.slice_lines(entry.function_start, entry.function_end)
    return SourceFunction(
        name=entry.bug_id,
        start_line=entry.function_start,
        end_line=entry.function_end,
        text=text,
        file=source,
    )


def _ensure_checkout(entry: BugManifestEntry) -> None:
    if entry.checkout and not Path(entry.project_root).exists():
        subprocess.run(entry.checkout, shell=True, check=True, capture_output=True)


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
    except (OSError, UnicodeDecodeError, ManifestError, subprocess.SubprocessError) as exc:
        return RunRecord(
            entry.bug_id, str(pair), "", [], [], error=f"project setup failed: {exc}"
        )
    prompt = build_input(fn, entry.region, pair.input, markers)
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
            text = reconstruct(fn, entry.region, pair, raw, markers, gen_config.stop_tokens)
            candidates.append(CandidatePatch(entry.bug_id, rank, raw, reconstructed=text))
        except _RECONSTRUCT_ERRORS as exc:
            candidates.append(
                CandidatePatch(
                    entry.bug_id,
                    rank,
                    raw,
                    reconstruct_error=f"{type(exc).__name__}: {exc}",
                )
            )
    plan = None
    if run_tests:
        plan = PlausibilityPlan(
            project_root=entry.project_root,
            location=FunctionLocation(
                entry.file, entry.function_start, entry.function_end, fn.text
            ),
            spec=TestSpec(
                command=entry.test_command,
                timeout=entry.timeout if entry.timeout is not None else DEFAULT_TEST_TIMEOUT,
            ),
        )
    try:
        verdicts = classify(entry.bug_id, candidates, entry.reference, plan)
        error = None
    except (RepairKitError, OSError) as exc:  # OSError: the project could not be copied
        verdicts = [
            AssessmentVerdict(entry.bug_id, c.rank, False, "not-run", False, False)
            for c in candidates
        ]
        error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, shutil.Error) and exc.args and isinstance(exc.args[0], list):
            # copytree lists (source, copy, reason); the copy's path is random
            error = "Error: " + "; ".join(
                f"{src}: {str(why).replace(dst, src)}" for src, dst, why in exc.args[0]
            )
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
    records are appended as bugs finish.
    """
    if not valid_pair(pair):
        raise ValueError(f"invalid representation pair: {pair}")
    done = store.load() if store is not None else {}
    records: dict[str, RunRecord] = {e.bug_id: done[e.bug_id] for e in manifest if e.bug_id in done}
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

@dataclass(frozen=True)
class AggregateRow:
    label: str
    universe: int
    plausible: int
    exact: int
    ast: int
    semantic: int
    pending: int

    @property
    def monotonic(self) -> bool:
        ordered = self.exact <= self.ast <= self.semantic <= self.universe
        return ordered and self.plausible <= self.universe

    def check(self) -> None:
        if not self.monotonic:
            raise AggregateInvariantError(
                f"{self.label}: exact={self.exact} ast={self.ast} "
                f"semantic={self.semantic} plausible={self.plausible} "
                f"universe={self.universe}"
            )


@dataclass(frozen=True)
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
    reported separately as pending. The exact <= ast <= semantic <=
    universe ordering is asserted on every aggregate produced.
    """
    by_pair: dict[str, list[RunRecord]] = {}
    for record in records:
        by_pair.setdefault(record.pair, []).append(record)
    rows = []
    for pair_tag in sorted(by_pair):
        group = by_pair[pair_tag]
        plausible = exact = ast = semantic = pending = 0
        for record in group:
            verdicts = record.verdicts
            if ratings is not None:
                verdicts = apply_ratings(verdicts, ratings)
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

    def hit(verdict: AssessmentVerdict) -> bool:
        if metric == "plausible":
            return verdict.plausible == PASS
        return bool(getattr(verdict, metric))

    counts = [0] * max_rank
    for record in records:
        best = min(
            (v.rank for v in record.verdicts if hit(v)), default=None
        )
        if best is not None:
            for k in range(best, max_rank):
                counts[k] += 1
    return counts


# --------------------------------------------------------------------------
# reporting

_COLUMNS = ("label", "universe", "plausible", "exact", "ast", "semantic", "pending")
_HEADERS = ("Representation", "Bugs", "Plausible", "Exact", "AST", "Semantic", "Pending")


def report(table: AggregateTable, fmt: str = "plain") -> str:
    """Deterministic rendering of an aggregate table.

    Tables violating the metric ordering render with a warning banner
    instead of failing, so damaged stores can still be inspected.
    """
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format: {fmt!r} (expected {REPORT_FORMATS})")
    warnings = [row.label for row in table.rows if not row.monotonic]
    banner = (
        "WARNING: metric ordering violated (exact <= ast <= semantic <= bugs) "
        f"in rows: {', '.join(warnings)}\n"
        if warnings
        else ""
    )
    cells = [
        [str(getattr(row, column)) for column in _COLUMNS] for row in table.rows
    ]
    if fmt == "delimited":
        lines = [",".join(_HEADERS)] + [",".join(row) for row in cells]
        return banner + "\n".join(lines) + "\n"
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
    return banner + "\n".join(lines) + "\n"
