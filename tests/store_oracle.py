"""The stores as they were before later speed-ups, kept as the oracle for
the differential tests in `test_assess.py`, `test_bench.py`,
`test_jsonl.py` and `test_store_format.py`:

- the rating store's protocol and the bench aggregate from before the store
  indexed its ratings by `(bug_id, rank, round)` and `aggregate` made one
  pass per record: every query a scan of the ratings in insertion order,
  verdicts relabelled with `dataclasses.replace`, and five `any(...)`
  passes over each record's verdicts;
- `jsonl.read_rows` from before it decoded a line with `raw_decode`: every
  non-blank line through `json.loads(line.decode("utf-8"))`;
- the record store's row decoder from before a load shared one verdict
  among equal verdict rows: every verdict row decoded on its own;
- `bench.rank_curve` from before it picked the metric's attribute once: a
  closure call per verdict;
- `jsonl.mend_tail` from before it read only the last line: the whole file.
"""
import json
import logging
from dataclasses import replace

from repairkit.assess import (
    CORRECT, FIRST, INCORRECT, PASS, PENDING, TIEBREAK, UNLABELED, AssessmentVerdict,
)
from repairkit.bench import AggregateRow, AggregateTable, RunRecord
from repairkit.config import decode
from repairkit.errors import DuplicateRating, InvalidRating, StoreError
from repairkit.gen import CandidatePatch

log = logging.getLogger("repairkit.jsonl")


def oracle_read_rows(path, make):
    """`jsonl.read_rows`, decoding every line with `json.loads`."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))  # a torn character raises too
            except ValueError as exc:
                if line.endswith(b"\n"):
                    raise StoreError(path, number, exc) from exc
                log.warning("%s: skipping torn last line %.60r", path, line)
                continue
            try:
                item = make(row)
            except (ValueError, TypeError, KeyError) as exc:
                raise StoreError(path, number, exc) from exc
            yield item


def oracle_record_from_json(data):
    """One record row, each candidate built and each verdict decoded from its
    own row."""
    data["candidates"] = [CandidatePatch(**row) for row in data["candidates"]]
    data["verdicts"] = [decode(AssessmentVerdict, row) for row in data["verdicts"]]
    return RunRecord(**data)


class ListRatingStore:
    """In-memory ratings in insertion order; `add` keeps the old checks."""

    def __init__(self):
        self.ratings = []

    def _round(self, bug_id, rank, stage):
        return [
            r for r in self.ratings
            if r.bug_id == bug_id and r.rank == rank and r.round == stage
        ]

    def first_round(self, bug_id, rank):
        return self._round(bug_id, rank, FIRST)

    def tiebreaks(self, bug_id, rank):
        return self._round(bug_id, rank, TIEBREAK)

    def add(self, rating):
        if any(r.rater == rating.rater for r in self._round(rating.bug_id, rating.rank, rating.round)):
            raise DuplicateRating(rating.rater)
        if rating.round == TIEBREAK:
            if len({r.label for r in self.first_round(rating.bug_id, rating.rank)}) < 2:
                raise InvalidRating(rating.rater)
        self.ratings.append(rating)


def oracle_resolve_semantic(store, bug_id, rank):
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


def _oracle_apply_ratings(bug_id, verdicts, store):
    out = []
    for verdict in verdicts:
        resolved = oracle_resolve_semantic(store, bug_id, verdict.rank)
        if resolved == PENDING:
            out.append(verdict)
        elif verdict.exact and resolved == INCORRECT:
            raise InvalidRating(f"{bug_id}#{verdict.rank}: an exact match rated incorrect")
        else:
            out.append(replace(verdict, semantic=resolved))
    return out


def oracle_aggregate(records, ratings=None, universe=None):
    """`bench.aggregate`, with `ratings` a `ListRatingStore` or None."""
    by_pair = {}
    for record in records:
        by_pair.setdefault(record.pair, []).append(record)
    rows = []
    for pair_tag in sorted(by_pair):
        group = by_pair[pair_tag]
        plausible = exact = ast = semantic = pending = 0
        for record in group:
            verdicts = record.verdicts
            if ratings is not None:
                verdicts = _oracle_apply_ratings(record.bug_id, verdicts, ratings)
            has_plausible = any(v.plausible == PASS for v in verdicts)
            has_exact = any(v.exact for v in verdicts)
            has_ast = any(v.ast for v in verdicts)
            has_semantic = any(v.ast or v.semantic == CORRECT for v in verdicts)
            has_pending = any(
                v.plausible == PASS and not v.ast and v.semantic == UNLABELED
                for v in verdicts
            )
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


def oracle_rank_curve(records, metric="exact", max_rank=10):
    if metric not in ("exact", "ast", "plausible"):
        raise ValueError(f"unknown metric: {metric!r}")

    def hit(verdict):
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


def oracle_mend_tail(path):
    """`jsonl.mend_tail`, reading the whole file."""
    data = path.read_bytes() if path.exists() else b""
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    try:
        json.loads(data[cut:].decode("utf-8"))
    except ValueError:
        with open(path, "r+b") as fh:
            fh.truncate(cut)
    else:
        with open(path, "ab") as fh:
            fh.write(b"\n")
