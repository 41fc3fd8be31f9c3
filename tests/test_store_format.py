"""The on-disk formats of the record and rating stores, pinned byte for byte.

The golden files hold fixed records and ratings with non-ASCII text, an
errored run, a failed reconstruction and a tiebreak. Writing the same
objects must give the same bytes, and loading the files must give the same
objects, so stores written by earlier versions keep resuming and reporting.
"""
import dataclasses
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repairkit import assess
from repairkit.assess import AssessmentVerdict, RatingStore, SemanticRating
from repairkit.bench import RecordStore, RunRecord
from repairkit.errors import InvalidRating, RepairKitError, StoreError
from repairkit.gen import CandidatePatch
from store_oracle import ListRatingStore, oracle_read_rows, oracle_record_from_json

GOLDEN = Path(__file__).parent / "golden"
BOM = "\ufeff".encode("utf-8")


def _run_record(bug_id, pair, prompt, candidates, verdicts, timings=None, error=None):
    return RunRecord(
        bug_id,
        pair,
        prompt,
        [CandidatePatch(*c) for c in candidates],
        [AssessmentVerdict(*v) for v in verdicts],
        timings=timings or {},
        error=error,
    )


RECORDS = [
    _run_record(
        "Math-5",
        "IR4xOR2",
        "int f(int a) {\n// buggy: return a – 1; // naïve ✓\n<FILL_ME>\n}",
        [
            (0, "        return a + 1;", "int f(int a) {\n        return a + 1;\n}"),
            (1, "%%% broken ☃\u2028@@@", None, "MalformedOutput: no code in output"),
            (2, '        return "é🐛 " + a;', 'int f(int a) {\n        return "é🐛 " + a;\n}'),
        ],
        [
            (0, True, "pass", True, True),
            (1, False, "not-run", False, False),
            (2, True, "fail", False, False, "unlabeled"),
        ],
        timings={"generate_s": 0.0123, "assess_s": 1.5},
    ),
    _run_record(
        "Lang-ü",
        "IR4xOR2",
        "",
        [],
        [],
        error="project setup failed: [Errno 2] No such file or directory: 'ç/Lib.java'",
    ),
    _run_record(
        "Chart-1",
        "IR1xOR3",
        "int g() {\n    return 0;\n}",
        [],
        [],
        error="BackendUnreachable: http://127.0.0.1:9/: [Errno 111] Connection refused",
    ),
    _run_record(
        "Closure-3",
        "IR1xOR3",
        "void h() {\n\tx();\r\n}",
        [(0, "void h() {\n\ty();\n}", "void h() {\n\ty();\n}")],
        [(0, False, "not-run", False, False)],
        timings={"generate_s": 0.0, "assess_s": 0.25},
        error="SpliceError: stale line range for Lib.java",
    ),
]

RATINGS = [
    SemanticRating("Math-5", 2, "alice", "correct", timestamp=1700000000.25),
    SemanticRating("Math-5", 2, "zoë", "incorrect", timestamp=1700000001.5),
    SemanticRating("Math-5", 2, "carol", "correct", "tiebreak", timestamp=1700000002.0),
    SemanticRating("Lang-ü", 0, "alice", "correct", timestamp=1700000003.125),
    SemanticRating("Lang-ü", 0, "zoë", "correct", timestamp=1700000004.0),
]


def test_record_store_bytes_match_golden(tmp_path):
    store = RecordStore(tmp_path / "records.jsonl")
    for record in RECORDS:
        store.append(record)
    assert store.path.read_bytes() == (GOLDEN / "record_store.jsonl").read_bytes()


def test_record_store_golden_loads_to_the_same_records():
    loaded = RecordStore(GOLDEN / "record_store.jsonl").load()
    assert list(loaded.values()) == RECORDS


def test_rating_store_bytes_match_golden(tmp_path):
    store = RatingStore(tmp_path / "ratings.jsonl")
    for rating in RATINGS:
        store.add(rating)
    assert store.path.read_bytes() == (GOLDEN / "rating_store.jsonl").read_bytes()


def test_rating_store_golden_loads_to_the_same_ratings():
    assert list(RatingStore(GOLDEN / "rating_store.jsonl")) == RATINGS


def _whole_rows(data: bytes) -> int:
    """How many rows of a store cut after `data` are whole: a last line
    missing only its newline still holds its row."""
    lines = data.split(b"\n")
    return len(lines) - 1 + (lines[-1] != b"" and _parses(lines[-1]))


def _parses(line: bytes) -> bool:
    try:
        json.loads(line.decode("utf-8"))
    except ValueError:
        return False
    return True


# Per store: its golden file, the rows that file holds, a row to append,
# and how to append one row and load all rows.
STORES = {
    "ratings": (
        "rating_store.jsonl",
        RATINGS,
        SemanticRating("Chart-1", 0, "dave", "correct", timestamp=1700000005.0),
        lambda path, row: RatingStore(path).add(row),
        lambda path: list(RatingStore(path)),
    ),
    "records": (
        "record_store.jsonl",
        RECORDS,
        _run_record("Time-9", "IR1xOR3", "", [], [], error="BackendTimeout: timed out"),
        lambda path, row: RecordStore(path).append(row),
        lambda path: list(RecordStore(path).load().values()),
    ),
}


@pytest.mark.parametrize("store", sorted(STORES))
def test_append_after_every_cut_keeps_whole_rows(tmp_path, store):
    """A crash can cut a store after any byte. Opening it, appending a row
    and reloading gives the whole rows before the cut plus the new row, and
    leaves no fragment in the file."""
    golden, rows, new, append, load = STORES[store]
    data = (GOLDEN / golden).read_bytes()
    path = tmp_path / golden
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        kept = rows[: _whole_rows(data[:cut])]
        assert load(path) == kept, cut
        append(path, new)
        assert load(path) == [*kept, new], cut
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b"" and all(_parses(line) for line in lines[:-1]), cut


@pytest.mark.parametrize("store", sorted(STORES))
def test_last_line_with_a_bom_is_skipped_then_cut(tmp_path, store):
    """A load refuses a BOM, so a last line that starts with one is torn:
    the first append cuts it off rather than keeping it."""
    golden, rows, new, append, load = STORES[store]
    *whole, last, end = (GOLDEN / golden).read_bytes().split(b"\n")
    assert end == b""
    path = tmp_path / golden
    path.write_bytes(b"".join(line + b"\n" for line in whole) + BOM + last)
    assert load(path) == rows[:-1]
    append(path, new)
    assert load(path) == [*rows[:-1], new]


def _append_all(store, path, rows):
    if store == "ratings":
        ratings = RatingStore(path)
        for row in rows:
            ratings.add(row)
    else:
        records = RecordStore(path)
        for row in rows:
            records.append(row)


@pytest.mark.parametrize("store", sorted(STORES))
def test_one_store_opens_its_file_once(tmp_path, monkeypatch, store):
    golden, rows, _, _, _ = STORES[store]
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path))
        return real_open(path, *args, **kwargs)

    real_open = os.open
    monkeypatch.setattr(os, "open", counting_open)
    _append_all(store, tmp_path / golden, rows)
    assert opened == [tmp_path / golden]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_dropped_stores_close_their_files(tmp_path):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for i in range(150):
        _append_all("ratings", tmp_path / f"ratings{i}.jsonl", RATINGS[:1])
        _append_all("records", tmp_path / f"records{i}.jsonl", RECORDS[:1])
    assert open_fds() == before


_ROW = {"ast": False, "exact": False, "parse_ok": True, "plausible": "pass", "rank": 0}


def _store_of_verdicts(tmp_path, verdicts):
    """A record store holding one record per (bug id, verdict row)."""
    candidates = [{"rank": 0, "raw_output": "x", "reconstructed": "x"}]
    lines = [
        {"bug_id": bug_id, "pair": "IR4xOR2", "prompt": "", "candidates": candidates,
         "verdicts": [verdict]}
        for bug_id, verdict in verdicts
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return path


def test_equal_verdict_rows_load_as_one_value(tmp_path):
    records = RecordStore(_store_of_verdicts(tmp_path, [("a", _ROW), ("b", dict(_ROW))])).load()
    assert records["a"].verdicts[0] is records["b"].verdicts[0]


def test_a_verdict_row_of_another_json_type_is_refused_at_its_line(tmp_path):
    rows = [("a", _ROW), ("b", _ROW), ("c", {**_ROW, "parse_ok": 1})]
    path = _store_of_verdicts(tmp_path, rows)
    with pytest.raises(StoreError) as refused:
        RecordStore(path).load()
    assert refused.value.line == 3
    assert str(refused.value) == f"{path}:3: TypeError: parse_ok must be true or false, not 1"


def test_a_record_with_fewer_verdicts_than_candidates_is_refused_at_its_line(tmp_path):
    candidates = [{"rank": rank, "raw_output": "x", "reconstructed": "x"} for rank in range(3)]
    row = {"bug_id": "a", "pair": "IR4xOR2", "prompt": "", "candidates": candidates,
           "verdicts": [{**_ROW, "rank": 0}, {**_ROW, "rank": 1}]}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(StoreError) as refused:
        RecordStore(path).load()
    assert str(refused.value) == f"{path}:1: ValueError: one verdict per candidate required"


# Values a verdict row may hold besides plain ones: some equal a bool or an
# int of another type (1.0, -0.0), one equals nothing (NaN). A load refuses
# each, and a verdict shared by content must never stand in for one.
_ODD = [1.0, 0.0, -0.0, float("nan"), None, [], [0]]
_FLAG = [True, False, 1, 0] * 2 + _ODD


def _constructs(row: dict) -> bool:
    try:
        AssessmentVerdict(**row)
    except ValueError:
        return False
    return True


def _verdict_rows_of(ranks: list, flags: list):
    return st.fixed_dictionaries(
        {
            "rank": st.sampled_from(ranks),
            "parse_ok": st.sampled_from(flags),
            "plausible": st.sampled_from(["pass", "fail", "not-run"]),
            "exact": st.sampled_from(flags),
            "ast": st.sampled_from(flags),
        },
        optional={"semantic": st.sampled_from(["unlabeled", "correct", "incorrect"])},
    ).filter(_constructs)


# Half the rows well typed, so that most files share verdicts before any
# twin is refused; the other half may hold any value above.
_verdict_rows = _verdict_rows_of([0, 1, 2], [True, False]) | _verdict_rows_of(
    [0, 1, 2] * 3 + [True, False, "0", *_ODD], _FLAG
)


def _twins(value) -> list:
    """`value` and the values of other JSON types that equal it."""
    for group in ([True, 1, 1.0], [False, 0, 0.0, -0.0]):
        if type(value) in (bool, int, float) and value == group[1]:
            return group
    return [value]


def _bad(row: dict, how: str):
    """A verdict row that `AssessmentVerdict` rejects."""
    if how == "missing-key":
        return {k: v for k, v in row.items() if k != "ast"}
    if how == "unknown-key":
        return {**row, "mood": "sure"}
    if how == "bad-value":
        return {**row, "plausible": "maybe"}
    return {"not-an-object": 1, "null": None, "string": "x", "list": [1]}[how]


@st.composite
def _record_files(draw) -> bytes:
    """Records whose verdict rows come from a small pool of rows that
    `AssessmentVerdict` takes: a row, and rows that differ from one before
    them in one value's type alone, or not at all, some with their keys in
    another order. A row with a value not of its annotated JSON type is
    refused at its line. The last record may hold a bad row, or no verdict
    list. A record row holds five keys, all seven or seven with one swapped
    for an unknown key (`_record_keys`)."""
    base = draw(_verdict_rows)
    pool = [base]
    for _ in range(draw(st.sampled_from([2, 3, 4]))):
        twin = dict(draw(st.sampled_from(pool)))
        key = draw(st.sampled_from(sorted(twin)))
        twin[key] = draw(st.sampled_from([twin[key], *_twins(twin[key])]))
        if draw(st.sampled_from([False] * 3 + [True])):
            twin = dict(reversed(twin.items()))
        if _constructs(twin):
            pool.append(twin)
    rows = []
    for i in range(draw(st.integers(2, 6))):
        verdicts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        rows.append({"bug_id": f"b{i}", "pair": "IR4xOR2", "prompt": "", "verdicts": verdicts})
    how = draw(st.sampled_from(
        [None] * 8
        + ["missing-key", "unknown-key", "bad-value", "not-an-object", "null", "string", "list"]
        + ["no-list"]
    ))
    if how == "no-list":
        rows[-1]["verdicts"] = None
    elif how is not None:
        rows[-1]["verdicts"].append(_bad(base, how))
    lines = []
    for row in rows:
        row["candidates"] = [
            {"rank": r, "raw_output": "x", "reconstructed": "x"}
            for r in range(len(row["verdicts"] or ()))
        ]
        lines.append(json.dumps(draw(_record_keys(row))).encode("utf-8") + b"\n")
    return b"".join(lines)


@st.composite
def _record_keys(draw, row: dict) -> dict:
    """`row` with its five keys, all seven (`timings` and `error` added),
    or seven with one swapped for an unknown key: the rows that reach a
    record's positional build and the ones that fall back from it."""
    how = draw(st.sampled_from(["five", "seven", "seven", "swapped"]))
    if how == "five":
        return row
    row = {
        **row,
        "timings": draw(st.sampled_from([{}, {"generate_s": 0.5, "assess_s": 1.0}])),
        "error": draw(st.sampled_from([None, "BackendTimeout: timed out"])),
    }
    if how == "swapped":
        row["mood"] = row.pop(draw(st.sampled_from(["bug_id", "prompt", "timings", "error"])))
    return row


def _loaded(load, path):
    """Each record's repr and its verdict fields' types, or the StoreError."""
    try:
        records = load(path)
    except StoreError as exc:
        return (exc.path, exc.line, str(exc))
    return [
        (
            repr(record),
            [[type(getattr(v, f.name)) for f in dataclasses.fields(v)] for v in record.verdicts],
        )
        for record in records.values()
    ]


def _oracle_load(path):
    return {record.bug_id: record for record in oracle_read_rows(path, oracle_record_from_json)}


@settings(max_examples=300, deadline=None)
@given(_record_files())
def test_record_load_matches_the_field_by_field_decoder(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_bytes(data)
        assert _loaded(lambda p: RecordStore(p).load(), path) == _loaded(_oracle_load, path)


# --------------------------------------------------------------------------
# the rating line written from its fixed layout

class _Str(str):
    """A string that is not exactly a `str`, so it takes the encoder."""


_odd_text = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "🐛", " ",
                     "\ud800", "\udfff", "a", "/"]),
    max_size=6,
) | st.text(max_size=4)
# Each field mostly of its exact type, so that most ratings take the layout.
_texts = st.one_of(_odd_text, _odd_text, _odd_text, _odd_text.map(_Str))
_rating_values = st.builds(
    SemanticRating,
    bug_id=_texts,
    rank=st.one_of(
        st.integers(), st.integers(), st.booleans(),
        st.sampled_from([10**400, -(10**400), 10**5000]),
    ),
    rater=_texts,
    label=st.sampled_from(["correct", "incorrect"] * 3 + [_Str("correct")]),
    round=st.sampled_from(["first", "tiebreak"] * 3 + [_Str("first")]),
    timestamp=st.one_of(
        st.floats(), st.integers(),
        st.sampled_from(
            [-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf"), 0.0, 1700000000.25]
        ),
    ),
)


def _line(encode):
    try:
        return encode()
    except ValueError as exc:  # an int past the digit limit of str()
        return type(exc), str(exc)


def _assert_same_line(rating):
    row = {f.name: getattr(rating, f.name) for f in dataclasses.fields(rating)}
    assert _line(lambda: assess._rating_line(rating)) == _line(lambda: assess._encode_rating(row))


def _plain(rank=0, timestamp=1.5, text="b"):
    return SemanticRating(text, rank, "r", "correct", "first", timestamp)


_EDGES = [
    *(_plain(timestamp=t) for t in
      (float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16, 2, True)),
    *(_plain(rank=r) for r in (True, False, 10**400, 10**5000)),
    *(_plain(text=t) for t in ('"\\\x00\x1f\x7f', "é🐛\u2028", "\ud800", _Str("b"))),
]


@settings(max_examples=400, deadline=None)
@given(_rating_values)
def test_rating_line_is_the_encoder_line(rating):
    _assert_same_line(rating)


@pytest.mark.parametrize("rating", _EDGES)
def test_rating_line_edge_is_the_encoder_line(rating):
    _assert_same_line(rating)



# --------------------------------------------------------------------------
# a rating load applies `add`'s rules, as a replay into the list store does

_rating_rows = st.fixed_dictionaries(
    {
        "bug_id": st.sampled_from(["a", "b"]),
        "rank": st.sampled_from([0, 1] * 4 + [-3, -1, True, 1.0, "0", None]),
        "rater": st.sampled_from(["r1", "r2", "r3"]),
        "label": st.sampled_from(["correct", "incorrect"] * 4 + ["maybe"]),
        "round": st.sampled_from(["first"] * 3 + ["tiebreak"]),
        "timestamp": st.sampled_from([1.5, 2, 0.0]),
    },
).flatmap(
    lambda row: st.sampled_from([
        row, row, row, row,
        {k: v for k, v in row.items() if k != "timestamp"},
        {k: v for k, v in row.items() if k != "rater"},
        {**row, "mood": "sure"},
        {**{k: v for k, v in row.items() if k != "timestamp"}, "mood": "sure"},  # swapped
        dict(reversed(row.items())),
    ])
)


def _replayed(path):
    """The ratings a replay of `path` into `ListRatingStore` keeps, or the
    line and error type of its first refused row."""
    oracle = ListRatingStore()
    for number, line in enumerate(path.read_bytes().splitlines(), 1):
        try:
            rating = SemanticRating(**json.loads(line))
            if rating.rank < 0 or type(rating.rank) is not int:
                raise InvalidRating(rating.rank)
            oracle.add(rating)
        except (ValueError, TypeError, RepairKitError) as exc:
            return number, type(exc)
    return _kept(oracle.ratings)


def _kept(ratings):
    return [(repr(r), [type(value) for value in dataclasses.astuple(r)]) for r in ratings]


def _reloaded(path):
    try:
        return _kept(RatingStore(path))
    except StoreError as exc:
        return exc.line, type(exc.__cause__)


@settings(max_examples=400, deadline=None)
@given(st.lists(_rating_rows, max_size=12))
def test_rating_load_matches_a_replay_into_the_list_store(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ratings.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert _reloaded(path) == _replayed(path)


# --------------------------------------------------------------------------
# candidates built from their rows

_candidate_rows = st.fixed_dictionaries(
    {
        "rank": st.sampled_from([0, 1, 2] * 3 + [-1, True, 1.0, "0", None]),
        "raw_output": st.sampled_from(["x", "", None, 3]),
        "reconstructed": st.sampled_from(["y", None]),
        "reconstruct_error": st.sampled_from([None, "MalformedOutput: no code"]),
    },
).flatmap(
    lambda row: st.sampled_from([
        row, row, row, row,
        dict(reversed(row.items())),
        {k: v for k, v in row.items() if k != "reconstruct_error"},
        {k: v for k, v in row.items() if k != "raw_output"},
        {**row, "mood": "sure"},
        {**{k: v for k, v in row.items() if k != "reconstruct_error"}, "mood": "sure"},  # swapped
        {**row, "reconstructed": "y", "reconstruct_error": "E"},  # both texts set
        {**row, "reconstructed": None, "reconstruct_error": None},  # neither
        None,
        ["rank", 0],
        "candidate",
    ])
)


@st.composite
def _candidate_record_files(draw) -> bytes:
    lines = []
    for i in range(draw(st.integers(1, 5))):
        candidates = draw(st.lists(_candidate_rows, max_size=3))
        verdicts = [
            {"ast": False, "exact": False, "parse_ok": True, "plausible": "fail", "rank": r}
            for r in range(len(candidates))
        ]
        row = {"bug_id": f"b{i}", "pair": "IR4xOR2", "prompt": "", "candidates": candidates,
               "verdicts": verdicts}
        lines.append(json.dumps(draw(_record_keys(row))).encode("utf-8") + b"\n")
    return b"".join(lines)


def _candidates_loaded(load, path):
    """Each record's repr and its candidate fields' types, or the StoreError."""
    try:
        records = load(path)
    except StoreError as exc:
        return (exc.path, exc.line, str(exc))
    return [
        (repr(record), [[type(getattr(c, f)) for f in CandidatePatch.__dataclass_fields__]
                        for c in record.candidates])
        for record in records.values()
    ]


@settings(max_examples=300, deadline=None)
@given(_candidate_record_files())
def test_candidate_rows_load_as_the_field_by_field_decoder_loads_them(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_bytes(data)
        assert _candidates_loaded(lambda p: RecordStore(p).load(), path) == (
            _candidates_loaded(_oracle_load, path)
        )
