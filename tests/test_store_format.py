"""The on-disk formats of the record and rating stores, pinned byte for byte.

The golden files hold fixed records and ratings with non-ASCII text, an
errored run, a failed reconstruction and a tiebreak. Writing the same
objects must give the same bytes, and loading the files must give the same
objects, so stores written by earlier versions keep resuming and reporting.
"""
from pathlib import Path

from repairkit.assess import AssessmentVerdict, RatingStore, SemanticRating
from repairkit.bench import RecordStore, RunRecord
from repairkit.gen import CandidatePatch

GOLDEN = Path(__file__).parent / "golden"


def _run_record(bug_id, pair, prompt, candidates, verdicts, timings=None, error=None):
    return RunRecord(
        bug_id,
        pair,
        prompt,
        [CandidatePatch(bug_id, *c) for c in candidates],
        [AssessmentVerdict(bug_id, *v) for v in verdicts],
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
