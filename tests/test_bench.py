"""Manifest loading, the end-to-end harness, aggregation, and reports."""
import dataclasses
import json
import logging
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit import gen
from repairkit.assess import AssessmentVerdict, RatingStore, SemanticRating, hash_tree
from repairkit.bench import (
    AggregateRow,
    AggregateTable,
    RecordStore,
    RunRecord,
    aggregate,
    load_manifest,
    rank_curve,
    report,
    run_benchmark,
)
from repairkit.errors import (
    AggregateInvariantError,
    DuplicateRating,
    InvalidRating,
    ManifestError,
)
from repairkit.gen import CandidatePatch, GenerationConfig
from repairkit.representations import ReprPair
from store_oracle import ListRatingStore, oracle_aggregate

PAIR = ReprPair.parse("IR4xOR2")


def _entry(bug_id="b1", **overrides):
    entry = {
        "bug_id": bug_id,
        "project_root": "/tmp/nowhere",
        "file": "Lib.java",
        "function_span": [2, 4],
        "region": [2, 2],
        "reference": "    int f() {\n        return 1;\n    }",
        "test_command": "true",
    }
    entry.update(overrides)
    return entry


class TestLoadManifest:
    def test_three_bug_fixture(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry("a"), _entry("b"), _entry("c")]))
        entries = load_manifest(path)
        assert [e.bug_id for e in entries] == ["a", "b", "c"]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry("dup"), _entry("dup")]))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_region_outside_span_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry(region=[1, 9])]))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_empty_test_command_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry(test_command="  ")]))
        with pytest.raises(ManifestError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bug_id", 7), ("project_root", ["/tmp"]), ("file", None), ("reference", 5),
            ("test_command", {"run": "true"}), ("checkout", 1.5),
        ],
    )
    def test_non_string_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry(**{field: value})]))
        with pytest.raises(ManifestError, match=f"{field} must be a string"):
            load_manifest(path)

    @pytest.mark.parametrize("file", ["/tmp/Lib.java", "../Lib.java", "src/../../Lib.java"])
    def test_file_outside_project_rejected(self, tmp_path, file):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry(file=file)]))
        with pytest.raises(ManifestError, match="file must be a path inside project_root"):
            load_manifest(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(path)

    @pytest.mark.parametrize("timeout, expected", [("60", 60.0), (None, None), (2.5, 2.5)])
    def test_timeout_is_read_as_seconds(self, tmp_path, timeout, expected):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry(timeout=timeout)]))
        [entry] = load_manifest(path)
        assert entry.timeout == expected

    @pytest.mark.parametrize("timeout", [-1, 0, "soon", "inf", float("nan"), [60]])
    def test_bad_timeout_rejected(self, tmp_path, timeout):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry(timeout=timeout)]))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_defects4j_profile_applies_leakage_denylist(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps([_entry("Math-28"), _entry("Math-44"),
                        _entry("JacksonDatabind-82"), _entry("Chart-5")])
        )
        entries = load_manifest(path, profile="defects4j-sf")
        assert [e.bug_id for e in entries] == ["Chart-5"]
        assert len(load_manifest(path)) == 4  # no profile, no denylist

    def test_unknown_profile_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry()]))
        with pytest.raises(ManifestError):
            load_manifest(path, profile="imaginary")


class TestRunBenchmark:
    def test_seeded_reference_chunks_give_full_exact(self, bench_fixture):
        manifest_path, mock, chunks = bench_fixture
        manifest = load_manifest(manifest_path)[:3]
        for entry in manifest:
            mock.fixture_map[entry.bug_id] = ["        return a + b;"]
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock))
        [row] = aggregate(records).rows
        assert (row.plausible, row.exact, row.ast) == (3, 3, 3)

    def test_backend_down_records_errors_and_zero_aggregate(self, bench_fixture):
        manifest_path, _, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:3]
        config = GenerationConfig(
            backend="http://127.0.0.1:9/", retries=0, timeout=0.2
        )
        records = run_benchmark(manifest, PAIR, config)
        assert all("BackendUnreachable" in (r.error or "") for r in records)
        [row] = aggregate(records, universe=len(manifest)).rows
        assert (row.plausible, row.exact, row.ast, row.semantic) == (0, 0, 0, 0)

    def test_resume_never_requeries_completed_bugs(self, bench_fixture, tmp_path):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        store = RecordStore(tmp_path / "records.jsonl")
        first = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), store=store)
        calls_after_first = mock.calls
        assert calls_after_first == len(manifest)
        second = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), store=store)
        assert mock.calls == calls_after_first  # no new queries
        table_one = aggregate(first, universe=len(manifest))
        table_two = aggregate(second, universe=len(manifest))
        assert table_one == table_two
        # Serialization keeps candidate ranks and raw outputs intact.
        for before, after in zip(first, second):
            assert [c.rank for c in after.candidates] == [c.rank for c in before.candidates]
            assert [c.raw_output for c in after.candidates] == [
                c.raw_output for c in before.candidates
            ]

    def test_parallel_run_matches_serial(self, bench_fixture):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        serial = aggregate(
            run_benchmark(manifest, PAIR, GenerationConfig(backend=mock)),
            universe=len(manifest),
        )
        parallel = aggregate(
            run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), workers=4),
            universe=len(manifest),
        )
        assert serial == parallel

    def test_checkout_command_materializes_project(self, bench_fixture, tmp_path):
        manifest_path, mock, _ = bench_fixture
        entries = json.loads(manifest_path.read_text())
        source = entries[0]["project_root"]
        target = tmp_path / "materialized"
        entries[0]["project_root"] = str(target)
        entries[0]["checkout"] = f"cp -r {source} {target}"
        relocated = tmp_path / "m.json"
        relocated.write_text(json.dumps(entries[:1]))
        manifest = load_manifest(relocated)
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock))
        assert records[0].error is None
        assert any(v.exact for v in records[0].verdicts)

    @pytest.mark.parametrize("escape", ["absolute", "dotdot", "symlink"])
    def test_plausibility_never_writes_outside_its_copy(
        self, bench_fixture, tmp_path, monkeypatch, escape
    ):
        """A target the copy would reach outside itself, by an absolute
        path, by `..` or through a symlink, is never written. The bug is
        recorded and the next bug is still run. load_manifest refuses the
        first two, so their entries are built directly."""
        manifest_path, mock, _ = bench_fixture
        first, second = load_manifest(manifest_path)[:2]
        project = Path(first.project_root)
        real = project / "Lib.java"
        if escape == "absolute":
            first = dataclasses.replace(first, file=str(real))
        elif escape == "dotdot":
            # The copy lies at <tempdir>/<random>/e2e-00 and the project at
            # <tmp_path>/bench/e2e-00: with tempdir = tmp_path, the same
            # `..` path reaches the project's file from either side.
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
            first = dataclasses.replace(first, file="../../bench/e2e-00/Lib.java")
        else:
            real = tmp_path / "elsewhere" / "Lib.java"
            real.parent.mkdir()
            (project / "Lib.java").rename(real)
            (project / "Lib.java").symlink_to(real)
        original = real.read_bytes()
        for entry in (first, second):
            mock.fixture_map[entry.bug_id] = ["        return b + a;"]  # tested, not exact
        records = run_benchmark([first, second], PAIR, GenerationConfig(backend=mock))
        assert real.read_bytes() == original
        assert [r.bug_id for r in records] == ["e2e-00", "e2e-01"]
        if escape == "symlink":  # the link in the copy is replaced, and the test runs
            assert records[0].error is None
            assert [v.plausible for v in records[0].verdicts] == ["pass"]
        else:
            assert "SpliceError" in records[0].error and "outside" in records[0].error
        assert records[1].error is None
        assert [v.plausible for v in records[1].verdicts] == ["pass"]

    def test_invalid_pair_rejected(self, bench_fixture):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        with pytest.raises(ValueError):
            run_benchmark(manifest, ReprPair.parse("IR1xOR2"), GenerationConfig(backend=mock))

    def test_partial_store_resumes_only_new_bugs(self, bench_fixture, tmp_path):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        store = RecordStore(tmp_path / "records.jsonl")
        run_benchmark(manifest[:4], PAIR, GenerationConfig(backend=mock), store=store)
        assert mock.calls == 4
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), store=store)
        assert mock.calls == len(manifest)  # only the six new bugs queried
        assert len(records) == len(manifest)

    def test_record_store_keeps_every_raw_output(self, bench_fixture, tmp_path):
        manifest_path, mock, chunks = bench_fixture
        manifest = load_manifest(manifest_path)
        # Under IR1xOR3 no chunk is a diff, so every reconstruction fails.
        for pair, failures in (("IR4xOR2", 0), ("IR1xOR3", len(manifest))):
            store = RecordStore(tmp_path / f"records-{pair}.jsonl")
            run_benchmark(
                manifest, ReprPair.parse(pair), GenerationConfig(backend=mock),
                store=store, run_tests=False,
            )
            loaded = RecordStore(store.path).load()
            by_bug = {
                bug_id: [c.raw_output for c in record.candidates]
                for bug_id, record in loaded.items()
            }
            assert by_bug == {bug_id: [chunk] for bug_id, chunk in chunks.items()}
            failed = [c for r in loaded.values() for c in r.candidates if c.reconstruct_error]
            assert len(failed) == failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_project_files_are_recorded_not_raised(self, bench_fixture, workers):
        manifest_path, mock, _ = bench_fixture
        entries = json.loads(manifest_path.read_text())[:5]
        good, not_utf8, past_eof, past_newline, past_crlf = entries
        (Path(not_utf8["project_root"]) / "Lib.java").write_bytes(b"class Lib {\xff\xfe}\n")
        past_eof.update(function_span=[2, 9], region=[1, 6])  # Lib.java has 5 lines
        # The newline ending line 5 starts a sixth, empty line.
        past_newline.update(function_span=[2, 7], region=[2, 2])
        crlf = Path(past_crlf["project_root"]) / "Lib.java"
        crlf.write_bytes(crlf.read_bytes().replace(b"\n", b"\r\n"))
        past_crlf.update(function_span=[2, 7], region=[2, 2])
        subset = manifest_path.parent / "subset.json"
        subset.write_text(json.dumps(entries))
        records = run_benchmark(
            load_manifest(subset), PAIR, GenerationConfig(backend=mock),
            workers=workers, run_tests=False,
        )
        assert [r.bug_id for r in records] == [e["bug_id"] for e in entries]
        assert records[0].error is None and records[0].verdicts[0].exact
        assert records[1].error.startswith("project setup failed: 'utf-8' codec")
        assert records[2].error.startswith("project setup failed: ")
        assert "past the end of Lib.java" in records[2].error
        for record in records[3:]:
            assert record.error == (
                f"project setup failed: manifest entry {record.bug_id}: "
                "function span 2..7 runs past the end of Lib.java (6 lines)"
            )
        assert mock.calls == 1  # only the good bug reached the backend

    @pytest.mark.parametrize("workers", [1, 2])
    def test_test_output_that_is_not_utf8_is_scored(self, bench_fixture, workers):
        # Next to the bug whose suite prints a byte that is not UTF-8: a
        # project with a named pipe, which cannot be copied, and a project
        # whose Lib.java has CRLF line endings.
        manifest_path, mock, _ = bench_fixture
        entries = json.loads(manifest_path.read_text())[:4]
        not_utf8, fifo, crlf, _good = entries
        not_utf8["test_command"] = "printf 'ok \\377'; exit 1"
        mock.fixture_map["e2e-00"] = ["        return b + a;", "        return a - a;"]
        os.mkfifo(Path(fifo["project_root"]) / "pipe")
        mock.fixture_map["e2e-01"] = ["        return b + a;"]
        lib = Path(crlf["project_root"]) / "Lib.java"
        lib.write_bytes(lib.read_bytes().replace(b"\n", b"\r\n"))
        mock.fixture_map["e2e-02"] = [
            "        return a * b;", "        return b + a;", "        return a + b;"
        ]
        subset = manifest_path.parent / "subset.json"
        subset.write_text(json.dumps(entries))
        records, again = [
            run_benchmark(
                load_manifest(subset), PAIR, GenerationConfig(backend=mock), workers=workers
            )
            for _ in range(2)
        ]
        assert [r.bug_id for r in records] == ["e2e-00", "e2e-01", "e2e-02", "e2e-03"]
        assert [r.error is None for r in records] == [True, False, True, True]
        assert "is a named pipe" in records[1].error
        # The record names the project's path, not the random one of its copy.
        assert records[1].error == again[1].error
        assert "repairkit-plausible-" not in records[1].error
        assert [v.plausible for v in records[0].verdicts] == ["fail", "fail"]
        assert [(v.plausible, v.exact) for v in records[2].verdicts] == [
            ("fail", False), ("pass", False), ("pass", True)
        ]
        assert records[3].verdicts[0].exact

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("wire", ["in-process", "http"])
    def test_output_with_a_lone_surrogate_is_recorded(
        self, bench_fixture, tmp_path, monkeypatch, wire, workers
    ):
        # It has no UTF-8 form, so the store could not write it.
        monkeypatch.setattr(gen, "_sleep", lambda s: None)  # retried as any malformed response
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:2]
        mock.fixture_map["e2e-00"] = ["        return a\ud800 + b;"]
        backend = mock.serve() if wire == "http" else mock
        store = RecordStore(tmp_path / "records.jsonl")
        try:
            records = run_benchmark(
                manifest, PAIR, GenerationConfig(backend=backend, timeout=10),
                store=store, workers=workers,
            )
        finally:
            mock.close()
        assert [r.bug_id for r in records] == ["e2e-00", "e2e-01"]
        assert records[0].error == (
            "BackendError: backend error 200: malformed backend response: "
            "output is not UTF-8 text"
        )
        assert records[1].error is None and records[1].verdicts[0].exact
        assert sorted(RecordStore(store.path).load()) == ["e2e-00", "e2e-01"]

    def test_deeply_nested_candidate_is_scored(self, bench_fixture):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:2]
        deep = "        return " + "(" * 5000 + "a + b" + ")" * 5000 + ";"
        mock.fixture_map["e2e-00"] = [deep, "        return a + b;"]
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), run_tests=False)
        assert [r.error for r in records] == [None, None]
        assert [v.parse_ok for v in records[0].verdicts] == [False, True]
        assert records[0].verdicts[1].exact and records[1].verdicts[0].exact

    def test_rank_curve_counts_first_hits(self, bench_fixture):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:2]
        # Bug 0: exact at rank 1; bug 1: exact at rank 0.
        mock.fixture_map["e2e-00"] = ["%%% broken @@@", "        return a + b;"]
        mock.fixture_map["e2e-01"] = ["        return a + b;"]
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock))
        curve = rank_curve(records, "exact", max_rank=3)
        assert curve == [1, 2, 2]
        with pytest.raises(ValueError):
            rank_curve(records, "semantic")


class TestRecordStoreTornTail:
    def test_crash_torn_store_resumes(self, bench_fixture, tmp_path, caplog):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:2]
        store = RecordStore(tmp_path / "records.jsonl")
        run_benchmark(manifest[:1], PAIR, GenerationConfig(backend=mock), store=store)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"bug_id": "e2e-01", "pair": "IR4')  # a crash mid-append
        with caplog.at_level(logging.WARNING, logger="repairkit.jsonl"):
            resumed = RecordStore(store.path)
            records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), store=resumed)
        assert "torn last line" in caplog.text
        assert mock.calls == 2  # e2e-00 once, then only e2e-01
        assert [r.bug_id for r in records] == ["e2e-00", "e2e-01"]
        lines = store.path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 3  # one line per record, no fragment
        assert list(RecordStore(store.path).load()) == ["e2e-00", "e2e-01"]

    def test_torn_multibyte_character_is_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"bug_id": "b1", "prompt": "na\xc3')
        assert RecordStore(path).load() == {}

    def test_whole_record_missing_its_newline_is_kept(self, bench_fixture, tmp_path):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:2]
        store = RecordStore(tmp_path / "records.jsonl")
        run_benchmark(manifest[:1], PAIR, GenerationConfig(backend=mock), store=store)
        store.path.write_bytes(store.path.read_bytes().rstrip(b"\n"))
        resumed = RecordStore(store.path)
        run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), store=resumed)
        assert mock.calls == 2
        assert list(RecordStore(store.path).load()) == ["e2e-00", "e2e-01"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_appends_write_one_whole_line_per_bug(
        self, bench_fixture, tmp_path, workers
    ):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        store = RecordStore(tmp_path / "records.jsonl")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            run_benchmark(
                manifest, PAIR, GenerationConfig(backend=mock), store=store,
                workers=workers, run_tests=False,
            )
        finally:
            sys.setswitchinterval(interval)
        lines = store.path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        bug_ids = sorted(json.loads(line)["bug_id"] for line in lines[:-1])
        assert bug_ids == sorted(e.bug_id for e in manifest)

    def test_parallel_store_resumes_from_any_cut(self, bench_fixture, tmp_path):
        """A crash can cut a `workers=2` store after any byte. Resuming from
        the cut gives the uninterrupted run's records, timings aside, and a
        store of one whole row per bug."""
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        config = GenerationConfig(backend=mock)

        def run(path):
            records = run_benchmark(
                manifest, PAIR, config, store=RecordStore(path), workers=2, run_tests=False
            )
            return [dataclasses.replace(r, timings={}) for r in records]

        whole = run(tmp_path / "whole.jsonl")
        data = (tmp_path / "whole.jsonl").read_bytes()
        ends = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        cuts = {c + d for c in ends for d in (-1, 0, 1) if 0 <= c + d <= len(data)}
        cuts |= set(random.Random(0).sample(range(len(data) + 1), 30))
        path = tmp_path / "cut.jsonl"
        for cut in sorted(cuts):
            path.write_bytes(data[:cut])
            assert run(path) == whole, cut
            # A run that appends nothing leaves a last row's missing newline.
            lines = path.read_bytes().rstrip(b"\n").split(b"\n")
            assert len(lines) == len(manifest) and all(map(json.loads, lines)), cut
            reloaded = RecordStore(path).load()
            assert [dataclasses.replace(reloaded[e.bug_id], timings={}) for e in manifest] == whole

    def test_bad_line_mid_file_still_raises(self, bench_fixture, tmp_path):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:1]
        store = RecordStore(tmp_path / "records.jsonl")
        run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), store=store)
        text = store.path.read_text(encoding="utf-8")
        store.path.write_text('{"bug_id": "b0", "pair\n' + text, encoding="utf-8")
        with pytest.raises(ValueError):
            RecordStore(store.path).load()


class TestEndToEndMix:
    def test_mixed_fixture_aggregate(self, bench_fixture):
        # 6 reference chunks, 2 plausible-but-different, 2 garbage.
        manifest_path, mock, chunks = bench_fixture
        manifest = load_manifest(manifest_path)
        hashes = {e.bug_id: hash_tree(e.project_root) for e in manifest}
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock))
        for entry in manifest:  # plausibility runs restored every tree
            assert hash_tree(entry.project_root) == hashes[entry.bug_id]
        [row] = aggregate(records, universe=len(manifest)).rows
        assert row.plausible == 8
        assert row.exact == 6
        assert row.ast == 6
        assert row.semantic == 6
        assert row.pending == 2

    def test_rated_correct_counts_toward_semantic(self, bench_fixture):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock))
        ratings = RatingStore()
        for rater in ("alice", "bob"):
            ratings.add(SemanticRating("e2e-06", 0, rater, "correct"))
            ratings.add(SemanticRating("e2e-07", 0, rater, "incorrect"))
        [row] = aggregate(records, ratings=ratings, universe=len(manifest)).rows
        assert row.semantic == 7  # 6 AST + 1 rated correct
        assert row.pending == 0  # both plausible-not-AST bugs now resolved


class TestAggregate:
    def _record(self, bug_id, verdict_specs):
        from repairkit.assess import AssessmentVerdict
        from repairkit.bench import RunRecord
        from repairkit.gen import CandidatePatch

        candidates = [
            CandidatePatch(bug_id, rank, "raw", reconstructed="x")
            for rank in range(len(verdict_specs))
        ]
        verdicts = [
            AssessmentVerdict(bug_id, rank, True, plaus, exact, ast, semantic)
            for rank, (plaus, exact, ast, semantic) in enumerate(verdict_specs)
        ]
        return RunRecord(bug_id, "IR4xOR2", "prompt", candidates, verdicts)

    def test_empty_records_zero_rows(self):
        assert aggregate([]).rows == ()

    def test_single_exact_bug(self):
        table = aggregate([self._record("b", [("pass", True, True, "unlabeled")])])
        [row] = table.rows
        assert (row.plausible, row.exact, row.ast, row.semantic) == (1, 1, 1, 1)

    def test_any_candidate_semantics(self):
        record = self._record(
            "b",
            [
                ("fail", False, False, "unlabeled"),
                ("pass", True, True, "unlabeled"),
            ],
        )
        [row] = aggregate([record]).rows
        assert (row.plausible, row.exact) == (1, 1)

    def test_adding_worse_candidate_never_decreases_counts(self):
        base = self._record("b", [("pass", True, True, "unlabeled")])
        worse = self._record(
            "b", [("pass", True, True, "unlabeled"), ("fail", False, False, "unlabeled")]
        )
        row_base = aggregate([base]).rows[0]
        row_worse = aggregate([worse]).rows[0]
        assert (row_worse.plausible, row_worse.exact, row_worse.ast, row_worse.semantic) >= (
            row_base.plausible,
            row_base.exact,
            row_base.ast,
            row_base.semantic,
        )

    def test_monotonicity_assertion_fires_on_corrupt_row(self):
        bad = AggregateRow("x", universe=1, plausible=0, exact=2, ast=1, semantic=1, pending=0)
        with pytest.raises(AggregateInvariantError):
            bad.check()


_verdict_fields = st.tuples(
    st.sampled_from(["pass", "fail", "not-run"]),
    st.sampled_from([(False, False), (False, True), (True, True)]),  # (exact, ast)
    st.sampled_from(["unlabeled", "correct", "incorrect"]),
).filter(lambda v: not (v[1][0] and v[2] == "incorrect"))


@st.composite
def _records(draw):
    records = []
    for index, pair in enumerate(draw(st.lists(st.sampled_from(["IR4xOR2", "IR1xOR3"])))):
        bug_id = f"b{index % 3}"  # bugs repeat, as across two pairs
        fields = draw(st.lists(_verdict_fields, max_size=4))
        ranks = range(len(fields))
        records.append(
            RunRecord(
                bug_id, pair, "prompt",
                [CandidatePatch(bug_id, rank, "raw", reconstructed="x") for rank in ranks],
                [
                    AssessmentVerdict(bug_id, rank, True, plausible, exact, ast, semantic)
                    for rank, (plausible, (exact, ast), semantic) in enumerate(fields)
                ],
            )
        )
    return records


_aggregate_ratings = st.lists(
    st.builds(
        SemanticRating,
        bug_id=st.sampled_from(["b0", "b1", "b2"]),
        rank=st.integers(0, 3),
        rater=st.sampled_from(["r1", "r2", "r3"]),
        label=st.sampled_from(["correct", "incorrect"]),
        round=st.sampled_from(["first", "tiebreak"]),
        timestamp=st.just(1.0),
    ),
    max_size=40,
)


def _table_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # an exact match rated incorrect
        return type(exc)


class TestAggregateMatchesOracle:
    """The one-pass aggregate against the old five-`any` formula."""

    @settings(max_examples=300, deadline=None)
    @given(
        records=_records(),
        ratings=st.none() | _aggregate_ratings,
        extra=st.none() | st.integers(0, 3),
    )
    def test_same_table(self, records, ratings, extra):
        universe = None if extra is None else len(records) + extra
        store = oracle_store = None
        if ratings is not None:
            store, oracle_store = RatingStore(), ListRatingStore()
            for rating in ratings:
                try:
                    store.add(rating)
                except (DuplicateRating, InvalidRating):
                    continue
                oracle_store.add(rating)
        assert _table_or_error(aggregate, records, store, universe) == _table_or_error(
            oracle_aggregate, records, oracle_store, universe
        )


class TestReport:
    TABLE = AggregateTable(
        (
            AggregateRow(
                "IR4xOR2", universe=488, plausible=195, exact=124, ast=125,
                semantic=144, pending=0,
            ),
        )
    )

    def test_markdown_matches_golden(self, golden):
        assert report(self.TABLE, "markdown-table") == golden("report_table.md")

    def test_plain_contains_counts(self):
        text = report(self.TABLE, "plain")
        assert "195" in text and "124" in text and "488" in text

    def test_delimited_round_trips_through_csv(self):
        lines = report(self.TABLE, "delimited").strip().split("\n")
        assert lines[0].startswith("Representation,")
        assert lines[1] == "IR4xOR2,488,195,124,125,144,0"

    def test_zero_table(self):
        table = AggregateTable(
            (AggregateRow("x", universe=0, plausible=0, exact=0, ast=0, semantic=0, pending=0),)
        )
        assert "0" in report(table, "plain")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            report(self.TABLE, "yaml")

    def test_violating_table_renders_warning_banner(self):
        broken = AggregateTable(
            (AggregateRow("x", universe=1, plausible=0, exact=2, ast=1, semantic=1, pending=0),)
        )
        assert report(broken, "plain").startswith("WARNING:")
