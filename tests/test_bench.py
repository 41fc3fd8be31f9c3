"""Manifest loading, the end-to-end harness, aggregation, and reports."""
import json
import logging
from pathlib import Path

import pytest

from repairkit.assess import RatingStore, SemanticRating, hash_tree
from repairkit.bench import (
    AggregateRow,
    AggregateTable,
    RecordStore,
    aggregate,
    load_manifest,
    rank_curve,
    report,
    run_benchmark,
)
from repairkit.errors import AggregateInvariantError, ManifestError
from repairkit.gen import GenerationConfig
from repairkit.representations import ReprPair

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
