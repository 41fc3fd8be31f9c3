"""Manifest loading, the end-to-end harness, aggregation, and reports."""
import dataclasses
import json
import logging
import os
import random
import shlex
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit import bench, gen
from repairkit.assess import AssessmentVerdict, RatingStore, SemanticRating, hash_tree
from repairkit.bench import (
    AggregateRow,
    AggregateTable,
    BugManifestEntry,
    RecordStore,
    RunRecord,
    aggregate,
    load_function,
    load_manifest,
    rank_curve,
    report,
    run_benchmark,
)
from repairkit.errors import (
    AggregateInvariantError,
    ConfigError,
    DuplicateRating,
    InvalidRating,
    ManifestError,
    ParseError,
    StoreError,
)
from repairkit.gen import CandidatePatch, GenerationConfig
from repairkit.representations import ReprPair
from conftest import group_left_running, serve_over
from store_oracle import ListRatingStore, oracle_aggregate, oracle_rank_curve

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

    @pytest.mark.parametrize(
        "timeout, expected",
        [("60", 60.0), (None, None), (2.5, 2.5), (2147483.647, 2147483.647)],
    )
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

    # The runner waits with `select.poll`, which takes at most 2^31-1 ms;
    # a longer timeout loaded and then raised OverflowError from every run.
    @pytest.mark.parametrize("timeout", [3000000, "3e6", 2147483.648])
    def test_timeout_past_the_runners_longest_wait_rejected(self, tmp_path, timeout):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([_entry(timeout=timeout)]))
        with pytest.raises(ManifestError, match=r"at most 2147483\.647 s \(2\^31-1 ms\)"):
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


def _load(tmp_path, content, span):
    """`load_function` on a file holding `content`: the function's text,
    or the ManifestError text."""
    (tmp_path / "F.java").write_text(content, encoding="utf-8", newline="")
    entry = BugManifestEntry("b1", str(tmp_path), "F.java", span, (1, 1), "r", "true")
    try:
        return load_function(entry).text
    except ManifestError as exc:
        return str(exc)


def _load_by_line_count(root, span):
    """`load_function`'s outcome on the file `_load` wrote, by counting its
    lines first, then slicing the span out of it."""
    content = (root / "F.java").read_text(encoding="utf-8")
    line_count = content.count("\n") + 1
    start, end = span
    if end > line_count:
        return (
            f"manifest entry b1: function span {start}..{end} runs past the end "
            f"of F.java ({line_count} lines)"
        )
    return "\n".join(content.split("\n")[start - 1 : end])


class TestLoadFunction:
    @pytest.mark.parametrize(
        "content, span, outcome",
        [
            ("a\nb\nc", (2, 4), "manifest entry b1: function span 2..4 runs past the end of F.java (3 lines)"),
            ("a\nb\nc\n", (2, 5), "manifest entry b1: function span 2..5 runs past the end of F.java (4 lines)"),
            ("a\nb\nc", (1, 40), "manifest entry b1: function span 1..40 runs past the end of F.java (3 lines)"),
            ("", (1, 2), "manifest entry b1: function span 1..2 runs past the end of F.java (1 lines)"),
            ("a\nb\nc", (2, 3), "b\nc"),  # ends on the last line
            ("a\nb\nc\n", (2, 4), "b\nc\n"),  # the empty line after the final newline
            ("a\r\nb\r\nc", (1, 3), "a\nb\nc"),  # read with universal newlines
            ("a\nb\nc", (2, 2), "b"),
        ],
        ids=[
            "past-no-final-newline", "past-final-newline", "far-past", "past-empty-file",
            "last-line", "last-empty-line", "crlf", "inner-line",
        ],
    )
    def test_span_against_the_file(self, tmp_path, content, span, outcome):
        assert _load(tmp_path, content, span) == outcome == _load_by_line_count(tmp_path, span)

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(["", "x", "  int a;", "\r", "}"]), min_size=1, max_size=8),
        start=st.integers(1, 10),
        length=st.integers(0, 4),
    )
    def test_same_as_counting_the_lines_first(self, lines, start, length):
        content = "\n".join(lines)
        span = (start, start + length)
        with tempfile.TemporaryDirectory() as root:
            assert _load(Path(root), content, span) == _load_by_line_count(Path(root), span)


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

    def test_resume_from_another_pairs_store_is_refused(self, bench_fixture, tmp_path):
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)
        store = RecordStore(tmp_path / "records.jsonl")
        config = GenerationConfig(backend=mock)
        first = run_benchmark(manifest[:2], PAIR, config, store=store, run_tests=False)
        calls, data = mock.calls, store.path.read_bytes()
        with pytest.raises(ConfigError) as err:
            run_benchmark(manifest, ReprPair.parse("IR1xOR1"), config, store=store)
        assert str(err.value) == f"store {store.path} holds IR4xOR2 records, not IR1xOR1"
        assert mock.calls == calls and store.path.read_bytes() == data
        # The same pair still resumes: only the bugs not yet stored are run.
        again = run_benchmark(manifest, PAIR, config, store=store, run_tests=False)
        assert again[:2] == first
        assert mock.calls == calls + len(manifest) - 2

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

    @staticmethod
    def _sharing(tmp_path, entries, checkout):
        """A manifest of `entries` whose projects are one missing root that
        `checkout` makes."""
        shared = tmp_path / "shared"
        for index, entry in enumerate(entries):
            entry.update(bug_id=f"shared-{index}", project_root=str(shared), checkout=checkout)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(entries))
        return load_manifest(path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bugs_sharing_a_project_run_its_checkout_once(self, bench_fixture, tmp_path, workers):
        manifest_path, mock, _ = bench_fixture
        first = json.loads(manifest_path.read_text())[0]
        log = tmp_path / "checkout.log"
        checkout = (
            f"echo run >> {shlex.quote(str(log))}; sleep 0.5; "
            f"mkdir {shlex.quote(str(tmp_path / 'shared'))} && "
            f"cp -r {shlex.quote(first['project_root'])}/. {shlex.quote(str(tmp_path / 'shared'))}"
        )
        manifest = self._sharing(tmp_path, [dict(first), dict(first)], checkout)
        records = run_benchmark(
            manifest, PAIR, GenerationConfig(backend=mock), workers=workers, run_tests=False
        )
        assert [r.error for r in records] == [None, None]
        assert log.read_text() == "run\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hung_checkout_fails_each_bug_within_its_bound(
        self, bench_fixture, tmp_path, monkeypatch, workers
    ):
        monkeypatch.setattr(bench, "CHECKOUT_TIMEOUT", 0.5)
        manifest_path, mock, _ = bench_fixture
        first = json.loads(manifest_path.read_text())[0]
        pgids = tmp_path / "pgids"
        # The root it starts is removed, so no later bug runs against it.
        checkout = f"cd {shlex.quote(str(tmp_path))}; mkdir -p shared; echo $$ >> pgids; sleep 30"
        manifest = self._sharing(tmp_path, [dict(first), dict(first)], checkout)
        started = time.monotonic()
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), workers=workers)
        assert time.monotonic() - started < 2
        assert [r.error for r in records] == [
            f"project setup failed: manifest entry {r.bug_id}: checkout still running after 0.5 s"
            for r in records
        ]
        assert mock.calls == 0
        assert not (tmp_path / "shared").exists()
        for pgid in pgids.read_text().split():
            assert not group_left_running(int(pgid))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_checkout_leaves_no_partial_root(self, bench_fixture, tmp_path, workers):
        manifest_path, mock, _ = bench_fixture
        first = json.loads(manifest_path.read_text())[0]
        checkout = f"cd {shlex.quote(str(tmp_path))}; echo run >> checkout.log; mkdir shared; exit 3"
        manifest = self._sharing(tmp_path, [dict(first), dict(first)], checkout)
        records = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), workers=workers)
        assert [r.error for r in records] == [
            f"project setup failed: manifest entry {r.bug_id}: checkout exited with status 3"
            for r in records
        ]
        assert not (tmp_path / "shared").exists()
        assert (tmp_path / "checkout.log").read_text() == "run\nrun\n"  # each bug tried it

    def test_checkouts_of_different_projects_overlap(self, bench_fixture, tmp_path):
        """Each checkout waits up to 5 s for the other to start: run one at
        a time, the first would give up and fail."""
        manifest_path, mock, _ = bench_fixture
        first = json.loads(manifest_path.read_text())[0]
        source, entries = shlex.quote(first["project_root"]), []
        for name, other in (("a", "b"), ("b", "a")):
            checkout = (
                f"cd {shlex.quote(str(tmp_path))}; touch {name}.started; "
                f"for i in $(seq 50); do [ -e {other}.started ] && break; sleep 0.1; done; "
                f"[ -e {other}.started ] && mkdir {name} && cp -r {source}/. {name}"
            )
            entries.append(
                dict(first, bug_id=name, project_root=str(tmp_path / name), checkout=checkout)
            )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(entries))
        records = run_benchmark(
            load_manifest(path), PAIR, GenerationConfig(backend=mock), workers=2, run_tests=False
        )
        assert [r.error for r in records] == [None, None]

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

    def test_a_test_that_writes_into_the_project_fails_its_bug(self, bench_fixture):
        """A test command that writes into the project itself, through its
        absolute path, changes the tree `check_plausible` hashes: the bug
        gets one record with that error and not-run verdicts, and the next
        bug is still run."""
        manifest_path, mock, _ = bench_fixture
        first, second = load_manifest(manifest_path)[:2]
        stray = Path(first.project_root) / "Stray.java"
        first = dataclasses.replace(first, test_command=f"touch {shlex.quote(str(stray))}")
        for entry in (first, second):
            mock.fixture_map[entry.bug_id] = ["        return b + a;"]  # tested, not exact
        records = run_benchmark([first, second], PAIR, GenerationConfig(backend=mock))
        assert [r.bug_id for r in records] == ["e2e-00", "e2e-01"]
        assert records[0].error == f"SpliceError: project tree changed under {first.project_root}"
        assert [v.plausible for v in records[0].verdicts] == ["not-run"]
        assert stray.exists() and records[1].error is None
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
        pipe = Path(fifo["project_root"]) / "pipe"
        assert records[1].error == f"Error: {pipe}: `{pipe}` is a named pipe"
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("response", [None, 7, "abc"])
    def test_response_that_is_not_a_list_is_recorded(
        self, bench_fixture, monkeypatch, response, workers
    ):
        monkeypatch.setattr(gen, "_sleep", lambda s: None)  # retried as any malformed response
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:3]
        want = run_benchmark(manifest, PAIR, GenerationConfig(backend=mock), run_tests=False)

        class Odd:
            def complete(self, prompt, n, max_new_tokens, stop):
                if prompt == want[0].prompt:
                    return response
                return mock.complete(prompt, n, max_new_tokens, stop)

        records = run_benchmark(
            manifest, PAIR, GenerationConfig(backend=Odd()), workers=workers, run_tests=False
        )
        assert records[0].error == (
            "BackendError: backend error 200: malformed backend response: "
            f"{type(response).__name__}, not a list"
        )
        assert records[0].candidates == []

        def outcome(record):
            return record.bug_id, record.prompt, record.candidates, record.verdicts, record.error

        assert [outcome(r) for r in records[1:]] == [outcome(r) for r in want[1:]]
        assert all(r.candidates and r.error is None for r in records[1:])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("where", ["complete", "iteration"])
    def test_backend_that_raises_fails_its_bug_not_the_run(
        self, bench_fixture, tmp_path, monkeypatch, where, workers
    ):
        self._one_backend_failure(
            bench_fixture, tmp_path, monkeypatch, where, workers, RuntimeError("model crashed")
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "error", [ParseError("model crashed", 3, 4), ConfigError("model crashed")],
        ids=["ParseError", "ConfigError"],
    )
    def test_a_toolkit_error_from_the_backend_fails_its_bug_not_the_run(
        self, bench_fixture, tmp_path, monkeypatch, error, workers
    ):
        # A toolkit error that an in-process backend raises is the backend's
        # failure as any other exception is, not one about this bug or run.
        self._one_backend_failure(bench_fixture, tmp_path, monkeypatch, "complete", workers, error)

    @staticmethod
    def _one_backend_failure(bench_fixture, tmp_path, monkeypatch, where, workers, error):
        """Bug e2e-01's backend raises `error` in `complete` or while its
        outputs are read: that bug's record holds the retried 500, and every
        other bug is scored."""
        sleeps = []
        monkeypatch.setattr(gen, "_sleep", sleeps.append)  # retried as any 5xx answer
        manifest_path, mock, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:6]

        def broken():
            yield "        return a + b;"
            raise error

        class Raising:
            def complete(self, prompt, n, max_new_tokens, stop):
                if "combine1(" not in prompt:
                    return mock.complete(prompt, n, max_new_tokens, stop)
                if where == "complete":
                    raise error
                return broken()

        store = RecordStore(tmp_path / "records.jsonl")
        config = GenerationConfig(backend=Raising(), retries=1)
        records = run_benchmark(
            manifest, PAIR, config, store=store, workers=workers, run_tests=False
        )
        crashed = f"BackendError: backend error 500: {type(error).__name__}: {error}"
        assert [(r.bug_id, r.error) for r in records] == [
            (e.bug_id, crashed if e.bug_id == "e2e-01" else None) for e in manifest
        ]
        assert sorted(RecordStore(store.path).load()) == [e.bug_id for e in manifest]
        assert sleeps == [config.retry_base_delay]

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


    def test_negative_rank_in_a_record_store_is_a_store_error(self, tmp_path):
        """Loaded, an exact verdict at rank -3 counted from the end of the
        curve's counts: [1, 1, 1, 1, 1, 1, 1, 2, 2, 2] for one bug."""
        path = tmp_path / "records.jsonl"
        for candidate_rank, verdict_rank in ((0, -3), (-3, 0)):
            candidate = {"rank": candidate_rank, "raw_output": "x", "reconstruct_error": None,
                         "reconstructed": "x"}
            verdict = {"ast": True, "exact": True, "parse_ok": True, "plausible": "pass",
                       "rank": verdict_rank, "semantic": "unlabeled"}
            record = {"bug_id": "b", "candidates": [candidate], "error": None, "pair": "IR4xOR2",
                      "prompt": "", "timings": {}, "verdicts": [verdict]}
            path.write_text(json.dumps(record) + "\n", encoding="utf-8")
            with pytest.raises(StoreError) as info:
                RecordStore(path).load()
            assert info.value.line == 1
            assert str(info.value).endswith("ValueError: rank -3: candidate ranks start at 0")


# Each mode of a loopback backend that answers with a broken body: its
# status, the body, the `Content-Length` it claims (a longer one cuts the
# body short), and the error its bugs record after the retries.
HOSTILE_BODIES = {
    "not-utf8": (
        200, b'{"outputs": ["\xff"]}', 18,
        "BackendError: backend error 200: malformed backend response: "
        "not UTF-8 (invalid start byte at byte 14)",
    ),
    "cut-short": (
        200, b'{"outputs":', 100,
        "BackendError: backend error 200: malformed backend response: "
        "IncompleteRead(11 bytes read, 89 more expected)",
    ),
    "error-cut-short": (
        503, b"overloaded", 100,
        "BackendError: backend error 503: IncompleteRead(10 bytes read, 90 more expected)",
    ),
    # the body cut short as above, by a reset in place of a close: it was
    # a BackendUnreachable, "[Errno 104] Connection reset by peer"
    "reset": (
        200, b'{"outputs":', 100,
        "BackendError: backend error 200: malformed backend response: "
        "IncompleteRead(11 bytes read, 89 more expected)",
    ),
}
for _body in (b'{"nope": 1}', b'{"outputs": "abc"}', b'"abc"', b"null"):  # no `outputs` list
    HOSTILE_BODIES[_body.decode()] = (
        200, _body, len(_body),
        f"BackendError: backend error 200: malformed backend response: {_body.decode()}",
    )
# A body one byte over the cap of a default request: 10 candidates x 512
# tokens x 128 bytes, plus a 64 KiB envelope. An error status keeps its code.
OVERSIZED = b'{"outputs": ["' + b"x" * (720_897 - 17) + b'"]}'
for _status in (200, 503):
    HOSTILE_BODIES[f"oversized-{_status}"] = (
        _status, OVERSIZED, len(OVERSIZED),
        f"BackendError: backend error {_status}: "
        "malformed backend response: body over 720896 bytes",
    )


@pytest.fixture()
def hostile_backend(request):
    """A loopback server answering every request with a mode of
    HOSTILE_BODIES; yields its URL, a list of the requests it answered and
    the error the mode's bugs record."""
    import socket
    import struct
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    status, body, length, error = HOSTILE_BODIES[request.param]
    requests = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            requests.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(length))
            self.send_header("Connection", "close")
            self.end_headers()
            try:
                self.wfile.write(body)
            except OSError:  # the client stopped reading at its cap
                pass
            if request.param == "reset":  # closed at once under SO_LINGER 0: a reset, no FIN
                linger = struct.pack("ii", 1, 0)
                self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
                self.connection.close()

        def log_message(self, *args):  # quiet
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield f"http://{host}:{port}/", requests, error
    finally:
        server.shutdown()
        server.server_close()


class TestHostileBackend:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("hostile_backend", list(HOSTILE_BODIES), indirect=True)
    def test_broken_body_fails_each_bug_once_after_retries(
        self, bench_fixture, hostile_backend, tmp_path, monkeypatch, workers
    ):
        monkeypatch.setattr(gen, "_sleep", lambda s: None)
        manifest_path, _, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:3]
        url, requests, error = hostile_backend
        store = RecordStore(tmp_path / "records.jsonl")
        config = GenerationConfig(backend=url, retries=1, timeout=10)
        records = run_benchmark(manifest, PAIR, config, store=store, workers=workers, run_tests=False)
        assert [(r.bug_id, r.error, r.candidates) for r in records] == [
            (e.bug_id, error, []) for e in manifest
        ]
        assert len(requests) == 2 * len(manifest)  # each bug tried, then retried once
        lines = store.path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["bug_id"] for line in lines) == [e.bug_id for e in manifest]


DRIP_DELAY = 0.2  # seconds between the bytes of a dripped body
# The status of a dripping backend's answers, and the error its bugs
# record under a 1 s timeout: an error status keeps its code.
DRIPPED_ERRORS = {
    200: "BackendTimeout: response body not read within 1.0 s",
    503: "BackendError: backend error 503: "
    "BackendTimeout('response body not read within 1.0 s')",
}


# (scheme, status) of each dripping backend; the error is the same over both.
DRIPS = [pytest.param(("http", status), id=str(status)) for status in DRIPPED_ERRORS] + [
    pytest.param(("https", status), id=f"https-{status}") for status in DRIPPED_ERRORS
]


@pytest.fixture()
def dripping_backend(request, monkeypatch):
    """A loopback server, over a scheme and with a status of DRIPS, that
    answers every request with a whole JSON body, one byte every DRIP_DELAY
    seconds; yields its URL and the error its bugs record."""
    scheme, status = request.param
    import threading
    import time
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    body = b'{"outputs": ["        return a + b;"]}'

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            try:
                for k in range(len(body)):
                    self.wfile.write(body[k : k + 1])
                    time.sleep(DRIP_DELAY)
            except OSError:  # the client gave up
                pass

        def log_message(self, *args):  # quiet
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.socket = serve_over(scheme, monkeypatch)(server.socket)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield f"{scheme}://{host}:{port}/", DRIPPED_ERRORS[status]
    finally:
        server.shutdown()
        server.server_close()


class TestDrippingBackend:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dripping_backend", DRIPS, indirect=True)
    def test_a_dripping_body_times_out_within_the_timeout(
        self, bench_fixture, dripping_backend, tmp_path, monkeypatch, workers
    ):
        import time

        durations = []
        complete = gen._http_complete

        def timed(*args):
            start = time.monotonic()
            try:
                return complete(*args)
            finally:
                durations.append(time.monotonic() - start)

        monkeypatch.setattr(gen, "_http_complete", timed)
        manifest_path, _, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:2]
        url, error = dripping_backend
        store = RecordStore(tmp_path / "records.jsonl")
        config = GenerationConfig(backend=url, retries=0, timeout=1.0)
        records = run_benchmark(manifest, PAIR, config, store=store, workers=workers, run_tests=False)
        assert [(r.bug_id, r.error, r.candidates) for r in records] == [
            (e.bug_id, error, []) for e in manifest
        ]
        assert len(durations) == len(manifest)
        assert max(durations) < config.timeout + 0.3, durations


# Where each redirecting backend's 302 points: a path on the same server,
# which answers a GET there with a good body, or an ftp:// server that
# drips a byte every 0.05 s. urllib followed both: the first as a GET with
# no prompt, whose outputs became the bug's candidates, the second for
# 12 s of a 2 s attempt.
REDIRECTS = ["same-server", "ftp-drip"]


@pytest.fixture()
def redirecting_backend(request):
    """A loopback server that answers every POST with a 302 to a Location
    of REDIRECTS; yields its URL, the methods of the requests it got and
    the connections its ftp server accepted."""
    import socket
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    ftp = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def drip():
        while True:
            try:
                connection, _ = ftp.accept()
            except OSError:  # closed
                return
            accepted.append(connection)
            with connection:
                try:
                    for byte in b"220" + b"-" * 55 + b"\r\n":
                        connection.sendall(bytes([byte]))
                        time.sleep(0.05)
                except OSError:  # the client gave up
                    pass

    methods = []
    location = {"same-server": "/other", "ftp-drip": "ftp://127.0.0.1:%d/x" % ftp.getsockname()[1]}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            methods.append("POST")
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(302)
            self.send_header("Location", location[request.param])
            self.send_header("Content-Length", "5")
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(b"moved")

        def do_GET(self):
            methods.append("GET")
            body = b'{"outputs": ["        return a + b;"]}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threads = [threading.Thread(target=server.serve_forever, daemon=True),
               threading.Thread(target=drip, daemon=True)]
    for thread in threads:
        thread.start()
    host, port = server.server_address
    try:
        yield f"http://{host}:{port}/", methods, accepted
    finally:
        server.shutdown()
        server.server_close()
        ftp.shutdown(socket.SHUT_RDWR)  # wakes its accept, as a close does not
        ftp.close()
        threads[1].join(10)


class TestRedirectingBackend:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("redirecting_backend", REDIRECTS, indirect=True)
    def test_a_redirect_fails_each_bug_at_once(
        self, bench_fixture, redirecting_backend, tmp_path, monkeypatch, workers
    ):
        durations = []
        complete = gen._http_complete

        def timed(*args):
            start = time.monotonic()
            try:
                return complete(*args)
            finally:
                durations.append(time.monotonic() - start)

        monkeypatch.setattr(gen, "_http_complete", timed)
        monkeypatch.setattr(gen, "_sleep", lambda s: None)
        manifest_path, _, _ = bench_fixture
        manifest = load_manifest(manifest_path)[:2]
        url, methods, accepted = redirecting_backend
        store = RecordStore(tmp_path / "records.jsonl")
        config = GenerationConfig(backend=url, retries=2, timeout=2.0)
        records = run_benchmark(manifest, PAIR, config, store=store, workers=workers, run_tests=False)
        assert [(r.bug_id, r.error, r.candidates) for r in records] == [
            (e.bug_id, "BackendError: backend error 302: moved", []) for e in manifest
        ]
        assert methods == ["POST"] * len(manifest)  # not retried, and no GET followed
        assert accepted == []
        assert max(durations) < config.timeout / 4, durations


_curve_verdicts = st.builds(
    AssessmentVerdict,
    rank=st.integers(0, 12) | st.sampled_from([True, False, 1.0]),
    parse_ok=st.booleans(),
    plausible=st.sampled_from(["pass", "fail", "not-run"]),
    exact=st.sampled_from([False, False, 0, ""]),
    ast=st.sampled_from([False, True, 0, 1, "", "x"]),
).flatmap(
    lambda v: st.sampled_from([v, dataclasses.replace(v, exact=v.ast)] if v.ast else [v])
)
_curve_records = st.lists(
    st.lists(_curve_verdicts, max_size=4).map(
        lambda verdicts: RunRecord(
            "b", "IR4xOR2", "", [CandidatePatch(0, "x", "x")] * len(verdicts), verdicts
        )
    ),
    max_size=6,
)


def _curve(curve, records, metric, max_rank):
    try:
        return curve(records, metric, max_rank)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    records=_curve_records,
    metric=st.sampled_from(["exact", "ast", "plausible", "semantic"]),
    max_rank=st.integers(0, 12),
)
def test_rank_curve_matches_the_closure_version(records, metric, max_rank):
    assert _curve(rank_curve, records, metric, max_rank) == _curve(
        oracle_rank_curve, records, metric, max_rank
    )


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
            CandidatePatch(rank, "raw", reconstructed="x")
            for rank in range(len(verdict_specs))
        ]
        verdicts = [
            AssessmentVerdict(rank, True, plaus, exact, ast, semantic)
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
                [CandidatePatch(rank, "raw", reconstructed="x") for rank in ranks],
                [
                    AssessmentVerdict(rank, True, plausible, exact, ast, semantic)
                    for rank, (plausible, (exact, ast), semantic) in enumerate(fields)
                ],
            )
        )
    return records


def _ratings_of(bug_ids):
    return st.lists(
        st.builds(
            SemanticRating,
            bug_id=st.sampled_from(bug_ids),
            rank=st.integers(0, 3),
            rater=st.sampled_from(["r1", "r2", "r3"]),
            label=st.sampled_from(["correct", "incorrect"]),
            round=st.sampled_from(["first", "tiebreak"]),
            timestamp=st.just(1.0),
        ),
        max_size=40,
    )


_aggregate_ratings = _ratings_of(["b0", "b1", "b2"])


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

    def test_exact_match_rated_incorrect_is_the_same_error(self):
        # The draws above seldom resolve 'incorrect' on an exact match.
        record = RunRecord(
            "b0", "IR4xOR2", "prompt", [CandidatePatch(0, "raw", reconstructed="x")],
            [AssessmentVerdict(0, True, "pass", True, True, "unlabeled")],
        )
        store, oracle_store = RatingStore(), ListRatingStore()
        for rater in ("r1", "r2"):
            store.add(SemanticRating("b0", 0, rater, "incorrect"))
            oracle_store.add(SemanticRating("b0", 0, rater, "incorrect"))
        assert _table_or_error(aggregate, [record], store) is InvalidRating
        assert _table_or_error(oracle_aggregate, [record], oracle_store) is InvalidRating

    @staticmethod
    def _assert_same_table(records, ratings, path=None):
        """The two tables under the ratings `add` takes; with `path` the
        store is reopened, so that its ratings come through its load."""
        store, oracle_store = RatingStore(path), ListRatingStore()
        for rating in ratings:
            try:
                store.add(rating)
            except (DuplicateRating, InvalidRating):
                continue
            oracle_store.add(rating)
        if path is not None:
            store = RatingStore(path)
            assert list(store) == oracle_store.ratings
        assert _table_or_error(aggregate, records, store) == _table_or_error(
            oracle_aggregate, records, oracle_store
        )

    @settings(max_examples=150, deadline=None)
    @given(records=_records(), ratings=_aggregate_ratings)
    def test_same_table_from_a_reopened_store(self, records, ratings):
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_same_table(records, ratings, Path(tmp) / "ratings.jsonl")

    @settings(max_examples=150, deadline=None)
    @given(records=_records(), ratings=_ratings_of(["b0", "b7", "gone"]))
    def test_same_table_with_ratings_of_bugs_without_records(self, records, ratings):
        self._assert_same_table(records, ratings)

    @settings(max_examples=150, deadline=None)
    @given(
        records=_records().filter(lambda records: any(r.bug_id != "b0" for r in records)),
        ratings=_ratings_of(["b0"]),
    )
    def test_same_table_with_records_of_bugs_nobody_rated(self, records, ratings):
        self._assert_same_table(records, ratings)


# Text JSON escapes, text it writes as is when not ASCII, and line breaks
# other than "\n", which a store must not split a row at.
_texts = st.text(max_size=12) | st.sampled_from(
    ["", "naïve ✓ é🐛", "a\nb\r\n\t\"\\", "\u2028\u0085\x00", "<FILL_ME>"]
)


@st.composite
def _run_records(draw):
    """Error records, records with no candidates, and records whose
    candidates were rebuilt or failed, with every optional field `None`
    or set."""
    bug_id, pair = draw(_texts), draw(st.sampled_from(["IR1xOR3", "IR4xOR2"]))
    if draw(st.booleans()):  # the project or the backend failed
        return RunRecord(bug_id, pair, draw(_texts), [], [], error=draw(_texts))
    candidates, verdicts = [], []
    for rank in range(draw(st.integers(0, 3))):
        text = draw(_texts)
        rebuilt = draw(st.booleans())
        candidates.append(CandidatePatch(
            rank=rank, raw_output=draw(_texts),
            reconstructed=text if rebuilt else None,
            reconstruct_error=None if rebuilt else text,
        ))
        plausible, (exact, ast), semantic = draw(_verdict_fields)
        verdicts.append(AssessmentVerdict(
            rank=rank, parse_ok=draw(st.booleans()), plausible=plausible, exact=exact,
            ast=ast, semantic=semantic,
        ))
    timings = draw(st.dictionaries(
        st.sampled_from(["generate_s", "assess_s"]), st.floats(allow_nan=False, allow_infinity=False)
    ))
    return RunRecord(bug_id, pair, draw(_texts), candidates, verdicts, timings=timings,
                     error=draw(st.none() | _texts))


def _expected_row(record):
    """A record's store row, built field by field: the bug id is the
    record's alone, never a candidate's or a verdict's."""
    row = {
        "bug_id": record.bug_id,
        "pair": record.pair,
        "prompt": record.prompt,
        "candidates": [
            {"rank": c.rank, "raw_output": c.raw_output, "reconstructed": c.reconstructed,
             "reconstruct_error": c.reconstruct_error}
            for c in record.candidates
        ],
        "verdicts": [
            {"rank": v.rank, "parse_ok": v.parse_ok, "plausible": v.plausible,
             "exact": v.exact, "ast": v.ast, "semantic": v.semantic}
            for v in record.verdicts
        ],
        "timings": record.timings,
        "error": record.error,
    }
    return json.dumps(row, sort_keys=True, ensure_ascii=False)


class TestRecordStoreRows:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_run_records(), min_size=1, max_size=4, unique_by=lambda r: r.bug_id))
    def test_each_row_is_the_record_field_by_field(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            store = RecordStore(Path(tmp) / "records.jsonl")
            for record in records:
                store.append(record)
            lines = store.path.read_bytes().decode("utf-8").split("\n")
            assert lines == [*map(_expected_row, records), ""]
            assert list(RecordStore(store.path).load().values()) == records


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
