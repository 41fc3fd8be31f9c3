"""CLI commands, exit codes, and configuration precedence."""
import ast
import json
from pathlib import Path

import pytest

from repairkit.cli import build_parser, main
from repairkit.config import load_tool_config
from repairkit.errors import ConfigError

from conftest import CORPUS_EXPECTED


def run_cli(*argv, env=None, monkeypatch=None):
    if env is not None:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    return main(list(argv))


class TestHelp:
    def test_help_is_a_documented_contract(self, golden, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == golden("cli_help.txt")

    def test_parser_lists_all_commands(self):
        help_text = build_parser().format_help()
        for command in ("dataset", "show", "repair", "report", "rate", "kappa",
                        "export-train-config"):
            assert command in help_text


class TestDatasetCommand:
    def test_counts_line(self, diff_corpus, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        status = main(
            ["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2", "--out", str(out)]
        )
        assert status == 0
        expected = (
            f"ingested={CORPUS_EXPECTED['ingested']} "
            f"deduped={CORPUS_EXPECTED['deduped']} "
            f"excluded=0 "
            f"dropped_over_length={CORPUS_EXPECTED['dropped_over_length']} "
            f"emitted={CORPUS_EXPECTED['emitted']} "
            f"units={CORPUS_EXPECTED['units']} "
            f"parse_failures={CORPUS_EXPECTED['parse_failures']} "
            f"not_single_function={CORPUS_EXPECTED['not_single_function']} "
            f"region_mismatch=0"
        )
        assert capsys.readouterr().out.strip() == expected
        assert len(out.read_text().splitlines()) == CORPUS_EXPECTED["emitted"]

    def test_invalid_pair_is_usage_error_listing_valid_pairs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dataset", "--corpus", "x", "--pair", "IR1xOR2", "--out", "y"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "IR1xOR1" in err and "IR4xOR2" in err  # cites the pairing matrix

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_length_must_be_positive(self, diff_corpus, tmp_path, value, capsys):
        out = tmp_path / "data.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2",
                  "--out", str(out), "--max-length", value])
        assert exit_info.value.code == 2
        assert "argument --max-length:" in capsys.readouterr().err
        assert not out.exists()

    def test_max_length_drops_the_samples_over_it(self, diff_corpus, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        argv = ["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2", "--out", str(out)]
        assert main(argv) == 0
        counts = sorted(json.loads(line)["token_count"] for line in out.read_text().splitlines())
        capsys.readouterr()
        cap = counts[len(counts) // 2]  # a sample of at least `cap` tokens goes
        assert main([*argv, "--max-length", str(cap)]) == 0
        over = sum(count >= cap for count in counts)
        assert 0 < over < len(counts)
        dropped = CORPUS_EXPECTED["dropped_over_length"] + over
        assert f" dropped_over_length={dropped} " in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == len(counts) - over

    def test_empty_corpus_emits_zero_and_exits_zero(self, tmp_path, capsys):
        root = tmp_path / "empty"
        (root / "before").mkdir(parents=True)
        (root / "after").mkdir()
        out = tmp_path / "data.jsonl"
        status = main(["dataset", "--corpus", str(root), "--pair", "IR3xOR2", "--out", str(out)])
        assert status == 0
        assert "emitted=0" in capsys.readouterr().out
        assert out.read_text() == ""

    def test_unrecognized_corpus_is_fatal(self, tmp_path, capsys):
        status = main(
            ["dataset", "--corpus", str(tmp_path), "--pair", "IR3xOR2",
             "--out", str(tmp_path / "o.jsonl")]
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_denylist_file_applied(self, diff_corpus, tmp_path, capsys):
        # Deny the exact buggy->fixed function of unit u02.
        deny = {
            "Bug-1": "    int only(int x) {\n        return x * 4;\n    }"
        }
        deny_path = tmp_path / "deny.json"
        deny_path.write_text(json.dumps(deny))
        out = tmp_path / "data.jsonl"
        main(
            ["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2",
             "--out", str(out), "--denylist", str(deny_path)]
        )
        captured = capsys.readouterr().out
        assert "excluded=1" in captured
        assert f"emitted={CORPUS_EXPECTED['emitted'] - 1}" in captured

    @pytest.mark.parametrize("text", ["{bad", "[1, 2]", '{"Math-1": 5}'])
    def test_bad_denylist_is_an_error(self, diff_corpus, tmp_path, capsys, text):
        deny_path = tmp_path / "deny.json"
        deny_path.write_text(text)
        out = tmp_path / "data.jsonl"
        status = main(
            ["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2",
             "--out", str(out), "--denylist", str(deny_path)]
        )
        assert status == 1
        assert capsys.readouterr().err.startswith(f"error: denylist {deny_path}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "tokenizer",
        ["external:false", "external:echo nope", "external:'unbalanced",
         "external:no-such-tokenizer-cmd"],
    )
    def test_failing_external_tokenizer_is_an_error(self, diff_corpus, tmp_path, capsys, tokenizer):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "data.jsonl"
        argv = ["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2",
                "--out", str(out), "--tokenizer", tokenizer]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: tokenizer {tokenizer!r}: ") and "Traceback" not in err
        assert list(out_dir.iterdir()) == []
        # an earlier dataset at --out survives a failed run byte for byte
        out.write_bytes(b'{"id": "earlier"}\n')
        assert main(argv) == 1
        assert capsys.readouterr().err == err
        assert list(out_dir.iterdir()) == [out]
        assert out.read_bytes() == b'{"id": "earlier"}\n'


class TestShowCommand:
    @pytest.fixture()
    def java_file(self, tmp_path):
        path = tmp_path / "Sample.java"
        path.write_text(
            "class Sample {\n    int twice(int x) {\n        return x + x;\n    }\n}\n"
        )
        return path

    def test_ir3_render_has_one_fill_token(self, java_file, capsys):
        status = main(
            ["show", "--file", str(java_file), "--function", "twice",
             "--kind", "IR3", "--region", "2:2"]
        )
        assert status == 0
        assert capsys.readouterr().out.count("<FILL_ME>") == 1

    def test_ir1_equals_raw_function(self, java_file, capsys):
        main(["show", "--file", str(java_file), "--function", "twice", "--kind", "IR1"])
        out = capsys.readouterr().out
        assert out == "    int twice(int x) {\n        return x + x;\n    }\n"

    def test_or2_requires_fixed_file(self, java_file, tmp_path, capsys):
        assert main(
            ["show", "--file", str(java_file), "--function", "twice", "--kind", "OR2"]
        ) == 1
        fixed = tmp_path / "Fixed.java"
        fixed.write_text(
            "class Sample {\n    int twice(int x) {\n        return 2 * x;\n    }\n}\n"
        )
        capsys.readouterr()
        status = main(
            ["show", "--file", str(java_file), "--function", "twice",
             "--kind", "OR2", "--region", "2:2", "--fixed-file", str(fixed)]
        )
        assert status == 0
        assert capsys.readouterr().out == "        return 2 * x;\n"

    def test_unknown_function(self, java_file, capsys):
        assert main(
            ["show", "--file", str(java_file), "--function", "missing", "--kind", "IR1"]
        ) == 1

    @pytest.mark.parametrize("flag", ["--file", "--fixed-file"])
    def test_file_not_utf8_is_an_error(self, java_file, tmp_path, capsys, flag):
        latin1 = tmp_path / "Latin1.java"
        latin1.write_bytes(b"class Sample {\n    // caf\xe9\n    int twice(int x) { return x; }\n}\n")
        files = {"--file": str(java_file), "--fixed-file": str(java_file), flag: str(latin1)}
        status = main(
            ["show", "--function", "twice", "--kind", "OR2", "--region", "1:1",
             *(part for pair in files.items() for part in pair)]
        )
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith(f"error: {latin1}: ") and "Traceback" not in err

    def test_bad_region(self, java_file, capsys):
        assert main(
            ["show", "--file", str(java_file), "--function", "twice",
             "--kind", "IR3", "--region", "1:99"]
        ) == 1

    @pytest.mark.parametrize("region", ["3", "3-5", "a:b", "1:2:3"])
    def test_region_that_is_not_start_end_is_a_usage_error(self, java_file, capsys, region):
        with pytest.raises(SystemExit) as exit_info:
            main(["show", "--file", str(java_file), "--function", "twice",
                  "--kind", "IR3", "--region", region])
        assert exit_info.value.code == 2
        assert f"{region!r} is not a region (expected START:END" in capsys.readouterr().err


class TestRepairCommand:
    def test_smoke_run_full_exact_table(self, bench_fixture, tmp_path, capsys):
        manifest_path, mock, _ = bench_fixture
        entries = json.loads(manifest_path.read_text())[:3]
        for entry in entries:
            mock.fixture_map[entry["bug_id"]] = ["        return a + b;"]
        small = tmp_path / "three.json"
        small.write_text(json.dumps(entries))
        url = mock.serve()
        try:
            status = main(
                ["repair", "--manifest", str(small), "--pair", "IR4xOR2",
                 "--backend", url, "--format", "delimited"]
            )
        finally:
            mock.close()
        assert status == 0
        out = capsys.readouterr().out
        assert "IR4xOR2,3,3,3,3,3,0" in out

    def test_resume_produces_identical_table(self, bench_fixture, tmp_path, capsys):
        manifest_path, mock, _ = bench_fixture
        store = tmp_path / "records.jsonl"
        url = mock.serve()
        try:
            main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                  "--backend", url, "--store", str(store), "--format", "delimited"])
            first = capsys.readouterr().out
            main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                  "--backend", url, "--store", str(store), "--format", "delimited"])
            second = capsys.readouterr().out
        finally:
            mock.close()
        assert first == second

    def test_resume_from_another_pairs_store_is_an_error(self, bench_fixture, tmp_path, capsys):
        manifest_path, mock, _ = bench_fixture
        store = tmp_path / "records.jsonl"
        url = mock.serve()
        try:
            args = ["repair", "--manifest", str(manifest_path), "--backend", url,
                    "--store", str(store), "--no-tests", "--format", "delimited"]
            assert main([*args, "--pair", "IR4xOR2"]) == 0
            first = capsys.readouterr().out
            calls, data = mock.calls, store.read_bytes()
            assert main([*args, "--pair", "IR1xOR1"]) == 1
            refused = capsys.readouterr()
            assert main([*args, "--pair", "IR4xOR2"]) == 0
            resumed = capsys.readouterr().out
        finally:
            mock.close()
        assert refused.out == ""
        assert refused.err == f"error: store {store} holds IR4xOR2 records, not IR1xOR1\n"
        assert mock.calls == calls and store.read_bytes() == data
        assert resumed == first

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"a": 1}', "must be a JSON list"),
            ("{not json", "unreadable: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
            (None, "unreadable: [Errno 2] No such file or directory: '{path}'"),
        ],
        ids=["not-a-list", "not-json", "missing"],
    )
    def test_bad_manifest_file_is_named_not_an_entry(self, tmp_path, capsys, text, reason):
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
        status = main(["repair", "--manifest", str(path), "--pair", "IR4xOR2", "--no-tests"])
        assert status == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: manifest {path}: {reason.format(path=path)}\n"

    @pytest.mark.parametrize("flag, kept", [([], 3), (["--num-candidates", "1"], 1)])
    def test_num_candidates_caps_the_candidates_of_each_record(
        self, bench_fixture, tmp_path, flag, kept
    ):
        from repairkit.bench import RecordStore

        manifest_path, mock, chunks = bench_fixture
        for bug_id, chunk in chunks.items():
            mock.fixture_map[bug_id] = [chunk] * 3
        store = tmp_path / "records.jsonl"
        url = mock.serve()
        try:
            assert main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                         "--backend", url, "--store", str(store), "--no-tests", *flag]) == 0
        finally:
            mock.close()
        records = RecordStore(store).load()
        assert len(records) == len(chunks)
        assert {len(record.candidates) for record in records.values()} == {kept}

    def test_workers_sets_the_runs_parallelism_and_not_its_records(
        self, bench_fixture, tmp_path, monkeypatch, capsys
    ):
        from repairkit import bench

        manifest_path, mock, chunks = bench_fixture
        run_benchmark, workers = bench.run_benchmark, []

        def spy(*args, **kwargs):
            workers.append(kwargs["workers"])
            return run_benchmark(*args, **kwargs)

        monkeypatch.setattr(bench, "run_benchmark", spy)
        outs, records = [], []
        url = mock.serve()
        try:
            for count in ("1", "2"):
                store = tmp_path / f"records-{count}.jsonl"
                assert main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                             "--backend", url, "--store", str(store), "--no-tests",
                             "--workers", count, "--format", "delimited"]) == 0
                outs.append(capsys.readouterr().out)
                records.append({
                    bug_id: (record.candidates, record.verdicts, record.error)
                    for bug_id, record in bench.RecordStore(store).load().items()
                })
        finally:
            mock.close()
        assert workers == [1, 2]
        assert len(records[0]) == len(chunks)
        assert records[0] == records[1] and outs[0] == outs[1]

    def test_missing_backend_warns_and_exits_zero(self, bench_fixture, capsys):
        manifest_path, _, _ = bench_fixture
        status = main(
            ["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
             "--format", "delimited"]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "IR4xOR2,10,0,0,0,0,0" in captured.out

    def test_report_command_reads_store(self, bench_fixture, tmp_path, capsys):
        manifest_path, mock, _ = bench_fixture
        store = tmp_path / "records.jsonl"
        url = mock.serve()
        try:
            main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                  "--backend", url, "--store", str(store)])
        finally:
            mock.close()
        capsys.readouterr()
        status = main(["report", "--store", str(store), "--format", "markdown-table"])
        assert status == 0
        out = capsys.readouterr().out
        assert out.startswith("| Representation")
        assert "| IR4xOR2" in out

    def test_report_with_ratings_resolves_pending(self, bench_fixture, tmp_path, capsys):
        manifest_path, mock, _ = bench_fixture
        store = tmp_path / "records.jsonl"
        ratings = tmp_path / "ratings.jsonl"
        url = mock.serve()
        try:
            main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                  "--backend", url, "--store", str(store)])
        finally:
            mock.close()
        for rater in ("alice", "bob"):
            main(["rate", "--store", str(ratings), "--bug", "e2e-06", "--rank", "0",
                  "--label", "correct", "--rater", rater])
        capsys.readouterr()
        main(["report", "--store", str(store), "--ratings", str(ratings),
              "--format", "delimited", "--universe", "10"])
        out = capsys.readouterr().out
        # semantic goes 6 -> 7 and one pending bug remains.
        assert "IR4xOR2,10,8,6,6,7,1" in out

    def test_report_rank_curve(self, bench_fixture, tmp_path, capsys):
        manifest_path, mock, _ = bench_fixture
        store = tmp_path / "records.jsonl"
        url = mock.serve()
        try:
            main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                  "--backend", url, "--store", str(store)])
        finally:
            mock.close()
        capsys.readouterr()
        status = main(["report", "--store", str(store), "--curve", "exact"])
        assert status == 0
        out = capsys.readouterr().out
        # All six exact fixes land at rank 0, so every k shows 6.
        assert "top-k exact: 1=6" in out
        assert "10=6" in out


    @pytest.mark.parametrize(
        "flags",
        [
            ["--format", "md"],
            ["--num-candidates", "-1"],
            ["--num-candidates", "0"],
            ["--workers", "0"],
            ["--workers", "-2"],
            ["--workers", "two"],
            ["--pair", "IR4-OR2"],  # a second --pair, after the valid one above
        ],
    )
    def test_bad_repair_values_exit_2_before_any_backend_call(
        self, bench_fixture, flags, capsys
    ):
        manifest_path, mock, _ = bench_fixture
        url = mock.serve()
        try:
            with pytest.raises(SystemExit) as exit_info:
                main(["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                      "--backend", url, *flags])
        finally:
            mock.close()
        assert exit_info.value.code == 2
        assert mock.calls == 0
        assert f"argument {flags[0]}:" in capsys.readouterr().err

    def test_bad_report_format_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--store", str(tmp_path / "records.jsonl"), "--format", "md"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'md'" in capsys.readouterr().err


class TestRateAndKappa:
    def test_agreeing_raters_kappa_one(self, tmp_path, capsys):
        store = str(tmp_path / "ratings.jsonl")
        for rater in ("alice", "bob"):
            for bug, label in (("b1", "correct"), ("b2", "incorrect")):
                assert main(
                    ["rate", "--store", store, "--bug", bug, "--rank", "0",
                     "--label", label, "--rater", rater]
                ) == 0
        capsys.readouterr()
        assert main(["kappa", "--store", store, "--rater-a", "alice", "--rater-b", "bob"]) == 0
        out = capsys.readouterr().out
        assert "kappa=1.0000" in out
        assert "observed_agreement=1.0000" in out

    def test_duplicate_rating_nonzero_exit(self, tmp_path, capsys):
        store = str(tmp_path / "ratings.jsonl")
        args = ["rate", "--store", store, "--bug", "b", "--rank", "0",
                "--label", "correct", "--rater", "alice"]
        assert main(args) == 0
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_rank_nonzero_exit(self, tmp_path, capsys):
        store = tmp_path / "ratings.jsonl"
        args = ["rate", "--store", str(store), "--bug", "b", "--label", "correct"]
        assert main([*args, "--rank", "0", "--rater", "alice"]) == 0
        before = store.read_bytes()
        capsys.readouterr()
        assert main([*args, "--rank", "-5", "--rater", "bob"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert store.read_bytes() == before

    def test_no_overlap_nonzero_exit(self, tmp_path, capsys):
        store = str(tmp_path / "ratings.jsonl")
        main(["rate", "--store", store, "--bug", "b1", "--rank", "0",
              "--label", "correct", "--rater", "alice"])
        status = main(["kappa", "--store", store, "--rater-a", "alice", "--rater-b", "bob"])
        assert status == 1


GOLDEN = Path(__file__).parent / "golden"

# Line 2 of a store, broken three ways: not JSON, a value the row's class
# rejects, and a key it does not have; for ratings, also a second rating of
# line 1's candidate by line 1's rater, and a timestamp that is not a number.
_RATING = (
    '{"bug_id": "b", "label": "%s", "rank": 0, "rater": "x", "round": "first", '
    '"timestamp": 1.0%s}'
)
BAD_RATING_LINES = {
    "not-json": '{"bug_id": "b", "ra',
    "bad-value": _RATING % ("maybe", ""),
    "unknown-key": _RATING % ("correct", ', "mood": "sure"'),
    "second-rating": (
        '{"bug_id": "Math-5", "label": "correct", "rank": 2, "rater": "alice", '
        '"round": "first", "timestamp": 1.0}'
    ),
    "text-timestamp": (
        '{"bug_id": "b", "label": "correct", "rank": 0, "rater": "x", "round": "first", '
        '"timestamp": "yesterday"}'
    ),
    "null-timestamp": (
        '{"bug_id": "b", "label": "correct", "rank": 0, "rater": "x", "round": "first", '
        '"timestamp": null}'
    ),
}
_RECORD = (
    '{"bug_id": "b", "candidates": [{"rank": 0, "raw_output": "x", "reconstruct_error": '
    'null, "reconstructed": "x"}], "error": null, "pair": "IR4xOR2", "prompt": "", '
    '"timings": {}, "verdicts": [{"ast": false, "exact": false, "parse_ok": true, '
    '"plausible": "%s", "rank": 0, "semantic": "unlabeled"}]%s}'
)
BAD_RECORD_LINES = {
    "not-json": '{"bug_id": "b0", "pair',
    "bad-value": _RECORD % ("maybe", ""),
    "unknown-key": _RECORD % ("pass", ', "mood": "sure"'),
}


def _golden_with_bad_line_2(tmp_path, name, line):
    first, rest = (GOLDEN / name).read_bytes().split(b"\n", 1)
    path = tmp_path / name
    path.write_bytes(b"\n".join([first, line.encode("utf-8"), rest]))
    return str(path)


class TestCorruptStore:
    @pytest.mark.parametrize("kind", sorted(BAD_RATING_LINES))
    @pytest.mark.parametrize(
        "command",
        [
            ["rate", "--bug", "b", "--rank", "1", "--label", "correct", "--rater", "alice",
             "--store"],
            ["kappa", "--rater-a", "alice", "--rater-b", "zoë", "--store"],
            ["report", "--store", str(GOLDEN / "record_store.jsonl"), "--ratings"],
        ],
        ids=["rate", "kappa", "report"],
    )
    def test_bad_rating_line_is_reported(self, tmp_path, capsys, command, kind):
        ratings = _golden_with_bad_line_2(tmp_path, "rating_store.jsonl", BAD_RATING_LINES[kind])
        before = Path(ratings).read_bytes()
        assert main([*command, ratings]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ratings}:2: ")
        assert Path(ratings).read_bytes() == before

    @pytest.mark.parametrize("kind", sorted(BAD_RECORD_LINES))
    @pytest.mark.parametrize("command", ["report", "repair"])
    def test_bad_record_line_is_reported(self, bench_fixture, tmp_path, capsys, command, kind):
        manifest_path, _, _ = bench_fixture
        records = _golden_with_bad_line_2(tmp_path, "record_store.jsonl", BAD_RECORD_LINES[kind])
        before = Path(records).read_bytes()
        argv = ["report", "--store", records]
        if command == "repair":
            argv = ["repair", "--manifest", str(manifest_path), "--pair", "IR4xOR2",
                    "--store", records]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}:2: ")
        assert Path(records).read_bytes() == before


class TestRatingRulesAtLoad:
    @pytest.mark.parametrize(
        "command",
        [
            ["rate", "--bug", "b", "--rank", "1", "--label", "correct", "--rater", "alice",
             "--store"],
            ["kappa", "--rater-a", "alice", "--rater-b", "carol", "--store"],
            ["report", "--store", str(GOLDEN / "record_store.jsonl"), "--ratings"],
        ],
        ids=["rate", "kappa", "report"],
    )
    def test_negative_rank_in_a_rating_store_is_reported(self, tmp_path, capsys, command):
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text(
            _RATING_AT % (-3, "alice", "first") + "\n" + _RATING_AT % (-3, "carol", "tiebreak")
            + "\n",
            encoding="utf-8",
        )
        before = ratings.read_bytes()
        assert main([*command, str(ratings)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ratings}:1: InvalidRating: rank -3 of b")
        assert ratings.read_bytes() == before


_RATING_AT = (
    '{"bug_id": "b", "label": "correct", "rank": %d, "rater": "%s", "round": "%s", '
    '"timestamp": 1.0}'
)


class TestMissingStore:
    @pytest.mark.parametrize(
        "command",
        [
            ["report", "--store", "{missing}"],
            ["report", "--store", str(GOLDEN / "record_store.jsonl"), "--ratings", "{missing}"],
            ["repair", "--manifest", "{manifest}", "--pair", "IR4xOR2", "--backend", "{url}",
             "--ratings", "{missing}"],
            ["kappa", "--rater-a", "alice", "--rater-b", "zoë", "--store", "{missing}"],
        ],
        ids=["report-store", "report-ratings", "repair-ratings", "kappa"],
    )
    def test_read_only_command_refuses_a_missing_store(
        self, bench_fixture, tmp_path, capsys, command
    ):
        manifest_path, mock, _ = bench_fixture
        missing = tmp_path / "typo.jsonl"
        url = mock.serve()
        try:
            argv = [a.format(missing=missing, manifest=manifest_path, url=url) for a in command]
            assert main(argv) == 1
        finally:
            mock.close()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert mock.calls == 0
        assert not missing.exists()


class TestExportTrainConfig:
    def test_golden_file_match(self, tmp_path, golden):
        out = tmp_path / "train.cfg"
        assert main(["export-train-config", "--out", str(out)]) == 0
        assert out.read_text() == golden("train_config.txt")

    # A field of the wrong type was passed through: a pair of 5 ended in an
    # AttributeError traceback, and input 5 or token_count "many" was written.
    @pytest.mark.parametrize(
        "bad_line,reason",
        [
            ("{bad", "JSONDecodeError"),
            ('{"id": "u2", "input": "x", "output": "y"}', "KeyError"),
            ('{"id": "u2", "pair": 5, "input": "x", "output": "y", "token_count": 2}',
             "TypeError: pair must be a string, not 5"),
            ('{"id": "u2", "pair": "IR4xOR2", "input": 5, "output": "y", "token_count": "many"}',
             "TypeError: input must be a string, not 5"),
            ('{"id": "u2", "pair": "IR4xOR2", "input": "x", "output": "y", "token_count": "many"}',
             "TypeError: token_count must be an integer, not 'many'"),
        ],
    )
    def test_corrupt_dataset_is_an_error(self, tmp_path, capsys, bad_line, reason):
        row = {"id": "u1", "input": "x", "output": "y", "pair": "IR4xOR2", "token_count": 2}
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(f"{json.dumps(row)}\n{bad_line}\n{json.dumps(row)}\n")
        out = tmp_path / "train.cfg"
        status = main(["export-train-config", "--out", str(out), "--dataset", str(dataset)])
        assert status == 1
        err, line = capsys.readouterr().err, f"error: {dataset}:2: {reason}"
        assert err.startswith(f"{line}: ") or err == f"{line}\n"
        assert not out.exists()


class TestToolConfig:
    def test_defaults(self):
        config = load_tool_config(env={})
        assert config.filter.max_length == 1024
        assert config.generation.num_candidates == 10
        assert config.markers.fill_token == "<FILL_ME>"

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"generation": {"num_candidates": 5},
                                    "markers": {"fill_token": "<HOLE>"}}))
        config = load_tool_config(str(path), env={})
        assert config.generation.num_candidates == 5
        assert config.markers.fill_token == "<HOLE>"

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"generation": {"backend": "http://file/"}}))
        config = load_tool_config(
            str(path), env={"REPAIR_BACKEND_URL": "http://env/"}
        )
        assert config.generation.backend == "http://env/"

    def test_env_config_path_honored(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"parallelism": 2}))
        config = load_tool_config(env={"REPAIR_CONFIG": str(path)})
        assert config.parallelism == 2

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"markers": {"bogus": 1}}))
        with pytest.raises(ConfigError):
            load_tool_config(str(path), env={})

    @pytest.mark.parametrize(
        "data",
        [
            {"parallelism": "many"},
            {"generation": {"num_candidates": 0}},
            {"generation": {"max_new_tokens": 0}},
            {"generation": {"timeout": 0}},
            {"generation": {"timeout": float("inf")}},
            {"generation": {"timeout": None}},
            {"generation": {"retries": -1}},
            {"generation": {"retry_base_delay": -0.5}},
            {"generation": {"stop_tokens": [""]}},
            {"filter": {"max_length": 0}},
            {"parallelism": 0},
            {"parallelism": -3},
        ],
        ids=["parallelism", "num_candidates", "max_new_tokens", "timeout_zero",
             "timeout_infinite", "timeout_null", "retries", "retry_base_delay",
             "empty_stop_token", "max_length_zero", "parallelism_zero",
             "parallelism_negative"],
    )
    def test_bad_values_rejected(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="^bad config value: "):
            load_tool_config(str(path), env={})

    def test_timeout_past_the_longest_wait_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"generation": {"timeout": 1e10}}))
        bound = r"at most 2147483\.647 s \(2\^31-1 ms\): 10000000000\.0$"
        with pytest.raises(ConfigError, match="^bad config value: timeout must be positive and " + bound):
            load_tool_config(str(path), env={})

    @pytest.mark.parametrize(
        "generation",
        [{"retries": -1}, {"timeout": -1}, {"stop_tokens": ["</s>", ""]}],
        ids=["retries", "timeout", "empty_stop_token"],
    )
    def test_repair_with_a_bad_generation_value_is_an_error(
        self, bench_fixture, tmp_path, capsys, generation
    ):
        manifest_path, _, _ = bench_fixture
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"generation": generation}))
        status = main(["--config", str(path), "repair", "--manifest", str(manifest_path),
                       "--pair", "IR4xOR2", "--no-tests"])
        assert status == 1
        assert capsys.readouterr().err.startswith("error: bad config value: ")

    @pytest.mark.parametrize(
        "data, section",
        [({"generation": []}, "generation"), ({"markers": "ab"}, "markers"),
         ({"filter": None}, "filter")],
        ids=["list", "string", "null"],
    )
    def test_section_that_is_not_an_object_is_an_error(self, tmp_path, capsys, data, section):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        store = tmp_path / "ratings.jsonl"
        status = main(["--config", str(path), "rate", "--store", str(store), "--bug", "b",
                       "--rank", "0", "--label", "correct", "--rater", "alice"])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: config section {section!r} must hold a JSON object\n"
        assert captured.out == "" and not store.exists()

    def test_unknown_top_level_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"timeout": -1, "retries": -1}))  # generation keys
        with pytest.raises(ConfigError, match=r"^unknown ToolConfig keys: \['retries', 'timeout'\]$"):
            load_tool_config(str(path), env={})

    def test_repair_with_an_unknown_top_level_key_is_an_error(
        self, bench_fixture, tmp_path, capsys
    ):
        manifest_path, mock, _ = bench_fixture
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"timeout": -1, "retries": -1}))
        store = tmp_path / "records.jsonl"
        url = mock.serve()
        try:
            status = main(["--config", str(path), "repair", "--manifest", str(manifest_path),
                           "--pair", "IR4xOR2", "--backend", url, "--store", str(store)])
        finally:
            mock.close()
        assert status == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown ToolConfig keys: ['retries', 'timeout']\n"
        assert captured.out == "" and mock.calls == 0 and not store.exists()

    def test_missing_explicit_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_tool_config(str(tmp_path / "absent.json"), env={})

    def test_flag_beats_env_for_backend(self, bench_fixture, monkeypatch, capsys):
        # Flags > env: an env backend pointing nowhere is overridden by the
        # --backend flag pointing at a live mock.
        manifest_path, mock, _ = bench_fixture
        entries = json.loads(manifest_path.read_text())[:1]
        monkeypatch.setenv("REPAIR_BACKEND_URL", "http://127.0.0.1:9/")
        small = manifest_path.parent / "one.json"
        small.write_text(json.dumps(entries))
        url = mock.serve()
        try:
            status = main(["repair", "--manifest", str(small), "--pair", "IR4xOR2",
                           "--backend", url, "--format", "delimited"])
        finally:
            mock.close()
        assert status == 0
        assert "IR4xOR2,1,1,1,1,1,0" in capsys.readouterr().out


# --------------------------------------------------------------------------
# one refusal path: every bad input ends in one `error:` line from `main`

SRC = Path(__file__).resolve().parent.parent / "src" / "repairkit"


def _record_line(bug_id="b", pair="IR4xOR2", **verdict):
    """A record row whose one verdict is an exact match, unless `verdict`
    says otherwise."""
    verdict = {"ast": True, "exact": True, "parse_ok": True, "plausible": "pass", "rank": 0,
               **verdict}
    candidate = {"rank": 0, "raw_output": "x", "reconstructed": "x"}
    return json.dumps({"bug_id": bug_id, "candidates": [candidate], "pair": pair, "prompt": "",
                       "verdicts": [verdict]})


def _store(tmp_path, *lines):
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _manifest(tmp_path, bug_ids=("b",)):
    """A manifest of bugs in one small project."""
    root = tmp_path / "project"
    root.mkdir()
    (root / "Lib.java").write_text("class Lib {\n    int f(int a) {\n        return a - 1;\n    }\n}\n")
    entries = [
        {"bug_id": bug_id, "project_root": str(root), "file": "Lib.java",
         "function_span": [2, 4], "region": [2, 2], "test_command": "true",
         "reference": "    int f(int a) {\n        return a + 1;\n    }"}
        for bug_id in bug_ids
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def _rated_incorrect_twice(tmp_path):
    ratings = str(tmp_path / "ratings.jsonl")
    for rater in ("alice", "bob"):
        assert main(["rate", "--store", ratings, "--bug", "b", "--rank", "0",
                     "--label", "incorrect", "--rater", rater]) == 0
    return ratings


def _verdict_of_another_type(tmp_path, diff_corpus):
    store = _store(tmp_path, _record_line(parse_ok="no", exact="no", ast="no"))
    return ["report", "--store", store], f"{store}:1: TypeError: ast must be true or false, not 'no'"


def _pair_of_another_type(tmp_path, diff_corpus):
    store = _store(tmp_path, _record_line("a"), _record_line("b", pair=5))
    return ["report", "--store", store], f"{store}:2: TypeError: pair must be a string, not 5"


def _bug_id_of_another_type(tmp_path, diff_corpus):
    store = _store(tmp_path, _record_line(["a"]))
    return ["report", "--store", store], f"{store}:1: TypeError: bug_id must be a string, not ['a']"


def _config_file(text, message):
    def case(tmp_path, diff_corpus):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        return ["--config", str(path), "report", "--store", _store(tmp_path)], message

    return case


def _universe_below_the_counts(tmp_path, diff_corpus):
    """`aggregate` refuses the row, so `report` never shows it."""
    store = _store(tmp_path, _record_line("a"), _record_line("b"))
    argv = ["report", "--store", store, "--universe", "1"]
    return argv, "IR4xOR2: exact=2 ast=2 semantic=2 plausible=2 universe=1"


def _exact_match_rated_incorrect_in_report(tmp_path, diff_corpus):
    store = _store(tmp_path, _record_line())
    argv = ["report", "--store", store, "--ratings", _rated_incorrect_twice(tmp_path)]
    return argv, "b#0: an exact match cannot be semantically incorrect"


def _exact_match_rated_incorrect_in_repair(tmp_path, diff_corpus):
    store = _store(tmp_path, _record_line())
    argv = ["repair", "--manifest", _manifest(tmp_path), "--pair", "IR4xOR2", "--store", store,
            "--ratings", _rated_incorrect_twice(tmp_path)]
    return argv, "b#0: an exact match cannot be semantically incorrect"


def _empty_tokenizer(tokenizer):
    def case(tmp_path, diff_corpus):
        argv = ["dataset", "--corpus", str(diff_corpus), "--pair", "IR4xOR2",
                "--out", str(tmp_path / "data.jsonl"), "--tokenizer", tokenizer]
        return argv, f"tokenizer {tokenizer!r}: no command"

    return case


def _show(function, kind, message):
    def case(tmp_path, diff_corpus):
        path = tmp_path / "Sample.java"
        path.write_text("class Sample {\n    int twice(int x) {\n        return x + x;\n    }\n}\n")
        argv = ["show", "--file", str(path), "--function", function, "--kind", kind]
        return argv, message.format(path=path)

    return case


REFUSALS = {
    "verdict-of-another-type": _verdict_of_another_type,
    "pair-of-another-type": _pair_of_another_type,
    "bug-id-of-another-type": _bug_id_of_another_type,
    "universe-below-the-counts": _universe_below_the_counts,
    "config-not-json": _config_file(
        "{generation", "config file is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "config-not-an-object": _config_file("[1, 2]", "config file must hold a JSON object"),
    "exact-rated-incorrect-report": _exact_match_rated_incorrect_in_report,
    "exact-rated-incorrect-repair": _exact_match_rated_incorrect_in_repair,
    "empty-tokenizer": _empty_tokenizer("external:"),
    "blank-tokenizer": _empty_tokenizer("external: "),
    "show-unknown-function": _show("missing", "IR1", "no function named 'missing' in {path}"),
    "show-or-without-fixed-file": _show("twice", "OR2", "--fixed-file is required for OR kinds"),
    "show-unknown-kind": _show("twice", "XR9", "unknown representation kind 'XR9'"),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_bad_input_is_one_error_line(self, tmp_path, diff_corpus, capsys, case):
        argv, message = REFUSALS[case](tmp_path, diff_corpus)
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.err
        assert not (tmp_path / "data.jsonl").exists()

    @pytest.mark.parametrize(
        "url",
        ["not a url", "http://[::1", "file:///dev/null", "data:application/json,{}",
         "ftp://127.0.0.1:9/x", "http://127.0.0.1:9/a b", "http://127.0.0.1:abc/",
         "http://127.0.0.1:70000/", "http:///nohost"],
    )
    def test_a_backend_url_urllib_cannot_parse_is_a_record_per_bug(
        self, tmp_path, monkeypatch, capsys, url
    ):
        from repairkit import gen
        from repairkit.bench import RecordStore

        sleeps = []
        monkeypatch.setattr(gen, "_sleep", sleeps.append)
        store = tmp_path / "records.jsonl"
        argv = ["repair", "--manifest", _manifest(tmp_path, ("a", "b")), "--pair", "IR4xOR2",
                "--backend", url, "--store", str(store), "--no-tests"]
        assert main(argv) == 0
        assert sleeps == []  # refused at once, not retried
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error:" not in err
        records = RecordStore(store).load()
        assert sorted(records) == ["a", "b"]
        for record in records.values():
            assert record.error.startswith(f"BackendUnreachable: {url}: ")


def _prints_an_error(node: ast.Call) -> bool:
    """Whether `node` is a `print` call whose first argument is text that
    starts with `error:`."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "print" and node.args):
        return False
    text = node.args[0]
    if isinstance(text, ast.JoinedStr) and text.values:
        text = text.values[0]
    return isinstance(text, ast.Constant) and str(text.value).startswith("error:")


class _ErrorPrints(ast.NodeVisitor):
    """The function around each `print` of an `error:` text."""

    def __init__(self):
        self.where, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if _prints_an_error(node):
            self.found.append(self.where[-1])
        self.generic_visit(node)


def test_only_cli_main_prints_an_error():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _ErrorPrints()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.relative_to(SRC).as_posix(), where) for where in visitor.found]
    assert found == [("cli.py", "main")]
