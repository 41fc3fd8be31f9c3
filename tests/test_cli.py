"""CLI commands, exit codes, and configuration precedence."""
import json

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
            f"emitted={CORPUS_EXPECTED['emitted']}"
        )
        assert capsys.readouterr().out.strip() == expected
        assert len(out.read_text().splitlines()) == CORPUS_EXPECTED["emitted"]

    def test_invalid_pair_is_usage_error_listing_valid_pairs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dataset", "--corpus", "x", "--pair", "IR1xOR2", "--out", "y"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "IR1xOR1" in err and "IR4xOR2" in err  # cites the pairing matrix

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

    def test_bad_region(self, java_file, capsys):
        assert main(
            ["show", "--file", str(java_file), "--function", "twice",
             "--kind", "IR3", "--region", "1:99"]
        ) == 1


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

    def test_no_overlap_nonzero_exit(self, tmp_path, capsys):
        store = str(tmp_path / "ratings.jsonl")
        main(["rate", "--store", store, "--bug", "b1", "--rank", "0",
              "--label", "correct", "--rater", "alice"])
        status = main(["kappa", "--store", store, "--rater-a", "alice", "--rater-b", "bob"])
        assert status == 1


class TestExportTrainConfig:
    def test_golden_file_match(self, tmp_path, golden):
        out = tmp_path / "train.cfg"
        assert main(["export-train-config", "--out", str(out)]) == 0
        assert out.read_text() == golden("train_config.txt")


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
