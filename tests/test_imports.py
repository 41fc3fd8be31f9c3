"""What a CLI call imports: only the modules its subcommand runs.

Each footprint is taken in a fresh interpreter, as a real CLI call starts,
with warnings as errors. The package resolves its exported names on first
access, and every name it exported before that change still resolves, from
the package and from the module that held it, to the same object.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repairkit
from repairkit.assess import RatingStore, SemanticRating

from conftest import make_bench_fixture, make_diff_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

# The stdlib modules that only rare paths need: the HTTP client, the mock
# backend's server, the thread pool of a parallel run and the tree hash of
# the plausibility harness.
RARE = frozenset({"urllib.request", "http.server", "socket", "concurrent.futures", "hashlib"})

SHOW_MODULES = "\nimport sys\nprint('\\n' + ' '.join(sorted(sys.modules)))\n"


def _fresh(code: str, *args: str) -> tuple[str, set[str]]:
    """Run `code` in a fresh interpreter; its output, and the modules
    loaded when it ended."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPAIR_")}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code + SHOW_MODULES, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    output, _, modules = result.stdout.rstrip("\n").rpartition("\n")
    return output.strip(), set(modules.split())


def _repairkit(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "repairkit" or m.startswith("repairkit.")}


@pytest.fixture(scope="module")
def bare() -> set[str]:
    """What a bare interpreter loads on this host, site hooks included."""
    return _fresh("")[1]


def test_import_cli_loads_only_what_every_call_needs():
    _, modules = _fresh("import repairkit.cli")
    assert _repairkit(modules) == {
        "repairkit", "repairkit.cli", "repairkit.config", "repairkit.errors"
    }


def test_parser_and_config_load_nothing_more():
    code = (
        "import argparse, sys\n"
        "from repairkit.cli import build_parser, load_tool_config\n"
        # argparse's own first use loads gettext's locale support; not ours
        "argparse.ArgumentParser().add_subparsers().add_parser('x').add_argument('--y')\n"
        "before = set(sys.modules)\n"
        "build_parser()\n"
        "load_tool_config()\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    output, _ = _fresh(code)
    assert output == "[]"


CLI = (
    "import sys\n"
    "from repairkit.cli import main\n"
    "try:\n"
    "    status = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    status = exc.code\n"
    "print('status', status)\n"
)


@pytest.fixture(scope="module")
def calls(tmp_path_factory) -> dict[str, list[str]]:
    """One argument list per subcommand, each with inputs it accepts."""
    root = tmp_path_factory.mktemp("calls")
    java = root / "Sample.java"
    java.write_text("class Sample {\n    int twice(int x) {\n        return x + x;\n    }\n}\n")
    ratings = RatingStore(root / "ratings.jsonl")
    for rank, (a, b) in enumerate([("correct", "correct"), ("correct", "incorrect"),
                                   ("incorrect", "incorrect")]):
        ratings.add(SemanticRating("Math-5", rank, "alice", a))
        ratings.add(SemanticRating("Math-5", rank, "bob", b))
    manifest, _, _ = make_bench_fixture(root / "bench")
    return {
        "--help": ["--help"],
        "show": ["show", "--file", str(java), "--function", "twice", "--kind", "IR4",
                 "--region", "2:2"],
        "dataset": ["dataset", "--corpus", str(make_diff_corpus(root / "corpus")),
                    "--pair", "IR4xOR2", "--out", str(root / "dataset.jsonl")],
        "rate": ["rate", "--store", str(root / "new-ratings.jsonl"), "--bug", "Math-5",
                 "--rank", "0", "--label", "correct", "--rater", "alice"],
        "kappa": ["kappa", "--store", str(ratings.path), "--rater-a", "alice",
                  "--rater-b", "bob"],
        "report": ["report", "--store", str(GOLDEN / "record_store.jsonl"),
                   "--ratings", str(GOLDEN / "rating_store.jsonl")],
        # no backend is configured: every bug is recorded as unreachable
        "repair": ["repair", "--manifest", str(manifest), "--pair", "IR4xOR2", "--no-tests"],
    }


@pytest.mark.parametrize(
    "command", ["--help", "show", "dataset", "rate", "kappa", "report", "repair"]
)
def test_each_call_loads_only_what_its_subcommand_runs(calls, bare, command):
    output, modules = _fresh(CLI, *calls[command])
    assert output.endswith("status 0")
    assert ("repairkit.bench" in modules) == (command in ("report", "repair"))
    if command != "repair":
        assert not (modules - bare) & RARE
    if command == "--help":
        assert _repairkit(modules) == {
            "repairkit", "repairkit.cli", "repairkit.config", "repairkit.errors"
        }


# The package's exports before they were resolved lazily, by the module
# that held each one then.
PARENT_EXPORTS = {
    "assess": "AssessmentVerdict FunctionLocation KappaResult RatingStore SemanticRating "
    "TestRun TestSpec check_plausible classify cohen_kappa exact_match resolve_semantic",
    "bench": "AggregateRow AggregateTable BugManifestEntry RecordStore RunRecord aggregate "
    "load_manifest report run_benchmark",
    "corpus": "CorpusFilterConfig FunctionPair PipelineStats TrainingConfig TrainingSample "
    "build_dataset count_tokens dedupe derive_region emit_dataset exclude_leakage "
    "export_training_config ingest_diff_corpus",
    "diffs": "UnifiedDiff apply_diff make_unified_diff",
    "gen": "CandidatePatch GenerationConfig MockBackend build_chat_prompt request_candidates",
    "representations": "DEFAULT_MARKERS VALID_PAIRS InputKind Markers OutputKind Region "
    "ReprPair build_input build_output enumerate_regions reconstruct valid_pair",
    "syntax": "SourceFile SourceFunction ast_equal extract_functions parse",
}
SUBMODULES = "assess bench config corpus diffs errors gen jsonl representations syntax".split()

# Names that moved into `config`, and every module that held them before.
MOVED = {
    "Markers": "bench config corpus gen representations",
    "DEFAULT_STOP_TOKENS": "gen representations",
    "CorpusFilterConfig": "config corpus",
    "GenerationConfig": "bench config gen",
    "DEFAULT_LEAKAGE_BUGS": "bench corpus",
    "PROFILES": "bench cli",
    "REPORT_FORMATS": "bench cli",
}


@pytest.mark.parametrize("module", sorted(PARENT_EXPORTS))
def test_every_export_resolves_to_the_same_object(module):
    held = importlib.import_module(f"repairkit.{module}")
    for name in PARENT_EXPORTS[module].split():
        assert getattr(repairkit, name) is getattr(held, name), name
        assert name in repairkit.__all__ and name in dir(repairkit), name


def test_submodules_are_package_attributes():
    for name in SUBMODULES:
        assert getattr(repairkit, name) is importlib.import_module(f"repairkit.{name}")
    with pytest.raises(AttributeError):
        repairkit.no_such_name


def test_moved_names_keep_every_import_path():
    from repairkit import config

    for name, modules in MOVED.items():
        for module in modules.split():
            held = importlib.import_module(f"repairkit.{module}")
            assert getattr(held, name) is getattr(config, name), (module, name)
