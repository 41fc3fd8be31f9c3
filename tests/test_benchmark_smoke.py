"""A tiny run of each gated benchmark workload, checked against its
planted answers.

`benchmarks/run.py` is imported as it is, and `run.measure` runs each
gated workload at the tiny size without tracing, and repair-offline,
repair-plausible and ratings-report traced, so that their per-layer
counts pin what the traced spans see, the test harness's work per
candidate and the store loads the spans time. One more case runs all four
traced, so that no per-layer metric reads 0 in every workload unnoticed.
The planted answers are what a
frontend change can break without a unit test noticing: dataset samples,
repair verdicts and rating tables all come out of the lexer and parser.
No timing is asserted.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import run  # noqa: E402


@pytest.mark.parametrize("name", ["dataset-corpus", "repair-offline", "ratings-report"])
def test_tiny_run_gives_the_planted_answers(name, tmp_path):
    correct, attempted, failed, metrics, context = run.measure(
        name, 7, 0.05, False, "tiny", tmp_path
    )
    assert context["problems"] == []
    assert correct and failed == 0 and attempted > 0


def test_tiny_traced_offline_run_sees_every_candidate(tmp_path):
    # Each planted bug has ten candidates under each of the two pairs: under
    # IR1xOR3 one diff's context matches nowhere and one's header counts
    # exceed its body, so 18 of 20 reconstruct. The spans that read 0.9 there
    # and time `classify` and `reconstruct` are the ones the per-layer
    # metrics of these two functions are read from.
    correct, attempted, failed, metrics, context = run.measure(
        "repair-offline", 7, 0.05, True, "tiny", tmp_path
    )
    assert context["problems"] == []
    assert correct and failed == 0 and attempted > 0
    assert metrics["representations.reconstruct.ok_ratio"][0] == pytest.approx(0.9)
    assert metrics["representations.reconstruct.self_s"][0] > 0
    # The six traced batches hold two bugs each. Of a bug's ten IR1xOR3
    # diffs, nine parse and are applied (the one whose context matches
    # nowhere fails there, and the empty one gives the buggy method back);
    # the one whose header counts exceed its body never gets that far.
    assert metrics["diffs.apply_diff.calls"][0] == 6 * 2 * 9
    assert metrics["assess.classify.self_s"][0] > 0


def test_tiny_traced_plausible_run_tests_three_of_five_candidates(tmp_path):
    # Each planted bug has five candidates: the reference fix, an exact
    # match that skips the tests; two other spellings of it with the same
    # tokens, of which the first runs the tests and the second shares its
    # verdict; one that adds a statement; and one that fails. So 3 of 5 run
    # the tests, and each run hashes the project before and after.
    correct, attempted, failed, metrics, context = run.measure(
        "repair-plausible", 7, 0.05, True, "tiny", tmp_path
    )
    assert context["problems"] == []
    assert correct and failed == 0 and attempted > 0
    assert metrics["assess.check_plausible.per_candidate"][0] == pytest.approx(0.6)
    assert metrics["assess.hash_tree.per_tested_candidate"][0] == pytest.approx(2.0)


def test_tiny_traced_ratings_run_sees_the_load_path(tmp_path):
    # The spans the ratings layer's per-layer metrics are read from: the
    # rating store's load runs in its constructor, and `aggregate` applies
    # the ratings that load indexed.
    correct, attempted, failed, metrics, context = run.measure(
        "ratings-report", 7, 0.05, True, "tiny", tmp_path
    )
    assert context["problems"] == []
    assert correct and failed == 0 and attempted > 0
    for name in ("bench.RecordStore.load", "assess.RatingStore.load", "bench.aggregate"):
        assert metrics[f"{name}.self_s"][0] > 0, name


# Per-layer metrics that no tiny traced run moves off zero, and why.
DARK_LAYERS = {
    # Nothing in src/ calls `ast_equal`.
    "syntax.ast_equal.calls",
    "syntax.ast_equal.self_s",
    # Only the cold start calls `extract_functions`, in a subprocess.
    "syntax.extract_functions.self_s",
    # `classify` shares a token-equal candidate's verdict, so the planted
    # duplicate never reaches `check_plausible`.
    "assess.duplicate_candidate_ratio",
}


def test_every_per_layer_metric_is_seen_by_a_tiny_traced_run(tmp_path):
    # A metric whose spans no workload enters reads 0 on working code, and
    # so says nothing. `trace_overhead` is not read from spans.
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"] if metric["name"] != "trace_overhead"]
    seen = set()
    for name in ("dataset-corpus", "repair-offline", "ratings-report", "repair-plausible"):
        *_, metrics, context = run.measure(name, 7, 0.05, True, "tiny", tmp_path / name)
        assert context["problems"] == [], name
        seen.update(key for key in names if metrics[key][0])
    assert [key for key in names if key not in seen] == [
        key for key in names if key in DARK_LAYERS
    ]
