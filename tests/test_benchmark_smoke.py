"""A tiny run of each gated benchmark workload, checked against its
planted answers.

`benchmarks/run.py` is imported as it is, and `run.measure` runs each
workload at the tiny size without tracing. The planted answers are what a
frontend change can break without a unit test noticing: dataset samples,
repair verdicts and rating tables all come out of the lexer and parser.
No timing is asserted.
"""
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
