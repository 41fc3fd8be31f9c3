"""Tiny-size smoke run of every workload, end-to-end and traced.

Checks the planted-answer oracle, the traced run and the metric names
against BENCHMARK.json. Timings are never asserted. Run from the
repository root:

    python3 -m pytest benchmarks/test_smoke.py -q
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

import run

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((run.HERE / "spec.json").read_text(encoding="utf-8"))
NAMES = sorted(run.TRACE_BATCHES)


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(NAMES)
    assert sorted(SPEC["workloads"]) == NAMES
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [u for _, u in spans.PER_LAYER]
    named = {n for row in SPEC["predictions"] for n in row["per_layer"]}
    assert named <= {n for n, _ in spans.PER_LAYER}


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_is_correct(name, trace, tmp_path):
    correct, attempted, failed, metrics, context = run.measure(
        name, 7, 0.05, trace, "tiny", tmp_path
    )
    assert context["problems"] == []
    assert correct and failed == 0 and attempted > 0
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: u for n, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert metrics["ok_ratio"][0] == 1.0
    else:
        exact = {
            "dataset-corpus": {"corpus.emitted_ratio": 0.5},
            "repair-offline": {
                # classify parses exact matches and failed reconstructions
                # 0 times, unparsable candidates once and the rest four
                # times: 29 per 10 under IR4xOR2, 17 per 10 under IR1xOR3.
                "syntax.parse.per_candidate": 2.3,
                "representations.reconstruct.ok_ratio": 0.9,
                "assess.check_plausible.per_candidate": 0.0,
            },
            "repair-plausible": {
                # exact 0, three passing candidates 4 each, the failing one 1
                "syntax.parse.per_candidate": 2.6,
                "assess.check_plausible.per_candidate": 0.8,
                "assess.hash_tree.per_tested_candidate": 2.0,
                "assess.duplicate_candidate_ratio": 0.25,
            },
            "ratings-report": {"assess.check_plausible.calls": 0},
        }[name]
        assert {k: metrics[k][0] for k in exact} == pytest.approx(exact)


@pytest.mark.parametrize("name", NAMES)
def test_seed_decides_the_inputs(name, tmp_path):
    _, written = inputs.plan(name, tmp_path, 3, "tiny")
    digests = [inputs.plan(name, tmp_path, seed, "tiny", write=False)[1] for seed in (3, 4)]
    assert digests == [written, digests[1]] and digests[1] != written


def _corrupt(name, result):
    """The result with one planted answer damaged."""
    if name == "dataset-corpus":
        result[0].emitted += 1
        return result
    if name == "ratings-report":
        stored, kappa, *rest = result
        return (stored, replace(kappa, kappa=kappa.kappa + 0.01), *rest)
    record = next(iter(result.values()))[0]
    record.verdicts[0] = replace(record.verdicts[0], parse_ok=not record.verdicts[0].parse_ok)
    return result


@pytest.mark.parametrize("name", NAMES)
def test_oracle_catches_a_wrong_answer(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, 5, "tiny")
    try:
        batches, _ = workload.plan()
        workload.start(batches)
        batch = batches[0]
        result = workload.run(batch)
        assert workload.check(batch, result) == (0, [])
        failed, problems = workload.check(batch, _corrupt(name, result))
        assert failed > 0 and problems
    finally:
        workload.close()
