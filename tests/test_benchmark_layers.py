"""Every per-layer metric in `BENCHMARK.json` that is read from a span
names a span the traced benchmark run records.

A metric `<span>.<stat>` of three or more parts (`assess.apply_ratings.self_s`)
is read from the spans of the function or method `benchmarks/spans.py`
wraps under that name. A refactor that renames or hides that function
would leave the metric at zero, silently. The shorter names
(`gen.wire_s`, `trace_overhead`) are derived from counts and other spans.
`benchmarks/spans.py` is imported as it is, the way the tiny benchmark
runs import `run`.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import spans  # noqa: E402


def _wrapped_span_names() -> set[str]:
    """The span names `Tracer.install` gives, with nothing actually wrapped."""
    names = set()
    tracer = spans.Tracer()
    tracer._wrap = lambda name, fn: names.add(name) or fn
    tracer.install()
    tracer.uninstall()
    return names


def test_every_per_layer_metric_names_a_wrapped_span():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from_spans = [m["name"] for m in benchmark["per_layer"] if m["name"].count(".") >= 2]
    wrapped = _wrapped_span_names()
    assert from_spans and "assess.check_plausible" in wrapped
    assert [name for name in from_spans if name.rpartition(".")[0] not in wrapped] == []
