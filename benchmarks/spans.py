"""Spans around repairkit's public functions, for the traced benchmark run.

`Tracer.install()` wraps every public, non-generator, module-level function
of each layer module, plus a few methods, and rebinds each name wherever a
module holds it, so calls between modules go through the wrapper. It
changes nothing on disk and nothing outside this process; `uninstall()`
puts the originals back.

Each thread keeps its own parent stack, so spans nest correctly under
worker threads. Spans stay in memory until `write()`. A span's self time is
its duration minus the time its child spans on the same thread took.
Generator functions are not wrapped: their bodies run lazily inside the
consumer's span, where that time is charged.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# Module -> layer name. cli, config and errors add no measurable work.
LAYERS = {
    "repairkit.syntax": "syntax",
    "repairkit.syntax.tokens": "syntax",
    "repairkit.syntax.parser": "syntax",
    "repairkit.syntax.tree": "syntax",
    "repairkit.representations": "representations",
    "repairkit.diffs": "diffs",
    "repairkit.gen": "gen",
    "repairkit.assess": "assess",
    "repairkit.corpus": "corpus",
    "repairkit.bench": "bench",
}

# (module, class, method) -> span name. RatingStore loads its file in the
# constructor, so that span is named for the load.
METHODS = {
    ("repairkit.assess", "RatingStore", "__init__"): "assess.RatingStore.load",
    ("repairkit.assess", "RatingStore", "add"): "assess.RatingStore.add",
    ("repairkit.bench", "RecordStore", "load"): "bench.RecordStore.load",
    ("repairkit.bench", "RecordStore", "append"): "bench.RecordStore.append",
    ("repairkit.gen", "MockBackend", "complete"): "gen.backend.complete",
}

_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
_TOKEN_RE = re.compile(r"[A-Za-z0-9_$]+|\S")


def token_key(text: str) -> tuple[str, ...]:
    """Significant tokens of a candidate, comments and spacing dropped.

    Coarser than a Java lexer, and independent of the one under test; it
    only has to tell the planted duplicate pairs apart from the rest.
    """
    return tuple(_TOKEN_RE.findall(_COMMENT_RE.sub(" ", text)))


# Counts taken where the work happens, keyed by span name. A note sees
# RAISED as the result of a call that raised. Arguments are bound by
# parameter name, so a caller switching to keywords changes nothing.
RAISED = object()


def _note_tokenize(tracer, stack, call, result):
    if result is not RAISED:
        tracer.add("tokens", len(result))


def _note_parse(tracer, stack, call, result):
    if any(frame[0] == "assess.classify" for frame in stack):
        tracer.add("parse_in_classify", 1)


def _note_classify(tracer, stack, call, result):
    tracer.add("classified", len(call()["candidates"]))


def _note_reconstruct(tracer, stack, call, result):
    if result is not RAISED:
        tracer.add("reconstruct_ok", 1)


def _note_check_plausible(tracer, stack, call, result):
    bound = call()
    location = bound["location"]
    key = (str(bound["project_root"]), location.file, location.start_line)
    candidate = token_key(bound["candidate"])
    with tracer.lock:
        tracer.counts["tested_duplicates"] += candidate in tracer.tested[key]
        tracer.tested[key].add(candidate)


def _note_emit(tracer, stack, call, result):
    if result is not RAISED:
        tracer.add("emitted", result)


NOTES = {
    "syntax.tokenize": _note_tokenize,
    "syntax.parse": _note_parse,
    "assess.classify": _note_classify,
    "representations.reconstruct": _note_reconstruct,
    "assess.check_plausible": _note_check_plausible,
    "corpus.emit_dataset": _note_emit,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, thread, parent, start, end, child_s)
        self.counts: Counter = Counter()
        self.tested: defaultdict = defaultdict(set)
        self.lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, n: int) -> None:
        with self.lock:
            self.counts[key] += n

    def _wrap(self, name: str, fn):
        spans, local, note = self.spans, self._local, NOTES.get(name)
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            result = RAISED
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((name, threading.get_ident(), parent, start, end, frame[1]))
                if note is not None:
                    note(tracer, stack, lambda: signature.bind(*args, **kwargs).arguments, result)

        return functools.wraps(fn)(traced)

    def install(self, consumers=()) -> None:
        """Wrap the layer functions; rebind them in every consuming module."""
        wrappers = {}
        for module_name, layer in LAYERS.items():
            module = importlib.import_module(module_name)
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module_name
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        modules = [m for n, m in sys.modules.items() if n.startswith("repairkit")]
        for module in [*modules, *consumers]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for (module_name, cls_name, method), span in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, thread, parent, start, end, child in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name, "thread": thread, "parent": parent,
                            "start": round(start - origin, 9), "end": round(end - origin, 9),
                            "self_s": round(end - start - child, 9),
                        }
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("syntax.parse.calls", "count"),
    ("syntax.parse.self_s", "s"),
    ("syntax.parse.per_candidate", "count"),
    ("syntax.tokenize.tokens_per_s", "1/s"),
    ("syntax.extract_functions.self_s", "s"),
    ("syntax.ast_equal.calls", "count"),
    ("syntax.ast_equal.self_s", "s"),
    ("representations.build_input.self_s", "s"),
    ("representations.build_output.self_s", "s"),
    ("representations.reconstruct.self_s", "s"),
    ("representations.reconstruct.ok_ratio", "ratio"),
    ("diffs.make_unified_diff.calls", "count"),
    ("diffs.make_unified_diff.self_s", "s"),
    ("diffs.apply_diff.calls", "count"),
    ("diffs.apply_diff.self_s", "s"),
    ("gen.request_candidates.calls", "count"),
    ("gen.request_candidates.self_s", "s"),
    ("gen.backend.complete.self_s", "s"),
    ("gen.wire_s", "s"),
    ("assess.classify.self_s", "s"),
    ("assess.check_plausible.calls", "count"),
    ("assess.check_plausible.self_s", "s"),
    ("assess.check_plausible.per_candidate", "ratio"),
    ("assess.hash_tree.calls", "count"),
    ("assess.hash_tree.self_s", "s"),
    ("assess.hash_tree.per_tested_candidate", "ratio"),
    ("assess.duplicate_candidate_ratio", "ratio"),
    ("assess.RatingStore.add.self_s", "s"),
    ("assess.RatingStore.load.self_s", "s"),
    ("assess.apply_ratings.self_s", "s"),
    ("assess.cohen_kappa.self_s", "s"),
    ("corpus.function_pairs_from_files.calls", "count"),
    ("corpus.function_pairs_from_files.self_s", "s"),
    ("corpus.derive_region.calls", "count"),
    ("corpus.derive_region.self_s", "s"),
    ("corpus.count_tokens.calls", "count"),
    ("corpus.count_tokens.self_s", "s"),
    ("corpus.emit_dataset.calls", "count"),
    ("corpus.emit_dataset.self_s", "s"),
    ("corpus.emitted_ratio", "ratio"),
    ("bench.run_bug.calls", "count"),
    ("bench.run_bug.p50_ms", "ms"),
    ("bench.run_bug.p90_ms", "ms"),
    ("bench.load_function.self_s", "s"),
    ("bench.RecordStore.append.self_s", "s"),
    ("bench.RecordStore.load.self_s", "s"),
    ("bench.aggregate.self_s", "s"),
    ("bench.report.self_s", "s"),
    ("trace_overhead", "ratio"),
]


def layer_metrics(tracer: Tracer, units: int, trace_overhead: float) -> dict[str, float]:
    """Reduce the spans to the PER_LAYER values; `units` is corpus units run."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    run_bug_ms = []
    for name, _thread, _parent, start, end, child in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child
        if name == "bench.run_bug":
            run_bug_ms.append((end - start) * 1000.0)
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[span]
        elif stat == "self_s":
            values[name] = self_s[span]
    deciles = (
        statistics.quantiles(run_bug_ms, n=10, method="inclusive")
        if len(run_bug_ms) > 1 else run_bug_ms * 9 or [0.0] * 9
    )
    values.update(
        {
            "syntax.parse.per_candidate": _ratio(counts["parse_in_classify"], counts["classified"]),
            "syntax.tokenize.tokens_per_s": _ratio(counts["tokens"], self_s["syntax.tokenize"]),
            "representations.reconstruct.ok_ratio": _ratio(
                counts["reconstruct_ok"], calls["representations.reconstruct"]
            ),
            "gen.wire_s": total["gen.request_candidates"] - total["gen.backend.complete"],
            "assess.check_plausible.per_candidate": _ratio(
                calls["assess.check_plausible"], counts["classified"]
            ),
            "assess.hash_tree.per_tested_candidate": _ratio(
                calls["assess.hash_tree"], calls["assess.check_plausible"]
            ),
            "assess.duplicate_candidate_ratio": _ratio(
                counts["tested_duplicates"], calls["assess.check_plausible"]
            ),
            "corpus.emitted_ratio": _ratio(counts["emitted"], units),
            "bench.run_bug.p50_ms": deciles[4],
            "bench.run_bug.p90_ms": deciles[8],
            "trace_overhead": trace_overhead,
        }
    )
    return {name: values[name] for name, _unit in PER_LAYER}
