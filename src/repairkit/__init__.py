"""repairkit: a program-repair pipeline toolkit.

Builds fault-localization-aware code representations of buggy functions,
turns diff corpora into fine-tuning datasets, requests candidate patches
from a pluggable generation backend, and scores them on four tiers:
plausible, exact match, AST match, and human-rated semantic match.

Importing the package loads none of its modules. Each name below, and each
submodule, is imported on first access (PEP 562), so `import repairkit.cli`
costs only what the CLI needs before it dispatches.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "assess": (
        "AssessmentVerdict",
        "FunctionLocation",
        "KappaResult",
        "RatingStore",
        "SemanticRating",
        "TestRun",
        "TestSpec",
        "check_plausible",
        "classify",
        "cohen_kappa",
        "exact_match",
        "resolve_semantic",
    ),
    "bench": (
        "AggregateRow",
        "AggregateTable",
        "BugManifestEntry",
        "RecordStore",
        "RunRecord",
        "aggregate",
        "load_manifest",
        "report",
        "run_benchmark",
    ),
    "config": ("CorpusFilterConfig", "GenerationConfig", "Markers"),
    "corpus": (
        "FunctionPair",
        "PipelineStats",
        "TrainingConfig",
        "TrainingSample",
        "build_dataset",
        "count_tokens",
        "dedupe",
        "derive_region",
        "emit_dataset",
        "exclude_leakage",
        "export_training_config",
        "ingest_diff_corpus",
    ),
    "diffs": ("UnifiedDiff", "apply_diff", "make_unified_diff"),
    "gen": ("CandidatePatch", "MockBackend", "build_chat_prompt", "request_candidates"),
    "representations": (
        "DEFAULT_MARKERS",
        "VALID_PAIRS",
        "InputKind",
        "OutputKind",
        "Region",
        "ReprPair",
        "build_input",
        "build_output",
        "enumerate_regions",
        "reconstruct",
        "valid_pair",
    ),
    "syntax": ("SourceFile", "SourceFunction", "ast_equal", "extract_functions", "parse"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "errors", "jsonl"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
