"""repairkit: a program-repair pipeline toolkit.

Builds fault-localization-aware code representations of buggy functions,
turns diff corpora into fine-tuning datasets, requests candidate patches
from a pluggable generation backend, and scores them on four tiers:
plausible, exact match, AST match, and human-rated semantic match.
"""

__version__ = "0.1.0"

from .assess import (
    AssessmentVerdict,
    FunctionLocation,
    KappaResult,
    RatingStore,
    SemanticRating,
    TestRun,
    TestSpec,
    ast_match,
    check_plausible,
    classify,
    cohen_kappa,
    exact_match,
    resolve_semantic,
)
from .bench import (
    AggregateRow,
    AggregateTable,
    BugManifestEntry,
    RecordStore,
    RunRecord,
    aggregate,
    load_manifest,
    report,
    run_benchmark,
)
from .corpus import (
    CorpusFilterConfig,
    FunctionPair,
    PipelineStats,
    TrainingConfig,
    TrainingSample,
    build_dataset,
    count_tokens,
    dedupe,
    derive_region,
    emit_dataset,
    exclude_leakage,
    export_training_config,
    ingest_diff_corpus,
)
from .diffs import UnifiedDiff, apply_diff, make_unified_diff
from .gen import (
    CandidatePatch,
    GenerationConfig,
    MockBackend,
    build_chat_prompt,
    request_candidates,
)
from .representations import (
    DEFAULT_MARKERS,
    VALID_PAIRS,
    InputKind,
    Markers,
    OutputKind,
    Region,
    ReprPair,
    build_input,
    build_output,
    enumerate_regions,
    reconstruct,
    valid_pair,
)
from .syntax import (
    SourceFile,
    SourceFunction,
    ast_equal,
    extract_functions,
    normalize,
    parse,
)
