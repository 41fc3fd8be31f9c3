"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line through the conftest report hook. Run
with `pytest tests/test_acceptance.py -v` for the per-criterion listing.
"""
import json
import random
import time

import pytest

from repairkit.assess import RatingStore, SemanticRating, cohen_kappa, hash_tree
from repairkit.bench import aggregate, load_manifest, run_benchmark
from repairkit.corpus import (
    PipelineStats,
    build_dataset,
    dedupe,
    emit_dataset,
    ingest_diff_corpus,
    render_training_config,
)
from repairkit.diffs import UnifiedDiff, apply_diff, make_unified_diff
from repairkit.errors import AggregateInvariantError, HunkApplyFailure
from repairkit.gen import GenerationConfig
from repairkit.representations import (
    VALID_PAIRS,
    InputKind,
    OutputKind,
    ReprPair,
    build_output,
    enumerate_regions,
    reconstruct,
    valid_pair,
)
from repairkit.syntax import SourceFunction, ast_equal

from conftest import CORPUS_EXPECTED


def test_criterion_01_representation_round_trip(roundtrip_triples):
    """Every valid pair reproduces the fixed function byte-exactly over the
    whole fixture corpus (>= 50 triples, >= 5 multi-location), in < 5 s."""
    assert len(roundtrip_triples) >= 50
    distant = [t for t in roundtrip_triples if t.multi_location_gap >= 10]
    assert len(distant) >= 5
    pairs = sorted(VALID_PAIRS, key=str)
    started = time.monotonic()
    checked = 0
    for triple in roundtrip_triples:
        for pair in pairs:
            output = build_output(triple.buggy, triple.fixed, triple.region, pair.output)
            assert reconstruct(triple.buggy, triple.region, pair, output) == triple.fixed.text
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == len(roundtrip_triples) * 6
    assert elapsed < 5.0, f"round-trips took {elapsed:.2f}s"


def test_criterion_02_pairing_matrix():
    """valid_pair accepts exactly the six documented combinations."""
    all_pairs = [ReprPair(i, o) for i in InputKind for o in OutputKind]
    accepted = {pair for pair in all_pairs if valid_pair(pair)}
    assert accepted == {
        ReprPair.parse(tag)
        for tag in ("IR1xOR1", "IR1xOR3", "IR1xOR4", "IR2xOR2", "IR3xOR2", "IR4xOR2")
    }
    assert len(all_pairs) == 16
    assert sum(1 for pair in all_pairs if not valid_pair(pair)) == 10


@pytest.mark.parametrize("n", range(1, 51))
def test_criterion_03_region_enumeration(n):
    """Region count is exactly n(n+1)/2 for every function length 1..50."""
    fn = SourceFunction.from_text("\n".join(f"line{i};" for i in range(n)), "f")
    regions = enumerate_regions(fn)
    assert len(regions) == n * (n + 1) // 2
    assert len(set(regions)) == len(regions)
    assert all(1 <= r.start_line <= r.end_line <= n for r in regions)


def test_criterion_04_diff_engine():
    """apply(make(a,b,c), a) == b over 1000 randomized pairs with c in
    {1,3}; fuzz absorbs a +/-2-line shift; ambiguity fails. < 10 s."""
    rng = random.Random(1024)
    alphabet = ["alpha\n", "beta\n", "gamma\n", "delta\n", "\n", "  indented\n"]
    started = time.monotonic()
    for _ in range(1000):
        a_lines = [rng.choice(alphabet) for _ in range(rng.randrange(0, 30))]
        b_lines = list(a_lines)
        for _ in range(rng.randrange(0, 6)):
            op = rng.choice("idr")
            if op == "i":
                b_lines.insert(rng.randrange(len(b_lines) + 1), "inserted\n")
            elif b_lines and op == "d":
                b_lines.pop(rng.randrange(len(b_lines)))
            elif b_lines:
                b_lines[rng.randrange(len(b_lines))] = "replaced\n"
        a, b = "".join(a_lines), "".join(b_lines)
        for context in (1, 3):
            assert apply_diff(make_unified_diff(a, b, context), a) == b
    elapsed = time.monotonic() - started

    ten = "".join(f"line {i}\n" for i in range(1, 11))
    changed = ten.replace("line 6", "SIX")
    diff = make_unified_diff(ten, changed, 3)
    shifted = "pad 1\npad 2\n" + ten
    assert apply_diff(diff, shifted, fuzz=3) == "pad 1\npad 2\n" + changed

    window = "alpha\nbeta\n"
    ambiguous_target = window + "x\nx\n" + window + "tail\n"
    hunk = UnifiedDiff.parse("@@ -3,2 +3,2 @@\n-alpha\n-beta\n+A\n+B\n")
    with pytest.raises(HunkApplyFailure):
        apply_diff(hunk, ambiguous_target, fuzz=3)

    assert elapsed < 10.0, f"1000 round-trips took {elapsed:.2f}s"


# 30 handcrafted cases with a hand-labeled key: (category, a, b, equal).
AST_CASES = [
    # formatting-only: 6 equal cases
    ("formatting", "int f(){return 1;}", "int f() {\n    return 1;\n}", True),
    ("formatting", "int f(){return a+b;}", "int f() { return a + b ; }", True),
    ("formatting", "void g(){if(x){y();}}", "void g() {\n  if (x) {\n    y();\n  }\n}", True),
    ("formatting", "int h(int a,int b){return a*b;}", "int h( int a , int b ){ return a * b; }", True),
    ("formatting", "List<Map<K,V>> f(){return m;}", "List<Map<K,V> > f(){return m;}", True),
    ("formatting", "int f(){int[] a={1,2};return a[0];}", "int f() {\n  int[] a = { 1, 2 };\n  return a[0];\n}", True),
    # comment-only: 6 equal cases
    ("comment", "int f(){return 1;}", "int f(){return 1;} // done", True),
    ("comment", "int f(){return 1;}", "/* header */ int f(){return 1;}", True),
    ("comment", "int f(){return 1;}", "int f(){ /* inner */ return 1;}", True),
    ("comment", "void g(){a();b();}", "void g(){a(); // step one\nb();}", True),
    ("comment", "int f(){return 1;}", "int f(){return /* why */ 1;}", True),
    ("comment", "void g(){a();}", "// lead\n// more\nvoid g(){a();}", True),
    # identifier renames: 6 unequal cases
    ("rename", "int f(){return x;}", "int f(){return y;}", False),
    ("rename", "int f(){return x;}", "int g(){return x;}", False),
    ("rename", "int f(int a){return a;}", "int f(int b){return b;}", False),
    ("rename", "void g(){helper();}", "void g(){other();}", False),
    ("rename", "int f(){int t=1;return t;}", "int f(){int u=1;return u;}", False),
    ("rename", "void g(){obj.call();}", "void g(){obj2.call();}", False),
    # literal changes: 6 unequal cases (labels are compared verbatim)
    ("literal", "int f(){return 1;}", "int f(){return 2;}", False),
    ("literal", "int f(){return 16;}", "int f(){return 0x10;}", False),
    ("literal", "double d(){return 1.0;}", "double d(){return 1.00;}", False),
    ("literal", "String s(){return \"a\";}", "String s(){return \"b\";}", False),
    ("literal", "boolean b(){return true;}", "boolean b(){return false;}", False),
    ("literal", "long l(){return 5L;}", "long l(){return 5;}", False),
    # statement reorder / structure: 6 unequal cases
    ("reorder", "void g(){a();b();}", "void g(){b();a();}", False),
    ("reorder", "int f(){return a+b;}", "int f(){return b+a;}", False),
    ("reorder", "void g(){if(x){y();}}", "void g(){if (x) y();}", False),
    ("reorder", "void g(){if(x)a();else b();}", "void g(){if(x)b();else a();}", False),
    ("reorder", "int f(){int a=1;int b=2;return a;}", "int f(){int b=2;int a=1;return a;}", False),
    ("reorder", "void g(){for(;;){a();}}", "void g(){while(true){a();}}", False),
]


def test_criterion_05_ast_match_oracle():
    """The 30-case handcrafted corpus scores exactly per its key, and
    textual equality implies AST equality on every case."""
    assert len(AST_CASES) == 30
    for category, a, b, expected in AST_CASES:
        got = ast_equal(a, b)
        assert got == expected, (category, a, b)
        assert ast_equal(b, a) == expected, ("symmetry", category, a, b)
        # exact-match implies ast-match on every case
        assert ast_equal(a, a) and ast_equal(b, b)


def test_criterion_06_corpus_pipeline_determinism(diff_corpus, tmp_path):
    """The 20-unit fixture yields the hand-counted stage totals and two
    runs emit byte-identical datasets."""
    outputs = []
    for run in range(2):
        stats = PipelineStats()
        pairs = dedupe(ingest_diff_corpus(diff_corpus, stats), stats)
        samples = build_dataset(pairs, ReprPair.parse("IR4xOR2"), stats=stats)
        out = tmp_path / f"run{run}.jsonl"
        emit_dataset(samples, out)
        assert stats.units == CORPUS_EXPECTED["units"]
        assert stats.ingested == CORPUS_EXPECTED["ingested"]
        assert stats.ingested - stats.duplicates == CORPUS_EXPECTED["deduped"]
        assert stats.over_length == CORPUS_EXPECTED["dropped_over_length"]
        assert stats.emitted == CORPUS_EXPECTED["emitted"]
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_criterion_07_end_to_end_mock_backend(bench_fixture):
    """10-bug fixture: reference chunks for 6 bugs, plausible variants for
    2, garbage for 2 -> plausible 8 / exact 6 / ast >= 6 / pending 2, with
    every project tree restored. < 2 min."""
    manifest_path, mock, _ = bench_fixture
    manifest = load_manifest(manifest_path)
    assert len(manifest) == 10
    before = {e.bug_id: hash_tree(e.project_root) for e in manifest}
    started = time.monotonic()
    records = run_benchmark(manifest, ReprPair.parse("IR4xOR2"), GenerationConfig(backend=mock))
    elapsed = time.monotonic() - started
    for entry in manifest:
        assert hash_tree(entry.project_root) == before[entry.bug_id]
    [row] = aggregate(records, universe=len(manifest)).rows
    assert row.plausible == 8
    assert row.exact == 6
    assert row.ast >= 6
    assert row.pending == 2
    assert elapsed < 120.0, f"end-to-end run took {elapsed:.1f}s"


def test_criterion_08_metric_monotonicity(bench_fixture, diff_corpus):
    """exact <= ast <= semantic <= universe holds on produced aggregates
    (asserted inside aggregate()), exact implies ast at verdict level, and
    the embedded assertion rejects violating rows."""
    from repairkit.assess import AssessmentVerdict
    from repairkit.bench import AggregateRow

    manifest_path, mock, _ = bench_fixture
    manifest = load_manifest(manifest_path)
    records = run_benchmark(manifest, ReprPair.parse("IR4xOR2"), GenerationConfig(backend=mock))
    table = aggregate(records, universe=len(manifest))  # raises if violated
    for row in table.rows:
        assert row.exact <= row.ast <= row.semantic <= row.universe
        assert row.plausible <= row.universe
    for record in records:
        for verdict in record.verdicts:
            assert (not verdict.exact) or verdict.ast

    with pytest.raises(ValueError):
        AssessmentVerdict(0, True, "pass", exact=True, ast=False)
    with pytest.raises(AggregateInvariantError):
        AggregateRow("x", universe=1, plausible=0, exact=2, ast=1, semantic=1, pending=0).check()


def test_criterion_09_kappa_oracle():
    """A 10000-item rating table with observed agreement exactly 0.8441
    reproduces kappa = 0.69 +/- 0.01, cross-checked by hand."""
    # Confusion counts: both-correct, a-correct/b-incorrect,
    # a-incorrect/b-correct, both-incorrect.
    n_cc, n_ci, n_ic, n_ii = 4221, 1279, 280, 4220
    store = RatingStore()
    item = 0
    for count, (label_a, label_b) in (
        (n_cc, ("correct", "correct")),
        (n_ci, ("correct", "incorrect")),
        (n_ic, ("incorrect", "correct")),
        (n_ii, ("incorrect", "incorrect")),
    ):
        for _ in range(count):
            store.add(SemanticRating(f"bug{item}", 0, "a", label_a, timestamp=1.0))
            store.add(SemanticRating(f"bug{item}", 0, "b", label_b, timestamp=1.0))
            item += 1

    # Independent hand calculation from the confusion counts.
    n = n_cc + n_ci + n_ic + n_ii
    p_o = (n_cc + n_ii) / n
    a_correct = (n_cc + n_ci) / n
    b_correct = (n_cc + n_ic) / n
    p_e = a_correct * b_correct + (1 - a_correct) * (1 - b_correct)
    kappa_by_hand = (p_o - p_e) / (1 - p_e)

    result = cohen_kappa(store, "a", "b")
    assert result.items == 10000
    assert result.observed_agreement == pytest.approx(0.8441, abs=1e-12)
    assert result.kappa == pytest.approx(kappa_by_hand, abs=1e-12)
    assert abs(result.kappa - 0.69) <= 0.01


def test_criterion_10_training_config_golden(tmp_path, golden):
    """The exported hyperparameters match the golden file byte-for-byte."""
    rendered = render_training_config()
    assert rendered == golden("train_config.txt")
    expected = (
        "learning_rate = 5e-4\n"
        "schedule = cosine\n"
        "epochs = 2\n"
        "batch_size_per_device = 16\n"
        "optimizer = adam-w\n"
        "lora_rank = 8\n"
        "lora_alpha = 16\n"
        "lora_dropout = 0.05\n"
        "target_layers = q_proj,v_proj\n"
        "base_model = codellama-7b\n"
    )
    assert rendered == expected
