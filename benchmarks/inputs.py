"""Seeded inputs and planted answers for the four benchmark workloads.

`plan(workload, root, seed, size)` writes every input file under `root` and
returns the batches the timed phase runs, each with the outcome planted for
it, plus a digest of every file written. Nothing here imports repairkit:
the answers come from how the inputs were built, never from the code under
test. With `write=False` nothing is written but the digest is the same, so
a second generation checks that a seed gives the same bytes.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from javagen import BODY, Method, filler_class, hunk, make_file, make_method

# Sizes per workload. "full" is what the benchmark measures; "tiny" is the
# smoke test's. Batches are the unit of timing: every batch of a workload
# has the same shape, so batch rates from different seeds are comparable.
SIZES = {
    "full": {
        "corpus_shards": 80,
        "offline_files": 75,
        "plausible_projects": 2,
        "plausible_batches": 60,
        "plausible_files": 200,
        "ratings_bugs": 1500,
        "ratings_per_batch": 600,
        "ratings_batches": 100,
    },
    # Enough batches for the traced set, one untraced batch and the warm-up.
    "tiny": {
        "corpus_shards": 6,
        "offline_files": 4,
        "plausible_projects": 2,
        "plausible_batches": 6,
        "plausible_files": 12,
        "ratings_bugs": 20,
        "ratings_per_batch": 12,
        "ratings_batches": 5,
    },
}

# Verdict tuples are (reconstructed, parse_ok, plausible, exact, ast).
EXACT = (True, True, "pass", True, True)
AST_ONLY = (True, True, "not-run", False, True)
PARSES = (True, True, "not-run", False, False)
UNPARSABLE = (True, False, "not-run", False, False)
NO_RECONSTRUCTION = (False, False, "not-run", False, False)
# With tests run: exact matches pass without running them.
PASSES = (True, True, "pass", False, False)
PASSES_AST = (True, True, "pass", False, True)
FAILS = (True, True, "fail", False, False)


class Output:
    """Writes input files under `root`, hashing each path and text in order."""

    def __init__(self, root: Path, to_disk: bool = True):
        self.root = root
        self.to_disk = to_disk
        self._digest = hashlib.sha256()

    def write(self, path: Path, text: str) -> None:
        self._digest.update(f"{path.relative_to(self.root).as_posix()}\0{text}\0".encode())
        if not self.to_disk:
            return
        try:
            path.write_text(text, encoding="utf-8", newline="\n")
        except FileNotFoundError:
            path.parent.mkdir(parents=True)
            path.write_text(text, encoding="utf-8", newline="\n")

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


# --------------------------------------------------------------------------
# dataset-corpus: diff-layout shards with planted drop reasons

# One shard's units in file order. Every shard has the same mix, so the
# planted pipeline counters are the same for every shard.
UNIT_KINDS = (
    "clean", "clean", "multi", "clean", "unparsable", "clean",
    "leak", "dup", "clean", "overlong", "multifile", "clean",
)
SHARD_STATS = {
    "units": 12,
    "parse_failures": 1,  # unparsable
    "not_single_function": 2,  # multi, multifile
    "ingested": 9,
    "duplicates": 1,  # dup
    "excluded": 1,  # leak
    "region_mismatch": 0,
    "over_length": 1,  # overlong
    "emitted": 6,  # the clean units
}


@dataclass
class CorpusShard:
    root: Path
    denylist: Path
    stats: dict
    samples: list[dict]  # planted emitted records: id, input, output

    @property
    def items(self) -> int:
        return self.stats["units"]


def _file_diff(rel: str, changed: list[Method]) -> str:
    head = f"diff --git a/{rel} b/{rel}\n--- a/{rel}\n+++ b/{rel}\n"
    return head + "".join(hunk(m, m.fixed_line, m.start_line - 1) for m in changed)


def _corpus_shard(out: Output, root: Path, rng: random.Random, shard: int) -> CorpusShard:
    samples: list[dict] = []
    clean_files: list[tuple[str, str, str, str]] = []
    denylist: dict[str, str] = {}
    for idx, kind in enumerate(UNIT_KINDS):
        unit = f"u{idx:02d}"
        rel_a, rel_b = f"src/{unit}/A{idx}.java", f"src/{unit}/B{idx}.java"
        if kind == "dup":
            before_a, after_a, before_b, after_b = rng.choice(clean_files)
            diff = f"--- a/{rel_a}\n+++ b/{rel_a}\n--- a/{rel_b}\n+++ b/{rel_b}\n"
        else:
            tag = f"{shard}_{idx}"
            lengths = [rng.randint(20, 26) for _ in range(7)]
            if kind == "overlong":
                lengths = [110, rng.randint(20, 26), rng.randint(20, 26)]
            file_a = make_file(
                f"bench.s{shard}.{unit}", f"A{idx}",
                [make_method(rng, f"{tag}a{k}", n) for k, n in enumerate(lengths)], rng,
            )
            file_b = make_file(
                f"bench.s{shard}.{unit}", f"B{idx}",
                [make_method(rng, f"{tag}b{k}", rng.randint(20, 26)) for k in range(7)],
                rng,
            )
            picks = rng.sample(range(len(file_a.methods)), 2)
            changed_a = [file_a.methods[0 if kind == "overlong" else picks[0]]]
            changed_b: list[Method] = []
            if kind == "multi":
                changed_a.append(file_a.methods[picks[1]])
            if kind == "multifile":
                changed_b = [rng.choice(file_b.methods)]
            before_a = file_a.text
            if kind == "unparsable":
                target = changed_a[0]
                lines = file_a.lines
                index = target.start_line + target.bug - 2
                lines[index] += ' String broken = "unterminated;'
                before_a = "\n".join(lines) + "\n"
            after_a = file_a.with_fixed(*(m.name for m in changed_a))
            before_b = file_b.text
            after_b = file_b.with_fixed(*(m.name for m in changed_b))
            diff = _file_diff(rel_a, changed_a) + _file_diff(rel_b, changed_b)
            if kind == "clean":
                clean_files.append((before_a, after_a, before_b, after_b))
                method = changed_a[0]
                samples.append(
                    {
                        "id": f"{unit}:{method.name}",
                        "input": method.text,
                        "output": hunk(method, method.fixed_line),
                    }
                )
            if kind == "leak":
                denylist[f"Leak-{shard}"] = changed_a[0].fixed_text
        out.write(root / f"{unit}.diff", diff)
        out.write(root / "before" / rel_a, before_a)
        out.write(root / "after" / rel_a, after_a)
        out.write(root / "before" / rel_b, before_b)
        out.write(root / "after" / rel_b, after_b)
    deny_path = root.parent / f"{root.name}.denylist.json"
    out.write(deny_path, json.dumps(denylist, sort_keys=True))
    return CorpusShard(root, deny_path, dict(SHARD_STATS), samples)


def corpus_plan(out: Output, seed: int, size: str) -> list[CorpusShard]:
    rng = random.Random(f"{seed}:dataset-corpus")
    return [
        _corpus_shard(out, out.root / f"shard{s:03d}", rng, s)
        for s in range(SIZES[size]["corpus_shards"])
    ]


# --------------------------------------------------------------------------
# repair workloads: bugs in generated files, candidates with planted tiers


@dataclass
class Bug:
    bug_id: str
    project_root: Path
    file: str
    method: Method
    test_command: str = "true"
    # pair tag -> ranked (raw output, planted verdict tuple)
    candidates: dict[str, list[tuple[str, tuple]]] = field(default_factory=dict)

    def manifest_entry(self) -> dict:
        m = self.method
        return {
            "bug_id": self.bug_id,
            "project_root": str(self.project_root),
            "file": self.file,
            "function_span": [m.start_line, m.end_line],
            "region": [m.bug, m.bug],
            "reference": m.fixed_text,
            "test_command": self.test_command,
        }


@dataclass
class RepairBatch:
    bugs: list[Bug]
    pairs: tuple[str, ...]
    manifest: Path

    @property
    def items(self) -> int:
        return len(self.bugs) * len(self.pairs)


def _ranked(rng: random.Random, candidates: list[tuple[str, tuple]]) -> list[tuple[str, tuple]]:
    rng.shuffle(candidates)
    return candidates


def _chunk_candidates(m: Method) -> list[tuple[str, tuple]]:
    """Ten IR4xOR2 outputs: replacement lines for the one-line region."""
    var, src, const = m.bug_terms
    return [
        (m.fixed_line, EXACT),
        (m.fixed_line + "</s>\n        int junk;", EXACT),  # cut at the stop token
        (f"{BODY}int {var}={src}-{const} ;", AST_ONLY),  # reformatted
        (f"    int  {var} =  {src} - {const};", AST_ONLY),  # re-indented
        (m.fixed_line + " // fixed", AST_ONLY),  # line comment
        (f"{BODY}/* fix */ int {var} = {src} - {const};", AST_ONLY),  # block comment
        (f"{BODY}int {var} = {src} * {const};", PARSES),  # wrong operator
        (f"{BODY}int {var} = {src} - {int(const) + 1};", PARSES),  # wrong constant
        (m.fixed_line + ' String bad = "oops;', UNPARSABLE),
        ("", PARSES),  # deletes the region line
    ]


def _diff_candidates(m: Method) -> list[tuple[str, tuple]]:
    """Ten IR1xOR3 outputs: unified diffs against the buggy method."""
    var, src, const = m.bug_terms
    exact = hunk(m, m.fixed_line)
    lines = exact.split("\n")
    hunk_missing = "\n".join(lines[:1] + [" " + BODY + "int absent = 0;"] + lines[2:])
    bad_counts = exact.replace(",7 +", ",9 +", 1).replace(",7 @@", ",9 @@", 1)
    return [
        (exact, EXACT),
        (f"--- a/{m.name}.java\n+++ b/{m.name}.java\n{exact}</s>", EXACT),
        (hunk(m, m.fixed_line, offset=2), EXACT),  # stated lines off by two
        (hunk(m, f"{BODY}int {var}={src}-{const};"), AST_ONLY),
        (hunk(m, m.fixed_line + " /* fixed */"), AST_ONLY),
        (hunk(m, f"{BODY}int {var} = {src} * {const};"), PARSES),
        (hunk(m, m.fixed_line + ' char c = \'x;'), UNPARSABLE),
        (hunk_missing, NO_RECONSTRUCTION),  # context matches nowhere
        (bad_counts, NO_RECONSTRUCTION),  # header counts exceed the body
        ("", PARSES),  # no hunks: the buggy method comes back
    ]


OFFLINE_PAIRS = ("IR4xOR2", "IR1xOR3")
# Method-length strata. A batch takes a short and a long bug, or two middle
# ones, so every batch holds about 100 method lines.
OFFLINE_STRATA = ((20, 34), (65, 80), (35, 49), (50, 64))


def offline_plan(out: Output, seed: int, size: str) -> list[RepairBatch]:
    """Files of 1-3k lines, each holding one bug per stratum: two batches."""
    rng = random.Random(f"{seed}:repair-offline")
    root = out.root
    batches = []
    for f in range(SIZES[size]["offline_files"]):
        target = rng.randint(1000, 3000)
        methods = [
            make_method(rng, f"{f}_{k}", rng.randint(lo, hi))
            for k, (lo, hi) in enumerate(OFFLINE_STRATA)
        ]
        bug_names = [m.name for m in methods]
        total = sum(len(m.lines) + 1 for m in methods)
        while total < target:
            filler = make_method(rng, f"{f}_{len(methods)}", rng.randint(20, 80))
            methods.append(filler)
            total += len(filler.lines) + 1
        rng.shuffle(methods)
        rel = f"src/bench/off{f}/Off{f}.java"
        java = make_file(f"bench.off{f}", f"Off{f}", methods, rng)
        out.write(root / rel, java.text)
        placed = {m.name: m for m in java.methods}
        for half in (bug_names[:2], bug_names[2:]):
            bugs = []
            for name in half:
                m = placed[name]
                bug = Bug(f"off-{f:03d}-{m.name}", root, rel, m)
                bug.candidates["IR4xOR2"] = _ranked(rng, _chunk_candidates(m))
                bug.candidates["IR1xOR3"] = _ranked(rng, _diff_candidates(m))
                bugs.append(bug)
            manifest = root / f"manifest{len(batches):03d}.json"
            out.write(manifest, json.dumps([bug.manifest_entry() for bug in bugs], indent=1))
            batches.append(RepairBatch(bugs, OFFLINE_PAIRS, manifest))
    return batches


def plausible_plan(out: Output, seed: int, size: str) -> list[RepairBatch]:
    """Projects of a few hundred files; each batch takes one bug per project.

    The test command passes iff the fixed statement is in the target file,
    spacing aside, so a candidate costs harness work, not a compiler.
    """
    rng = random.Random(f"{seed}:repair-plausible")
    root = out.root
    sizes = SIZES[size]
    n_batches = sizes["plausible_batches"]
    projects = []
    for j in range(sizes["plausible_projects"]):
        project = root / f"project{j}"
        for f in range(sizes["plausible_files"] - 1):
            package = f"bench.p{j}.d{f % 10}"
            out.write(
                project / "src" / "main" / "java" / "bench" / f"p{j}" / f"d{f % 10}" / f"F{f}.java",
                filler_class(rng, package, f"F{f}"),
            )
        rel = f"src/main/java/bench/target/T{j}.java"
        methods = [make_method(rng, f"{j}_{b}", rng.randint(20, 30)) for b in range(n_batches)]
        java = make_file("bench.target", f"T{j}", methods, rng)
        out.write(project / rel, java.text)
        projects.append((project, rel, java))
    batches = []
    for b in range(n_batches):
        bugs = []
        for project, rel, java in projects:
            m = java.methods[b]
            var, src, const = m.bug_terms
            pattern = f"int +{var} *= *{src} *- *{const} *;"
            bug = Bug(f"pl-{b:03d}-{m.name}", project, rel, m, f"grep -Eq '{pattern}' {rel}")
            bug.candidates["IR4xOR2"] = _ranked(
                rng,
                [
                    (m.fixed_line, EXACT),
                    # passes the test, but is not the reference fix
                    (m.fixed_line + f"\n{BODY}count = count + {b};", PASSES),
                    # a token-equal pair: tested twice today
                    (f"{BODY}int {var}={src}-{const};", PASSES_AST),
                    (m.fixed_line + " // checked", PASSES_AST),
                    (f"{BODY}int {var} = {src} * {const};", FAILS),
                ],
            )
            bugs.append(bug)
        manifest = root / f"manifest{b:03d}.json"
        out.write(manifest, json.dumps([bug.manifest_entry() for bug in bugs], indent=1))
        batches.append(RepairBatch(bugs, ("IR4xOR2",), manifest))
    return batches


# --------------------------------------------------------------------------
# ratings-report: one record store, a fresh round of planted ratings per batch

VERDICT_KINDS = {
    # kind: (parse_ok, plausible, exact, ast, reconstructed)
    "exact": (True, "pass", True, True, True),
    "ast": (True, "pass", False, True, True),
    "plausible": (True, "pass", False, False, True),
    "fail": (True, "fail", False, False, True),
    "broken": (False, "not-run", False, False, False),
}
RATINGS_PAIRS = ("IR4xOR2", "IR1xOR3")
COLUMNS = ("universe", "plausible", "exact", "ast", "semantic", "pending")


@dataclass
class RatingsBatch:
    records: Path
    ratings: Path  # written by the timed phase; absent until then
    first_a: list[tuple[str, int, str]]
    first_b: list[tuple[str, int, str]]
    tiebreaks: list[tuple[str, int, str]]
    kappa: float
    table: dict[str, dict[str, int]]  # pair -> planted aggregate row
    curve: list[int]  # planted exact-match top-k curve

    @property
    def items(self) -> int:
        return len(self.first_a)


def _kappa(pairs: list[tuple[str, str]]) -> float:
    n = len(pairs)
    observed = sum(a == b for a, b in pairs) / n
    expected = sum(
        (sum(a == label for a, _ in pairs) / n) * (sum(b == label for _, b in pairs) / n)
        for label in ("correct", "incorrect")
    )
    return (observed - expected) / (1.0 - expected)


def _record(bug_id: str, pair: str, kinds: list[str]) -> str:
    candidates, verdicts = [], []
    for rank, kind in enumerate(kinds):
        parse_ok, plausible, exact, ast, rebuilt = VERDICT_KINDS[kind]
        raw = f"{BODY}int r{rank} = {rank}; // {bug_id}"
        candidates.append(
            {
                "rank": rank,
                "raw_output": raw,
                "reconstructed": raw if rebuilt else None,
                "reconstruct_error": None if rebuilt else "MalformedOutput: planted",
            }
        )
        verdicts.append(
            {"rank": rank, "parse_ok": parse_ok, "plausible": plausible,
             "exact": exact, "ast": ast, "semantic": "unlabeled"}
        )
    return json.dumps(
        {
            "bug_id": bug_id,
            "pair": pair,
            "prompt": f"{BODY}// prompt for {bug_id}",
            "candidates": candidates,
            "verdicts": verdicts,
            "timings": {"generate_s": 0.01, "assess_s": 0.02},
            "error": None,
        },
        sort_keys=True,
    )


def _semantic_pending(kinds: list[str], labels: list) -> tuple[bool, bool]:
    """A bug's semantic and pending cells, given its candidates' resolved labels."""
    tiers = [VERDICT_KINDS[k] for k in kinds]
    semantic = any(v[3] or label == "correct" for v, label in zip(tiers, labels))
    pending = not semantic and any(
        v[1] == "pass" and not v[3] and label is None for v, label in zip(tiers, labels)
    )
    return semantic, pending


def _table(bugs: list[tuple[str, str, list[str]]]) -> dict:
    """The aggregate of the record store with no ratings applied."""
    table = {pair: dict.fromkeys(COLUMNS, 0) for pair in RATINGS_PAIRS}
    for _bug_id, pair, kinds in bugs:
        tiers = [VERDICT_KINDS[k] for k in kinds]
        semantic, pending = _semantic_pending(kinds, [None] * len(kinds))
        row = table[pair]
        row["universe"] += 1
        row["plausible"] += any(v[1] == "pass" for v in tiers)
        row["exact"] += any(v[2] for v in tiers)
        row["ast"] += any(v[3] for v in tiers)
        row["semantic"] += semantic
        row["pending"] += pending
    return table


def ratings_plan(out: Output, seed: int, size: str) -> list[RatingsBatch]:
    """One record store; each batch rates the next slice of its candidates."""
    rng = random.Random(f"{seed}:ratings-report")
    root = out.root
    sizes = SIZES[size]
    bugs = [
        (f"rt-{i:05d}", RATINGS_PAIRS[i % 2], rng.choices(list(VERDICT_KINDS), (1, 1, 3, 3, 2), k=2))
        for i in range(sizes["ratings_bugs"])
    ]
    records = root / "records.jsonl"
    out.write(records, "".join(_record(*bug) + "\n" for bug in bugs))
    curve = [0] * 10
    for _, _, kinds in bugs:
        if "exact" in kinds:
            for k in range(kinds.index("exact"), 10):
                curve[k] += 1
    candidates = [(bug_id, rank, kind) for bug_id, _, kinds in bugs for rank, kind in enumerate(kinds)]
    unrated = _table(bugs)
    by_id = {bug_id: (pair, kinds) for bug_id, pair, kinds in bugs}
    per_batch = sizes["ratings_per_batch"]
    batches = []
    for b in range(sizes["ratings_batches"]):
        start = b * per_batch % len(candidates)
        chosen = (candidates + candidates)[start : start + per_batch]
        first_a, first_b, tiebreaks, labels = [], [], [], {}
        for bug_id, rank, kind in chosen:
            a = "correct" if kind == "exact" else rng.choice(("correct", "incorrect"))
            other = "incorrect" if a == "correct" else "correct"
            second = a if kind == "exact" or rng.random() < 0.75 else other
            first_a.append((bug_id, rank, a))
            first_b.append((bug_id, rank, second))
            labels[(bug_id, rank)] = a
            if a != second:
                labels[(bug_id, rank)] = rng.choice((a, second))
                tiebreaks.append((bug_id, rank, labels[(bug_id, rank)]))
        # Only the bugs rated in this batch move off the unrated table.
        table = {pair: dict(row) for pair, row in unrated.items()}
        for bug_id in {bug_id for bug_id, _, _ in chosen}:
            pair, kinds = by_id[bug_id]
            before = _semantic_pending(kinds, [None] * len(kinds))
            after = _semantic_pending(kinds, [labels.get((bug_id, r)) for r in range(len(kinds))])
            for column, old, new in zip(("semantic", "pending"), before, after):
                table[pair][column] += new - old
        batches.append(
            RatingsBatch(
                records, root / f"ratings{b:03d}.jsonl", first_a, first_b, tiebreaks,
                _kappa([(x[2], y[2]) for x, y in zip(first_a, first_b)]), table, curve,
            )
        )
    return batches


PLANNERS = {
    "dataset-corpus": corpus_plan,
    "repair-offline": offline_plan,
    "repair-plausible": plausible_plan,
    "ratings-report": ratings_plan,
}


def plan(workload: str, root: Path, seed: int, size: str = "full", write: bool = True):
    """Write the workload's inputs under `root`: (planted batches, digest)."""
    out = Output(root, to_disk=write)
    return PLANNERS[workload](out, seed, size), out.hexdigest()
