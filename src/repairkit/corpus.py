"""Diff-corpus ingestion and fine-tuning dataset construction.

Turns a corpus of before/after Java sources (either a directory of unified
diff files alongside `before/` and `after/` file trees, or bare file pairs)
into deduplicated, length-filtered training samples rendered in one
representation pair, plus a verbatim export of the training-job
hyperparameters. This module never runs training.
"""
from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from .config import DEFAULT_LEAKAGE_BUGS, CorpusFilterConfig  # the first is re-exported
from .errors import (
    CorpusLayoutError,
    MixedPairDataset,
    ParseError,
    RegionMismatch,
    UnknownTokenizer,
)
from .representations import (
    DEFAULT_MARKERS,
    Markers,
    Region,
    ReprPair,
    build_input,
    build_output,
    valid_pair,
)
from .syntax import SourceFile, SourceFunction, extract_functions_of_edit

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FunctionPair:
    """A buggy function and its fixed counterpart from one source diff."""

    id: str
    buggy: SourceFunction
    fixed: SourceFunction
    region: Region
    provenance: str

    def __post_init__(self):
        if self.buggy.text == self.fixed.text:
            raise ValueError("buggy and fixed texts are identical")


@dataclass(frozen=True)
class TrainingSample:
    id: str
    pair: ReprPair
    input: str
    output: str
    token_count: int


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of the fine-tuning job, exported verbatim."""

    learning_rate: str = "5e-4"
    schedule: str = "cosine"
    epochs: int = 2
    batch_size_per_device: int = 16
    optimizer: str = "adam-w"
    lora_rank: int = 8
    lora_alpha: int = 16
    lora_dropout: float = 0.05
    target_layers: tuple[str, ...] = ("q_proj", "v_proj")
    base_model: str = "codellama-7b"


@dataclass
class PipelineStats:
    """Counters filled in by the ingest/dedupe/filter/render stages."""

    units: int = 0
    parse_failures: int = 0
    not_single_function: int = 0
    ingested: int = 0
    duplicates: int = 0
    excluded: int = 0
    region_mismatch: int = 0
    over_length: int = 0
    emitted: int = 0


# --------------------------------------------------------------------------
# region derivation

def derive_region(buggy: SourceFunction, fixed: SourceFunction) -> Region:
    """Minimal contiguous buggy-side span covering every changed line.

    Pure insertions yield an empty span at the insertion point. This is the
    only region consistent with expressing the fix as a chunk replacement.
    """
    if buggy.text == fixed.text:
        raise ValueError("functions are identical; no region to derive")
    matcher = SequenceMatcher(None, buggy.lines, fixed.lines, autojunk=False)
    starts: list[int] = []
    ends: list[int] = []
    for tag, i1, i2, _j1, _j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        starts.append(i1 + 1)
        ends.append(i1 if tag == "insert" else i2)
    return Region(min(starts), max(ends))


# --------------------------------------------------------------------------
# ingestion

@dataclass(frozen=True)
class _Unit:
    """One provenance unit: a diff identifier plus its file pairs.

    A side is None where the diff adds or deletes the file (`/dev/null`).
    """

    provenance: str
    files: tuple[tuple[str, Optional[Path], Optional[Path]], ...]  # (relpath, before, after)


_DIFF_PATH_RE = re.compile(r"^(?:---|\+\+\+) (?:[ab]/)?(\S+)")
_DEV_NULL = "/dev/null"


def _diff_layout_units(root: Path) -> list[_Unit]:
    units = []
    for diff_file in sorted(root.glob("*.diff")) + sorted(root.glob("*.patch")):
        sides: dict[str, tuple[bool, bool]] = {}  # relpath -> (in before, in after)
        old = None  # the path of the last `---` header
        for line in diff_file.read_text(encoding="utf-8", errors="replace").splitlines():
            m = _DIFF_PATH_RE.match(line)
            if m is None:
                continue
            path = m.group(1)
            if line[0] == "-":
                old = path
                if path != _DEV_NULL:
                    sides.setdefault(path, (True, True))
            elif path == _DEV_NULL:
                if old not in (None, _DEV_NULL):
                    sides[old] = (True, False)  # deleted
            elif old == _DEV_NULL:
                sides[path] = (False, True)  # added
            else:
                sides.setdefault(path, (True, True))
        files = tuple(
            (
                rel,
                root / "before" / rel if in_before else None,
                root / "after" / rel if in_after else None,
            )
            for rel, (in_before, in_after) in sides.items()
        )
        units.append(_Unit(diff_file.stem, files))
    return units


def _tree_layout_units(root: Path) -> list[_Unit]:
    before_root = root / "before"
    after_root = root / "after"
    units = []
    for before in sorted(p for p in before_root.rglob("*") if p.is_file()):
        rel = before.relative_to(before_root).as_posix()
        after = after_root / rel
        if after.is_file():
            units.append(_Unit(rel, ((rel, before, after),)))
    return units


def _suffix_layout_units(root: Path) -> list[_Unit]:
    units = []
    for before in sorted(root.rglob("*_before.*")):
        stem = before.name.replace("_before.", "_after.")
        after = before.with_name(stem)
        if after.is_file():
            rel = before.relative_to(root).as_posix()
            units.append(_Unit(rel.replace("_before.", "."), ((rel, before, after),)))
    return units


def _detect_units(root: Path) -> list[_Unit]:
    if any(root.glob("*.diff")) or any(root.glob("*.patch")):
        return _diff_layout_units(root)
    if (root / "before").is_dir() and (root / "after").is_dir():
        return _tree_layout_units(root)
    if any(root.rglob("*_before.*")):
        return _suffix_layout_units(root)
    raise CorpusLayoutError(
        f"{root}: expected *.diff files with before/after trees, "
        "before/ and after/ directories, or *_before.*/*_after.* pairs"
    )


def function_pairs_from_files(
    before: SourceFile, after: SourceFile, provenance: str
) -> list[FunctionPair]:
    """The function pairs changed between two versions of one file.

    A pair is emitted per changed function; callers enforce the
    single-function policy across a whole provenance unit. Changes outside
    any function, or function additions/removals, yield no pairs.
    """
    if before.content == after.content:
        return []
    before_fns, after_fns = extract_functions_of_edit(before, after)
    if len(before_fns) != len(after_fns):
        return []
    changed = [
        i for i in range(len(before_fns)) if before_fns[i].text != after_fns[i].text
    ]
    if len(changed) == 1:
        # The fix must be confined to the one function: replacing its lines
        # inside the before file has to reproduce the after file exactly.
        buggy, fixed = before_fns[changed[0]], after_fns[changed[0]]
        spliced = (
            before.lines[: buggy.start_line - 1]
            + fixed.lines
            + before.lines[buggy.end_line :]
        )
        if "\n".join(spliced) != after.content:
            return []
    return [
        FunctionPair(
            id=f"{provenance}:{before_fns[i].name}",
            buggy=before_fns[i],
            fixed=after_fns[i],
            region=derive_region(before_fns[i], after_fns[i]),
            provenance=provenance,
        )
        for i in changed
    ]


def ingest_diff_corpus(
    root: Path | str, stats: Optional[PipelineStats] = None
) -> Iterator[FunctionPair]:
    """Yield function pairs whose diff changes exactly one function.

    Per-unit parse failures are logged and skipped, never fatal. The corpus
    layout (diff files plus trees, or bare before/after pairs) is detected
    automatically.
    """
    stats = stats if stats is not None else PipelineStats()
    root = Path(root)
    for unit in _detect_units(root):
        stats.units += 1
        try:
            pairs: list[FunctionPair] = []
            tainted = False
            for rel, before_path, after_path in unit.files:
                if before_path is None or after_path is None:
                    # An added or deleted file is a change outside any
                    # function; its missing side is never read.
                    tainted = True
                    continue
                before = SourceFile(rel, before_path.read_text(encoding="utf-8"))
                after = SourceFile(rel, after_path.read_text(encoding="utf-8"))
                file_pairs = function_pairs_from_files(before, after, unit.provenance)
                # A file that changed without yielding a confined function
                # pair carries out-of-function edits; the whole diff is then
                # not a single-function change.
                if before.content != after.content and not file_pairs:
                    tainted = True
                pairs.extend(file_pairs)
        except (ParseError, OSError, UnicodeDecodeError) as exc:
            stats.parse_failures += 1
            log.warning("skipping %s: %s", unit.provenance, exc)
            continue
        if tainted or len(pairs) != 1:
            stats.not_single_function += 1
            continue
        stats.ingested += 1
        yield pairs[0]


# --------------------------------------------------------------------------
# filtering

def _trim_trailing(text: str) -> str:
    return "\n".join(line.rstrip() for line in text.split("\n")).rstrip()


def dedupe(
    pairs: Iterable[FunctionPair], stats: Optional[PipelineStats] = None
) -> Iterator[FunctionPair]:
    """Drop textual duplicates, keeping first occurrences in order.

    Two pairs are duplicates when their (buggy, fixed) texts match after
    per-line trailing-whitespace trimming; provenance is ignored.
    """
    seen: set[tuple[str, str]] = set()
    for pair in pairs:
        key = (_trim_trailing(pair.buggy.text), _trim_trailing(pair.fixed.text))
        if key in seen:
            if stats is not None:
                stats.duplicates += 1
            continue
        seen.add(key)
        yield pair


def exclude_leakage(
    pairs: Iterable[FunctionPair],
    denylist: Mapping[str, str],
    stats: Optional[PipelineStats] = None,
) -> Iterator[FunctionPair]:
    """Remove pairs whose fixed text contains a denylisted patch function.

    `denylist` maps benchmark bug ids to the known text of their patched
    function. Removals are logged with the matching bug id.
    """
    normalized = {bug: _trim_trailing(text) for bug, text in denylist.items()}
    for pair in pairs:
        haystack = _trim_trailing(pair.fixed.text)
        hit = next((bug for bug, text in normalized.items() if text and text in haystack), None)
        if hit is not None:
            if stats is not None:
                stats.excluded += 1
            log.info("excluding %s: matches %s", pair.id, hit)
            continue
        yield pair


# --------------------------------------------------------------------------
# tokenizers

_APPROX_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|\s+|[^\sA-Za-z0-9_]")


def count_tokens(text: str, tokenizer_id: str = "approximate") -> int:
    """Deterministic token count under the named tokenizer.

    "approximate" is the hermetic built-in: maximal runs of word
    characters, runs of whitespace, and single punctuation characters each
    count as one token. "external:<command>" pipes the text to a command
    that prints a count. Any other id raises UnknownTokenizer.
    """
    if tokenizer_id == "approximate":
        return len(_APPROX_TOKEN_RE.findall(text))
    if tokenizer_id.startswith("external:"):
        import shlex
        import subprocess

        command = tokenizer_id[len("external:") :]
        result = subprocess.run(
            shlex.split(command),
            input=text,
            capture_output=True,
            text=True,
            check=True,
        )
        return int(result.stdout.strip())
    raise UnknownTokenizer(tokenizer_id)


# --------------------------------------------------------------------------
# dataset rendering and emission

def build_dataset(
    pairs: Iterable[FunctionPair],
    pair_kind: ReprPair,
    filter_config: CorpusFilterConfig = CorpusFilterConfig(),
    markers: Markers = DEFAULT_MARKERS,
    stats: Optional[PipelineStats] = None,
) -> Iterator[TrainingSample]:
    """Render pairs into training samples, dropping over-length ones.

    Samples whose fix extends outside the derived region (impossible under
    derive_region, but possible with caller-supplied regions) are skipped
    and counted, as are samples at or over the length cap.
    """
    if not valid_pair(pair_kind):
        raise ValueError(f"invalid representation pair: {pair_kind}")
    for fp in pairs:
        try:
            input_text = build_input(fp.buggy, fp.region, pair_kind.input, markers)
            output_text = build_output(fp.buggy, fp.fixed, fp.region, pair_kind.output)
        except RegionMismatch:
            if stats is not None:
                stats.region_mismatch += 1
            continue
        tokens = count_tokens(input_text, filter_config.tokenizer) + count_tokens(
            output_text, filter_config.tokenizer
        )
        if tokens >= filter_config.max_length:
            if stats is not None:
                stats.over_length += 1
            continue
        if stats is not None:
            stats.emitted += 1
        yield TrainingSample(fp.id, pair_kind, input_text, output_text, tokens)


def emit_dataset(samples: Iterable[TrainingSample], out: Path | str) -> int:
    """Write one JSON record per line; returns the number written.

    Output is deterministic: same samples in, byte-identical file out.
    """
    count = 0
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for sample in samples:
            record = {
                "id": sample.id,
                "pair": str(sample.pair),
                "input": sample.input,
                "output": sample.output,
                "token_count": sample.token_count,
            }
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
            count += 1
    return count


def load_dataset(path: Path | str) -> list[TrainingSample]:
    samples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            samples.append(
                TrainingSample(
                    rec["id"],
                    ReprPair.parse(rec["pair"]),
                    rec["input"],
                    rec["output"],
                    rec["token_count"],
                )
            )
    return samples


def render_training_config(config: TrainingConfig = TrainingConfig()) -> str:
    """Flat key-value rendering of the training hyperparameters."""
    rows = [
        ("learning_rate", config.learning_rate),
        ("schedule", config.schedule),
        ("epochs", config.epochs),
        ("batch_size_per_device", config.batch_size_per_device),
        ("optimizer", config.optimizer),
        ("lora_rank", config.lora_rank),
        ("lora_alpha", config.lora_alpha),
        ("lora_dropout", config.lora_dropout),
        ("target_layers", ",".join(config.target_layers)),
        ("base_model", config.base_model),
    ]
    return "".join(f"{key} = {value}\n" for key, value in rows)


def export_training_config(
    out: Path | str,
    config: TrainingConfig = TrainingConfig(),
    dataset: Optional[Path | str] = None,
) -> None:
    """Write the training configuration, optionally validating a dataset.

    When a dataset path is given, every record must carry the same
    representation pair tag; mixed files are rejected.
    """
    if dataset is not None:
        tags = {str(s.pair) for s in load_dataset(dataset)}
        if len(tags) > 1:
            raise MixedPairDataset(
                f"dataset {dataset} mixes representation pairs: {sorted(tags)}"
            )
    Path(out).write_text(render_training_config(config), encoding="utf-8")
