"""Diff-corpus ingestion and fine-tuning dataset construction.

Turns a corpus of before/after Java sources (either a directory of unified
diff files alongside `before/` and `after/` file trees, or bare file pairs)
into deduplicated, length-filtered training samples rendered in one
representation pair, plus a verbatim export of the training-job
hyperparameters. This module never runs training.
"""
from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from .config import DEFAULT_LEAKAGE_BUGS, CorpusFilterConfig, decode  # the first is re-exported
from .errors import (
    ConfigError,
    CorpusLayoutError,
    MixedPairDataset,
    ParseError,
    RegionMismatch,
    UnknownTokenizer,
)
from .jsonl import encode_row, read_rows
from .representations import (
    DEFAULT_MARKERS,
    Markers,
    Region,
    ReprPair,
    build_input,
    build_output,
    valid_pair,
)
from .syntax import SourceFile, SourceFunction, changed_functions
from .syntax.tokens import common_affixes
from .values import frozen

log = logging.getLogger(__name__)


@frozen
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


@frozen
class TrainingSample:
    id: str
    pair: ReprPair
    input: str
    output: str
    token_count: int


@frozen
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

    The span holds the buggy lines left between the longest common line
    prefix and, of what remains, the longest common suffix: the shortest
    region whose replacement turns `buggy` into `fixed`, and of the
    shortest, the one that starts last. Pure insertions yield an empty span
    at the insertion point.
    """
    if buggy.text == fixed.text:
        raise ValueError("functions are identical; no region to derive")
    lines = buggy.lines
    prefix, suffix = common_affixes(lines, fixed.lines)
    return Region(prefix + 1, len(lines) - suffix)


# --------------------------------------------------------------------------
# ingestion

@frozen
class _Unit:
    """One provenance unit: a diff identifier plus its file pairs.

    A side is None where the diff adds or deletes the file (`/dev/null`).
    """

    provenance: str
    files: tuple[tuple[str, Optional[Path], Optional[Path]], ...]  # (relpath, before, after)


# A header names its file up to a tab (git adds one after a name with a
# space, GNU diff one before the timestamp), or in C quotes, as git writes
# a name with a quote, a backslash, a control or a non-ASCII byte.
_DIFF_PATH_RE = re.compile(r'^(?:---|\+\+\+) (?:"((?:[^"\\]|\\.)*)"|([^\t]+))')
_C_ESCAPE_RE = re.compile(rb"\\([0-3][0-7]{2}|.)")
_C_ESCAPES = dict(zip(b'abtnvfr"\\', b'\a\b\t\n\v\f\r"\\'))
_DEV_NULL = "/dev/null"


def _header_path(match: re.Match) -> str:
    """The path a `---` or `+++` header names, unquoted and without its
    `a/` or `b/` prefix; octal escapes are the bytes of its UTF-8 text."""
    quoted, path = match.groups()
    if quoted is not None:
        path = _C_ESCAPE_RE.sub(_c_unescape, quoted.encode()).decode("utf-8", "replace")
    return path[2:] if path[:2] in ("a/", "b/") else path


def _c_unescape(match: re.Match) -> bytes:
    code = match[1]
    return bytes([int(code, 8) if len(code) == 3 else _C_ESCAPES.get(code[0], code[0])])


def _diff_layout_units(root: Path) -> list[_Unit]:
    units = []
    for diff_file in sorted(root.glob("*.diff")) + sorted(root.glob("*.patch")):
        sides: dict[str, tuple[bool, bool]] = {}  # relpath -> (in before, in after)
        old = None  # the path of the last `---` header
        # lines end at "\n" alone: a lone "\r" inside a context line starts no header
        for line in diff_file.read_bytes().decode("utf-8", "replace").split("\n"):
            m = _DIFF_PATH_RE.match(line.removesuffix("\r"))
            if m is None:
                continue
            path = _header_path(m)
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
    return [
        FunctionPair(
            id=f"{provenance}:{buggy.name}",
            buggy=buggy,
            fixed=fixed,
            region=derive_region(buggy, fixed),
            provenance=provenance,
        )
        for buggy, fixed in changed_functions(before, after) or ()
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

# A tokenizer CLI counts one sample in well under a second, its vocabulary
# load included; one still running after a minute is taken as hung.
TOKENIZER_TIMEOUT = 60.0


def count_tokens(text: str, tokenizer_id: str = "approximate") -> int:
    """Deterministic token count under the named tokenizer.

    "approximate" is the hermetic built-in: maximal runs of word
    characters, runs of whitespace, and single punctuation characters each
    count as one token. "external:<command>" gives the text to a command
    on its stdin and reads the count it prints on stdout; `assess._run`
    runs it, so nothing it starts outlives it. A command that is empty or
    does not split, cannot be started, exits non-zero, still runs after
    TOKENIZER_TIMEOUT seconds or prints no integer raises ConfigError. Any
    other id raises UnknownTokenizer.
    """
    if tokenizer_id == "approximate":
        return len(_APPROX_TOKEN_RE.findall(text))
    if tokenizer_id.startswith("external:"):
        import shlex

        from .assess import _output

        try:
            command = shlex.split(tokenizer_id[len("external:") :])
            if not command:
                raise ValueError("no command")
            return int(_output(command, TOKENIZER_TIMEOUT, text).strip())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"tokenizer {tokenizer_id!r}: {exc}") from None
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

    Output is deterministic: same samples in, byte-identical file out. When
    `out` is a regular file or does not exist, the rows go to a temporary
    file beside it, which replaces `out` after the last row, so a run that
    fails leaves `out` as it was. A symlink at `out` keeps pointing where it
    did, and that file is replaced. Any other `out` (`/dev/null`, a FIFO, a
    terminal) is written in place, since replacing it would put a regular
    file where the device or pipe was.
    """
    given = Path(out)
    if given.exists() and not given.is_file():
        with open(given, "w", encoding="utf-8", newline="\n") as fh:
            return _write_samples(samples, fh)
    out = given.resolve()
    temporary = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temporary, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(given)) from None
    try:
        with fh:
            count = _write_samples(samples, fh)
        os.replace(temporary, out)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return count


def _write_samples(samples: Iterable[TrainingSample], fh) -> int:
    count = 0
    for sample in samples:
        record = {**sample._asdict(), "pair": str(sample.pair)}
        fh.write(encode_row(record) + "\n")
        count += 1
    return count


def load_dataset(path: Path | str) -> list[TrainingSample]:
    """The samples of a dataset file. A line that is not a sample raises
    StoreError, which names the file and line."""
    return list(read_rows(path, _sample_of_row))


# A dataset row's fields and their JSON types; `pair` holds the pair's tag.
_SAMPLE_ROW = {"id": str, "pair": str, "input": str, "output": str, "token_count": int}


def _sample_of_row(row: dict) -> TrainingSample:
    fields = {name: decode(kind, row[name], name) for name, kind in _SAMPLE_ROW.items()}
    fields["pair"] = ReprPair.parse(fields["pair"])
    return TrainingSample(**fields)


def render_training_config(config: TrainingConfig = TrainingConfig()) -> str:
    """Flat key-value rendering of the training hyperparameters, a line a
    field in field order; the target layers are joined by commas."""
    return "".join(
        f"{key} = {','.join(value) if key == 'target_layers' else value}\n"
        for key, value in config._asdict().items()
    )


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
