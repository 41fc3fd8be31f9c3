"""Command-line entry point for the repair toolkit.

Subcommands cover the whole pipeline: `dataset` builds fine-tuning data
from a diff corpus, `show` renders a representation for inspection,
`repair` runs a benchmark manifest against a backend, `report` re-renders
aggregates from a record store, `rate`/`kappa` manage semantic ratings,
and `export-train-config` writes the training hyperparameters.

Exit status is 0 unless a fatal error occurs; per-bug failures during a
repair run are reported in the output without failing the command.

Importing this module loads only `repairkit`, `config` and `errors`: each
subcommand handler, and each argument type that needs one, imports the
modules it runs, so a call pays only for the subcommand it makes.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import PROFILES, REPORT_FORMATS, load_tool_config
from .errors import RepairKitError

if TYPE_CHECKING:
    from .representations import Region, ReprPair


def _pair_argument(value: str) -> ReprPair:
    from .representations import ALL_PAIRS, ReprPair, valid_pair

    try:
        pair = ReprPair.parse(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a representation pair tag (like IR4xOR2)"
        )
    if not valid_pair(pair):
        valid = ", ".join(str(p) for p in sorted(ALL_PAIRS, key=str) if valid_pair(p))
        raise argparse.ArgumentTypeError(
            f"{pair} is not a usable pairing; the valid pairs are: {valid}"
        )
    return pair


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a positive integer")
    return number


def _region_argument(value: str) -> Region:
    from .representations import Region

    try:
        start, end = value.split(":")
        return Region(int(start), int(end))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a region (expected START:END, e.g. 3:5)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairkit",
        description=(
            "Program-repair pipeline toolkit: fault-localization-aware code "
            "representations, fine-tuning dataset construction, candidate "
            "generation against a pluggable backend, and four-tier patch "
            "assessment."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repairkit {__version__}")
    parser.add_argument("--config", help="path to the JSON configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="build a fine-tuning dataset from a diff corpus")
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.add_argument("--pair", required=True, type=_pair_argument, help="representation pair, e.g. IR4xOR2")
    p.add_argument("--out", required=True, help="output dataset file (JSONL)")
    p.add_argument("--max-length", type=_positive_int, help="token cap on input+output")
    p.add_argument("--tokenizer", help="tokenizer id (default: approximate)")
    p.add_argument("--denylist", help="JSON file mapping bug ids to patched function text")

    p = sub.add_parser("show", help="render an input or output representation")
    p.add_argument("--file", required=True, help="source file containing the function")
    p.add_argument("--function", required=True, help="function name to render")
    p.add_argument("--kind", required=True, help="IR1..IR4 or OR1..OR4")
    p.add_argument("--region", type=_region_argument, help="function-relative region START:END")
    p.add_argument("--fixed-file", help="fixed source file (required for OR kinds)")

    p = sub.add_parser("repair", help="run a benchmark manifest end to end")
    p.add_argument("--manifest", required=True, help="JSON bug manifest")
    p.add_argument("--pair", required=True, type=_pair_argument)
    p.add_argument("--backend", help="backend endpoint URL")
    p.add_argument("--store", help="record store path (enables resume)")
    p.add_argument("--profile", choices=sorted(PROFILES), help="benchmark profile preset")
    p.add_argument("--workers", type=_positive_int, help="bug-level parallelism cap")
    p.add_argument("--num-candidates", type=_positive_int, help="candidates requested per bug")
    p.add_argument("--no-tests", action="store_true", help="skip plausibility test runs")
    p.add_argument("--format", default="plain", choices=REPORT_FORMATS, help="report format")
    p.add_argument("--ratings", help="rating store consulted for semantic labels")

    p = sub.add_parser("report", help="aggregate a record store and print the table")
    p.add_argument("--store", required=True)
    p.add_argument("--format", default="plain", choices=REPORT_FORMATS, help="report format")
    p.add_argument("--ratings", help="rating store consulted for semantic labels")
    p.add_argument("--universe", type=int, help="bug universe size override")
    p.add_argument(
        "--curve",
        choices=["exact", "ast", "plausible"],
        help="also print bugs satisfied within the top k candidates, k = 1..10",
    )

    p = sub.add_parser("rate", help="record a semantic rating for a candidate")
    p.add_argument("--store", required=True, help="rating store file (JSONL)")
    p.add_argument("--bug", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--label", required=True, choices=["correct", "incorrect"])
    p.add_argument("--rater", required=True)
    p.add_argument("--round", default="first", choices=["first", "tiebreak"])

    p = sub.add_parser("kappa", help="inter-rater agreement over a rating store")
    p.add_argument("--store", required=True)
    p.add_argument("--rater-a", required=True)
    p.add_argument("--rater-b", required=True)

    p = sub.add_parser("export-train-config", help="write the training hyperparameters")
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", help="dataset to validate for a single pair tag")

    return parser


def _cmd_dataset(args, config) -> int:
    from .corpus import (
        PipelineStats,
        build_dataset,
        dedupe,
        emit_dataset,
        exclude_leakage,
        ingest_diff_corpus,
    )

    stats = PipelineStats()
    filter_config = config.filter
    if args.max_length is not None or args.tokenizer is not None:
        filter_config = type(filter_config)(
            max_length=args.max_length or filter_config.max_length,
            tokenizer=args.tokenizer or filter_config.tokenizer,
        )
    denylist = {}
    if args.denylist:
        denylist = json.loads(Path(args.denylist).read_text(encoding="utf-8"))
    pairs = ingest_diff_corpus(args.corpus, stats)
    pairs = dedupe(pairs, stats)
    pairs = exclude_leakage(pairs, denylist, stats)
    samples = build_dataset(pairs, args.pair, filter_config, config.markers, stats)
    emit_dataset(samples, args.out)
    print(
        f"ingested={stats.ingested} deduped={stats.ingested - stats.duplicates} "
        f"excluded={stats.excluded} dropped_over_length={stats.over_length} "
        f"emitted={stats.emitted} units={stats.units} "
        f"parse_failures={stats.parse_failures} "
        f"not_single_function={stats.not_single_function} "
        f"region_mismatch={stats.region_mismatch}"
    )
    return 0


def _function_named(path: str, name: str):
    """The first function called `name` in the file; None after printing an error."""
    from .syntax import SourceFile, extract_functions

    source = SourceFile(path, Path(path).read_text(encoding="utf-8"))
    for fn in extract_functions(source):
        if fn.name == name:
            return fn
    print(f"error: no function named {name!r} in {path}", file=sys.stderr)
    return None


def _cmd_show(args, config) -> int:
    from .representations import InputKind, OutputKind, Region, build_input, build_output

    fn = _function_named(args.file, args.function)
    if fn is None:
        return 1
    region = args.region if args.region is not None else Region(1, fn.line_count)
    kind = args.kind.upper()
    if kind in InputKind.__members__:
        print(build_input(fn, region, InputKind(kind), config.markers))
        return 0
    if kind in OutputKind.__members__:
        if not args.fixed_file:
            print("error: --fixed-file is required for OR kinds", file=sys.stderr)
            return 1
        fixed = _function_named(args.fixed_file, args.function)
        if fixed is None:
            return 1
        print(build_output(fn, fixed, region, OutputKind(kind)))
        return 0
    print(f"error: unknown representation kind {args.kind!r}", file=sys.stderr)
    return 1


def _cmd_repair(args, config) -> int:
    from .assess import RatingStore
    from .bench import RecordStore, aggregate, load_manifest, report, run_benchmark

    manifest = load_manifest(args.manifest, profile=args.profile)
    gen_config = config.generation
    if args.backend:
        gen_config.backend = args.backend
    if args.num_candidates:
        gen_config.num_candidates = args.num_candidates
    store = RecordStore(args.store) if args.store else None
    workers = args.workers or config.parallelism
    records = run_benchmark(
        manifest,
        args.pair,
        gen_config,
        store=store,
        markers=config.markers,
        workers=workers,
        run_tests=not args.no_tests,
    )
    failures = [r for r in records if r.error]
    for record in failures:
        print(f"warning: {record.bug_id}: {record.error}", file=sys.stderr)
    ratings = RatingStore(args.ratings) if args.ratings else None
    table = aggregate(records, ratings=ratings, universe=len(manifest))
    print(report(table, args.format), end="")
    return 0


def _cmd_report(args, config) -> int:
    from .assess import RatingStore
    from .bench import RecordStore, aggregate, rank_curve, report

    records = list(RecordStore(args.store).load().values())
    ratings = RatingStore(args.ratings) if args.ratings else None
    table = aggregate(records, ratings=ratings, universe=args.universe)
    print(report(table, args.format), end="")
    if args.curve:
        counts = rank_curve(records, args.curve)
        points = " ".join(f"{k}={n}" for k, n in enumerate(counts, start=1))
        print(f"top-k {args.curve}: {points}")
    return 0


def _cmd_rate(args, config) -> int:
    from .assess import RatingStore, SemanticRating

    RatingStore(args.store).add(
        SemanticRating(args.bug, args.rank, args.rater, args.label, args.round)
    )
    print(f"recorded {args.label} for {args.bug}#{args.rank} by {args.rater} ({args.round})")
    return 0


def _cmd_kappa(args, config) -> int:
    from .assess import RatingStore, cohen_kappa

    store = RatingStore(args.store)
    result = cohen_kappa(store, args.rater_a, args.rater_b)
    print(
        f"kappa={result.kappa:.4f} observed_agreement={result.observed_agreement:.4f} "
        f"items={result.items}"
    )
    return 0


def _cmd_export_train_config(args, config) -> int:
    from .corpus import TrainingConfig, export_training_config

    export_training_config(args.out, TrainingConfig(), dataset=args.dataset)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "dataset": _cmd_dataset,
    "show": _cmd_show,
    "repair": _cmd_repair,
    "report": _cmd_report,
    "rate": _cmd_rate,
    "kappa": _cmd_kappa,
    "export-train-config": _cmd_export_train_config,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_tool_config(args.config)
        return _COMMANDS[args.command](args, config)
    except (RepairKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
