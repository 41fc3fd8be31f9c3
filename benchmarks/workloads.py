"""The four workloads, run through the public calls the CLI subcommands make.

Each workload plans its inputs (`plan`), starts what its batches need
(`start`, undone by `close`), runs one batch at a time (`run`, the timed
part) and checks each batch against the answers planted in its inputs
(`check`, untimed). `check` returns the number of items that
differ from their planted answer, with one message per difference.

The calls go through module attributes (`corpus.emit_dataset`, not a bare
imported name), so the traced run's rebinding reaches them.
"""
from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

import inputs
from repairkit import assess, bench, corpus, gen
from repairkit.representations import ReprPair


class Workload:
    name = ""
    # The references.REFERENCES entry whose time scales this workload's times.
    reference = "python"

    def __init__(self, workdir: Path, seed: int, size: str):
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        self.seed = seed
        self.size = size

    def plan(self) -> tuple[list, str]:
        """Write the inputs: (planted batches, digest of the files written)."""
        self.out.mkdir(parents=True, exist_ok=True)
        return inputs.plan(self.name, self.inputs, self.seed, self.size)

    def start(self, batches: list) -> None:
        pass

    def warm_up(self, batch) -> None:
        self.run(batch)

    def run(self, batch):
        raise NotImplementedError

    def check(self, batch, result) -> tuple[int, list[str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class DatasetCorpus(Workload):
    """`repairkit dataset --pair IR1xOR3 --denylist ...` over one shard."""

    name = "dataset-corpus"
    pair = ReprPair.parse("IR1xOR3")

    def run(self, shard):
        stats = corpus.PipelineStats()
        denylist = json.loads(shard.denylist.read_text(encoding="utf-8"))
        pairs = corpus.ingest_diff_corpus(shard.root, stats)
        pairs = corpus.dedupe(pairs, stats)
        pairs = corpus.exclude_leakage(pairs, denylist, stats)
        samples = corpus.build_dataset(pairs, self.pair, corpus.CorpusFilterConfig(), stats=stats)
        path = self.out / "dataset.jsonl"
        return stats, corpus.emit_dataset(samples, path), path

    def check(self, shard, result):
        stats, written, path = result
        problems = [
            f"{shard.root.name}: {key}={getattr(stats, key, None)}, planted {want}"
            for key, want in shard.stats.items()
            if getattr(stats, key, None) != want
        ]
        wrong = sum(abs((getattr(stats, k, 0) or 0) - v) for k, v in shard.stats.items())
        got = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        if written != len(got):
            problems.append(f"{shard.root.name}: emit_dataset returned {written}, wrote {len(got)}")
            wrong += 1
        want = {s["id"]: s for s in shard.samples}
        for sample in got:
            planted = want.pop(sample.get("id"), None)
            if planted is None or sample.get("pair") != str(self.pair) or any(
                sample.get(key) != planted[key] for key in ("input", "output")
            ):
                problems.append(f"{shard.root.name}: sample {sample.get('id')} differs")
                wrong += 1
        problems.extend(f"{shard.root.name}: sample {i} missing" for i in want)
        return min(shard.items, wrong + len(want)), problems


_METHOD_RE = re.compile(r"public int (m[0-9_]+)\(")


class Repair(Workload):
    """`repairkit repair --store ...` over one batch, once per pair."""

    http = False
    run_tests = False
    workers = 1

    def start(self, batches):
        owners = {}
        fixtures: dict[str, dict[str, list[str]]] = {}
        for batch in batches:
            for bug in batch.bugs:
                owners[bug.method.name] = bug.bug_id
                for pair, ranked in bug.candidates.items():
                    fixtures.setdefault(pair, {})[bug.bug_id] = [raw for raw, _ in ranked]

        def resolve(prompt: str):
            match = _METHOD_RE.search(prompt)
            return owners.get(match.group(1)) if match else None

        self.mocks = {pair: gen.MockBackend(f, resolve) for pair, f in fixtures.items()}
        self.backends = {
            pair: mock.serve() if self.http else mock for pair, mock in self.mocks.items()
        }

    def close(self):
        for mock in getattr(self, "mocks", {}).values():
            mock.close()

    def warm_up(self, batch):
        manifest = bench.load_manifest(batch.manifest)[:1]
        for pair in batch.pairs:
            config = gen.GenerationConfig(backend=self.backends[pair])
            bench.run_benchmark(
                manifest, ReprPair.parse(pair), config,
                workers=self.workers, run_tests=self.run_tests,
            )

    def run(self, batch):
        manifest = bench.load_manifest(batch.manifest)
        records = {}
        for pair in batch.pairs:
            store = bench.RecordStore(self.out / f"records-{pair}.jsonl")
            config = gen.GenerationConfig(backend=self.backends[pair])
            records[pair] = bench.run_benchmark(
                manifest, ReprPair.parse(pair), config, store=store,
                workers=self.workers, run_tests=self.run_tests,
            )
            bench.report(bench.aggregate(records[pair], universe=len(manifest)), "plain")
        return records

    def check(self, batch, result):
        failed, problems = 0, []
        for pair, records in result.items():
            (self.out / f"records-{pair}.jsonl").unlink(missing_ok=True)
            by_id = {record.bug_id: record for record in records}
            for bug in batch.bugs:
                record = by_id.get(bug.bug_id)
                planted = bug.candidates[pair]
                got = None
                if record is not None and record.error is None:
                    got = [
                        (c.rank, c.raw_output, c.reconstructed is not None,
                         v.parse_ok, v.plausible, v.exact, v.ast)
                        for c, v in zip(record.candidates, record.verdicts)
                    ]
                want = [(rank, raw, *verdict) for rank, (raw, verdict) in enumerate(planted)]
                if got != want:
                    failed += 1
                    error = record.error if record is not None else "no record"
                    problems.append(f"{bug.bug_id} {pair}: {error or _first_difference(got, want)}")
        return failed, problems


def _first_difference(got, want) -> str:
    for g, w in zip(got, want):
        if g != w:
            return f"got {g[:1] + g[2:]}, planted {w[:1] + w[2:]}"
    return f"{len(got)} candidates, planted {len(want)}"


class RepairOffline(Repair):
    name = "repair-offline"


class RepairPlausible(Repair):
    name = "repair-plausible"
    # Copying and hashing trees and running tests is mostly file system and
    # process work, which the pure-Python reference does not track: scaling
    # by it doubled the spread of this workload's batch rates.
    reference = "files"
    http = True
    run_tests = True
    workers = min(2, os.cpu_count() or 1)


class RatingsReport(Workload):
    """`repairkit rate` for every label, then `kappa` and `report --ratings`."""

    name = "ratings-report"
    formats = ("plain", "delimited", "markdown-table")

    def warm_up(self, batch):
        bench.aggregate(bench.RecordStore(batch.records).load().values())

    def run(self, batch):
        batch.ratings.unlink(missing_ok=True)
        store = assess.RatingStore(batch.ratings)
        for rater, labels in (("rater-a", batch.first_a), ("rater-b", batch.first_b)):
            for bug_id, rank, label in labels:
                store.add(assess.SemanticRating(bug_id, rank, rater, label))
        for bug_id, rank, label in batch.tiebreaks:
            store.add(assess.SemanticRating(bug_id, rank, "rater-c", label, round="tiebreak"))
        store = assess.RatingStore(batch.ratings)
        kappa = assess.cohen_kappa(store, "rater-a", "rater-b")
        records = list(bench.RecordStore(batch.records).load().values())
        table = bench.aggregate(records, ratings=store)
        texts = {fmt: bench.report(table, fmt) for fmt in self.formats}
        return len(store), kappa, table, texts, bench.rank_curve(records, "exact")

    def check(self, batch, result):
        stored, kappa, table, texts, curve = result
        problems = []
        ratings = len(batch.first_a) + len(batch.first_b) + len(batch.tiebreaks)
        if stored != ratings:
            problems.append(f"reopened store holds {stored} ratings, planted {ratings}")
        if not math.isclose(kappa.kappa, batch.kappa, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"kappa {kappa.kappa!r}, planted {batch.kappa!r}")
        columns = inputs.COLUMNS
        rows = {row.label: {c: getattr(row, c) for c in columns} for row in table.rows}
        if rows != batch.table:
            problems.append(f"aggregate {rows}, planted {batch.table}")
        csv = "Representation,Bugs,Plausible,Exact,AST,Semantic,Pending\n" + "".join(
            f"{pair},{','.join(str(row[c]) for c in columns)}\n"
            for pair, row in sorted(batch.table.items())
        )
        if texts["delimited"] != csv:
            problems.append(f"delimited report {texts['delimited']!r}, planted {csv!r}")
        for fmt in ("plain", "markdown-table"):
            lines = texts[fmt].splitlines()
            for pair, row in batch.table.items():
                line = next((line for line in lines if pair in line), "")
                if line.replace("|", " ").split()[1:] != [str(row[c]) for c in columns]:
                    problems.append(f"{fmt} report row for {pair}: {line!r}")
        if curve != batch.curve:
            problems.append(f"exact top-k curve {curve}, planted {batch.curve}")
        return (batch.items if problems else 0), problems


WORKLOADS = {w.name: w for w in (DatasetCorpus, RepairOffline, RepairPlausible, RatingsReport)}
