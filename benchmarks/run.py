"""repairkit benchmark: seeded synthetic inputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload repair-offline --seed 1 --seconds 20 --trace 0

Each run works in a fresh directory under `.bench_tmp/` and removes it at
exit. The inputs are generated once, and a second generation must give the
same bytes. Set-up (a cold start in a fresh interpreter: imports and the
first parse; then starting the workload and one warm-up item) runs SETUPS
times; `setup_s` is their median. Generating the inputs is the benchmark's
own work, which no change to repairkit moves, so it is reported as context,
not in `setup_s`. The timed phase then runs batches of planted items until
`--seconds` pass or the pool ends, and checks every batch against its
planted answers.

Every batch and every set-up is bracketed by a reference: a fixed piece of
the benchmark's own work (`references.py`). A time t measured while the
reference took r, against its nominal n, is reported as t * n / r, which
takes out the host's changes of speed between runs. The context line also
gives the unscaled figures.

With `--trace 0` the last line of stdout holds the end-to-end metrics. With
`--trace 1` it holds the per-layer metrics: an untraced phase of half the
seconds, then a traced phase over a fixed set of batches, whose spans go to
`.bench_out/`. The line before the last one gives the run's context.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 7
# Batches in the traced phase: fixed, so a seed gives the same traced work.
TRACE_BATCHES = {
    "dataset-corpus": 4,
    "repair-offline": 6,
    "repair-plausible": 4,
    "ratings-report": 3,
}


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children (microsecond resolution)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# A fresh interpreter's first steps: the imports every CLI call makes, then
# the first parse.
COLD_START = """
import sys
import repairkit.cli
from repairkit.syntax import SourceFile, extract_functions
with open(sys.argv[1], encoding="utf-8") as fh:
    extract_functions(SourceFile(sys.argv[1], fh.read()))
"""


def set_up(workload_cls, workdir: Path, seed: int, size: str):
    """Generate the inputs once, then set up SETUPS times.

    A set-up is a cold start in a fresh interpreter, starting the workload
    and one warm-up item in this process. Returns the started workload, its
    reference, the batches to time, [(set-up s, host slowdown)], the
    generation time and whether a second generation gave the same bytes.
    """
    import inputs
    import javagen
    import references

    workload = workload_cls(workdir, seed, size)
    start = time.perf_counter()
    batches, digest = workload.plan()
    generate_s = time.perf_counter() - start
    _, again = inputs.plan(workload.name, workload.inputs, seed, size, write=False)
    rng = random.Random(0)
    first = workdir / "First.java"
    first.write_text(
        javagen.make_file(
            "bench.first", "First", [javagen.make_method(rng, str(k), 30) for k in range(6)], rng
        ).text,
        encoding="utf-8",
    )
    reference = references.REFERENCES[workload.reference](workdir)
    # Flush the files just generated, and what earlier runs left to write,
    # so that their writeback does not land in the timed phase.
    os.sync()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUPS):
        if i:
            workload.close()
        before = reference()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", COLD_START, str(first)], cwd=ROOT, env=env, check=True
        )
        workload.start(batches)
        workload.warm_up(batches[-1])
        elapsed = time.perf_counter() - start
        times.append((elapsed, (before + reference()) / 2 / reference.nominal_s))
    return workload, reference, batches[:-1], times, generate_s, digest == again


def run_batches(workload, reference, batches, seconds=None):
    """Time each batch; stop after `seconds` of wall time, if given.

    Each sample is (items, wall s, CPU s, host slowdown): the slowdown is the
    reference's mean time just before and just after the batch over its
    nominal time.
    """
    samples, failed, problems = [], 0, []
    deadline = time.perf_counter() + seconds if seconds is not None else None
    before = reference()
    for batch in batches:
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        try:
            result, error = workload.run(batch), None
        except Exception as exc:  # a batch that raises fails its items; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall1, cpu1 = time.perf_counter(), _cpu_s()
        after = reference()
        slowdown = (before + after) / 2 / reference.nominal_s
        samples.append((batch.items, wall1 - wall0, cpu1 - cpu0, slowdown))
        before = after
        if error is None:
            bad, notes = workload.check(batch, result)
        else:
            bad, notes = batch.items, [error]
        failed += bad
        problems.extend(notes)
        if deadline is not None and wall1 >= deadline:
            break
    return samples, failed, problems


def rates(samples, scaled: bool = True) -> tuple[float, float]:
    """Median items/s and median CPU ms per item over the batches."""
    return (
        statistics.median(
            items / wall * (slowdown if scaled else 1.0)
            for items, wall, _, slowdown in samples
        ),
        statistics.median(
            cpu * 1000.0 / items / (slowdown if scaled else 1.0)
            for items, _, cpu, slowdown in samples
        ),
    )


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    )


def measure(name: str, seed: int, seconds: float, trace: bool, size: str, workdir: Path):
    """One run: (correct, attempted, failed, metrics, context)."""
    import spans as tracing
    import workloads

    workload, reference, pool, setup_times, generate_s, deterministic = set_up(
        workloads.WORKLOADS[name], workdir, seed, size
    )
    try:
        if not trace:
            samples, failed, problems = run_batches(workload, reference, pool, seconds)
            items_per_s, cpu_ms = rates(samples)
            metrics = {
                "setup_s": (statistics.median(t / slow for t, slow in setup_times), "s"),
                "items_per_s": (items_per_s, "1/s"),
                "cpu_ms_per_item": (cpu_ms, "ms"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
                "ok_ratio": (1.0 - failed / sum(s[0] for s in samples), "ratio"),
            }
        else:
            traced_pool = pool[: TRACE_BATCHES[name]]
            samples, failed, problems = run_batches(
                workload, reference, pool[len(traced_pool):], seconds / 2
            )
            untraced_rate, _ = rates(samples)
            tracer = tracing.Tracer()
            tracer.install(consumers=[workloads])
            try:
                traced, bad, notes = run_batches(workload, reference, traced_pool)
            finally:
                tracer.uninstall()
            tracer.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")
            samples += traced
            failed += bad
            problems += notes
            overhead = 1.0 - rates(traced)[0] / untraced_rate
            units = sum(b.items for b in traced_pool) if name == "dataset-corpus" else 0
            metrics = {
                key: (value, unit)
                for (key, unit), value in zip(
                    tracing.PER_LAYER, tracing.layer_metrics(tracer, units, overhead).values()
                )
            }
    finally:
        workload.close()
    attempted = sum(s[0] for s in samples)
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    context = {
        "workload": name,
        **spec["workloads"][name],
        "predictions": [
            row for row in spec["predictions"]
            if any(name in where for where in row["moves"].values())
        ],
        "seed": seed,
        "scale": size,
        "batches": len(samples),
        "window_s": round(sum(s[1] for s in samples), 3),
        "unscaled": dict(
            zip(("items_per_s", "cpu_ms_per_item"), rates(samples, scaled=False)),
            setup_s=statistics.median(t for t, _ in setup_times),
        ),
        "host_slowdown": statistics.median(s[3] for s in samples),
        "setup_runs_s": [round(t, 4) for t, _ in setup_times],
        "generate_s": round(generate_s, 4),
        "inputs_byte_identical": deterministic,
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "problems": problems[:20],
    }
    correct = deterministic and failed == 0 and attempted > 0
    return correct, attempted, failed, metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repairkit" / "__init__.py").is_file():
        print(f"error: no repairkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    # The corpus pipeline logs each skipped unit; keep the records, drop the output.
    import logging

    logging.getLogger().addHandler(logging.NullHandler())
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Plausibility clones go under the run's own directory, not the system's.
    tempfile.tempdir = str(workdir / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        (workdir / "tmp").mkdir()
        correct, attempted, failed, metrics, context = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), "full", workdir / "run",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in context["problems"]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
