"""Fixed pieces of the benchmark's own work that measure the host's speed.

Shared hosts change speed from one run to the next by up to 2x, for the
same code and inputs. Timing a reference next to each batch gives the
host's slowdown at that moment: the reference's time over its nominal
time. The benchmark divides each batch's times by it, so its figures read
as if the reference had taken its nominal time. References are benchmark
code, so no change to repairkit moves them. Each workload uses the
reference that does the kind of work it mostly does.
"""
from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import threading
import time
from pathlib import Path

import javagen


class PythonWork:
    """Generating Java methods: pure-Python string, list and dict work."""

    nominal_s = 0.007

    def __init__(self, workdir: Path):
        pass

    def __call__(self) -> float:
        start = time.perf_counter()
        rng = random.Random(0)
        for k in range(180):
            javagen.make_method(rng, str(k), 40)
        return time.perf_counter() - start


class FileWork:
    """Two threads each copy, hash and delete a 60-file tree, then run `true`.

    This is the shape of a plausibility check with two workers, whose time
    is mostly file system and process work that PythonWork does not track.
    """

    nominal_s = 0.05

    def __init__(self, workdir: Path):
        self.tree = workdir / "reference" / "tree"
        rng = random.Random(0)
        for i in range(60):
            path = self.tree / f"d{i % 6}" / f"F{i}.java"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(javagen.filler_class(rng, f"ref.d{i % 6}", f"F{i}"), encoding="utf-8")

    def _one(self, copy: Path) -> None:
        shutil.copytree(self.tree, copy)
        digest = hashlib.sha256()
        for path in sorted(copy.rglob("*.java")):
            digest.update(path.read_bytes())
        subprocess.run(["true"], check=True)
        shutil.rmtree(copy)

    def __call__(self) -> float:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._one, args=(self.tree.parent / f"copy{k}",))
            for k in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


REFERENCES = {"python": PythonWork, "files": FileWork}
