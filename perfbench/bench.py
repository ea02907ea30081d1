"""Shared plumbing for the workloads: paths, the run record, timing, output.

A workload fills one ``Run``: it times its operations, counts each one as
attempted, and marks it failed when the program raises or when one of the
benchmark's output checks disagrees with the program. ``Run.finish`` prints
the human-readable lines and, last, the one-line JSON result.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")  # generated worlds, checkpoint cache, results, spans


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports after numpy loaded it (None if not found)."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """Attempted/failed bookkeeping, metrics, and the final report of one run."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def operation(self, what: str, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds), result None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the operation counts as failed
            self.failed += 1
            self.notes.append(f"FAILED {what}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def verify(self, what: str, problems: list[str]) -> None:
        """Record an operation's output checks; any problem fails the operation."""
        if not problems:
            return
        self.failed += 1
        for problem in problems[:5]:
            self.check_failures.append(f"{what}: {problem}")
        if len(problems) > 5:
            self.check_failures.append(f"{what}: ... {len(problems) - 5} more")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def finish(self) -> dict:
        info = machine_info()
        print(
            f"workload={self.workload} seed={self.seed} seconds={self.seconds} trace={int(self.trace)} "
            f"blas_threads={info['blas_threads']} nproc={info['nproc']} numpy={info['numpy']}"
        )
        for line in self.notes:
            print(line)
        for line in self.check_failures:
            print(f"CHECK FAILED {line}")
        print(f"attempted={self.attempted} failed={self.failed}")
        for name, (value, unit) in self.metrics.items():
            print(f"{name} {value!r} {unit}")
        result = {
            "correct": not self.check_failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }
        out = work_dir("results")
        name = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump({**result, "machine": info, "notes": self.notes, "check_failures": self.check_failures}, fh, indent=1)
        sys.stdout.flush()
        print(json.dumps(result))
        return result


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def timed_rounds(seconds: float, one_round) -> int:
    """Run whole rounds until ``seconds`` of wall time have passed; at least one."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds
