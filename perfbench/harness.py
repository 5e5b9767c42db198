"""Shared plumbing of the benchmark: paths, child processes, rounds, statistics.

Every workload runs from a checkout of the repository: the program is
imported from ``src/`` (never installed), and everything a run writes lives
under ``.perfbench_work/`` in the checkout and is removed when the run ends.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: One BLAS/OpenMP thread in every program process.  On a small shared
#: machine a second BLAS thread buys no wall time on these kernels, costs
#: 40% more CPU, and widens the run-to-run spread.
THREAD_LIMITS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def limit_threads() -> None:
    """Apply :data:`THREAD_LIMITS` to this process (before numpy loads) and its children."""
    os.environ.update(THREAD_LIMITS)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, broken checkout)."""


def require_program() -> None:
    """Fail before any measurement when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def precompile() -> None:
    """Byte-compile the program once, so no timed import pays for it."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)


class Workdir:
    """A fresh scratch directory for one run, removed on exit."""

    def __init__(self, label: str):
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory there

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def child_env(self) -> Dict[str, str]:
        """Environment of every program process the benchmark starts."""
        env = dict(os.environ)
        env.pop("REPRO_TELEMETRY", None)
        env.pop("REPRO_MAX_WORKERS", None)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.path / "tmp")
        env["REPRO_QUEUE_ROOT"] = str(self.path / "queue-default")
        env["HOME"] = str(self.path)
        return env


def run_child(argv: Sequence[str], env: Dict[str, str], timeout: float = 170.0):
    """Run one program process to completion; returns (seconds, completed)."""
    start = time.perf_counter()
    completed = subprocess.run(
        list(argv), env=env, cwd=str(ROOT), capture_output=True, text=True,
        timeout=timeout,
    )
    return time.perf_counter() - start, completed


def stop_process(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """Terminate a child that is still running and wait until it has ended."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class Rounds:
    """Runs whole rounds of a workload until its time is spent.

    The first round always runs; another starts only while a typical round
    still fits before the deadline, so no round is cut short and a run ends
    by its deadline unless its first round alone overruns it.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.durations: List[float] = []

    def __iter__(self):
        index = 0
        while not self.durations or (
            time.perf_counter() + statistics.median(self.durations) <= self.deadline
        ):
            start = time.perf_counter()
            yield index
            self.durations.append(time.perf_counter() - start)
            index += 1


class Outcome:
    """Operation accounting and correctness findings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, operation: Callable[[], object], label: str):
        """Run one measured operation; a raised error counts it as failed."""
        self.attempted += 1
        try:
            return operation()
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.failed += 1
            print(f"operation failed: {label}: {type(error).__name__}: {error}",
                  file=sys.stderr)
            return None

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchmarkError("no successful operation to take a median of")
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation) of at least two values."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_peak_rss_mb() -> float:
    """Largest resident set among the waited-for child processes, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def e2e_metrics(
    setup_s: float, jobs_per_s: float, miss_ms: float, hit_ms: float
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics every workload reports, by name and unit."""
    return {
        "setup_s": metric(setup_s, "s"),
        "jobs_per_s": metric(jobs_per_s, "1/s"),
        "miss_ms": metric(miss_ms, "ms"),
        "hit_ms": metric(hit_ms, "ms"),
    }


def print_overhead(
    untraced: Dict[str, Dict[str, object]], traced: Dict[str, Dict[str, object]]
) -> None:
    """Tracing overhead: traced end-to-end numbers minus untraced ones."""
    print("tracing overhead (traced - untraced):")
    for name in ("jobs_per_s", "miss_ms", "hit_ms"):
        base = float(untraced[name]["value"])
        with_trace = float(traced[name]["value"])
        share = (with_trace - base) / base * 100.0 if base else 0.0
        print(
            f"  {name:<12} untraced {base:12.3f}  traced {with_trace:12.3f}  "
            f"diff {with_trace - base:+12.3f} {untraced[name]['unit']:<4} ({share:+.1f}%)"
        )


def seed_list(rng, count: int) -> List[int]:
    """Distinct seeds drawn from the run's ``random.Random``."""
    return rng.sample(range(1 << 30), count)
