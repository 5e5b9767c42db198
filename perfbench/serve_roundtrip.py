"""Workload ``serve_roundtrip``: one client against a ``repro serve`` daemon.

Each round submits distinct small compile-only jobs one after another
(closed loop, one client) and waits on each with
``RemoteJobHandle.result()``; it then resubmits every job of the round,
and the daemon completes the resubmissions from its result store.  The
jobs compute for milliseconds, so the round trip measures the per-request
overhead of the serving path.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from harness import Rounds, child_peak_rss_mb, percentile, seed_list, stop_process

SERVE_MIX = ("qgan", "ising", "bv", "add1", "add2", "qft", "qaoa", "ghz")
SIZES = (8, 9, 10, 12)
BACKEND = "digiq-opt8"
JOBS_PER_ROUND = 24
IN_PROCESS = True

COMMAND = [sys.executable, "-m", "repro.runtime"]
TRACED_COMMAND = [sys.executable, str(Path(__file__).with_name("layers.py"))]


class Daemon:
    """A ``repro serve`` child on its own empty queue root and store."""

    def __init__(self, work, env, name: str, traced: bool = False):
        self.root = work.sub(f"{name}-queue")
        self.store = work.sub(f"{name}-store")
        args = ["serve", "--root", str(self.root), "--cache-dir", str(self.store),
                "--port", "0"]
        self.stats_path = work.path / f"{name}.stats.json"
        self.trace_path = work.path / f"{name}.trace.jsonl"
        if traced:
            argv = TRACED_COMMAND + [str(self.stats_path), "--", *args,
                                     "--trace", str(self.trace_path)]
        else:
            argv = COMMAND + args
        self.stderr_path = work.path / f"{name}.stderr"
        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.started = time.perf_counter()
            self.process = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                            stderr=stderr)
        self.url: Optional[str] = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from spawn to the first answered ``GET /queue/stats``."""
        descriptor = self.root / "daemon.json"
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self.stderr_path.read_text()[-2000:]}")
            if self.url is None:
                try:
                    self.url = json.loads(descriptor.read_text(encoding="utf-8"))["url"]
                except (OSError, ValueError, KeyError):
                    time.sleep(0.002)
                    continue
            if self._stats_answered():
                return time.perf_counter() - self.started
            time.sleep(0.002)
        raise RuntimeError("repro serve did not answer within its start-up timeout")

    def _stats_answered(self) -> bool:
        host, port = self.url.split("//", 1)[1].rsplit(":", 1)
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.request("GET", "/queue/stats")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def cpu_ms(self) -> float:
        """CPU time the daemon has used so far (user + system), in ms."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1e3 / os.sysconf("SC_CLK_TCK")

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit; wait until it has ended."""
        try:
            if self.url is not None and self.process.poll() is None:
                host, port = self.url.split("//", 1)[1].rsplit(":", 1)
                connection = http.client.HTTPConnection(host, int(port), timeout=10)
                try:
                    connection.request("POST", "/shutdown")
                    connection.getresponse().read()
                finally:
                    connection.close()
                self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            stop_process(self.process)


def setup_once(work, env, index: int) -> float:
    """Time from spawning ``repro serve`` to its first answered stats request."""
    daemon = Daemon(work, env, f"setup{index}")
    try:
        return daemon.wait_ready()
    finally:
        daemon.shutdown()


def peak_rss_mb() -> float:
    return child_peak_rss_mb()


def _specs(rng) -> list:
    from repro.runtime.spec import ExperimentSpec

    seeds = seed_list(rng, JOBS_PER_ROUND)
    return [
        ExperimentSpec(benchmark=SERVE_MIX[index % len(SERVE_MIX)], backend=BACKEND,
                       num_qubits=rng.choice(SIZES), seed=seed)
        for index, seed in enumerate(seeds)
    ]


def _roundtrip(client, spec):
    start = time.perf_counter()
    result = client.submit(spec).result()
    return time.perf_counter() - start, result


def run_phase(work, env, rng, outcome, deadline: float, tracing) -> Dict[str, object]:
    """Whole rounds until ``deadline``; ``tracing`` is set in the traced phase."""
    from repro.queue import QueueClient
    from repro.runtime.jobs import job_key

    data = {"jobs": 0, "miss_s": 0.0, "miss_ms": [], "hit_ms": [], "rounds": 0}
    daemon = Daemon(work, env, "traced" if tracing else "workload", traced=bool(tracing))
    try:
        daemon.wait_ready()
        client = QueueClient(url=daemon.url)
        cpu_before = daemon.cpu_ms() if tracing else 0.0
        jobs = 0
        for _ in Rounds(deadline):
            specs = _specs(rng)
            keys = [job_key(spec) for spec in specs]
            rows: Dict[int, str] = {}
            for index, spec in enumerate(specs):
                label = f"miss {spec.benchmark} q{spec.num_qubits} seed {spec.seed}"
                result = outcome.attempt(lambda: _roundtrip(client, spec), label)
                jobs += 1
                if result is None:
                    continue
                elapsed, job = result
                data["miss_ms"].append(elapsed * 1e3)
                data["miss_s"] += elapsed
                data["jobs"] += 1
                outcome.check(job.key == keys[index], f"{label}: key {job.key} != {keys[index]}")
                rows[index] = json.dumps(job.row, sort_keys=True)
            for index, spec in enumerate(specs):
                label = f"hit {spec.benchmark} q{spec.num_qubits} seed {spec.seed}"
                sleeps = tracing.tracer.calls("client.sleep") if tracing else 0
                result = outcome.attempt(lambda: _roundtrip(client, spec), label)
                jobs += 1
                if result is None:
                    continue
                if tracing:
                    tracing.client_hits += 1
                    tracing.slept_hits += tracing.tracer.calls("client.sleep") > sleeps
                elapsed, job = result
                data["hit_ms"].append(elapsed * 1e3)
                outcome.check(job.key == keys[index], f"{label}: key {job.key} != {keys[index]}")
                if index in rows:
                    outcome.check(json.dumps(job.row, sort_keys=True) == rows[index],
                                  f"{label}: hit row differs from the miss row")
            data["rounds"] += 1
        if tracing:
            tracing.client_jobs += jobs
            tracing.daemon_cpu_ms += daemon.cpu_ms() - cpu_before
    finally:
        daemon.shutdown()
    if tracing:
        tracing.totals.add_snapshot(json.loads(daemon.stats_path.read_text(encoding="utf-8")))
        tracing.totals.add_trace(daemon.trace_path)
    print(f"serve_roundtrip: miss p50 {percentile(data['miss_ms'], 50):.1f} ms, "
          f"p90 {percentile(data['miss_ms'], 90):.1f} ms over {len(data['miss_ms'])} misses; "
          f"hit p50 {percentile(data['hit_ms'], 50):.1f} ms, "
          f"p90 {percentile(data['hit_ms'], 90):.1f} ms over {len(data['hit_ms'])} hits, "
          f"{sum(ms > 50 for ms in data['hit_ms'])} of them after a poll sleep")
    return data
