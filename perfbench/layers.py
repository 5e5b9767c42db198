"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the public functions of each layer of the program from
here, outside the program: a wrapped call is timed, and its *self* time is
its duration minus the time of the wrapped calls made beneath it.  The
program's own telemetry (``compile.pass.*`` spans, ``queue.*`` spans and
metrics) is read back from its JSONL trace sink and folded into the same
per-layer table.

Run as a script, this module is a drop-in for ``python -m repro.runtime``
that installs the wrappers first and writes the layer statistics on exit::

    python perfbench/layers.py STATS.json -- [repro.runtime CLI arguments]
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

from harness import metric

#: Wrapped functions: (module, attribute, layer name).  Module-level
#: functions are rebound in every loaded ``repro`` module that imported
#: them by name, so callers that did ``from x import f`` see the wrapper too.
FUNCTION_LAYERS = (
    ("repro.runtime.dispatch", "run_sweep", "dispatch.run_sweep"),
    ("repro.runtime.dispatch", "compute_job_keys", "dispatch.keys"),
    ("repro.compiler.pipeline", "compile_circuit", "compiler.compile"),
    ("repro.core.execution", "normalized_execution_time", "execution.schedule"),
    ("repro.runtime.jobs", "execute_spec", "jobs.execute"),
    ("repro.primitives.sampler", "sample_logical_counts", "primitives.counts"),
)

#: Wrapped methods: (module, class, method, layer name).
METHOD_LAYERS = (
    ("repro.runtime.store", "ResultStore", "get", "store.get"),
    ("repro.runtime.store", "ResultStore", "put", "store.put"),
    ("repro.queue.client", "QueueClient", "submit", "client.submit"),
    ("repro.queue.client", "QueueClient", "_request", "client.request"),
    ("repro.queue.client", "QueueClient", "result_row", "client.poll"),
)

#: The modules that must be imported before wrapping.
MODULES = (
    "repro.runtime.cli",
    "repro.runtime.dispatch",
    "repro.runtime.jobs",
    "repro.runtime.store",
    "repro.compiler.pipeline",
    "repro.core.execution",
    "repro.simulation.engine",
    "repro.simulation.trajectories",
    "repro.primitives",
    "repro.primitives.sampler",
    "repro.primitives.estimator",
    "repro.queue.client",
    "repro.queue.cli",
    "repro.queue.server",
    "repro.queue.scheduler",
)

#: Benchmarks whose simulation time is reported one by one.
SIM_BENCHMARKS = ("qgan", "ising", "bv", "add1", "add2", "sqrt", "qft", "qaoa", "ghz")

#: Compiler passes of the program's pipelines (``compile.pass.<name>`` spans).
PASS_NAMES = (
    "DecomposeToTwoQubit",
    "CancelInverseGates",
    "BuildInitialLayout",
    "StochasticRoute",
    "LookaheadRoute",
    "RebaseToCZ",
    "CommutationAwareFusion",
    "ValidateBasis",
    "ValidateCoupling",
    "ScheduleCrosstalkAware",
)


class _SleepTimer:
    """Stands in for the ``time`` module of the queue client, timing sleeps."""

    def __init__(self, real, tracer: "LayerTracer"):
        self._real = real
        self._tracer = tracer

    def sleep(self, seconds: float) -> None:
        start = self._real.perf_counter()
        self._real.sleep(seconds)
        self._tracer.record("client.sleep", self._real.perf_counter() - start, 0.0)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class LayerTracer:
    """Counts, total and self time of each wrapped layer (thread-safe)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        # (benchmark, mode) -> [plans, plan_s, runs, kernel_s, trajectories]
        self.sim: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0, 0, 0.0, 0])

    # -- recording ------------------------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _tags(self) -> dict:
        tags = getattr(self._local, "tags", None)
        if tags is None:
            tags = self._local.tags = {}
        return tags

    def record(self, name: str, total_s: float, child_s: float) -> None:
        with self._lock:
            entry = self.layers[name]
            entry[0] += 1
            entry[1] += total_s
            entry[2] += total_s - child_s

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def calls(self, name: str) -> int:
        with self._lock:
            return int(self.layers[name][0]) if name in self.layers else 0

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped to record its time under ``name``.

        ``after(result, frame, args, kwargs, elapsed)`` may inspect a call
        once it returned; ``frame["child_s"]`` is the time of the wrapped
        calls beneath it.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = self._frames()
            frame = {"child_s": 0.0}
            frames.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1]["child_s"] += elapsed
                self.record(name, elapsed, frame["child_s"])
            if after is not None:
                after(result, frame, args, kwargs, elapsed)
            return result

        return wrapper

    def tagging(self, fn, benchmark_of):
        """``fn`` wrapped to tag the calls beneath it with a benchmark name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tags = self._tags()
            previous = tags.get("benchmark")
            tags["benchmark"] = benchmark_of(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tags["benchmark"] = previous

        return wrapper

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        """Import the program's layers and wrap their public functions."""
        import importlib

        modules = {name: importlib.import_module(name) for name in MODULES}
        for module_name, attr, layer in FUNCTION_LAYERS:
            self._rebind(getattr(modules[module_name], attr), self.timed(
                layer, getattr(modules[module_name], attr)
            ))
        for module_name, cls_name, attr, layer in METHOD_LAYERS:
            cls = getattr(modules[module_name], cls_name)
            after = self._store_outcome if layer == "store.get" else None
            setattr(cls, attr, self.timed(layer, getattr(cls, attr), after=after))

        estimator = modules["repro.primitives.estimator"]
        estimator.simulate = self.timed("primitives.exact", estimator.simulate)

        trajectories = modules["repro.simulation.trajectories"]
        self._rebind(
            trajectories.build_trajectory_plan,
            self.timed("simulation.plan", trajectories.build_trajectory_plan,
                       after=self._plan_built),
        )
        engine = modules["repro.simulation.engine"]
        for module, attr in ((engine, "run_trajectories"),
                             (trajectories, "noisy_trajectory_states")):
            original = getattr(module, attr)
            self._rebind(original, self.timed(
                "simulation.run", original, after=self._sim_run(original)
            ))

        jobs = modules["repro.runtime.jobs"]
        self._rebind(jobs.execute_spec, self.tagging(
            jobs.execute_spec, lambda args, kwargs: (args[0] if args else kwargs["spec"]).benchmark
        ))
        est_cls = estimator.Estimator
        est_cls._estimate = self.tagging(est_cls._estimate, lambda args, kwargs: args[1].benchmark)

        client = modules["repro.queue.client"]
        client.time = _SleepTimer(client.time, self)

    @staticmethod
    def _rebind(original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _store_outcome(self, result, frame, args, kwargs, elapsed) -> None:
        self.count("store.hits" if result is not None else "store.misses")

    def _plan_built(self, plan, frame, args, kwargs, elapsed) -> None:
        tags = self._tags()
        tags["mode"] = plan.mode
        key = (tags.get("benchmark") or "other", plan.mode)
        with self._lock:
            entry = self.sim[key]
            entry[0] += 1
            entry[1] += elapsed

    def _sim_run(self, original):
        signature = inspect.signature(original)

        def after(result, frame, args, kwargs, elapsed) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tags = self._tags()
            key = (tags.get("benchmark") or "other", tags.get("mode") or "statevector")
            with self._lock:
                entry = self.sim[key]
                entry[2] += 1
                entry[3] += elapsed - frame["child_s"]
                entry[4] += int(bound.arguments["num_trajectories"])

        return after

    # -- export ---------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "layers": {name: list(values) for name, values in self.layers.items()},
                "counts": dict(self.counts),
                "sim": [[bench, mode] + list(values) for (bench, mode), values in self.sim.items()],
            }


class LayerTotals:
    """Layer statistics summed over processes and phases of one run."""

    def __init__(self):
        self.layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.sim: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0, 0, 0.0, 0])
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.metrics: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)

    def add_snapshot(self, snapshot: Dict[str, object]) -> None:
        for name, values in snapshot["layers"].items():
            entry = self.layers[name]
            for index, value in enumerate(values):
                entry[index] += value
        for name, value in snapshot["counts"].items():
            self.counts[name] += value
        for bench, mode, *values in snapshot["sim"]:
            entry = self.sim[(bench, mode)]
            for index, value in enumerate(values):
                entry[index] += value

    def add_trace(self, path: Path) -> None:
        """Fold a program JSONL trace: span self times and the final metrics."""
        if not path.exists():
            return
        spans = []
        metrics = None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("type") == "span":
                    spans.append(event)
                elif event.get("type") == "metrics":
                    metrics = event
        children: Dict[str, list] = defaultdict(list)
        for span in spans:
            if span.get("parent_id"):
                children[span["parent_id"]].append((span["start_s"], span["end_s"]))
        for span in spans:
            entry = self.spans[span["name"]]
            duration = float(span["duration_s"])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - _covered(
                span["start_s"], span["end_s"], children.get(span["span_id"], ())
            )
        if metrics is not None:
            for name, value in (metrics.get("counters") or {}).items():
                self.counters[name] += value
            wait = (metrics.get("histograms") or {}).get("queue.wait_s") or {}
            self.metrics["queue.wait_s.count"] += float(wait.get("count") or 0)
            self.metrics["queue.wait_s.total"] += float(wait.get("total") or 0.0)

    # -- reading --------------------------------------------------------------------

    def mean_self_ms(self, name: str) -> float:
        count, _total, self_s = self.layers.get(name, (0, 0.0, 0.0))
        return self_s / count * 1e3 if count else 0.0

    def span_self_ms(self, name: str) -> float:
        count, _total, self_s = self.spans.get(name, (0, 0.0, 0.0))
        return self_s / count * 1e3 if count else 0.0

    def calls(self, name: str) -> int:
        return int(self.layers.get(name, (0, 0.0, 0.0))[0])

    def table(self, title: str, rounds: int) -> str:
        """The per-layer table: calls per round, total and self time, then
        the program's own counters and the simulation breakdown."""
        lines = [title, f"{'layer / span':<40} {'calls/round':>12} {'total ms':>12} "
                 f"{'self ms':>12} {'self ms/call':>13}"]
        rows = [("layer", name, values) for name, values in self.layers.items()]
        rows += [("span", name, values) for name, values in self.spans.items()]
        rows.sort(key=lambda row: -row[2][2])
        for kind, name, (count, total, self_s) in rows:
            label = name if kind == "layer" else f"[span] {name}"
            per_call = self_s / count * 1e3 if count else 0.0
            lines.append(
                f"{label:<40} {count / rounds:>12.2f} {total * 1e3:>12.1f} "
                f"{self_s * 1e3:>12.1f} {per_call:>13.3f}"
            )
        if self.counters:
            lines.append("program counters per round: " + ", ".join(
                f"{name} {value / rounds:g}" for name, value in sorted(self.counters.items())
            ))
        if self.sim:
            lines.append("simulation by benchmark and kernel mode:")
            for (bench, mode), (plans, plan_s, runs, kernel_s, trajectories) in sorted(
                self.sim.items()
            ):
                rate = trajectories / kernel_s if kernel_s else 0.0
                lines.append(
                    f"  {bench:<8} {mode:<12} plans {plans:>4} plan ms {plan_s * 1e3:>9.1f}  "
                    f"runs {runs:>4} kernel ms {kernel_s * 1e3:>9.1f}  "
                    f"trajectories {trajectories:>5}  traj/s {rate:>8.2f}"
                )
        return "\n".join(lines)


def _covered(start: float, end: float, intervals) -> float:
    """How much of ``[start, end]`` the (possibly overlapping) intervals cover."""
    covered = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


class Tracing:
    """What the traced phase of one run collects, from every process."""

    def __init__(self):
        self.totals = LayerTotals()
        self.tracer = None  # a LayerTracer installed in the benchmark's own process
        self.hit_compiles = 0
        self.client_jobs = 0
        self.client_hits = 0
        self.slept_hits = 0  # hit round trips during which the client slept
        self.daemon_cpu_ms = 0.0


def layer_metrics(
    tracing: Tracing, rounds: int, imports: Dict[str, float], peak_rss_mb: float
) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, by name and unit (0 where a layer is idle)."""
    totals = tracing.totals
    rounds = max(1, rounds)
    client_jobs = tracing.client_jobs

    gets = totals.counts.get("store.hits", 0) + totals.counts.get("store.misses", 0)
    metrics = {
        "process.peak_rss_mb": metric(peak_rss_mb, "MB"),
        "import.total_ms": metric(imports["total_ms"], "ms"),
        "import.scipy_ms": metric(imports["scipy_ms"], "ms"),
        "import.networkx_ms": metric(imports["networkx_ms"], "ms"),
        "dispatch.run_sweep_ms": metric(totals.mean_self_ms("dispatch.run_sweep"), "ms"),
        "dispatch.keys_ms": metric(totals.mean_self_ms("dispatch.keys"), "ms"),
        "store.get_ms": metric(totals.mean_self_ms("store.get"), "ms"),
        "store.put_ms": metric(totals.mean_self_ms("store.put"), "ms"),
        "store.gets": metric(gets / rounds, "count"),
        "store.hit_ratio": metric(totals.counts.get("store.hits", 0) / gets if gets else 0.0,
                               "ratio"),
        "compiler.compile_ms": metric(totals.mean_self_ms("compiler.compile"), "ms"),
        "compiler.compiles": metric(totals.calls("compiler.compile") / rounds, "count"),
    }
    for name in PASS_NAMES:
        metrics[f"compiler.pass.{name}_ms"] = metric(
            totals.span_self_ms(f"compile.pass.{name}"), "ms"
        )
    metrics["execution.schedule_ms"] = metric(totals.mean_self_ms("execution.schedule"), "ms")
    metrics["jobs.execute_ms"] = metric(totals.mean_self_ms("jobs.execute"), "ms")

    def sim_sum(select) -> List[float]:
        sums = [0, 0.0, 0, 0.0, 0]
        for key, values in totals.sim.items():
            if select(key):
                for index, value in enumerate(values):
                    sums[index] += value
        return sums

    plans, plan_s, runs, kernel_s, trajectories = sim_sum(lambda key: True)
    metrics["simulation.plan_ms"] = metric(plan_s / plans * 1e3 if plans else 0.0, "ms")
    metrics["simulation.kernel_ms"] = metric(kernel_s / runs * 1e3 if runs else 0.0, "ms")
    metrics["simulation.traj_per_s"] = metric(trajectories / kernel_s if kernel_s else 0.0, "1/s")
    metrics["simulation.trajectories"] = metric(trajectories / rounds, "count")
    for bench in SIM_BENCHMARKS:
        plans, plan_s, runs, kernel_s, _ = sim_sum(lambda key, bench=bench: key[0] == bench)
        metrics[f"simulation.plan_ms.{bench}"] = metric(
            plan_s / plans * 1e3 if plans else 0.0, "ms"
        )
        metrics[f"simulation.kernel_ms.{bench}"] = metric(
            kernel_s / runs * 1e3 if runs else 0.0, "ms"
        )

    metrics["primitives.counts_ms"] = metric(totals.mean_self_ms("primitives.counts"), "ms")
    metrics["primitives.exact_ms"] = metric(totals.mean_self_ms("primitives.exact"), "ms")
    metrics["primitives.hit_compiles"] = metric(tracing.hit_compiles / rounds, "count")

    jobs = max(1, client_jobs)
    has_jobs = client_jobs > 0
    metrics["client.submit_ms"] = metric(totals.mean_self_ms("client.submit"), "ms")
    metrics["client.requests_per_job"] = metric(
        totals.calls("client.request") / jobs if has_jobs else 0.0, "count"
    )
    metrics["client.polls_per_job"] = metric(
        totals.calls("client.poll") / jobs if has_jobs else 0.0, "count"
    )
    sleep_s = totals.layers.get("client.sleep", (0, 0.0, 0.0))[1]
    metrics["client.sleep_ms_per_job"] = metric(sleep_s * 1e3 / jobs if has_jobs else 0.0, "ms")
    metrics["client.hit_sleep_share"] = metric(
        tracing.slept_hits / tracing.client_hits if tracing.client_hits else 0.0, "ratio"
    )
    waits = totals.metrics.get("queue.wait_s.count", 0.0)
    metrics["queue.wait_ms"] = metric(
        totals.metrics.get("queue.wait_s.total", 0.0) / waits * 1e3 if waits else 0.0, "ms"
    )
    metrics["queue.submit_ms"] = metric(totals.span_self_ms("queue.submit"), "ms")
    metrics["queue.execute_ms"] = metric(totals.span_self_ms("queue.execute"), "ms")
    metrics["daemon.cpu_ms_per_job"] = metric(
        tracing.daemon_cpu_ms / client_jobs if has_jobs else 0.0, "ms"
    )
    return metrics


# -- import time ---------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative milliseconds of the outermost scipy and networkx imports.

    ``python -X importtime`` prints one line per module after its imports
    finished (children before parents, nesting shown by indentation); a
    module counts toward a package when no enclosing import belongs to it.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((len(match.group(3)) // 2, match.group(4), int(match.group(2))))
    totals = {"scipy": 0.0, "networkx": 0.0}
    # Walking backwards, each line's enclosing imports are the open lines
    # of smaller depth.
    open_names: List[tuple] = []
    for depth, name, cumulative_us in reversed(entries):
        while open_names and open_names[-1][0] >= depth:
            open_names.pop()
        package = name.split(".")[0]
        if package in totals and not any(
            enclosing.split(".")[0] == package for _, enclosing in open_names
        ):
            totals[package] += cumulative_us / 1e3
        open_names.append((depth, name))
    return {"scipy_ms": totals["scipy"], "networkx_ms": totals["networkx"]}


_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import repro.runtime.cli; "
    "print((time.perf_counter() - start) * 1e3)"
)


def measure_imports(env: Dict[str, str], samples: int = 3) -> Dict[str, float]:
    """Median cold ``import repro.runtime.cli`` cost over fresh interpreters."""
    import statistics

    runs = []
    for _ in range(samples):
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"import probe failed: {completed.stderr[-2000:]}")
        parsed = parse_importtime(completed.stderr)
        parsed["total_ms"] = float(completed.stdout.strip().splitlines()[-1])
        runs.append(parsed)
    return {
        key: statistics.median(run[key] for run in runs)
        for key in ("total_ms", "scipy_ms", "networkx_ms")
    }


def run_traced_cli(argv: Sequence[str]) -> int:
    """Entry point of the traced CLI drop-in (see the module docstring)."""
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layers.py STATS.json -- [repro.runtime arguments]", file=sys.stderr)
        return 2
    stats_path = Path(argv[0])
    tracer = LayerTracer()
    tracer.install()
    from repro.runtime.cli import main

    try:
        return main(list(argv[2:]))
    finally:
        stats_path.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(run_traced_cli(sys.argv[1:]))
