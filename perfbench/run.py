"""The repository benchmark: one workload per run, end to end or layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_sweep --seed 1 --seconds 30 --trace 0

Workloads: ``cli_sweep`` (cold ``python -m repro.runtime`` sweeps),
``session_fidelity`` (``repro.primitives`` calls in one interpreter) and
``serve_roundtrip`` (a ``repro serve`` daemon and one client).  Each run
measures its set-up (spawns before and after the rounds) and whole
rounds of a miss phase and a hit phase for ``--seconds`` seconds in all,
checks every output, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run measures half its time untraced and half traced, and
reports the per-layer metrics, the per-layer table and the tracing overhead.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import harness
from harness import BenchmarkError, Outcome, Workdir, e2e_metrics, median, print_overhead

WORKLOADS = ("cli_sweep", "session_fidelity", "serve_roundtrip")

#: Set-up spawns per batch.  One batch runs before the rounds and one after
#: the untraced rounds, so that ``setup_s`` samples the machine at both ends
#: of the run rather than in one window of a few seconds.
SETUP_SPAWNS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _phase_metrics(data, setup_times):
    return e2e_metrics(
        setup_s=median(setup_times),
        jobs_per_s=data["jobs"] / data["miss_s"],
        miss_ms=median(data["miss_ms"]),
        hit_ms=median(data["hit_ms"]),
    )


def _print_metrics(title: str, metrics) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.4f} {entry['unit']}")


def run(args) -> dict:
    harness.require_program()
    harness.limit_threads()
    harness.precompile()
    deadline = time.perf_counter() + args.seconds
    module = __import__(args.workload)
    rng = random.Random(f"{args.workload}:{args.seed}")
    outcome = Outcome()
    with Workdir(args.workload) as work:
        env = work.child_env()
        start = time.perf_counter()
        setup_times = _setup(module, work, env, 0)
        # The second batch takes about as long as the first: leave it room.
        untraced_deadline = deadline - (time.perf_counter() - start)
        if args.trace:
            untraced_deadline = time.perf_counter() + (untraced_deadline - time.perf_counter()) / 2
        untraced = module.run_phase(work, env, rng, outcome, untraced_deadline, None)
        setup_times += _setup(module, work, env, SETUP_SPAWNS)
        print(f"{args.workload}: setup samples {[round(t, 3) for t in setup_times]} s")
        # Read before the traced phase: its wrappers import every layer up
        # front, and its children and import probes would count as well.
        peak_rss_mb = module.peak_rss_mb()
        if args.trace:
            traced, tracing = _traced_phase(module, work, env, rng, outcome, deadline)
        metrics = _phase_metrics(untraced, setup_times)
        print(f"{args.workload}: {untraced['rounds']} rounds, {outcome.attempted} operations, "
              f"peak resident set {peak_rss_mb:.1f} MB")
        _print_metrics("end-to-end metrics (untraced):", metrics)
        if args.trace:
            from layers import layer_metrics, measure_imports

            traced_metrics = _phase_metrics(traced, setup_times)
            imports = measure_imports(env)
            print(tracing.totals.table(
                f"per-layer table ({traced['rounds']} traced rounds; calls are per round)",
                traced["rounds"],
            ))
            print(f"imports (cold, python -X importtime, median of 3): repro.runtime.cli "
                  f"{imports['total_ms']:.1f} ms; outermost scipy imports "
                  f"{imports['scipy_ms']:.1f} ms, networkx {imports['networkx_ms']:.1f} ms")
            print_overhead(metrics, traced_metrics)
            metrics = layer_metrics(tracing, traced["rounds"], imports, peak_rss_mb)
            _print_metrics("per-layer metrics:", metrics)
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def _setup(module, work, env, first: int):
    return [module.setup_once(work, env, index) for index in range(first, first + SETUP_SPAWNS)]


def _traced_phase(module, work, env, rng, outcome, deadline):
    """The traced half of a ``--trace 1`` run (wrappers and telemetry on)."""
    from layers import LayerTracer, Tracing

    tracing = Tracing()
    sink = None
    if module.IN_PROCESS:
        from repro import telemetry

        tracing.tracer = LayerTracer()
        tracing.tracer.install()
        sink = work.path / "benchmark.trace.jsonl"
        telemetry.reset()  # the program's counters then cover the traced half only
        telemetry.configure_sink(sink)
    try:
        traced = module.run_phase(work, env, rng, outcome, deadline, tracing)
    finally:
        if sink is not None:
            telemetry.flush_metrics()
            telemetry.close_sink()
    if tracing.tracer is not None:
        tracing.totals.add_snapshot(tracing.tracer.snapshot())
        tracing.totals.add_trace(sink)
    return traced, tracing


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
