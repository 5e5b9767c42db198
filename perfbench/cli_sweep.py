"""Workload ``cli_sweep``: cold ``python -m repro.runtime`` invocations.

Each round is a miss phase of two computing sweeps (the six Table IV
benchmarks x the three default DigiQ grid backends at one device size, one
at ``-O1`` and one at ``-O2``, each with its own seed) followed by a hit
phase that repeats both sweeps, so every job is served from the store.
Every invocation is a fresh interpreter, as a user at the shell pays it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from harness import Rounds, child_peak_rss_mb, run_child, seed_list

TABLE_IV = ("qgan", "ising", "bv", "add1", "add2", "sqrt")
BACKENDS = ("digiq-opt8", "digiq-opt16", "digiq-min2")
QUBITS = 25
OPT_LEVELS = (1, 2)
JOBS_PER_SWEEP = len(TABLE_IV) * len(BACKENDS)
#: Serial sweeps: every compile and schedule runs in the timed interpreter,
#: where the traced run can attribute it, and no pool start-up or two-process
#: contention on a small machine adds to the spread.
WORKERS = 1
IN_PROCESS = False

COMMAND = [sys.executable, "-m", "repro.runtime"]
TRACED_COMMAND = [sys.executable, str(Path(__file__).with_name("layers.py"))]


def setup_once(work, env, index: int) -> float:
    """Wall time of ``--list-backends``: the cold start every command pays."""
    elapsed, completed = run_child(COMMAND + ["--list-backends"], env)
    if completed.returncode != 0:
        raise RuntimeError(f"--list-backends failed: {completed.stderr[-2000:]}")
    return elapsed


def peak_rss_mb() -> float:
    return child_peak_rss_mb()


def _sweep_args(store: Path, seed: int, opt_level: int) -> List[str]:
    args = ["--benchmarks", *TABLE_IV, "--qubits", str(QUBITS), "--seeds", str(seed),
            "--opt-level", str(opt_level), "--workers", str(WORKERS),
            "--cache-dir", str(store), "--format", "json"]
    for backend in BACKENDS:
        args += ["--backend", backend]
    return args


def _canonical_rows(payload: Dict[str, object]) -> List[str]:
    return [json.dumps(row, sort_keys=True) for row in payload["rows"]]


def _check_accounting(outcome, payload, label: str, expected) -> None:
    summary = payload["summary"]
    found = (summary["computed"], summary["cached"])
    outcome.check(found == expected,
                  f"{label}: reported {found} (computed, cached), expected {expected}")


def _check_rows(outcome, payload: Dict[str, object], label: str) -> None:
    """Fig. 9 row properties that hold for any correct sweep."""
    rows = payload["rows"]
    outcome.check(len(rows) == JOBS_PER_SWEEP,
                  f"{label}: {len(rows)} rows, expected {JOBS_PER_SWEEP}")
    groups = defaultdict(set)
    for row in rows:
        digiq, mimd, norm = row["digiq_time_us"], row["mimd_time_us"], row["normalized_time"]
        outcome.check(
            mimd > 0 and abs(norm - digiq / mimd) <= 1e-12 * abs(norm),
            f"{label}: {row['benchmark']} normalized_time {norm} != {digiq} / {mimd}",
        )
        outcome.check(norm >= 1.0, f"{label}: {row['benchmark']} normalized_time {norm} < 1")
        groups[(row["benchmark"], row["seed"], row["opt_level"])].add(
            (row["cz_gates"], row["swaps"], row["depth"])
        )
    for group, shapes in groups.items():
        outcome.check(len(shapes) == 1,
                      f"{label}: backends of compile group {group} disagree: {sorted(shapes)}")


def run_phase(work, env, rng, outcome, deadline: float, tracing) -> Dict[str, object]:
    """Whole rounds until ``deadline``; ``tracing`` is set in the traced phase."""
    store = work.sub("store-traced" if tracing else "store")
    data = {"jobs": 0, "miss_s": 0.0, "miss_ms": [], "hit_ms": [], "rounds": 0}
    for index in Rounds(deadline):
        sweeps = list(zip(seed_list(rng, len(OPT_LEVELS)), OPT_LEVELS))
        misses = {}
        miss_times = []
        for sweep_seed, level in sweeps:
            label = f"miss -O{level} seed {sweep_seed}"
            result = outcome.attempt(
                lambda: _invoke(_sweep_args(store, sweep_seed, level), env, work, tracing,
                                f"r{index}-miss-O{level}"),
                label,
            )
            if result is None:
                continue
            elapsed, payload = result
            miss_times.append(elapsed)
            data["miss_s"] += elapsed
            data["jobs"] += payload["summary"]["computed"]
            _check_accounting(outcome, payload, label, (JOBS_PER_SWEEP, 0))
            _check_rows(outcome, payload, label)
            misses[level] = payload
        if miss_times:
            # One value per round over the whole fixed mix of sweeps, so the
            # median never falls between the -O1 and -O2 cost classes.
            data["miss_ms"].append(sum(miss_times) / len(miss_times) * 1e3)
        hit_times = []
        for sweep_seed, level in sweeps:
            label = f"hit -O{level} seed {sweep_seed}"
            result = outcome.attempt(
                lambda: _invoke(_sweep_args(store, sweep_seed, level), env, work, tracing,
                                f"r{index}-hit-O{level}", hit=True),
                label,
            )
            if result is None:
                continue
            elapsed, payload = result
            hit_times.append(elapsed)
            _check_accounting(outcome, payload, label, (0, JOBS_PER_SWEEP))
            if level in misses:
                outcome.check(_canonical_rows(payload) == _canonical_rows(misses[level]),
                              f"{label}: hit rows differ from the miss rows")
        if hit_times:
            data["hit_ms"].append(sum(hit_times) / len(hit_times) * 1e3)
        data["rounds"] += 1
    return data


def _invoke(args: List[str], env, work, tracing, tag: str, hit: bool = False):
    """One CLI invocation; returns (seconds, parsed JSON output)."""
    if tracing is None:
        argv = COMMAND + args
    else:
        stats = work.path / f"{tag}.stats.json"
        trace_file = work.path / f"{tag}.trace.jsonl"
        argv = TRACED_COMMAND + [str(stats), "--", *args, "--trace", str(trace_file)]
    elapsed, completed = run_child(argv, env)
    if completed.returncode != 0:
        raise RuntimeError(f"exit {completed.returncode}: {completed.stderr[-2000:]}")
    payload = json.loads(completed.stdout)
    if tracing is not None:
        snapshot = json.loads(stats.read_text(encoding="utf-8"))
        tracing.totals.add_snapshot(snapshot)
        tracing.totals.add_trace(trace_file)
        if hit:
            tracing.hit_compiles += snapshot["layers"].get("compiler.compile", [0])[0]
    return elapsed, payload
