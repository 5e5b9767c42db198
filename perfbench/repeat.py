"""Same-code repeat: run every workload many times on one tree and report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/repeat.py                      # 10 runs per workload
    python3 perfbench/repeat.py --runs 5 --workloads session_fidelity
    python3 perfbench/repeat.py --sets 2 --out repeat.jsonl

Each run is ``perfbench/run.py`` with its own ``--seed`` and the run length
of ``BENCHMARK.json``.  Per workload and end-to-end metric the report gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` against the metric's bound; with ``--sets 2``
it also gives how far the second set's median moved from the first (as a
share of the smaller of the two), signed so that a positive shift is a move in the metric's worse direction, and
whether the failed share repeated exactly.  The tree counts as steady only
when every spread, ``setup_s`` included, and every shift in either
direction stay within the metric's bound.  These are the figures the bounds
in ``BENCHMARK.json`` were set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def report(config: dict, results: dict, sets: int) -> bool:
    """Print the table; True when every spread and shift holds its bound."""
    steady = True
    for workload in results:
        print(f"\n{workload}")
        print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'shift':>8}")
        for entry in config["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            medians = []
            for index in range(sets):
                values = [run["metrics"][name]["value"] for run in results[workload][index]]
                med, q1, q3, width = spread(values)
                medians.append(med)
                shift = ""
                if index:
                    # Relative to the smaller median, so that the figure
                    # does not depend on which set ran first.
                    moved = (med - medians[0]) / min(med, medians[0])
                    worse = moved if entry["better"] == "lower" else -moved
                    shift = f"{worse:+8.3f}"
                    steady &= abs(worse) <= bound
                steady &= width <= bound
                print(f"  {name:<14} {index + 1:>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{width:>8.3f} {bound:>6.2f} {shift:>8}")
        shares = {
            round(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs), 12)
            for runs in results[workload]
        }
        incorrect = sum(not r["correct"] for runs in results[workload] for r in runs)
        print(f"  failed share per set: {sorted(shares)}; incorrect runs: {incorrect}")
        steady &= len(shares) == 1 and incorrect == 0
    return steady


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description="Repeat every workload on one tree.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", default=None, help="append every run's result as JSONL")
    args = parser.parse_args(argv)

    results = {workload: [[] for _ in range(args.sets)] for workload in args.workloads}
    for set_index in range(args.sets):
        for workload in args.workloads:
            for run in range(args.runs):
                seed = args.seed_base + set_index * args.runs + run
                result = run_once(workload, seed, config["run_seconds"])
                results[workload][set_index].append(result)
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps({"set": set_index, "workload": workload,
                                                 "seed": seed, "result": result}) + "\n")
    steady = report(config, results, args.sets)
    print("\nsteady" if steady else "\nNOT steady: a spread or shift exceeds its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
