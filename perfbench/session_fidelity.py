"""Workload ``session_fidelity``: repeated ``repro.primitives`` calls in one interpreter.

Each round's miss phase makes three calls in one :class:`Session` over the
same fixed circuit mix, each with a fresh seed so that every job misses:
one ``Sampler.run`` with shots and ``FidelityOptions``, one exact
``Estimator.run`` and one trajectory ``Estimator.run``.  The hit phase
repeats the three calls, each in a fresh ``Session`` on the same store.
Every operation is a whole call over the mix, because the circuits' costs
differ by three orders of magnitude.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

import reference
from harness import Rounds, own_peak_rss_mb, seed_list

#: Table IV plus qft/qaoa/ghz at 12 qubits (12 physical qubits at most on
#: the grid); sqrt is always its fixed 16-qubit instance.
MIX = ("qgan", "ising", "bv", "add1", "add2", "sqrt", "qft", "qaoa", "ghz")
QUBITS = 12
BACKEND = "digiq-opt8"
#: The deterministic lookahead router: at -O1 the stochastic router's seed
#: moves sqrt's gate count by up to 15%, and sqrt dominates every call.
OPT_LEVEL = 2
SHOTS = 2000
TRAJECTORIES = 2
REPLAY_MAX_QUBITS = 12
IN_PROCESS = True

_READY_PROBE = (
    "import sys\n"
    "from repro.primitives import Session\n"
    "from repro.runtime import ResultStore\n"
    "Session('digiq-opt8', store=ResultStore(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)


def setup_once(work, env, index: int) -> float:
    """Time from spawning an interpreter to its first ready ``Session``."""
    store = work.sub(f"setup-store-{index}")
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _READY_PROBE, str(store)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        _out, err = process.communicate(timeout=120)
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"session probe failed: {err[-2000:]}")
    return elapsed


def peak_rss_mb() -> float:
    return own_peak_rss_mb()


def _observables(rng, widths: Dict[str, int]):
    """A seeded two-term observable per circuit: a Z string and any Pauli string."""
    from repro.primitives import PauliObservable

    observables = []
    for name in MIX:
        width = widths[name]
        z_label = "".join(rng.choice("IZ") for _ in range(width))
        if "Z" not in z_label:
            z_label = "Z" + z_label[1:]
        any_label = "".join(rng.choice("IXYZ") for _ in range(width))
        observables.append(PauliObservable.from_terms([(z_label, 0.5), (any_label, 0.5)]))
    return observables


def _sources(seed: int) -> Dict[str, dict]:
    """The logical source circuits the program builds for one call."""
    from repro.runtime.spec import ExperimentSpec

    return {
        name: ExperimentSpec(benchmark=name, backend=BACKEND, num_qubits=QUBITS,
                             seed=seed).source_circuit().as_dict()
        for name in MIX
    }


def _replay(sources: Dict[str, dict]) -> Dict[str, np.ndarray]:
    return {
        name: reference.simulate(circuit) for name, circuit in sources.items()
        if circuit["num_qubits"] <= REPLAY_MAX_QUBITS
    }


class _Calls:
    """The three calls of a round: their seeds, inputs and source circuits."""

    def __init__(self, rng):
        from repro.runtime import CompileOptions, FidelityOptions

        self.seeds = dict(zip(("sample", "exact", "trajectories"), seed_list(rng, 3)))
        self.sources = {kind: _sources(self.seeds[kind]) for kind in ("sample", "exact")}
        widths = {name: circuit["num_qubits"]
                  for name, circuit in self.sources["exact"].items()}
        self.observables = _observables(rng, widths)
        self.fidelity = FidelityOptions(trajectories=TRAJECTORIES)
        self.compile = CompileOptions(opt_level=OPT_LEVEL)

    def make(self, kind: str, session):
        from repro.primitives import Estimator, Sampler

        seed = self.seeds[kind]
        if kind == "sample":
            return lambda: Sampler(session).run(
                list(MIX), shots=SHOTS, num_qubits=QUBITS, seed=seed,
                compile_options=self.compile, fidelity_options=self.fidelity,
            ).result()
        return lambda: Estimator(session).run(
            list(MIX), self.observables, method=kind, num_qubits=QUBITS, seed=seed,
            compile_options=self.compile, fidelity_options=self.fidelity,
        ).result()


def _cached_flags(kind: str, result) -> List[bool]:
    if kind == "sample":
        return [entry.cached for entry in result]
    return [entry.execution.cached for entry in result]


def _fingerprint(kind: str, result) -> str:
    """What a hit must reproduce exactly: rows and counts, or the values."""
    if kind == "sample":
        body = [[entry.row, entry.counts] for entry in result]
    else:
        body = [[entry.execution.row, entry.value, entry.std_error] for entry in result]
    return json.dumps(body, sort_keys=True)


def _check_sample(outcome, calls: "_Calls", result, replays) -> None:
    sources = calls.sources["sample"]
    for name, entry in zip(MIX, result):
        label = f"sample {name} seed {calls.seeds['sample']}"
        outcome.check(sum(entry.counts.values()) == SHOTS,
                      f"{label}: counts sum to {sum(entry.counts.values())}, not {SHOTS}")
        if name not in replays:
            continue
        probs = reference.probabilities(replays[name])
        impossible = [bits for bits in entry.counts if probs[int(bits, 2)] <= 1e-12]
        outcome.check(not impossible,
                      f"{label}: counts on zero-probability outcomes {impossible[:3]}")
        # Result rows carry ideal_success rounded to 6 decimals
        # (TrajectoryResult.as_row), so the replay is rounded the same way.
        ideal = entry.row.get("ideal_success")
        expected = round(float(probs.max()), 6)
        outcome.check(ideal is not None and abs(ideal - expected) <= 1e-9,
                      f"{label}: ideal_success {ideal} != replayed {expected}")
        if name == "bv":
            expected = reference.bv_expected_bitstring(sources[name])
            outcome.check(entry.counts == {expected: SHOTS},
                          f"{label}: counts {entry.counts} are not all on the secret {expected}")


def _check_estimates(outcome, calls: "_Calls", kind: str, result, replays) -> None:
    for name, observable, entry in zip(MIX, calls.observables, result):
        label = f"{kind} {name} seed {calls.seeds[kind]}"
        outcome.check(abs(entry.value) <= 1.0 + 1e-12, f"{label}: |value| {entry.value} > 1")
        if kind == "exact" and name in replays:
            expected = sum(coefficient * reference.pauli_expectation(replays[name], pauli)
                           for pauli, coefficient in observable.terms)
            outcome.check(abs(entry.value - expected) <= 1e-9,
                          f"{label}: value {entry.value} != replayed {expected}")


def run_phase(work, env, rng, outcome, deadline: float, tracing) -> Dict[str, object]:
    """Whole rounds until ``deadline``; ``tracing`` is set in the traced phase."""
    from repro.primitives import Session
    from repro.runtime import ResultStore

    store = ResultStore(work.sub("store-traced" if tracing else "store"))
    data = {"jobs": 0, "miss_s": 0.0, "miss_ms": [], "hit_ms": [], "rounds": 0}
    kinds = ("sample", "exact", "trajectories")
    for _ in Rounds(deadline):
        calls = _Calls(rng)
        misses = {}
        miss_times = []
        with Session(BACKEND, store=store) as session:
            for kind in kinds:
                label = f"miss {kind} seed {calls.seeds[kind]}"
                start = time.perf_counter()
                result = outcome.attempt(calls.make(kind, session), label)
                elapsed = time.perf_counter() - start
                if result is None:
                    continue
                miss_times.append(elapsed)
                data["miss_s"] += elapsed
                data["jobs"] += len(result)
                outcome.check(not any(_cached_flags(kind, result)),
                              f"{label}: served from cache although its seed is fresh")
                misses[kind] = result
        if miss_times:
            data["miss_ms"].append(sum(miss_times) / len(miss_times) * 1e3)

        before = tracing.tracer.snapshot() if tracing else None
        hit_times = []
        hits = {}
        for kind in kinds:
            label = f"hit {kind} seed {calls.seeds[kind]}"
            with Session(BACKEND, store=store) as session:
                start = time.perf_counter()
                result = outcome.attempt(calls.make(kind, session), label)
                elapsed = time.perf_counter() - start
            if result is None:
                continue
            hit_times.append(elapsed)
            hits[kind] = result
            outcome.check(all(_cached_flags(kind, result)), f"{label}: not served from the store")
        if tracing:
            after = tracing.tracer.snapshot()
            tracing.hit_compiles += (after["layers"].get("compiler.compile", [0])[0]
                                     - before["layers"].get("compiler.compile", [0])[0])
        if hit_times:
            data["hit_ms"].append(sum(hit_times) / len(hit_times) * 1e3)

        replays = {kind: _replay(calls.sources[kind]) for kind in ("sample", "exact")}
        for kind, result in misses.items():
            if kind == "sample":
                _check_sample(outcome, calls, result, replays["sample"])
            else:
                _check_estimates(outcome, calls, kind, result, replays.get(kind, {}))
            if kind in hits:
                outcome.check(_fingerprint(kind, hits[kind]) == _fingerprint(kind, result),
                              f"hit {kind} seed {calls.seeds[kind]}: differs from the miss")
        data["rounds"] += 1
    return data
