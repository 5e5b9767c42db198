"""An independent reference statevector simulator for the benchmark's checks.

It shares no code with ``repro.circuits.simulator``: it replays the gate
list of ``QuantumCircuit.as_dict()`` on a flat numpy vector with textbook
gate definitions, using only index arithmetic.  Basis index bit ``q`` is
qubit ``q``, so bitstrings put qubit 0 rightmost, as the program's counts
do.  It is meant for small registers (the checks replay at most 12 qubits).
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Sequence

import numpy as np

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_FIXED_1Q = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "h": _H,
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, cmath.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, cmath.exp(-1j * math.pi / 4)]),
}


def _rotation(name: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
    if name == "p":
        return np.diag([1, cmath.exp(1j * theta)])
    raise KeyError(name)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s],
         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


def _bit(index: np.ndarray, qubit: int) -> np.ndarray:
    return (index >> qubit) & 1


def _apply_1q(state: np.ndarray, index: np.ndarray, qubit: int, matrix: np.ndarray) -> None:
    low = index[_bit(index, qubit) == 0]
    high = low | (1 << qubit)
    a0, a1 = state[low].copy(), state[high].copy()
    state[low] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    state[high] = matrix[1, 0] * a0 + matrix[1, 1] * a1


def _flip(state: np.ndarray, index: np.ndarray, controls: Sequence[int], target: int) -> None:
    """Controlled-NOT with any number of controls (cx, ccx)."""
    mask = _bit(index, target) == 0
    for control in controls:
        mask &= _bit(index, control) == 1
    low = index[mask]
    high = low | (1 << target)
    state[low], state[high] = state[high].copy(), state[low].copy()


def apply_gate(state: np.ndarray, index: np.ndarray, name: str,
               qubits: Sequence[int], params: Sequence[float]) -> None:
    """Apply one gate of an ``as_dict()`` gate list to ``state`` in place."""
    if name in _FIXED_1Q:
        _apply_1q(state, index, qubits[0], _FIXED_1Q[name])
    elif name in ("rx", "ry", "rz", "p"):
        _apply_1q(state, index, qubits[0], _rotation(name, params[0]))
    elif name == "u3":
        _apply_1q(state, index, qubits[0], _u3(*params))
    elif name == "cx":
        _flip(state, index, qubits[:1], qubits[1])
    elif name == "ccx":
        _flip(state, index, qubits[:2], qubits[2])
    elif name in ("cz", "cp", "ccz"):
        both = np.ones(index.shape, dtype=bool)
        for qubit in qubits:
            both &= _bit(index, qubit) == 1
        state[both] *= cmath.exp(1j * params[0]) if name == "cp" else -1.0
    elif name == "rzz":
        odd = (_bit(index, qubits[0]) ^ _bit(index, qubits[1])) == 1
        state[odd] *= cmath.exp(0.5j * params[0])
        state[~odd] *= cmath.exp(-0.5j * params[0])
    elif name == "swap":
        a, b = qubits
        low = index[(_bit(index, a) == 1) & (_bit(index, b) == 0)]
        high = low ^ (1 << a) ^ (1 << b)
        state[low], state[high] = state[high].copy(), state[low].copy()
    else:
        raise KeyError(f"reference simulator has no gate '{name}'")


def simulate(circuit: Dict[str, object]) -> np.ndarray:
    """Final state of a circuit given as ``QuantumCircuit.as_dict()``."""
    num_qubits = int(circuit["num_qubits"])
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    index = np.arange(2**num_qubits)
    for name, qubits, params in circuit["gates"]:
        apply_gate(state, index, name, list(qubits), list(params))
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def pauli_expectation(state: np.ndarray, label: str) -> float:
    """``<psi|P|psi>`` for a Pauli string whose character ``i`` acts on qubit ``i``."""
    index = np.arange(state.size)
    flip = 0
    sign_mask = 0
    y_count = 0
    for qubit, pauli in enumerate(label):
        if pauli in "XY":
            flip |= 1 << qubit
        if pauli in "YZ":
            sign_mask |= 1 << qubit
        y_count += pauli == "Y"
    # P|j> = i^(#Y) (-1)^popcount(j & sign_mask) |j ^ flip>
    parity = np.zeros(index.shape, dtype=np.int64)
    bits = index & sign_mask
    while np.any(bits):
        parity ^= bits & 1
        bits = bits >> 1
    applied = np.zeros_like(state)
    applied[index ^ flip] = (1j**y_count) * np.where(parity == 1, -1.0, 1.0) * state
    return float(np.real(np.vdot(state, applied)))


def bv_expected_bitstring(circuit: Dict[str, object]) -> str:
    """The one outcome of a Bernstein-Vazirani circuit, read off its oracle.

    The oracle is the set of CX gates into the ancilla (the last qubit);
    their controls are the secret's one bits.  The ancilla ends in ``|1>``.
    """
    num_qubits = int(circuit["num_qubits"])
    ancilla = num_qubits - 1
    bits: List[str] = ["0"] * num_qubits
    bits[ancilla] = "1"
    for name, qubits, _params in circuit["gates"]:
        if name == "cx" and qubits[1] == ancilla:
            bits[qubits[0]] = "1"
    return "".join(reversed(bits))
