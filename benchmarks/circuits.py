"""Workload inputs as OpenQASM text, generated from (family, n, depth, seed).

This module does not import hisim: the program under test receives only the
text. Seed 0 writes exactly the circuits of ``hisim.bench`` (same gate
order, operands and angles). Any other seed relabels the qubits with a
seeded permutation and draws fresh rotation angles, which keeps the gate
count, the gate-kind histogram and the interaction graph's shape.
"""

from __future__ import annotations

import math
import random

FAMILIES = ("ising", "qft", "qaoa")


class _Writer:
    """Collects gate lines under a qubit relabelling and an angle source."""

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self.lines = [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            f"qreg q[{n}];",
        ]
        self.rng = random.Random(seed) if seed else None
        self.label = list(range(n))
        if self.rng is not None:
            self.rng.shuffle(self.label)

    def angle(self, default: float) -> float:
        """The package's angle at seed 0, else a fresh draw in (0, 2*pi)."""
        if self.rng is None:
            return default
        return self.rng.uniform(0.0, 2 * math.pi)

    def gate(self, name: str, *qubits: int, params: tuple[float, ...] = ()) -> None:
        head = name + ("(" + ",".join(repr(p) for p in params) + ")" if params else "")
        operands = ",".join(f"q[{self.label[q]}]" for q in qubits)
        self.lines.append(f"{head} {operands};")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _ising(w: _Writer, steps: int) -> None:
    n = w.n
    for _ in range(steps):
        for q in range(n):
            w.gate("rx", q, params=(w.angle(0.3),))
        for parity in (0, 1):
            for i in range(parity, n - 1, 2):
                w.gate("cx", i, i + 1)
                w.gate("rz", i + 1, params=(w.angle(0.7),))
                w.gate("cx", i, i + 1)


def _qft(w: _Writer) -> None:
    n = w.n
    for i in range(n):
        w.gate("h", i)
        for j in range(i + 1, n):
            theta = w.angle(math.pi / (1 << (j - i)))
            w.gate("crz", j, i, params=(theta,))
            w.gate("u1", j, params=(theta / 2,))
    for i in range(n // 2):
        w.gate("swap", i, n - 1 - i)


def _qaoa(w: _Writer, layers: int) -> None:
    n = w.n
    if n % 2:
        raise ValueError("qaoa construction needs an even qubit count")
    # circulant 3-regular graph: the ring plus antipodal chords
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + n // 2) for i in range(n // 2)]
    for q in range(n):
        w.gate("h", q)
    for layer in range(layers):
        gamma = 0.4 + 0.15 * layer
        beta = 0.8 - 0.2 * layer
        for u, v in edges:
            w.gate("cx", u, v)
            w.gate("rz", v, params=(w.angle(2 * gamma),))
            w.gate("cx", u, v)
        for q in range(n):
            w.gate("rx", q, params=(w.angle(2 * beta),))


def qasm_text(family: str, n: int, depth: int, seed: int) -> str:
    """OpenQASM 2.0 source of one workload circuit.

    ``depth`` is the Trotter step count for ``ising``, the layer count for
    ``qaoa`` and ignored for ``qft``.
    """
    w = _Writer(n, seed)
    if family == "ising":
        _ising(w, depth)
    elif family == "qft":
        _qft(w)
    elif family == "qaoa":
        _qaoa(w, depth)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return w.text()
