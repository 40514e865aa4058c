"""Seeded random circuits over the full gate set, shared by the suites."""

from __future__ import annotations

import math
import random

from hisim.qasm import Circuit, GateKind, GateOp


#: each diagonal kind three times over, then every kind once, for
#: ``random_circuit``'s ``kinds``: most gates fall in diagonal runs, which
#: dense gates and swaps break up
DIAGONAL_HEAVY = 3 * (
    GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
    GateKind.RZ, GateKind.U1, GateKind.CZ, GateKind.CRZ,
) + tuple(GateKind)


def random_params(rng: random.Random, kind: GateKind) -> tuple[float, ...]:
    """The kind's angles, each uniform in [-pi, pi]."""
    return tuple(rng.uniform(-math.pi, math.pi) for _ in range(kind.num_params))


def random_circuit(
    rng: random.Random, n: int, num_ops: int, kinds=tuple(GateKind)
) -> Circuit:
    """``num_ops`` gates, each of a kind drawn uniformly from the entries of
    ``kinds`` that fit on ``n`` qubits (list a kind twice to draw it twice as
    often), on distinct random qubits, with random angles."""
    kinds = [k for k in kinds if k.arity <= n]
    ops = []
    for _ in range(num_ops):
        kind = rng.choice(kinds)
        qubits = tuple(rng.sample(range(n), kind.arity))
        ops.append(GateOp(kind, qubits, random_params(rng, kind)))
    return Circuit(n, tuple(ops))
