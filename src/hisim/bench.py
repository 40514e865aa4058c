"""Bundled benchmark circuits.

Standard textbook constructions (Bernstein-Vazirani, GHZ/cat preparation,
counterfeit-coin, transverse-field Ising steps, QFT, QAOA, Grover, a layered
quantum neural net ansatz, phase estimation, a Cuccaro ripple-carry adder)
regenerated at desk scale so partitioning and execution stay cheap in tests.
Each named circuit exists only as its factory: ``build(name)`` makes it,
for the tests and for ``hisim run NAME``, and ``to_qasm`` writes its text.

Controlled-phase gates outside the supported set are rewritten on the fly:
``cu1(t)`` becomes ``crz(t)`` plus ``u1(t/2)`` on the control, and the
Bernstein-Vazirani oracle of the 30-qubit circuit uses the ``h . cz . h``
form of CX on the ancilla.
"""

from __future__ import annotations

import math

from .qasm import Circuit, GateKind, GateOp

_PI = math.pi


def _op(kind: GateKind, *qubits: int, params: tuple[float, ...] = ()) -> GateOp:
    return GateOp(kind, tuple(qubits), params)


def bell() -> Circuit:
    """Two-qubit Bell pair: equal weight on 00 and 11."""
    return Circuit(2, (
        _op(GateKind.H, 0),
        _op(GateKind.CX, 0, 1),
    ))


def cat_state(n: int) -> Circuit:
    """n-qubit GHZ (cat) state via a CX ladder."""
    ops = [_op(GateKind.H, 0)]
    ops += [_op(GateKind.CX, i - 1, i) for i in range(1, n)]
    return Circuit(n, tuple(ops))


def bv(n: int, secret: str) -> Circuit:
    """Bernstein-Vazirani over n-1 data qubits plus the ancilla q[n-1].

    ``secret`` is a bitstring of length n-1; character i is the coefficient
    of data qubit i. The sampled bitstring of the data register equals the
    secret with probability one.
    """
    if len(secret) != n - 1 or set(secret) - {"0", "1"}:
        raise ValueError(f"secret must be a bitstring of length {n - 1}")
    anc = n - 1
    ops = [_op(GateKind.X, anc)]
    ops += [_op(GateKind.H, q) for q in range(n)]
    ops += [_op(GateKind.CX, i, anc) for i in range(n - 1) if secret[i] == "1"]
    ops += [_op(GateKind.H, q) for q in range(n - 1)]
    return Circuit(n, tuple(ops))


def bv_cz(n: int, secret: str) -> Circuit:
    """Bernstein-Vazirani with the oracle in controlled-phase form.

    Each secret bit contributes ``h anc; cz data,anc; h anc`` (the standard
    CX = H.CZ.H rewrite on the target), so the op count is
    1 + n + 3*popcount(secret) + (n-1).
    """
    if len(secret) != n - 1 or set(secret) - {"0", "1"}:
        raise ValueError(f"secret must be a bitstring of length {n - 1}")
    anc = n - 1
    ops = [_op(GateKind.X, anc)]
    ops += [_op(GateKind.H, q) for q in range(n)]
    for i in range(n - 1):
        if secret[i] == "1":
            ops += [
                _op(GateKind.H, anc),
                _op(GateKind.CZ, i, anc),
                _op(GateKind.H, anc),
            ]
    ops += [_op(GateKind.H, q) for q in range(n - 1)]
    return Circuit(n, tuple(ops))


def cc(n: int, fake: int) -> Circuit:
    """Counterfeit-coin query round: n-1 coins weighed against balance q[n-1].

    Static rendition of the balanced-scale query: every coin is entangled
    with the balance, the fake coin's phase is kicked back, and Hadamard
    layers decode the indicator.
    """
    k = n - 1
    if not 0 <= fake < k:
        raise ValueError(f"fake coin index {fake} outside [0, {k})")
    ops = [_op(GateKind.H, i) for i in range(k)]
    ops += [_op(GateKind.CX, i, k) for i in range(k)]
    ops.append(_op(GateKind.H, k))
    ops.append(_op(GateKind.CX, fake, k))
    ops += [_op(GateKind.H, i) for i in range(k)]
    ops.append(_op(GateKind.H, k))
    return Circuit(n, tuple(ops))


def ising(n: int, steps: int = 2) -> Circuit:
    """Trotterized 1D transverse-field Ising evolution on an open chain.

    Each step is an RX layer (field) followed by even then odd ZZ bonds,
    every bond compiled as cx/rz/cx.
    """
    ops: list[GateOp] = []
    for _ in range(steps):
        ops += [_op(GateKind.RX, q, params=(0.3,)) for q in range(n)]
        for parity in (0, 1):
            for i in range(parity, n - 1, 2):
                ops += [
                    _op(GateKind.CX, i, i + 1),
                    _op(GateKind.RZ, i + 1, params=(0.7,)),
                    _op(GateKind.CX, i, i + 1),
                ]
    return Circuit(n, tuple(ops))


def qft(n: int) -> Circuit:
    """Quantum Fourier transform with controlled phases as crz + u1 pairs."""
    ops: list[GateOp] = []
    for i in range(n):
        ops.append(_op(GateKind.H, i))
        for j in range(i + 1, n):
            theta = _PI / (1 << (j - i))
            ops.append(_op(GateKind.CRZ, j, i, params=(theta,)))
            ops.append(_op(GateKind.U1, j, params=(theta / 2,)))
    for i in range(n // 2):
        ops.append(_op(GateKind.SWAP, i, n - 1 - i))
    return Circuit(n, tuple(ops))


def _qaoa_edges(n: int) -> list[tuple[int, int]]:
    # circulant 3-regular graph: the ring plus antipodal chords (n even)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + n // 2) for i in range(n // 2)]
    return edges


def qaoa(n: int, layers: int = 2) -> Circuit:
    """MaxCut QAOA on a circulant 3-regular graph (ring plus chords).

    The antipodal chords keep distant qubits interacting, which is what makes
    program-order partitioning of this family hard.
    """
    if n % 2:
        raise ValueError("qaoa construction needs an even qubit count")
    ops = [_op(GateKind.H, q) for q in range(n)]
    for layer in range(layers):
        gamma = 0.4 + 0.15 * layer
        beta = 0.8 - 0.2 * layer
        for u, v in _qaoa_edges(n):
            ops += [
                _op(GateKind.CX, u, v),
                _op(GateKind.RZ, v, params=(2 * gamma,)),
                _op(GateKind.CX, u, v),
            ]
        ops += [_op(GateKind.RX, q, params=(2 * beta,)) for q in range(n)]
    return Circuit(n, tuple(ops))


def grover(num_data: int = 4, iters: int = 2) -> Circuit:
    """Grover search for the all-ones string over num_data=4 data qubits.

    Uses two AND ancillas plus a kickback qubit in the minus state; the
    oracle and the diffusion phase flip are both Toffoli trees.
    """
    if num_data != 4:
        raise ValueError("this construction is fixed at 4 data qubits")
    a0, a1, kick = 4, 5, 6
    data = range(4)

    def tree() -> list[GateOp]:
        return [
            _op(GateKind.CCX, 0, 1, a0),
            _op(GateKind.CCX, 2, 3, a1),
            _op(GateKind.CCX, a0, a1, kick),
            _op(GateKind.CCX, 2, 3, a1),
            _op(GateKind.CCX, 0, 1, a0),
        ]

    ops = [_op(GateKind.X, kick), _op(GateKind.H, kick)]
    ops += [_op(GateKind.H, q) for q in data]
    for _ in range(iters):
        ops += tree()
        ops += [_op(GateKind.H, q) for q in data]
        ops += [_op(GateKind.X, q) for q in data]
        ops += tree()
        ops += [_op(GateKind.X, q) for q in data]
        ops += [_op(GateKind.H, q) for q in data]
    return Circuit(7, tuple(ops))


def qnn(n: int, layers: int = 2) -> Circuit:
    """Layered variational ansatz: per-qubit RY/RZ rotations, then a CRY chain."""
    ops: list[GateOp] = []
    for layer in range(layers):
        ops += [
            _op(GateKind.RY, q, params=(0.1 * (layer * n + q + 1),))
            for q in range(n)
        ]
        ops += [
            _op(GateKind.RZ, q, params=(0.05 * (layer * n + q + 1),))
            for q in range(n)
        ]
        ops += [
            _op(GateKind.CRY, i, i + 1, params=(0.2 + 0.1 * layer,))
            for i in range(n - 1)
        ]
    return Circuit(n, tuple(ops))


def qpe(n: int) -> Circuit:
    """Phase estimation of u1(2*pi*5/16) on the target q[n-1].

    n-1 counting qubits, controlled powers as crz + u1 pairs, then the
    inverse QFT on the counting register.
    """
    k = n - 1
    phase = 2 * _PI * 5 / 16
    ops = [_op(GateKind.X, k)]
    ops += [_op(GateKind.H, q) for q in range(k)]
    for j in range(k):
        lam = phase * (1 << j)
        ops.append(_op(GateKind.CRZ, j, k, params=(lam,)))
        ops.append(_op(GateKind.U1, j, params=(lam / 2,)))
    for i in range(k // 2):
        ops.append(_op(GateKind.SWAP, i, k - 1 - i))
    for i in range(k - 1, -1, -1):
        for j in range(k - 1, i, -1):
            theta = -_PI / (1 << (j - i))
            ops.append(_op(GateKind.CRZ, j, i, params=(theta,)))
            ops.append(_op(GateKind.U1, j, params=(theta / 2,)))
        ops.append(_op(GateKind.H, i))
    return Circuit(n, tuple(ops))


def adder(bits: int = 4, a_val: int = 11, b_val: int = 6) -> Circuit:
    """Cuccaro ripple-carry adder: b <- a + b with carry-in q[0] and carry-out.

    Register layout interleaves the operands: q[1+2i] = b_i, q[2+2i] = a_i,
    and q[2*bits+1] is the carry-out. Inputs are loaded with X gates.
    """
    n = 2 * bits + 2
    cin, cout = 0, n - 1
    b = [1 + 2 * i for i in range(bits)]
    a = [2 + 2 * i for i in range(bits)]

    def maj(x: int, y: int, z: int) -> list[GateOp]:
        return [
            _op(GateKind.CX, z, y),
            _op(GateKind.CX, z, x),
            _op(GateKind.CCX, x, y, z),
        ]

    def uma(x: int, y: int, z: int) -> list[GateOp]:
        return [
            _op(GateKind.CCX, x, y, z),
            _op(GateKind.CX, z, x),
            _op(GateKind.CX, x, y),
        ]

    ops = [_op(GateKind.X, a[i]) for i in range(bits) if (a_val >> i) & 1]
    ops += [_op(GateKind.X, b[i]) for i in range(bits) if (b_val >> i) & 1]
    chain = [cin] + [a[i] for i in range(bits)]
    for i in range(bits):
        ops += maj(chain[i], b[i], a[i])
    ops.append(_op(GateKind.CX, a[-1], cout))
    for i in range(bits - 1, -1, -1):
        ops += uma(chain[i], b[i], a[i])
    return Circuit(n, tuple(ops))


# --- bundled registry -------------------------------------------------------

_FACTORIES = {
    "bell": bell,
    "bv_6": lambda: bv(6, "11111"),
    "bv_12": lambda: bv(12, "10110111001"),
    "bv_30": lambda: bv_cz(30, "01" * 14 + "0"),
    "cat_state_6": lambda: cat_state(6),
    "cc_8": lambda: cc(8, 3),
    "cc_12": lambda: cc(12, 5),
    "ising_8": lambda: ising(8),
    "ising_12": lambda: ising(12),
    "qaoa_8": lambda: qaoa(8),
    "qft_12": lambda: qft(12),
    "qnn_8": lambda: qnn(8),
    "grover_7": lambda: grover(),
    "qpe_9": lambda: qpe(9),
    "adder_10": lambda: adder(),
}

#: the benchmark families used by the oracle-gap evaluation
DESK_NAMES = (
    "bv_6", "bv_12", "cat_state_6", "cc_8", "cc_12", "ising_8", "ising_12",
    "qaoa_8", "qft_12", "qnn_8", "grover_7", "qpe_9", "adder_10",
)


def available() -> tuple[str, ...]:
    """Names of all bundled circuits."""
    return tuple(sorted(_FACTORIES))


def build(name: str) -> Circuit:
    """Construct a bundled circuit from its factory."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown bundled circuit {name!r}") from None
