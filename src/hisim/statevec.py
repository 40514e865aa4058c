"""Dense state-vector engine.

Amplitude indexing is little-endian: bit i of a basis index is the value of
qubit i, so a gate on qubit i pairs amplitudes at stride 2**i. A full
n-qubit vector holds 2**n complex128 amplitudes, 2**(n+4) bytes.

Kernels operate in place on arrays whose last axis is the state index;
leading batch axes let ``hisim.hier.run_part`` run every staged block of a
part at once, whether the blocks come from the full state, from a level-1
block (nested parts) or from rank buffers. Multi-qubit gates are applied
directly through control masking, never decomposed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import QubitCountOutOfRangeError
from .qasm import Circuit, GateKind, GateOp

#: default materialization cap (256 MiB); HISIM_MAX_QUBITS overrides
DEFAULT_MAX_QUBITS = 24
#: absolute ceiling on vector width; n=30 is 16 GiB
HARD_MAX_QUBITS = 30

_SQ2 = 1.0 / math.sqrt(2.0)

_CONST_1Q = {
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    GateKind.T: np.diag([1, np.exp(0.25j * np.pi)]).astype(np.complex128),
    GateKind.TDG: np.diag([1, np.exp(-0.25j * np.pi)]).astype(np.complex128),
}


def _rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]).astype(np.complex128)


def _u1(lam: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * lam)]).astype(np.complex128)


def _u3(t: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


_PARAM_1Q = {
    GateKind.RX: _rx,
    GateKind.RY: _ry,
    GateKind.RZ: _rz,
    GateKind.U1: _u1,
    GateKind.U3: _u3,
}

#: controlled kinds mapped to (base 1q kind or builder, number of controls)
_CONTROLLED = {
    GateKind.CX: (GateKind.X, 1),
    GateKind.CZ: (GateKind.Z, 1),
    GateKind.CRZ: (GateKind.RZ, 1),
    GateKind.CRY: (GateKind.RY, 1),
    GateKind.CCX: (GateKind.X, 2),
}


def _base_matrix(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    """The 2x2 acting on the target qubit (controls handled by masking)."""
    if kind in _CONTROLLED:
        kind = _CONTROLLED[kind][0]
    if kind in _CONST_1Q:
        return _CONST_1Q[kind]
    return _PARAM_1Q[kind](*params)


def gate_matrix(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """Full 2**arity unitary of a gate.

    Basis convention: the first operand is the most significant bit of the
    matrix index, so gate_matrix(CX) has its X block on the control=1
    subspace (rows/cols 2 and 3) and SWAP exchanges indices 1 and 2.
    """
    if kind is GateKind.SWAP:
        m = np.eye(4, dtype=np.complex128)
        m[[1, 2]] = m[[2, 1]]
        return m
    if kind in _CONTROLLED:
        base, num_controls = _CONTROLLED[kind]
        u = _base_matrix(base, params)
        dim = 1 << (num_controls + 1)
        m = np.eye(dim, dtype=np.complex128)
        m[dim - 2:, dim - 2:] = u
        return m
    return _base_matrix(kind, params)


# --- state vectors ----------------------------------------------------------

@dataclass
class StateVector:
    """A dense complex128 amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    data: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.data.copy())


def state_bytes(n: int) -> int:
    """Memory footprint of an n-qubit vector: 2**n amplitudes of 16 bytes."""
    return 1 << (n + 4)


def max_qubits_cap(max_qubits: int | None = None) -> int:
    """The active materialization cap: argument, else env, else default."""
    if max_qubits is None:
        env = os.environ.get("HISIM_MAX_QUBITS")
        max_qubits = int(env) if env else DEFAULT_MAX_QUBITS
    return min(max_qubits, HARD_MAX_QUBITS)


def zero_state(n: int, max_qubits: int | None = None) -> StateVector:
    """The all-zeros computational basis state |0...0>.

    Refuses n outside [1, cap]; the cap defaults to DEFAULT_MAX_QUBITS and
    can be raised via HISIM_MAX_QUBITS (ceiling HARD_MAX_QUBITS) to keep a
    stray 16 GiB allocation from happening by accident.
    """
    cap = max_qubits_cap(max_qubits)
    if not 1 <= n <= cap:
        detail = f", {state_bytes(n)} bytes" if n >= 1 else ""
        raise QubitCountOutOfRangeError(
            f"n={n} outside [1, {cap}] (cap from HISIM_MAX_QUBITS or "
            f"max_qubits, ceiling {HARD_MAX_QUBITS}{detail})"
        )
    data = np.zeros(1 << n, dtype=np.complex128)
    data[0] = 1.0
    return StateVector(n, data)


# --- kernels ----------------------------------------------------------------

def _apply_1q(arr: np.ndarray, w: int, u: np.ndarray, t: int) -> None:
    """Apply a 2x2 to slot t of every w-qubit block in arr (last axis 2**w)."""
    v = arr.reshape(-1, 2, 1 << t)
    a = v[:, 0, :]
    b = v[:, 1, :]
    if u[0, 1] == 0 and u[1, 0] == 0:
        if u[0, 0] != 1.0:
            a *= u[0, 0]
        if u[1, 1] != 1.0:
            b *= u[1, 1]
        return
    na = u[0, 0] * a + u[0, 1] * b
    v[:, 1, :] = u[1, 0] * a + u[1, 1] * b
    v[:, 0, :] = na


def _control_view(arr: np.ndarray, w: int, controls: tuple[int, ...]):
    """View of arr restricted to all control slots = 1.

    Returns (view, axis_of) where axis_of maps a remaining slot to its axis
    in the view. Basic slicing only, so writes hit arr.
    """
    batch = arr.size >> w
    v = arr.reshape((batch,) + (2,) * w)
    index: list = [slice(None)] * (w + 1)
    for c in controls:
        index[1 + (w - 1 - c)] = 1
    view = v[tuple(index)]

    def axis_of(slot: int) -> int:
        # axis 0 is the batch; control axes vanish on integer indexing
        dropped = sum(1 for c in controls if c > slot)
        return 1 + (w - 1 - slot) - dropped

    return view, axis_of


def _apply_controlled(
    arr: np.ndarray, w: int, u: np.ndarray, t: int, controls: tuple[int, ...]
) -> None:
    """Apply a controlled 2x2: target slot t fires when all controls are 1."""
    view, axis_of = _control_view(arr, w, controls)
    m = np.moveaxis(view, axis_of(t), 0)
    a = m[0]
    b = m[1]
    if u[0, 1] == 0 and u[1, 0] == 0:
        if u[0, 0] != 1.0:
            a *= u[0, 0]
        if u[1, 1] != 1.0:
            b *= u[1, 1]
        return
    na = u[0, 0] * a + u[0, 1] * b
    m[1] = u[1, 0] * a + u[1, 1] * b
    m[0] = na


def _apply_swap(arr: np.ndarray, w: int, s0: int, s1: int) -> None:
    """Exchange slots s0 and s1 of every block."""
    batch = arr.size >> w
    v = arr.reshape((batch,) + (2,) * w)
    i01: list = [slice(None)] * (w + 1)
    i10: list = [slice(None)] * (w + 1)
    i01[1 + (w - 1 - s0)], i01[1 + (w - 1 - s1)] = 0, 1
    i10[1 + (w - 1 - s0)], i10[1 + (w - 1 - s1)] = 1, 0
    tmp = v[tuple(i01)].copy()
    v[tuple(i01)] = v[tuple(i10)]
    v[tuple(i10)] = tmp


def apply_op(arr: np.ndarray, w: int, op: GateOp, slots: tuple[int, ...] | None = None) -> None:
    """Apply one gate in place to every w-qubit block of ``arr``.

    ``arr`` is any array whose last axis has length 2**w (leading axes are
    batch). ``slots`` overrides the op's qubits with block-local slot
    positions; by default the op's qubits are used directly.
    """
    if not arr.flags.c_contiguous:
        # the kernels write through reshaped views; a non-contiguous array
        # would silently reshape into a copy and drop the writes
        raise ValueError("arr must be C-contiguous")
    q = slots if slots is not None else op.qubits
    if op.kind is GateKind.SWAP:
        _apply_swap(arr, w, q[0], q[1])
        return
    u = _base_matrix(op.kind, op.params)
    if op.kind in _CONTROLLED:
        num_controls = _CONTROLLED[op.kind][1]
        _apply_controlled(arr, w, u, q[num_controls], tuple(q[:num_controls]))
    else:
        _apply_1q(arr, w, u, q[0])


def apply_gate(state: StateVector, op: GateOp) -> None:
    """Apply one gate to a full state vector in place."""
    apply_op(state.data, state.num_qubits, op)


def simulate_flat(circuit: Circuit, max_qubits: int | None = None) -> StateVector:
    """Reference simulation: apply every gate in program order to |0...0>.

    This is the oracle every partitioned execution path is checked against.
    """
    state = zero_state(circuit.num_qubits, max_qubits)
    for op in circuit.ops:
        apply_op(state.data, state.num_qubits, op)
    return state


# --- state dumps ------------------------------------------------------------

def save_state(state: StateVector, path: str | Path) -> None:
    """Write amplitudes as little-endian float64 (re, im) pairs plus a JSON
    sidecar ``<path>.json`` carrying num_qubits and the norm."""
    path = Path(path)
    state.data.astype("<c16").tofile(path)
    sidecar = {"num_qubits": state.num_qubits, "norm": state.norm()}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_state(path: str | Path) -> StateVector:
    """Read a dump written by save_state, checking the sidecar against it."""
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    n = int(meta["num_qubits"])
    data = np.fromfile(path, dtype="<c16")
    if data.size != 1 << n:
        raise ValueError(
            f"dump holds {data.size} amplitudes, expected {1 << n}"
        )
    return StateVector(n, data.astype(np.complex128))
