"""Partitioned execution via gather, execute, scatter.

Each part of a partition touches only its working set of ``w`` qubits, so
its gates act on inner vectors of ``2**w`` amplitudes. For every assignment
of the remaining ``n - w`` (free) qubits, the matching amplitudes are
gathered out of the full state, the part's gates run on that small dense
vector, and the results scatter back to the same positions. A part is
therefore ``2**(n - w)`` independent gather/execute/scatter passes; the
implementation performs them as one vectorized pass with the free
assignments as a batch axis, which computes the identical amplitudes.

Two-level partitions nest the same scheme: the level-1 inner vector plays
the role of the full state for the level-2 parts inside it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import VerificationError
from .partition import MultiLevelPartition, Part, PartitionResult
from .qasm import Circuit, GateOp
from .statevec import StateVector, apply_op, simulate_flat, zero_state

__all__ = [
    "QubitSlotMap",
    "ExecutablePart",
    "PartTrace",
    "ExecutionTrace",
    "bit_offsets",
    "part_block_indices",
    "gather",
    "scatter",
    "remap_part",
    "run_part",
    "execute_hierarchical",
    "execute_multilevel",
    "verify_against_flat",
]


# --- addressing -------------------------------------------------------------

@dataclass(frozen=True)
class QubitSlotMap:
    """Maps bit positions in an outer index space to dense inner slots.

    ``qubits`` lists the outer positions in strictly ascending order; slot
    ``i`` of the inner vector corresponds to ``qubits[i]``, so ascending
    outer position means ascending slot.
    """

    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.qubits, self.qubits[1:])):
            raise ValueError(f"positions not strictly ascending: {self.qubits}")
        if self.qubits and self.qubits[0] < 0:
            raise ValueError(f"negative position: {self.qubits[0]}")

    @property
    def num_slots(self) -> int:
        return len(self.qubits)

    def slot_of(self, q: int) -> int:
        i = bisect_left(self.qubits, q)
        if i == len(self.qubits) or self.qubits[i] != q:
            raise KeyError(f"position {q} not in slot map {self.qubits}")
        return i

    def global_of(self, slot: int) -> int:
        return self.qubits[slot]


def bit_offsets(bits: Sequence[int]) -> np.ndarray:
    """Offsets of all assignments of the given bit positions.

    Entry ``k`` is ``sum(2**bits[j] for set bits j of k)``: the outer index
    contribution of writing ``k``'s bits into positions ``bits``. With
    ``bits`` empty this is the single offset 0.
    """
    ks = np.arange(1 << len(bits), dtype=np.int64)
    out = np.zeros_like(ks)
    for j, b in enumerate(bits):
        out += ((ks >> np.int64(j)) & 1) << np.int64(b)
    return out


def part_block_indices(num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Index matrix of shape (2**f, 2**w) over a ``num_qubits``-bit space.

    Row ``a`` holds the ``2**w`` outer indices whose bits at ``qubits``
    enumerate all inner values while the f free bits (the complement, in
    ascending order) spell the assignment ``a``. Row ``a`` is exactly what
    ``gather`` with ``free_index=a`` reads.
    """
    inside = set(qubits)
    if len(inside) != len(qubits):
        raise ValueError(f"duplicate positions in {qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"position {q} outside 0..{num_qubits - 1}")
    free = [q for q in range(num_qubits) if q not in inside]
    return bit_offsets(free)[:, None] + bit_offsets(list(qubits))[None, :]


def gather(
    data: np.ndarray, num_qubits: int, qubits: Sequence[int], free_index: int
) -> np.ndarray:
    """Copy one inner vector out of a ``2**num_qubits`` amplitude array.

    Bit ``i`` of the inner index corresponds to ``qubits[i]``; the
    remaining positions, taken in ascending order, are frozen to the bits
    of ``free_index``.
    """
    row = _assignment_indices(num_qubits, qubits, free_index)
    return data[row].copy()


def scatter(
    data: np.ndarray,
    num_qubits: int,
    qubits: Sequence[int],
    free_index: int,
    inner: np.ndarray,
) -> None:
    """Write an inner vector back to the positions ``gather`` read it from."""
    row = _assignment_indices(num_qubits, qubits, free_index)
    if inner.shape != row.shape:
        raise ValueError(f"inner has shape {inner.shape}, need {row.shape}")
    data[row] = inner


def _assignment_indices(
    num_qubits: int, qubits: Sequence[int], free_index: int
) -> np.ndarray:
    inside = set(qubits)
    if len(inside) != len(qubits):
        raise ValueError(f"duplicate positions in {qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"position {q} outside 0..{num_qubits - 1}")
    free = [q for q in range(num_qubits) if q not in inside]
    if not 0 <= free_index < (1 << len(free)):
        raise ValueError(
            f"free_index {free_index} outside 0..{(1 << len(free)) - 1}"
        )
    base = sum(((free_index >> j) & 1) << b for j, b in enumerate(free))
    return np.int64(base) + bit_offsets(list(qubits))


# --- executable parts -------------------------------------------------------

@dataclass(frozen=True)
class ExecutablePart:
    """A part translated into inner-vector coordinates.

    ``ops`` keep their original (global) qubits for reference; the kernels
    consume ``op_slots``, the same operands as slots of the gathered
    vector. ``slot_map.qubits`` are outer bit positions, which equal global
    qubit ids except when a caller re-addresses them (a rank-local buffer,
    a level-1 inner vector).
    """

    part_id: int
    gate_indices: tuple[int, ...]
    slot_map: QubitSlotMap
    ops: tuple[GateOp, ...]
    op_slots: tuple[tuple[int, ...], ...]

    @property
    def num_slots(self) -> int:
        return self.slot_map.num_slots


def remap_part(
    circuit: Circuit,
    part: Part,
    *,
    position_of: Mapping[int, int] | None = None,
    stage_qubits: Iterable[int] | None = None,
) -> ExecutablePart:
    """Build the executable form of ``part``.

    ``position_of`` translates global qubit ids into the outer index space
    the part will run in (identity by default). ``stage_qubits`` widens the
    gathered set beyond the part's own qubits (global ids, must be a
    superset); gates still address their own operands, the extra qubits
    just ride along in the inner vector.
    """
    if stage_qubits is None:
        staged = part.qubits
    else:
        staged = tuple(sorted(stage_qubits))
        if not set(part.qubits) <= set(staged):
            raise ValueError(
                f"stage set {staged} does not cover part qubits {part.qubits}"
            )
    if position_of is None:
        positions = staged
    else:
        positions = tuple(sorted(position_of[q] for q in staged))
        if len(set(positions)) != len(staged):
            raise ValueError("position_of maps two staged qubits to one position")
    smap = QubitSlotMap(positions)

    def slot(q: int) -> int:
        return smap.slot_of(q if position_of is None else position_of[q])

    ops = tuple(circuit.ops[g] for g in part.gate_indices)
    op_slots = tuple(tuple(slot(q) for q in op.qubits) for op in ops)
    return ExecutablePart(part.id, part.gate_indices, smap, ops, op_slots)


def run_part(data: np.ndarray, exe: ExecutablePart) -> None:
    """Gather, execute, and scatter one part on the last axis of ``data``.

    The last axis must have length ``2**m`` with every staged position
    below ``m``; leading axes are batch and correspond to free qubits that
    some enclosing pass already gathered.
    """
    m = int(data.shape[-1]).bit_length() - 1
    if data.shape[-1] != 1 << m:
        raise ValueError(f"last axis {data.shape[-1]} is not a power of two")
    qubits = exe.slot_map.qubits
    if qubits and qubits[-1] >= m:
        raise ValueError(f"position {qubits[-1]} outside 0..{m - 1}")
    w = exe.num_slots
    if qubits == tuple(range(m)):
        for op, slots in zip(exe.ops, exe.op_slots):
            apply_op(data, w, op, slots)
        return
    gidx = part_block_indices(m, qubits)
    # fancy indexing with leading batch axes can hand back a non-C-order
    # array, which the in-place kernels reject
    block = np.ascontiguousarray(data[..., gidx])
    for op, slots in zip(exe.ops, exe.op_slots):
        apply_op(block, w, op, slots)
    data[..., gidx] = block


# --- instrumentation --------------------------------------------------------

@dataclass(frozen=True)
class PartTrace:
    """Cost record for one part: how it was staged, not how long it took.

    ``gather_calls`` counts single-assignment gathers, one per free-qubit
    assignment, i.e. ``2**(n - num_qubits)``; the batched implementation
    moves the same amplitudes in one pass. ``scatter_calls`` mirrors it.
    ``inner_bytes`` is the size of one staged vector, ``2**(num_qubits+4)``.
    """

    part_id: int
    level: int
    parent_id: int | None
    num_qubits: int
    num_gates: int
    gather_calls: int
    scatter_calls: int
    inner_bytes: int


@dataclass
class ExecutionTrace:
    """Per-part staging costs for one partitioned run."""

    num_qubits: int
    parts: list[PartTrace] = field(default_factory=list)

    @property
    def total_gather_calls(self) -> int:
        return sum(p.gather_calls for p in self.parts)

    @property
    def total_scatter_calls(self) -> int:
        return sum(p.scatter_calls for p in self.parts)

    def part_rows(self) -> list[dict]:
        """One dict per part: part_id, w, iterations, gates, plus nesting."""
        return [
            {
                "part_id": p.part_id,
                "w": p.num_qubits,
                "iterations": p.gather_calls,
                "gates": p.num_gates,
                "level": p.level,
                "parent_id": p.parent_id,
            }
            for p in self.parts
        ]

    def to_json_lines(self) -> str:
        """Trace log: one JSON object per part, one per line."""
        return "\n".join(json.dumps(row) for row in self.part_rows())

    def to_json(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "total_gather_calls": self.total_gather_calls,
            "total_scatter_calls": self.total_scatter_calls,
            "parts": self.part_rows(),
        }


def _trace_row(
    n: int, part_id: int, level: int, parent_id: int | None, w: int, gates: int
) -> PartTrace:
    calls = 1 << (n - w)
    return PartTrace(part_id, level, parent_id, w, gates, calls, calls, 1 << (w + 4))


# --- drivers ----------------------------------------------------------------

def _start_state(
    circuit: Circuit, initial: StateVector | None, max_qubits: int | None
) -> StateVector:
    if initial is None:
        return zero_state(circuit.num_qubits, max_qubits)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"initial state has {initial.num_qubits} qubits, "
            f"circuit has {circuit.num_qubits}"
        )
    return initial.copy()


def _check_covers(circuit: Circuit, parts: Sequence[Part]) -> None:
    seen = [g for p in parts for g in p.gate_indices]
    if len(seen) != circuit.num_ops or set(seen) != set(range(circuit.num_ops)):
        raise ValueError("partition does not cover the circuit exactly once")


def execute_hierarchical(
    circuit: Circuit,
    partition: PartitionResult,
    *,
    initial: StateVector | None = None,
    max_qubits: int | None = None,
    with_trace: bool = False,
) -> StateVector | tuple[StateVector, ExecutionTrace]:
    """Run a partitioned circuit part by part on one full state vector.

    Parts execute in the given order, each as a batched
    gather/execute/scatter pass. The partition must be valid (see
    ``check_partition``); only coverage is re-checked here.
    """
    _check_covers(circuit, partition.parts)
    n = circuit.num_qubits
    state = _start_state(circuit, initial, max_qubits)
    trace = ExecutionTrace(n)
    for part in partition.parts:
        exe = remap_part(circuit, part)
        run_part(state.data, exe)
        trace.parts.append(
            _trace_row(n, part.id, 1, None, part.working_set, len(part.gate_indices))
        )
    if with_trace:
        return state, trace
    return state


def execute_multilevel(
    circuit: Circuit,
    partition: MultiLevelPartition,
    *,
    initial: StateVector | None = None,
    max_qubits: int | None = None,
    with_trace: bool = False,
) -> StateVector | tuple[StateVector, ExecutionTrace]:
    """Run a two-level partition with nested gather/execute/scatter.

    Each level-1 part is gathered once; its level-2 parts then gather
    their padded qubit sets out of that inner vector (batched over the
    level-1 free assignments). A sublevel that is just the parent part
    itself needs no second staging and runs directly on the level-1
    vector, so its costs match single-level execution.
    """
    _check_covers(circuit, [p for sub in partition.sublevels for p in sub.parts])
    n = circuit.num_qubits
    state = _start_state(circuit, initial, max_qubits)
    trace = ExecutionTrace(n)
    for i, parent in enumerate(partition.level1.parts):
        sub = partition.sublevels[i]
        padded = partition.padded_qubits[i]
        w1 = parent.working_set
        trace.parts.append(
            _trace_row(n, parent.id, 1, None, w1, len(parent.gate_indices))
        )
        lone = len(sub.parts) == 1 and padded[0] == parent.qubits
        if lone:
            run_part(state.data, remap_part(circuit, sub.parts[0]))
            continue
        pmap = QubitSlotMap(parent.qubits)
        positions = {q: pmap.slot_of(q) for q in parent.qubits}
        gidx = part_block_indices(n, parent.qubits)
        block = state.data[gidx]
        for j, sp in enumerate(sub.parts):
            exe = remap_part(
                circuit, sp, position_of=positions, stage_qubits=padded[j]
            )
            run_part(block, exe)
            trace.parts.append(
                _trace_row(
                    n, sp.id, 2, parent.id, len(padded[j]), len(sp.gate_indices)
                )
            )
        state.data[gidx] = block
    if with_trace:
        return state, trace
    return state


def verify_against_flat(
    circuit: Circuit, state: StateVector, atol: float = 1e-10
) -> float:
    """Compare a partitioned result against the flat reference simulation.

    Returns the maximum absolute amplitude difference; raises
    ``VerificationError`` if it exceeds ``atol``.
    """
    ref = simulate_flat(circuit, max_qubits=state.num_qubits)
    err = float(np.max(np.abs(state.data - ref.data))) if state.data.size else 0.0
    if err > atol:
        raise VerificationError(
            f"max amplitude deviation {err:.3e} exceeds {atol:.1e}"
        )
    return err
