"""Partitioned execution via gather, execute, scatter.

Each part of a partition touches only its working set of ``w`` qubits, so
its gates act on inner vectors of ``2**w`` amplitudes. For every assignment
of the remaining ``n - w`` (free) qubits, the matching amplitudes are
gathered out of the full state, the part's gates run on that small dense
vector, and the results scatter back to the same positions. A part is
therefore ``2**(n - w)`` independent gather/execute/scatter passes, one
row of the staged block each. ``run_part`` stages the rows in chunks of
about ``statevec.CHUNK_AMPS`` amplitudes, so each chunk is gathered, run and
scattered while it sits in cache; it computes the identical amplitudes.
It reads that size from ``statevec`` at each call, as ``apply_op``'s
slabs and the pool's worker count do, so one setting sizes all three.
Every chunk is gathered through one index over the bits a chunk varies,
built once per ``run_part`` call, from an offset set by its fixed free
bits, so no index outgrows a chunk.

There is one execution regime. A part with more slots than ``width =
max(log2(CHUNK_AMPS), FUSE_WIDTH)`` runs as its pieces: one dagp call
(``partition._dagp``) cuts its ops into acyclic groups of at most
``width`` slots, and each runs, in the order dagp returns, as a part on
its own slots, at the part's positions of them. So a wide part is run
by the iterative construction and simulation of smaller state vectors,
as the paper runs each sub-circuit and as cache blocking does (Doi &
Horii, QCE 2020), and no plan's block is wider than
``max(CHUNK_AMPS, 2**FUSE_WIDTH)`` amplitudes. The part stays what its
callers see: its positions, layout, trace row and documents do not
change. A part on every qubit of at most ``width`` qubits is one chunk,
a view of the state, and runs the same plan: a one-part partition is
fusion without partitioning.

Every execution path is ``run_part`` on an ``ExecutablePart``.
``executable_parts`` checks a partition of either kind by
``check_partition``'s rule, the one its document reader applies, and
builds each level-1 part once, in qubit coordinates:
``remap_part`` rewrites its gates to slots of its staged block, and its
``positions`` are its qubits. A two-level part is its level-1 part, its
gates in program order: the level-2 partition is checked and written in
documents, but it neither stages, orders nor traces anything, since the
level-1 chunk already is the cache-sized vector and the kernels come from
the part's own gate DAG. Distributed execution
(``hisim.dist``) re-bases (``rebase``) the same parts onto rank buffers,
addressing qubits by their offset bits; a layout changes nothing but
``positions``.

A run's first vector is its first part's own. A run with no ``initial``
starts from |0…0⟩, amplitude 0 alone, so only one row of its first
part's block is not zero: the one whose free bits are all 0. That row
runs as a ``2**w`` vector of its own and is then written into the zero
state (``_zero_start``), so the first part stages one vector, not
``2**(n - w)`` rows. A first part on every qubit, or one wider than a
chunk, runs on the state, as does every part after the first and the
first part of a run from an explicit ``initial``. |0…0⟩ is amplitude 0 of
rank 0 in every layout, so a distributed run from it distributes nothing.

Within a part, a swap moves no amplitude: each one relabels the slots
after it (``_relabel``), the qubit relabelling of Häner & Steiger (SC17),
and the order a chunk leaves in takes up what it would have moved. A ZZ
term is a phase: a ``cx(a, b)`` conjugating diagonal gates on ``b`` is
dropped, and its closing ``cx`` becomes a ``crz`` (``_unconjugate``). The
other ops are grouped once (``_compile``), as Atlas kernelizes (Xu et
al., SC24): diagonal gates commute, so the members of each run of two or
more are free to move, but a gate on two qubits that other gates enclose
on one of them is pinned first. One dagp call (``partition._dagp``) then
cuts every other gate into acyclic groups of at most ``FUSE_WIDTH``
slots, over the DAG projected through the free gates. Each free gate
then joins a dense group that holds all its qubits where it may run, or
else a phase group just before the first group that must follow it,
which all the gates placed there share; the pinning leaves every free
gate one of the two. So a chunk takes one pass per group, not one per
gate, and a lone gate between two diagonal runs, such as qft's ``h``,
fuses with its neighbours instead of running alone. ``_plan`` then runs
the groups under a tracked bit order of the chunk and builds each kernel
once, in the bits it runs on. A dense group becomes one unitary, its
gates applied to the rows of the identity of its bits, and runs where
its slots sit when a product fits there: on the lowest bits, padded with
identity bits when they all sit below ``FUSE_WIDTH`` (a 2x2 on the
lowest bit to a 4x4), or in place from bit ``STRIDE_FLOOR`` up. Only
otherwise does one permute move its slots to the lowest bits, and the
same permute lifts the next unitary's slots to the highest bits: one
``np.take`` through a ``2**w`` gather index built with the plan. A phase
group is one ``2**w`` phase vector, built in closed form (``_phases``)
from its gates' diagonal entries, at a cost that does not grow with
their number, and a lone op that exchanges amplitudes runs as itself on
its bits; nothing is re-addressed after it is built. A plan
enters and leaves in its own bit orders: the gather takes the chunk's
columns in the order of the plan's first permute, and the scatter writes
the chunk back from the order the last kernel leaves it in, read through
the swaps' relabelling, by one transposed copy into a view of the state.
So each chunk is gathered and scattered once, no permute only restores
the identity, and a swap costs nothing. Only ``simulate_flat`` runs gate by
gate; it stays the oracle.

The chunks of a part are independent, so ``run_part`` runs them on every
CPU the process may use: the calling thread and one helper thread per
further CPU, at most one worker per chunk, each taking the next chunk
from one shared queue into its own gather and scratch buffers, so each
helper adds at most two chunks of memory. The pool is
``statevec._pool``, which the whole-state moves of ``hisim.dist``
share. The helpers are joined before the part returns. A part of one
chunk, and every part where numpy's BLAS thread count cannot be set, run
on the calling thread alone. numpy's BLAS is held to one thread while any
part runs, pooled or not (``statevec._one_blas_thread``): each worker's
products run on its own CPU, and a part on the calling thread starts no
BLAS threads, which stayed busy on the CPUs the next pooled part needed
(see ``_run_chunks``).
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import statevec
from .errors import VerificationError
from .partition import (
    MultiLevelPartition,
    Part,
    PartitionResult,
    _check,
    _dagp,
)
from .qasm import Circuit, GateKind, GateOp
from .statevec import (
    StateVector,
    _bit_view,
    _blas_threads,
    _one_blas_thread,
    _pool,
    apply_matrix,
    apply_op,
    diagonal_entries,
    is_dense,
    is_diagonal,
    simulate_flat,
    zero_state,
)

__all__ = [
    "ExecutablePart",
    "PartTrace",
    "ExecutionTrace",
    "bit_offsets",
    "part_block_indices",
    "remap_part",
    "rebase",
    "executable_parts",
    "run_part",
    "execute_hierarchical",
    "execute_multilevel",
    "max_deviation_from_flat",
    "check_deviation",
    "verify_against_flat",
    "VERIFY_ATOL",
]


#: largest amplitude deviation from the flat reference that verification
#: accepts
VERIFY_ATOL = 1e-10
#: most slots one fused dense unitary spans. Under dagp grouping (2 CPUs,
#: limit 14, min of 5-7 runs), 3 ran ising(22) and qaoa(20) 1.25-1.4x
#: slower; 5 cut multilevel qaoa(20) at 14/8 from 23 products and 24
#: permutes to 20 and 20 and ran within about 10% of 4, inside the
#: run-to-run spread, and qft as fast. A unitary whose bits all sit below
#: it is padded to the lowest bits.
FUSE_WIDTH = 4
#: lowest index bit a unitary's lowest bit may sit on to run in place as a
#: stack of ``(2**k, 2**bit)`` products (``apply_matrix``'s ``low``). For
#: a 2x2 on a 2**16-amplitude chunk of 2**14-amplitude rows (2 CPUs), a
#: product at bit 6 cost about as much as a permute to the lowest bits and
#: a product there, at bit 5 about 1.5x as much, from bit 7 up less. With
#: permutes by gather index, running every product on the lowest bits
#: instead read qft20-dist ``solve_s`` 0.131 s against 0.123 s and
#: qaoa20-multilevel 0.169 against 0.167 s (benchmarks/run.py, medians of
#: 8 alternating runs at ``--seconds 8``, 2 CPUs)
STRIDE_FLOOR = 6


# --- addressing -------------------------------------------------------------

def bit_offsets(bits: Sequence[int]) -> np.ndarray:
    """Offsets of all assignments of the given bit positions.

    Entry ``k`` is ``sum(2**bits[j] for set bits j of k)``: the outer index
    contribution of writing ``k``'s bits into positions ``bits``. With
    ``bits`` empty this is the single offset 0. Built by doubling: the
    entries with bit ``j`` set are those below ``2**j`` plus ``2**bits[j]``,
    so the whole array costs one pass and no temporary.
    """
    out = np.zeros(1 << len(bits), dtype=np.int64)
    for j, b in enumerate(bits):
        np.add(out[:1 << j], 1 << b, out=out[1 << j:2 << j])
    return out


def part_block_indices(num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Index matrix of shape (2**f, 2**w) over a ``num_qubits``-bit space.

    Row ``a`` holds the ``2**w`` outer indices whose bits at ``qubits``
    enumerate all inner values while the f free bits (the complement, in
    ascending order) spell the assignment ``a``: the inner vector of one
    gather/execute/scatter pass. ``run_part`` builds it over the bits one
    chunk varies only, numbered in order, and maps it to the state's bits
    through their ``bit_offsets``.
    """
    inside = set(qubits)
    if len(inside) != len(qubits):
        raise ValueError(f"duplicate positions in {qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"position {q} outside 0..{num_qubits - 1}")
    free = [q for q in range(num_qubits) if q not in inside]
    return bit_offsets(free)[:, None] + bit_offsets(list(qubits))[None, :]


# --- executable parts -------------------------------------------------------

@dataclass(frozen=True)
class ExecutablePart:
    """A part translated into the coordinates of the array it runs on.

    ``positions`` are the distinct bit positions of that array's last axis
    the part stages, in any order: slot ``i`` of the staged block sits on
    bit ``positions[i]``.
    ``ops`` are the part's gates, in the order they run, with their
    operands rewritten to slots of the block, the only form the compiler
    and the kernels see. A two-level part is its level-1 part
    (``executable_parts``).
    """

    positions: tuple[int, ...]
    ops: tuple[GateOp, ...]

    @property
    def num_slots(self) -> int:
        return len(self.positions)

    @cached_property
    def steps(self) -> Plan:
        """The plan every chunk runs (see ``_plan``): the ops, their swaps
        taken as relabellings and their ZZ terms as phases (``_relabel``),
        grouped (``_compile``), each group built once into a kernel on the
        bits it runs on, between the orders a chunk enters and leaves in;
        built on first use and reused by every later chunk and call."""
        ops, where = _relabel(self.ops, self.num_slots)
        return _plan(_compile(ops), self.num_slots, where)


def remap_part(circuit: Circuit, part: Part) -> ExecutablePart:
    """``part`` in qubit coordinates, ready for a full state (``rebase``
    moves it): slot ``i`` of its block and ``positions[i]`` are
    ``part.qubits[i]``, and each gate is rewritten once to ``GateOp(kind,
    slots, params)``; a gate on a qubit outside ``part.qubits`` raises
    ``KeyError``."""
    slot_of = {q: i for i, q in enumerate(part.qubits)}
    ops = tuple(_lift(circuit.ops[g], slot_of) for g in part.gate_indices)
    return ExecutablePart(part.qubits, ops)


def rebase(exe: ExecutablePart, position_of: Mapping[int, int]) -> ExecutablePart:
    """``exe`` on an array whose bit ``position_of[p]`` holds what bit ``p``
    of its current one does. Ops address slots, so only ``positions``
    change, in whatever order ``position_of`` puts them."""
    return replace(exe, positions=tuple(position_of[p] for p in exe.positions))


def executable_parts(
    circuit: Circuit, partition: PartitionResult | MultiLevelPartition
) -> Iterator[ExecutablePart]:
    """Check ``partition``, flat or two-level, by ``check_partition``'s
    rule (``PartitionError``), then build its level-1 parts in execution
    order, each once, in qubit coordinates, as the caller draws them; a
    finished part and its plan are then free to go.

    A two-level part is built from its level-1 part alone, its gates in
    program order: its kernels come from the gate DAG (``_compile``), so
    the level-2 partition orders nothing. It is checked and documented, but
    not staged: the level-1 chunk already is the cache-sized vector.
    """
    _check(circuit.ops, partition)
    return (remap_part(circuit, part) for part in partition.parts)


def _compile(ops: Sequence[GateOp]) -> list[tuple[str, list[GateOp]]]:
    """Ops on the slots of a block as groups ``(tag, ops)``, each tagged
    with the kernel ``_plan`` builds from it, each group's ops in program
    order: ``"phase"`` groups, of diagonal ops only, ``"dense"`` groups, on
    at most ``FUSE_WIDTH`` slots each, and ``"op"`` groups of one lone op
    that exchanges amplitudes (``x``, ``cx``, ``ccx``; a part's swaps never
    get here, ``_relabel``). One ``partition._dagp`` call groups them; an
    op wider than ``FUSE_WIDTH`` raises ``LimitTooSmallError`` there.

    Diagonal ops (``is_diagonal``) commute with each other, so the members
    of each run of two or more consecutive ones are free to move, between
    the last other op before them and the first after them on each of
    their slots. A free op on two slots that has other ops both before and
    after it on one slot is pinned first, as if not free, until none is
    left. dagp cuts every other op into acyclic groups of at most
    ``FUSE_WIDTH`` slots over the DAG projected through the free ops: the
    wires between the others, plus an edge ``u -> v`` whenever ``u -> d ->
    v`` through a free op ``d``. Each free op then joins the first of those
    groups that holds all its slots within its window (from its
    predecessors' last group to its successors' first), or else a
    ``"phase"`` group just before its successors' first group, or at the
    end when it has none; the free ops placed there share that group.

    Every free op has a place. The projected edges keep its predecessors'
    groups no later than its successors'. So only a group that holds both
    a predecessor and a successor leaves no room for a phase group between
    them, and then it holds all the op's slots: a 1-slot op's are those of
    its neighbours, and on a 2-slot op, which no pinning took, the
    predecessor sits on one slot and the successor on the other. No
    diagonal op spans three slots. A dagp group is ``"dense"`` when it
    holds several ops or one dense 1-qubit op (``is_dense``); one lone
    diagonal op is a ``"phase"`` group too, and any other lone op an
    ``"op"``.
    """
    free: set[int] = set()
    for diagonal, run in groupby(range(len(ops)), key=lambda i: is_diagonal(ops[i])):
        run = list(run)
        if diagonal and len(run) > 1:
            free.update(run)
    while True:
        before = _nearest(ops, free, range(len(ops)))
        after = _nearest(ops, free, reversed(range(len(ops))))
        pinned = {
            d for d in free
            if len(ops[d].qubits) > 1 and before[d].keys() & after[d].keys()
        }
        if not pinned:
            break
        free -= pinned
    through = [
        (u, v) for d in free for u in before[d].values() for v in after[d].values()
    ]
    fixed = [i for i in range(len(ops)) if i not in free]
    dense = _dagp(ops, fixed, FUSE_WIDTH, through)
    at = {i: k for k, group in enumerate(dense) for i in group}
    slots = [{s for i in group for s in ops[i].qubits} for group in dense]
    joined: list[list[int]] = [[] for _ in dense]
    phases: list[list[int]] = [[] for _ in range(len(dense) + 1)]
    for d in sorted(free):
        lo = max((at[u] for u in before[d].values()), default=0)
        hi = min((at[v] for v in after[d].values()), default=len(dense))
        home = next(
            (k for k in range(lo, min(hi + 1, len(dense)))
             if slots[k].issuperset(ops[d].qubits)),
            None,
        )
        if home is None:
            phases[hi].append(d)
        else:
            joined[home].append(d)
    groups = []
    for k, phase in enumerate(phases):
        if phase:
            groups.append(("phase", [ops[i] for i in phase]))
        if k < len(dense):
            group = [ops[i] for i in sorted(dense[k] + joined[k])]
            op = group[0]
            if len(group) > 1 or (len(op.qubits) == 1 and is_dense(op)):
                tag = "dense"
            else:
                tag = "phase" if is_diagonal(op) else "op"
            groups.append((tag, group))
    return groups


def _nearest(
    ops: Sequence[GateOp], free: set[int], order: Iterable[int]
) -> dict[int, dict[int, int]]:
    """For each free op, the op not in ``free`` met last, walking
    ``order``, on each of its slots that has one, by slot."""
    last: dict[int, int] = {}  # slot -> latest op not in free on it
    near = {}
    for i in order:
        if i in free:
            near[i] = {s: last[s] for s in ops[i].qubits if s in last}
        else:
            last.update(dict.fromkeys(ops[i].qubits, i))
    return near


def _lift(op: GateOp, to: Mapping[int, int] | Sequence[int]) -> GateOp:
    """``op`` with each operand ``s`` rewritten to ``to[s]``."""
    return GateOp(op.kind, tuple(to[s] for s in op.qubits), op.params)


def _relabel(ops: Sequence[GateOp], w: int) -> tuple[list[GateOp], list[int]]:
    """``ops`` on the slots of a ``2**w`` block without their swaps, and
    ``where``, with ``where[s]`` the slot that holds slot ``s`` after them.

    A swap moves no amplitude here: it exchanges two entries of ``where``,
    which starts as the identity, and every other op is lifted
    (``_lift``) through ``where`` as it stands. So the ops left leave slot
    ``s`` on slot ``where[s]``, where the swaps would have put it, and
    ``_plan`` folds ``where`` into the order a chunk leaves in, which the
    scatter writes back by the one transposed copy it makes anyway (the
    qubit relabelling of Häner & Steiger, SC17). The ops left then drop
    their conjugated diagonals (``_unconjugate``).
    """
    where = list(range(w))
    lifted = []
    swapped = False  # until the first swap, ops stay as they are
    for op in ops:
        if op.kind is GateKind.SWAP:
            a, b = op.qubits
            where[a], where[b] = where[b], where[a]
            swapped = True
        else:
            lifted.append(_lift(op, where) if swapped else op)
    return _unconjugate(lifted), where


def _unconjugate(ops: Sequence[GateOp]) -> list[GateOp]:
    """``ops`` with each ``cx(a, b)`` whose next op on slot ``a`` is the
    same ``cx(a, b)``, every op between them on slot ``b`` a 1-qubit
    diagonal (``is_diagonal``), dropped, and that second ``cx`` made a
    ``crz(a, b, -2 * phi)``, ``phi`` the sum of ``angle(d1 / d0)`` over
    those diagonals' entries (``diagonal_entries``). This is exact, since
    ``X diag(p, q) X = diag(p, q) rz(-2 arg(q / p))``, and turns a ZZ term
    ``cx rz cx`` into two diagonal ops, which are free to move
    (``_compile``).
    """
    out: list[GateOp | None] = list(ops)
    for i, op in enumerate(out):
        if op.kind is not GateKind.CX:
            continue
        a, b = op.qubits
        phi = 0.0
        for j in range(i + 1, len(out)):
            later = out[j]
            if a in later.qubits:
                if later == op:
                    out[i] = None
                    out[j] = GateOp(GateKind.CRZ, (a, b), (-2 * phi,))
                break
            if b in later.qubits:
                if len(later.qubits) > 1 or not is_diagonal(later):
                    break
                d0, d1 = diagonal_entries(later)
                # numpy's complex division: Python's can differ in the last bit
                phi += float(np.angle(np.complex128(d1) / d0))
    return [op for op in out if op is not None]


def _phases(ops: Sequence[GateOp], w: int) -> np.ndarray:
    """The ``2**w`` factors diagonal ``ops`` on bits of a ``2**w`` block
    scale its amplitudes by: what ``apply_op`` of each on a vector of ones
    leaves, in closed form.

    No diagonal op spans more than two bits, and one on two bits is
    controlled: with its two diagonal entries ``d0, d1``
    (``diagonal_entries``, read once), it scales by ``d0`` where its
    control is set and by ``d1`` where its target is set too. So the
    factor at index ``i`` is a base factor, times ``rise[b]`` for each set
    bit ``b``, times ``pair[a, b]`` for each pair of set bits ``a < b``: a
    1-bit op multiplies the base by ``d0`` and its bit's rise by ``d1 /
    d0``, a 2-bit op its control's rise by ``d0`` and its pair's factor by
    ``d1 / d0``. The vector is then built bit by bit from its first entry,
    the base: the entries with bit ``j`` set and no higher one are those
    below ``2**j`` times what bit ``j`` adds given the bits below it,
    ``rise[j]`` times ``pair[a, j]`` for each set bit ``a``, itself a
    ``2**j`` vector doubled in place from those factors. So the build
    costs ``O(2**w)`` work, ``O(w**2)`` numpy calls whatever the number of
    ops, and no scratch vector.
    """
    base: complex = 1
    rise: list[complex] = [1] * w
    pair: dict[tuple[int, int], complex] = {}
    for op in ops:
        d0, d1 = diagonal_entries(op)
        if len(op.qubits) == 1:
            base *= d0
            rise[op.qubits[0]] *= d1 / d0
        else:
            c, t = op.qubits
            rise[c] *= d0
            key = (min(c, t), max(c, t))
            pair[key] = pair.get(key, 1) * (d1 / d0)
    phase = np.empty(1 << w, dtype=np.complex128)
    phase[0] = base
    for j in range(w):
        n = 1 << j
        low, high = phase[:n], phase[n:2 * n]
        below = [a for a in range(j) if pair.get((a, j), 1) != 1]
        if not below:
            np.multiply(low, rise[j], out=high)
            continue
        high[:1 << below[0]] = rise[j]
        for a in range(below[0], j):
            m = 1 << a
            if a in below:
                np.multiply(high[:m], pair[a, j], out=high[m:2 * m])
            else:
                high[m:2 * m] = high[:m]
        high *= low
    return phase


def _slots(ops: Sequence[GateOp]) -> list[int]:
    return sorted({s for op in ops for s in op.qubits})


class Plan(NamedTuple):
    """What every chunk of a part runs (``_plan``): it enters with slot
    ``entry[j]`` at index bit ``j``, runs ``kernels`` in order, and leaves
    with slot ``exit[j]`` at bit ``j``, the part's swaps done."""

    entry: tuple[int, ...]
    kernels: list[tuple]
    exit: tuple[int, ...]


def _permute(order: Sequence[int], new: Sequence[int]) -> tuple:
    """The kernel that moves a block from bit order ``order`` to ``new``
    (``order[j]`` the slot at index bit ``j``): ``("permute", index)``,
    with ``index`` the block's gather index of ``np.take``. A block is at
    most ``max(CHUNK_AMPS, 2**FUSE_WIDTH)`` amplitudes (``run_part``'s
    pieces), so no index outgrows a chunk."""
    # bit j of the new order comes from the bit its slot sits on now
    return ("permute", bit_offsets([order.index(s) for s in new]))


def _plan(
    groups: list[tuple[str, list[GateOp]]], w: int, where: Sequence[int]
) -> Plan:
    """Groups of ops on the slots of a ``2**w`` block (``_compile``) as
    kernels ``(kind, arg)`` under a tracked bit order, ``order[j]`` the
    slot at index bit ``j``. Each kernel is built once, here, on the bits
    it runs on, from its group's ops, each lifted (``_lift``) from its
    slots to their bits.

    The order starts as the identity. A ``"dense"`` group on slots ``S``
    runs as ``("matmul", (t, u))``, one product on bits ``t`` to ``t + h -
    1`` (``apply_matrix``), where its slots sit when a product fits there:
    on the lowest bits (``t`` 0) when every bit of ``S`` is below
    ``FUSE_WIDTH``, up to the highest of them, and up to bit 1 when that
    is bit 0 and the block has one; or from the lowest bit of ``S`` when
    that is at least ``STRIDE_FLOOR`` and ``S`` spans at most
    ``FUSE_WIDTH`` bits. Otherwise a permute (``_permute``) first moves
    ``S`` to the lowest bits, in ascending order; the same move lifts the
    next dense group's slots to the highest bits when they are disjoint
    from ``S``, so that one can run in place; the other slots keep their
    order. ``u`` is the transpose of the ``2**h`` identity's rows with the
    ops applied (``apply_op``) on bits ``t`` and up. A ``"phase"`` group is
    ``("phase", vector)``, the factors its ops scale the whole block by,
    built in closed form (``_phases``), and an ``"op"`` group's one op an
    ``("op", op)`` on bits. The block is at most ``max(CHUNK_AMPS,
    2**FUSE_WIDTH)`` amplitudes, since a wider part runs as pieces
    (``run_part``), so no vector or index of a plan outgrows a chunk.

    A permute that would be the first kernel is not one: its order is the
    plan's entry order, which the gather produces. Nothing restores the
    identity order at the end: the order there, with each slot ``s`` read
    as the slot ``where`` (``_relabel``) moved to it, is the exit order,
    which the scatter takes back.
    """
    order = list(range(w))
    entry = order[:]
    kernels: list[tuple] = []

    def permute(new: list[int]) -> None:
        if kernels:
            kernels.append(_permute(order, new))
        else:
            entry[:] = new
        order[:] = new

    for i, (tag, ops) in enumerate(groups):
        bit_of = [order.index(s) for s in range(w)]  # slot s sits on bit_of[s]
        if tag == "op":
            kernels.extend(("op", _lift(op, bit_of)) for op in ops)
        elif tag == "phase":
            phase = _phases([_lift(op, bit_of) for op in ops], w)
            kernels.append(("phase", phase))
        else:
            slots = _slots(ops)
            bits = [bit_of[s] for s in slots]
            t = min(bits) if min(bits) >= STRIDE_FLOOR else 0
            if max(bits) - t >= FUSE_WIDTH:
                ahead = next((g for k, g in groups[i + 1:] if k == "dense"), [])
                top = [] if set(_slots(ahead)) & set(slots) else _slots(ahead)
                kept = [s for s in order if s not in slots and s not in top]
                permute([*slots, *kept, *top])
                bit_of = [order.index(s) for s in range(w)]
                bits, t = list(range(len(slots))), 0
            h = max(bits) + 1 - t
            if h == 1 and t == 0 and w > 1:
                # on a 2**16-amplitude chunk a 2x2 product on bit 0 took
                # 210-220 us, a 4x4 on bits 0-1 about 130 us (2 CPUs)
                h = 2
            rows = np.eye(1 << h, dtype=np.complex128)
            local = [b - t for b in bit_of]  # slot s on bit local[s] of u
            for op in ops:
                apply_op(rows, h, _lift(op, local))
            # row i now holds the image of basis vector i: rows is u
            # transposed. On a 2**16-amplitude chunk, products with a copy
            # of u in C order ran 3-5% faster than with rows.T (2 CPUs)
            kernels.append(("matmul", (t, rows.T.copy())))
    held = {p: s for s, p in enumerate(where)}  # slot p holds slot held[p]
    return Plan(tuple(entry), kernels, tuple(held[p] for p in order))


def _workers(chunks: int) -> int:
    """Threads ``run_part`` runs ``chunks`` chunks of a part on: those of
    the whole-state moves (``statevec._pool_workers``), but one where
    numpy's BLAS cannot be held to one thread (``statevec._blas_threads``),
    since every worker's products would then start BLAS threads of their
    own."""
    return 1 if _blas_threads() is None else statevec._pool_workers(chunks)


def run_part(data: np.ndarray, exe: ExecutablePart) -> None:
    """Gather, execute, and scatter one part on the last axis of ``data``.

    The last axis must have length ``2**m`` with every staged position
    below ``m``, the positions distinct, in any order; leading axes are batch,
    each entry run alike: the rank buffers of a distributed run
    (``hisim.dist``), or a batch of states.

    A part with more slots than ``width = max(log2(CHUNK_AMPS),
    FUSE_WIDTH)`` runs as its pieces. One ``partition._dagp`` call cuts
    its ops into acyclic groups of at most ``width`` slots, in execution
    order; each is a part on the ascending slots its ops use (``_slots``),
    its ops lifted to them (``_lift``), at the part's positions of those
    slots, and is staged as below, in turn. A piece is never wider than
    ``width``, so it is never cut again, and no row a plan runs on is
    wider than ``max(CHUNK_AMPS, 2**FUSE_WIDTH)`` amplitudes. Pieces are
    built as they run and are not kept. Any other part is staged itself:
    its block has one ``2**w`` row per batch entry and free-qubit
    assignment.

    The rows are independent, so they are staged, run and scattered back
    in chunks of about ``CHUNK_AMPS`` amplitudes: several batch entries
    per chunk when a batch entry is small, else a run of rows of one entry
    (a power of two of them, so the chunk's higher free bits are fixed),
    one row when a row is wider than that, which only a chunk smaller than
    ``2**FUSE_WIDTH`` allows (a whole-state part of at most ``width``
    qubits is one chunk, a view of ``data``). Each chunk runs the part's
    plan (``ExecutablePart.steps``, built once per part). It is gathered
    in the plan's entry order into a gather buffer, through one index
    over the bits a chunk varies, the part's positions and its ``k``
    lowest free bits, built once per call (``part_block_indices`` over
    ``w + k`` bits, mapped through those bits' ``bit_offsets``), from the
    offset its fixed higher free bits spell, and it leaves by one
    transposed copy from the plan's exit order into a view of ``data``.
    So no index holds more than a chunk's ``2**(w + k)`` amplitudes, or
    one row's where a row is wider. The plan's permutes, each one
    ``np.take`` through its gather index (``_permute``), and its products,
    on the lowest bits or in place higher up, alternate the chunk with a
    scratch buffer. The rows are cut at the part's highest position, every
    bit above it batch, so a part on the lowest bits of its array, in any
    order (positions a permutation of ``0..w-1``), builds no index matrix:
    each batch entry is a row, the chunks are views, and one more permute
    in front of its kernels takes a view from its own order, the slots in
    order of position, to the plan's entry order. Such a chunk would end on
    its view, out of its exit order, when its permutes and products are
    even in number; a gather buffer then takes the view's turn after the
    first of them, so it too leaves by one copy, except in a plan with no
    permute or product, where a plain copy into the scratch goes first. A
    part on the lowest bits whose plan has no permute or product and
    leaves in the view's own order allocates nothing.

    The chunks run on ``_workers`` threads by ``statevec._pool``, the
    pool of the whole-state moves too, each taking the next chunk from
    one shared queue until none is left: the calling thread, and one
    helper thread per further worker, started here and joined before the
    call returns, also when a chunk raises, whose error the call then
    raises. Each worker has its own gather and scratch buffers, allocated
    here once for all its chunks, as the plan needs them: so each helper
    adds at most two chunks to the call's memory. A part on one chunk or
    on one CPU, and every part where the BLAS thread count cannot be set,
    runs on the calling thread alone. Wherever the count can be set,
    numpy's BLAS is held to one thread while the part runs
    (``statevec._one_blas_thread``), on one worker too: each worker's
    products run on its own CPU, and a one-chunk part's products start no
    BLAS threads.
    """
    m = int(data.shape[-1]).bit_length() - 1
    if data.shape[-1] != 1 << m:
        raise ValueError(f"last axis {data.shape[-1]} is not a power of two")
    if not data.flags.c_contiguous:
        raise ValueError("data must be C-contiguous")
    positions = exe.positions
    if len(set(positions)) != len(positions):
        raise ValueError(f"positions {positions} repeat a bit")
    if positions and max(positions) >= m:
        raise ValueError(f"position {max(positions)} outside 0..{m - 1}")
    width = max(statevec.CHUNK_AMPS.bit_length() - 1, FUSE_WIDTH)
    if exe.num_slots <= width:
        _run_chunks(data, exe)
        return
    for group in _dagp(exe.ops, range(len(exe.ops)), width):
        slots = _slots([exe.ops[i] for i in group])
        to = {s: i for i, s in enumerate(slots)}
        ops = tuple(_lift(exe.ops[i], to) for i in group)
        _run_chunks(data, ExecutablePart(tuple(positions[s] for s in slots), ops))


def _run_chunks(data: np.ndarray, exe: ExecutablePart) -> None:
    """Stage a part of at most ``width`` slots on ``data`` (``run_part``,
    which checks both), with numpy's BLAS held to one thread wherever its
    thread count can be set, however many workers run.

    The hold covers one worker as well. A first part of one chunk whose
    products ran with the process's BLAS threads made every later, pooled
    part of ``qaoa20-multilevel`` take 1.5-1.8x as long (2 CPUs), likely
    since OpenBLAS's threads stay busy-waiting on the CPUs the pool needs.
    """
    positions = exe.positions
    w = exe.num_slots
    # split at the part's highest bit: the bits above it are batch too
    m = max(positions, default=-1) + 1
    flat = data.reshape(-1, 1 << m)
    plan = exe.steps
    kernels = plan.kernels
    rows = 1 << (m - w)  # rows per batch entry
    bstep = max(1, statevec.CHUNK_AMPS >> m)  # batch entries per chunk
    k = max(0, min(m - w, (statevec.CHUNK_AMPS >> w).bit_length() - 1))
    rstep = 1 << k  # rows of an entry per chunk; free bits 0..k-1 vary
    free = sorted(set(range(m)) - set(positions))
    staged = m > w
    # a view holds slot natural[j] at bit j: its slots in order of position
    natural = tuple(sorted(range(w), key=positions.__getitem__))
    if staged:
        # a chunk varies the part's positions and its lowest k free bits;
        # its higher free bits only offset the index
        varying = sorted([*positions, *free[:k]])
        entry = [varying.index(positions[s]) for s in plan.entry]
        gidx = bit_offsets(varying)[part_block_indices(w + k, entry)]
    elif plan.entry != natural:
        kernels = [_permute(natural, plan.entry), *kernels]
    # a phase row shorter than numpy's buffer multiplies through a fresh
    # iteration buffer per call on each worker; tiled over up to a buffer's
    # worth of rows, it needs none. A view part has one row per chunk
    # entry, so one under 13 slots keeps the buffer; no declared workload
    # has one
    tile = min(rstep, np.getbufsize() >> w)
    if tile > 1:
        kernels = [
            (kind, np.tile(arg, tile) if kind == "phase" else arg)
            for kind, arg in kernels
        ]
    # a leaving chunk's row index holds its slots in exit order, then its
    # free bits
    leave = _bit_view(flat, [*(positions[s] for s in plan.exit), *free])
    size = min(bstep, len(flat)) * rstep << w
    moves = sum(kind in ("permute", "matmul") for kind, _ in kernels)
    # a view that would be the last buffer written, out of order, must be
    # copied out to leave; after a first move it yields its turn to a
    # gather buffer instead
    stuck = not staged and moves % 2 == 0 and plan.exit != natural
    relay = stuck and moves > 0

    def buffers() -> tuple[np.ndarray | None, np.ndarray | None]:
        gathered = np.empty(size, dtype=data.dtype) if staged or relay else None
        spare = np.empty(size, dtype=data.dtype) if moves or stuck else None
        return gathered, spare

    chunks = deque(product(range(0, len(flat), bstep), range(0, rows, rstep)))

    def run(
        chunk: tuple[int, int],
        gathered: np.ndarray | None,
        spare: np.ndarray | None,
    ) -> None:
        b, r = chunk
        sub = flat[b:b + bstep]
        # the free bits above the chunk's rows are those of row r
        high = (r >> i & 1 for i in range(m - w - 1, k - 1, -1))
        dest = leave[(slice(b, b + bstep), *high)]
        if staged:
            cur = gathered[:dest.size].reshape(len(sub), rstep, 1 << w)
            base = sum(1 << p for j, p in enumerate(free[k:]) if r >> k + j & 1)
            # under the default mode="raise", np.take copies through a
            # temporary when given ``out``; the indices are all in range
            np.take(sub[:, base:], gidx, axis=1, out=cur, mode="clip")
        else:
            cur = sub
        if spare is not None:
            other = spare[:cur.size].reshape(cur.shape)
        back = gathered[:cur.size].reshape(cur.shape) if relay else sub
        for kind, arg in kernels:
            if kind == "phase":
                tiled = cur.reshape(-1, arg.size)
                tiled *= arg
            elif kind == "op":
                apply_op(cur, w, arg)
            else:
                if kind == "matmul":
                    apply_matrix(cur, arg[1], other, arg[0])
                else:
                    np.take(cur, arg, axis=-1, out=other, mode="clip")
                cur, other = other, back if cur is sub else cur
        if cur is sub and plan.exit != natural:
            other[...] = cur
            cur = other
        if cur is not sub:
            np.copyto(dest, cur.reshape(dest.shape))

    workers = _workers(len(chunks))
    held = [buffers() for _ in range(workers)]
    with nullcontext() if _blas_threads() is None else _one_blas_thread():
        _pool(chunks, run, held)


# --- instrumentation --------------------------------------------------------

@dataclass(frozen=True)
class PartTrace:
    """Cost record for one part, from its formula: how a part of its
    width is staged, not what ran or how long it took.

    ``gather_calls`` counts single-assignment gathers, one per free-qubit
    assignment, i.e. ``2**(n - num_qubits)``; the batched implementation
    moves the same amplitudes in one pass, and scatters them back as many
    times. One staged vector holds ``2**num_qubits`` amplitudes. The
    first part of a run with no ``initial`` stages one such vector
    (``_zero_start``), and its row keeps the formula, so trace logs do not
    depend on the start.
    """

    part_id: int
    num_qubits: int
    num_gates: int
    gather_calls: int


@dataclass
class ExecutionTrace:
    """Per-part staging costs for one partitioned run."""

    num_qubits: int
    parts: list[PartTrace] = field(default_factory=list)

    def part_rows(self) -> list[dict]:
        """One dict per part: part_id, w, iterations, gates."""
        return [
            {
                "part_id": p.part_id,
                "w": p.num_qubits,
                "iterations": p.gather_calls,
                "gates": p.num_gates,
            }
            for p in self.parts
        ]

    def to_json_lines(self) -> str:
        """Trace log: one JSON object per part, one per line."""
        return "\n".join(json.dumps(row) for row in self.part_rows())


def _trace(
    num_qubits: int, partition: PartitionResult | MultiLevelPartition
) -> ExecutionTrace:
    """The rows of the parts that run, ``partition``'s level-1 parts, in
    execution order: one per ``run_part`` call."""
    trace = ExecutionTrace(num_qubits)
    for part in partition.parts:
        w = len(part.qubits)
        trace.parts.append(
            PartTrace(part.id, w, len(part.gate_indices), 1 << (num_qubits - w))
        )
    return trace


# --- drivers ----------------------------------------------------------------

def _start_state(circuit: Circuit, initial: StateVector) -> StateVector:
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"initial state has {initial.num_qubits} qubits, "
            f"circuit has {circuit.num_qubits}"
        )
    return initial.copy()


def _zero_start(num_qubits: int, first: ExecutablePart | None) -> np.ndarray:
    """The ``2**num_qubits`` amplitudes of |0…0⟩ after ``first``, a run's
    first part, if there is one: the start of a run with no ``initial``.

    |0…0⟩ is amplitude 0 alone, so only the row of ``first``'s staged
    block that holds it, the one with every free bit 0, is not zero. When
    ``first`` leaves a qubit out and its ``2**w`` row fits a chunk
    (``CHUNK_AMPS``), that row runs as a vector of its own, on positions
    ``0..w-1``, and is written into the zero state at
    ``bit_offsets(first.positions)``; every other row is zero before the
    part and after it, and is never staged. The vector runs before the
    state is made, so the state's allocation follows the part's small
    ones, as a distributed start state's did. Any other first part runs
    on the state, so the extra vector is at most one chunk.
    """
    w = first.num_slots if first is not None else num_qubits
    if w == num_qubits or 1 << w > statevec.CHUNK_AMPS:
        data = zero_state(num_qubits).data
        if first is not None:
            run_part(data, first)
        return data
    vector = np.zeros(1 << w, dtype=np.complex128)
    vector[0] = 1
    run_part(vector, replace(first, positions=tuple(range(w))))
    data = zero_state(num_qubits).data
    data[bit_offsets(first.positions)] = vector
    return data


def execute_hierarchical(
    circuit: Circuit,
    partition: PartitionResult | MultiLevelPartition,
    *,
    initial: StateVector | None = None,
    with_trace: bool = False,
) -> StateVector | tuple[StateVector, ExecutionTrace]:
    """Run a partitioned circuit part by part on one full state vector.

    Level-1 parts execute in the given order, each as one ``run_part``
    pass; a two-level part runs as its level-1 part
    (``executable_parts``). With no ``initial``, the state is the zero
    state after the first part, which runs on its own ``2**w`` vector
    where it fits a chunk and leaves a qubit out (``_zero_start``); an
    ``initial`` is copied, and every part runs on the copy. An invalid
    partition raises ``PartitionError`` before any state is made. The
    trace has one row per part that ran, so a two-level run traces as its
    level-1 partition does.
    """
    plan = executable_parts(circuit, partition)
    n = circuit.num_qubits
    if initial is None:
        state = StateVector(n, _zero_start(n, next(plan, None)))
    else:
        state = _start_state(circuit, initial)
    for exe in plan:
        run_part(state.data, exe)
    if with_trace:
        return state, _trace(n, partition)
    return state


#: the same runner: a level-2 partition is checked and documented, but
#: each level-1 part's kernels come from its own gate DAG, so it changes
#: nothing that runs or is traced
execute_multilevel = execute_hierarchical


def max_deviation_from_flat(circuit: Circuit, state: StateVector) -> float:
    """Maximum absolute amplitude difference between ``state`` and the flat
    reference simulation of ``circuit``; NaN if either holds a NaN.

    The difference is taken in place in the reference, so beyond the
    reference it needs only the half-size array of magnitudes.
    """
    ref = simulate_flat(circuit, max_qubits=state.num_qubits).data
    np.subtract(ref, state.data, out=ref)
    return float(np.max(np.abs(ref)))


def check_deviation(err: float) -> float:
    """``err``, a maximum amplitude deviation from the flat reference, if it
    is below ``VERIFY_ATOL``; else (a NaN never is) ``VerificationError``."""
    if not err < VERIFY_ATOL:
        raise VerificationError(
            f"max amplitude deviation {err:.3e} is not below {VERIFY_ATOL:.1e}"
        )
    return err


def verify_against_flat(circuit: Circuit, state: StateVector) -> float:
    """Compare a partitioned result against the flat reference simulation.

    Returns the maximum absolute amplitude difference, after
    ``check_deviation`` accepts it.
    """
    return check_deviation(max_deviation_from_flat(circuit, state))
