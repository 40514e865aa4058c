"""Emulated multi-rank execution with communication accounting.

A ``p``-bit rank space splits the ``n`` global qubits into ``n - p`` offset
bits and ``p`` rank bits: every amplitude lives on the rank spelled by its
qubit values at the rank-bit positions, at the local offset spelled by the
rest. Which qubits play which role is a layout, and each part runs under a
layout that keeps the part's whole working set in the offset bits, so its
gates never cross ranks. Inside a layout the part runs through the same
``hisim.hier.run_part`` as hierarchical execution, on all rank buffers at
once: each part is built once by ``hisim.hier.executable_parts``, in qubit
coordinates, and ``hisim.hier.rebase`` moves its positions to the offset
bits that hold its qubits, in whatever order the layout keeps them. A
two-level part is its level-1 part, so only level-1 parts choose
layouts, and level-2 parts are not staged. Between parts the layout
changes and amplitudes move. The move is one permutation of the index
bits, applied as an axis transpose: one transposing copy into a new
array (``statevec._permute_bits``), as the distribution of the start
state and the assembly of the final one are, each on every CPU the
process may use, its workers copying disjoint slabs of the new array of
at most half a chunk each (``statevec._slabs``), through the pool of
``run_part``'s chunks. Its communication counts follow in closed form
from the same permutation, and every remote amplitude is charged 16
bytes (one complex128). The per-switch numbers live on
``CommStats.switches``, one ``SwitchStats`` per switch, derived from the
plan in one pass.

All ranks are emulated in one process as rows of a single array, which
makes the accounting exact and the final state directly comparable with
the flat reference. The rank buffers are batch rows of ``run_part``, so
the chunks of every rank run on its one pool of threads, one per CPU,
not on a pool per rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import LayoutMismatchError, PartTooWideForLayoutError
from .hier import _start_state, executable_parts, rebase, run_part
# not called here: benchmarks/layers.py traces them under these names
from .hier import part_block_indices, remap_part  # noqa: F401
from .partition import MultiLevelPartition, PartitionResult
from .qasm import Circuit
from .statevec import StateVector, _permute_bits

__all__ = [
    "RankLayout",
    "choose_layout",
    "RedistributionPlan",
    "plan_redistribution",
    "SwitchStats",
    "CommStats",
    "DistributedRun",
    "distribute_state",
    "assemble_state",
    "simulate_distributed",
    "BYTES_PER_AMPLITUDE",
]

BYTES_PER_AMPLITUDE = 16


# --- layouts ----------------------------------------------------------------

@dataclass(frozen=True)
class RankLayout:
    """Assignment of global qubits to offset bits and rank bits.

    ``local[j]`` is the qubit stored in offset bit ``j`` and ``process[k]``
    the qubit spelled by rank bit ``k``, in any order; together they hold
    every qubit once. ``choose_layout`` builds both ascending.
    """

    num_qubits: int
    local: tuple[int, ...]
    process: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = sorted(self.local + self.process)
        if seen != list(range(self.num_qubits)):
            raise ValueError("local and process must partition the qubits")

    @property
    def num_rank_bits(self) -> int:
        return len(self.process)

    @property
    def num_ranks(self) -> int:
        return 1 << len(self.process)

    @property
    def num_local_qubits(self) -> int:
        return len(self.local)

    @property
    def storage_order(self) -> tuple[int, ...]:
        """Qubit held by each bit of the flat position
        ``rank * 2**l + offset``, fastest first."""
        return self.local + self.process


def choose_layout(
    num_qubits: int, num_rank_bits: int, qubits: Sequence[int]
) -> RankLayout:
    """Layout that keeps ``qubits``, a part's working set, local.

    The qubits are padded with the lowest-numbered remaining qubits up to
    ``num_qubits - num_rank_bits`` locals; everything else becomes a rank
    bit.
    """
    if not 0 <= num_rank_bits <= num_qubits:
        raise ValueError(f"rank bits {num_rank_bits} outside 0..{num_qubits}")
    l = num_qubits - num_rank_bits
    if len(qubits) > l:
        raise PartTooWideForLayoutError(
            f"part on qubits {tuple(qubits)} needs {len(qubits)} local "
            f"qubits, only {l} available with {num_rank_bits} rank bits on "
            f"{num_qubits} qubits"
        )
    local = set(qubits)
    for q in range(num_qubits):
        if len(local) == l:
            break
        local.add(q)
    process = tuple(q for q in range(num_qubits) if q not in local)
    return RankLayout(num_qubits, tuple(sorted(local)), process)


# --- bit permutations ------------------------------------------------------

def _bit_permutation(
    src: Sequence[int], dst: Sequence[int]
) -> tuple[int, ...]:
    """sigma with ``sigma[i]`` the bit of ``dst`` that holds the qubit in
    bit ``i`` of ``src``; both list the qubit held by each bit, fastest
    first."""
    bit_of = {q: j for j, q in enumerate(dst)}
    return tuple(bit_of[q] for q in src)


# --- redistribution ---------------------------------------------------------

@dataclass(frozen=True)
class RedistributionPlan:
    """How every amplitude moves when the layout changes.

    A layout stores the amplitude with global index ``g`` at flat position
    ``rank * 2**l + offset``, whose bit ``i`` is the qubit
    ``storage_order[i]`` of ``g``. A switch is therefore the bit permutation
    ``sigma`` between the old and new storage orders, and its run count
    follows from it in closed form. A run is a maximal stretch of
    consecutive source positions on one source rank that lands on one
    destination rank at consecutive offsets. The switch's other numbers
    are ``SwitchStats.from_plan``'s.
    """

    old: RankLayout
    new: RankLayout
    sigma: tuple[int, ...]

    @property
    def num_runs(self) -> int:
        """Runs from the break rule between source positions s and s + 1.

        With t the number of trailing ones of s, the step flips bits
        ``0..t``: the source rank changes if ``t >= l``, and the
        destination advances by ``2**sigma[t] - sum(2**sigma[j] for j < t)``,
        which must be 1. An advance of 1 flips destination bits ``0..t``,
        so for ``t < l`` it never changes the destination rank. Each t
        occurs for ``2**(n - t - 1)`` of the steps.
        """
        n = self.old.num_qubits
        l = self.old.num_local_qubits
        runs, lower = 1, 0
        for t, j in enumerate(self.sigma):
            if t >= l or (1 << j) - lower != 1:
                runs += 1 << (n - t - 1)
            lower += 1 << j
        return runs

    def apply(self, buffers: np.ndarray) -> np.ndarray:
        """Rearrange ``(num_ranks, 2**l)`` buffers into the new layout."""
        return _permute_bits(buffers, self.sigma)


def plan_redistribution(
    old: RankLayout, new: RankLayout
) -> RedistributionPlan:
    """Plan the amplitude movement from one layout to another."""
    if (old.num_qubits, old.num_rank_bits) != (new.num_qubits, new.num_rank_bits):
        raise LayoutMismatchError(
            f"layouts disagree: {old.num_qubits} qubits/{old.num_rank_bits} "
            f"rank bits vs {new.num_qubits}/{new.num_rank_bits}"
        )
    return RedistributionPlan(
        old, new, _bit_permutation(old.storage_order, new.storage_order)
    )


# --- accounting -------------------------------------------------------------

@dataclass(frozen=True)
class SwitchStats:
    """Communication cost of one layout switch.

    The switch happens between executing parts ``from_part`` and
    ``to_part``. Bytes sent and received are equal in total because every
    remote amplitude leaves one rank and lands on another; resident bytes
    stay on their rank (at most a local move).
    """

    from_part: int
    to_part: int
    num_runs: int
    messages: int
    bytes_remote: int
    bytes_resident: int
    sent_bytes: dict[int, int]
    received_bytes: dict[int, int]

    @staticmethod
    def from_plan(to_part: int, plan: RedistributionPlan) -> "SwitchStats":
        """Every count from one pass over the rank pairs.

        Only the qubits that are rank bits in either layout decide where an
        amplitude goes, so each assignment of them stands for
        ``2**(n - len(union))`` amplitudes with one source and one
        destination rank. The assignment is spelled by that rank pair, so
        distinct assignments are distinct pairs, and one message carries
        all the runs of a remote pair. Amplitudes that stay on their rank
        are resident; every other one is charged ``BYTES_PER_AMPLITUDE``.
        """
        old, new = plan.old, plan.new
        n = old.num_qubits
        union = sorted(set(old.process) | set(new.process))
        a = np.arange(1 << len(union), dtype=np.int64)
        bit_of = {q: i for i, q in enumerate(union)}

        def rank(layout: RankLayout) -> np.ndarray:
            r = np.zeros_like(a)
            for k, q in enumerate(layout.process):
                r |= ((a >> bit_of[q]) & 1) << k
            return r

        src, dst = rank(old), rank(new)
        remote = src != dst
        weight = BYTES_PER_AMPLITUDE << (n - len(union))

        def by_rank(ranks: np.ndarray) -> dict[int, int]:
            counts = np.bincount(ranks[remote], minlength=old.num_ranks)
            return {r: weight * int(c) for r, c in enumerate(counts) if c}

        messages = int(np.count_nonzero(remote))
        bytes_remote = weight * messages
        return SwitchStats(
            from_part=to_part - 1,
            to_part=to_part,
            num_runs=plan.num_runs,
            messages=messages,
            bytes_remote=bytes_remote,
            bytes_resident=(BYTES_PER_AMPLITUDE << n) - bytes_remote,
            sent_bytes=by_rank(src),
            received_bytes=by_rank(dst),
        )


@dataclass
class CommStats:
    """Accumulated communication over a distributed run."""

    num_qubits: int
    num_rank_bits: int
    num_parts: int
    switches: list[SwitchStats] = field(default_factory=list)

    @property
    def num_switches(self) -> int:
        return len(self.switches)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_remote for s in self.switches)

    @property
    def total_resident_bytes(self) -> int:
        return sum(s.bytes_resident for s in self.switches)

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.switches)

    def to_json(self) -> dict:
        return {
            "parts": self.num_parts,
            "num_qubits": self.num_qubits,
            "num_rank_bits": self.num_rank_bits,
            "num_ranks": 1 << self.num_rank_bits,
            "switches": [
                {
                    "from": s.from_part,
                    "to": s.to_part,
                    "bytes_remote": s.bytes_remote,
                    "bytes_resident": s.bytes_resident,
                    "messages": s.messages,
                    "runs": s.num_runs,
                    "sent_bytes": {str(r): b for r, b in s.sent_bytes.items()},
                    "received_bytes": {
                        str(r): b for r, b in s.received_bytes.items()
                    },
                }
                for s in self.switches
            ],
            "totals": {
                "bytes_remote": self.total_bytes,
                "bytes_resident": self.total_resident_bytes,
                "messages": self.total_messages,
                "switches": self.num_switches,
            },
        }


# --- state movement ---------------------------------------------------------

def distribute_state(state: StateVector, layout: RankLayout) -> np.ndarray:
    """Spread a full state over rank buffers, shape (num_ranks, 2**l)."""
    if state.num_qubits != layout.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, layout {layout.num_qubits}"
        )
    natural = range(layout.num_qubits)
    sigma = _bit_permutation(natural, layout.storage_order)
    return _permute_bits(state.data, sigma).reshape(layout.num_ranks, -1)


def assemble_state(buffers: np.ndarray, layout: RankLayout) -> StateVector:
    """Reassemble rank buffers into a full state vector in natural order."""
    expect = (layout.num_ranks, 1 << layout.num_local_qubits)
    if buffers.shape != expect:
        raise ValueError(f"buffers have shape {buffers.shape}, need {expect}")
    natural = range(layout.num_qubits)
    sigma = _bit_permutation(layout.storage_order, natural)
    return StateVector(
        layout.num_qubits, _permute_bits(buffers, sigma).reshape(-1)
    )


# --- driver -----------------------------------------------------------------

@dataclass
class DistributedRun:
    """Result of an emulated distributed execution.

    Unpacks like ``(state, stats)``; ``layouts`` records the layout each
    part ran under.
    """

    state: StateVector
    stats: CommStats
    layouts: list[RankLayout]

    def __iter__(self):
        return iter((self.state, self.stats))


def simulate_distributed(
    circuit: Circuit,
    partition: PartitionResult | MultiLevelPartition,
    num_rank_bits: int,
    *,
    initial: StateVector | None = None,
) -> DistributedRun:
    """Run a partitioned circuit on ``2**num_rank_bits`` emulated ranks.

    Each part executes under a layout that keeps its qubits (its built
    ``positions``) local, chosen with ``choose_layout``; a part whose
    qubits are already local reuses the current layout and costs nothing.
    Layout switches are planned, applied, and charged to ``CommStats``.
    Each part, checked and built by ``executable_parts``, then runs
    through ``run_part`` on every rank buffer at once, re-based to offset
    bits; a two-level part is its level-1 part, so it needs no extra
    communication.
    """
    n = circuit.num_qubits
    parts = partition.parts
    exes = executable_parts(circuit, partition)  # checks the partition
    # a gate-free circuit has no parts; it runs under one padding layout
    layout = choose_layout(n, num_rank_bits, parts[0].qubits if parts else ())
    # no reference to the start state outlives its distribution, so a run
    # holds one state copy, not two
    buffers = distribute_state(_start_state(circuit, initial), layout)
    stats = CommStats(n, num_rank_bits, len(parts))
    layouts: list[RankLayout] = []
    for i, exe in enumerate(exes):
        if not set(exe.positions) <= set(layout.local):
            new_layout = choose_layout(n, num_rank_bits, exe.positions)
            plan = plan_redistribution(layout, new_layout)
            buffers = plan.apply(buffers)
            stats.switches.append(SwitchStats.from_plan(i, plan))
            layout = new_layout
        layouts.append(layout)
        offset_bit = {q: j for j, q in enumerate(layout.local)}
        run_part(buffers, rebase(exe, offset_bit))
    return DistributedRun(assemble_state(buffers, layout), stats, layouts)
