"""Emulated multi-rank execution tests: layouts, redistribution plans,
and communication accounting."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest

import hisim.statevec as statevec
from hisim import bench
from hisim.dag import build_dag
from hisim.dist import (
    BYTES_PER_AMPLITUDE,
    CommStats,
    RankLayout,
    SwitchStats,
    choose_layout,
    distribute_state,
    assemble_state,
    plan_redistribution,
    simulate_distributed,
)
from hisim.errors import (
    LayoutMismatchError,
    PartitionError,
    PartTooWideForLayoutError,
)
from hisim.hier import executable_parts, rebase, run_part
from hisim.partition import (
    partition_dagp,
    partition_dfs,
    partition_multilevel,
    partition_nat,
)
from hisim.qasm import Circuit, GateKind, GateOp
from hisim.statevec import StateVector, simulate_flat, state_bytes, zero_state

from random_circuits import random_circuit


def _all_layouts(n, p):
    for process in itertools.combinations(range(n), p):
        local = tuple(q for q in range(n) if q not in process)
        yield RankLayout(n, local, process)


# --- element-wise oracle ----------------------------------------------------
#
# The redistribution planner hisim used before a switch became one bit
# permutation: index arrays give every amplitude's storage position, and
# runs are found element by element. The closed forms in hisim.dist must
# give the same numbers and the same data movement.


class _Run(NamedTuple):
    src_rank: int
    dst_rank: int
    src_offset: int
    dst_offset: int
    length: int


def _layout_positions(layout):
    """Flat storage position ``rank * 2**l + offset`` of every global
    index."""
    n = layout.num_qubits
    g = np.arange(1 << n, dtype=np.int64)
    off = np.zeros_like(g)
    for j, q in enumerate(layout.local):
        off |= ((g >> np.int64(q)) & 1) << np.int64(j)
    rank = np.zeros_like(g)
    for k, q in enumerate(layout.process):
        rank |= ((g >> np.int64(q)) & 1) << np.int64(k)
    return (rank << np.int64(layout.num_local_qubits)) | off


def _oracle_runs(old, new):
    """Maximal runs in source order: a run breaks where the source rank
    changes, the destination rank changes, or the destination position
    stops being consecutive."""
    n = old.num_qubits
    l = old.num_local_qubits
    src = _layout_positions(old)
    dst = _layout_positions(new)
    inv = np.empty_like(src)
    inv[src] = np.arange(1 << n, dtype=np.int64)
    dst_pos = dst[inv]
    s = np.arange(1 << n, dtype=np.int64)
    src_rank = s >> np.int64(l)
    dst_rank = dst_pos >> np.int64(l)
    brk = (
        (np.diff(src_rank) != 0)
        | (np.diff(dst_rank) != 0)
        | (np.diff(dst_pos) != 1)
    )
    starts = np.concatenate(([0], np.flatnonzero(brk) + 1))
    ends = np.concatenate((starts[1:], [len(s)]))
    mask = (1 << l) - 1
    return [
        _Run(
            int(src_rank[a]), int(dst_rank[a]),
            int(s[a]) & mask, int(dst_pos[a]) & mask, int(b - a),
        )
        for a, b in zip(starts, ends)
    ]


def _oracle_numbers(old, new):
    runs = _oracle_runs(old, new)
    remote = [r for r in runs if r.src_rank != r.dst_rank]
    sent = [0] * old.num_ranks
    received = [0] * old.num_ranks
    for r in remote:
        sent[r.src_rank] += BYTES_PER_AMPLITUDE * r.length
        received[r.dst_rank] += BYTES_PER_AMPLITUDE * r.length
    return {
        "num_runs": len(runs),
        "messages": len({(r.src_rank, r.dst_rank) for r in remote}),
        "bytes_remote": BYTES_PER_AMPLITUDE * sum(r.length for r in remote),
        "bytes_resident": BYTES_PER_AMPLITUDE * sum(
            r.length for r in runs if r.src_rank == r.dst_rank
        ),
        "sent": {k: b for k, b in enumerate(sent) if b},
        "received": {k: b for k, b in enumerate(received) if b},
    }


def _switch(old, new):
    return SwitchStats.from_plan(1, plan_redistribution(old, new))


def _switch_numbers(sw):
    return {
        "num_runs": sw.num_runs,
        "messages": sw.messages,
        "bytes_remote": sw.bytes_remote,
        "bytes_resident": sw.bytes_resident,
        "sent": sw.sent_bytes,
        "received": sw.received_bytes,
    }


# --- layouts ----------------------------------------------------------------


def test_layout_counts_and_storage_order():
    lay = RankLayout(4, (1, 3), (0, 2))
    assert lay.num_rank_bits == 2
    assert lay.num_ranks == 4
    assert lay.num_local_qubits == 2
    assert lay.storage_order == (1, 3, 0, 2)


def test_layout_validates_its_partition():
    """Local and process qubits must partition the qubits, each tuple in
    any order."""
    with pytest.raises(ValueError):
        RankLayout(3, (0, 1), (1, 2))  # overlap
    with pytest.raises(ValueError):
        RankLayout(3, (0,), (2,))  # missing qubit
    unsorted = RankLayout(4, (2, 0), (3, 1))
    assert unsorted.storage_order == (2, 0, 3, 1)


def test_layout_addressing():
    lay = RankLayout(4, (0, 2), (1, 3))
    # Qubit 0 -> offset bit 0, qubit 2 -> offset bit 1;
    # qubit 1 -> rank bit 0, qubit 3 -> rank bit 1.
    pos = _layout_positions(lay)
    # Global index 0b1010 has qubit 1 = 1 and qubit 3 = 1 -> rank 3;
    # local bits are qubit 0 = 0, qubit 2 = 0 -> offset 0.
    assert pos[0b1010] == (3 << 2) | 0
    assert pos[0b0101] == (0 << 2) | 3


def test_choose_layout_centers_on_part_qubits():
    """A two-rank-bit layout for a part on the low pair keeps that pair
    local; for the high pair it ships the low pair out instead."""
    low = choose_layout(4, 2, (0, 1))
    assert low.local == (0, 1)
    assert low.process == (2, 3)
    high = choose_layout(4, 2, (2, 3))
    assert high.local == (2, 3)
    assert high.process == (0, 1)


def test_choose_layout_pads_with_lowest_free_qubits():
    lay = choose_layout(5, 2, (2, 4))
    assert lay.local == (0, 2, 4)
    assert lay.process == (1, 3)


def test_choose_layout_rejects_oversized_parts():
    with pytest.raises(PartTooWideForLayoutError):
        choose_layout(4, 3, (0, 1))


@pytest.mark.parametrize("p", [-1, 5])
def test_choose_layout_rejects_rank_bits_out_of_range(p):
    with pytest.raises(ValueError, match=f"rank bits {p} outside 0..4"):
        choose_layout(4, p, (0,))


def test_layout_positions_are_a_permutation():
    """The oracle's index arrays are permutations whose bit ``i`` is the
    qubit ``storage_order[i]`` of the global index."""
    for n, p in [(4, 2), (5, 0), (5, 5), (6, 3)]:
        for lay in _all_layouts(n, p):
            pos = _layout_positions(lay)
            assert sorted(pos.tolist()) == list(range(1 << n))
            for g in range(1 << n):
                bits = [(g >> q) & 1 for q in lay.storage_order]
                assert pos[g] == sum(b << i for i, b in enumerate(bits))


def test_distribute_assemble_round_trip():
    rng = np.random.default_rng(2)
    data = rng.normal(size=16) + 1j * rng.normal(size=16)
    sv = StateVector(4, data.copy())
    lay = RankLayout(4, (1, 3), (0, 2))
    buffers = distribute_state(sv, lay)
    assert buffers.shape == (4, 4)
    back = assemble_state(buffers, lay)
    np.testing.assert_array_equal(back.data, data)
    # Rank r, offset o holds the amplitude whose global index sets the
    # process qubits to the bits of r and local qubits to the bits of o.
    pos = _layout_positions(lay)
    for g in range(16):
        assert buffers[pos[g] >> 2, pos[g] & 3] == data[g]


def test_state_moves_refuse_a_layout_of_another_size():
    """``distribute_state`` refuses a state of another width than the
    layout, and ``assemble_state`` buffers of another shape."""
    lay = RankLayout(4, (1, 3), (0, 2))
    with pytest.raises(ValueError, match="state has 3 qubits, layout 4"):
        distribute_state(zero_state(3), lay)
    buffers = np.zeros((2, 8), dtype=np.complex128)
    with pytest.raises(ValueError, match=r"buffers have shape \(2, 8\), need \(4, 4\)"):
        assemble_state(buffers, lay)


# --- redistribution plans ---------------------------------------------------


def _enumerate_transfers(old, new):
    """Element-wise oracle: where does each amplitude sit before and after."""
    l = old.num_local_qubits
    mask = (1 << l) - 1
    return [
        (int(s >> l), int(s & mask), int(d >> l), int(d & mask))
        for s, d in zip(_layout_positions(old), _layout_positions(new))
    ]


def test_plan_covers_every_amplitude_exactly_once():
    old = RankLayout(4, (0, 1), (2, 3))
    new = RankLayout(4, (2, 3), (0, 1))
    seen_src = set()
    seen_dst = set()
    for run in _oracle_runs(old, new):
        for k in range(run.length):
            seen_src.add((run.src_rank, run.src_offset + k))
            seen_dst.add((run.dst_rank, run.dst_offset + k))
    full = {(r, o) for r in range(4) for o in range(4)}
    assert seen_src == full
    assert seen_dst == full


def test_plan_matches_elementwise_enumeration():
    old = RankLayout(4, (0, 1), (2, 3))
    new = RankLayout(4, (0, 3), (1, 2))
    expect = {(sr, so, dr, do) for sr, so, dr, do in _enumerate_transfers(old, new)}
    got = set()
    for run in _oracle_runs(old, new):
        for k in range(run.length):
            got.add(
                (run.src_rank, run.src_offset + k, run.dst_rank, run.dst_offset + k)
            )
    assert got == expect


def test_plan_between_identical_layouts_is_all_resident():
    lay = RankLayout(5, (0, 1, 2), (3, 4))
    plan = plan_redistribution(lay, lay)
    sw = SwitchStats.from_plan(1, plan)
    assert sw.bytes_remote == 0
    assert sw.bytes_resident == 32 * BYTES_PER_AMPLITUDE
    assert sw.messages == 0
    assert sw.sent_bytes == sw.received_bytes == {}
    # even the identity permutation hands back a fresh buffer
    buffers = np.arange(32, dtype=complex).reshape(4, 8)
    moved = plan.apply(buffers)
    np.testing.assert_array_equal(moved, buffers)
    assert not np.shares_memory(moved, buffers)


def test_plan_rejects_mismatched_shapes():
    with pytest.raises(LayoutMismatchError):
        plan_redistribution(
            RankLayout(4, (0, 1), (2, 3)), RankLayout(5, (0, 1, 2), (3, 4))
        )
    with pytest.raises(LayoutMismatchError):
        plan_redistribution(
            RankLayout(4, (0, 1), (2, 3)), RankLayout(4, (0, 1, 2), (3,))
        )


def test_plan_apply_permutes_buffers_correctly():
    rng = np.random.default_rng(3)
    data = rng.normal(size=32) + 1j * rng.normal(size=32)
    sv = StateVector(5, data.copy())
    old = RankLayout(5, (0, 1, 2), (3, 4))
    new = RankLayout(5, (2, 3, 4), (0, 1))
    plan = plan_redistribution(old, new)
    moved = plan.apply(distribute_state(sv, old))
    np.testing.assert_array_equal(
        moved, distribute_state(sv, new)
    )
    # Applying the reverse plan restores the original buffers bit for bit.
    back = plan_redistribution(new, old).apply(moved)
    np.testing.assert_array_equal(back, distribute_state(sv, old))


def test_plan_volume_accounting():
    old = RankLayout(4, (0, 1), (2, 3))
    new = RankLayout(4, (2, 3), (0, 1))
    sw = _switch(old, new)
    assert sw.bytes_remote + sw.bytes_resident == 16 * BYTES_PER_AMPLITUDE
    assert sw.bytes_remote % BYTES_PER_AMPLITUDE == 0
    assert sum(sw.sent_bytes.values()) == sw.bytes_remote
    assert sum(sw.received_bytes.values()) == sw.bytes_remote


def test_full_swap_leaves_only_rank_zero_diagonal_resident():
    """Swapping all rank bits with all local bits: rank r keeps only what
    lands back on itself; rank 0 keeps offset 0."""
    old = RankLayout(4, (0, 1), (2, 3))
    new = RankLayout(4, (2, 3), (0, 1))
    # Amplitudes stay put only when old rank bits equal new rank bits, i.e.
    # qubits (2,3) read the same value as qubits (0,1): 4 of 16 per rank pair.
    stay = [
        (sr, so) for sr, so, dr, _ in _enumerate_transfers(old, new) if sr == dr
    ]
    assert len(stay) == 4
    resident = [run for run in _oracle_runs(old, new) if run.src_rank == run.dst_rank]
    assert sum(run.length for run in resident) == 4
    assert _switch(old, new).bytes_resident == 4 * BYTES_PER_AMPLITUDE


def test_messages_count_distinct_rank_pairs():
    old = RankLayout(4, (0, 1), (2, 3))
    new = RankLayout(4, (2, 3), (0, 1))
    pairs = {
        (sr, dr) for sr, _, dr, _ in _enumerate_transfers(old, new) if sr != dr
    }
    assert _oracle_numbers(old, new)["messages"] == len(pairs)
    assert _switch(old, new).messages == len(pairs)


def test_closed_form_plan_matches_elementwise_oracle():
    """Every layout pair with n <= 6 qubits and p <= 3 rank bits: the
    closed-form counts, read from ``SwitchStats``, equal the oracle's, and
    the transposes move data exactly as the oracle's index arrays do."""
    rng = np.random.default_rng(11)
    pairs = 0
    for n in range(1, 7):
        data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        sv = StateVector(n, data.copy())
        for p in range(min(3, n) + 1):
            layouts = list(_all_layouts(n, p))
            for old in layouts:
                stored = np.empty_like(data)
                stored[_layout_positions(old)] = data
                buffers = distribute_state(sv, old)
                np.testing.assert_array_equal(buffers.reshape(-1), stored)
                np.testing.assert_array_equal(
                    assemble_state(buffers, old).data, data
                )
                for new in layouts:
                    plan = plan_redistribution(old, new)
                    sw = SwitchStats.from_plan(1, plan)
                    assert _switch_numbers(sw) == _oracle_numbers(old, new), (
                        old, new
                    )
                    expect = np.empty_like(data)
                    expect[_layout_positions(new)] = stored[_layout_positions(old)]
                    np.testing.assert_array_equal(
                        plan.apply(buffers).reshape(-1), expect
                    )
                    pairs += 1
    assert pairs == 985


def test_layout_switch_peaks_at_most_twice_the_state(monkeypatch):
    """A switch writes one new array of the state's size: on the calling
    thread, and on 2 workers (stubbed CPUs, with chunks of ``2**12``
    amplitudes so the state is 16 of them), whose slabs of that array add
    no buffer."""
    n = 16
    rng = np.random.default_rng(4)
    sv = StateVector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    old = choose_layout(n, 2, (0, 1))
    new = choose_layout(n, 2, (n - 2, n - 1))
    buffers = distribute_state(sv, old)
    pools = []
    real = statevec._pool

    def spy(tasks, run, held):
        pools.append(len(held))
        real(tasks, run, held)

    monkeypatch.setattr(statevec, "_pool", spy)
    for workers in (None, 2):
        if workers:
            monkeypatch.setattr(statevec, "_cpus", lambda: workers)
            monkeypatch.setattr(statevec, "CHUNK_AMPS", 1 << 12)
        tracemalloc.start()
        try:
            plan_redistribution(old, new).apply(buffers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * state_bytes(n)
    assert pools == [2]


def test_start_state_is_released_before_the_first_part(monkeypatch):
    """Only the rank buffers hold the state while parts run: the start
    state is dropped once it is distributed."""
    import hisim.dist as dist_mod

    real_start, real_run = dist_mod._start_state, dist_mod.run_part
    starts = []
    alive_at_part = []

    def start_state(*args):
        state = real_start(*args)
        starts.append(weakref.ref(state.data))
        return state

    def run_part(data, exe):
        alive_at_part.append(starts[0]() is not None)
        real_run(data, exe)

    monkeypatch.setattr(dist_mod, "_start_state", start_state)
    monkeypatch.setattr(dist_mod, "run_part", run_part)
    circuit = bench.build("bv_6")
    run = simulate_distributed(circuit, partition_dfs(build_dag(circuit), 4), 1)
    assert alive_at_part and not any(alive_at_part)
    assert np.max(np.abs(run.state.data - simulate_flat(circuit).data)) < 1e-12


# --- end-to-end distributed simulation --------------------------------------


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_distributed_matches_flat(p, seed):
    rng = random.Random(seed * 17 + p)
    n = rng.randint(max(3, p + 3), 9)
    circuit = random_circuit(random.Random(seed * 7 + p), n, rng.randint(5, 50))
    widest = max((len(o.qubits) for o in circuit.ops), default=1)
    hi = n - p
    assert hi >= max(2, widest)  # no gate is wider than 3
    limit = rng.randint(max(2, widest), hi)
    partition = partition_dfs(build_dag(circuit), limit)
    run = simulate_distributed(circuit, partition, p)
    expect = simulate_flat(circuit)
    assert np.max(np.abs(run.state.data - expect.data)) < 1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("circuit", [bench.qft(9), bench.qaoa(8), bench.ising(9)],
                         ids=["qft_9", "qaoa_8", "ising_9"])
def test_unsorted_layouts_equal_flat(circuit, p):
    """Parts run under hand-built layouts whose local and process qubits
    are shuffled at every part, padding included, equal ``simulate_flat``:
    the start state is distributed, each switch moved and counted as the
    element-wise oracle counts it, each part re-based to offset bits out
    of order, and the final state assembled, all with qubits on bits in
    any order."""
    n = circuit.num_qubits
    rng = random.Random(n * 10 + p)

    def shuffled(qubits):
        rest = [q for q in range(n) if q not in qubits]
        rng.shuffle(rest)
        pad = n - p - len(qubits)
        local = [*qubits, *rest[:pad]]
        rng.shuffle(local)
        return RankLayout(n, tuple(local), tuple(rest[pad:]))

    partition = partition_dagp(build_dag(circuit), n - p)
    exes = list(executable_parts(circuit, partition))
    layout = shuffled(exes[0].positions)
    buffers = distribute_state(zero_state(n), layout)
    unsorted = 0
    for i, exe in enumerate(exes):
        new = shuffled(exe.positions)
        plan = plan_redistribution(layout, new)
        sw = SwitchStats.from_plan(i, plan)
        assert _switch_numbers(sw) == _oracle_numbers(layout, new)
        buffers, layout = plan.apply(buffers), new
        moved = rebase(exe, {q: j for j, q in enumerate(layout.local)})
        unsorted += list(moved.positions) != sorted(moved.positions)
        run_part(buffers, moved)
    assert unsorted
    np.testing.assert_allclose(
        assemble_state(buffers, layout).data, simulate_flat(circuit).data,
        rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize("limit", [4, 6])
def test_zero_rank_bits_is_bit_identical_to_hierarchical(limit):
    """With no rank bits the state sits in one ``(1, 2**n)`` buffer, and
    each part runs the same plan as on the flat state: at limit 6 the one
    part covers the whole state."""
    from hisim.hier import execute_hierarchical

    circuit = bench.build("bv_6")
    partition = partition_nat(build_dag(circuit), limit)
    assert (partition.num_parts == 1) == (limit == circuit.num_qubits)
    run = simulate_distributed(circuit, partition, 0)
    expect = execute_hierarchical(circuit, partition)
    np.testing.assert_array_equal(run.state.data, expect.data)
    assert run.stats.total_bytes == 0
    assert run.stats.total_messages == 0


def test_distributed_run_unpacks_as_pair():
    circuit = bench.build("bv_6")
    partition = partition_nat(build_dag(circuit), 4)
    state, stats = simulate_distributed(circuit, partition, 2)
    assert state.num_qubits == 6
    assert isinstance(stats, CommStats)


def test_distributed_multilevel_partition():
    circuit = bench.build("ising_8")
    ml = partition_multilevel(build_dag(circuit), 4, 2)
    run = simulate_distributed(circuit, ml, 2)
    expect = simulate_flat(circuit)
    assert np.max(np.abs(run.state.data - expect.data)) < 1e-10


@pytest.mark.parametrize("p", [0, 1, 3])
def test_gate_free_circuit_returns_the_zero_state(p):
    """No gates means no parts: the run returns |000> under one layout, with
    a comm document of 0 parts and no switches; rank bits outside 0..n are
    still refused."""
    circuit = Circuit(3, ())
    partition = partition_dagp(build_dag(circuit), 2)
    assert partition.parts == ()
    run = simulate_distributed(circuit, partition, p)
    np.testing.assert_array_equal(run.state.data, np.eye(8)[0])
    assert run.layouts == []
    doc = run.stats.to_json()
    assert (doc["parts"], doc["num_ranks"], doc["switches"]) == (0, 1 << p, [])
    assert doc["totals"] == {
        "bytes_remote": 0, "bytes_resident": 0, "messages": 0, "switches": 0,
    }
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"rank bits {bad} outside 0..3"):
            simulate_distributed(circuit, partition, bad)


def _drop_first_gate(circuit, parts):
    """``parts`` with the first gate of ``parts[0]`` left out, its qubit set
    recomputed from the gates that stay."""
    gates = parts[0].gate_indices[1:]
    qubits = tuple(sorted({q for g in gates for q in circuit.ops[g].qubits}))
    return (dataclasses.replace(parts[0], gate_indices=gates, qubits=qubits),) + parts[1:]


def test_partition_missing_a_gate_is_rejected():
    """A partition that leaves a gate out must raise, not return a wrong
    state; for a two-level partition the executed gates are the level-2
    parts'."""
    circuit = bench.build("bv_6")
    dag = build_dag(circuit)
    flat = partition_nat(dag, 4)
    flat = dataclasses.replace(flat, parts=_drop_first_gate(circuit, flat.parts))
    ml = partition_multilevel(dag, 4, 2)
    sublevels = list(ml.sublevels)
    i = next(i for i, sub in enumerate(sublevels) if len(sub.parts) > 1)
    sublevels[i] = dataclasses.replace(
        sublevels[i], parts=_drop_first_gate(circuit, sublevels[i].parts)
    )
    ml = dataclasses.replace(ml, sublevels=tuple(sublevels))
    for partition in (flat, ml):
        with pytest.raises(PartitionError, match=r"gates \[0\] unassigned"):
            simulate_distributed(circuit, partition, 1)


def test_part_listed_backwards_is_rejected():
    """h q[0]; x q[0]; cx q[0],q[1]; h q[2] with dagp's part 0 (the first
    three gates, each depending on the last) listed backwards in memory
    raises instead of returning a state off by 0.5."""
    circuit = Circuit(3, (
        GateOp(GateKind.H, (0,), ()),
        GateOp(GateKind.X, (0,), ()),
        GateOp(GateKind.CX, (0, 1), ()),
        GateOp(GateKind.H, (2,), ()),
    ))
    partition = partition_dagp(build_dag(circuit), 2)
    first = partition.parts[0]
    assert first.gate_indices == (0, 1, 2)
    backwards = dataclasses.replace(first, gate_indices=(2, 1, 0))
    partition = dataclasses.replace(
        partition, parts=(backwards,) + partition.parts[1:]
    )
    for p in (0, 1):
        with pytest.raises(PartitionError, match="part 0 gates are not ascending"):
            simulate_distributed(circuit, partition, p)


def test_distributed_rejects_parts_wider_than_local_space():
    circuit = bench.build("bv_6")
    partition = partition_nat(build_dag(circuit), 5)
    with pytest.raises(PartTooWideForLayoutError):
        simulate_distributed(circuit, partition, 2)


def test_switch_stats_balance_and_layout_history():
    circuit = bench.build("ising_8")
    partition = partition_dfs(build_dag(circuit), 4)
    run = simulate_distributed(circuit, partition, 2)
    stats = run.stats
    assert stats.num_parts == len(partition.parts)
    assert len(run.layouts) == len(partition.parts)
    assert stats.num_switches <= len(partition.parts) - 1
    n = circuit.num_qubits
    for sw in stats.switches:
        assert sw.to_part == sw.from_part + 1
        assert sum(sw.sent_bytes.values()) == sw.bytes_remote
        assert sum(sw.received_bytes.values()) == sw.bytes_remote
        total = sw.bytes_remote + sw.bytes_resident
        assert total == (1 << n) * BYTES_PER_AMPLITUDE
    # Every part must fit entirely inside its layout's local qubits.
    for part, lay in zip(partition.parts, run.layouts):
        assert set(part.qubits) <= set(lay.local)


def test_comm_documents_are_pinned():
    """SHA-256 of the comm documents of every bundled circuit of at most 16
    qubits, at every dagp limit from its widest gate to n - p, for p = 1,
    2 and 3, so any change to layouts or switch accounting shows up here;
    and the qft(20) benchmark run's totals."""
    digest = hashlib.sha256()
    runs = 0
    for name in bench.available():
        circuit = bench.build(name)
        if circuit.num_qubits > 16:
            continue
        dag = build_dag(circuit)
        widest = max(len(op.qubits) for op in circuit.ops)
        for p in (1, 2, 3):
            for limit in range(widest, circuit.num_qubits - p + 1):
                run = simulate_distributed(circuit, partition_dagp(dag, limit), p)
                digest.update((json.dumps(run.stats.to_json()) + "\n").encode())
                runs += 1
    assert runs == 231
    assert digest.hexdigest() == (
        "ba9b74c410649a3d94a3eeb1a86b0ff997082d49169771c8b7c603ad43e644b0"
    )

    circuit = bench.qft(20)
    stats = simulate_distributed(
        circuit, partition_dagp(build_dag(circuit), 14), 2
    ).stats
    assert stats.total_bytes == 37_748_736
    assert stats.total_messages == 36
    assert stats.num_switches == 3
    assert sum(s.num_runs for s in stats.switches) == 131_328


def test_comm_stats_json_schema():
    circuit = bench.build("ising_8")
    partition = partition_dfs(build_dag(circuit), 4)
    run = simulate_distributed(circuit, partition, 2)
    doc = run.stats.to_json()
    json.dumps(doc)  # must be serializable as-is
    assert doc["parts"] == len(partition.parts)
    assert doc["num_qubits"] == 8
    assert doc["num_rank_bits"] == 2
    assert doc["num_ranks"] == 4
    assert len(doc["switches"]) == run.stats.num_switches
    for entry, sw in zip(doc["switches"], run.stats.switches):
        assert entry["from"] == sw.from_part
        assert entry["to"] == sw.to_part
        assert entry["bytes_remote"] == sw.bytes_remote
        assert entry["bytes_resident"] == sw.bytes_resident
        assert entry["messages"] == sw.messages
        assert entry["runs"] == sw.num_runs
        assert entry["sent_bytes"] == {str(k): v for k, v in sw.sent_bytes.items()}
        assert entry["received_bytes"] == {
            str(k): v for k, v in sw.received_bytes.items()
        }
    totals = doc["totals"]
    assert totals["bytes_remote"] == run.stats.total_bytes
    assert totals["bytes_resident"] == run.stats.total_resident_bytes
    assert totals["messages"] == run.stats.total_messages
    assert totals["switches"] == run.stats.num_switches
