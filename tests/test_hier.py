"""Partitioned execution tests: gather/scatter mechanics and equivalence
with the plain single-pass simulator."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import random
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hisim import bench, hier, statevec
from hisim.dag import build_dag
from hisim.dist import simulate_distributed
from hisim.hier import (
    ExecutablePart,
    bit_offsets,
    execute_hierarchical,
    execute_multilevel,
    executable_parts,
    part_block_indices,
    rebase,
    remap_part,
    run_part,
    verify_against_flat,
)
from hisim.errors import LimitTooSmallError, PartitionError, VerificationError
from hisim.partition import (
    MultiLevelPartition,
    Part,
    PartitionResult,
    _dagp,
    partition_dagp,
    partition_dfs,
    partition_multilevel,
    partition_nat,
)
from hisim.qasm import Circuit, GateKind, GateOp
from hisim.statevec import (
    StateVector,
    _blas_threads,
    _permute_bits,
    apply_op,
    is_dense,
    is_diagonal,
    simulate_flat,
    state_bytes,
    zero_state,
)

from random_circuits import DIAGONAL_HEAVY, random_circuit, random_params
from test_statevec import _full_operator


# --- single-assignment oracle -----------------------------------------------
#
# One gather/execute/scatter pass per free-qubit assignment, the scheme that
# ``run_part`` batches into one pass.


def _assignment_indices(num_qubits, qubits, free_index):
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


def gather(data, num_qubits, qubits, free_index):
    """Copy one inner vector out of a ``2**num_qubits`` amplitude array.

    Bit ``i`` of the inner index corresponds to ``qubits[i]``; the
    remaining positions, taken in ascending order, are frozen to the bits
    of ``free_index``.
    """
    return data[_assignment_indices(num_qubits, qubits, free_index)].copy()


def scatter(data, num_qubits, qubits, free_index, inner):
    """Write an inner vector back to the positions ``gather`` read it from."""
    row = _assignment_indices(num_qubits, qubits, free_index)
    if inner.shape != row.shape:
        raise ValueError(f"inner has shape {inner.shape}, need {row.shape}")
    data[row] = inner


def _run_part_oracle(data, exe, nested=()):
    """``run_part`` as one gather/execute/scatter per assignment, with the
    ``nested`` parts, addressed as slots of ``exe``'s block, staged the
    same way inside each inner vector after ``exe``'s ops."""
    m = data.size.bit_length() - 1
    for a in range(1 << (m - exe.num_slots)):
        inner = gather(data, m, exe.positions, a)
        for op in exe.ops:
            apply_op(inner, exe.num_slots, op)
        for child in nested:
            _run_part_oracle(inner, child)
        scatter(data, m, exe.positions, a, inner)


def _run_oracle(data, circuit, partition):
    """``partition`` run on ``data`` by single-assignment passes. A two-level
    part is really nested: each level-2 part stages its padded qubit set
    (``MultiLevelPartition.padded_qubits``) inside every inner vector of
    its level-1 part, in sublevel order."""
    if not isinstance(partition, MultiLevelPartition):
        for part in partition.parts:
            _run_part_oracle(data, remap_part(circuit, part))
        return
    levels = zip(partition.parts, partition.sublevels, partition.padded_qubits)
    for parent, sub, padded in levels:
        slot_of = {q: i for i, q in enumerate(parent.qubits)}
        nested = [
            rebase(remap_part(circuit, dataclasses.replace(sp, qubits=pad)), slot_of)
            for sp, pad in zip(sub.parts, padded)
        ]
        _run_part_oracle(data, ExecutablePart(parent.qubits, ()), nested)


# --- index arithmetic -------------------------------------------------------


def test_bit_offsets_enumerates_subset_sums():
    # bits (0, 2): offsets run through {0, 1, 4, 5}, slot order minor first.
    np.testing.assert_array_equal(bit_offsets([0, 2]), [0, 1, 4, 5])
    np.testing.assert_array_equal(bit_offsets([1]), [0, 2])
    np.testing.assert_array_equal(bit_offsets([]), [0])


def _shift_and_mask_offsets(bits):
    """``bit_offsets`` by its formula: one shift-and-mask pass per bit."""
    ks = np.arange(1 << len(bits), dtype=np.int64)
    out = np.zeros_like(ks)
    for j, b in enumerate(bits):
        out += ((ks >> np.int64(j)) & 1) << np.int64(b)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_bit_offsets_equal_the_shift_and_mask_formula(seed):
    """``bit_offsets`` builds its array by doubling; it equals the
    formula's, entry for entry and in dtype, for random distinct bits of
    up to 12 positions below 40, in any order."""
    rng = random.Random(seed)
    for size in range(13):
        bits = rng.sample(range(40), size)
        got = bit_offsets(bits)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _shift_and_mask_offsets(bits))


def test_block_indices_tile_the_state_exactly_once():
    for n, qubits in [(3, (0,)), (4, (1, 3)), (5, (0, 2, 4)), (4, (0, 1, 2, 3))]:
        idx = part_block_indices(n, qubits)
        assert idx.shape == (1 << (n - len(qubits)), 1 << len(qubits))
        flat = np.sort(idx.reshape(-1))
        np.testing.assert_array_equal(flat, np.arange(1 << n))


def test_block_indices_vary_only_part_qubits_within_a_row():
    n, qubits = 5, (1, 3)
    idx = part_block_indices(n, qubits)
    part_mask = sum(1 << q for q in qubits)
    for row in idx:
        # Within a row the free bits are frozen...
        assert len({int(v) & ~part_mask for v in row}) == 1
        # ...and the part bits sweep all combinations in slot order.
        assert [(int(v) >> 1) & 1 | (((int(v) >> 3) & 1) << 1) for v in row] == [
            0,
            1,
            2,
            3,
        ]


# --- gather / scatter -------------------------------------------------------


def test_gather_on_three_qubits_picks_low_pair():
    """Part {q0} of a 3-qubit state with free bits q1=q2=0 stages the
    amplitudes at global positions 000 and 001."""
    data = np.arange(8, dtype=np.complex128)
    inner = gather(data, 3, (0,), 0)
    np.testing.assert_array_equal(inner, [0, 1])


def test_gather_on_two_qubits_strides_over_free_bit():
    """Part {q1} of a 2-qubit state with free bit q0=1 stages positions
    01 and 11."""
    data = np.arange(4, dtype=np.complex128)
    inner = gather(data, 2, (1,), 1)
    np.testing.assert_array_equal(inner, [1, 3])


def test_gather_matches_index_matrix_rows():
    rng = np.random.default_rng(0)
    n, qubits = 5, (0, 2, 3)
    data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    idx = part_block_indices(n, qubits)
    for a in range(idx.shape[0]):
        np.testing.assert_array_equal(gather(data, n, qubits, a), data[idx[a]])


def test_scatter_inverts_gather_and_writes_nothing_else():
    rng = np.random.default_rng(1)
    n, qubits = 4, (1, 2)
    data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    before = data.copy()
    for a in range(1 << (n - len(qubits))):
        inner = gather(data, n, qubits, a)
        scatter(data, n, qubits, a, inner * 2.0)
    np.testing.assert_array_equal(data, before * 2.0)
    # Scattering back the original restores the state bit for bit.
    for a in range(1 << (n - len(qubits))):
        scatter(data, n, qubits, a, gather(before, n, qubits, a))
    np.testing.assert_array_equal(data, before)


@pytest.mark.parametrize("seed", range(4))
def test_run_part_matches_single_assignment_passes(seed):
    """Batched staging, nested children included, equals one
    gather/execute/scatter per free-qubit assignment."""
    rng = random.Random(seed + 40)
    n = rng.randint(4, 8)
    circuit = random_circuit(random.Random(seed + 900), n, rng.randint(10, 40))
    widest = max(len(o.qubits) for o in circuit.ops)
    l1 = rng.randint(max(2, widest), n - 1)
    l2 = rng.randint(max(2, widest), l1)
    dag = build_dag(circuit)
    data_rng = np.random.default_rng(seed)
    for partition in (partition_dagp(dag, l1), partition_multilevel(dag, l1, l2)):
        data = data_rng.normal(size=1 << n) + 1j * data_rng.normal(size=1 << n)
        expect = data.copy()
        for exe in executable_parts(circuit, partition):
            run_part(data, exe)
        _run_oracle(expect, circuit, partition)
        np.testing.assert_allclose(data, expect, rtol=0, atol=1e-12)


def _ascending(exe):
    """``exe`` on its positions sorted, its slots renumbered so that each
    op acts on the bits it did."""
    order = sorted(exe.positions)
    to = [order.index(p) for p in exe.positions]
    ops = tuple(GateOp(op.kind, tuple(to[s] for s in op.qubits), op.params)
                for op in exe.ops)
    return ExecutablePart(tuple(order), ops)


@pytest.mark.parametrize("positions", [(2, 1), (1, 0), (3, 0), (1, 1)])
def test_run_part_takes_positions_in_any_order(positions):
    """``run_part`` runs a part on distinct positions in any order as the
    same part on them ascending, its slots renumbered (on ``(2, 1)``,
    reading the highest position as the last one would run it on the
    wrong amplitudes), and as the single-assignment passes. It refuses
    repeated positions with a plain message and the state untouched."""
    ops = (GateOp(GateKind.H, (0,), ()), GateOp(GateKind.CX, (0, 1), ()))
    exe = ExecutablePart(positions, ops)
    rng = np.random.default_rng(7)
    start = rng.normal(size=16) + 1j * rng.normal(size=16)
    data = start.copy()
    if len(set(positions)) < len(positions):
        with pytest.raises(ValueError, match=r"positions \(1, 1\) repeat a bit"):
            run_part(data, exe)
        assert np.array_equal(data, start)
        return
    run_part(data, exe)
    ascending, oracle = start.copy(), start.copy()
    run_part(ascending, _ascending(exe))
    _run_part_oracle(oracle, exe)
    np.testing.assert_allclose(data, ascending, rtol=0, atol=1e-12)
    np.testing.assert_allclose(data, oracle, rtol=0, atol=1e-12)


def test_run_part_refuses_arrays_and_positions_it_cannot_stage():
    """``run_part`` refuses, with a plain message and the state untouched,
    a last axis that is not a power of two, an array that is not
    C-contiguous, and a position past the last axis."""
    exe = ExecutablePart((0, 1), (GateOp(GateKind.CX, (0, 1), ()),))
    for data, message in (
        (np.ones(12, dtype=np.complex128), "last axis 12 is not a power of two"),
        (np.ones(32, dtype=np.complex128)[::2], "data must be C-contiguous"),
    ):
        with pytest.raises(ValueError, match=message):
            run_part(data, exe)
    data = np.ones(16, dtype=np.complex128)
    with pytest.raises(ValueError, match=r"position 4 outside 0\.\.3"):
        run_part(data, ExecutablePart((4, 0), exe.ops))
    assert np.array_equal(data, np.ones(16))


def test_block_indices_refuse_repeated_and_outside_positions():
    with pytest.raises(ValueError, match=r"duplicate positions in \(1, 1\)"):
        part_block_indices(3, (1, 1))
    with pytest.raises(ValueError, match=r"position 3 outside 0\.\.2"):
        part_block_indices(3, (0, 3))


def _spy_on_chunks(mp):
    """The list of the parts ``run_part`` stages, each its own part or one
    of its pieces, in order, while ``mp`` holds its patch."""
    staged = []
    real = hier._run_chunks

    def spy(data, exe):
        staged.append(exe)
        real(data, exe)

    mp.setattr(hier, "_run_chunks", spy)
    return staged


@contextlib.contextmanager
def _chunks_of(amps):
    """Inside the block, ``statevec.CHUNK_AMPS`` is ``amps``: it sizes
    ``run_part``'s chunks and pieces, ``apply_op``'s slabs and the moves'
    workers. Each plan (``hier._plan``) is still built under the default
    chunk, since its products do not depend on the chunk, and a tiny one
    would cut every gate applied to their identities into slabs of a few
    amplitudes. Tests stage in tiny chunks only here, around the runs
    under test, and compute their references under the default."""
    default, real = statevec.CHUNK_AMPS, hier._plan

    def plan(*args):
        statevec.CHUNK_AMPS = default
        try:
            return real(*args)
        finally:
            statevec.CHUNK_AMPS = amps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevec, "CHUNK_AMPS", amps)
        mp.setattr(hier, "_plan", plan)
        yield


def test_remap_part_rewrites_operands_to_block_slots():
    """A ``cx 9,5`` in a 10-qubit circuit, in a part on qubits (5, 9),
    becomes a ``cx`` on slots (1, 0) of the part's block, kind and params
    kept, and the part's run equals ``simulate_flat``. Re-basing the part
    moves its positions only, in the order the map gives them."""
    circuit = Circuit(10, (
        GateOp(GateKind.H, (9,), ()),
        GateOp(GateKind.RX, (5,), (0.4,)),
        GateOp(GateKind.CX, (9, 5), ()),
    ))
    exe = remap_part(circuit, Part(0, (0, 1, 2), (5, 9)))
    assert exe.positions == (5, 9)
    assert exe.ops == (
        GateOp(GateKind.H, (1,), ()),
        GateOp(GateKind.RX, (0,), (0.4,)),
        GateOp(GateKind.CX, (1, 0), ()),
    )
    data = zero_state(10).data
    run_part(data, exe)
    np.testing.assert_allclose(data, simulate_flat(circuit).data, rtol=0, atol=1e-15)
    moved = rebase(exe, {5: 0, 9: 1})
    assert moved == dataclasses.replace(exe, positions=(0, 1))
    assert rebase(exe, {5: 1, 9: 0}) == dataclasses.replace(exe, positions=(1, 0))


@pytest.mark.parametrize("chunk", [1 << 16, 1 << 6, 1 << 4, 1 << 2])
@pytest.mark.parametrize("seed", range(6))
def test_parts_on_unsorted_positions_equal_their_ascending_parts(seed, chunk):
    """A random part on 3-9 slots, at distinct positions out of order on a
    state or on two rank buffers, equals the same part on its positions
    ascending with its slots renumbered (``_ascending``): in chunks that
    hold the whole state, in many chunks, and cut into pieces, as parts
    wider than 6 and 4 slots are at chunks of ``2**6`` and fewer."""
    rng = random.Random(seed + 500)
    w = rng.randint(3, 9)
    n = rng.randint(w, 10)
    positions = tuple(rng.sample(range(n), w))
    if list(positions) == sorted(positions):
        positions = positions[::-1]
    exe = ExecutablePart(positions, random_circuit(rng, w, rng.randint(8, 30)).ops)
    shape = (*rng.choice([(), (2,)]), 1 << n)
    data_rng = np.random.default_rng(seed)
    start = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
    got, expect = start.copy(), start.copy()
    with _chunks_of(chunk):
        run_part(got, exe)
        run_part(expect, _ascending(exe))
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chunk", [1 << 16, 1 << 6, 1 << 4])
@pytest.mark.parametrize("seed", range(6))
def test_parts_on_shuffled_lowest_bits_run_on_views(monkeypatch, seed, chunk):
    """A random part whose positions are the lowest bits of its array out
    of order, on a state or on two rank buffers, runs on views of the
    array, building no index matrix (``part_block_indices``), and equals
    the same part on its positions ascending (``_ascending``): in chunks
    that hold the whole state, in several, and in chunks of one row. It
    has at most as many slots as a piece, so it is never cut."""
    calls = []
    real = hier.part_block_indices
    monkeypatch.setattr(
        hier, "part_block_indices", lambda *a: calls.append(a) or real(*a)
    )
    rng = random.Random(seed + 700)
    w = rng.randint(3, min(9, max(chunk.bit_length() - 1, hier.FUSE_WIDTH)))
    n = rng.randint(w, 10)
    positions = tuple(rng.sample(range(w), w))
    if list(positions) == sorted(positions):
        positions = positions[::-1]
    exe = ExecutablePart(positions, random_circuit(rng, w, rng.randint(8, 30)).ops)
    shape = (*rng.choice([(), (2,)]), 1 << n)
    data_rng = np.random.default_rng(seed)
    start = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
    got, expect = start.copy(), start.copy()
    with _chunks_of(chunk):
        run_part(got, exe)
        run_part(expect, _ascending(exe))
    assert calls == []
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


# --- diagonal runs ------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fused_diagonal_runs_match_flat_and_the_oracle(seed):
    """Flat and two-level partitions, run hierarchically and on 2 and 4
    emulated ranks, fold their diagonal runs and still equal the flat
    simulator and the unfused single-assignment passes. An H on every
    qubit first spreads the state, so every phase shows."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    body = random_circuit(rng, n, rng.randint(10, 50), DIAGONAL_HEAVY)
    spread = tuple(GateOp(GateKind.H, (q,), ()) for q in range(n))
    circuit = Circuit(n, spread + body.ops)
    widest = max(len(o.qubits) for o in circuit.ops)
    l1 = rng.randint(max(2, widest), n - 2)
    l2 = rng.randint(max(2, widest), l1)
    dag = build_dag(circuit)
    expect = simulate_flat(circuit).data
    for partition in (partition_dagp(dag, l1), partition_multilevel(dag, l1, l2)):
        data = zero_state(n).data
        oracle = data.copy()
        for exe in executable_parts(circuit, partition):
            run_part(data, exe)
        _run_oracle(oracle, circuit, partition)
        assert np.max(np.abs(data - expect)) <= 1e-12
        assert np.max(np.abs(data - oracle)) <= 1e-12
        for p in (1, 2):
            state = simulate_distributed(circuit, partition, p).state
            assert np.max(np.abs(state.data - expect)) <= 1e-12


#: h on slots 0-3 | crz(3, 4) u1(4) cz(0, 4) rz(4) (one run of four) | h(4)
#: t(4) (a run of one): the h gates on 0-3 fill one group, so crz and cz,
#: which also need slot 4, fold into a phase vector before the group of
#: h(4), which u1, rz and t join
_RUNS = Circuit(5, (
    *(GateOp(GateKind.H, (q,), ()) for q in range(4)),
    GateOp(GateKind.CRZ, (3, 4), (0.7,)),
    GateOp(GateKind.U1, (4,), (1.1,)),
    GateOp(GateKind.CZ, (0, 4), ()),
    GateOp(GateKind.RZ, (4,), (0.3,)),
    GateOp(GateKind.H, (4,), ()),
    GateOp(GateKind.T, (4,), ()),
))


def test_diagonal_runs_fold_while_the_block_fits_a_chunk(monkeypatch):
    """While ``2**w`` fits a chunk, the diagonal ops of a run that no dense
    group can hold are built into one phase vector off the block, in closed
    form, equal to their ``apply_op`` product on ones, and the others, with
    the dense ops around them, into unitaries on the identity, so no op
    runs on the block op by op: on a block of several rows and on a
    single-row block, here a whole-state part, with the same calls. In
    chunks of 2 amplitudes the part is wider than a chunk and runs as two
    pieces of at most ``FUSE_WIDTH`` slots, the diagonal run inside one
    with the dense ops on its slots: each piece is one unitary, and again
    no op runs on the block."""
    calls = []
    real = hier.apply_op

    def spy(arr, w, op):
        calls.append((op.kind, arr.shape, np.shares_memory(arr, data)))
        real(arr, w, op)

    def whole():
        return remap_part(_RUNS, Part(0, tuple(range(_RUNS.num_ops)), tuple(range(5))))

    monkeypatch.setattr(hier, "apply_op", spy)
    rng = np.random.default_rng(4)
    shape = (3, 1 << 5)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expect = data.copy()
    for op in _RUNS.ops:
        apply_op(expect, 5, op)
    # 16x16 products round off more than one gate at a time: the bound is
    # 1e-15 of the largest amplitude
    atol = 1e-15 * np.max(np.abs(expect))
    exe = whole()
    run_part(data, exe)
    low, high = (16, 16), (4, 4)
    fused = [
        *4 * [(GateKind.H, low, False)],
        (GateKind.U1, high, False),
        (GateKind.RZ, high, False),
        (GateKind.H, high, False),
        (GateKind.T, high, False),
    ]
    # only the unitaries' identities see apply_op: no op runs on the block
    assert calls == fused
    np.testing.assert_allclose(data, expect, rtol=0, atol=atol)
    # the phase vector is built while the order is still the identity
    kernels = exe.steps.kernels
    assert [kind for kind, _ in kernels] == ["matmul", "phase", "permute", "matmul"]
    ones = np.ones(1 << 5, dtype=np.complex128)
    for op in _RUNS.ops[4:7:2]:  # crz(3, 4) and cz(0, 4)
        real(ones, 5, op)
    np.testing.assert_allclose(kernels[1][1], ones, rtol=0, atol=1e-15)

    calls.clear()
    data = zero_state(5).data
    run_part(data, whole())
    assert calls == fused
    np.testing.assert_allclose(data, simulate_flat(_RUNS).data, rtol=0, atol=1e-15)

    calls.clear()
    staged = _spy_on_chunks(monkeypatch)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expect = data.copy()
    for op in _RUNS.ops:
        apply_op(expect, 5, op)
    atol = 1e-15 * np.max(np.abs(expect))
    with _chunks_of(2):
        run_part(data, whole())
    assert [piece.positions for piece in staged] == [(0, 1, 3, 4), (2,)]
    for piece in staged:
        assert [kind for kind, _ in piece.steps.kernels] == ["matmul"]
    # every op is applied once, to a unitary's identity
    assert len(calls) == _RUNS.num_ops
    assert not any(shares for _, _, shares in calls)
    np.testing.assert_allclose(data, expect, rtol=0, atol=atol)


#: the diagonal ops a phase group may hold: kinds diagonal at any angle,
#: and the angle-decided kinds at the angles where they are
_PHASE_OPS = {
    **dict.fromkeys(
        (GateKind.RZ, GateKind.U1, GateKind.CRZ), st.tuples(st.floats(-7, 7))
    ),
    **dict.fromkeys(
        (GateKind.CZ, GateKind.S, GateKind.T, GateKind.SDG, GateKind.TDG),
        st.just(()),
    ),
    GateKind.RX: st.just((0.0,)),
    GateKind.RY: st.just((0.0,)),
    GateKind.CRY: st.just((0.0,)),
    GateKind.U3: st.tuples(st.just(0.0), st.floats(-7, 7), st.floats(-7, 7)),
}


@st.composite
def _phase_groups(draw):
    w = draw(st.integers(1, 16))
    ops = []
    for _ in range(draw(st.integers(1, 24))):
        kinds = [k for k in _PHASE_OPS if k.arity <= w]
        kind = draw(st.sampled_from(kinds))
        # two distinct slots in either order: the control above or below
        slots = draw(st.permutations(range(w)))[:kind.arity]
        ops.append(GateOp(kind, tuple(slots), draw(_PHASE_OPS[kind])))
    return w, ops


@settings(max_examples=80, deadline=None)
@given(_phase_groups())
def test_phase_vectors_match_the_ops_applied_to_ones(group):
    """The closed-form phase vector of a group of diagonal ops on 1 to 16
    bits equals ``apply_op`` of each, in order, on a vector of ones. Every
    factor has modulus 1, and each side takes at most a few roundings of
    about ``eps`` per op into an amplitude (the closed form through ratios
    of diagonal entries), hence the bound of ``4 eps`` per op."""
    w, ops = group
    assert all(is_diagonal(op) for op in ops)
    expect = np.ones(1 << w, dtype=np.complex128)
    for op in ops:
        apply_op(expect, w, op)
    atol = 4 * len(ops) * np.finfo(np.float64).eps
    np.testing.assert_allclose(hier._phases(ops, w), expect, rtol=0, atol=atol)


def test_fused_run_allocates_only_its_phase_vector():
    """A run of diagonal ops over a 2**18-amplitude block of 2**10-amplitude
    rows allocates the 16 KiB phase vector, and no copy of the block."""
    w = 10
    ops = tuple(
        GateOp(GateKind.CRZ, (q, (q + 1) % w), (0.1 * q,)) for q in range(w)
    ) + tuple(GateOp(GateKind.U1, (q,), (0.2,)) for q in range(w))
    circuit = Circuit(w, ops)
    part = Part(0, tuple(range(len(ops))), tuple(range(w)))
    exe = remap_part(circuit, part)
    data = np.full((1 << 8, 1 << w), 2.0 ** -9, dtype=np.complex128)
    tracemalloc.start()
    try:
        run_part(data, exe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * data.nbytes


# --- chunks and fused groups ----------------------------------------------


def _workers_found(workers):
    """Skip a pooled case where numpy's BLAS thread count cannot be set,
    since every part then runs on one worker."""
    if workers > 1 and _blas_threads() is None:
        pytest.skip("numpy's BLAS thread count cannot be set")


@pytest.mark.parametrize("workers", [1, 2])
def test_fused_groups_allocate_one_scratch_chunk(monkeypatch, workers):
    """Fused groups on scattered 4-slot sets over a 2**18-amplitude block
    of 2**10-amplitude rows, one product per dagp group, run through
    permutes and products that alternate each chunk with one scratch
    buffer: the run allocates that chunk-sized buffer once per worker
    (one per CPU, stubbed), and no copy per step."""
    _workers_found(workers)
    monkeypatch.setattr(statevec, "_cpus", lambda: workers)
    w = 10
    sets = ((0, 3, 6, 9), (1, 4, 7, 8), (2, 5, 6, 9), (0, 1, 8, 9))
    ops = tuple(
        op
        for slots in sets
        for op in (
            *(GateOp(GateKind.H, (q,), ()) for q in slots),
            GateOp(GateKind.CX, slots[:2], ()),
            GateOp(GateKind.RX, (slots[3],), (0.3,)),
        )
    )
    circuit = Circuit(w, ops)
    exe = remap_part(circuit, Part(0, tuple(range(len(ops))), tuple(range(w))))
    rng = np.random.default_rng(5)
    shape = (1 << 8, 1 << w)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expect = data.copy()
    for op in ops:
        apply_op(expect, w, op)
    tracemalloc.start()
    try:
        run_part(data, exe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kinds = [kind for kind, _ in exe.steps.kernels]
    groups = _dagp(exe.ops, range(len(ops)), hier.FUSE_WIDTH)
    assert kinds.count("matmul") == len(groups) > 1
    assert "permute" in kinds
    chunk = statevec.CHUNK_AMPS * data.itemsize
    assert chunk < data.nbytes
    assert workers * chunk <= peak <= workers * 1.1 * chunk
    assert np.max(np.abs(data - expect)) <= 1e-12


def _spread(rng, n, num_ops, kinds=tuple(GateKind)):
    """A random circuit over ``kinds``, every gate kind by default, behind
    an H on every qubit, so every phase shows."""
    body = random_circuit(rng, n, num_ops, kinds)
    spread = tuple(GateOp(GateKind.H, (q,), ()) for q in range(n))
    return Circuit(n, spread + body.ops)


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_chunked_parts_match_the_oracle_and_flat(rows):
    """With chunks of one amplitude, of one ``2**l1``-amplitude row and of
    three such rows (three batch entries, the last chunk of a block then
    short; a staged part's rows go in runs of a power of two), flat and
    nested parts on a batch of four states equal the single-assignment
    passes, and every executor equals flat."""
    l1, l2 = 5, 3
    chunk = rows << l1 or 1
    n = 7
    circuit = _spread(random.Random(rows), n, 60)
    dag = build_dag(circuit)
    expect = simulate_flat(circuit).data
    data_rng = np.random.default_rng(rows)
    for partition in (partition_dagp(dag, l1), partition_multilevel(dag, l1, l2)):
        shape = (4, 1 << n)
        data = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
        oracle = data.copy()
        for entry in oracle:
            _run_oracle(entry, circuit, partition)
        with _chunks_of(chunk):
            for exe in executable_parts(circuit, partition):
                run_part(data, exe)
            got = execute_hierarchical(circuit, partition)
            states = [simulate_distributed(circuit, partition, p).state for p in (1, 2)]
        assert np.max(np.abs(data - oracle)) <= 1e-12
        assert np.max(np.abs(got.data - expect)) <= 1e-12
        for state in states:
            assert np.max(np.abs(state.data - expect)) <= 1e-12

    # a whole-state part on a batch of four: each entry is one row, and the
    # chunks are views of up to ``rows`` entries, the last one short
    small = _spread(random.Random(rows), l1, 30)
    gates = tuple(range(small.num_ops))
    whole = remap_part(small, Part(0, gates, tuple(range(l1))))
    data = np.zeros((4, 1 << l1), dtype=np.complex128)
    data[:, 0] = 1.0
    with _chunks_of(chunk):
        run_part(data, whole)
    assert np.max(np.abs(data - simulate_flat(small).data)) <= 1e-12


@pytest.mark.parametrize("width", [2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fused_groups_match_flat_and_the_oracle(width, seed):
    """Flat and two-level partitions of random circuits over every gate
    kind that fits the fusion width ``width`` (no CCX at width 2), fused at
    that width, run hierarchically and on 1 and 2 emulated rank bits, equal
    the flat simulator and the unfused single-assignment passes."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    kinds = tuple(k for k in GateKind if k.arity <= width)
    circuit = _spread(rng, n, rng.randint(10, 50), kinds)
    widest = max(len(o.qubits) for o in circuit.ops)
    l1 = rng.randint(max(2, widest), n - 2)
    l2 = rng.randint(max(2, widest), l1)
    dag = build_dag(circuit)
    expect = simulate_flat(circuit).data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hier, "FUSE_WIDTH", width)
        for partition in (partition_dagp(dag, l1), partition_multilevel(dag, l1, l2)):
            data = zero_state(n).data
            oracle = data.copy()
            for exe in executable_parts(circuit, partition):
                run_part(data, exe)
            _run_oracle(oracle, circuit, partition)
            assert np.max(np.abs(data - expect)) <= 1e-12
            assert np.max(np.abs(data - oracle)) <= 1e-12
            for p in (1, 2):
                state = simulate_distributed(circuit, partition, p).state
                assert np.max(np.abs(state.data - expect)) <= 1e-12


@pytest.mark.parametrize("width", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2, 3]))
def test_kernelized_parts_match_the_unfused_ops(width, seed, rows):
    """The dagp kernels at fusion width ``width``, on random circuits over
    every gate kind that fits that width with two CCX gates at widths 3
    and 4 (a gate wider than the fusion width is refused, so width 2
    draws none), flat and two-level: each part's plan, run on a batch of
    two random states in chunks of ``rows`` level-1 rows, equals the
    part's ops applied one by one, and no step is wider than the fusion
    width; the whole run equals flat, hierarchically and on 1 and 2
    emulated rank bits."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    kinds = tuple(k for k in GateKind if k.arity <= width)
    ops = list(_spread(rng, n, rng.randint(10, 50), kinds).ops)
    for _ in range(2 if width > 2 else 0):
        ccx = GateOp(GateKind.CCX, tuple(rng.sample(range(n), 3)), ())
        ops.insert(rng.randint(n, len(ops)), ccx)
    circuit = Circuit(n, tuple(ops))
    l1 = rng.randint(3, n - 2)
    l2 = rng.randint(3, l1)
    dag = build_dag(circuit)
    expect = simulate_flat(circuit).data
    data_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hier, "FUSE_WIDTH", width)
        for partition in (partition_dagp(dag, l1), partition_multilevel(dag, l1, l2)):
            for exe in executable_parts(circuit, partition):
                shape = (2, 1 << n)
                data = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
                unfused = data.copy()
                for entry in unfused:
                    _run_part_oracle(entry, exe)
                with _chunks_of(rows << l1):
                    run_part(data, exe)
                assert np.max(np.abs(data - unfused)) <= 1e-12
                assert all(
                    kind != "op" or len(arg.qubits) <= width
                    for kind, arg in exe.steps.kernels
                )
            with _chunks_of(rows << l1):
                got = execute_hierarchical(circuit, partition)
                states = [simulate_distributed(circuit, partition, p).state for p in (1, 2)]
            assert np.max(np.abs(got.data - expect)) <= 1e-12
            for state in states:
                assert np.max(np.abs(state.data - expect)) <= 1e-12


#: h h | crz u1 | swap | crz u1: a SWAP between two diagonal runs, which
#: their gates may not cross
_LONE_SWAP = (
    GateOp(GateKind.H, (0,), ()),
    GateOp(GateKind.H, (1,), ()),
    GateOp(GateKind.CRZ, (0, 1), (0.4,)),
    GateOp(GateKind.U1, (1,), (0.9,)),
    GateOp(GateKind.SWAP, (0, 1), ()),
    GateOp(GateKind.CRZ, (1, 0), (1.3,)),
    GateOp(GateKind.U1, (0,), (0.2,)),
)


def _qft_after_lone_swap(n):
    return Circuit(n, _LONE_SWAP + bench.qft(n).ops)


#: h on 0-3 and a CX chain through them, one full group of four slots |
#: cx(3, 4) | cx(4, 5) cx(5, 0) cx(0, 1): at 5/3 a two-level part on slots
#: 0-4 holds the full group and cx(3, 4), which joins it only on five
#: slots, so stays a lone op
_LONE_CX = (
    *(GateOp(GateKind.H, (q,), ()) for q in range(4)),
    *(GateOp(GateKind.CX, (q, q + 1), ()) for q in range(4)),
    GateOp(GateKind.CX, (4, 5), ()),
    GateOp(GateKind.CX, (5, 0), ()),
    GateOp(GateKind.CX, (0, 1), ()),
)


#: multilevel cases whose two-level parts compile to fused groups and
#: SWAPs, all but spread2 to phase vectors, and in qft8cx a lone op
_NESTED = [
    ("qft8", lambda: _qft_after_lone_swap(8), 6, 4),
    ("qft8", lambda: _qft_after_lone_swap(8), 5, 3),
    *[(f"spread{s}", lambda s=s: _spread(random.Random(s), 8, 60), 6, 4)
      for s in range(3)],
    ("qft8cx", lambda: Circuit(8, _LONE_CX + bench.qft(8).ops), 5, 3),
]


@pytest.mark.parametrize("chunk_rows", [0, 1])
@pytest.mark.parametrize("name,build,l1,l2", _NESTED)
def test_nested_parts_match_flat_and_the_oracle(name, build, l1, l2, chunk_rows):
    """Two-level parts run as their level-1 gates' dagp groups, by the
    default chunks and by chunks of one level-1 row, equal the truly
    nested single-assignment passes and flat, hierarchically and on 1 and
    2 emulated rank bits; the compiles of each case's two-level parts hold
    dense groups and SWAPs, phase groups in all but spread2 (whose free
    diagonal gates all join dense groups), and qft8cx's a lone op too (in
    the others every exchange fuses with the gates around it)."""
    chunk = chunk_rows << l1 or statevec.CHUNK_AMPS
    circuit = build()
    partition = partition_multilevel(build_dag(circuit), l1, l2)
    expect = simulate_flat(circuit).data
    data = zero_state(circuit.num_qubits).data
    oracle = data.copy()
    held = set()
    for exe, sub in zip(executable_parts(circuit, partition), partition.sublevels):
        if len(sub.parts) > 1:
            held.update(tag for tag, _ in hier._compile(exe.ops))
            held.update(op.kind for op in exe.ops)
        with _chunks_of(chunk):
            run_part(data, exe)
    _run_oracle(oracle, circuit, partition)
    lone = {"op"} if name == "qft8cx" else set()
    phase = set() if name == "spread2" else {"phase"}
    assert {"dense", GateKind.SWAP} | phase | lone <= held
    assert np.max(np.abs(data - expect)) <= 1e-12
    assert np.max(np.abs(data - oracle)) <= 1e-12
    with _chunks_of(chunk):
        got = execute_multilevel(circuit, partition)
        states = [simulate_distributed(circuit, partition, p).state for p in (1, 2)]
    assert np.max(np.abs(got.data - expect)) <= 1e-12
    for state in states:
        assert np.max(np.abs(state.data - expect)) <= 1e-12


def test_two_level_part_builds_its_index_matrix_once(monkeypatch):
    """A two-level part run in one chunk per level-1 row builds one
    chunk's index matrix once, over the bits a chunk varies (its ``w``
    positions, then free bits up to a chunk's ``2**6`` amplitudes), and
    nothing for its level-2 parts: qft(9) at 6/4 has more than two of
    them. A part on the lowest bits of the state builds none: its chunks
    are views."""
    calls = []
    real = hier.part_block_indices

    def counted(num_qubits, qubits):
        calls.append((num_qubits, tuple(qubits)))
        return real(num_qubits, qubits)

    monkeypatch.setattr(hier, "part_block_indices", counted)
    circuit = bench.qft(9)
    partition = partition_multilevel(build_dag(circuit), 6, 4)
    data = zero_state(9).data
    low = 0
    for exe in executable_parts(circuit, partition):
        calls.clear()
        with _chunks_of(1 << 6):
            run_part(data, exe)
        if exe.positions == tuple(range(exe.num_slots)):
            low += 1
            assert calls == []
        else:
            ((bits, qubits),) = calls
            w, m = exe.num_slots, exe.positions[-1] + 1
            assert bits == min(m, max(w, 6))
            free = sorted(set(range(m)) - set(exe.positions))
            varying = sorted([*exe.positions, *free[:bits - w]])
            # the columns come in the plan's entry order
            assert sorted(qubits) == [varying.index(p) for p in exe.positions]
    assert 0 < low < partition.level1.num_parts
    assert sum(len(s.parts) for s in partition.sublevels if len(s.parts) > 1) > 2
    assert np.max(np.abs(data - simulate_flat(circuit).data)) <= 1e-12


@pytest.mark.parametrize("p", [None, 1, 2])
def test_part_on_the_lowest_bits_runs_on_views(monkeypatch, p):
    """A part on the lowest bits of a 10-qubit state, run on the full state
    (``p`` None) or on ``2**p`` rank buffers, from a random state and in
    several chunks, builds no index matrix and matches the gates applied
    one by one."""
    calls = []
    monkeypatch.setattr(hier, "part_block_indices", lambda *a: calls.append(a))
    circuit = Circuit(10, bench.qft(5).ops)
    partition = partition_dagp(build_dag(circuit), 5)
    assert [part.qubits for part in partition.parts] == [(0, 1, 2, 3, 4)]
    rng = np.random.default_rng(3)
    data = rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10)
    initial = StateVector(10, data / np.linalg.norm(data))
    expect = initial.data.copy()
    for op in circuit.ops:
        apply_op(expect, 10, op)
    with _chunks_of(1 << 6):
        if p is None:
            got = execute_hierarchical(circuit, partition, initial=initial)
        else:
            got = simulate_distributed(circuit, partition, p, initial=initial).state
    assert calls == []
    assert np.max(np.abs(got.data - expect)) <= 1e-12


#: kinds that never only scale, so two of them never fold into a phase
_DENSE = tuple(
    k for k in GateKind
    if not is_diagonal(GateOp(k, tuple(range(k.arity)), (0.5,) * k.num_params))
)


def _product(ops):
    """A group's sorted slots and its unitary on them: the product of its
    ops' full operators on those slots, in program order."""
    slots = sorted({q for op in ops for q in op.qubits})
    local = {q: j for j, q in enumerate(slots)}
    u = np.eye(1 << len(slots), dtype=np.complex128)
    for op in ops:
        moved = GateOp(op.kind, tuple(local[q] for q in op.qubits), op.params)
        u = _full_operator(moved, len(slots)) @ u
    return slots, u


def _moved(order, arg):
    """``order`` after a permute kernel's ``arg``: a gather index, which
    must be that of a bit permutation (``bit_offsets`` of the bits it reads
    each new bit from), or a ``sigma`` moving bit ``i`` to ``sigma[i]``."""
    if isinstance(arg, tuple):
        moved = list(order)
        for i, j in enumerate(arg):
            moved[j] = order[i]
        return tuple(moved)
    source = [int(arg[1 << j]).bit_length() - 1 for j in range(len(order))]
    assert np.array_equal(arg, bit_offsets(source))
    return tuple(order[b] for b in source)


def _walk(exe):
    """``exe``'s plan's kernels, each as ``(kind, arg, order)`` with
    ``order[j]`` the slot at index bit ``j`` while it runs: the walk starts
    at the plan's entry order, each permute moves it (``_moved``), and it
    must end at the plan's exit order once each slot there is read as the
    slot the part's swaps moved onto it (``hier._relabel``)."""
    plan = exe.steps
    order, walked = plan.entry, []
    for kind, arg in plan.kernels:
        if kind == "permute":
            order = _moved(order, arg)
        walked.append((kind, arg, order))
    _, where = hier._relabel(exe.ops, exe.num_slots)
    assert tuple(where.index(p) for p in order) == plan.exit
    return walked


@pytest.mark.parametrize("seed", range(4))
def test_each_fused_unitary_is_its_ops_product(seed):
    """Three segments of ops on alternating 4-slot sets of an 8-slot part.
    Each segment opens with an H on all four of its slots; dense ops
    alternate with ops of any kind, so no two diagonal ops meet and the
    part is one dagp segment. Its swaps, each within one set, are
    relabellings (``hier._relabel``), so the ops left keep to the same
    sets. The middle set shares no slot with the others, so dagp puts the
    first and last segments in one group, and the plan holds one product
    per group. Walking the plan (``_walk``), each product finds its
    group's sorted slots on the lowest bits, and each product's unitary is
    the product of its own group's relabelled ops' full operators on those
    slots, in program order, and unitary."""
    rng = random.Random(seed)
    sets = ((0, 2, 5, 7), (1, 3, 4, 6), (0, 2, 5, 7))
    segments = []
    for slots in sets:
        ops = [GateOp(GateKind.H, (q,), ()) for q in slots]
        for i in range(8):
            kind = rng.choice(_DENSE if i % 2 == 0 else tuple(GateKind))
            qubits = tuple(rng.sample(slots, kind.arity))
            ops.append(GateOp(kind, qubits, random_params(rng, kind)))
        segments.append(ops)
    circuit = Circuit(8, tuple(op for ops in segments for op in ops))
    gates = tuple(range(circuit.num_ops))
    exe = remap_part(circuit, Part(0, gates, tuple(range(8))))
    ops, _ = hier._relabel(exe.ops, 8)
    groups = [
        [ops[i] for i in group]
        for group in _dagp(ops, range(len(ops)), hier.FUSE_WIDTH)
    ]
    assert [_product(group)[0] for group in groups] == [[0, 2, 5, 7], [1, 3, 4, 6]]
    fused = []
    for kind, arg, order in _walk(exe):
        if kind != "permute":
            assert kind == "matmul"
            low, u = arg
            assert low == 0
            fused.append((order[:4], u))
    assert len(fused) == len(groups)
    for (slots, u), ops in zip(fused, groups):
        expect_slots, expect = _product(ops)
        assert list(slots) == expect_slots
        assert np.max(np.abs(u - expect)) <= 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) <= 1e-12


#: slot sets of a 10-slot part, named by the bits their fused group finds
#: them on when it runs first: the lowest bits, bits that a padded
#: product covers, the highest bits, and scattered bits
_PLACED = {
    "low": (0, 1, 2, 3),
    "padded": (1, 3),
    "high": (6, 7, 8, 9),
    "scattered": (0, 4, 7, 9),
}
#: consecutive groups: disjoint ones (the permute for the first also lifts
#: the second to the highest bits) and overlapping ones
_CONSECUTIVE = {
    "disjoint": ((0, 3, 5, 8), (1, 2, 6, 9), (0, 4, 7, 9)),
    "overlapping": ((0, 4, 7, 9), (4, 5, 6, 8), (1, 5, 8, 9)),
}


def _group(rng, slots):
    """A group of dense ops on ``slots``: an H on each, a CX on each pair of
    neighbouring slots, so that the group's gates are joined on its wires,
    then ops of kinds that never only scale, so the group's unitary spans
    exactly ``slots``."""
    ops = [GateOp(GateKind.H, (q,), ()) for q in slots]
    ops += [GateOp(GateKind.CX, pair, ()) for pair in zip(slots, slots[1:])]
    for _ in range(6):
        kind = rng.choice([k for k in _DENSE if k.arity <= len(slots)])
        qubits = tuple(rng.sample(slots, kind.arity))
        ops.append(GateOp(kind, qubits, random_params(rng, kind)))
    return ops


def _phase_run(rng, w):
    """Two diagonal ops, which fold into one phase vector and so keep the
    dense steps on either side of them apart."""
    a, b = rng.sample(range(w), 2)
    return [
        GateOp(GateKind.CRZ, (a, b), (rng.uniform(-3, 3),)),
        GateOp(GateKind.U1, (b,), (rng.uniform(-3, 3),)),
    ]


def _embed(u, bits, h):
    """The ``2**h`` unitary that acts as ``u`` on index bits ``bits`` (bit
    ``j`` of ``u``'s index is ``bits[j]``) and as the identity on the
    other bits below ``h``."""
    m = np.kron(u, np.eye(1 << (h - len(bits)), dtype=u.dtype))
    # m holds u's bits on top of the identity's; move each where it belongs
    sigma = [b for b in range(h) if b not in bits] + list(bits)
    m = _permute_bits(m, sigma)  # column bits, row by row
    return _permute_bits(m.T, sigma).T


def _check_products(exe):
    """Walk ``exe``'s plan (``_walk``) alongside the dense groups of its
    relabelled ops (``hier._relabel``): each product is its group's
    unitary on its sorted slots, embedded at the bits the plan's entry
    order and permutes have moved those slots to."""
    ops, _ = hier._relabel(exe.ops, exe.num_slots)
    groups = [group for tag, group in hier._compile(ops) if tag == "dense"]
    for kind, arg, order in _walk(exe):
        if kind == "matmul":
            t, u = arg
            slots, expect = _product(groups.pop(0))
            bits = [order.index(s) - t for s in slots]
            h = len(u).bit_length() - 1
            assert np.max(np.abs(u - _embed(expect, bits, h))) <= 1e-12
    assert groups == []


@pytest.mark.parametrize("seed", range(3))
def test_placed_kernels_match_the_unfused_ops(seed):
    """Dense steps run wherever their bits sit: a lone dense 1-qubit gate
    at every slot, fused groups found on the lowest, padded-low, highest
    and scattered bits, and disjoint and overlapping consecutive groups,
    each as a part of a 10-slot block, staged out of a 12-qubit state on a
    batch of two and run in chunks of two rows, equal the ops applied one
    by one. Each product is its group's unitary, embedded where the plan
    finds the group's slots (``_check_products``), and together the plans
    use every kernel."""
    rng = random.Random(seed)
    w, n = 10, 12
    cases = []
    for kind in (GateKind.H, GateKind.RX, GateKind.U3, GateKind.RY):
        for q in range(w):
            cases.append([GateOp(kind, (q,), random_params(rng, kind))])
        # every slot again, in a random order, between phase runs, whose
        # gates commute, so the gates fuse four at a time and the products
        # meet bits that earlier permutes moved
        lone = []
        for q in rng.sample(range(w), w):
            lone += [GateOp(kind, (q,), random_params(rng, kind))]
            lone += _phase_run(rng, w)
        cases.append(lone)
    for slots in _PLACED.values():
        cases.append(_group(rng, slots))
    for sets in _CONSECUTIVE.values():
        cases.append([op for slots in sets for op in _group(rng, slots)])
    data_rng = np.random.default_rng(seed)
    kinds = set()  # and, for products, the lowest bit they run on
    for ops in cases:
        positions = tuple(sorted(rng.sample(range(n), w)))
        part = Part(0, tuple(range(len(ops))), tuple(range(w)))
        exe = remap_part(Circuit(w, tuple(ops)), part)
        exe = rebase(exe, dict(enumerate(positions)))
        shape = (2, 1 << n)
        data = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
        expect = data.copy()
        for op in ops:
            apply_op(expect, n, hier._lift(op, positions))
        with _chunks_of(2 << 10):
            run_part(data, exe)
        assert np.max(np.abs(data - expect)) <= 1e-12
        _check_products(exe)
        for kind, arg in exe.steps.kernels:
            kinds.add((kind, arg[0] > 0) if kind == "matmul" else kind)
            assert kind != "op" or len(arg.qubits) > 1 or not is_dense(arg)
    assert kinds == {("matmul", False), ("matmul", True), "permute", "phase"}


#: the diagonal kinds a part's runs are drawn from, and the others
_RUN_KINDS = (
    GateKind.RZ, GateKind.U1, GateKind.Z, GateKind.S, GateKind.T,
    GateKind.CZ, GateKind.CRZ,
)
_OTHER_KINDS = (
    GateKind.H, GateKind.RX, GateKind.U3, GateKind.CX, GateKind.SWAP, GateKind.CCX,
)


def _random_op(rng, kinds, slots):
    kind = rng.choice(kinds)
    return GateOp(kind, tuple(rng.sample(slots, kind.arity)), random_params(rng, kind))


def _mixed_part(rng, w, width):
    """Ops on ``w`` slots: an H on each, then runs of two to five diagonal
    ops between short stretches of other ops (CX, SWAP and, when the
    fusion width ``width`` holds it, CCX among them), and traps: a dense op
    on one slot, a two-slot diagonal op from it to another and a second
    diagonal op, then a dense op on the first slot again, so the two dense
    ops may share a group that lacks the other slot."""
    slots = range(w)
    others = [k for k in _OTHER_KINDS if k.arity <= width]
    ops = [GateOp(GateKind.H, (q,), ()) for q in slots]
    for _ in range(rng.randint(3, 10)):
        pick = rng.random()
        if pick < 0.4:
            run = rng.randint(2, 5)
            ops += [_random_op(rng, _RUN_KINDS, slots) for _ in range(run)]
        elif pick < 0.7:
            a, b = rng.sample(slots, 2)
            kind = rng.choice((GateKind.CZ, GateKind.CRZ))
            ops += [
                _random_op(rng, (GateKind.H, GateKind.RX, GateKind.U3), [a]),
                GateOp(kind, (a, b), random_params(rng, kind)),
                _random_op(rng, _RUN_KINDS, slots),
                _random_op(rng, (GateKind.H, GateKind.RX, GateKind.U3), [a]),
            ]
        else:
            stretch = rng.randint(1, 3)
            ops += [_random_op(rng, others, slots) for _ in range(stretch)]
    return ops


def _spy_on_dagp(mp):
    """The list each ``hier._dagp`` call appends its arguments to while
    ``mp`` holds its patch."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _dagp(*args)

    mp.setattr(hier, "_dagp", spy)
    return calls


def _check_groups(ops, groups, width):
    """``_compile``'s ``groups`` of ``ops`` at fusion width ``width``: every
    op in exactly one group, a ``"phase"`` group all diagonal, a
    ``"dense"`` group on at most ``width`` slots, and an ``"op"`` group one
    lone exchange. Every op runs after each earlier op on one of its slots
    that it does not commute with (not both diagonal): so a free op placed
    in a phase group, just before the first group that must follow it, has
    all its predecessors in earlier groups."""
    assert Counter(op for _, group in groups for op in group) == Counter(ops)
    index = {id(op): i for i, op in enumerate(ops)}
    assert len(index) == len(ops)
    at = {}  # op index -> (group, place in the group)
    for k, (tag, group) in enumerate(groups):
        at.update({index[id(op)]: (k, j) for j, op in enumerate(group)})
        if tag == "phase":
            assert all(is_diagonal(op) for op in group)
        elif tag == "dense":
            assert len({s for op in group for s in op.qubits}) <= width
        else:
            assert tag == "op" and len(group) == 1
            assert not (is_dense(group[0]) or is_diagonal(group[0]))
    for i, op in enumerate(ops):
        for h in range(i):
            earlier = ops[h]
            if set(earlier.qubits) & set(op.qubits) and not (
                is_diagonal(earlier) and is_diagonal(op)
            ):
                assert at[h] < at[i]


@pytest.mark.parametrize("width", [2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_diagonals_move_to_their_groups(width, seed):
    """Random parts of diagonal runs, traps and other ops, CCX among them
    at widths 3 and 4, their swaps taken as relabellings
    (``hier._relabel``), grouped at fusion width ``width`` by one dagp call
    (``_check_groups``): each product of the plan is its group's unitary
    (``_check_products``), and the plan, staged out of a larger state or
    on its lowest bits, run on a batch of two random states in chunks of
    two rows, equals the ops applied one by one."""
    rng = random.Random(seed)
    w = rng.randint(4, 7)
    n = w + 2
    ops = _mixed_part(rng, w, width)
    part = Part(0, tuple(range(len(ops))), tuple(range(w)))
    data_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hier, "FUSE_WIDTH", width)
        calls = _spy_on_dagp(mp)
        left, _ = hier._relabel(ops, w)
        _check_groups(left, hier._compile(left), width)
        assert len(calls) == 1
        for positions in (tuple(sorted(rng.sample(range(n), w))), tuple(range(w))):
            exe = remap_part(Circuit(w, tuple(ops)), part)
            exe = rebase(exe, dict(enumerate(positions)))
            _check_products(exe)
            shape = (2, 1 << n)
            data = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
            unfused = data.copy()
            for entry in unfused:
                _run_part_oracle(entry, exe)
            with _chunks_of(2 << w):
                run_part(data, exe)
            assert np.max(np.abs(data - unfused)) <= 1e-12


def test_enclosed_diagonal_is_pinned_before_grouping():
    """h(0) | cz(0, 1) rz(2) | h(0): the cz has an h before and after it on
    slot 0, so the two h gates might form one group on slot 0 that it
    could neither join without slot 1 nor leave. It is pinned before dagp
    groups the part, and runs in one product with them; the rz, which no
    other op touches, is a one-gate phase vector at the end. A cz across
    two full groups, with other ops before it on one slot and after it on
    the other, stays free and waits in a phase vector between them."""
    h0 = GateOp(GateKind.H, (0,), ())
    cz = GateOp(GateKind.CZ, (0, 1), ())
    rz = GateOp(GateKind.RZ, (2,), (0.4,))
    assert hier._compile([h0, cz, rz, h0]) == [("dense", [h0, cz, h0]), ("phase", [rz])]
    first = [GateOp(GateKind.H, (q,), ()) for q in range(4)]
    first += [GateOp(GateKind.CX, (q, q + 1), ()) for q in range(3)]
    second = [GateOp(GateKind.CX, (q, q + 1), ()) for q in range(4, 7)]
    across = GateOp(GateKind.CZ, (3, 4), ())
    ops = [*first, across, GateOp(GateKind.Z, (4,), ()), *second]
    assert hier._compile(ops) == [
        ("dense", first), ("phase", [across]), ("dense", [ops[-4], *second]),
    ]


def test_no_diagonal_gate_spans_three_qubits():
    """``_compile`` places every free op without regrouping only because a
    diagonal op spans at most two slots: no gate kind on three or more
    qubits is diagonal, at zero angles or at random ones."""
    rng = random.Random(0)
    for kind in GateKind:
        if kind.arity > 2:
            for params in ((0.0,) * kind.num_params, random_params(rng, kind)):
                assert not is_diagonal(GateOp(kind, tuple(range(kind.arity)), params))


def test_op_wider_than_the_fusion_width_is_refused(monkeypatch):
    """A gate wider than ``FUSE_WIDTH`` reaches dagp like any other, which
    refuses it: at width 2 a CCX raises ``LimitTooSmallError``."""
    monkeypatch.setattr(hier, "FUSE_WIDTH", 2)
    ops = [GateOp(GateKind.H, (0,), ()), GateOp(GateKind.CCX, (0, 1, 2), ())]
    with pytest.raises(LimitTooSmallError):
        hier._compile(ops)


#: slot sets of the groups of a 6-slot part whose plan enters and leaves
#: in orders other than the identity, with ``STRIDE_FLOOR`` at 4: the first
#: group's slots span more than ``FUSE_WIDTH`` bits, so the gather brings
#: them to the lowest bits. In "odd" the same gather lifts the second
#: group's slots, disjoint from the first's, to the highest bits, where it
#: runs in place: three permutes and products, the gather's included. In
#: "even" the second group shares a slot with the first, so a permute
#: brings it to the lowest bits: four. The two never fit one product.
_ENTER_AND_LEAVE = {
    "even": ((0, 2, 3, 5), (0, 1, 4)),
    "odd": ((0, 2, 3, 5), (1, 4)),
}


def _enter_and_leave(monkeypatch, rng, sets):
    """A 6-slot part on ``_ENTER_AND_LEAVE[sets]``'s groups, each followed
    by a phase run, and its ops, planned with ``STRIDE_FLOOR`` at 4."""
    monkeypatch.setattr(hier, "STRIDE_FLOOR", 4)
    w = 6
    ops = [op for slots in _ENTER_AND_LEAVE[sets] for op in _group(rng, slots)
           + _phase_run(rng, w)]
    gates = tuple(range(len(ops)))
    exe = remap_part(Circuit(w, tuple(ops)), Part(0, gates, tuple(range(w))))
    plan = exe.steps
    assert plan.entry != tuple(range(w)) and plan.exit != tuple(range(w))
    moves = 1 + sum(kind in ("permute", "matmul") for kind, _ in plan.kernels)
    assert moves == {"even": 4, "odd": 3}[sets]
    return exe, ops


@pytest.mark.parametrize("sets", _ENTER_AND_LEAVE)
@pytest.mark.parametrize("chunk", [1 << 4, 3 << 6, 3 << 7, 1 << 16])
@pytest.mark.parametrize("p", [None, 1, 2])
@pytest.mark.parametrize("placement", ["staged", "lowest"])
def test_plans_enter_and_leave_in_their_own_orders(
    monkeypatch, placement, p, chunk, sets
):
    """A 6-slot part whose plan enters and leaves in non-identity orders
    (``_enter_and_leave``), staged out of a 9-qubit state or
    on its lowest bits, run on the full state (``p`` None) or on ``2**p``
    rank buffers, from a random state, equals its ops applied one by one.
    The chunks are rows wider than a chunk (``2**4`` amplitudes), several
    batch entries or rows per chunk (three times ``2**6`` or ``2**7``
    amplitudes: three batch entries, the last chunk short, or two rows),
    or the default."""
    n, w = 9, 6
    exe, ops = _enter_and_leave(monkeypatch, random.Random(chunk + (p or 0)), sets)
    local = n - (p or 0)  # the offset bits of a rank buffer
    if placement == "staged":
        positions = (0, 1, 3, 4, local - 2, local - 1)
    else:
        positions = tuple(range(w))
    exe = rebase(exe, dict(enumerate(positions)))
    shape = (1 << local,) if p is None else (1 << p, 1 << local)
    data_rng = np.random.default_rng(chunk)
    data = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
    expect = data.copy()
    for op in ops:
        apply_op(expect, local, hier._lift(op, positions))
    with _chunks_of(chunk):
        run_part(data, exe)
    assert np.max(np.abs(data - expect)) <= 1e-12


#: swaps on five slots and the order they leave a chunk in, slot
#: ``_SWAPS_EXIT[j]`` at bit ``j``: taken as relabellings, they leave no
#: slot where it was
_SWAPS = ((0, 3), (1, 4), (3, 2), (0, 1))
_SWAPS_EXIT = (2, 4, 3, 1, 0)


def _swap_part():
    ops = tuple(GateOp(GateKind.SWAP, pair, ()) for pair in _SWAPS)
    return remap_part(Circuit(5, ops), Part(0, tuple(range(len(ops))), tuple(range(5))))


def _run_against_the_ops(exe, n, seed, chunk):
    """``exe`` run on a batch of two random ``n``-qubit states in chunks of
    ``chunk`` amplitudes, against its ops applied one by one on its
    positions."""
    data_rng = np.random.default_rng(seed)
    shape = (2, 1 << n)
    data = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
    expect = data.copy()
    for op in exe.ops:
        apply_op(expect, n, hier._lift(op, exe.positions))
    with _chunks_of(chunk):
        run_part(data, exe)
    assert np.max(np.abs(data - expect)) <= 1e-12


@pytest.mark.parametrize("chunk", [1 << 4, 1 << 7, 1 << 16])
@pytest.mark.parametrize("placement", ["lowest", "staged"])
def test_swap_only_parts_only_relabel(placement, chunk):
    """A part of swaps only plans no kernel at all: it enters in the
    identity order and leaves in the order its swaps relabel
    (``_SWAPS_EXIT``). On the lowest bits of a 9-qubit state or staged out
    of it, on rows wider than a chunk (``2**4`` amplitudes), in several
    chunks or in one, it equals the swaps applied one by one."""
    exe = _swap_part()
    assert exe.steps == hier.Plan(tuple(range(5)), [], _SWAPS_EXIT)
    positions = tuple(range(5)) if placement == "lowest" else (0, 2, 3, 6, 8)
    _run_against_the_ops(rebase(exe, dict(enumerate(positions))), 9, chunk, chunk)


@pytest.mark.parametrize("chunk", [1 << 4, 1 << 7])
def test_kernel_less_view_plan_leaves_in_its_exit_order(chunk):
    """A part on the lowest bits whose plan, set on it directly, has no
    kernel but leaves out of the identity order copies each chunk out of
    its view and writes it back in that order, also on rows wider than a
    chunk, so it equals its swaps applied one by one."""
    exe = _swap_part()
    exe.__dict__["steps"] = hier.Plan(tuple(range(5)), [], _SWAPS_EXIT)
    _run_against_the_ops(exe, 9, chunk, chunk)


def test_swap_only_partitions_run_no_kernel():
    """A circuit of swaps only, cut by dagp at limit 4 into several parts,
    plans no kernel in any part, and from a random state equals the swaps
    applied one by one, hierarchically and on 1 and 2 emulated rank
    bits."""
    pairs = [(0, 7), (1, 6), (2, 5), (3, 4), (0, 1), (6, 7), (2, 3), (5, 1)]
    circuit = Circuit(8, tuple(GateOp(GateKind.SWAP, pair, ()) for pair in pairs))
    partition = partition_dagp(build_dag(circuit), 4)
    assert partition.num_parts > 1
    for exe in executable_parts(circuit, partition):
        assert exe.steps.kernels == []
    data_rng = np.random.default_rng(1)
    data = data_rng.normal(size=1 << 8) + 1j * data_rng.normal(size=1 << 8)
    initial = StateVector(8, data / np.linalg.norm(data))
    expect = initial.data.copy()
    for op in circuit.ops:
        apply_op(expect, 8, op)
    states = [execute_hierarchical(circuit, partition, initial=initial)]
    for p in (1, 2):
        states.append(simulate_distributed(circuit, partition, p, initial=initial).state)
    for state in states:
        assert np.max(np.abs(state.data - expect)) <= 1e-12


#: the kinds drawn between swaps on the same slots: dense, diagonal and
#: exchanging ones
_AMONG_SWAPS = (
    GateKind.H, GateKind.RX, GateKind.U3, GateKind.CX, GateKind.CRZ,
    GateKind.U1, GateKind.RZ, GateKind.CZ, GateKind.CCX,
)


@pytest.mark.parametrize("chunk", [1 << 4, 2 << 6, 1 << 16])
@pytest.mark.parametrize("seed", range(4))
def test_swaps_among_other_gates_relabel(seed, chunk):
    """Parts of 6 slots whose swaps are interleaved with dense, diagonal
    and exchanging gates on the same slots, on the lowest bits of a
    9-qubit state or staged out of it, in chunks of rows wider than a
    chunk, of two rows, or the default, equal their ops applied one by
    one. No swap reaches a kernel, each product is its relabelled group's
    unitary (``_check_products``), and the plan leaves in the order the
    swaps relabel (``_walk``)."""
    rng = random.Random(seed)
    w = 6
    ops = [GateOp(GateKind.H, (q,), ()) for q in range(w)]
    for _ in range(30):
        if rng.random() < 0.3:
            ops.append(GateOp(GateKind.SWAP, tuple(rng.sample(range(w), 2)), ()))
        else:
            ops.append(_random_op(rng, _AMONG_SWAPS, range(w)))
    gates = tuple(range(len(ops)))
    exe = remap_part(Circuit(w, tuple(ops)), Part(0, gates, tuple(range(w))))
    _check_products(exe)
    for kind, arg in exe.steps.kernels:
        assert kind != "op" or arg.kind is not GateKind.SWAP
    for positions in (tuple(range(w)), (0, 2, 3, 5, 7, 8)):
        _run_against_the_ops(rebase(exe, dict(enumerate(positions))), 9, seed, chunk)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_indexed_permutes_equal_the_transposing_copy(shape, seed):
    """For random bit orders of 1 to 7 slots, the permute ``_permute``
    builds, one ``np.take`` through a ``2**w`` gather index, moves each
    entry of a batch as the transposing copy ``_permute_bits`` makes of
    it, each slot's bit in ``order`` moved to its bit in ``new``, bit for
    bit."""
    rng = np.random.default_rng(seed)
    for w in range(1, 8):
        order = [int(s) for s in rng.permutation(w)]
        new = [int(s) for s in rng.permutation(w)]
        _, index = hier._permute(order, new)
        assert index.shape == (1 << w,) and index.dtype == np.intp
        sigma = [new.index(s) for s in order]
        data = rng.normal(size=(*shape, 1 << w)) + 1j * rng.normal(size=(*shape, 1 << w))
        out = np.empty_like(data)
        np.take(data, index, axis=-1, out=out, mode="clip")
        assert np.array_equal(out, _permute_bits(data, sigma))


def _staged_positions(rng, m, w):
    """``w`` random positions below ``m`` that a part stages: not the
    lowest bits up to its highest one, whose chunks are views."""
    while True:
        positions = tuple(sorted(rng.sample(range(m), w)))
        if positions != tuple(range(positions[-1] + 1)):
            return positions


@pytest.mark.parametrize("chunk", [1 << 3, 1 << 6, 1 << 16])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_chunk_indices_are_rows_of_the_block_index_matrix(
    monkeypatch, chunk, batch, seed
):
    """A staged part gathers each chunk through one index, built once per
    call over the bits a chunk varies, from ``sub[:, base:]``, ``base``
    the offset of the chunk's fixed free bits. For random parts of 1 to 7
    slots among up to 9 bits, on a batch of states of that many bits, in
    chunks of ``2**3`` amplitudes (rows wider than a chunk), ``2**6`` or
    the default, each chunk's index plus its offset is, in chunk order,
    the next rows of ``part_block_indices(m, entry)`` (the oracle: the
    part's positions in the plan's entry order over its ``m`` lowest
    bits), every batch entry's rows are covered, no index outgrows a
    chunk or a row, and the state equals the part's ops applied one by
    one."""
    monkeypatch.setattr(statevec, "_cpus", lambda: 1)
    rng = random.Random(seed + 70)
    for _ in range(4):
        n = rng.randint(3, 9)
        w = rng.randint(1, min(7, n - 1))
        circuit = random_circuit(rng, w, 3 * w)
        gates = tuple(range(circuit.num_ops))
        exe = rebase(
            remap_part(circuit, Part(0, gates, tuple(range(w)))),
            dict(enumerate(_staged_positions(rng, n, w))),
        )
        m = exe.positions[-1] + 1
        oracle = part_block_indices(m, [exe.positions[s] for s in exe.steps.entry])
        data_rng = np.random.default_rng(seed)
        shape = (*batch, 1 << n)
        data = data_rng.normal(size=shape) + 1j * data_rng.normal(size=shape)
        expect = data.copy()
        for op in exe.ops:
            apply_op(expect, n, hier._lift(op, exe.positions))
        start = data.__array_interface__["data"][0]
        gathers = []

        def spy(real):
            def take(a, indices, *args, **kwargs):
                if kwargs.get("axis") == 1:
                    at = a.__array_interface__["data"][0] - start
                    gathers.append((at // data.itemsize, np.array(indices)))
                return real(a, indices, *args, **kwargs)
            return take

        with monkeypatch.context() as mp, _chunks_of(chunk):
            mp.setattr(np, "take", spy(np.take))
            run_part(data, exe)
        seen: dict[int, int] = {}  # batch entry -> rows of it gathered
        for at, index in gathers:
            entry, base = divmod(at, 1 << m)
            r = seen.get(entry, 0)
            assert index.size <= max(chunk, 1 << w)
            assert np.array_equal(base + index, oracle[r:r + len(index)])
            seen[entry] = r + len(index)
        bstep = max(1, chunk >> m)
        assert sorted(seen) == list(range(0, data.size >> m, bstep))
        assert set(seen.values()) == {len(oracle)}
        assert np.max(np.abs(data - expect)) <= 1e-12


#: the 1-qubit diagonal kinds a ZZ term's middle is drawn from; ``rx``
#: only at angle 0
_CONJUGATED = (
    GateKind.RZ, GateKind.U1, GateKind.Z, GateKind.S, GateKind.T, GateKind.RX,
)
#: kinds of the ops interleaved on other slots
_BESIDE = (GateKind.H, GateKind.RX, GateKind.U3, GateKind.X, GateKind.CZ, GateKind.CRZ)


def _conjugated_diagonal(rng, b):
    kind = rng.choice(_CONJUGATED)
    if kind is GateKind.RX:
        params = (0.0,)
    else:  # angles well outside (-pi, pi]
        params = (rng.uniform(-3 * np.pi, 3 * np.pi),) * kind.num_params
    return GateOp(kind, (b,), params)


def _conjugated_part(rng, w, terms):
    """Ops on ``w`` slots: an H on each, then ``terms`` runs ``cx(a, b) D
    cx(a, b)`` on random slots, ``D`` one to four 1-qubit diagonal ops on
    ``b`` (``_CONJUGATED``), with ops on the other slots (``_BESIDE``)
    interleaved among them and between the runs."""
    ops = [GateOp(GateKind.H, (q,), ()) for q in range(w)]
    for _ in range(terms):
        a, b = rng.sample(range(w), 2)
        others = [q for q in range(w) if q not in (a, b)]
        body = [_conjugated_diagonal(rng, b) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            kinds = [k for k in _BESIDE if k.arity <= len(others)]
            if kinds:
                body.insert(rng.randint(0, len(body)), _random_op(rng, kinds, others))
        cx = GateOp(GateKind.CX, (a, b), ())
        ops += [cx, *body, cx]
        if rng.random() < 0.5:
            ops.append(_random_op(rng, _BESIDE, range(w)))
    return ops


@pytest.mark.parametrize("seed", range(8))
def test_conjugated_diagonals_become_phases(seed):
    """Random parts of ZZ-like runs ``cx(a, b) D cx(a, b)`` (``D``
    diagonal on ``b``, angles outside (-pi, pi], other slots' ops
    interleaved): the rewrite drops each run's first ``cx`` and makes the
    second a ``crz``, so no ``cx`` is left for the plan, and the rewritten
    ops, applied gate by gate, equal the ops as given within 1e-12; the
    part, staged and on the lowest bits, equals them too."""
    rng = random.Random(seed + 500)
    w = rng.randint(2, 6)
    terms = rng.randint(1, 6)
    ops = _conjugated_part(rng, w, terms)
    rewritten, where = hier._relabel(ops, w)
    assert where == list(range(w))
    assert all(op.kind is not GateKind.CX for op in rewritten)
    crz = Counter(op.kind for op in ops)[GateKind.CRZ]
    assert Counter(op.kind for op in rewritten)[GateKind.CRZ] == crz + terms
    assert len(rewritten) == len(ops) - terms
    data_rng = np.random.default_rng(seed)
    state = data_rng.normal(size=1 << w) + 1j * data_rng.normal(size=1 << w)
    expect, got = state.copy(), state.copy()
    for op in ops:
        apply_op(expect, w, op)
    for op in rewritten:
        apply_op(got, w, op)
    assert np.max(np.abs(got - expect)) <= 1e-12
    part = Part(0, tuple(range(len(ops))), tuple(range(w)))
    exe = remap_part(Circuit(w, tuple(ops)), part)
    assert exe.ops == tuple(ops)  # the rewrite is the plan's alone
    for kind, arg in exe.steps.kernels:
        assert kind != "op" or arg.kind is not GateKind.CX
    for positions in (tuple(range(w)), _staged_positions(rng, w + 3, w)):
        _run_against_the_ops(
            rebase(exe, dict(enumerate(positions))), w + 3, seed, statevec.CHUNK_AMPS
        )


def test_conjugated_diagonal_sums_its_angles():
    """``cx(0, 1) z(1) cx(0, 1)`` is ``z(1) crz(0, 1, -2 pi)``, and the
    angles of several diagonals add up past pi before they are doubled."""
    cx, z = GateOp(GateKind.CX, (0, 1), ()), GateOp(GateKind.Z, (1,), ())
    assert hier._unconjugate([cx, z, cx]) == [
        z, GateOp(GateKind.CRZ, (0, 1), (-2 * np.pi,))
    ]
    body = [GateOp(GateKind.U1, (1,), (3.0,)), GateOp(GateKind.T, (1,), ())]
    ((kind, qubits, (angle,)),) = [
        (op.kind, op.qubits, op.params) for op in hier._unconjugate([cx, *body, cx])[2:]
    ]
    assert (kind, qubits) == (GateKind.CRZ, (0, 1))
    assert angle == pytest.approx(-2 * (3.0 + np.pi / 4))


@pytest.mark.parametrize("between", [
    "reversed", "on a", "dense on b", "rx on b", "cz on b", "crz on b", "cx on b",
])
def test_other_conjugations_are_left_alone(between):
    """The rewrite takes only ``cx(a, b)`` whose next op on ``a`` is the
    same ``cx(a, b)`` with nothing but 1-qubit diagonal ops on ``b`` between:
    a reversed ``cx(b, a)``, any op on ``a`` between (even a diagonal one),
    and a dense or 2-qubit op on ``b`` between leave the ops as they are."""
    cx = GateOp(GateKind.CX, (0, 1), ())
    rz = GateOp(GateKind.RZ, (1,), (0.7,))
    middle = {
        "reversed": [rz],
        "on a": [rz, GateOp(GateKind.RZ, (0,), (0.3,))],
        "dense on b": [rz, GateOp(GateKind.H, (1,), ())],
        "rx on b": [GateOp(GateKind.RX, (1,), (0.3,)), rz],
        "cz on b": [GateOp(GateKind.CZ, (2, 1), ()), rz],
        "crz on b": [rz, GateOp(GateKind.CRZ, (1, 2), (0.4,))],
        "cx on b": [rz, GateOp(GateKind.CX, (2, 1), ())],
    }[between]
    last = GateOp(GateKind.CX, (1, 0), ()) if between == "reversed" else cx
    ops = [cx, *middle, last]
    assert hier._unconjugate(ops) == ops
    assert hier._relabel(ops, 3) == (ops, [0, 1, 2])


@pytest.mark.parametrize("workers", [1, 2])
def test_staged_part_allocates_its_buffers_once(monkeypatch, workers):
    """A staged 10-slot part of an 18-qubit state runs in four chunks of
    ``2**16`` amplitudes, each gathered into one reused buffer and run
    through permutes and products against one scratch buffer: the run
    holds one chunk's index matrix, built once, and those two chunk
    buffers per worker (one per CPU, stubbed), and never a third chunk."""
    _workers_found(workers)
    monkeypatch.setattr(statevec, "_cpus", lambda: workers)
    rng = random.Random(2)
    w, n = 10, 18
    ops = [op for slots in _CONSECUTIVE["overlapping"] for op in _group(rng, slots)]
    gates = tuple(range(len(ops)))
    exe = remap_part(Circuit(w, tuple(ops)), Part(0, gates, tuple(range(w))))
    positions = (0, 2, 3, 5, 8, 9, 11, 13, 16, 17)
    exe = rebase(exe, dict(enumerate(positions)))
    assert "permute" in {kind for kind, _ in exe.steps.kernels}
    data = zero_state(n).data
    chunk = statevec.CHUNK_AMPS * data.itemsize
    index = 8 * statevec.CHUNK_AMPS  # one int64 per amplitude of a chunk
    assert 4 * chunk == data.nbytes
    tracemalloc.start()
    try:
        run_part(data, exe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index + workers * 2 * chunk <= peak <= index + workers * 2.1 * chunk


def _kernel_counts(circuit, partition):
    return Counter(
        kind
        for exe in executable_parts(circuit, partition)
        for kind, _ in exe.steps.kernels
    )


def test_benchmark_plans_keep_their_kernel_placement(monkeypatch):
    """The three benchmark circuits compile to pinned kernel counts per set
    of plans, none of them a lone ``"op"``, by one ``_dagp`` call per part
    (qaoa 18 and ising 8 while each trapped diagonal regrouped its part,
    one round at a time). qft(20) at dagp limit 14: 6
    products, 1 permute and 6 phase vectors, and no 2x2 product on the
    lowest bit; its swaps are relabellings (11, 3 and 6 while they fused
    into products; 25, 4 and 20 while each run of diagonal gates cut a
    part into segments, its lone ``h`` gates trapped between them).
    ising(22) at 14: 8 products, 2 permutes and 2 phase vectors.
    Multilevel qaoa(20) at 14/8: 18 products, 8 permutes and 8 phase
    vectors. Their ZZ terms ``cx rz cx`` are rewritten to ``rz crz``, two
    diagonal gates free to move (13 and 5 for ising, 23 and 15 for qaoa
    while each ``rz`` sat alone between two ``cx`` gates; for qaoa 24
    permutes while each plan began with its leading permute and ended
    with a restore to the identity order, 38 and 32 under greedy
    program-order grouping)."""
    calls = _spy_on_dagp(monkeypatch)
    qft = bench.qft(20)
    partition = partition_dagp(build_dag(qft), 14)
    for exe in executable_parts(qft, partition):
        assert exe.num_slots < qft.num_qubits
        for kind, arg in exe.steps.kernels:
            assert kind != "matmul" or arg[0] > 0 or len(arg[1]) > 2
    assert len(calls) == 4
    assert _kernel_counts(qft, partition) == {"matmul": 6, "permute": 1, "phase": 6}
    ising = bench.ising(22)
    partition = partition_dagp(build_dag(ising), 14)
    calls.clear()
    assert _kernel_counts(ising, partition) == {"matmul": 8, "permute": 2, "phase": 2}
    assert len(calls) == 2
    qaoa = bench.qaoa(20, 2)
    partition = partition_multilevel(build_dag(qaoa), 14, 8)
    calls.clear()
    assert _kernel_counts(qaoa, partition) == {"matmul": 18, "permute": 8, "phase": 8}
    assert len(calls) == 5


def test_partitioned_runs_peak_within_twice_the_state(monkeypatch):
    """On 2 workers (stubbed CPUs), the count the peaks below were measured
    at (each further worker adds two chunks,
    ``test_each_pool_helper_adds_two_chunks_to_a_runs_peak``):
    at n = 20, limit 14 (and 8 below it), a part stages one cache-sized
    chunk at a time, so a run holds the state, one chunk's index matrix,
    chunk-sized temporaries and its plan's phase vectors, each over the
    part's ``2**14``-amplitude block: hierarchical and multilevel runs
    peak at 1.29-1.36x the state, pinned at 1.5x (2x while the index
    matrix spanned the state, half its size), a distributed run on 2
    rank bits, which permutes the state out of place, at 2.1x. A
    whole-state part (limit 20) runs as pieces of at most 16 slots, each
    staged like a narrower part, so it holds no block wider than a chunk:
    ising and qft peak at 1.35x, pinned at 1.5x, and qaoa at 1.57x on 2
    CPUs, pinned at 1.6x, its widest piece holding four ``2**16`` phase
    vectors beside two chunk buffers per worker (2.03x while the part ran
    on the state as one view, with a scratch buffer of its size)."""
    monkeypatch.setattr(statevec, "_cpus", lambda: 2)
    n = 20
    qaoa = bench.qaoa(n, 2)
    qft = bench.qft(n)
    ising = bench.ising(n, 2)
    hier_p = partition_dagp(build_dag(ising), 14)
    multi_p = partition_multilevel(build_dag(qaoa), 14, 8)
    multi_qft = partition_multilevel(build_dag(qft), 14, 8)
    dist_p = partition_dagp(build_dag(qft), 14)
    runs = [
        (lambda: execute_hierarchical(ising, hier_p), 1.5),
        (lambda: execute_multilevel(qaoa, multi_p), 1.5),
        (lambda: execute_multilevel(qft, multi_qft), 1.5),
        (lambda: simulate_distributed(qft, dist_p, 2), 2.1),
    ]
    for circuit, bound in ((ising, 1.5), (qaoa, 1.6), (qft, 1.5)):
        whole = partition_dagp(build_dag(circuit), n)
        assert whole.num_parts == 1
        runs.append((lambda c=circuit, p=whole: execute_hierarchical(c, p), bound))
    for run, bound in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * state_bytes(n)


def test_each_pool_helper_adds_two_chunks_to_a_runs_peak(monkeypatch):
    """The peaks above depend on the worker count, so they are pinned at
    2 workers: each pool helper holds its own gather and scratch chunk.
    At 4 workers (stubbed CPUs) hierarchical ising(20) at dagp 14 and
    multilevel qaoa(20) at 14/8 peak two helpers' two chunks above their
    2-worker peaks (4.00-4.01 chunks), at 1.55x and 1.61x the state,
    past the 1.5x those runs are pinned at on 2 workers. A phase vector
    is tiled over a buffer's worth of rows, so no worker's multiply
    allocates numpy's iteration buffer and the peaks do not move with how
    the workers' calls overlap."""
    _workers_found(4)
    n = 20
    ising, qaoa = bench.ising(n, 2), bench.qaoa(n, 2)
    hier_p = partition_dagp(build_dag(ising), 14)
    multi_p = partition_multilevel(build_dag(qaoa), 14, 8)
    chunk = statevec.CHUNK_AMPS * 16
    for run in (
        lambda: execute_hierarchical(ising, hier_p),
        lambda: execute_multilevel(qaoa, multi_p),
    ):
        peaks = []
        for workers in (2, 4):
            monkeypatch.setattr(statevec, "_cpus", lambda workers=workers: workers)
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 3.95 * chunk <= peaks[1] - peaks[0] <= 4.05 * chunk


def test_part_wider_than_a_chunk_runs_as_pieces_in_bounded_memory(monkeypatch):
    """qft(20) at dagp limit 19 has a 19-slot staged part, wider than a
    chunk, which runs as pieces of at most 16 slots, so no plan holds a
    ``2**19`` phase vector (10.5x the state with one per run) and no
    buffer or index outgrows a chunk. On 2 workers (stubbed CPUs), the
    count it was measured at, the run peaks at 1.35x the state, pinned at
    1.5x (1.79x, pinned at 2x, while each chunk was one gathered row of
    the part, half the state, through an index of a quarter)."""
    monkeypatch.setattr(statevec, "_cpus", lambda: 2)
    n = 20
    qft = bench.qft(n)
    partition = partition_dagp(build_dag(qft), 19)
    assert max(part.working_set for part in partition.parts) == 19
    tracemalloc.start()
    try:
        execute_hierarchical(qft, partition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * state_bytes(n)


# --- pieces of a part wider than a chunk -----------------------------------


@pytest.mark.parametrize("chunk", [1 << 3, 1 << 5])
@pytest.mark.parametrize("seed", range(3))
def test_pieces_hold_each_op_of_a_wide_part_once(monkeypatch, chunk, seed):
    """A part with more slots than ``width = max(log2(CHUNK_AMPS),
    FUSE_WIDTH)`` runs as pieces of at most ``width`` slots, each on the
    part's positions of the slots its ops use, ascending; together they
    hold each of the part's ops once, and each slot's ops in the part's
    order, so they run it. A part no wider runs as itself."""
    width = max(chunk.bit_length() - 1, hier.FUSE_WIDTH)
    staged = _spy_on_chunks(monkeypatch)
    n = 10
    circuit = _spread(random.Random(seed + 60), n, 80)
    data = zero_state(n).data
    wide = 0
    for exe in executable_parts(circuit, partition_dagp(build_dag(circuit), 8)):
        staged.clear()
        with _chunks_of(chunk):
            run_part(data, exe)
        if exe.num_slots <= width:
            assert len(staged) == 1 and staged[0] is exe
            continue
        wide += 1
        slot_of = {p: s for s, p in enumerate(exe.positions)}
        ops = []
        for piece in staged:
            assert piece.num_slots <= width
            assert list(piece.positions) == sorted(set(piece.positions))
            used = {s for op in piece.ops for s in op.qubits}
            assert used == set(range(piece.num_slots))
            back = [slot_of[p] for p in piece.positions]
            ops += [hier._lift(op, back) for op in piece.ops]
        assert Counter(ops) == Counter(exe.ops)
        for s in range(exe.num_slots):
            on = [op for op in exe.ops if s in op.qubits]
            assert [op for op in ops if s in op.qubits] == on
    assert wide
    np.testing.assert_allclose(data, simulate_flat(circuit).data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chunk", [1 << 2, 1 << 5])
@pytest.mark.parametrize("seed", range(3))
def test_wide_parts_run_as_pieces_within_a_chunk_and_equal_flat(
    monkeypatch, chunk, seed
):
    """In chunks of ``2**2`` or ``2**5`` amplitudes, hierarchical runs at
    limits n and n - 2, a two-level run at n - 1 over 4, and distributed
    runs on 1, 2 and 3 rank bits at limit n - p, whose rank buffers make
    a batch that each piece is staged out of, all have parts wider than a
    chunk and stay within 1e-12 of ``simulate_flat``; no plan any of them
    builds (``_plan``) spans more than ``max(CHUNK_AMPS, 2**FUSE_WIDTH)``
    amplitudes."""
    width = max(chunk.bit_length() - 1, hier.FUSE_WIDTH)
    planned = []
    real = hier._plan

    def spy(groups, w, where):
        planned.append(w)
        return real(groups, w, where)

    monkeypatch.setattr(hier, "_plan", spy)
    n = 9
    circuit = _spread(random.Random(seed + 80), n, 90)
    dag = build_dag(circuit)
    expect = simulate_flat(circuit).data
    def distributed(p):
        return lambda c, partition: simulate_distributed(c, partition, p).state

    runs = [
        (partition_dagp(dag, n), execute_hierarchical),
        (partition_dagp(dag, n - 2), execute_hierarchical),
        (partition_multilevel(dag, n - 1, 4), execute_multilevel),
        *((partition_dagp(dag, n - p), distributed(p)) for p in (1, 2, 3)),
    ]
    for partition, run in runs:
        assert max(len(part.qubits) for part in partition.parts) > width
        planned.clear()
        with _chunks_of(chunk):
            state = run(circuit, partition)
        assert planned and max(planned) <= width
        assert np.max(np.abs(state.data - expect)) <= 1e-12


def test_pieces_leave_documents_and_traces_as_they_were():
    """Pieces change nothing a run reports. The comm document of qft(20)
    on 2 rank bits at dagp limit 18, where each part keeps its layout,
    is the one it was while its parts ran as rows wider than a chunk: 2
    switches and 25,165,824 remote bytes (3 and 37,748,736 at limit 14),
    byte for byte; and a limit-n run's trace log is its one part."""
    circuit = bench.qft(20)
    dag = build_dag(circuit)
    run = simulate_distributed(circuit, partition_dagp(dag, 18), 2)
    doc = json.dumps(run.stats.to_json())
    assert (run.stats.num_switches, run.stats.total_bytes) == (2, 25_165_824)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "6dbe7cf278d5df855770d4b5727d15f96047c02184a2f685c5eaa5be5054b414"
    )
    assert np.max(np.abs(run.state.data - simulate_flat(circuit).data)) <= 1e-12
    _, trace = execute_hierarchical(circuit, partition_dagp(dag, 20), with_trace=True)
    assert trace.to_json_lines() == (
        '{"part_id": 0, "w": 20, "iterations": 1, "gates": 410}'
    )


# --- the chunk pool ---------------------------------------------------------


def test_workers_follow_the_cpus_and_the_chunks(monkeypatch):
    """One worker per CPU, at most one per chunk, and one where numpy's
    BLAS thread count cannot be set. The count is read off stubs: no
    thread starts."""
    monkeypatch.setattr(hier, "_blas_threads", lambda: "found")
    for cpus, chunks, expect in [(1, 16, 1), (2, 16, 2), (64, 16, 16), (2, 1, 1)]:
        monkeypatch.setattr(statevec, "_cpus", lambda cpus=cpus: cpus)
        assert hier._workers(chunks) == expect
    monkeypatch.setattr(hier, "_blas_threads", lambda: None)
    assert hier._workers(16) == 1
    assert 1 <= statevec._cpus() <= (os.cpu_count() or 1)


def test_run_part_sizes_its_pool_by_its_chunks(monkeypatch):
    """``run_part`` asks ``_workers`` for a pool by the number of its
    chunks: in chunks of ``2**6`` amplitudes, a 5-slot part of a 10-qubit
    state, staged or on the lowest bits, is 16 chunks, and a whole-state
    part of 6 qubits one. A 10-slot part of the 10-qubit state, wider
    than a chunk, runs as its one 5-slot piece: 16 chunks."""
    asked = []

    def one(chunks):
        asked.append(chunks)
        return 1

    monkeypatch.setattr(hier, "_workers", one)
    monkeypatch.setattr(statevec, "CHUNK_AMPS", 1 << 6)
    ops = tuple(GateOp(GateKind.H, (q,), ()) for q in range(5))
    exe = remap_part(Circuit(5, ops), Part(0, tuple(range(5)), tuple(range(5))))
    data = zero_state(10).data
    for positions in [(0, 1, 2, 3, 4), (0, 2, 4, 6, 8)]:
        run_part(data, rebase(exe, dict(enumerate(positions))))
    whole = Part(0, tuple(range(5)), tuple(range(6)))
    run_part(zero_state(6).data, remap_part(Circuit(6, ops), whole))
    wide = Part(0, tuple(range(5)), tuple(range(10)))
    run_part(data, remap_part(Circuit(10, ops), wide))
    assert asked == [16, 16, 1, 16]


def _pooled_runs(workers):
    """States of a staged part, a part on the lowest bits, a two-level run
    and distributed runs on 1 and 2 rank bits, each from a random state,
    with ``workers`` workers."""
    rng = random.Random(4)
    n, w = 10, 6
    ops = [op for slots in _ENTER_AND_LEAVE["even"] for op in _group(rng, slots)
           + _phase_run(rng, w)]
    gates = tuple(range(len(ops)))
    exe = remap_part(Circuit(w, tuple(ops)), Part(0, gates, tuple(range(w))))
    data_rng = np.random.default_rng(4)
    start = data_rng.normal(size=1 << n) + 1j * data_rng.normal(size=1 << n)
    start /= np.linalg.norm(start)
    states = []
    for positions in [(0, 2, 3, 5, 8, 9), tuple(range(w))]:
        data = start.copy()
        run_part(data, rebase(exe, dict(enumerate(positions))))
        states.append(data)
    circuit = _spread(random.Random(5), n, 80)
    dag = build_dag(circuit)
    initial = StateVector(n, start)
    states.append(execute_multilevel(
        circuit, partition_multilevel(dag, 7, 4), initial=initial
    ).data)
    for p in (1, 2):
        run = simulate_distributed(circuit, partition_dagp(dag, 6), p, initial=initial)
        states.append(run.state.data)
    return states


@pytest.mark.parametrize("workers", [2, 4])
def test_pooled_runs_equal_one_worker_bit_for_bit(monkeypatch, workers):
    """With chunks of ``2**5`` amplitudes, so every part has many, runs on
    2 or 4 workers (stubbed CPUs; 4 is more than this host may have),
    threads switching every microsecond, equal one worker's bit for bit:
    a chunk lost or run twice by the shared queue would show."""
    _workers_found(workers)
    monkeypatch.setattr(statevec, "CHUNK_AMPS", 1 << 5)
    monkeypatch.setattr(statevec, "_cpus", lambda: 1)
    expect = _pooled_runs(1)
    monkeypatch.setattr(statevec, "_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _pooled_runs(workers)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("raiser", ["helper", "caller", None])
def test_pool_joins_its_threads_and_restores_blas(monkeypatch, raiser):
    """A product that raises on a helper thread raises in the caller, as
    one that raises on the calling thread does; either way, and in a run
    that raises nothing, every helper is joined before ``run_part``
    returns, BLAS runs on one thread while the pool runs, and its old
    thread count is back afterwards."""
    _workers_found(2)
    monkeypatch.setattr(statevec, "_cpus", lambda: 2)
    monkeypatch.setattr(statevec, "CHUNK_AMPS", 1 << 12)
    get, _ = _blas_threads()
    caller = threading.current_thread()
    helper_ran = threading.Event()
    counts = []
    real = hier.apply_matrix

    def product(*args):
        counts.append(get())
        if threading.current_thread() is caller:
            # let a helper take a chunk before the caller takes them all
            helper_ran.wait(timeout=10)
        else:
            helper_ran.set()
        if raiser == "helper" and threading.current_thread() is not caller:
            raise RuntimeError("helper")
        if raiser == "caller" and threading.current_thread() is caller:
            raise RuntimeError("caller")
        return real(*args)

    monkeypatch.setattr(hier, "apply_matrix", product)
    rng = random.Random(6)
    ops = [op for slots in _CONSECUTIVE["overlapping"] for op in _group(rng, slots)]
    gates = tuple(range(len(ops)))
    exe = remap_part(Circuit(10, tuple(ops)), Part(0, gates, tuple(range(10))))
    data = zero_state(16).data
    before, threads = get(), threading.active_count()
    if raiser is None:
        run_part(data, exe)
    else:
        with pytest.raises(RuntimeError, match=raiser):
            run_part(data, exe)
    assert helper_ran.is_set()
    assert threading.active_count() == threads
    assert get() == before
    assert set(counts) == {1}


def test_one_chunk_part_holds_blas_to_one_thread(monkeypatch):
    """A part of one chunk runs on the calling thread alone, and its
    product still runs with numpy's BLAS held to one thread; the old count
    is back after it. The thread-count calls are a fake's, which records
    them."""
    calls = []
    threads = [6]

    def get():
        calls.append("get")
        return threads[0]

    def set_(count):
        calls.append(("set", count))
        threads[0] = count

    for owner in (statevec, hier):
        monkeypatch.setattr(owner, "_blas_threads", lambda: (get, set_))
    seen = []
    real = hier.apply_matrix

    def product(*args):
        seen.append(threads[0])
        return real(*args)

    monkeypatch.setattr(hier, "apply_matrix", product)
    ops = tuple(GateOp(GateKind.H, (q,), ()) for q in range(4))
    exe = remap_part(Circuit(4, ops), Part(0, tuple(range(4)), tuple(range(4))))
    data = zero_state(4).data
    run_part(data, exe)
    assert seen == [1]
    assert calls == ["get", ("set", 1), ("set", 6)]
    np.testing.assert_allclose(data, np.full(16, 0.25), rtol=0, atol=1e-15)


@pytest.mark.parametrize("sets", _ENTER_AND_LEAVE)
def test_view_chunks_leave_in_one_copy(monkeypatch, sets):
    """A part on the lowest bits whose plan leaves out of order, with its
    permutes and products (the entry permute included) even or odd in
    number, never ends a chunk on its view, to be copied out and back
    again: the last of each chunk's permutes and products writes outside
    the state, and with an even number none of them writes into it. Each
    permute is one ``np.take`` through its gather index, the entry
    permute too."""
    monkeypatch.setattr(statevec, "_cpus", lambda: 1)
    monkeypatch.setattr(statevec, "CHUNK_AMPS", 1 << 7)
    n = 9
    exe, ops = _enter_and_leave(monkeypatch, random.Random(8), sets)
    data_rng = np.random.default_rng(8)
    data = data_rng.normal(size=1 << n) + 1j * data_rng.normal(size=1 << n)
    expect = data.copy()
    for op in ops:
        apply_op(expect, n, op)
    outs = []

    def spy(real):
        def wrapped(*args, **kwargs):
            out = kwargs["out"] if "out" in kwargs else args[2]
            outs.append(np.shares_memory(out, data))
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(hier, "apply_matrix", spy(hier.apply_matrix))
    monkeypatch.setattr(np, "take", spy(np.take))
    run_part(data, exe)
    kinds = [kind for kind, _ in exe.steps.kernels]
    moves = 1 + kinds.count("permute") + kinds.count("matmul")  # and entry
    assert len(outs) == 4 * moves  # four chunks of two rows
    assert not any(outs[moves - 1::moves])
    assert any(outs) == (moves % 2 == 1)
    assert np.max(np.abs(data - expect)) <= 1e-12


def test_finished_parts_are_released(monkeypatch):
    """Every executor draws its parts from ``executable_parts`` one at a
    time, so when a part is drawn, each part before the last one drawn is
    gone, and its compiled steps with it."""
    from hisim import dist

    real = hier.executable_parts
    drawn = []

    def spy(circuit, partition):
        for exe in real(circuit, partition):
            assert all(ref() is None for ref in drawn[:-1])
            drawn.append(weakref.ref(exe))
            yield exe

    monkeypatch.setattr(hier, "executable_parts", spy)
    monkeypatch.setattr(dist, "executable_parts", spy)
    circuit = bench.build("qft_12")
    dag = build_dag(circuit)
    flat, ml = partition_dagp(dag, 6), partition_multilevel(dag, 6, 4)
    runs = [
        lambda: execute_hierarchical(circuit, flat),
        lambda: execute_multilevel(circuit, ml),
        lambda: simulate_distributed(circuit, flat, 2),
        lambda: simulate_distributed(circuit, ml, 1),
    ]
    for run in runs:
        drawn.clear()
        run()
        assert len(drawn) == flat.num_parts > 2
        assert all(ref() is None for ref in drawn)


# --- the start state --------------------------------------------------------


_START_RUNS = {
    "hierarchical": lambda c, initial: execute_hierarchical(
        c, partition_dagp(build_dag(c), 14), initial=initial
    ).data,
    "two-level": lambda c, initial: execute_multilevel(
        c, partition_multilevel(build_dag(c), 14, 8), initial=initial
    ).data,
    "distributed": lambda c, initial: simulate_distributed(
        c, partition_dagp(build_dag(c), 14), 2, initial=initial
    ).state.data,
}


@pytest.mark.parametrize("run", _START_RUNS)
@pytest.mark.parametrize(
    "circuit", [bench.qft(20), bench.qaoa(20, 2), bench.ising(20, 2)],
    ids=["qft_20", "qaoa_20", "ising_20"],
)
def test_default_start_equals_an_explicit_zero_state(circuit, run):
    """A run with no ``initial`` runs its first part on that part's own
    ``2**w`` vector and writes it into the zero state; its final state is
    bit for bit that of a run from ``initial=zero_state(n)``, whose first
    part stages the whole state."""
    run = _START_RUNS[run]
    default = run(circuit, None)
    assert np.array_equal(default, run(circuit, zero_state(circuit.num_qubits)))


@pytest.mark.parametrize("chunk", [None, 1 << 3])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_random_default_starts_equal_explicit_ones(monkeypatch, seed, p, chunk):
    """Seeded random circuits and partitions, run hierarchically and on
    ``2**p`` ranks, agree from the default start and from
    ``zero_state(n)``. Under chunks of ``2**3`` amplitudes most first
    parts are wider than a chunk, and so run on the state."""
    if chunk:
        monkeypatch.setattr(statevec, "CHUNK_AMPS", chunk)
    rng = random.Random(seed * 31 + p)
    n = rng.randint(p + 3, 9)
    circuit = random_circuit(random.Random(seed * 13 + p), n, rng.randint(5, 50))
    dag = build_dag(circuit)
    partition = partition_dfs(dag, rng.randint(3, n - p), seed=seed)
    zero = zero_state(n)
    runs = [
        lambda initial: execute_hierarchical(circuit, partition, initial=initial).data,
        lambda initial: simulate_distributed(
            circuit, partition, p, initial=initial
        ).state.data,
    ]
    for run in runs:
        np.testing.assert_allclose(run(None), run(zero), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "limit, chunk, on_state",
    [(6, None, False), (6, 1 << 5, True), (12, None, True)],
    ids=["own-vector", "wider-than-a-chunk", "every-qubit"],
)
def test_first_part_of_a_default_start_stages_one_vector(
    monkeypatch, limit, chunk, on_state
):
    """A hierarchical run with no ``initial`` hands its first part to
    ``run_part`` on a ``2**w`` vector of its own, unless that part is on
    every qubit or wider than a chunk, when it runs on the state as any
    later part does."""
    if chunk:
        monkeypatch.setattr(statevec, "CHUNK_AMPS", chunk)
    shapes = []
    real = hier.run_part

    def spy(data, exe):
        shapes.append(data.shape)
        real(data, exe)

    monkeypatch.setattr(hier, "run_part", spy)
    circuit = bench.build("qft_12")
    partition = partition_dagp(build_dag(circuit), limit)
    state = execute_hierarchical(circuit, partition)
    w = len(partition.parts[0].qubits)
    assert shapes[0] == ((1 << 12,) if on_state else (1 << w,))
    assert shapes[1:] == [(1 << 12,)] * (partition.num_parts - 1)
    np.testing.assert_allclose(
        state.data, simulate_flat(circuit).data, rtol=0, atol=1e-12
    )


# --- equivalence with the flat simulator ------------------------------------


def _check(circuit, partition, executor):
    got = executor(circuit, partition)
    expect = simulate_flat(circuit)
    return float(np.max(np.abs(got.data - expect.data)))


def test_textbook_three_part_example():
    """Four qubits, three parts of two qubits each: the two outer parts touch
    disjoint pairs, the closing part entangles the middle."""
    circuit = Circuit(
        4,
        (
            GateOp(GateKind.H, (0,), ()),
            GateOp(GateKind.CX, (0, 1), ()),
            GateOp(GateKind.H, (3,), ()),
            GateOp(GateKind.CX, (3, 2), ()),
            GateOp(GateKind.CX, (1, 2), ()),
        ),
    )
    partition = PartitionResult(
        "nat",
        2,
        (
            Part(0, (0, 1), (0, 1)),
            Part(1, (2, 3), (2, 3)),
            Part(2, (4,), (1, 2)),
        ),
    )
    state, trace = execute_hierarchical(circuit, partition, with_trace=True)
    expect = simulate_flat(circuit)
    assert np.max(np.abs(state.data - expect.data)) < 1e-12
    assert [t.gather_calls for t in trace.parts] == [4, 4, 4]


@pytest.mark.parametrize("strategy", ["nat", "dfs", "dagp"])
@pytest.mark.parametrize("seed", range(6))
def test_random_circuits_match_flat(strategy, seed):
    fns = {"nat": partition_nat, "dfs": partition_dfs, "dagp": partition_dagp}
    rng = random.Random(seed * 31 + 7)
    n = rng.randint(3, 9)
    circuit = random_circuit(random.Random(seed), n, rng.randint(5, 60))
    limit = rng.randint(max(2, max((len(o.qubits) for o in circuit.ops), default=1)), n)
    partition = fns[strategy](build_dag(circuit), limit)
    err = _check(circuit, partition, execute_hierarchical)
    assert err < 1e-10


@pytest.mark.parametrize("name", ["bv_6", "qft_12", "qaoa_8", "cat_state_6"])
def test_bundled_circuits_match_flat(name):
    circuit = bench.build(name)
    g = build_dag(circuit)
    limit = max(2, circuit.num_qubits // 2)
    for fn in (partition_nat, partition_dfs, partition_dagp):
        err = _check(circuit, fn(g, limit), execute_hierarchical)
        assert err < 1e-10


def test_single_part_covering_everything_equals_flat():
    circuit = bench.build("cat_state_6")
    g = build_dag(circuit)
    partition = partition_dagp(g, 6)
    assert len(partition.parts) == 1
    got = execute_hierarchical(circuit, partition)
    np.testing.assert_array_equal(got.data, simulate_flat(circuit).data)


@pytest.mark.parametrize("name", ["qaoa_8", "ising_8"])
def test_whole_state_two_level_part_is_its_level1_part(name):
    """A two-level part on every qubit runs its level-1 part's plan, as a
    whole-state part does: the state is bit-identical to the level-1
    partition's run, whatever the level-2 parts (at 8/2 here), and
    within rounding of flat."""
    circuit = bench.build(name)
    ml = partition_multilevel(build_dag(circuit), 8, 2)
    assert ml.level1.num_parts == 1 < ml.sublevels[0].num_parts
    got = execute_multilevel(circuit, ml)
    np.testing.assert_array_equal(
        got.data, execute_hierarchical(circuit, ml.level1).data
    )
    assert np.max(np.abs(got.data - simulate_flat(circuit).data)) <= 1e-12


def test_initial_state_is_respected():
    circuit = random_circuit(random.Random(3), 5, 30)
    rng = np.random.default_rng(8)
    raw = rng.normal(size=32) + 1j * rng.normal(size=32)
    raw /= np.linalg.norm(raw)
    init = StateVector(5, raw.copy())
    partition = partition_dfs(build_dag(circuit), 3)
    got = execute_hierarchical(circuit, partition, initial=init)
    expect = raw.copy()
    sv = StateVector(5, expect)
    for op in circuit.ops:
        apply_op(sv.data, sv.num_qubits, op)
    assert np.max(np.abs(got.data - sv.data)) < 1e-12
    # The caller's buffer must not be modified.
    np.testing.assert_array_equal(init.data, raw)


def test_initial_state_of_another_width_is_refused():
    """Both drivers refuse a start state of another width than the circuit,
    naming both."""
    circuit = bench.qft(3)
    partition = partition_dagp(build_dag(circuit), 2)
    message = "initial state has 4 qubits, circuit has 3"
    with pytest.raises(ValueError, match=message):
        execute_hierarchical(circuit, partition, initial=zero_state(4))
    with pytest.raises(ValueError, match=message):
        simulate_distributed(circuit, partition, 1, initial=zero_state(4))


# --- execution traces -------------------------------------------------------


def test_trace_counts_follow_part_width():
    circuit = bench.build("bv_6")
    partition = partition_nat(build_dag(circuit), 4)
    _, trace = execute_hierarchical(circuit, partition, with_trace=True)
    n = circuit.num_qubits
    assert trace.num_qubits == n
    assert len(trace.parts) == len(partition.parts)
    for t, p in zip(trace.parts, partition.parts):
        w = len(p.qubits)
        # every field: part_id, num_qubits, num_gates and gather_calls
        assert dataclasses.astuple(t) == (
            p.id, w, len(p.gate_indices), 1 << (n - w)
        )


def test_trace_rows_schema():
    circuit = bench.build("bv_6")
    partition = partition_nat(build_dag(circuit), 4)
    _, trace = execute_hierarchical(circuit, partition, with_trace=True)
    rows = trace.part_rows()
    assert [r["part_id"] for r in rows] == [p.id for p in partition.parts]
    for row, p in zip(rows, partition.parts):
        assert set(row) == {"part_id", "w", "iterations", "gates"}
        assert row["w"] == len(p.qubits)
        assert row["iterations"] == 1 << (circuit.num_qubits - row["w"])
        assert row["gates"] == len(p.gate_indices)
    lines = trace.to_json_lines().strip().splitlines()
    assert [json.loads(s) for s in lines] == rows


# --- multilevel execution ---------------------------------------------------


@pytest.mark.parametrize(
    "name,l1,l2",
    [("bv_6", 4, 2), ("qft_12", 5, 3), ("qaoa_8", 4, 2), ("ising_8", 4, 3)],
)
def test_multilevel_matches_flat(name, l1, l2):
    circuit = bench.build(name)
    ml = partition_multilevel(build_dag(circuit), l1, l2)
    err = _check(circuit, ml, execute_multilevel)
    assert err < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_multilevel_random_circuits_match_flat(seed):
    rng = random.Random(seed + 100)
    n = rng.randint(4, 9)
    circuit = random_circuit(random.Random(seed + 500), n, rng.randint(10, 60))
    widest = max((len(o.qubits) for o in circuit.ops), default=1)
    l1 = rng.randint(max(2, widest), n)
    l2 = rng.randint(max(2, widest), l1)
    ml = partition_multilevel(build_dag(circuit), l1, l2)
    assert _check(circuit, ml, execute_multilevel) < 1e-10


def _record_run_part(monkeypatch) -> list:
    """The parts ``hier.run_part`` runs from here on, as it runs them."""
    ran = []
    real = hier.run_part

    def record(data, exe):
        ran.append(exe)
        real(data, exe)

    monkeypatch.setattr(hier, "run_part", record)
    return ran


def test_multilevel_trace_rows_are_the_level1_rows(monkeypatch):
    """A two-level part runs as its level-1 part, so a multilevel trace has
    one row per ``run_part`` call, each that of a level-1 part, in
    execution order, with the counts of its own width."""
    circuit = bench.build("bv_6")
    ml = partition_multilevel(build_dag(circuit), 4, 2)
    assert any(len(sub.parts) > 1 for sub in ml.sublevels)
    ran = _record_run_part(monkeypatch)
    _, trace = execute_multilevel(circuit, ml, with_trace=True)
    assert len(trace.parts) == len(ran)
    assert [t.part_id for t in trace.parts] == [p.id for p in ml.level1.parts]
    n = circuit.num_qubits
    for t, p, exe in zip(trace.parts, ml.level1.parts, ran):
        assert t.num_qubits == len(p.qubits) == exe.num_slots
        assert t.num_gates == len(p.gate_indices) == len(exe.ops)
        assert t.gather_calls == 1 << (n - t.num_qubits)


def test_level2_parts_stage_their_padded_qubit_sets():
    """A two-level part stages its level-1 qubits and runs its level-1
    gates in program order; its level-2 parts order nothing. Each level-2
    part's padded qubit set, which the oracle stages, lies inside its
    parent's qubits and around its own; on qaoa_8 at 6/4, three level-2
    parts are padded beyond their own qubits. The trace gives no row for
    them: its rows are the level-1 parts, at their own widths."""
    circuit = bench.build("qaoa_8")
    ml = partition_multilevel(build_dag(circuit), 6, 4)
    widened = 0
    levels = zip(executable_parts(circuit, ml), ml.level1.parts, ml.sublevels)
    for (exe, parent, sub), pads in zip(levels, ml.padded_qubits):
        assert exe.positions == parent.qubits
        gates = [circuit.ops[g] for g in parent.gate_indices]
        assert [hier._lift(op, exe.positions) for op in exe.ops] == gates
        for sp, padded in zip(sub.parts, pads):
            assert set(sp.qubits) <= set(padded) <= set(parent.qubits)
            widened += len(padded) > sp.working_set
    assert widened == 3
    _, trace = execute_multilevel(circuit, ml, with_trace=True)
    assert [t.num_qubits for t in trace.parts] == [
        len(p.qubits) for p in ml.level1.parts
    ]


#: ``execute_multilevel`` trace logs, pinned byte for byte: one row per
#: level-1 part, the parts that run. qaoa_8 at 6/4 has widened level-2
#: parts, bv_6 at 4/4 a sublevel that is its parent, qft_12 at 5/3 many
#: level-2 parts per level-1 part
_PINNED_TRACES = {
    ("qaoa_8", 6, 4): """\
{"part_id": 0, "w": 6, "iterations": 4, "gates": 21}
{"part_id": 1, "w": 6, "iterations": 4, "gates": 21}
{"part_id": 2, "w": 6, "iterations": 4, "gates": 22}
{"part_id": 3, "w": 6, "iterations": 4, "gates": 22}
{"part_id": 4, "w": 4, "iterations": 16, "gates": 10}""",
    ("bv_6", 4, 4): """\
{"part_id": 0, "w": 4, "iterations": 4, "gates": 11}
{"part_id": 1, "w": 3, "iterations": 8, "gates": 6}""",
    ("qft_12", 5, 3): """\
{"part_id": 0, "w": 5, "iterations": 128, "gates": 25}
{"part_id": 1, "w": 5, "iterations": 128, "gates": 8}
{"part_id": 2, "w": 5, "iterations": 128, "gates": 8}
{"part_id": 3, "w": 5, "iterations": 128, "gates": 12}
{"part_id": 4, "w": 5, "iterations": 128, "gates": 8}
{"part_id": 5, "w": 5, "iterations": 128, "gates": 8}
{"part_id": 6, "w": 5, "iterations": 128, "gates": 12}
{"part_id": 7, "w": 5, "iterations": 128, "gates": 24}
{"part_id": 8, "w": 5, "iterations": 128, "gates": 12}
{"part_id": 9, "w": 5, "iterations": 128, "gates": 7}
{"part_id": 10, "w": 5, "iterations": 128, "gates": 7}
{"part_id": 11, "w": 5, "iterations": 128, "gates": 16}
{"part_id": 12, "w": 4, "iterations": 256, "gates": 2}
{"part_id": 13, "w": 2, "iterations": 1024, "gates": 1}""",
}


def test_multilevel_traces_like_single_level(monkeypatch):
    """At any limits, a multilevel run gives the state and the trace log,
    byte for byte, of ``execute_hierarchical`` on its level-1 partition,
    and either log has one row per ``run_part`` call."""
    calls = _record_run_part(monkeypatch)
    for name, l1, l2 in _PINNED_TRACES:
        circuit = bench.build(name)
        ml = partition_multilevel(build_dag(circuit), l1, l2)
        logs, states = [], []
        runs = (execute_multilevel, ml), (execute_hierarchical, ml.level1)
        for run, partition in runs:
            calls.clear()
            state, trace = run(circuit, partition, with_trace=True)
            assert len(trace.parts) == len(calls)
            logs.append(trace.to_json_lines())
            states.append(state.data)
        np.testing.assert_array_equal(*states)
        assert logs[0] == logs[1]


@pytest.mark.parametrize("name,l1,l2", list(_PINNED_TRACES))
def test_multilevel_trace_logs_are_pinned(name, l1, l2):
    circuit = bench.build(name)
    ml = partition_multilevel(build_dag(circuit), l1, l2)
    _, trace = execute_multilevel(circuit, ml, with_trace=True)
    assert trace.to_json_lines() == _PINNED_TRACES[name, l1, l2]


def test_reordered_level2_parts_are_padded_in_their_new_order():
    """Padding is derived from the level-2 parts, so swapping two
    independent level-2 parts swaps their stage sets and the run still
    matches flat (ising_8 at 4/2: the first part's level-2 parts 0 and 1
    share no wire)."""
    circuit = bench.build("ising_8")
    ml = partition_multilevel(build_dag(circuit), 4, 2)
    first = ml.sublevels[0]
    swapped = (first.parts[1], first.parts[0]) + first.parts[2:]
    ml2 = dataclasses.replace(
        ml,
        sublevels=(dataclasses.replace(first, parts=swapped),) + ml.sublevels[1:],
    )
    assert ml2.padded_qubits[0][:2] == ((2, 3), (0, 1))
    assert _check(circuit, ml2, execute_multilevel) < 1e-10


def _reversed_part(parts, j):
    """``parts`` with part ``j``'s gates listed backwards."""
    part = dataclasses.replace(parts[j], gate_indices=parts[j].gate_indices[::-1])
    return parts[:j] + (part,) + parts[j + 1:]


#: h q[0]; x q[0]; cx q[0],q[1]; h q[2]; dagp at limit 2 puts the first three
#: gates, which depend on each other, in part 0
_CHAIN = Circuit(3, (
    GateOp(GateKind.H, (0,), ()),
    GateOp(GateKind.X, (0,), ()),
    GateOp(GateKind.CX, (0, 1), ()),
    GateOp(GateKind.H, (2,), ()),
))


def test_out_of_order_partition_is_rejected():
    """A partition built in memory whose executed gate sequence runs a gate
    before one it depends on raises the partition rule's error instead of
    returning a wrong state: a flat part listed backwards, and a level-2
    part listed backwards."""
    dag = build_dag(_CHAIN)
    flat = partition_dagp(dag, 2)
    assert flat.parts[0].gate_indices == (0, 1, 2)
    flat = dataclasses.replace(flat, parts=_reversed_part(flat.parts, 0))
    ml = partition_multilevel(dag, 3, 2)
    assert ml.sublevels[0].parts[0].gate_indices == (0, 1, 2)
    sub = dataclasses.replace(
        ml.sublevels[0], parts=_reversed_part(ml.sublevels[0].parts, 0)
    )
    ml = dataclasses.replace(ml, sublevels=(sub,))
    for partition in (flat, ml):
        with pytest.raises(PartitionError, match="part 0 gates are not ascending"):
            execute_hierarchical(_CHAIN, partition)


def _invalid_partitions():
    """Partitions of qaoa_8 built in memory, each breaking one rule, with
    the partition rule's message: flat ones at dagp limit 4, two-level ones
    at 6/4."""
    circuit = bench.build("qaoa_8")
    dag = build_dag(circuit)
    flat = partition_dagp(dag, 4)
    stale = dataclasses.replace(flat.parts[0], qubits=flat.parts[0].qubits[1:])
    widest = max(p.working_set for p in flat.parts)
    ml = partition_multilevel(dag, 6, 4)
    i, j = next(
        (i, j)
        for i, sub in enumerate(ml.sublevels)
        for j, sp in enumerate(sub.parts)
        if sp.working_set < ml.limit2
    )
    parent, sub = ml.level1.parts[i], ml.sublevels[i]
    sp = sub.parts[j]
    foreign = next(q for q in range(circuit.num_qubits) if q not in parent.qubits)
    wide = dataclasses.replace(sp, qubits=tuple(sorted(sp.qubits + (foreign,))))
    sub = dataclasses.replace(sub, parts=sub.parts[:j] + (wide,) + sub.parts[j + 1:])
    sublevels = ml.sublevels[:i] + (sub,) + ml.sublevels[i + 1:]
    flats = [
        (dataclasses.replace(flat, parts=(stale,) + flat.parts[1:]),
         f"part {stale.id} qubit set is stale"),
        (dataclasses.replace(flat, limit=widest - 1),
         f"needs {widest} qubits, limit {widest - 1}"),
    ]
    multis = [
        (dataclasses.replace(ml, sublevels=sublevels),
         f"part {sp.id} qubit set is stale"),
        (dataclasses.replace(ml, limit1=2, limit2=4), "limit2 4 exceeds limit1 2"),
        (dataclasses.replace(ml, limit1=7), "level-1 limit 6 differs from limit1 7"),
        (dataclasses.replace(ml, sublevels=ml.sublevels[1:]),
         f"{len(ml.sublevels) - 1} sublevels for {len(ml.sublevels)} level-1 parts"),
    ]
    return circuit, flats, multis


def test_every_executor_rejects_an_invalid_partition():
    """Hierarchical, multilevel and distributed (p = 0 and 1) execution
    check a partition with the partition module's rule and raise its
    ``PartitionError``: a stale qubit set, a part over its limit, a level-2
    part with a qubit from outside its parent, limit2 above limit1, a
    level-1 limit other than limit1, and a sublevel missing."""
    circuit, flats, multis = _invalid_partitions()
    executors = [(execute_hierarchical, flats), (execute_multilevel, multis)] + [
        (lambda c, part, p=p: simulate_distributed(c, part, p), flats + multis)
        for p in (0, 1)
    ]
    for run, cases in executors:
        for partition, message in cases:
            with pytest.raises(PartitionError, match=message):
                run(circuit, partition)


# --- verification helper ----------------------------------------------------


def test_verify_against_flat_accepts_correct_state():
    circuit = bench.build("cat_state_6")
    state = execute_hierarchical(
        circuit, partition_dagp(build_dag(circuit), 4)
    )
    err = verify_against_flat(circuit, state)
    assert 0.0 <= err < 1e-10


def test_verify_against_flat_rejects_corrupted_state():
    circuit = bench.build("cat_state_6")
    state = simulate_flat(circuit)
    state.data[0] += 1e-6
    with pytest.raises(VerificationError):
        verify_against_flat(circuit, state)


def test_verification_holds_the_reference_and_its_magnitudes():
    """The difference is taken inside the reference, so comparing holds the
    reference plus its half-size magnitudes: 1.5x the state, shown on a
    gate-free circuit. Simulating the reference adds the kernels' own
    temporaries, up to one state for a dense gate and half for an
    exchange (see test_statevec), so verifying qft(18) peaks near 2x."""
    n = 18
    for circuit, bound in ((Circuit(n, ()), 1.6), (bench.qft(n), 2.1)):
        state = simulate_flat(circuit)
        tracemalloc.start()
        try:
            verify_against_flat(circuit, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * state_bytes(n)


def test_verify_against_flat_rejects_nan():
    circuit = bench.build("cat_state_6")
    state = simulate_flat(circuit)
    state.data[0] = np.nan
    with pytest.raises(VerificationError):
        verify_against_flat(circuit, state)
