"""Dense state-vector kernel tests against independent linear algebra."""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hisim.statevec as statevec
from hisim.errors import QubitCountOutOfRangeError
from hisim.qasm import Circuit, GateKind, GateOp
from hisim.statevec import (
    CHUNK_AMPS,
    StateVector,
    _bit_view,
    _blas_threads,
    _matrix_action,
    _one_blas_thread,
    _permute_bits,
    _slabs,
    apply_matrix,
    apply_op,
    diagonal_entries,
    gate_matrix,
    is_dense,
    is_diagonal,
    load_state,
    save_state,
    simulate_flat,
    state_bytes,
    zero_state,
)

from random_circuits import random_circuit, random_params

SQ2 = 1.0 / math.sqrt(2.0)


def test_known_single_qubit_matrices():
    np.testing.assert_allclose(
        gate_matrix(GateKind.H), np.array([[SQ2, SQ2], [SQ2, -SQ2]])
    )
    np.testing.assert_allclose(gate_matrix(GateKind.X), [[0, 1], [1, 0]])
    np.testing.assert_allclose(gate_matrix(GateKind.Y), [[0, -1j], [1j, 0]])
    np.testing.assert_allclose(gate_matrix(GateKind.Z), [[1, 0], [0, -1]])
    np.testing.assert_allclose(gate_matrix(GateKind.S), [[1, 0], [0, 1j]])
    np.testing.assert_allclose(
        gate_matrix(GateKind.T), [[1, 0], [0, np.exp(1j * math.pi / 4)]]
    )
    np.testing.assert_allclose(
        gate_matrix(GateKind.SDG) @ gate_matrix(GateKind.S), np.eye(2), atol=1e-15
    )
    np.testing.assert_allclose(
        gate_matrix(GateKind.TDG) @ gate_matrix(GateKind.T), np.eye(2), atol=1e-15
    )


@pytest.mark.parametrize(
    "kind", [k for k in GateKind if k.arity == 1 and k.num_params == 0],
    ids=lambda k: k.value,
)
def test_gate_matrix_constants_are_read_only(kind):
    """A kind without angles hands out its table's own 2x2, which no
    caller can write into: a later gate of that kind on |0> still applies
    the table's first column."""
    u = gate_matrix(kind)
    column = u[:, 0].copy()
    with pytest.raises(ValueError):
        u[0, 0] = 2
    data = zero_state(1).data
    apply_op(data, 1, GateOp(kind, (0,), ()))
    np.testing.assert_array_equal(data, column)
    np.testing.assert_array_equal(gate_matrix(kind)[:, 0], column)


def test_rotation_matrices():
    theta = 0.7
    np.testing.assert_allclose(
        gate_matrix(GateKind.RZ, (theta,)),
        np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]),
    )
    np.testing.assert_allclose(
        gate_matrix(GateKind.RX, (math.pi,)), [[0, -1j], [-1j, 0]], atol=1e-15
    )
    np.testing.assert_allclose(
        gate_matrix(GateKind.RY, (theta,)),
        [
            [math.cos(theta / 2), -math.sin(theta / 2)],
            [math.sin(theta / 2), math.cos(theta / 2)],
        ],
    )
    np.testing.assert_allclose(
        gate_matrix(GateKind.U1, (theta,)), np.diag([1, np.exp(1j * theta)])
    )


def test_u3_generalizes_common_gates():
    # u3(pi/2, 0, pi) is H up to nothing at all: exactly H.
    np.testing.assert_allclose(
        gate_matrix(GateKind.U3, (math.pi / 2, 0.0, math.pi)),
        gate_matrix(GateKind.H),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        gate_matrix(GateKind.U3, (math.pi, 0.0, math.pi)),
        gate_matrix(GateKind.X),
        atol=1e-15,
    )


def test_two_and_three_qubit_matrices():
    cx = gate_matrix(GateKind.CX)
    assert cx.shape == (4, 4)
    # Matrix indices put operand 0 in the most significant bit, so for
    # (control, target) the states 10 and 11 swap.
    expect = np.eye(4)[:, [0, 1, 3, 2]]
    np.testing.assert_allclose(cx, expect)
    np.testing.assert_allclose(
        gate_matrix(GateKind.CZ), np.diag([1, 1, 1, -1])
    )
    swap = gate_matrix(GateKind.SWAP)
    np.testing.assert_allclose(swap, np.eye(4)[:, [0, 2, 1, 3]])
    ccx = gate_matrix(GateKind.CCX)
    assert ccx.shape == (8, 8)
    np.testing.assert_allclose(ccx, np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]])


@pytest.mark.parametrize("kind", list(GateKind))
def test_every_gate_is_unitary(kind):
    rng = random.Random(hash(kind.name) & 0xFFFF)
    params = tuple(rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(kind.num_params))
    u = gate_matrix(kind, params)
    d = 1 << kind.arity
    assert u.shape == (d, d)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("kind", list(GateKind))
def test_is_diagonal_agrees_with_the_gate_matrix(kind):
    """The predicate that decides phase folding says diagonal exactly when
    the full matrix is, at random angles and at all-zero angles (``rx(0)``
    is the identity); SWAP, which has no angles, never is."""
    rng = random.Random(kind.value)
    draws = [random_params(rng, kind) for _ in range(8)] + [(0.0,) * kind.num_params]
    for params in draws:
        op = GateOp(kind, tuple(range(kind.arity)), params)
        m = gate_matrix(kind, params)
        assert is_diagonal(op) == (np.count_nonzero(m - np.diag(np.diag(m))) == 0)


@pytest.mark.parametrize("kind", list(GateKind))
def test_kind_classes_agree_with_the_matrix_rule(kind):
    """``is_diagonal`` and ``is_dense`` answer from the kind where it
    decides, and agree with the rule on the 2x2 ``apply_op`` applies: it
    scales when its off-diagonals are zero, exchanges when it is exactly
    X (and for SWAP), and mixes otherwise; at random angles, at all-zero
    angles and at angles of pi, where ``rx`` and ``ry`` come nearest X."""
    rng = random.Random(kind.value)
    draws = [random_params(rng, kind) for _ in range(8)]
    draws += [(0.0,) * kind.num_params, (math.pi,) * kind.num_params]
    for params in draws:
        op = GateOp(kind, tuple(range(kind.arity)), params)
        m = gate_matrix(GateKind.X if kind is GateKind.SWAP else kind, params)
        u = m[-2:, -2:]  # the target's 2x2 where every control is 1
        scales = bool(u[0, 1] == 0 and u[1, 0] == 0)
        exchanges = bool((u == gate_matrix(GateKind.X)).all())
        assert is_diagonal(op) == scales
        assert is_dense(op) == (not scales and not exchanges)


def _draws(kind):
    """Angles to try ``kind`` at: eight random draws, all zero (``rx(0)``
    is the identity) and all pi, where ``rx`` and ``ry`` come nearest X."""
    rng = random.Random(kind.value)
    draws = [random_params(rng, kind) for _ in range(8)]
    return draws + [(0.0,) * kind.num_params, (math.pi,) * kind.num_params]


def _target_2x2(kind, params):
    """The 2x2 on the target where every control is 1, from the full
    matrix; a SWAP's is X, which exchanges its two pairs."""
    m = gate_matrix(GateKind.X if kind is GateKind.SWAP else kind, params)
    return m[-2:, -2:]


@pytest.mark.parametrize(
    "kind",
    [k for k in GateKind
     if is_diagonal(GateOp(k, tuple(range(k.arity)), (0.0,) * k.num_params))],
)
def test_diagonal_entries_are_the_last_2x2s_diagonal(kind):
    """For every kind that is diagonal at some angles, at each of its
    draws where it is, ``diagonal_entries`` gives exactly the diagonal of
    the last 2x2 of ``gate_matrix``: the factors at target 0 and 1 where
    every control is 1."""
    diagonal = 0
    for params in _draws(kind):
        op = GateOp(kind, tuple(range(kind.arity)), params)
        if is_diagonal(op):
            diagonal += 1
            u = _target_2x2(kind, params)
            assert diagonal_entries(op) == (complex(u[0, 0]), complex(u[1, 1]))
    assert diagonal > 0


def test_derived_actions_are_those_of_the_2x2s():
    """``_ACTION``, derived from the constant 2x2s and ``_ENTRIES``, holds
    exactly the kinds whose 2x2 does the same to amplitude pairs at every
    draw, each with that action (``_matrix_action``); ``rx``, ``ry``,
    ``cry`` and ``u3`` scale at zero angles only, so they are not in it."""
    constant = {}
    for kind in GateKind:
        actions = {_matrix_action(_target_2x2(kind, p)) for p in _draws(kind)}
        if len(actions) == 1:
            constant[kind] = actions.pop()
    assert statevec._ACTION == constant
    assert set(GateKind) - set(constant) == {
        GateKind.RX, GateKind.RY, GateKind.CRY, GateKind.U3
    }


def test_zero_state():
    sv = zero_state(3)
    assert sv.num_qubits == 3
    assert sv.data.dtype == np.complex128
    expect = np.zeros(8)
    expect[0] = 1.0
    np.testing.assert_array_equal(sv.data, expect)


def test_single_gate_touches_stride_pairs():
    """A 1-qubit gate on qubit i mixes exactly the index pairs differing
    in bit i, 2**(n-1) of them, and leaves other bits untouched."""
    n = 5
    rng = np.random.default_rng(11)
    for i in range(n):
        data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        sv = StateVector(n, data.copy())
        apply_op(sv.data, sv.num_qubits, GateOp(GateKind.RZ, (i,), (0.9,)))
        # rz is diagonal so amplitudes move only by phase; check the phase
        # depends only on bit i.
        ratio = sv.data / data
        for idx in range(1 << n):
            bit = (idx >> i) & 1
            expect = np.exp((-1j if bit == 0 else 1j) * 0.45)
            assert abs(ratio[idx] - expect) < 1e-12


def test_x_gate_swaps_stride_partners():
    n = 4
    rng = np.random.default_rng(5)
    for i in range(n):
        data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        sv = StateVector(n, data.copy())
        apply_op(sv.data, sv.num_qubits, GateOp(GateKind.X, (i,), ()))
        np.testing.assert_array_equal(
            sv.data, data[np.arange(1 << n) ^ (1 << i)]
        )


def _full_operator(op: GateOp, n: int) -> np.ndarray:
    """The gate promoted to a full 2**n matrix, independent of the kernel
    code path; scales only to small n."""
    u = gate_matrix(op.kind, op.params)
    k = len(op.qubits)
    full = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for col in range(1 << n):
        sub_in = 0
        for j, q in enumerate(op.qubits):
            sub_in |= ((col >> q) & 1) << (k - 1 - j)
        for sub_out in range(1 << k):
            row = col
            for j, q in enumerate(op.qubits):
                row &= ~(1 << q)
                row |= ((sub_out >> (k - 1 - j)) & 1) << q
            full[row, col] += u[sub_out, sub_in]
    return full


def _kron_oracle(circuit: Circuit) -> np.ndarray:
    """Reference simulation: promote every gate to a full 2**n matrix."""
    n = circuit.num_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for op in circuit.ops:
        state = _full_operator(op, n) @ state
    return state


@pytest.mark.parametrize("seed", range(8))
def test_simulate_flat_matches_dense_matrix_oracle(seed):
    n = 3 + seed % 3
    circuit = random_circuit(random.Random(seed), n, 12)
    got = simulate_flat(circuit)
    expect = _kron_oracle(circuit)
    assert np.max(np.abs(got.data - expect)) < 1e-12



@pytest.mark.parametrize("kind", list(GateKind))
def test_every_operand_order_matches_dense_operator(monkeypatch, kind):
    """Each kind, at every ordered operand tuple on a 4-qubit block, acts as
    its full 16x16 operator, on one vector and on a leading batch axis;
    with the default chunk, and with chunks of 1, 2 and 64 amplitudes
    (stubbed), whose slabs are single amplitudes, or whole views."""
    n = 4
    rng = random.Random(kind.value)
    draw = np.random.default_rng(21)
    batch = draw.normal(size=(3, 1 << n)) + 1j * draw.normal(size=(3, 1 << n))
    for chunk in (CHUNK_AMPS, 1, 2, 64):
        monkeypatch.setattr(statevec, "CHUNK_AMPS", chunk)
        for qubits in itertools.permutations(range(n), kind.arity):
            op = GateOp(kind, qubits, random_params(rng, kind))
            full = _full_operator(op, n)
            one = batch[0].copy()
            apply_op(one, n, op)
            assert np.max(np.abs(one - full @ batch[0])) < 1e-12
            many = batch.copy()
            apply_op(many, n, op)
            assert np.max(np.abs(many - batch @ full.T)) < 1e-12


@pytest.mark.parametrize("most", [0, 1, 2, 5, 8, 64, 1 << 10])
def test_slabs_cover_the_array_once_as_views(most):
    """``_slabs`` cuts an array into slabs of at most ``most`` amplitudes
    (one where ``most`` is smaller) that cover every amplitude exactly
    once, each a view, so writes through it hit the array, also where a
    slab is a single amplitude."""
    for shape in [(1,), (16,), (3, 2, 2, 2), (1, 2, 2, 2, 2), (5, 4, 3), (2, 7)]:
        seen = np.zeros(shape, dtype=np.int64)
        for cut in _slabs(shape, most):
            assert cut[-1] is Ellipsis
            slab = seen[cut]
            assert 1 <= slab.size <= max(most, 1)
            assert np.shares_memory(slab, seen)
            slab += 1
        assert (seen == 1).all(), (shape, most)


def test_dense_gate_temporaries_stay_within_one_state():
    """A dense 2x2 on a full 16-qubit state, on its lowest and highest
    target, allocates at most the state's size in temporaries
    (``test_gate_temporaries_stay_within_one_chunk`` bounds every kind
    and target by about one chunk)."""
    n = 16
    data = np.full(1 << n, 2 ** (-n / 2), dtype=np.complex128)
    for t in (0, n - 1):
        tracemalloc.start()
        try:
            apply_op(data, n, GateOp(GateKind.H, (t,), ()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * state_bytes(n)


def test_exchange_temporaries_stay_within_half_the_state():
    """X on a full 18-qubit state allocates at most half the state on its
    lowest, a middle and its top target, and moves every amplitude to its
    stride partner exactly."""
    n = 18
    rng = np.random.default_rng(17)
    data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for t in (0, 9, n - 1):
        before = data.copy()
        tracemalloc.start()
        try:
            apply_op(data, n, GateOp(GateKind.X, (t,), ()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.55 * state_bytes(n)
        np.testing.assert_array_equal(data, before[np.arange(1 << n) ^ (1 << t)])


def test_gate_temporaries_stay_within_one_chunk():
    """A gate that saves a copy runs one slab of at most half a chunk per
    view at a time, so on full 18- and 20-qubit states ``h``, ``ry``,
    ``x``, ``cx``, ``swap`` and ``ccx``, with their target on the lowest,
    a middle and the top qubit, each allocate at most one chunk (a saved
    slab, and a product's or an overlapping assignment's slab), plus the
    buffers of numpy's buffered iteration over strided slabs (two of
    ``np.getbufsize()`` amplitudes, and a third as slack for numpy's small
    allocations): a bound that does not grow with the state. ``x`` still
    moves every amplitude to its stride partner."""
    bound = (CHUNK_AMPS + 3 * np.getbufsize()) * 16
    rng = np.random.default_rng(17)
    for n in (18, 20):
        data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for kind in (GateKind.H, GateKind.RY, GateKind.X, GateKind.CX, GateKind.SWAP, GateKind.CCX):
            for t in (0, n // 2, n - 1):
                controls = [q for q in (n - 1, n // 2, 0) if q != t]
                op = GateOp(kind, (*controls[:kind.arity - 1], t), (0.3,) * kind.num_params)
                before = data.copy() if kind is GateKind.X else None
                tracemalloc.start()
                try:
                    apply_op(data, n, op)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= bound, (n, op)
                if before is not None:
                    index = np.arange(1 << n) ^ (1 << t)
                    np.testing.assert_array_equal(data, before[index])


@pytest.mark.parametrize("kind", [GateKind.CX, GateKind.SWAP, GateKind.CCX])
def test_exchange_across_slabs_permutes_amplitudes(kind):
    """A 17-qubit batch of two spans four exchange slabs; exchanges whose
    operands sit below, across and above a slab boundary move every
    amplitude of each batch entry to its partner, bit for bit."""
    n = 17
    rng = np.random.default_rng(kind.arity)
    batch = rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n))
    index = np.arange(1 << n)
    for qubits in [(0, 1, 2), (3, 16, 15), (16, 0, 9), (14, 15, 16)]:
        qubits = qubits[:kind.arity]
        got = batch.copy()
        apply_op(got, n, GateOp(kind, qubits, ()))
        # an exchange permutes basis indices: amplitude i comes from src[i]
        if kind is GateKind.SWAP:
            a, b = qubits
            flip = ((index >> a) ^ (index >> b)) & 1
            src = index ^ (flip * ((1 << a) | (1 << b)))
        else:
            flip = np.ones_like(index)
            for q in qubits[:-1]:
                flip &= (index >> q) & 1
            src = index ^ (flip << qubits[-1])
        np.testing.assert_array_equal(got, batch[:, src])


def _random_unitary(rng, k):
    dim = (1 << k, 1 << k)
    u, _ = np.linalg.qr(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return u


def _operator_on(u, slots, n):
    """The ``2**n`` operator of ``u`` with bit j of its index on qubit
    ``slots[j]``."""
    k = len(slots)
    full = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for col in range(1 << n):
        sub_in = sum(((col >> s) & 1) << j for j, s in enumerate(slots))
        for sub_out in range(1 << k):
            row = col
            for j, s in enumerate(slots):
                row = (row & ~(1 << s)) | (((sub_out >> j) & 1) << s)
            full[row, col] += u[sub_out, sub_in]
    return full


def test_apply_matrix_above_the_lowest_bits_matches_dense_operator():
    """With ``low`` set, a random 2**k unitary acts on bits ``low`` to
    ``low + k - 1`` in place, as its full operator there, on one vector
    and on a leading batch axis; a ``low`` the array cannot hold raises."""
    n = 6
    rng = np.random.default_rng(29)
    batch = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    for k in (1, 2, 3):
        for low in range(n - k + 1):
            u = _random_unitary(rng, k)
            full = _operator_on(u, tuple(range(low, low + k)), n)
            out = np.empty_like(batch)
            apply_matrix(batch, u, out, low)
            assert np.max(np.abs(out - batch @ full.T)) < 1e-12
            one = np.empty_like(batch[0])
            apply_matrix(batch[0], u, one, low)
            assert np.max(np.abs(one - full @ batch[0])) < 1e-12
    with pytest.raises(ValueError):
        apply_matrix(batch[0], np.eye(4), np.empty_like(batch[0]), n - 1)


def test_apply_matrix_matches_dense_operator():
    """A random 2**k unitary on any ordered slots, moved to the lowest bits
    by ``_permute_bits``, applied there and moved back, acts as its full
    operator, on one vector and on a leading batch axis."""
    n = 5
    rng = np.random.default_rng(23)
    batch = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    orders = [(0,), (0, 1), (1, 0), (4, 2), (0, 1, 2, 3), (3, 0, 4), (4, 1, 2, 0)]
    for slots in orders:
        k = len(slots)
        u = _random_unitary(rng, k)
        full = _operator_on(u, slots, n)
        # bit j of the moved index holds bit target[j] of the original
        target = list(slots) + [b for b in range(n) if b not in slots]
        to_low = [target.index(b) for b in range(n)]

        def apply(arr):
            low = _permute_bits(arr, to_low)
            out = np.empty_like(low)
            apply_matrix(low, u, out)
            return _permute_bits(out, target)

        one = apply(batch[0])
        assert np.max(np.abs(one - full @ batch[0])) < 1e-12
        many = apply(batch)
        assert many.shape == batch.shape
        assert np.max(np.abs(many - batch @ full.T)) < 1e-12


def test_permute_bits_moves_each_entrys_bits():
    """On a batch of three 3-bit entries, moving bits (0, 1, 2) to (2, 0, 1)
    sends amplitude i of each entry to the index whose bit sigma[b] is bit
    b of i, in a new array."""
    sigma = (2, 0, 1)
    data = np.arange(24, dtype=np.complex128).reshape(3, 8)
    dest = [sum(((i >> b) & 1) << sigma[b] for b in range(3)) for i in range(8)]
    expect = np.empty_like(data)
    expect[:, dest] = data
    moved = _permute_bits(data, sigma)
    assert not np.shares_memory(moved, data)
    np.testing.assert_array_equal(moved, expect)


def _one_copy(data, sigma):
    """The move on one worker: one copy of the ``_bit_view``."""
    bits = [0] * len(sigma)
    for i, j in enumerate(sigma):
        bits[j] = i
    return _bit_view(data, bits).copy().reshape(data.shape)


def _spy_on_pool(monkeypatch):
    """Record ``(slabs, workers)`` of every ``_pool`` call."""
    calls = []
    real = statevec._pool

    def spy(tasks, run, held):
        calls.append((len(tasks), len(held)))
        return real(tasks, run, held)

    monkeypatch.setattr(statevec, "_pool", spy)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_moves_equal_one_copy_byte_for_byte(monkeypatch, workers):
    """On 1, 2 or 3 workers (stubbed CPUs), ``_permute_bits`` equals one
    transposing copy byte for byte, for random sigmas: on a flat
    ``2**18``-amplitude state; on ``(4, 2**18)`` rank buffers, permuted
    across their rank bits (one entry) and rank by rank (four entries);
    and on 64 entries of ``2**12``. Each entry is cut at its top
    destination bits, at as many as make two slabs per worker: none for
    the 64 entries, up to three for one entry. Every array holds at least
    four chunks, so more than one worker always pools; threads switch
    every microsecond, so a slab lost or copied twice by the shared queue
    would show."""
    monkeypatch.setattr(statevec, "_cpus", lambda: workers)
    calls = _spy_on_pool(monkeypatch)
    rng = np.random.default_rng(workers)
    order = random.Random(workers)
    cases = [((1 << 18,), 18), ((4, 1 << 18), 20), ((4, 1 << 18), 18), ((64, 1 << 12), 12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for shape, k in cases:
            data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for _ in range(3):
                sigma = order.sample(range(k), k)
                moved = _permute_bits(data, sigma)
                assert moved.shape == data.shape and moved.flags.c_contiguous
                assert moved.tobytes() == _one_copy(data, sigma).tobytes()
    finally:
        sys.setswitchinterval(interval)
    if workers == 1:
        assert calls == []
    else:
        assert len(calls) == 3 * len(cases)
        assert all(held == workers and slabs >= 2 * workers for slabs, held in calls)


def test_moves_under_two_chunks_start_no_thread(monkeypatch):
    """An array under two chunks is moved on the calling thread alone,
    even with four CPUs (stubbed); one of two chunks starts one helper."""
    monkeypatch.setattr(statevec, "_cpus", lambda: 4)
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    rng = np.random.default_rng(3)
    order = random.Random(3)
    for shape, k in [((CHUNK_AMPS,), 16), ((3, CHUNK_AMPS // 2), 15), ((CHUNK_AMPS // 8, 4), 2)]:
        data = rng.normal(size=shape) + 0j
        sigma = order.sample(range(k), k)
        assert np.array_equal(_permute_bits(data, sigma), _one_copy(data, sigma))
    assert started == []
    data = rng.normal(size=2 * CHUNK_AMPS) + 0j
    sigma = order.sample(range(17), 17)
    assert np.array_equal(_permute_bits(data, sigma), _one_copy(data, sigma))
    assert len(started) == 1


def test_move_error_on_a_helper_reaches_the_caller_after_every_join(monkeypatch):
    """A slab that raises on a helper thread raises in the caller of
    ``_permute_bits``, and only once every helper is joined: the other
    helper, still copying its slab when the first raises, has finished it
    when the error arrives, and no thread is left running."""
    monkeypatch.setattr(statevec, "_cpus", lambda: 3)
    rng = np.random.default_rng(6)
    data = rng.normal(size=1 << 18) + 0j
    sigma = random.Random(6).sample(range(18), 18)
    caller = threading.current_thread()
    both = threading.Barrier(2, timeout=10)
    raised = threading.Event()
    lock = threading.Lock()
    first: list[threading.Thread] = []  # helpers, in the order they take a role
    finished = []
    real = np.copyto

    def copyto(dst, src, **kwargs):
        me = threading.current_thread()
        if me is caller:
            raised.wait(timeout=10)  # let both helpers take a slab first
        elif me not in first:
            both.wait()  # both helpers hold a slab
            with lock:
                first.append(me)
                role = len(first)
            if role == 1:
                raised.set()
                raise RuntimeError("helper")
            time.sleep(0.2)
            real(dst, src, **kwargs)
            finished.append(me)
            return
        real(dst, src, **kwargs)

    threads = threading.active_count()
    monkeypatch.setattr(np, "copyto", copyto)
    with pytest.raises(RuntimeError, match="helper"):
        _permute_bits(data, sigma)
    assert finished == first[1:] and len(first) == 2
    assert threading.active_count() == threads


def test_overlapping_blas_holds_restore_the_thread_count():
    """Two holds that overlap (A in, B in, A out, B out), as two
    ``run_part`` calls on two threads make them, keep BLAS on one thread
    while either is held and leave the count where it was, also when the
    inner block raises. The count is set to 2 first, so that 1 is not
    already the count."""
    calls = _blas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    get, set_ = calls
    old = get()
    set_(2)
    try:
        before = get()
        a, b = _one_blas_thread(), _one_blas_thread()
        a.__enter__()
        assert get() == 1
        b.__enter__()
        assert get() == 1
        a.__exit__(None, None, None)
        assert get() == 1
        b.__exit__(None, None, None)
        assert get() == before
        with pytest.raises(RuntimeError), _one_blas_thread():
            with _one_blas_thread():
                assert get() == 1
                raise RuntimeError
        assert get() == before
    finally:
        set_(old)


def test_blas_calls_are_found_under_numpy_1_names(monkeypatch):
    """Where numpy registers its core extension under its 1.x name,
    ``numpy.core._multiarray_umath``, and not its 2.x name, both BLAS
    thread calls are still found; under neither name, none is."""
    if _blas_threads() is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    core = sys.modules["numpy._core._multiarray_umath"]
    monkeypatch.delitem(sys.modules, "numpy._core._multiarray_umath")
    monkeypatch.setitem(sys.modules, "numpy.core._multiarray_umath", core)
    _blas_threads.cache_clear()
    try:
        calls = _blas_threads()
        assert calls is not None
        get, set_ = calls
        old = get()
        set_(old)
        assert get() == old
        monkeypatch.delitem(sys.modules, "numpy.core._multiarray_umath")
        _blas_threads.cache_clear()
        assert _blas_threads() is None
    finally:
        monkeypatch.undo()
        _blas_threads.cache_clear()


def test_blas_holds_on_many_threads_restore_the_thread_count():
    """Four threads each open and close 2000 nested holds while threads
    switch every microsecond: BLAS reads one thread inside every hold, and
    the count is back when all are done."""
    calls = _blas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    get, set_ = calls
    old, interval = get(), sys.getswitchinterval()
    seen = []

    def hold():
        for _ in range(2000):
            with _one_blas_thread(), _one_blas_thread():
                seen.append(get())

    set_(2)
    sys.setswitchinterval(1e-6)
    try:
        before = get()
        threads = [threading.Thread(target=hold) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(seen) == 8000 and set(seen) == {1}
        assert get() == before
    finally:
        sys.setswitchinterval(interval)
        set_(old)


def test_apply_matrix_rejects_bad_input():
    fortran = np.zeros((4, 4), dtype=np.complex128, order="F")
    out = np.zeros(16, dtype=np.complex128)
    with pytest.raises(ValueError):
        apply_matrix(fortran, np.eye(2), out)
    with pytest.raises(ValueError):
        apply_matrix(np.zeros(4, dtype=np.complex128), np.eye(3), out[:4])
    with pytest.raises(ValueError):
        apply_matrix(np.zeros(4, dtype=np.complex128), np.eye(2), out)


def test_kernels_refuse_bad_arrays_with_their_messages():
    """``apply_op`` refuses an array it could not write through, and
    ``apply_matrix`` a source or output that is not C-contiguous, a matrix
    that is not square, not a power of two or does not tile the source,
    and an output of another size, each with its message."""
    strided = np.zeros(16, dtype=np.complex128)[::2]
    with pytest.raises(ValueError, match="arr must be C-contiguous"):
        apply_op(strided, 3, GateOp(GateKind.H, (0,), ()))
    src = np.zeros(8, dtype=np.complex128)
    out = np.zeros(8, dtype=np.complex128)
    for a, b in ((strided, out), (src, np.zeros(16, dtype=np.complex128)[::2])):
        with pytest.raises(ValueError, match="src and out must be C-contiguous"):
            apply_matrix(a, np.eye(2), b)
    for u, low in ((np.eye(2, 4), 0), (np.eye(3), 0), (np.eye(4), 2)):
        message = f"matrix of shape {u.shape} at bit {low} on 8 amplitudes"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_matrix(src, u, out, low)
    with pytest.raises(ValueError, match="out holds 4 amplitudes, src 8"):
        apply_matrix(src, np.eye(2), out[:4])


def test_dump_of_another_size_than_its_sidecar_is_refused(tmp_path):
    """A dump whose amplitude count does not match its sidecar's qubit
    count is refused with both numbers."""
    path = tmp_path / "state.bin"
    save_state(zero_state(4), path)
    sidecar = tmp_path / "state.bin.json"
    sidecar.write_text(sidecar.read_text().replace('"num_qubits": 4', '"num_qubits": 5'))
    with pytest.raises(ValueError, match="dump holds 16 amplitudes, expected 32"):
        load_state(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_norm_is_conserved(seed):
    circuit = random_circuit(random.Random(seed), 4, 20)
    sv = simulate_flat(circuit)
    assert abs(sv.norm() - 1.0) < 1e-12


_DAGGER_SWAPS = {
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
}


def _dagger(op: GateOp) -> GateOp:
    if op.kind in _DAGGER_SWAPS:
        return GateOp(_DAGGER_SWAPS[op.kind], op.qubits, ())
    if op.kind is GateKind.U3:
        t, p, l = op.params
        return GateOp(GateKind.U3, op.qubits, (-t, -l, -p))
    if op.kind.num_params:
        return GateOp(op.kind, op.qubits, tuple(-x for x in op.params))
    return op  # self-inverse


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_then_dagger_restores_state(kind):
    n = max(3, kind.arity)
    rng = random.Random(kind.value.__hash__() & 0xFFF)
    op = GateOp(
        kind,
        tuple(rng.sample(range(n), kind.arity)),
        tuple(rng.uniform(-math.pi, math.pi) for _ in range(kind.num_params)),
    )
    data = np.random.default_rng(3).normal(size=1 << n) + 0j
    data /= np.linalg.norm(data)
    sv = StateVector(n, data.copy())
    apply_op(sv.data, sv.num_qubits, op)
    apply_op(sv.data, sv.num_qubits, _dagger(op))
    assert np.max(np.abs(sv.data - data)) < 1e-12


def test_apply_op_rejects_non_contiguous_input():
    data = np.zeros((4, 4), dtype=np.complex128, order="F")
    with pytest.raises(ValueError):
        apply_op(data, 2, GateOp(GateKind.H, (0,), ()))


def test_apply_op_batched_axes_match_loop():
    """Leading axes are independent batch entries."""
    rng = np.random.default_rng(13)
    batch = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    op = GateOp(GateKind.U3, (1,), (0.3, 1.1, -0.4))
    expect = batch.copy()
    for i in range(5):
        row = np.ascontiguousarray(expect[i])
        apply_op(row, 3, op)
        expect[i] = row
    got = np.ascontiguousarray(batch)
    apply_op(got, 3, op)
    np.testing.assert_allclose(got, expect, atol=1e-15)


def test_state_bytes_formula():
    assert state_bytes(0) == 16
    assert state_bytes(10) == (1 << 10) * 16
    assert state_bytes(30) == 17179869184


def test_qubit_count_cap_enforced():
    with pytest.raises(QubitCountOutOfRangeError):
        zero_state(31)
    circuit = Circuit(40, ())
    with pytest.raises(QubitCountOutOfRangeError):
        simulate_flat(circuit)


def test_cap_can_be_lowered():
    with pytest.raises(QubitCountOutOfRangeError):
        zero_state(12, max_qubits=10)
    assert zero_state(10, max_qubits=10).num_qubits == 10


def test_save_load_round_trip(tmp_path):
    circuit = random_circuit(random.Random(99), 5, 25)
    sv = simulate_flat(circuit)
    path = tmp_path / "state.npz"
    save_state(sv, path)
    back = load_state(path)
    assert back.num_qubits == sv.num_qubits
    np.testing.assert_array_equal(back.data, sv.data)


def test_state_dumps_hold_no_second_copy(tmp_path):
    """On a little-endian host the dump's byte order is the state's own, so
    saving writes the amplitudes as they are and loading keeps the array
    it read."""
    n = 18
    sv = simulate_flat(random_circuit(random.Random(5), n, 30))
    path = tmp_path / "state.bin"
    peaks = []
    for step in (lambda: save_state(sv, path), lambda: load_state(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] / state_bytes(n))
        finally:
            tracemalloc.stop()
    save_peak, load_peak = peaks
    assert save_peak <= 0.1
    assert load_peak <= 1.1


def test_copy_is_independent():
    sv = zero_state(2)
    dup = sv.copy()
    dup.data[0] = 0.0
    assert sv.data[0] == 1.0
