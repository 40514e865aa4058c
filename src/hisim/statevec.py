"""Dense state-vector engine.

Amplitude indexing is little-endian: bit i of a basis index is the value of
qubit i, so a gate on qubit i pairs amplitudes at stride 2**i. A full
n-qubit vector holds 2**n complex128 amplitudes, 2**(n+4) bytes.

Kernels operate in place on arrays whose last axis is the state index;
leading batch axes let ``hisim.hier.run_part`` run a whole chunk of a
part's staged rows at once, whether the rows come from the full state
or from rank buffers. An op's qubits
are always bits of the block it runs on: a circuit's own qubits on the
full state, or slots of a part's staged block, as
``hisim.hier.remap_part`` rewrote them.

Only this module maps index bits to array axes: ``_bit_view`` views each
entry of a batch with its bits reordered, by one axis transpose, and the
scatter of ``hisim.hier.run_part`` writes into such a view, while
``_permute_bits`` copies one, of a whole array or of each entry, into a
new array: the transposing permute of the distribution, layout switches
and assembly of ``hisim.dist``, which copies disjoint slabs of the one
output array on every CPU. A part's chunk is permuted by one
``np.take`` through a gather index instead (``hisim.hier._permute``),
never wider than a chunk
or ``2**FUSE_WIDTH``, since a part wider than a chunk runs as pieces
that fit one; and a SWAP in a part only relabels its slots
(``hisim.hier._relabel``).
``_subspace`` views every block with given slots held at given bits. A
gate is a 2x2 on two such views (target at 0 and 1, controls at 1; or a
SWAP's two exchanged slot pairs), never decomposed: a diagonal scales
them in one pass, and exactly X exchanges them and any other mixes them,
both through one saved copy of the first.

This module cuts whole arrays by one rule, ``_slabs``: slabs of at most
half a chunk (``CHUNK_AMPS``) along the leading axes, each a view.
``apply_op`` saves, exchanges and mixes its two views one such slab of
each at a time, so no gate's temporaries grow with the state: about one
chunk, plus numpy's iteration buffers. ``_permute_bits`` copies the
output's slabs, from the matching slabs of the ``_bit_view``, on every
worker.

Each kind's 2x2 is stated once, in one table (``_2X2``): a constant, or
a builder of the kind's angles. Every kind on more than one qubit but
swap is controlled: every operand but the last is a control, and the
kind's 2x2 is its target's, applied where the controls are all 1. Swap's
is X, applied to its two exchanged slot pairs. What a kind does to
amplitude pairs (``_ACTION``) is derived, not listed: the action
(``_matrix_action``) of each constant 2x2, and scaling for each kind
whose 2x2 is diagonal at every angle (``_ENTRIES``, which gives its two
diagonal entries without building the 2x2).

``is_diagonal`` is the one test for a gate that only scales amplitudes,
and ``is_dense`` for one that mixes them; both answer from ``_ACTION``
where the kind decides it, and build the 2x2 only for ``rx``, ``ry``,
``cry`` and ``u3``, which scale at some angles. ``hisim.hier._unconjugate``
uses ``is_diagonal`` to find the diagonal gates a pair of equal ``cx``
gates conjugates, which then become a phase, and ``hisim.hier._compile``
to find runs of such gates, which commute, so each of their gates joins
a group of other gates that holds its qubits, or else a phase group of
such gates, folded into one ``2**w`` phase vector. That vector is built
in closed form from each gate's two diagonal entries
(``diagonal_entries``), by ``hisim.hier._phases``, not by ``apply_op``.
Every group of several gates, and every lone gate that ``is_dense`` says
mixes amplitude pairs, is fused into one dense ``2**k x 2**k`` unitary,
built by ``apply_op`` on the identity of the ``k`` bits it runs on.
``apply_matrix`` applies such a unitary to ``k`` consecutive bits of a
cache-sized block, into a second buffer: on the lowest bits as one
matrix product, or from bit ``low`` up as one stacked product.
``hisim.hier`` picks the bits where the unitary's slots already sit, and
permutes them only when no product fits there.

``_pool`` runs a queue of independent tasks on the calling thread and
helper threads: ``_permute_bits``'s slabs, which make no BLAS call, and
``hisim.hier.run_part``'s chunks. Both size it by ``_pool_workers``:
one worker per CPU (``_cpus``), at most one per ``CHUNK_AMPS``
amplitudes they move. When chunks run on several threads at once, each
thread's products run in BLAS on its own CPU: ``_one_blas_thread``
holds numpy's BLAS to one thread while they run, and the last of
overlapping holds restores its old thread count after, also when a
kernel raises. It expects numpy's BLAS to be OpenBLAS, as
numpy's own wheels bundle it (scipy-openblas), exporting its
``set_num_threads`` and ``get_num_threads`` entry points under one of
the names ``_BLAS_THREAD_CALLS`` lists, and safe to call from several
threads at once. ``_blas_threads`` finds them through ``ctypes`` in the
library numpy loaded, by the handle of numpy's own core extension, found
in ``sys.modules`` under its numpy 2.x name or its 1.x name, so nothing
is imported and no second copy of a BLAS is loaded; where it finds none, ``run_part`` runs
a part on one thread, since uncapped BLAS threads on every worker
oversubscribe the CPUs.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import QubitCountOutOfRangeError
from .qasm import Circuit, GateKind, GateOp

#: default materialization cap (256 MiB); HISIM_MAX_QUBITS overrides
DEFAULT_MAX_QUBITS = 24
#: absolute ceiling on vector width; n=30 is 16 GiB
HARD_MAX_QUBITS = 30
#: amplitudes ``hisim.hier.run_part`` stages per chunk (1 MiB), twice a slab
#: of ``apply_op`` and ``_permute_bits`` (``_slabs``); 2**14 to 2**16 ran
#: fastest at n = 20
CHUNK_AMPS = 1 << 16

#: (get, set) names of OpenBLAS's thread-count entry points: those of
#: numpy's bundled scipy-openblas, 64-bit integer and plain, then those of
#: a plain OpenBLAS build
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_SQ2 = 1.0 / math.sqrt(2.0)

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz_entries(t: float) -> tuple[complex, complex]:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return complex(c, -s), complex(c, s)


def _rz(t: float) -> np.ndarray:
    return np.diag(np.array(_rz_entries(t), dtype=np.complex128))


def _u1_entries(lam: float) -> tuple[complex, complex]:
    return 1 + 0j, complex(math.cos(lam), math.sin(lam))


def _u1(lam: float) -> np.ndarray:
    return np.diag(np.array(_u1_entries(lam), dtype=np.complex128))


def _u3(t: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


#: the 2x2 ``apply_op`` applies for each kind, a constant or a builder of
#: the kind's angles: a controlled kind's is its target's, applied where
#: its controls are all 1, and swap's is X, applied to its two exchanged
#: slot pairs
_2X2: dict[GateKind, np.ndarray | Callable[..., np.ndarray]] = {
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    GateKind.T: np.diag([1, np.exp(0.25j * np.pi)]).astype(np.complex128),
    GateKind.TDG: np.diag([1, np.exp(-0.25j * np.pi)]).astype(np.complex128),
    **dict.fromkeys((GateKind.X, GateKind.CX, GateKind.CCX, GateKind.SWAP), _X),
    **dict.fromkeys((GateKind.Z, GateKind.CZ), _Z),
    GateKind.RX: _rx,
    **dict.fromkeys((GateKind.RY, GateKind.CRY), _ry),
    **dict.fromkeys((GateKind.RZ, GateKind.CRZ), _rz),
    GateKind.U1: _u1,
    GateKind.U3: _u3,
}


def _base_matrix(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    """The kind's 2x2 (``_2X2``) at the angles ``params``."""
    u = _2X2[kind]
    return u(*params) if callable(u) else u


def gate_matrix(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """Full 2**arity unitary of a gate.

    Basis convention: the first operand is the most significant bit of the
    matrix index, so gate_matrix(CX) has its X block on the control=1
    subspace (rows/cols 2 and 3) and SWAP exchanges indices 1 and 2.
    """
    if kind is GateKind.SWAP:
        return np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
    u = _base_matrix(kind, params)
    if kind.arity == 1:
        return u
    m = np.eye(1 << kind.arity, dtype=np.complex128)
    m[-2:, -2:] = u
    return m


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

def _subspace(arr: np.ndarray, w: int, fixed: dict[int, int]) -> np.ndarray:
    """View of every w-qubit block of ``arr`` (last axis 2**w) with slot
    ``s`` held at bit ``fixed[s]``; slot ``s`` is axis ``w - s`` of the
    C-order ``(batch,) + (2,) * w`` view. Basic indexing only, so writes
    through the view hit ``arr``."""
    index: list = [slice(None)] * (w + 1)
    for s, bit in fixed.items():
        index[w - s] = bit
    return arr.reshape((-1,) + (2,) * w)[tuple(index)]


def _bit_view(data: np.ndarray, bits: Sequence[int]) -> np.ndarray:
    """``data`` as a batch of ``(2,) * n`` entries, ``n = len(bits)``,
    whose index bit ``j`` is bit ``bits[j]`` of the entry: bit ``i`` is
    axis ``n - i`` of the C-order ``(batch,) + (2,) * n`` view, so this is
    one axis transpose, a view of a C-contiguous ``data``."""
    n = len(bits)
    return data.reshape((-1,) + (2,) * n).transpose(
        [0, *(n - b for b in reversed(bits))]
    )


def _slabs(shape: Sequence[int], most: int) -> list[tuple]:
    """Indices that cut an array of ``shape`` along its leading axes into
    slabs of at most ``most`` amplitudes, or of one where ``most`` is
    smaller: the axes before the first whose trailing block fits are
    fixed, that axis is sliced into runs of as many blocks as fit, and the
    axes after it are whole. Each index ends in ``...``, so every slab is
    a view, even of one amplitude, and writes through it hit the array."""
    cut, block = len(shape), 1
    while cut and block * shape[cut - 1] <= most:
        cut -= 1
        block *= shape[cut]
    if not cut:
        return [(...,)]
    step = max(1, most // block)
    return [
        (*lead, slice(i, i + step), ...)
        for lead in np.ndindex(*shape[:cut - 1])
        for i in range(0, shape[cut - 1], step)
    ]


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_workers(chunks: int) -> int:
    """Workers for ``chunks`` chunks of ``_pool`` work: one per CPU
    (``_cpus``), and at most one per chunk."""
    return min(_cpus(), chunks)


def _pool(tasks: deque, run: Callable[..., None], held: Sequence[tuple]) -> None:
    """Call ``run(task, *held[i])`` on every task popped from ``tasks``, on
    ``len(held)`` workers: the calling thread, with ``held[0]``, and one
    helper thread per further entry, each taking the next task until none
    is left. The helpers are started here and joined before the call
    returns, also when a task raises: the tasks left are then dropped, and
    the call raises the caller's error, else the first helper's."""

    def work(*args) -> None:
        while True:
            try:
                task = tasks.popleft()
            except IndexError:
                return
            run(task, *args)

    errors: list[BaseException] = []

    def helper(*args) -> None:
        try:
            work(*args)
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)
            tasks.clear()

    threads = [threading.Thread(target=helper, args=args) for args in held[1:]]
    try:
        for thread in threads:
            thread.start()
        work(*held[0])
    except BaseException:
        tasks.clear()
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:  # it started
                thread.join()
    if errors:
        raise errors[0]


def _permute_bits(data: np.ndarray, sigma: Sequence[int]) -> np.ndarray:
    """``data`` with index bit ``i`` of each entry moved to bit ``sigma[i]``.

    An entry is a run of ``2**len(sigma)`` amplitudes; any leading
    amplitudes are batch, each entry permuted alike. The move copies a
    ``_bit_view`` into a new array of ``data``'s shape, on
    ``_pool_workers`` of its ``CHUNK_AMPS``-amplitude chunks, so an array
    under two chunks is copied on the calling thread alone, in one copy.
    Otherwise workers copy the output's slabs (``_slabs``) of at most
    ``CHUNK_AMPS // 2`` amplitudes, at least two per worker, each from the
    same slab of the view, through ``_pool``.
    """
    bits = [0] * len(sigma)
    for i, j in enumerate(sigma):
        bits[j] = i
    src = _bit_view(data, bits)
    out = np.empty(data.shape, dtype=data.dtype)
    dst = out.reshape(src.shape)
    workers = _pool_workers(data.size // CHUNK_AMPS)
    if workers < 2:
        np.copyto(dst, src)
        return out

    def copy(cut: tuple) -> None:
        np.copyto(dst[cut], src[cut])

    _pool(deque(_slabs(dst.shape, CHUNK_AMPS // 2)), copy, [()] * workers)
    return out


def _matrix_action(u: np.ndarray) -> str:
    """``"scales"``, ``"exchanges"`` or ``"mixes"``: whether the 2x2 ``u``
    has zero off-diagonals, is exactly X, or neither."""
    if u[0, 1] == 0 and u[1, 0] == 0:
        return "scales"
    return "exchanges" if (u == _X).all() else "mixes"


#: the diagonal entries of the kinds with angles whose 2x2 is diagonal at
#: every angle, as the 2x2 holds them, without building it
_ENTRIES = {GateKind.RZ: _rz_entries, GateKind.CRZ: _rz_entries,
            GateKind.U1: _u1_entries}

#: what ``apply_op`` does to amplitude pairs (``_matrix_action``) for each
#: kind that does the same at every angle: those with a constant 2x2, and
#: those ``_ENTRIES`` holds, which scale. ``rx``, ``ry``, ``cry`` and
#: ``u3`` only scale at some angles (``rx(0)``), so theirs is read from
#: the 2x2
_ACTION = {
    **{k: _matrix_action(u) for k, u in _2X2.items() if not callable(u)},
    **dict.fromkeys(_ENTRIES, "scales"),
}


def _action(op: GateOp) -> str:
    """``_matrix_action`` of ``op``'s 2x2, from the kind where the kind
    decides it (``_ACTION``); only otherwise is the 2x2 built."""
    return _ACTION.get(op.kind) or _matrix_action(_base_matrix(op.kind, op.params))


def is_diagonal(op: GateOp) -> bool:
    """Whether ``op`` only scales amplitudes, each by a factor that depends
    on its own index: any gate but SWAP whose 2x2 has zero off-diagonals
    (``rz``, ``u1``, ``z``, ``cz``, ``crz``, ...; also ``rx(0)``)."""
    return _action(op) == "scales"


def is_dense(op: GateOp) -> bool:
    """Whether ``apply_op`` mixes amplitude pairs for ``op``: its 2x2 neither
    only scales (``is_diagonal``) nor is exactly X, which exchanges them
    (X, CX, CCX, SWAP)."""
    return _action(op) == "mixes"


def diagonal_entries(op: GateOp) -> tuple[complex, complex]:
    """The factors a diagonal op (``is_diagonal``) scales its target's
    amplitudes by, at target 0 and at target 1, where its controls are
    all 1; it leaves the others as they are."""
    if op.kind in _ENTRIES:
        return _ENTRIES[op.kind](*op.params)
    u = _base_matrix(op.kind, op.params)
    return complex(u[0, 0]), complex(u[1, 1])


def apply_op(arr: np.ndarray, w: int, op: GateOp) -> None:
    """Apply one gate in place to every w-qubit block of ``arr``.

    ``arr`` is any array whose last axis has length 2**w (leading axes are
    batch). The op's qubits are slots of that block: a circuit's own ops on
    the full state, or a part's ops as ``hisim.hier.remap_part`` rewrote
    them for its staged block.

    A diagonal scales the op's two ``_subspace`` views in one pass. Any
    other 2x2 runs on them one slab (``_slabs``) of at most
    ``CHUNK_AMPS // 2`` amplitudes per view at a time, from one saved copy
    of the first view's slab: X exchanges the slabs, and any other mixes
    them in place. So its temporaries stay within one chunk, the saved
    slab and a product's slab (or numpy's copy of an overlapping source),
    plus numpy's iteration buffers, whatever the size of ``arr``.
    """
    if not arr.flags.c_contiguous:
        # the kernels write through reshaped views; a non-contiguous array
        # would silently reshape into a copy and drop the writes
        raise ValueError("arr must be C-contiguous")
    q = op.qubits
    u = _base_matrix(op.kind, op.params)
    action = _ACTION.get(op.kind) or _matrix_action(u)
    if op.kind is GateKind.SWAP:
        fa, fb = {q[0]: 0, q[1]: 1}, {q[0]: 1, q[1]: 0}
    else:
        held = dict.fromkeys(q[:-1], 1)
        fa, fb = {**held, q[-1]: 0}, {**held, q[-1]: 1}
    a = _subspace(arr, w, fa)
    b = _subspace(arr, w, fb)
    if action == "scales":
        if u[0, 0] != 1.0:
            a *= u[0, 0]
        if u[1, 1] != 1.0:
            b *= u[1, 1]
        return
    for cut in _slabs(a.shape, CHUNK_AMPS // 2):
        sa, sb = a[cut], b[cut]
        saved = sa.copy()
        if action == "exchanges":
            sa[...] = sb
            sb[...] = saved
        else:
            sa *= u[0, 0]
            sa += u[0, 1] * sb
            sb *= u[1, 1]
            sb += u[1, 0] * saved


def apply_matrix(
    src: np.ndarray, u: np.ndarray, out: np.ndarray, low: int = 0
) -> None:
    """Apply a dense ``2**k x 2**k`` unitary to index bits ``low`` to
    ``low + k - 1`` of ``src``, writing the result to ``out``: bit ``j`` of
    ``u``'s row and column index is index bit ``low + j``.

    On the lowest bits (``low`` 0) each run of ``2**k`` amplitudes is one
    row of a ``(rows, 2**k)`` matrix, so the whole array is one product
    with ``u.T``. Above them, ``src`` is a stack of ``(2**k, 2**low)``
    matrices, each multiplied by ``u``: one ``np.matmul`` call, but one
    small product per matrix, so it pays only when ``2**low`` is large
    (``hisim.hier.STRIDE_FLOOR``). Either way the result goes straight into
    ``out`` (C-contiguous, the size of ``src``, not overlapping it).
    """
    if not (src.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("src and out must be C-contiguous")
    dim = u.shape[0]
    if u.shape != (dim, dim) or dim & (dim - 1) or src.size % (dim << low):
        raise ValueError(
            f"matrix of shape {u.shape} at bit {low} on {src.size} amplitudes"
        )
    if out.size != src.size:
        raise ValueError(f"out holds {out.size} amplitudes, src {src.size}")
    if low == 0:
        np.matmul(src.reshape(-1, dim), u.T, out=out.reshape(-1, dim))
    else:
        shape = (-1, dim, 1 << low)
        np.matmul(u, src.reshape(shape), out=out.reshape(shape))


@cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set calls of the thread count of the BLAS numpy loaded,
    or None where none is found (see the module docstring)."""
    # numpy's core extension, as numpy 2.x and 1.x name it
    core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"
    )
    try:
        # RTLD_NOLOAD: the handle of the copy numpy loaded, or an OSError;
        # its symbols include those of the libraries it links against
        lib = ctypes.CDLL(core.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):  # no core extension, or not a library
        return None
    for get_name, set_name in _BLAS_THREAD_CALLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_blas_lock = threading.Lock()
_blas_holds = 0
_blas_saved = 1


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold numpy's BLAS to one thread inside the block. The count is the
    process's, and holds may overlap: the first saves it and sets 1, the
    last to end restores it, also when its block raises. ``_blas_threads``
    must find the calls."""
    global _blas_holds, _blas_saved
    get, set_ = _blas_threads()
    with _blas_lock:
        if not _blas_holds:
            _blas_saved = get()
            set_(1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holds -= 1
            if not _blas_holds:
                set_(_blas_saved)


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
    sidecar ``<path>.json`` carrying num_qubits and the norm, written as
    ``null`` when it is not finite (JSON has no NaN)."""
    path = Path(path)
    # no copy when the host is little-endian, as the dump already is
    state.data.astype("<c16", copy=False).tofile(path)
    norm = state.norm()
    sidecar = {
        "num_qubits": state.num_qubits,
        "norm": norm if math.isfinite(norm) else None,
    }
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
    return StateVector(n, data.astype(np.complex128, copy=False))
