"""Acceptance suite: eight release criteria, one test and one printed
verdict line each.

The shared corpus is 200 seeded random circuits over the full gate set,
3 to 12 qubits, up to 150 gates. Expensive sweeps run once in
module-scoped fixtures and feed several criteria.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from hisim import bench
from hisim.dag import NodeKind, build_dag
from hisim.dist import plan_redistribution, simulate_distributed
from hisim.hier import execute_hierarchical, part_block_indices
from hisim.partition import (
    optimal_parts_bruteforce,
    partition_dagp,
    partition_dfs,
    partition_nat,
)
from hisim.qasm import Circuit, GateKind, GateOp
from hisim.statevec import (
    StateVector,
    apply_op,
    gate_matrix,
    simulate_flat,
    state_bytes,
)

from dag_oracles import quotient_is_acyclic, working_set
from random_circuits import random_circuit

CORPUS_SEED = 20260822
CORPUS_SIZE = 200
MAX_GATES = 150

STRATEGY_FNS = {
    "nat": partition_nat,
    "dfs": partition_dfs,
    "dagp": partition_dagp,
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    entries = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(3, 12)
        circuit = random_circuit(rng, n, rng.randint(1, MAX_GATES))
        entries.append((circuit, build_dag(circuit), simulate_flat(circuit)))
    return entries


@pytest.fixture(scope="module")
def hier_sweep(corpus):
    """Every strategy at every feasible limit on every corpus circuit."""
    worst_err = 0.0
    worst_norm = 0.0
    configs = 0
    partitions = []  # (dag, limit, result) for the validity criterion
    for circuit, dag, flat in corpus:
        n = circuit.num_qubits
        widest = max((len(op.qubits) for op in circuit.ops), default=1)
        for limit in range(max(2, widest), n + 1):
            for fn in STRATEGY_FNS.values():
                result = fn(dag, limit)
                partitions.append((dag, limit, result))
                state = execute_hierarchical(circuit, result)
                err = float(np.max(np.abs(state.data - flat.data)))
                worst_err = max(worst_err, err)
                worst_norm = max(worst_norm, abs(state.norm() ** 2 - 1.0))
                configs += 1
    return {
        "worst_err": worst_err,
        "worst_norm": worst_norm,
        "configs": configs,
        "partitions": partitions,
    }


@pytest.fixture(scope="module")
def dist_sweep(corpus):
    """Distributed runs at 1, 2, 4, and 8 ranks across the corpus, plus a
    forward/inverse check on each redistribution actually planned."""
    rng = random.Random(CORPUS_SEED + 1)
    worst_err = 0.0
    worst_norm = 0.0
    configs = 0
    roundtrips = 0
    strategies = list(STRATEGY_FNS.values())
    for i, (circuit, dag, flat) in enumerate(corpus):
        n = circuit.num_qubits
        widest = max((len(op.qubits) for op in circuit.ops), default=1)
        lo = max(2, widest)
        for p in (0, 1, 2, 3):
            if lo > n - p:
                continue  # no room for any part in a rank's buffer
            limit = rng.randint(lo, n - p)
            partition = strategies[(i + p) % 3](dag, limit)
            run = simulate_distributed(circuit, partition, p)
            err = float(np.max(np.abs(run.state.data - flat.data)))
            worst_err = max(worst_err, err)
            worst_norm = max(worst_norm, abs(run.state.norm() ** 2 - 1.0))
            configs += 1
            for old, new in zip(run.layouts, run.layouts[1:]):
                if old == new:
                    continue
                fwd = plan_redistribution(old, new)
                inv = plan_redistribution(new, old)
                buffers = (
                    rng.random() * np.arange(1 << n, dtype=np.complex128)
                ).reshape(old.num_ranks, -1) + 1j
                if not np.array_equal(inv.apply(fwd.apply(buffers)), buffers):
                    raise AssertionError(
                        f"redistribution round trip lost amplitudes "
                        f"({old} -> {new})"
                    )
                roundtrips += 1
    return {
        "worst_err": worst_err,
        "worst_norm": worst_norm,
        "configs": configs,
        "roundtrips": roundtrips,
    }


def test_criterion_1_partitioned_execution_matches_reference(hier_sweep):
    """Partitioned runs agree with the single-pass simulator elementwise."""
    err = hier_sweep["worst_err"]
    ok = err < 1e-10
    _report(
        1,
        "partitioned-vs-flat equivalence",
        ok,
        f"{hier_sweep['configs']} strategy/limit configs over "
        f"{CORPUS_SIZE} circuits, max |delta| = {err:.3e} (< 1e-10)",
    )
    assert ok


def test_criterion_2_distributed_execution_matches_reference(dist_sweep):
    """Emulated multi-rank runs agree with the reference, and every
    redistribution is a reversible permutation."""
    err = dist_sweep["worst_err"]
    ok = err < 1e-10 and dist_sweep["roundtrips"] > 0
    _report(
        2,
        "distributed equivalence",
        ok,
        f"{dist_sweep['configs']} rank configs, max |delta| = {err:.3e} "
        f"(< 1e-10); {dist_sweep['roundtrips']} redistribution round trips "
        f"bit-exact",
    )
    assert ok


def test_criterion_3_every_partition_is_valid(hier_sweep):
    """Nonempty, each part's gates in ascending (program) order, disjoint,
    exhaustive, within the limit, acyclic quotient -- checked directly
    against the dependency graph, not via the library's own validator."""
    violations = 0
    checked = 0
    for dag, limit, result in hier_sweep["partitions"]:
        checked += 1
        all_gates: list[int] = []
        assignment = {}
        tag = len(result.parts)
        for node in dag.nodes:
            if node.kind is not NodeKind.GATE:
                assignment[node.id] = tag
                tag += 1
        for part in result.parts:
            if not part.gate_indices:
                violations += 1
            if list(part.gate_indices) != sorted(part.gate_indices):
                violations += 1  # execution would run the part out of order
            all_gates.extend(part.gate_indices)
            ids = [dag.gate_id(k) for k in part.gate_indices]
            for nid in ids:
                assignment[nid] = part.id
            if working_set(dag, ids) > limit:
                violations += 1
        if sorted(all_gates) != list(range(dag.num_gates)):
            violations += 1  # not disjoint and exhaustive
        elif not quotient_is_acyclic(dag, assignment):
            violations += 1
    ok = violations == 0
    _report(
        3,
        "partition validity",
        ok,
        f"{checked} partitions checked, {violations} violations",
    )
    assert ok


def test_criterion_4_heuristic_is_near_optimal():
    """dagp versus exhaustive search on every bundled circuit truncated to
    20 gates, at limits 3 through 6: 52 combinations."""
    gaps = []
    for name in bench.DESK_NAMES:
        circuit = bench.build(name)
        if circuit.num_ops > 20:
            circuit = Circuit(circuit.num_qubits, circuit.ops[:20])
        dag = build_dag(circuit)
        for limit in (3, 4, 5, 6):
            heur = partition_dagp(dag, limit).num_parts
            opt = optimal_parts_bruteforce(dag, limit)
            gaps.append(heur - opt)
    total = len(gaps)
    in_band = sum(1 for g in gaps if g in (0, 1, 2))
    zero = sum(1 for g in gaps if g == 0)
    ok = total >= 52 and in_band == total and zero >= 0.85 * total
    _report(
        4,
        "optimality gap",
        ok,
        f"{total} combinations, gap in {{0,1,2}} for {in_band}/{total}, "
        f"gap 0 for {zero}/{total} (need >= 85%), max gap {max(gaps)}",
    )
    assert ok


def test_criterion_5_strategy_ordering_on_qaoa():
    """The refining strategies never do worse than the naive cutoff, and
    part gate counts always account for every gate exactly once."""
    circuit = bench.build("qaoa_8")
    dag = build_dag(circuit)
    limit = 4
    counts = {}
    sums_ok = True
    for name, fn in STRATEGY_FNS.items():
        result = fn(dag, limit)
        counts[name] = len(result.parts)
        if sum(len(p.gate_indices) for p in result.parts) != circuit.num_ops:
            sums_ok = False
    ok = counts["dagp"] <= counts["dfs"] <= counts["nat"] and sums_ok
    _report(
        5,
        "strategy ordering",
        ok,
        f"qaoa_8 at limit {limit}: dagp {counts['dagp']} <= "
        f"dfs {counts['dfs']} <= nat {counts['nat']}; per-part gate counts "
        f"sum to {circuit.num_ops} for all strategies: {sums_ok}",
    )
    assert ok


def test_criterion_6_numerical_hygiene(hier_sweep, dist_sweep):
    """Norms stay exactly 1, all built-in matrices are unitary, and any
    gate is undone by its adjoint."""
    worst_norm = max(hier_sweep["worst_norm"], dist_sweep["worst_norm"])
    rng = random.Random(6)
    worst_unitary = 0.0
    worst_restore = 0.0
    swaps = {
        GateKind.S: GateKind.SDG,
        GateKind.SDG: GateKind.S,
        GateKind.T: GateKind.TDG,
        GateKind.TDG: GateKind.T,
    }
    for kind in GateKind:
        params = tuple(
            rng.uniform(-2 * math.pi, 2 * math.pi)
            for _ in range(kind.num_params)
        )
        u = gate_matrix(kind, params)
        d = 1 << kind.arity
        worst_unitary = max(
            worst_unitary,
            float(np.max(np.abs(u @ u.conj().T - np.eye(d)))),
        )
        n = 4
        qubits = tuple(rng.sample(range(n), kind.arity))
        op = GateOp(kind, qubits, params)
        if kind in swaps:
            dag_op = GateOp(swaps[kind], qubits, ())
        elif kind is GateKind.U3:
            t, p, l = params
            dag_op = GateOp(kind, qubits, (-t, -l, -p))
        elif kind.num_params:
            dag_op = GateOp(kind, qubits, tuple(-x for x in params))
        else:
            dag_op = op
        raw = np.random.default_rng(kind.value.__hash__() & 0xFFFF).normal(
            size=1 << n
        ) + 0j
        raw /= np.linalg.norm(raw)
        sv = StateVector(n, raw.copy())
        apply_op(sv.data, sv.num_qubits, op)
        apply_op(sv.data, sv.num_qubits, dag_op)
        worst_restore = max(
            worst_restore, float(np.max(np.abs(sv.data - raw)))
        )
    ok = worst_norm < 1e-10 and worst_unitary < 1e-12 and worst_restore < 1e-12
    _report(
        6,
        "numerical hygiene",
        ok,
        f"max ||state||^2 deviation {worst_norm:.3e} (< 1e-10), "
        f"max |U U+ - I| {worst_unitary:.3e} (< 1e-12), "
        f"max |G+ G psi - psi| {worst_restore:.3e} (< 1e-12)",
    )
    assert ok


def test_criterion_7_stride_and_tiling():
    """Single-qubit updates mix only index pairs differing in the target
    bit; block tiling covers the state exactly once; staging passes per
    part number 2^(n-w)."""
    rng = np.random.default_rng(7)
    n = 8
    pairs_ok = True
    for i in range(n):
        data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        theta = 0.3 + i
        op = GateOp(GateKind.RY, (i,), (theta,))
        sv = StateVector(n, data.copy())
        apply_op(sv.data, sv.num_qubits, op)
        u = gate_matrix(GateKind.RY, (theta,))
        stride = 1 << i
        expect = np.empty_like(data)
        count = 0
        for j in range(1 << n):
            if j & stride:
                continue
            k = j | stride
            expect[j] = u[0, 0] * data[j] + u[0, 1] * data[k]
            expect[k] = u[1, 0] * data[j] + u[1, 1] * data[k]
            count += 1
        if count != 1 << (n - 1) or np.max(np.abs(sv.data - expect)) > 1e-12:
            pairs_ok = False

    tiling_ok = True
    tile_cases = 0
    prng = random.Random(70)
    for _ in range(25):
        m = prng.randint(2, 10)
        w = prng.randint(1, m)
        qubits = tuple(sorted(prng.sample(range(m), w)))
        idx = part_block_indices(m, qubits)
        tile_cases += 1
        if idx.shape != (1 << (m - w), 1 << w):
            tiling_ok = False
        elif not np.array_equal(np.sort(idx.reshape(-1)), np.arange(1 << m)):
            tiling_ok = False

    counts_ok = True
    for name in ("bv_6", "qaoa_8", "ising_8"):
        circuit = bench.build(name)
        partition = partition_nat(build_dag(circuit), 4)
        _, trace = execute_hierarchical(circuit, partition, with_trace=True)
        for t in trace.parts:
            if t.gather_calls != 1 << (circuit.num_qubits - t.num_qubits):
                counts_ok = False

    ok = pairs_ok and tiling_ok and counts_ok
    _report(
        7,
        "stride and tiling",
        ok,
        f"pair structure on {n} target bits: {pairs_ok}; "
        f"{tile_cases} tilings cover [0, 2^n) exactly once: {tiling_ok}; "
        f"staging passes equal 2^(n-w): {counts_ok}",
    )
    assert ok


def test_criterion_8_memory_formula():
    """Footprint is arithmetic on n, never an allocation."""
    ok = all(state_bytes(n) == 1 << (n + 4) for n in range(0, 51))
    thirty = state_bytes(30)
    ok = ok and thirty == 17_179_869_184
    _report(
        8,
        "memory formula",
        ok,
        f"state_bytes(30) = {thirty} bytes = "
        f"{thirty / 2**30:.0f} GiB (2^(n+4) for all n checked)",
    )
    assert ok
