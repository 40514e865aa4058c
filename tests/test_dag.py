"""Gate dependency graph construction and analysis tests."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hisim.dag import NodeKind, build_dag, dfs_topo_order, to_dot, to_json
from hisim.qasm import Circuit, GateKind, GateOp, parse_qasm

from dag_oracles import quotient_is_acyclic, working_set


def _chain_dag():
    return build_dag(
        parse_qasm(
            "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[0],q[2];\n"
        )
    )


def _random_circuit(rng, n, num_ops):
    kinds_1q = [GateKind.H, GateKind.X, GateKind.S, GateKind.T]
    kinds_2q = [GateKind.CX, GateKind.CZ]
    ops = []
    for _ in range(num_ops):
        if n >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(n), 2)
            ops.append(GateOp(rng.choice(kinds_2q), (a, b), ()))
        else:
            ops.append(GateOp(rng.choice(kinds_1q), (rng.randrange(n),), ()))
    return Circuit(n, tuple(ops))


def test_node_layout():
    """Entry nodes come first, then gates in program order, then exits."""
    g = _chain_dag()
    n, m = g.num_qubits, g.num_gates
    assert len(g.nodes) == 2 * n + m
    for q in range(n):
        assert g.nodes[g.entry_id(q)].kind is NodeKind.ENTRY
        assert g.nodes[g.entry_id(q)].qubit == q
        assert g.nodes[g.exit_id(q)].kind is NodeKind.EXIT
    for k in range(m):
        node = g.nodes[g.gate_id(k)]
        assert node.kind is NodeKind.GATE
        assert node.op_index == k
    assert [g.gate_id(k) for k in range(m)] == list(range(n, n + m))


def test_edge_count_is_wire_count():
    """One edge per gate operand plus one closing edge per qubit."""
    g = _chain_dag()
    arity_sum = sum(len(op.qubits) for op in g.circuit.ops)
    assert len(g.edges) == arity_sum + g.num_qubits


def test_edges_follow_wires():
    g = _chain_dag()
    # h q[0] feeds cx q[0],q[1]; that cx feeds cx q[0],q[2] on qubit 0.
    h, cx01, cx02 = g.gate_id(0), g.gate_id(1), g.gate_id(2)
    pairs = {(e.src, e.dst, e.qubit) for e in g.edges}
    assert (g.entry_id(0), h, 0) in pairs
    assert (h, cx01, 0) in pairs
    assert (cx01, cx02, 0) in pairs
    assert (g.entry_id(1), cx01, 1) in pairs
    assert (g.entry_id(2), cx02, 2) in pairs
    assert (cx02, g.exit_id(0), 0) in pairs


def test_succ_mirrors_edges():
    """``succ[u]`` lists the heads of u's edges, one per edge, in edge
    order, on a circuit with gates that share two qubits."""
    rng = random.Random(5)
    for g in (_chain_dag(), build_dag(_random_circuit(rng, 4, 30))):
        heads = [[] for _ in g.nodes]
        for e in g.edges:
            heads[e.src].append(e.dst)
        assert [list(s) for s in g.succ] == heads


def test_working_set_of_single_gate_is_its_arity():
    g = _chain_dag()
    assert working_set(g, [g.gate_id(0)]) == 1
    assert working_set(g, [g.gate_id(1)]) == 2


def test_working_set_shared_qubit_counts_once():
    """cx(0,1) and cx(0,2) together touch three qubits, not four."""
    g = _chain_dag()
    assert working_set(g, [g.gate_id(1), g.gate_id(2)]) == 3


def test_working_set_internal_wires_do_not_count_twice():
    g = _chain_dag()
    # All three gates: qubit 0 enters once via the entry node's edge.
    assert working_set(g, [g.gate_id(k) for k in range(3)]) == 3


def test_working_set_rejects_exit_nodes():
    g = _chain_dag()
    with pytest.raises(ValueError):
        working_set(g, [g.exit_id(0)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_working_set_bounds(seed):
    """For any nonempty gate set: max gate arity <= w <= num_qubits."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    circuit = _random_circuit(rng, n, rng.randint(1, 12))
    g = build_dag(circuit)
    ids = rng.sample(
        [g.gate_id(k) for k in range(g.num_gates)], rng.randint(1, g.num_gates)
    )
    w = working_set(g, ids)
    widest = max(len(circuit.ops[g.nodes[i].op_index].qubits) for i in ids)
    assert widest <= w <= n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_working_set_subadditive(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = build_dag(_random_circuit(rng, n, rng.randint(2, 12)))
    ids = [g.gate_id(k) for k in range(g.num_gates)]
    cut = rng.randint(1, len(ids) - 1)
    a, b = ids[:cut], ids[cut:]
    assert working_set(g, a + b) <= working_set(g, a) + working_set(g, b)


def _acyclic_oracle(dag, assignment):
    """Independent check: no part reaches itself through another part.

    Uses transitive closure over the contracted graph instead of a
    topological sort.
    """
    parts = sorted({assignment[node.id] for node in dag.nodes})
    index = {p: i for i, p in enumerate(parts)}
    k = len(parts)
    reach = [[False] * k for _ in range(k)]
    for e in dag.edges:
        pu, pv = assignment[e.src], assignment[e.dst]
        if pu != pv:
            reach[index[pu]][index[pv]] = True
    for mid in range(k):
        for i in range(k):
            if reach[i][mid]:
                row_mid = reach[mid]
                row_i = reach[i]
                for j in range(k):
                    if row_mid[j]:
                        row_i[j] = True
    return not any(reach[i][i] for i in range(k))


def test_quotient_detects_order_violation():
    g = _chain_dag()
    n, m = g.num_qubits, g.num_gates
    ok = [0] * n + [1, 2, 3] + [4] * n
    assert quotient_is_acyclic(g, {i: p for i, p in enumerate(ok)})
    # Putting the first and third gate together while the middle gate sits
    # alone creates part0 -> part1 -> part0.
    bad = [0] * n + [1, 2, 1] + [4] * n
    assert not quotient_is_acyclic(g, {i: p for i, p in enumerate(bad)})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_quotient_matches_reachability_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    g = build_dag(_random_circuit(rng, n, rng.randint(1, 10)))
    num_parts = rng.randint(1, 4)
    assignment = {}
    for node in g.nodes:
        if node.kind is NodeKind.ENTRY:
            assignment[node.id] = -1
        elif node.kind is NodeKind.EXIT:
            assignment[node.id] = -2
        else:
            assignment[node.id] = rng.randrange(num_parts)
    assert quotient_is_acyclic(g, assignment) == _acyclic_oracle(g, assignment)


def test_dfs_topo_order_is_a_topological_order():
    for seed in range(5):
        rng = random.Random(seed)
        g = build_dag(_random_circuit(rng, 5, 20))
        order = dfs_topo_order(g, seed=seed)
        assert sorted(order) == list(range(len(g.nodes)))
        position = {nid: i for i, nid in enumerate(order)}
        for e in g.edges:
            assert position[e.src] < position[e.dst]


def test_dfs_topo_order_is_seed_deterministic():
    g = _chain_dag()
    assert dfs_topo_order(g, seed=3) == dfs_topo_order(g, seed=3)


def test_dfs_topo_order_varies_with_seed():
    rng = random.Random(0)
    g = build_dag(_random_circuit(rng, 6, 24))
    orders = {tuple(dfs_topo_order(g, seed=s)) for s in range(8)}
    assert len(orders) > 1


def test_json_export_round_trips_structure():
    g = _chain_dag()
    doc = json.loads(to_json(g))
    assert doc["num_qubits"] == 3
    assert doc["num_gates"] == 3
    kinds = [node["kind"] for node in doc["nodes"]]
    assert kinds.count("entry") == 3
    assert kinds.count("gate") == 3
    assert kinds.count("exit") == 3
    assert len(doc["edges"]) == len(g.edges)


def test_dot_export_mentions_every_node():
    g = _chain_dag()
    dot = to_dot(g)
    assert dot.startswith("digraph")
    for node in g.nodes:
        assert f"n{node.id} " in dot
