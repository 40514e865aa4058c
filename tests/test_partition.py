"""Partitioning strategy tests: validity, quality, and export formats."""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hisim import bench, hier, partition
from hisim.dag import NodeKind, build_dag, to_dot, to_json, wires
from hisim.errors import (
    LimitTooSmallError,
    PartitionError,
    TooLargeForOracleError,
)
from hisim.partition import (
    Part,
    PartitionResult,
    _check_parts,
    _dagp,
    _make_result,
    _merge_phase,
    check_partition,
    optimal_parts_bruteforce,
    partition_dagp,
    partition_dfs,
    partition_from_json,
    partition_multilevel,
    partition_nat,
    partition_to_json,
)
from hisim.qasm import Circuit, GateKind, GateOp

from dag_oracles import merge_by_closure, quotient_is_acyclic, working_set
from random_circuits import DIAGONAL_HEAVY, random_circuit

STRATEGIES = {
    "nat": partition_nat,
    "dfs": partition_dfs,
    "dagp": partition_dagp,
}


def _bv6():
    return build_dag(bench.build("bv_6"))


def _random_circuit(seed, n, num_ops):
    rng = random.Random(seed)
    ops = []
    for _ in range(num_ops):
        if n >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(n), 2)
            ops.append(GateOp(GateKind.CX, (a, b), ()))
        else:
            ops.append(GateOp(GateKind.H, (rng.randrange(n),), ()))
    return Circuit(n, tuple(ops))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("limit", [3, 4, 5, 6])
def test_strategies_produce_valid_partitions(strategy, limit):
    g = _bv6()
    result = STRATEGIES[strategy](g, limit)
    check_partition(g, result)
    assert result.strategy == strategy
    assert result.limit == limit


def test_nat_splits_in_program_order():
    """The baseline strategy walks gates in program order and cuts when the
    next gate would push the working set past the limit."""
    g = _bv6()
    r = partition_nat(g, 4)
    assert [len(p.gate_indices) for p in r.parts] == [4, 4, 3, 3, 3]
    flat = [k for p in r.parts for k in p.gate_indices]
    assert flat == list(range(g.num_gates))
    assert r.parts[0].qubits == (0, 1, 2, 5)


def test_part_qubits_cover_operands_within_limit():
    g = _bv6()
    for strategy, fn in STRATEGIES.items():
        for p in fn(g, 4).parts:
            assert len(p.qubits) <= 4
            operands = {
                q
                for k in p.gate_indices
                for q in g.circuit.ops[k].qubits
            }
            assert operands <= set(p.qubits)
            ids = [g.gate_id(k) for k in p.gate_indices]
            assert working_set(g, ids) == len(p.qubits)


def test_dfs_beats_or_ties_nat_on_bv():
    g = _bv6()
    assert len(partition_dfs(g, 4).parts) <= len(partition_nat(g, 4).parts)
    assert len(partition_dfs(g, 4).parts) == 2


def test_dfs_is_deterministic_for_a_seed():
    g = _bv6()
    a = partition_dfs(g, 4, trials=8, seed=5)
    b = partition_dfs(g, 4, trials=8, seed=5)
    assert a == b


def test_dagp_reaches_known_minimum_on_bv():
    g = _bv6()
    r = partition_dagp(g, 4)
    assert len(r.parts) == 2
    assert len(r.parts) == optimal_parts_bruteforce(g, 4)


def test_strategy_quality_ordering_on_qaoa():
    g = build_dag(bench.build("qaoa_8"))
    counts = {s: len(fn(g, 4).parts) for s, fn in STRATEGIES.items()}
    assert counts["dagp"] <= counts["dfs"] <= counts["nat"]
    assert counts == {"nat": 16, "dfs": 10, "dagp": 9}


#: dagp part counts on every bundled circuit, one per feasible limit from
#: the widest gate up to the register size; a change may lower them only
DAGP_MAX_PARTS = {
    "adder_10": [9, 7, 5, 3, 4, 3, 3, 1],
    "bell": [1],
    "bv_12": [9, 5, 4, 3, 3, 2, 2, 2, 2, 2, 1],
    "bv_30": [22, 12, 9, 7, 6, 5, 4, 4, 4, 3, 3, 3, 3, 2, 2,
              2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1],
    "bv_6": [5, 3, 2, 2, 1],
    "cat_state_6": [5, 3, 2, 2, 1],
    "cc_12": [12, 6, 4, 3, 3, 2, 2, 2, 2, 2, 1],
    "cc_8": [8, 4, 3, 2, 2, 2, 1],
    "grover_7": [14, 14, 6, 6, 1],
    "ising_12": [22, 11, 6, 5, 5, 3, 2, 3, 2, 3, 1],
    "ising_8": [14, 7, 5, 3, 2, 3, 1],
    "qaoa_8": [24, 16, 9, 7, 5, 4, 1],
    "qft_12": [72, 34, 20, 14, 11, 7, 4, 4, 3, 3, 1],
    "qnn_8": [14, 6, 4, 2, 2, 2, 1],
    "qpe_9": [40, 20, 13, 9, 7, 5, 3, 1],
}


@pytest.mark.parametrize("name", bench.available())
def test_dagp_part_counts_on_bundled_circuits_do_not_rise(name):
    circuit = bench.build(name)
    g = build_dag(circuit)
    widest = max(len(op.qubits) for op in circuit.ops)
    limits = range(widest, circuit.num_qubits + 1)
    counts = [partition_dagp(g, limit).num_parts for limit in limits]
    assert len(counts) == len(DAGP_MAX_PARTS[name])
    assert all(c <= m for c, m in zip(counts, DAGP_MAX_PARTS[name])), counts


def test_dagp_part_counts_on_benchmark_circuits():
    """The benchmark's num_parts: qft(20) at limit 14 and qaoa(20) at
    limits 14/8."""
    assert partition_dagp(build_dag(bench.qft(20)), 14).num_parts == 4
    ml = partition_multilevel(build_dag(bench.qaoa(20)), 14, 8)
    assert ml.level1.num_parts == 5
    assert sum(sub.num_parts for sub in ml.sublevels) == 11


def test_benchmark_partition_documents_are_pinned():
    """SHA-256 of the benchmark circuits' partition documents, so a change
    to the merge order shows up here and not as a benchmark drift."""
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    g = build_dag(bench.qft(20))
    assert digest(partition_to_json(g, partition_dagp(g, 14))) == (
        "aba0247bee98b815e80f520a88c028edc1d4df86dfba1f3618b00d1124059b92"
    )
    g = build_dag(bench.qaoa(20))
    assert digest(partition_to_json(g, partition_multilevel(g, 14, 8))) == (
        "4375a1fe688d7b9f257c75bc33a409f5f755f43a4fd36869495f1f1b362f4174"
    )
    g = build_dag(bench.qaoa(30, 3))
    assert digest(partition_to_json(g, partition_dagp(g, 14))) == (
        "5030f0d8b5de56bf77e9cdf0bbf14227f8dec34d5543bb014fa0975e1dbeb899"
    )


#: SHA-256 over each bundled circuit's dagp and multilevel documents, in the
#: order ``test_bundled_partition_documents_are_pinned`` writes them
BUNDLED_DOCUMENT_DIGESTS = {
    "adder_10": "888c758469803fa65f57c8d77e3b92649350dae6db2c269ab74465834d7dd537",
    "bv_12": "be13615481300513cc6f1a6fa3ce772433083adcd8d0ffc36ab73d0d6056eae1",
    "bv_30": "8b559e0868edddcfcba481ed7f11181ca697fa8baf698c4184a75bddb6efbee0",
    "bv_6": "29dfa5856eeaf396245809584873a35a0a5cfc0b3a21fcc7460fa5e70fcfcf2b",
    "cat_state_6": "bb0db750f526e75b54b280db6921b4d37561cb05b3c3de8a23da9e9fbe410501",
    "cc_12": "f558679a3fba8208e2606a6c2253135020f488f3d17f1d4774b870d4780ff0a7",
    "cc_8": "5f576a7e1a6c4ccd6820d52d45ad14848e57780bbba7b32b6acfd4151488158e",
    "grover_7": "16935cde7221a27bda48c3ce454f22af47498a549b0796e6de165bf84c4f23ee",
    "ising_12": "d1cce32417a96c133ba6f00db6f026ea7e47a4d5aaf39c0e560031337934cf52",
    "ising_8": "13ae68e53bb52ab03cd0f3a01d6e745d6f4096ccdd736cdac59b65987d3d4064",
    "qaoa_8": "1d93717a6cdb8b0a0fb31b5ffbf706cb3d9aac16e3d122caae7346d154b43889",
    "qft_12": "829dd89497339ee2bd322e5792ab9f88b95c16ac7ea38899f336b8b8250a47fd",
    "qnn_8": "fb9c88f9d688759ff3bd99e658924c18bf7e3c271de2c4ca95a9038a472b691c",
    "qpe_9": "cf8a78679386202864eb50e5dc95133b7cdd4c62b748c9569ab3eccf10094ef7",
}


def test_bundled_partition_documents_are_pinned():
    """Every bundled circuit except bell (no limit below its 2 qubits): the
    dagp document at every limit from the widest gate to n - 1, each
    followed by the multilevel documents at that limit1 with limit2 at the
    widest gate and at ceil(limit1 / 2). 310 documents, about 1.5 s."""
    digests = {}
    documents = 0
    for name in bench.available():
        g = build_dag(bench.build(name))
        widest = max(len(op.qubits) for op in g.circuit.ops)
        if widest >= g.num_qubits:
            continue
        digest = hashlib.sha256()
        for limit in range(widest, g.num_qubits):
            texts = [partition_to_json(g, partition_dagp(g, limit))]
            texts += [
                partition_to_json(g, partition_multilevel(g, limit, limit2))
                for limit2 in sorted({widest, max(widest, -(-limit // 2))})
            ]
            for text in texts:
                digest.update((text + "\n").encode())
            documents += len(texts)
        digests[name] = digest.hexdigest()
    assert documents == 310
    assert digests == BUNDLED_DOCUMENT_DIGESTS


#: SHA-256 over each bundled circuit's dfs documents, in the order
#: ``test_bundled_dfs_documents_are_pinned`` writes them
BUNDLED_DFS_DIGESTS = {
    "adder_10": "88031b2a815bc2b46b9bd58375116137f815105e4349bdbcf28abc4744e6b087",
    "bv_12": "3306476b6bd73f676708f6671fc36a5d2d142a151bb96d97e2fe73b62a28a6fc",
    "bv_30": "646dd34e392b7e06f52d3fe5451f10d88f15e09a6e6f96eb2bd88c5b8670ad37",
    "bv_6": "0c4628cd7935dab0e2878c89846acf6a55e162749eb46a70d6f46f0e83a10016",
    "cat_state_6": "0347d84ee60a84084e165c220991d4f7d6794634e6f1fa2bb849dee6502079e3",
    "cc_12": "e20078e5203950eb5c2e773775a6ccf9157bbc31bc6ccc4f16f7c786b2c46787",
    "cc_8": "d97726d2385a794ea602a9976fd84faf724e1447645c365ffb1ff8eb3a5bc838",
    "grover_7": "c0ed4ef057a8fb3127cdd53cb7dc5c84af240b9fa40fffc5174325ce72676a8d",
    "ising_12": "3ded2588d3e6f2e66da9cf8e7c37e495518d514ba9b54e97eeabf1052c7face7",
    "ising_8": "4555f1b78c787ac86ff9fc6a06e3e904fd2c20a733a44599dd08b2626d8e9ddc",
    "qaoa_8": "c36223fe67eebfe06b85ea97b38a01f368b5cfe64a9a1bb4963f400ea451e913",
    "qft_12": "ebe6e63b9487d8b531cc88d611beb36255b70dc531e5b76a56ab33462ebd93b9",
    "qnn_8": "479fcd7d8051891703693bdcb9733907bad21eb2050246af562a5aac01022e55",
    "qpe_9": "a096f465d4f9b45fcc9f7db04fbd9cb897d5066326624dcd01c006f60cd7fd06",
}

#: SHA-256 over each bundled circuit's DAG exports, ``to_json`` then ``to_dot``
BUNDLED_EXPORT_DIGESTS = {
    "adder_10": "79cc524b6065f3d53cad31d66632f3c56b5b7c1f8d5ad1eb4ff38fa4de3639e3",
    "bell": "c768540f2346e85bfc62351ae5b81059371f71182534b8652cdada97d71c0795",
    "bv_12": "9e63cef59d8105e48c9940ed8d65fe2f7fd754c70675c4bc6c20d36cab4b99bc",
    "bv_30": "b5050ea8065e7ccb12a86b3f85ef827ab694a4f69f88f03cad4253c5db42b676",
    "bv_6": "3f9895fb54a45d1d5cdac1c1c67769c7f8e997ea42e61c299db473841489b313",
    "cat_state_6": "1326e0da6808bc37d55432c70943be724cc19348fb2ad6545486b88480b19cf4",
    "cc_12": "c228c032c7639640d36ae1fe973cac09f2428804fdb2c84254085545ea6e0cc7",
    "cc_8": "0f6b37ac7c70d1d29bdc99685eb18de5d58f1758ea4671166b1951353c63e176",
    "grover_7": "784603b299cb5342a76effc9c3d4d686b88331cda3edcc2c79ff5c7c4ec472a0",
    "ising_12": "d705d168de28b8d78d7b0e75dff184a40879fe92c49d3e95882d2f368c95b488",
    "ising_8": "8dcac32a93fa6c962fc1be57fe8641b53a4c24891c1b89d0906ed6a84d89380c",
    "qaoa_8": "f8cc638750716afc129bba326e68342922c5e1c55631797eb443799ecf806b6a",
    "qft_12": "e8d7c3efd2f9ad2a7c69504dea223e39945def9255cd112ba7770ac067580d27",
    "qnn_8": "f454612d3e73823405a323019bf4fbc5e7a15f003f5085f5de475dd5d350fd8c",
    "qpe_9": "00c13f0ffa0f579b2388c39b55ef4fa479b17fef8f3bc963c899ac35eaf5c892",
}


def test_bundled_dfs_documents_are_pinned():
    """Every bundled circuit except bell: the dfs document at every limit
    from the widest gate to n - 1, 16 trials each, at seed 0 and then at
    seed 7. dfs is the one strategy that walks the gate DAG's nodes and
    successors, so this pins the graph's order as well as the cutoff scan.
    236 documents."""
    digests = {}
    documents = 0
    for name in bench.available():
        g = build_dag(bench.build(name))
        widest = max(len(op.qubits) for op in g.circuit.ops)
        if widest >= g.num_qubits:
            continue
        digest = hashlib.sha256()
        for limit in range(widest, g.num_qubits):
            for seed in (0, 7):
                text = partition_to_json(g, partition_dfs(g, limit, 16, seed))
                digest.update((text + "\n").encode())
                documents += 1
        digests[name] = digest.hexdigest()
    assert documents == 236
    assert digests == BUNDLED_DFS_DIGESTS


def test_bundled_dag_exports_are_pinned():
    """Every bundled circuit's ``to_json`` and ``to_dot`` exports, byte for
    byte: node ids, kinds and edge order as ``hisim partition --dag``
    writes them."""
    digests = {}
    for name in bench.available():
        g = build_dag(bench.build(name))
        digest = hashlib.sha256((to_json(g) + "\n").encode())
        digest.update(to_dot(g).encode())
        digests[name] = digest.hexdigest()
    assert digests == BUNDLED_EXPORT_DIGESTS


# --- gate wires against the DAG ----------------------------------------------


def _dag_wires(dag):
    """(op index, op index, qubit) of every gate-to-gate DAG edge, in DAG
    order."""
    return [
        (dag.nodes[e.src].op_index, dag.nodes[e.dst].op_index, e.qubit)
        for e in dag.edges
        if dag.nodes[e.src].kind is NodeKind.GATE
        and dag.nodes[e.dst].kind is NodeKind.GATE
    ]


def _assert_wires_match_dag(circuit, subset):
    """``wires`` over all gates is the DAG's gate-to-gate edge list (same
    pairs, qubits, multiplicity and order); over an ascending subset it is
    the edge list of the subset as a circuit of its own, mapped back."""
    assert list(wires(circuit.ops, range(circuit.num_ops))) == _dag_wires(
        build_dag(circuit)
    )
    sub = Circuit(circuit.num_qubits, tuple(circuit.ops[g] for g in subset))
    assert list(wires(circuit.ops, subset)) == [
        (subset[u], subset[v], q) for u, v, q in _dag_wires(build_dag(sub))
    ]


@pytest.mark.parametrize("name", bench.available())
def test_wires_match_dag_on_bundled_circuits(name):
    circuit = bench.build(name)
    _assert_wires_match_dag(circuit, list(range(0, circuit.num_ops, 3)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_wires_match_dag_on_random_circuits(seed):
    rng = random.Random(seed)
    circuit = random_circuit(rng, rng.randint(1, 6), rng.randint(0, 30))
    subset = [g for g in range(circuit.num_ops) if rng.random() < 0.5]
    _assert_wires_match_dag(circuit, subset)


def test_dagp_nat_and_two_levels_build_no_node_graph():
    """Partitioning by dagp, nat or in two levels, checking and writing
    the result read the circuit's wires only: the DAG's nodes, edges and
    successor lists stay unbuilt until something reads them."""
    g = build_dag(bench.qaoa(12))
    lazy = ("nodes", "edges", "succ")
    for partition in (
        partition_dagp(g, 6), partition_nat(g, 6), partition_multilevel(g, 6, 3)
    ):
        check_partition(g, partition)
        partition_to_json(g, partition)
    assert not set(lazy) & vars(g).keys()
    partition_dfs(g, 6, trials=1)
    assert set(lazy) <= vars(g).keys()


# --- merge phase against its closure oracle ----------------------------------


def _gate_succ(dag):
    """Gate-to-gate successor sets by op index, from each qubit's list of
    the gates on it, so the oracle's input does not come from ``wires``."""
    on_qubit = [[] for _ in range(dag.num_qubits)]
    for g, op in enumerate(dag.circuit.ops):
        for q in op.qubits:
            on_qubit[q].append(g)
    succ = [set() for _ in range(dag.num_gates)]
    for gates in on_qubit:
        for u, v in zip(gates, gates[1:]):
            succ[u].add(v)
    return succ


def _part_graph(part_of, succ, parts):
    """Successor sets of the part graph: gate-to-gate edges ``succ``
    contracted by ``part_of`` (op index -> part), keyed by ``parts``."""
    adj = {p: set() for p in parts}
    for g, ss in enumerate(succ):
        for s in ss:
            pu, pv = part_of[g], part_of[s]
            if pu != pv:
                adj[pu].add(pv)
    return adj


def _assert_merge_phase_matches_oracle(circuit, limit):
    succ = _gate_succ(build_dag(circuit))
    qubits_of = [set(op.qubits) for op in circuit.ops]
    qmask = [sum(1 << q for q in op.qubits) for op in circuit.ops]
    groups, adj = _merge_phase(qmask, succ, limit)
    assert groups == merge_by_closure(qubits_of, succ, limit)
    part_of = {g: i for i, gs in enumerate(groups) for g in gs}
    assert adj == list(_part_graph(part_of, succ, range(len(groups))).values())
    return groups


@pytest.mark.parametrize("name", bench.available())
def test_merge_phase_matches_oracle_on_bundled_circuits(name):
    circuit = bench.build(name)
    widest = max(len(op.qubits) for op in circuit.ops)
    for limit in range(widest, circuit.num_qubits):
        _assert_merge_phase_matches_oracle(circuit, limit)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    num_ops=st.integers(1, 60),
    data=st.data(),
)
def test_merge_phase_matches_oracle_on_random_dags(seed, n, num_ops, data):
    limit = data.draw(st.integers(2, n), label="limit")
    circuit = _random_circuit(seed, n, num_ops)
    _assert_merge_phase_matches_oracle(circuit, limit)


def _splits_on_qubits(ops, group):
    """Whether ``group``'s gates fall into two sets on disjoint qubits: the
    group joins parts that shared no qubit when they merged."""
    qubits = set(ops[group[0]].qubits)
    rest = list(group[1:])
    while True:
        touching = [g for g in rest if qubits & set(ops[g].qubits)]
        if not touching:
            return bool(rest)
        for g in touching:
            qubits |= set(ops[g].qubits)
            rest.remove(g)


_LONE_GATES = (
    # a gate on every qubit and two pairs joined: the queue merges the
    # pairs, then only disjoint merges remain
    (Circuit(8, tuple(GateOp(GateKind.H, (q,), ()) for q in range(8)) + (
        GateOp(GateKind.CX, (0, 1), ()),
        GateOp(GateKind.CX, (2, 3), ()),
    )), 3),
    # no edge at all: every merge comes from the scan
    (Circuit(9, tuple(GateOp(GateKind.H, (q,), ()) for q in range(9))), 2),
    # a chain of single-qubit gates per qubit, under a limit of a few wires
    (Circuit(6, tuple(
        GateOp(GateKind.H, (q,), ()) for _ in range(3) for q in range(6)
    )), 4),
)


@pytest.mark.parametrize("circuit, limit", _LONE_GATES)
def test_merge_phase_matches_oracle_through_disjoint_merges(circuit, limit):
    """Parts that share no qubit are never joined by an edge, so they merge
    only once the queue of edge pairs runs dry."""
    _assert_merge_phase_matches_oracle(circuit, limit)
    qmask = [sum(1 << q for q in op.qubits) for op in circuit.ops]
    groups, _ = _merge_phase(qmask, _gate_succ(build_dag(circuit)), limit)
    assert any(_splits_on_qubits(circuit.ops, grp) for grp in groups)


#: gates 0 and 3 merge on qubit 1, and gates 1 and 4 with gate 5, on
#: disjoint qubits until 5 joins them; gate 2 reaches gate 6 only through
#: both merged parts, and shares no qubit with it
_DISJOINT_MERGE = (
    (GateKind.CCX, (8, 4, 1)),
    (GateKind.CX, (4, 6)),
    (GateKind.CCX, (11, 0, 7)),
    (GateKind.CCX, (1, 0, 5)),
    (GateKind.CX, (2, 9)),
    (GateKind.CCX, (10, 9, 4)),
    (GateKind.CX, (2, 3)),
)


def test_merge_phase_matches_oracle_after_a_disjoint_merge():
    """After a disjoint merge, the parts that reached only one side of it
    must also reach the other side's descendants, or a later scan merges
    one of them with such a descendant and closes a cycle. Checked at
    limit 5 on ``_DISJOINT_MERGE`` and on 200 copies of it, each with its
    qubits relabelled and up to four H or CX gates on further qubits put
    anywhere among its gates: pruning the ``reach`` walk at any ancestor
    that already reached ``u`` merges gates 2 and 6 on the case and on
    120 of the copies."""
    base = Circuit(12, tuple(GateOp(kind, qs, ()) for kind, qs in _DISJOINT_MERGE))
    _assert_merge_phase_matches_oracle(base, 5)
    for seed in range(200):
        rng = random.Random(seed)
        n = 12 + rng.randint(0, 4)
        relabel = rng.sample(range(n), n)
        ops = [GateOp(op.kind, tuple(relabel[q] for q in op.qubits)) for op in base.ops]
        kinds = [k for k in (GateKind.H, GateKind.CX) if k.arity <= n - 12]
        for _ in range(n - 12):
            kind = rng.choice(kinds)
            gate = GateOp(kind, tuple(rng.sample(relabel[12:], kind.arity)))
            ops.insert(rng.randint(0, len(ops)), gate)
        _assert_merge_phase_matches_oracle(Circuit(n, tuple(ops)), 5)


def _wide_circuit(rng):
    """A random circuit of CX and CCX gates, two CX to one CCX, on 12 to 14
    qubits, and a limit 2 or 3 above its widest gate: 12 to 20 gates, or
    one time in a hundred 21 to 120. Wide unions rank first, so narrow pairs are
    judged after wide parts have formed, often with their predecessors, and
    with few gates per qubit the edge queue runs dry while parts on
    disjoint qubits still fit together."""
    n = rng.randint(12, 14)
    num_ops = rng.randint(21, 120) if rng.random() < 0.01 else rng.randint(12, 20)
    kinds = rng.choices((GateKind.CX, GateKind.CCX), (2, 1), k=num_ops)
    ops = tuple(GateOp(k, tuple(rng.sample(range(n), k.arity)), ()) for k in kinds)
    widest = max(len(op.qubits) for op in ops)
    return Circuit(n, ops), min(n, widest + rng.randint(2, 3))


def test_merge_phase_matches_oracle_on_wide_random_circuits():
    """Over 1000 seeded ``_wide_circuit`` draws, about half of which merge
    parts on disjoint qubits, the merge phase equals the oracle. A contraction
    must pass what the merged part gained to every ancestor that lacks it:
    pruning the ``reach`` walk at any ancestor that already reached ``u``
    gives a different merge on seeds 315, 656 and 698, where an ancestor of
    ``u`` never learns the descendants of a predecessor merged into it."""
    disjoint = 0
    for seed in range(1000):
        circuit, limit = _wide_circuit(random.Random(seed))
        groups = _assert_merge_phase_matches_oracle(circuit, limit)
        disjoint += any(_splits_on_qubits(circuit.ops, grp) for grp in groups)
    assert disjoint >= 400


def test_merge_keys_have_no_fixed_field_width():
    """The merge queue packs each pair's ranking into one int whose
    fields are as wide as ``limit`` and the part count need, not a fixed
    width: on a random circuit of 600 gates over 200 qubits at limit 130,
    where ``limit - union`` reaches 129 for the first pairs, past 7 bits,
    and parts grow past 128 qubits, the merge phase equals the oracle.
    Under fixed 7-bit count fields two 2-qubit gates on one pair (2
    shared, union 2) would tie with a gate on one of those qubits and
    another (1 shared, union 2), and the merges differ from the oracle's."""
    circuit = random_circuit(random.Random(12), 200, 600)
    groups = _assert_merge_phase_matches_oracle(circuit, 130)
    assert max(len({q for g in grp for q in circuit.ops[g].qubits}) for grp in groups) > 128


def test_merge_phase_matches_oracle_on_projected_dags(monkeypatch):
    """``hier._compile`` hands dagp the gates outside diagonal runs, joined
    by their wires and by edges through the runs' free gates, which may
    join parts that share no qubit. On every such DAG it merged, for 1000
    random diagonal-heavy parts at fusion widths 2, 3 and 4 (no CCX at
    width 2, which dagp would refuse), the merge phase equals the closure
    oracle, and at least 100 of those DAGs hold such an edge (one dagp
    call per part sees fewer DAGs than the regrouping it replaced, which
    met that bound in 300 parts)."""
    real = partition._merge_phase
    seen = []

    def spy(qmask, succ, limit):
        seen.append((qmask, [set(s) for s in succ], limit))
        return real(qmask, succ, limit)

    monkeypatch.setattr(partition, "_merge_phase", spy)
    for seed in range(1000):
        rng = random.Random(seed)
        n, num_ops = rng.randint(4, 9), rng.randint(10, 60)
        width = 2 + seed % 3
        kinds = [k for k in DIAGONAL_HEAVY if k.arity <= width]
        circuit = random_circuit(rng, n, num_ops, kinds)
        monkeypatch.setattr(hier, "FUSE_WIDTH", width)
        hier._compile(circuit.ops)
    disjoint = 0
    for qmask, succ, limit in seen:
        qubits_of = [
            {q for q in range(mask.bit_length()) if mask >> q & 1} for mask in qmask
        ]
        assert real(qmask, succ, limit)[0] == merge_by_closure(qubits_of, succ, limit)
        disjoint += any(
            not qmask[u] & qmask[v] for u, vs in enumerate(succ) for v in vs
        )
    assert disjoint >= 100


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    num_ops=st.integers(1, 60),
    data=st.data(),
)
def test_dagp_on_gate_subsets_matches_oracle(seed, n, num_ops, data):
    """``_dagp`` on an ascending gate subset, as ``partition_multilevel``
    runs it on a level-1 part, merges like the oracle on the subset as a
    circuit of its own, mapped back to global gate indices."""
    rng = random.Random(seed)
    circuit = random_circuit(rng, n, num_ops)
    subset = [g for g in range(num_ops) if rng.random() < 0.5] or [0]
    sub = Circuit(n, tuple(circuit.ops[g] for g in subset))
    widest = max(len(op.qubits) for op in sub.ops)
    limit = data.draw(st.integers(widest, n), label="limit")
    groups = _dagp(circuit.ops, subset, limit)
    _check_parts(
        circuit.ops, subset,
        _make_result(circuit, "dagp", limit, groups).parts, limit, "subset",
    )
    expect = merge_by_closure(
        [set(op.qubits) for op in sub.ops],
        _gate_succ(build_dag(sub)),
        limit,
    )
    assert sorted(groups) == sorted([subset[i] for i in grp] for grp in expect)


def test_dagp_meets_its_time_gates():
    """dagp partitions qaoa(30, 6) (1020 gates) in under 2 s and qaoa(30, 60)
    (9930 gates) in under 30 s at limit 14; about 0.05 s and 0.7 s on a
    2-CPU host. The qaoa(30, 6) document keeps the SHA-256 of the all-pairs
    queue that came before the edge-only one."""
    g = build_dag(bench.qaoa(30, 6))
    start = time.perf_counter()
    result = partition_dagp(g, 14)
    assert time.perf_counter() - start < 2
    assert hashlib.sha256(partition_to_json(g, result).encode()).hexdigest() == (
        "44ad885d244d18b6bfd03ab6eb5eb56f146db5acd81a16c2596a82d9f2e51239"
    )
    g = build_dag(bench.qaoa(30, 60))
    assert g.num_gates == 9930
    start = time.perf_counter()
    result = partition_dagp(g, 14)
    assert time.perf_counter() - start < 30
    check_partition(g, result)


def test_limit_below_widest_gate_rejected():
    g = _bv6()  # contains 2-qubit gates
    with pytest.raises(LimitTooSmallError):
        partition_nat(g, 1)
    with pytest.raises(LimitTooSmallError):
        partition_dagp(g, 0)


# --- validity checking ------------------------------------------------------


def test_check_partition_flags_unassigned_gates():
    g = _bv6()
    r = partition_nat(g, 4)
    with pytest.raises(PartitionError):
        check_partition(g, PartitionResult("nat", 4, r.parts[:-1]))


def test_check_partition_flags_duplicates():
    g = _bv6()
    r = partition_nat(g, 4)
    first = r.parts[0]
    # ascending, with its qubits and within the limit, so only the
    # duplicate is wrong
    gates = tuple(sorted(r.parts[-1].gate_indices + (first.gate_indices[0],)))
    qubits = sorted({q for k in gates for q in g.circuit.ops[k].qubits})
    dup = Part(r.parts[-1].id, gates, tuple(qubits))
    with pytest.raises(PartitionError, match="in two parts"):
        check_partition(g, PartitionResult("nat", 6, r.parts[:-1] + (dup,)))


def test_check_partition_flags_oversized_working_set():
    g = _bv6()
    r = partition_dagp(g, 6)
    shrunk = PartitionResult("dagp", 3, r.parts)
    with pytest.raises(PartitionError):
        check_partition(g, shrunk)


def test_check_partition_flags_cyclic_quotient():
    # Chain a->b->c on one qubit; grouping {a, c} apart from {b} makes the
    # quotient cyclic, so no listing of the parts runs b -> c forward.
    c = Circuit(
        2,
        (
            GateOp(GateKind.H, (0,), ()),
            GateOp(GateKind.CX, (0, 1), ()),
            GateOp(GateKind.X, (0,), ()),
        ),
    )
    g = build_dag(c)
    bad = PartitionResult(
        "nat",
        2,
        (Part(0, (0, 2), (0,)), Part(1, (1,), (0, 1))),
    )
    with pytest.raises(PartitionError, match="gate 1 -> 2"):
        check_partition(g, bad)


@pytest.mark.parametrize("gate", [17, -1])
def test_check_partition_flags_gates_outside_the_circuit(gate):
    """bv_6 has gates 0..16. A part holding gate 17 or -1 (which Python
    indexing would wrap to gate 16) is a PartitionError naming the part and
    the gate, from the library and from a document."""
    g = _bv6()
    r = partition_nat(g, 4)
    last = r.parts[-1]
    gates = tuple(sorted(last.gate_indices + (gate,)))
    bad = r.parts[:-1] + (Part(last.id, gates, last.qubits),)
    message = rf"part {last.id} holds gates \[{gate}\] outside 0\.\.16"
    with pytest.raises(PartitionError, match=message):
        check_partition(g, PartitionResult("nat", 4, bad))
    doc = json.loads(partition_to_json(g, r))
    doc["parts"][-1]["gate_indices"] = list(gates)
    with pytest.raises(PartitionError, match=message):
        partition_from_json(g, json.dumps(doc))


def _internal_edge(dag, gates):
    """True iff some gate-to-gate edge runs inside the gate set."""
    ids = {dag.gate_id(k) for k in gates}
    return any(e.src in ids and e.dst in ids for e in dag.edges)


def test_reversed_flat_part_is_rejected():
    """Every part listed backwards would run its gates backwards: reversing
    any dagp part whose gates depend on each other makes the document
    invalid, as does the smallest example of one."""
    small = build_dag(Circuit(3, (
        GateOp(GateKind.H, (0,), ()),
        GateOp(GateKind.X, (0,), ()),
        GateOp(GateKind.CX, (0, 1), ()),
        GateOp(GateKind.H, (2,), ()),
    )))
    qft = build_dag(bench.build("qft_12"))
    for g, result in ((small, partition_nat(small, 2)),
                      (qft, partition_dagp(qft, 8))):
        text = partition_to_json(g, result)
        assert partition_from_json(g, text) == result
        reversible = [
            i for i, p in enumerate(result.parts)
            if _internal_edge(g, p.gate_indices)
        ]
        assert reversible
        for i in reversible:
            doc = json.loads(text)
            doc["parts"][i]["gate_indices"].reverse()
            with pytest.raises(PartitionError, match="not ascending"):
                partition_from_json(g, json.dumps(doc))


def test_reversed_level2_part_is_rejected():
    """The same for level-2 parts: each is checked against its parent's own
    gates, which keep program order."""
    g = build_dag(bench.build("qft_12"))
    ml = partition_multilevel(g, 8, 4)
    text = partition_to_json(g, ml)
    assert partition_from_json(g, text) == ml
    reversible = [
        (i, j)
        for i, sub in enumerate(ml.sublevels)
        for j, p in enumerate(sub.parts)
        if _internal_edge(g, p.gate_indices)
    ]
    assert reversible
    for i, j in reversible:
        doc = json.loads(text)
        doc["sublevels"][i]["parts"][j]["gate_indices"].reverse()
        with pytest.raises(PartitionError, match="not ascending"):
            partition_from_json(g, json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ordering_rule_matches_quotient_oracle(seed):
    """Random part labels, parts shuffled, each part's gates ascending:
    ``check_partition`` accepts exactly when the node-level quotient oracle
    finds the quotient acyclic and every gate edge runs forward in the
    listed gate sequence."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    circuit = random_circuit(rng, n, rng.randint(1, 14))
    dag = build_dag(circuit)
    num_labels = rng.randint(1, 4)
    labels = [rng.randrange(num_labels) for _ in range(dag.num_gates)]
    groups = [
        [k for k, lab in enumerate(labels) if lab == label]
        for label in sorted(set(labels))
    ]
    rng.shuffle(groups)
    parts = tuple(
        Part(pid, tuple(gates),
             tuple(sorted({q for k in gates for q in circuit.ops[k].qubits})))
        for pid, gates in enumerate(groups)
    )
    # entry and exit stubs each get a part of their own
    assignment = {node.id: len(parts) + node.id for node in dag.nodes}
    for pos, part in enumerate(parts):
        for k in part.gate_indices:
            assignment[dag.gate_id(k)] = pos
    at = {k: i for i, k in enumerate(k for p in parts for k in p.gate_indices)}
    ops = [(dag.nodes[e.src].op_index, dag.nodes[e.dst].op_index)
           for e in dag.edges]
    forward = all(at[u] < at[v] for u, v in ops if None not in (u, v))
    expect = quotient_is_acyclic(dag, assignment) and forward
    try:
        check_partition(dag, PartitionResult("random", n, parts))
        accepted = True
    except PartitionError:
        accepted = False
    assert accepted == expect


# --- exhaustive oracle ------------------------------------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + [head]] + blocks[i + 1 :]
        yield [[head]] + blocks


def _optimal_by_enumeration(g, limit):
    """Try every set partition of the gates; keep the smallest valid one."""
    best = None
    for blocks in _set_partitions(list(range(g.num_gates))):
        if best is not None and len(blocks) >= best:
            continue
        if any(
            working_set(g, [g.gate_id(k) for k in blk]) > limit
            for blk in blocks
        ):
            continue
        assignment = {}
        tag = len(blocks)
        for node in g.nodes:
            if node.kind is NodeKind.GATE:
                continue
            assignment[node.id] = tag
            tag += 1
        for i, blk in enumerate(blocks):
            for k in blk:
                assignment[g.gate_id(k)] = i
        if quotient_is_acyclic(g, assignment):
            best = len(blocks)
    return best


@pytest.mark.parametrize("seed", range(10))
def test_bruteforce_matches_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    g = build_dag(_random_circuit(seed, n, rng.randint(1, 6)))
    limit = rng.randint(2, n)
    assert optimal_parts_bruteforce(g, limit) == _optimal_by_enumeration(
        g, limit
    )


def test_bruteforce_lower_bounds_every_strategy():
    g = _bv6()
    for limit in (3, 4, 5):
        opt = optimal_parts_bruteforce(g, limit)
        for fn in STRATEGIES.values():
            assert opt <= len(fn(g, limit).parts)


def test_bruteforce_refuses_large_circuits():
    g = build_dag(_random_circuit(0, 4, 25))
    with pytest.raises(TooLargeForOracleError):
        optimal_parts_bruteforce(g, 3)


# --- multilevel -------------------------------------------------------------


def test_multilevel_subdivides_each_part():
    g = _bv6()
    ml = partition_multilevel(g, 4, 2)
    assert ml.limit1 == 4 and ml.limit2 == 2
    check_partition(g, ml.level1)
    assert len(ml.sublevels) == len(ml.level1.parts)
    for parent, sub, padded in zip(
        ml.level1.parts, ml.sublevels, ml.padded_qubits
    ):
        sub_gates = sorted(k for p in sub.parts for k in p.gate_indices)
        assert sub_gates == sorted(parent.gate_indices)
        assert len(padded) == len(sub.parts)
        for part, stage in zip(sub.parts, padded):
            assert set(part.qubits) <= set(stage)
            assert set(stage) <= set(parent.qubits)
            assert len(stage) == min(2, len(parent.qubits))


def test_multilevel_with_equal_limits_keeps_parts_whole():
    g = _bv6()
    ml = partition_multilevel(g, 4, 4)
    for parent, sub, padded in zip(
        ml.level1.parts, ml.sublevels, ml.padded_qubits
    ):
        assert len(sub.parts) == 1
        assert padded[0] == parent.qubits
        assert sorted(sub.parts[0].gate_indices) == sorted(parent.gate_indices)


def test_multilevel_inner_limit_capped_by_outer():
    g = _bv6()
    with pytest.raises(PartitionError):
        partition_multilevel(g, 4, 5)


def test_check_partition_checks_two_level_partitions():
    """``check_partition`` takes a two-level partition as well as a flat one
    and holds it to the rule that the reader and ``hier.executable_parts``
    apply, with their messages: limit2 within limit1, one sublevel per
    level-1 part, level-2 parts that run their gates forward, and part ids
    that do not repeat at either level."""
    g = build_dag(bench.build("qaoa_8"))
    ml = partition_multilevel(g, 6, 3)
    check_partition(g, ml)
    n = ml.level1.num_parts
    i, j = next(
        (i, j)
        for i, sub in enumerate(ml.sublevels)
        for j, p in enumerate(sub.parts)
        if _internal_edge(g, p.gate_indices)
    )
    sub = ml.sublevels[i]
    backwards = list(sub.parts)
    backwards[j] = replace(
        backwards[j], gate_indices=backwards[j].gate_indices[::-1]
    )
    sublevels = list(ml.sublevels)
    sublevels[i] = replace(sub, parts=tuple(backwards))
    # a repeated part id, at level 1 and inside one part
    first, second, *rest = ml.level1.parts
    level1 = replace(ml.level1, parts=(first, replace(second, id=first.id), *rest))
    k = next(k for k, sub in enumerate(ml.sublevels) if len(sub.parts) > 1)
    a, b, *others = ml.sublevels[k].parts
    renamed = list(ml.sublevels)
    renamed[k] = replace(ml.sublevels[k], parts=(a, replace(b, id=a.id), *others))
    for bad, message in (
        (replace(ml, limit2=7), "limit2 7 exceeds limit1 6"),
        (replace(ml, sublevels=ml.sublevels[:-1]),
         f"{n - 1} sublevels for {n} level-1 parts"),
        (replace(ml, sublevels=tuple(sublevels)), "not ascending"),
        (replace(ml, level1=level1),
         rf"part id {first.id} repeats in 0\.\.{g.circuit.num_ops - 1}"),
        (replace(ml, sublevels=tuple(renamed)),
         f"part id {a.id} repeats in part {ml.level1.parts[k].id}"),
    ):
        with pytest.raises(PartitionError, match=message):
            check_partition(g, bad)
        with pytest.raises(PartitionError, match=message):
            partition_from_json(g, partition_to_json(g, bad))
        with pytest.raises(PartitionError, match=message):
            hier.executable_parts(g.circuit, bad)


# --- serialization ----------------------------------------------------------


def test_partition_json_document_shape():
    g = _bv6()
    r = partition_nat(g, 4)
    doc = json.loads(partition_to_json(g, r))
    assert sorted(doc.keys()) == [
        "cut_edges",
        "edges",
        "limit",
        "num_parts",
        "parts",
        "strategy",
    ]
    assert doc["strategy"] == "nat"
    assert doc["limit"] == 4
    assert doc["num_parts"] == len(r.parts)
    for entry, part in zip(doc["parts"], r.parts):
        assert entry["id"] == part.id
        assert entry["gate_indices"] == list(part.gate_indices)
        assert entry["qubits"] == list(part.qubits)
        assert entry["working_set"] == len(part.qubits)


def test_partition_json_counts_crossing_wires():
    g = _bv6()
    r = partition_nat(g, 4)
    doc = json.loads(partition_to_json(g, r))
    part_of = {}
    for p in r.parts:
        for k in p.gate_indices:
            part_of[g.gate_id(k)] = p.id
    crossing = sum(
        1
        for e in g.edges
        if e.src in part_of
        and e.dst in part_of
        and part_of[e.src] != part_of[e.dst]
    )
    assert doc["cut_edges"] == crossing
    pairs = {
        (part_of[e.src], part_of[e.dst])
        for e in g.edges
        if e.src in part_of
        and e.dst in part_of
        and part_of[e.src] != part_of[e.dst]
    }
    assert {tuple(e) for e in doc["edges"]} == pairs


def test_partition_json_round_trip():
    g = _bv6()
    for fn in STRATEGIES.values():
        r = fn(g, 4)
        assert partition_from_json(g, partition_to_json(g, r)) == r


def test_partition_from_json_validates():
    g = _bv6()
    doc = json.loads(partition_to_json(g, partition_nat(g, 4)))
    doc["parts"][0]["gate_indices"] = doc["parts"][0]["gate_indices"][:-1]
    with pytest.raises(PartitionError):
        partition_from_json(g, json.dumps(doc))


@pytest.mark.parametrize("two_level, edit", [
    (False, lambda d: d["parts"][0]["qubits"].__setitem__(0, 0.0)),
    (False, lambda d: d["parts"][0]["gate_indices"].__setitem__(0, 0.0)),
    (False, lambda d: d["parts"][0].update(id="0")),
    (False, lambda d: d["parts"][0]["qubits"].__setitem__(0, False)),
    (False, lambda d: d.update(limit=4.5)),
    (False, lambda d: d.update(limit=True)),
    (True, lambda d: d.update(limit1=8.0)),
    (True, lambda d: d.update(limit2=4.0)),
    (True, lambda d: d["sublevels"][0].update(parent=0.0)),
    (True, lambda d: d["sublevels"][0]["parts"][0]["qubits"].__setitem__(0, 0.0)),
    (True, lambda d: d["level1"]["parts"][0].update(id=True)),
], ids=["float-qubit", "float-gate", "string-id", "bool-qubit", "float-limit",
        "bool-limit", "float-limit1", "float-limit2", "float-parent",
        "float-level2-qubit", "bool-level1-id"])
def test_partition_from_json_wants_integers(two_level, edit):
    """Every part id, gate index, qubit and the limit must be a JSON
    integer: a float equal to one, a string or a bool is refused. So must
    the two limits, each sublevel's parent and every level-1 and level-2
    part's fields of a two-level document (qft_12 at 8/4)."""
    if two_level:
        g = build_dag(bench.build("qft_12"))
        doc = json.loads(partition_to_json(g, partition_multilevel(g, 8, 4)))
    else:
        g = _bv6()
        doc = json.loads(partition_to_json(g, partition_nat(g, 4)))
    edit(doc)
    with pytest.raises(PartitionError, match="is not an integer"):
        partition_from_json(g, json.dumps(doc))


@pytest.mark.parametrize("strategy", [["x"], "x", None],
                         ids=["list", "string", "null"])
def test_partition_from_json_wants_a_known_strategy(strategy):
    """``multilevel`` selects a two-level document. Any other strategy of a
    document, and the strategy of a two-level document's level 1, must be
    ``nat``, ``dfs`` or ``dagp``: the reader refuses anything else, and a
    level 1 that claims to be ``multilevel``."""
    g = build_dag(bench.build("qft_12"))
    flat = json.loads(partition_to_json(g, partition_dagp(g, 8)))
    flat["strategy"] = strategy
    docs = [flat]
    text = partition_to_json(g, partition_multilevel(g, 8, 4))
    for level1 in (strategy, "multilevel"):
        docs.append(json.loads(text))
        docs[-1]["level1"]["strategy"] = level1
    for doc in docs:
        with pytest.raises(PartitionError, match="names no one-level"):
            partition_from_json(g, json.dumps(doc))


def test_every_written_document_reads_back():
    """What ``partition_to_json`` writes, of either kind, always loads
    back to an equal object, so validation never rejects the library's own
    documents. Every bundled circuit; nat, dfs and dagp at every limit from
    the widest gate to n - 1; multilevel at each such limit1 with limit2 at
    the widest gate and at ceil(limit1 / 2), the CLI default (every pair
    would take about 5 s). About 2.5 s in all."""
    for name in bench.available():
        g = build_dag(bench.build(name))
        widest = max(len(op.qubits) for op in g.circuit.ops)
        for limit in range(widest, g.num_qubits):
            for fn in STRATEGIES.values():
                r = fn(g, limit)
                assert partition_from_json(g, partition_to_json(g, r)) == r
            for limit2 in {widest, max(widest, -(-limit // 2))}:
                ml = partition_multilevel(g, limit, limit2)
                text = partition_to_json(g, ml)
                assert partition_from_json(g, text) == ml


def test_multilevel_json_document_shape():
    g = _bv6()
    ml = partition_multilevel(g, 4, 2)
    doc = json.loads(partition_to_json(g, ml))
    assert doc["strategy"] == "multilevel"
    assert doc["limit1"] == 4 and doc["limit2"] == 2
    assert doc["level1"]["num_parts"] == len(ml.level1.parts)
    assert len(doc["sublevels"]) == len(ml.sublevels)
    for entry, parent, sub in zip(doc["sublevels"], ml.parts, ml.sublevels):
        assert set(entry) == {"parent", "parts"}
        assert entry["parent"] == parent.id
        assert len(entry["parts"]) == len(sub.parts)


#: cat_state_6 at limits 3/2 as earlier versions wrote it, with each
#: sublevel's padded qubit sets
PADDED_DOCUMENT = (
    '{"strategy": "multilevel", "limit1": 3, "limit2": 2, "level1": '
    '{"strategy": "dagp", "limit": 3, "num_parts": 3, "parts": ['
    '{"id": 0, "gate_indices": [0, 1, 2], "qubits": [0, 1, 2], "working_set": 3}, '
    '{"id": 1, "gate_indices": [3, 4], "qubits": [2, 3, 4], "working_set": 3}, '
    '{"id": 2, "gate_indices": [5], "qubits": [4, 5], "working_set": 2}], '
    '"edges": [[0, 1], [1, 2]], "cut_edges": 2}, "sublevels": ['
    '{"parent": 0, "parts": ['
    '{"id": 0, "gate_indices": [0, 1], "qubits": [0, 1], "working_set": 2}, '
    '{"id": 1, "gate_indices": [2], "qubits": [1, 2], "working_set": 2}], '
    '"padded_qubits": [[0, 1], [1, 2]]}, '
    '{"parent": 1, "parts": ['
    '{"id": 0, "gate_indices": [3], "qubits": [2, 3], "working_set": 2}, '
    '{"id": 1, "gate_indices": [4], "qubits": [3, 4], "working_set": 2}], '
    '"padded_qubits": [[2, 3], [3, 4]]}, '
    '{"parent": 2, "parts": ['
    '{"id": 0, "gate_indices": [5], "qubits": [4, 5], "working_set": 2}], '
    '"padded_qubits": [[4, 5]]}]}'
)


def test_multilevel_json_with_padded_qubit_sets_still_loads():
    """A two-level document that carries ``padded_qubits``, as earlier
    versions wrote it, loads into the partition it was written from; the
    key is ignored, so a stale set loads too. Without the key it is the
    document written now."""
    g = build_dag(bench.build("cat_state_6"))
    ml = partition_multilevel(g, 3, 2)
    assert partition_from_json(g, PADDED_DOCUMENT) == ml
    doc = json.loads(PADDED_DOCUMENT)
    doc["sublevels"][0]["padded_qubits"][0].pop()
    assert partition_from_json(g, json.dumps(doc)) == ml
    for entry in doc["sublevels"]:
        del entry["padded_qubits"]
    assert json.loads(partition_to_json(g, ml)) == doc


def test_multilevel_json_round_trip_and_validation():
    g = build_dag(bench.build("qft_12"))
    ml = partition_multilevel(g, 8, 4)
    text = partition_to_json(g, ml)
    assert partition_from_json(g, text) == ml

    def corrupt(edit):
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(PartitionError):
            partition_from_json(g, json.dumps(doc))

    corrupt(lambda d: d.update(limit2=9))
    corrupt(lambda d: d.pop("sublevels"))
    corrupt(lambda d: d["sublevels"].pop())
    corrupt(lambda d: d["sublevels"][0]["parts"].pop())
    corrupt(lambda d: d["sublevels"][0]["parts"][0]["gate_indices"].append(
        d["sublevels"][1]["parts"][0]["gate_indices"][0]
    ))
    corrupt(lambda d: d["sublevels"][0]["parts"].reverse())
    corrupt(lambda d: d["sublevels"][0].update(parent=99))
