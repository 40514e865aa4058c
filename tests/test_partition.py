"""Partitioning strategy tests: validity, quality, and export formats."""

from __future__ import annotations

import json
import random

import pytest

from hisim import bench
from hisim.dag import build_dag, working_set
from hisim.errors import (
    LimitTooSmallError,
    PartitionError,
    TooLargeForOracleError,
)
from hisim.partition import (
    Part,
    PartitionResult,
    check_partition,
    multilevel_from_json,
    multilevel_to_json,
    optimal_parts_bruteforce,
    partition_dagp,
    partition_dfs,
    partition_from_json,
    partition_multilevel,
    partition_nat,
    partition_to_json,
)
from hisim.qasm import Circuit, GateKind, GateOp

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
    dup = Part(
        r.parts[-1].id,
        r.parts[-1].gate_indices + (first.gate_indices[0],),
        r.parts[-1].qubits,
    )
    with pytest.raises(PartitionError):
        check_partition(g, PartitionResult("nat", 4, r.parts[:-1] + (dup,)))


def test_check_partition_flags_oversized_working_set():
    g = _bv6()
    r = partition_dagp(g, 6)
    shrunk = PartitionResult("dagp", 3, r.parts)
    with pytest.raises(PartitionError):
        check_partition(g, shrunk)


def test_check_partition_flags_cyclic_quotient():
    # Chain a->b->c on one qubit; grouping {a, c} apart from {b} makes the
    # quotient cyclic.
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
    with pytest.raises(PartitionError):
        check_partition(g, bad)


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
    from hisim.dag import NodeKind, quotient_is_acyclic

    best = None
    gate_ids = list(g.gate_ids())
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


def test_multilevel_json_document_shape():
    g = _bv6()
    ml = partition_multilevel(g, 4, 2)
    doc = json.loads(multilevel_to_json(g, ml))
    assert doc["strategy"] == "multilevel"
    assert doc["limit1"] == 4 and doc["limit2"] == 2
    assert doc["level1"]["num_parts"] == len(ml.level1.parts)
    assert len(doc["sublevels"]) == len(ml.sublevels)
    for entry, sub, padded in zip(
        doc["sublevels"], ml.sublevels, ml.padded_qubits
    ):
        assert len(entry["parts"]) == len(sub.parts)
        assert entry["padded_qubits"] == [list(s) for s in padded]


def test_multilevel_json_round_trip_and_validation():
    g = build_dag(bench.build("qft_12"))
    ml = partition_multilevel(g, 8, 4)
    text = multilevel_to_json(g, ml)
    assert multilevel_from_json(g, text) == ml

    def corrupt(edit):
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(PartitionError):
            multilevel_from_json(g, json.dumps(doc))

    corrupt(lambda d: d.update(limit2=9))
    corrupt(lambda d: d.pop("sublevels"))
    corrupt(lambda d: d["sublevels"].pop())
    corrupt(lambda d: d["sublevels"][0]["parts"].pop())
    corrupt(lambda d: d["sublevels"][0]["parts"][0]["gate_indices"].append(
        d["sublevels"][1]["parts"][0]["gate_indices"][0]
    ))
    corrupt(lambda d: d["sublevels"][0]["parts"].reverse())
    corrupt(lambda d: d["sublevels"][0]["padded_qubits"][0].pop())
