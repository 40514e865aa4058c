"""Acyclic partitioning of the gate DAG under a working-set limit.

A partition assigns every gate to exactly one part so that each part needs
at most ``limit`` distinct qubits and the contracted part graph stays
acyclic. Strategies:

- ``partition_nat``: greedy cutoff scan over program order.
- ``partition_dfs``: the same cutoff over several randomized depth-first
  topological orders, keeping the best.
- ``partition_dagp``: greedy acyclic merging that starts from single-gate
  parts and contracts part pairs while the union fits the limit.
- ``optimal_parts_bruteforce``: exact minimum part count for small DAGs.
- ``partition_multilevel``: a dagP partition whose parts are partitioned
  again under a smaller limit for nested execution.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .dag import GateDag, NodeKind, build_dag, dfs_topo_order, quotient_is_acyclic
from .errors import LimitTooSmallError, PartitionError, TooLargeForOracleError
from .qasm import Circuit, GateOp

#: refusal threshold of the exact search
ORACLE_MAX_GATES = 20


@dataclass(frozen=True)
class Part:
    """One part: gate op indices in program order plus their qubit set."""

    id: int
    gate_indices: tuple[int, ...]
    qubits: tuple[int, ...]

    @property
    def working_set(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True)
class PartitionResult:
    """A valid partition; ``parts`` is topologically ordered."""

    strategy: str
    limit: int
    parts: tuple[Part, ...]

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def part_of(self) -> dict[int, int]:
        """Map op index -> position of its part in ``parts``."""
        out: dict[int, int] = {}
        for pos, part in enumerate(self.parts):
            for g in part.gate_indices:
                out[g] = pos
        return out

    def assignment(self, dag: GateDag) -> dict[int, int]:
        """Extend the partition to every DAG node for quotient checks.

        Entry nodes follow the first gate on their qubit and exit nodes the
        last; qubits with no gates put both stubs in part 0.
        """
        part_of = self.part_of()
        out: dict[int, int] = {}
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for i, op in enumerate(dag.circuit.ops):
            for q in op.qubits:
                first.setdefault(q, part_of[i])
                last[q] = part_of[i]
        for q in range(dag.num_qubits):
            out[dag.entry_id(q)] = first.get(q, 0)
            out[dag.exit_id(q)] = last.get(q, 0)
        for i in range(dag.num_gates):
            out[dag.gate_id(i)] = part_of[i]
        return out

    def part_graph_edges(self, dag: GateDag) -> tuple[tuple[int, int], ...]:
        """Directed edges between distinct parts, from gate-to-gate edges."""
        succ, _ = _gate_adjacency(dag)
        adj = _part_graph(self.part_of(), succ, range(self.num_parts))
        return tuple(sorted((u, v) for u, vs in adj.items() for v in vs))

    def cut_edges(self, dag: GateDag) -> int:
        """Number of gate-to-gate DAG edges crossing parts (recorded only)."""
        part_of = self.part_of()
        count = 0
        for e in dag.edges:
            su = dag.nodes[e.src]
            sv = dag.nodes[e.dst]
            if su.kind is NodeKind.GATE and sv.kind is NodeKind.GATE:
                if part_of[su.op_index] != part_of[sv.op_index]:
                    count += 1
        return count


@dataclass(frozen=True)
class MultiLevelPartition:
    """Two nested partitions: level 1 under ``limit1``, and each level-1
    part split again under ``limit2``.

    ``sublevels[i]`` partitions the gates of ``level1.parts[i]`` (indices
    and qubits in global space). ``padded_qubits[i][j]`` is level-2 part j
    widened with parent qubits, lowest index first, up to
    min(limit2, parent working set); execution gathers on the padded set.
    """

    limit1: int
    limit2: int
    level1: PartitionResult
    sublevels: tuple[PartitionResult, ...]
    padded_qubits: tuple[tuple[tuple[int, ...], ...], ...]


# --- shared helpers ---------------------------------------------------------

def _check_limit(circuit: Circuit, limit: int) -> None:
    max_arity = max((len(op.qubits) for op in circuit.ops), default=1)
    if limit < max_arity:
        raise LimitTooSmallError(limit, max_arity)


def _gate_adjacency(dag: GateDag) -> tuple[list[set[int]], list[set[int]]]:
    """Direct gate-to-gate dependencies as (successors, predecessors) by
    op index."""
    succ: list[set[int]] = [set() for _ in range(dag.num_gates)]
    pred: list[set[int]] = [set() for _ in range(dag.num_gates)]
    for e in dag.edges:
        u, v = dag.nodes[e.src], dag.nodes[e.dst]
        if u.kind is NodeKind.GATE and v.kind is NodeKind.GATE:
            succ[u.op_index].add(v.op_index)
            pred[v.op_index].add(u.op_index)
    return succ, pred


def _part_graph(
    part_of: Mapping[int, int], succ: list[set[int]], parts: Iterable[int]
) -> dict[int, set[int]]:
    """Successor sets of the part graph: gate-to-gate edges ``succ``
    contracted by ``part_of`` (op index -> part), keyed by ``parts``."""
    adj: dict[int, set[int]] = {p: set() for p in parts}
    for g, ss in enumerate(succ):
        for s in ss:
            pu, pv = part_of[g], part_of[s]
            if pu != pv:
                adj[pu].add(pv)
    return adj


def _make_result(
    circuit: Circuit, strategy: str, limit: int, groups: list[list[int]]
) -> PartitionResult:
    """Freeze gate-index groups (already topologically ordered) as parts."""
    parts = []
    for pid, gates in enumerate(groups):
        gates = sorted(gates)
        qubits = sorted({q for g in gates for q in circuit.ops[g].qubits})
        parts.append(Part(pid, tuple(gates), tuple(qubits)))
    return PartitionResult(strategy, limit, tuple(parts))


def check_partition(dag: GateDag, result: PartitionResult) -> None:
    """Raise PartitionError unless ``result`` is a valid partition of
    ``dag``: parts nonempty, disjoint, exhaustive, within the limit, and
    the quotient acyclic with parts listed in topological order."""
    seen: set[int] = set()
    for part in result.parts:
        if not part.gate_indices:
            raise PartitionError(f"part {part.id} is empty")
        if part.working_set > result.limit:
            raise PartitionError(
                f"part {part.id} needs {part.working_set} qubits, "
                f"limit {result.limit}"
            )
        expect = sorted({q for g in part.gate_indices
                         for q in dag.circuit.ops[g].qubits})
        if list(part.qubits) != expect:
            raise PartitionError(f"part {part.id} qubit set is stale")
        overlap = seen.intersection(part.gate_indices)
        if overlap:
            raise PartitionError(f"gates {sorted(overlap)} in two parts")
        seen.update(part.gate_indices)
    if seen != set(range(dag.num_gates)):
        missing = set(range(dag.num_gates)) - seen
        raise PartitionError(f"gates {sorted(missing)} unassigned")
    if result.parts:
        part_of = result.part_of()
        succ, _ = _gate_adjacency(dag)
        for u in range(dag.num_gates):
            for v in succ[u]:
                if part_of[u] > part_of[v]:
                    raise PartitionError(
                        f"parts not topologically ordered: gate {u} -> {v}"
                    )
        if not quotient_is_acyclic(dag, result.assignment(dag)):
            raise PartitionError("quotient graph has a cycle")


# --- Nat and DFS ------------------------------------------------------------

def _cutoff_scan(circuit: Circuit, order, limit: int) -> list[list[int]]:
    """Greedy prefix cutoff: extend the running part until the next gate
    would push its qubit set past the limit, then start a new part."""
    groups: list[list[int]] = []
    current: list[int] = []
    qubits: set[int] = set()
    for g in order:
        gq = set(circuit.ops[g].qubits)
        if current and len(qubits | gq) > limit:
            groups.append(current)
            current = [g]
            qubits = set(gq)
        else:
            current.append(g)
            qubits |= gq
    if current:
        groups.append(current)
    return groups


def partition_nat(dag: GateDag, limit: int) -> PartitionResult:
    """Cutoff scan over program order. Deterministic."""
    _check_limit(dag.circuit, limit)
    groups = _cutoff_scan(dag.circuit, range(dag.num_gates), limit)
    return _make_result(dag.circuit, "nat", limit, groups)


def partition_dfs(
    dag: GateDag, limit: int, trials: int = 16, seed: int = 0
) -> PartitionResult:
    """Cutoff scan over randomized DFS topological orders.

    Trial i uses ``dfs_topo_order(dag, seed + i)``; the partition with the
    fewest parts wins and ties go to the lowest trial index, so results are
    reproducible and adding trials can only help.
    """
    _check_limit(dag.circuit, limit)
    if trials < 1:
        raise ValueError("trials must be positive")
    best: list[list[int]] | None = None
    for i in range(trials):
        order = [
            dag.nodes[nid].op_index
            for nid in dfs_topo_order(dag, seed + i)
            if dag.nodes[nid].kind is NodeKind.GATE
        ]
        groups = _cutoff_scan(dag.circuit, order, limit)
        if best is None or len(groups) < len(best):
            best = groups
    return _make_result(dag.circuit, "dfs", limit, best or [])


# --- dagP-style greedy acyclic merge ----------------------------------------

def partition_dagp(dag: GateDag, limit: int) -> PartitionResult:
    """Greedy acyclic merging from single-gate parts.

    Every gate starts as its own part, labelled in program order. Any two
    parts whose union fits the limit and whose contraction keeps the part
    graph acyclic may merge, widest shared-qubit pairs first (ties to the
    wider union, then part order), until no valid merger remains. A circuit
    whose qubits all fit the limit is one part.
    """
    circuit = dag.circuit
    _check_limit(circuit, limit)
    if dag.num_gates == 0:
        return PartitionResult("dagp", limit, ())
    gates = list(range(dag.num_gates))
    qubits_of = [set(op.qubits) for op in circuit.ops]
    if len(set().union(*qubits_of)) <= limit:
        return _make_result(circuit, "dagp", limit, [gates])
    succ, _ = _gate_adjacency(dag)
    groups = _merge_phase([[g] for g in gates], qubits_of, succ, limit)
    groups = _topo_order_groups(groups, succ)
    return _make_result(circuit, "dagp", limit, groups)


def _merge_phase(
    groups: list[list[int]],
    qubits_of: list[set[int]],
    succ: list[set[int]],
    limit: int,
) -> list[list[int]]:
    """Greedily contract part pairs while the union fits the limit and the
    part graph stays acyclic.

    Candidates are ranked by descending shared-qubit count, then descending
    union size, then part order, through a lazy priority queue: entries are
    revalidated against the live structure when popped, and a contraction
    reenqueues the merged part's pairings.
    """
    alive = {i: set(g) for i, g in enumerate(groups)}
    qsets = {i: {q for g in groups[i] for q in qubits_of[g]} for i in alive}
    part_of = {g: i for i, gs in alive.items() for g in gs}

    def mergeable(u: int, v: int, adj: dict[int, set[int]]) -> bool:
        # contraction is acyclic iff every u..v path is the direct edge
        for src, dst in ((u, v), (v, u)):
            stack = [m for m in adj[src] if m != dst]
            seen = set(stack)
            while stack:
                x = stack.pop()
                if x == dst:
                    return False
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return True

    def key(u: int, v: int) -> tuple[int, int, int, int] | None:
        union = len(qsets[u] | qsets[v])
        if union > limit:
            return None
        shared = len(qsets[u]) + len(qsets[v]) - union
        return (-shared, -union, u, v)

    heap: list[tuple[int, int, int, int]] = []
    ids = sorted(alive)
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            k = key(u, v)
            if k is not None:
                heap.append(k)
    heapq.heapify(heap)
    adj = _part_graph(part_of, succ, alive)

    while heap:
        negshared, union, u, v = heapq.heappop(heap)
        if u not in alive or v not in alive:
            continue
        k = key(u, v)
        if k is None:
            continue
        if k != (negshared, union, u, v):
            heapq.heappush(heap, k)  # stale entry: requeue corrected
            continue
        if not mergeable(u, v, adj):
            continue
        alive[u] |= alive[v]
        qsets[u] |= qsets[v]
        for g in alive[v]:
            part_of[g] = u
        del alive[v], qsets[v]
        adj = _part_graph(part_of, succ, alive)
        for w in alive:
            if w != u:
                k = key(*sorted((u, w)))
                if k is not None:
                    heapq.heappush(heap, k)
    return [sorted(alive[p]) for p in sorted(alive)]


def _topo_order_groups(
    groups: list[list[int]], succ: list[set[int]]
) -> list[list[int]]:
    """Relabel groups along a topological order of the part graph (Kahn,
    smallest original index first for determinism)."""
    part_of = {g: i for i, gs in enumerate(groups) for g in gs}
    adj = _part_graph(part_of, succ, range(len(groups)))
    indeg = {i: 0 for i in range(len(groups))}
    for u in adj:
        for v in adj[u]:
            indeg[v] += 1
    heap = [i for i in indeg if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[list[int]] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(groups[u])
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != len(groups):
        raise PartitionError("internal: merged part graph is cyclic")
    return order


# --- exact oracle -----------------------------------------------------------

def optimal_parts_bruteforce(
    dag: GateDag, limit: int, max_gates: int = ORACLE_MAX_GATES
) -> int:
    """Exact minimum part count over all valid acyclic partitions.

    Searches chains of topological prefixes (every acyclic partition is
    one), memoizing on the set of remaining gates, pruning with the qubit
    lower bound ceil(|qubits|/limit) and a heuristic incumbent. Refuses
    DAGs above ``max_gates`` gates.
    """
    circuit = dag.circuit
    _check_limit(circuit, limit)
    m = dag.num_gates
    if m == 0:
        return 0
    if m > max_gates:
        raise TooLargeForOracleError(
            f"{m} gates exceeds the exact-search guard of {max_gates}"
        )
    qmask = []
    for op in circuit.ops:
        mask = 0
        for q in op.qubits:
            mask |= 1 << q
        qmask.append(mask)
    _, pred = _gate_adjacency(dag)
    pred_mask = [0] * m
    for g in range(m):
        for p in pred[g]:
            pred_mask[g] |= 1 << p

    full = (1 << m) - 1
    ub = partition_dagp(dag, limit).num_parts  # valid partition: upper bound

    def qubit_lb(remaining: int) -> int:
        union = 0
        r = remaining
        while r:
            g = (r & -r).bit_length() - 1
            union |= qmask[g]
            r &= r - 1
        return -(-union.bit_count() // limit)

    memo: dict[int, int] = {}
    floor_bound: dict[int, int] = {}

    def solve(remaining: int, budget: int) -> int:
        """Min parts for ``remaining`` if <= budget, else a value > budget."""
        if remaining == 0:
            return 0
        if budget <= 0:
            return 1
        known = memo.get(remaining)
        if known is not None:
            return known
        lb = max(qubit_lb(remaining), floor_bound.get(remaining, 1))
        if lb > budget:
            return lb
        done = full & ~remaining
        best = budget + 1

        # grow every feasible first part (a qubit-bounded down-set of the
        # remaining gates), adding gates in increasing index so each set is
        # enumerated once; recurse on what is left
        def grow(chosen: int, qubits: int, last: int) -> None:
            nonlocal best
            rest = remaining & ~chosen
            allowance = min(budget, best - 1) - 1
            sub = solve(rest, allowance)
            if sub <= allowance and 1 + sub < best:
                best = 1 + sub
            if best <= lb:
                return
            avail = rest
            while avail:
                bit = avail & -avail
                avail &= avail - 1
                g = bit.bit_length() - 1
                if g <= last:
                    continue
                if pred_mask[g] & ~(done | chosen):
                    continue
                nq = qubits | qmask[g]
                if nq.bit_count() > limit:
                    continue
                grow(chosen | bit, nq, g)
                if best <= lb:
                    return

        # seed with each single gate (ascending) as the smallest member
        r = remaining
        while r:
            bit = r & -r
            r &= r - 1
            g = bit.bit_length() - 1
            if pred_mask[g] & remaining:
                continue
            if qmask[g].bit_count() > limit:
                continue
            grow(bit, qmask[g], g)
            if best <= lb:
                break
        if best <= budget:
            memo[remaining] = best
        else:
            floor_bound[remaining] = max(floor_bound.get(remaining, 0), budget + 1)
        return best

    result = solve(full, ub)
    return min(result, ub)


# --- multi-level ------------------------------------------------------------

def _part_dag(dag: GateDag, part: Part) -> GateDag:
    """A part as a standalone circuit over its own qubits, slot ``s``
    standing for ``part.qubits[s]``, with fresh entry/exit stubs."""
    to_slot = {q: s for s, q in enumerate(part.qubits)}
    ops = (dag.circuit.ops[g] for g in part.gate_indices)
    sub_ops = tuple(
        GateOp(op.kind, tuple(to_slot[q] for q in op.qubits), op.params)
        for op in ops
    )
    return build_dag(Circuit(len(part.qubits), sub_ops))


def _pad(qubits: tuple[int, ...], parent: Part, limit2: int) -> tuple[int, ...]:
    """Widen a level-2 qubit set with parent qubits, lowest index first, up
    to min(limit2, parent working set)."""
    target = min(limit2, parent.working_set)
    pad = list(qubits)
    for q in parent.qubits:
        if len(pad) >= target:
            break
        if q not in qubits:
            pad.append(q)
    return tuple(sorted(pad))


def partition_multilevel(
    dag: GateDag, limit1: int, limit2: int
) -> MultiLevelPartition:
    """Partition under ``limit1``, then partition each part's own sub-DAG
    under ``limit2``.

    Each level-1 part becomes a standalone sub-circuit over its own qubits
    (fresh entry/exit stubs), is partitioned with dagP, and the result is
    mapped back to global gate indices and qubits. Level-2 parts narrower
    than the inner limit are padded with parent qubits, lowest index first,
    up to min(limit2, parent working set).
    """
    if limit2 > limit1:
        raise PartitionError(f"limit2 {limit2} exceeds limit1 {limit1}")
    level1 = partition_dagp(dag, limit1)
    sublevels: list[PartitionResult] = []
    padded_all: list[tuple[tuple[int, ...], ...]] = []
    for part in level1.parts:
        sub_dag = _part_dag(dag, part)
        sub = partition_dagp(sub_dag, min(limit2, len(part.qubits)))
        mapped_parts = []
        for sp in sub.parts:
            gates = tuple(sorted(part.gate_indices[i] for i in sp.gate_indices))
            qubits = tuple(sorted(part.qubits[s] for s in sp.qubits))
            mapped_parts.append(Part(sp.id, gates, qubits))
        sublevels.append(
            PartitionResult("dagp", limit2, tuple(mapped_parts))
        )
        padded_all.append(
            tuple(_pad(p.qubits, part, limit2) for p in mapped_parts)
        )
    return MultiLevelPartition(
        limit1, limit2, level1, tuple(sublevels), tuple(padded_all)
    )


# --- JSON export / import ---------------------------------------------------

def _part_doc(p: Part) -> dict:
    return {
        "id": p.id,
        "gate_indices": list(p.gate_indices),
        "qubits": list(p.qubits),
        "working_set": p.working_set,
    }


def partition_to_json(dag: GateDag, result: PartitionResult) -> str:
    """Serialize a partition with its part-graph edges and edge cut."""
    doc = {
        "strategy": result.strategy,
        "limit": result.limit,
        "num_parts": result.num_parts,
        "parts": [_part_doc(p) for p in result.parts],
        "edges": [list(e) for e in result.part_graph_edges(dag)],
        "cut_edges": result.cut_edges(dag),
    }
    return json.dumps(doc, indent=2)


def _parts_from_doc(entries) -> tuple[Part, ...]:
    return tuple(
        Part(p["id"], tuple(p["gate_indices"]), tuple(p["qubits"]))
        for p in entries
    )


def _partition_from_doc(dag: GateDag, doc: dict) -> PartitionResult:
    parts = _parts_from_doc(doc["parts"])
    result = PartitionResult(doc["strategy"], int(doc["limit"]), parts)
    check_partition(dag, result)
    return result


def partition_from_json(dag: GateDag, text: str) -> PartitionResult:
    """Load and validate a partition produced by partition_to_json."""
    try:
        return _partition_from_doc(dag, json.loads(text))
    except (LookupError, TypeError) as e:
        raise PartitionError(f"malformed partition document: {e!r}") from e


def _multilevel_from_doc(dag: GateDag, doc: dict) -> MultiLevelPartition:
    limit1, limit2 = int(doc["limit1"]), int(doc["limit2"])
    if limit2 > limit1:
        raise PartitionError(f"limit2 {limit2} exceeds limit1 {limit1}")
    level1 = _partition_from_doc(dag, doc["level1"])
    if level1.limit != limit1:
        raise PartitionError(
            f"level-1 limit {level1.limit} differs from limit1 {limit1}"
        )
    entries = doc["sublevels"]
    if len(entries) != level1.num_parts:
        raise PartitionError(
            f"{len(entries)} sublevels for {level1.num_parts} level-1 parts"
        )
    sublevels: list[PartitionResult] = []
    padded_all: list[tuple[tuple[int, ...], ...]] = []
    for part, entry in zip(level1.parts, entries):
        if entry["parent"] != part.id:
            raise PartitionError(
                f"sublevel of part {entry['parent']} listed for part {part.id}"
            )
        sub = PartitionResult("dagp", limit2, _parts_from_doc(entry["parts"]))
        gate_slot = {g: i for i, g in enumerate(part.gate_indices)}
        qubit_slot = {q: s for s, q in enumerate(part.qubits)}
        outside = {g for p in sub.parts for g in p.gate_indices} - set(gate_slot)
        if outside:
            raise PartitionError(
                f"level-2 parts of part {part.id} hold gates {sorted(outside)} "
                f"outside it"
            )
        # the level-2 parts must partition the part's own circuit
        local = tuple(
            Part(
                p.id,
                tuple(gate_slot[g] for g in p.gate_indices),
                tuple(qubit_slot.get(q, -1) for q in p.qubits),
            )
            for p in sub.parts
        )
        check_partition(
            _part_dag(dag, part), PartitionResult("dagp", limit2, local)
        )
        padded = tuple(tuple(q) for q in entry["padded_qubits"])
        if padded != tuple(_pad(p.qubits, part, limit2) for p in sub.parts):
            raise PartitionError(
                f"padded qubit sets of part {part.id} are not its level-2 "
                f"qubits widened to min(limit2, working set)"
            )
        sublevels.append(sub)
        padded_all.append(padded)
    return MultiLevelPartition(
        limit1, limit2, level1, tuple(sublevels), tuple(padded_all)
    )


def multilevel_from_json(dag: GateDag, text: str) -> MultiLevelPartition:
    """Load and validate a two-level partition produced by
    multilevel_to_json.

    The level-1 partition is checked under ``limit1``; each part's level-2
    parts must be a valid partition of that part's own circuit under
    ``limit2``, and each padded qubit set must be the one
    ``partition_multilevel`` gives.
    """
    try:
        return _multilevel_from_doc(dag, json.loads(text))
    except (LookupError, TypeError) as e:
        raise PartitionError(
            f"malformed multilevel partition document: {e!r}"
        ) from e


def multilevel_to_json(dag: GateDag, ml: MultiLevelPartition) -> str:
    """Serialize a two-level partition: the level-1 document plus, per
    level-1 part, its level-2 parts and padded qubit sets."""
    doc = {
        "strategy": "multilevel",
        "limit1": ml.limit1,
        "limit2": ml.limit2,
        "level1": json.loads(partition_to_json(dag, ml.level1)),
        "sublevels": [
            {
                "parent": ml.level1.parts[i].id,
                "parts": [_part_doc(p) for p in sub.parts],
                "padded_qubits": [list(q) for q in ml.padded_qubits[i]],
            }
            for i, sub in enumerate(ml.sublevels)
        ],
    }
    return json.dumps(doc, indent=2)
