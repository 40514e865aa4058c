"""Acyclic partitioning of the gate DAG under a working-set limit.

A partition lists its parts in execution order. Each part needs at most
``limit`` distinct qubits, and every gate appears once, its part's gates
ascending, so every dependency runs forward and the part graph is acyclic
(``check_partition``). Strategies:

- ``partition_nat``: greedy cutoff scan over program order.
- ``partition_dfs``: the same cutoff over several randomized depth-first
  topological orders, keeping the best.
- ``partition_dagp``: greedy acyclic merging that starts from single-gate
  parts and contracts part pairs while the union fits the limit.
- ``optimal_parts_bruteforce``: exact minimum part count for small DAGs.
- ``partition_multilevel``: a dagP partition whose parts are partitioned
  again under a smaller limit. The level-2 parts are checked and written
  in documents; execution runs the level-1 parts (``hisim.hier``).

Partitions at either level stay in global gate and qubit indices. Gate
edges come from ``hisim.dag.wires``, for any ascending gate subset, so dagP
and the validity rule run on a level-1 part's own gates to make and check
its level-2 parts; only ``partition_dfs`` walks the ``GateDag``'s own graph.
dagP also kernelizes a part's gates (``hisim.hier``), with
edges added that run through the gates it leaves out (``_dagp``).

Both kinds, a flat ``PartitionResult`` and a two-level
``MultiLevelPartition``, have one check (``check_partition``), one writer
(``partition_to_json``) and one reader (``partition_from_json``), which
tells them apart by the document's ``strategy``. Documents also carry
``num_parts``, ``working_set``, ``edges`` and ``cut_edges`` for their
readers; the reader never reads them back. A two-level document adds,
per level-1 part, its id and its level-2 parts.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .dag import GateDag, dfs_topo_order, wires
# not called here: benchmarks/layers.py traces it under this name
from .dag import build_dag  # noqa: F401
from .errors import LimitTooSmallError, PartitionError, TooLargeForOracleError
from .qasm import Circuit, GateOp

#: refusal threshold of the exact search
ORACLE_MAX_GATES = 20

#: the one-level partitioners, by the name documents and the CLI give them
STRATEGIES = ("nat", "dfs", "dagp")


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
    """A valid partition; ``parts`` run in order, dependencies forward."""

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

    def _crossing(self, dag: GateDag) -> list[tuple[int, int]]:
        """(source part, target part) of every gate-to-gate wire between
        distinct parts, with multiplicity."""
        part_of = self.part_of()
        pairs = (
            (part_of[u], part_of[v])
            for u, v, _ in wires(dag.circuit.ops, range(dag.num_gates))
        )
        return [(pu, pv) for pu, pv in pairs if pu != pv]

    def cut_edges(self, dag: GateDag) -> int:
        """Number of gate-to-gate DAG edges crossing parts (recorded only)."""
        return len(self._crossing(dag))


@dataclass(frozen=True)
class MultiLevelPartition:
    """Two nested partitions: level 1 under ``limit1``, and each level-1
    part split again under ``limit2``.

    ``sublevels[i]`` partitions the gates of ``level1.parts[i]`` (indices
    and qubits in global space).
    """

    limit1: int
    limit2: int
    level1: PartitionResult
    sublevels: tuple[PartitionResult, ...]

    @property
    def parts(self) -> tuple[Part, ...]:
        """The level-1 parts, as ``PartitionResult.parts`` lists its own."""
        return self.level1.parts

    @property
    def padded_qubits(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``[i][j]`` is level-2 part j of level-1 part i widened with parent
        qubits, lowest index first, up to min(limit2, parent working set):
        the block a level-2 part would stage on. Execution runs each level-1
        part whole, its gates in program order, and documents do not carry
        these sets; the benchmark's level-2 check
        (``benchmarks/workloads.py``) and the nested oracle of
        ``tests/test_hier.py`` read them."""
        return tuple(
            tuple(_pad(p.qubits, parent, self.limit2) for p in sub.parts)
            for parent, sub in zip(self.level1.parts, self.sublevels)
        )


# --- shared helpers ---------------------------------------------------------

def _check_limit(ops: Iterable[GateOp], limit: int) -> None:
    max_arity = max((len(op.qubits) for op in ops), default=1)
    if limit < max_arity:
        raise LimitTooSmallError(limit, max_arity)


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


def check_partition(
    dag: GateDag, partition: PartitionResult | MultiLevelPartition
) -> None:
    """Raise PartitionError unless ``partition``, flat or two-level, is a
    valid partition of ``dag``.

    Every part is nonempty, within the limit, carries exactly its gates'
    qubits and has an id no other part in its list has. Read in order, the parts list every gate of ``0..G-1`` once,
    each part's gates ascending, so every gate-to-gate edge runs forward:
    that is the order execution follows, and it makes the quotient acyclic.
    A two-level partition also needs ``limit2 <= limit1``, its level 1
    valid under ``limit1``, and one sublevel per level-1 part, valid by the
    same rule on that part's gates under ``limit2``.
    """
    _check(dag.circuit.ops, partition)


def _check(ops: Sequence[GateOp], p: PartitionResult | MultiLevelPartition) -> None:
    """``check_partition``'s rule on ``ops``. ``hisim.hier`` checks what it
    runs here rather than through ``check_partition``, so a trace of
    ``check_partition`` counts only its callers' own checks."""
    n = len(ops)
    if not isinstance(p, MultiLevelPartition):
        _check_parts(ops, range(n), p.parts, p.limit, f"0..{n - 1}")
        return
    if p.limit2 > p.limit1:
        raise PartitionError(f"limit2 {p.limit2} exceeds limit1 {p.limit1}")
    level1 = p.level1
    _check(ops, level1)
    if level1.limit != p.limit1:
        raise PartitionError(
            f"level-1 limit {level1.limit} differs from limit1 {p.limit1}"
        )
    if len(p.sublevels) != level1.num_parts:
        raise PartitionError(
            f"{len(p.sublevels)} sublevels for {level1.num_parts} level-1 parts"
        )
    for part, sub in zip(level1.parts, p.sublevels):
        _check_parts(ops, part.gate_indices, sub.parts, p.limit2, f"part {part.id}")


def _check_parts(
    ops: Sequence[GateOp], gates: Sequence[int], parts, limit: int, scope: str
) -> None:
    """``check_partition``'s rule for ``parts`` over the ascending gate
    subset ``gates`` (named ``scope`` in messages); the edges that must run
    forward are the subset's own ``wires``. Traces and reports name
    parts by id, so no two in ``parts`` may share one."""
    part_of = dict.fromkeys(gates, -1)  # op index -> position of its part
    ids = set()
    for pos, part in enumerate(parts):
        if part.id in ids:
            raise PartitionError(f"part id {part.id} repeats in {scope}")
        ids.add(part.id)
        members = part.gate_indices
        if not members:
            raise PartitionError(f"part {part.id} is empty")
        outside = [g for g in members if g not in part_of]
        if outside:
            raise PartitionError(
                f"part {part.id} holds gates {outside} outside {scope}"
            )
        if list(members) != sorted(set(members)):
            raise PartitionError(f"part {part.id} gates are not ascending")
        if part.working_set > limit:
            raise PartitionError(
                f"part {part.id} needs {part.working_set} qubits, limit {limit}"
            )
        expect = sorted({q for g in members for q in ops[g].qubits})
        if list(part.qubits) != expect:
            raise PartitionError(f"part {part.id} qubit set is stale")
        twice = [g for g in members if part_of[g] >= 0]
        if twice:
            raise PartitionError(f"gates {twice} in two parts")
        for g in members:
            part_of[g] = pos
    missing = [g for g in gates if part_of[g] < 0]
    if missing:
        raise PartitionError(f"gates {missing} unassigned")
    for u, v, _ in wires(ops, gates):
        if part_of[u] > part_of[v]:
            raise PartitionError(
                f"parts not topologically ordered: gate {u} -> {v}"
            )


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
    _check_limit(dag.circuit.ops, limit)
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
    _check_limit(dag.circuit.ops, limit)
    if trials < 1:
        raise ValueError("trials must be positive")
    best: list[list[int]] | None = None
    n, m = dag.num_qubits, dag.num_gates
    for i in range(trials):
        # gate node ids are n..n+m-1, node n+g for op g
        order = [
            nid - n for nid in dfs_topo_order(dag, seed + i) if n <= nid < n + m
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
    wider union, then part order), until no valid merger remains. Only
    part-graph edges are queued as candidates; pairs that share no qubit
    are searched for only when that queue runs dry (``_merge_phase``). A
    circuit whose qubits all fit the limit is one part.
    """
    groups = _dagp(dag.circuit.ops, range(dag.num_gates), limit)
    return _make_result(dag.circuit, "dagp", limit, groups)


def _dagp(
    ops: Sequence[GateOp],
    gates: Sequence[int],
    limit: int,
    through: Iterable[tuple[int, int]] = (),
) -> list[list[int]]:
    """``partition_dagp``'s groups for the ascending gate subset ``gates``,
    in execution order. Part ids are positions in ``gates``, which keep
    program order, and shared/union counts read the global qubit masks, so
    the merge order is that of the subset as a circuit of its own. The
    DAG is the subset's wires plus the ``through`` edges ``(u, v)``
    between its gates, each with ``u < v``: dependencies that run through
    gates left out of the subset."""
    _check_limit((ops[g] for g in gates), limit)
    if not gates:
        return []
    if len({q for g in gates for q in ops[g].qubits}) <= limit:
        return [list(gates)]
    qmask = [sum(1 << q for q in ops[g].qubits) for g in gates]
    local = {g: i for i, g in enumerate(gates)}
    succ: list[set[int]] = [set() for _ in gates]
    for u, v, _ in wires(ops, gates):
        succ[local[u]].add(local[v])
    for u, v in through:
        succ[local[u]].add(local[v])
    groups, adj = _merge_phase(qmask, succ, limit)
    return [[gates[i] for i in grp] for grp in _topo_order_groups(groups, adj)]


def _merge_phase(
    qmask: list[int], succ: list[set[int]], limit: int
) -> tuple[list[list[int]], list[set[int]]]:
    """Greedily contract part pairs while the union fits the limit and the
    part graph stays acyclic, starting from one part per gate (part id =
    op index, ``qmask[g]`` the gate's qubits as a bit mask).

    Each step contracts the mergeable pair ranked first by descending
    shared-qubit count, then descending union size, then part order. Only
    pairs joined by a part-graph edge go through the lazy priority queue,
    each as one int that sorts as that ranking (``key``):
    two parts that share a qubit can merge only if no other part lies
    between them on that qubit's wire, and then a gate edge joins them.
    An edge may also join two parts that share no qubit, when it runs
    through gates left out of the graph (``_dagp``'s ``through``); such a
    pair is never queued. The queue is seeded with the gate edges between
    parts that share a qubit, entries are revalidated when popped, and a
    contraction requeues the merged part with its neighbours.
    A popped pair judged unmergeable stays so until one of its own parts is
    contracted, which requeues it. Pairs sharing no qubit rank after every
    pair that shares one, so they are looked for only when the queue runs
    dry: one scan of the live parts for the best mergeable disjoint pair.

    The part graph is kept as successor and predecessor sets, and ``reach``
    holds, for every live part, its descendants as a bitset over part ids:
    the transitive closure of the contracted part graph, without the part
    itself (bits of merged-away parts may linger; none is ever tested).
    Contracting u and v is acyclic iff no other successor of one reaches
    the other, so each candidate costs one bit test per successor. A
    contraction updates ``reach`` only on the merged part's ancestors, and
    only up to those that already reach all it gained.
    Returns the groups in part-id order and the part graph between them.
    """
    n = len(qmask)
    qmask = list(qmask)
    qcount = [m.bit_count() for m in qmask]
    alive = {g: [g] for g in range(n)}
    out = [set(ss) for ss in succ]
    into: list[set[int]] = [set() for _ in range(n)]
    for g, ss in enumerate(succ):
        for s in ss:
            into[s].add(g)
    # gate edges run forward in program order, so descending ids are a
    # reverse topological order
    reach = [0] * n
    for g in range(n - 1, -1, -1):
        for s in out[g]:
            reach[g] |= reach[s] | 1 << s

    def mergeable(u: int, v: int) -> bool:
        # contraction is acyclic iff every u..v path is the direct edge
        bu, bv = 1 << u, 1 << v
        for m in out[u]:
            if m != v and reach[m] & bv:
                return False
        for m in out[v]:
            if m != u and reach[m] & bu:
                return False
        return True

    # a key packs (limit - shared, limit - union, u, v) into one int that
    # sorts as the tuple: the counts lie in 0..limit - 1, the ids in
    # 0..n - 1, each field as wide as its largest value needs
    id_bits = (n - 1).bit_length()
    count_bits = (limit - 1).bit_length()
    ids = (1 << id_bits) - 1

    def key(u: int, v: int) -> int | None:
        # a pair sharing no qubit is left to the scan, even when an edge
        # that runs through gates outside the subset joins it
        union = (qmask[u] | qmask[v]).bit_count()
        shared = qcount[u] + qcount[v] - union
        if union > limit or not shared:
            return None
        counts = (limit - shared) << count_bits | limit - union
        return (counts << id_bits | u) << id_bits | v

    def best_disjoint() -> tuple[int, int] | None:
        # every disjoint pair that fits, widest union first, then part order
        live = list(alive)  # ascending: ids only ever leave the dict
        pairs = sorted(
            (-(qcount[u] + qcount[v]), u, v)
            for i, u in enumerate(live)
            for v in live[i + 1:]
            if not qmask[u] & qmask[v] and qcount[u] + qcount[v] <= limit
        )
        return next(((u, v) for _, u, v in pairs if mergeable(u, v)), None)

    heap = [
        k for u, ss in enumerate(succ) for v in ss
        if (k := key(u, v)) is not None
    ]
    heapq.heapify(heap)

    while True:
        if heap:
            k = heapq.heappop(heap)
            u, v = k >> id_bits & ids, k & ids
            if u not in alive or v not in alive:
                continue
            # drop a stale key: the contraction that changed it queued the
            # pair under its new key, which sorts earlier (keys only fall as
            # parts grow); that entry was already judged, and only a
            # contraction of u or v, which queues the pair again, can change
            # the verdict
            if key(u, v) != k or not mergeable(u, v):
                continue
        else:
            pair = best_disjoint()
            if pair is None:
                break
            u, v = pair
        alive[u] += alive.pop(v)
        qmask[u] |= qmask[v]
        qcount[u] = qmask[u].bit_count()
        bu, bv = 1 << u, 1 << v
        reach[u] = (reach[u] | reach[v]) & ~(bu | bv)
        for x in out[v]:
            into[x].discard(v)
            if x != u:
                into[x].add(u)
        for x in into[v]:
            out[x].discard(v)
            if x != u:
                out[x].add(u)
        out[u] = (out[u] | out[v]) - {u, v}
        into[u] = (into[u] | into[v]) - {u, v}
        # the merged part's ancestors (the parts that reached u or v) gain
        # it and its descendants; v's bit may stay, as nothing reads a bit
        # of a merged-away part. A part that already holds them all changes
        # nothing, and neither do its ancestors, whose bits include its own
        gained = reach[u] | bu
        stack = list(into[u])
        seen = set(stack)
        while stack:
            w = stack.pop()
            if reach[w] | gained == reach[w]:
                continue
            reach[w] |= gained
            fresh = into[w] - seen
            seen |= fresh
            stack += fresh
        for w in out[u] | into[u]:
            k = key(w, u) if w < u else key(u, w)
            if k is not None:
                heapq.heappush(heap, k)
    live = sorted(alive)
    pos = {p: i for i, p in enumerate(live)}
    groups = [sorted(alive[p]) for p in live]
    return groups, [{pos[x] for x in out[p]} for p in live]


def _topo_order_groups(
    groups: list[list[int]], adj: list[set[int]]
) -> list[list[int]]:
    """Relabel groups along a topological order of their part graph ``adj``
    (Kahn, smallest original index first for determinism)."""
    indeg = [0] * len(groups)
    for vs in adj:
        for v in vs:
            indeg[v] += 1
    heap = [i for i, d in enumerate(indeg) if d == 0]
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

def optimal_parts_bruteforce(dag: GateDag, limit: int) -> int:
    """Exact minimum part count over all valid acyclic partitions.

    Searches chains of topological prefixes (every acyclic partition is
    one), memoizing on the set of remaining gates, pruning with the qubit
    lower bound ceil(|qubits|/limit) and a heuristic incumbent. Refuses
    DAGs above ``ORACLE_MAX_GATES`` gates.
    """
    ops = dag.circuit.ops
    _check_limit(ops, limit)
    m = dag.num_gates
    if m == 0:
        return 0
    if m > ORACLE_MAX_GATES:
        raise TooLargeForOracleError(
            f"{m} gates exceeds the exact-search guard of {ORACLE_MAX_GATES}"
        )
    qmask = [sum(1 << q for q in op.qubits) for op in ops]
    pred_mask = [0] * m
    for u, v, _ in wires(ops, range(m)):
        pred_mask[v] |= 1 << u

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
    """Partition under ``limit1``, then partition each part's own gates
    under ``limit2``.

    The level-2 pass is dagP on the part's gates alone, in global gate and
    qubit indices, exactly as if the part were a circuit of its own.
    """
    if limit2 > limit1:
        raise PartitionError(f"limit2 {limit2} exceeds limit1 {limit1}")
    level1 = partition_dagp(dag, limit1)
    ops = dag.circuit.ops
    sublevels = tuple(
        _make_result(
            dag.circuit, "dagp", limit2, _dagp(ops, part.gate_indices, limit2)
        )
        for part in level1.parts
    )
    return MultiLevelPartition(limit1, limit2, level1, sublevels)


# --- JSON export / import ---------------------------------------------------

def _part_doc(p: Part) -> dict:
    return {
        "id": p.id,
        "gate_indices": list(p.gate_indices),
        "qubits": list(p.qubits),
        "working_set": p.working_set,
    }


def partition_to_json(
    dag: GateDag, partition: PartitionResult | MultiLevelPartition
) -> str:
    """Serialize a partition of either kind. A flat document holds its
    parts with their part-graph edges and edge cut; a two-level one
    (``"strategy": "multilevel"``) holds the level-1 document plus, per
    level-1 part, its id (``parent``) and its level-2 parts. ``num_parts``,
    ``working_set``, ``edges`` and ``cut_edges`` are written for readers
    and never read back."""
    return json.dumps(_doc(dag, partition), indent=2)


def _doc(dag: GateDag, partition: PartitionResult | MultiLevelPartition) -> dict:
    if isinstance(partition, MultiLevelPartition):
        return {
            "strategy": "multilevel",
            "limit1": partition.limit1,
            "limit2": partition.limit2,
            "level1": _doc(dag, partition.level1),
            "sublevels": [
                {"parent": parent.id, "parts": [_part_doc(p) for p in sub.parts]}
                for parent, sub in zip(partition.level1.parts, partition.sublevels)
            ],
        }
    crossing = partition._crossing(dag)  # one walk over the wires for both
    return {
        "strategy": partition.strategy,
        "limit": partition.limit,
        "num_parts": partition.num_parts,
        "parts": [_part_doc(p) for p in partition.parts],
        "edges": [list(e) for e in sorted(set(crossing))],
        "cut_edges": len(crossing),
    }


def _int(value, name: str) -> int:
    """``value`` if it is a JSON integer, else ``PartitionError``: a float
    such as ``0.0`` would pass every check (``0.0 == 0``) and fail later as
    an index, and ``int`` would truncate ``2.5``; a bool is no integer."""
    if type(value) is not int:
        raise PartitionError(f"{name} {value!r} is not an integer")
    return value


def _parts_from_doc(entries) -> tuple[Part, ...]:
    return tuple(
        Part(
            _int(p["id"], "part id"),
            tuple(_int(g, f"part {p['id']} gate index") for g in p["gate_indices"]),
            tuple(_int(q, f"part {p['id']} qubit") for q in p["qubits"]),
        )
        for p in entries
    )


def _result_from_doc(doc: dict) -> PartitionResult:
    strategy = doc["strategy"]
    if strategy not in STRATEGIES:
        raise PartitionError(
            f"strategy {strategy!r} names no one-level partitioner "
            f"({', '.join(STRATEGIES)})"
        )
    parts = _parts_from_doc(doc["parts"])
    return PartitionResult(strategy, _int(doc["limit"], "limit"), parts)


def _multilevel_from_doc(doc: dict) -> MultiLevelPartition:
    limit2 = _int(doc["limit2"], "limit2")
    return MultiLevelPartition(
        _int(doc["limit1"], "limit1"), limit2, _result_from_doc(doc["level1"]),
        tuple(
            PartitionResult("dagp", limit2, _parts_from_doc(entry["parts"]))
            for entry in doc["sublevels"]
        ),
    )


def _check_parents(ml: MultiLevelPartition, entries) -> None:
    """The field a two-level document adds per sublevel: its parent's id."""
    for part, entry in zip(ml.parts, entries):
        if _int(entry["parent"], "parent") != part.id:
            raise PartitionError(
                f"sublevel of part {entry['parent']} listed for part {part.id}"
            )


def partition_from_json(
    dag: GateDag, text: str
) -> PartitionResult | MultiLevelPartition:
    """Load a document ``partition_to_json`` wrote: two-level if its
    strategy is ``multilevel``, else flat. A flat document's strategy, and
    a two-level one's level-1 strategy, must be ``nat``, ``dfs`` or
    ``dagp``. The partition must pass ``check_partition``, and each
    sublevel of a two-level one must name its level-1 part as ``parent``.
    A ``padded_qubits`` key, which documents written by earlier versions
    carry per sublevel, is ignored."""
    try:
        doc = json.loads(text)
        levels = doc["strategy"] == "multilevel"
        partition = _multilevel_from_doc(doc) if levels else _result_from_doc(doc)
        check_partition(dag, partition)
        if levels:
            _check_parents(partition, doc["sublevels"])
    except (LookupError, TypeError) as e:
        raise PartitionError(f"malformed partition document: {e!r}") from e
    return partition
